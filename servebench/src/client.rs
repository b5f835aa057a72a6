//! The load generator. One thread drives one connection slot over a
//! loopback socket, either closed loop (one request in flight, the next
//! sent when its answer arrives) or open loop (requests pipelined on a
//! Poisson schedule, each timed from when it was due). Every response is
//! checked against the oracle's answer as it arrives.
//!
//! The server closes a keep-alive connection after its per-connection
//! request cap, so a slot sends at most [`PER_CONN_REQUESTS`] requests on
//! one socket and then opens the next, while the old socket drains.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Requests sent on one socket before the slot moves to a fresh one: the
/// server's default per-connection cap, so the client never has requests
/// pipelined behind the response that closes the connection.
pub const PER_CONN_REQUESTS: usize = 100;

/// What an operation is, for latency bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Predict,
    Observe,
    TrainNoJoin,
    TrainJoinAll,
}

/// What a correct response must carry.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `/v1/predict`: exactly these labels.
    Labels(Vec<bool>),
    /// `/v1/observe`: this many rows accepted.
    Accepted(usize),
    /// `/v1/train`: a 200 naming the registered key.
    Trained,
}

/// One prebuilt request with its expected answer.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    /// The complete HTTP/1.1 request bytes.
    pub http: Vec<u8>,
    pub expect: Expect,
}

impl Op {
    /// A keep-alive `POST` of a JSON body.
    pub fn post(kind: Kind, path: &str, body: &str, expect: Expect) -> Op {
        let http = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Op { kind, http, expect }
    }

    fn timeout(&self) -> Duration {
        match self.kind {
            Kind::Predict | Kind::Observe => Duration::from_secs(2),
            Kind::TrainNoJoin | Kind::TrainJoinAll => Duration::from_secs(60),
        }
    }
}

/// How a slot paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// One request in flight; the next goes out when the answer arrives.
    Closed,
    /// Poisson arrivals at this many requests per second, pipelined.
    Open { rate: f64 },
}

/// When a slot interleaves its train requests.
#[derive(Debug, Clone, Copy)]
pub enum TrainEvery {
    Never,
    /// One train request after every this many other requests.
    Ops(usize),
}

/// Everything one slot does in a phase.
pub struct SlotPlan<'a> {
    /// Requests cycled through in order.
    pub ops: &'a [Op],
    /// Index of the first request (so two slots start at different places).
    pub first: usize,
    /// Train requests, alternated in order.
    pub trains: &'a [Op],
    pub train_every: TrainEvery,
    pub pacing: Pacing,
    /// Stop issuing after this many requests (trains included).
    pub limit: Option<usize>,
    /// Seeds the arrival schedule.
    pub seed: u64,
    /// Tags this slot's request ids in traces.
    pub slot: u64,
}

/// What a slot measured in a phase.
#[derive(Debug, Default)]
pub struct SlotResult {
    /// Latencies in nanoseconds: from the due time in open loop, from the
    /// send in closed loop.
    pub predict_ns: Vec<u64>,
    pub observe_ns: Vec<u64>,
    pub train_nojoin_ns: Vec<u64>,
    pub train_joinall_ns: Vec<u64>,
    /// Open loop: how late each request went out after its due time.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correct predict answers that arrived before the phase ended.
    pub predict_ok_in_phase: u64,
    /// Rows answered per cascade tier.
    pub tier_rows: [u64; 4],
    pub observe_rows_sent: u64,
    pub observe_rows_accepted: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl SlotResult {
    /// Folds another slot's result into this one.
    pub fn merge(&mut self, other: SlotResult) {
        self.predict_ns.extend(other.predict_ns);
        self.observe_ns.extend(other.observe_ns);
        self.train_nojoin_ns.extend(other.train_nojoin_ns);
        self.train_joinall_ns.extend(other.train_joinall_ns);
        self.late_ns.extend(other.late_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.predict_ok_in_phase += other.predict_ok_in_phase;
        for (a, b) in self.tier_rows.iter_mut().zip(other.tier_rows) {
            *a += b;
        }
        self.observe_rows_sent += other.observe_rows_sent;
        self.observe_rows_accepted += other.observe_rows_accepted;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }
}

/// A request on the wire.
struct Inflight {
    op: usize,
    train: bool,
    due: Instant,
    sent: Instant,
    req: u64,
}

/// One socket and the requests pipelined on it.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_at: usize,
    input: Vec<u8>,
    inflight: VecDeque<Inflight>,
    sent: usize,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(1 << 16),
            out_at: 0,
            input: Vec::with_capacity(1 << 16),
            inflight: VecDeque::new(),
            sent: 0,
        })
    }

    /// Writes as much queued output as the socket takes.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_at = 0;
        Ok(())
    }

    /// Reads everything available; `Ok(false)` on end of stream.
    fn fill(&mut self, scratch: &mut [u8]) -> std::io::Result<bool> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => self.input.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A parsed response head plus where its body sits in the input buffer.
pub struct Parsed {
    pub status: u16,
    pub close: bool,
    pub body: std::ops::Range<usize>,
}

/// Parses one complete `Content-Length`-framed response at the start of
/// `buf`; `None` while it is still incomplete.
pub fn parse_response(buf: &[u8]) -> Option<Parsed> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let mut len = 0usize;
    let mut close = false;
    for line in head.split("\r\n").skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            len = value.trim().parse().ok()?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    (buf.len() >= head_end + len).then_some(Parsed {
        status,
        close,
        body: head_end..head_end + len,
    })
}

/// The JSON array of `key` in `body` (`"key":[...]`), split on commas;
/// `None` when the key is absent or `null`.
pub fn json_array<'b>(body: &'b str, key: &str) -> Option<impl Iterator<Item = &'b str>> {
    let needle = format!("\"{key}\":[");
    let start = body.find(&needle)? + needle.len();
    let len = body[start..].find(']')?;
    let inner = &body[start..start + len];
    Some(inner.split(',').filter(|t| !t.is_empty()).map(str::trim))
}

/// The unsigned integer field `key` in `body`.
pub fn json_uint(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let digits: &str = &body[start..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Checks one response against its op; `Err` names the mismatch.
fn check(op: &Op, status: u16, body: &str, result: &mut SlotResult) -> Result<(), String> {
    if status != 200 {
        let snippet: String = body.chars().take(160).collect();
        return Err(format!("{:?} answered {status}: {snippet}", op.kind));
    }
    match &op.expect {
        Expect::Labels(want) => {
            let labels = json_array(body, "labels").ok_or("predict answer without labels")?;
            let mut n = 0;
            for (i, tok) in labels.enumerate() {
                let got = match tok {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("label `{other}` is not a bool")),
                };
                if want.get(i) != Some(&got) {
                    return Err(format!("label {i} is {got}, oracle says {:?}", want.get(i)));
                }
                n += 1;
            }
            if n != want.len() {
                return Err(format!("{n} labels for {} rows", want.len()));
            }
            if let Some(tiers) = json_array(body, "tiers") {
                for t in tiers {
                    let tier: usize = t.parse().map_err(|_| format!("bad tier `{t}`"))?;
                    result.tier_rows[tier.min(3)] += 1;
                }
            }
            Ok(())
        }
        Expect::Accepted(rows) => {
            let accepted = json_uint(body, "accepted").ok_or("observe answer without count")?;
            result.observe_rows_sent += *rows as u64;
            result.observe_rows_accepted += accepted;
            if accepted as usize != *rows {
                return Err(format!("observe accepted {accepted} of {rows} rows"));
            }
            Ok(())
        }
        Expect::Trained => {
            if body.contains("\"key\":") {
                Ok(())
            } else {
                Err("train answer without a key".into())
            }
        }
    }
}

/// Checks one response outside a phase (the traced run's serial replay).
pub fn verify(op: &Op, status: u16, body: &str) -> Result<(), String> {
    check(op, status, body, &mut SlotResult::default())
}

/// splitmix64: the arrival schedule's generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Waits until a socket is ready or `wait` passes. `ppoll` takes a
/// nanosecond timeout, where `poll` rounds up to whole milliseconds.
fn wait_ready(conns: &[Conn], wait: Duration) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd records laid out as the C struct, `ts` outlives the call, and
    // a null sigmask leaves the signal mask unchanged.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Makes this thread's timed waits wake on time: the default 50 µs timer
/// slack would add up to 50 µs to every scheduled send.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only changes
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Runs one slot against `addr` until `end` (or its request limit), then
/// drains what is still in flight. With a tracer, every request records a
/// `loadgen.request` span (due to answer) with `loadgen.send` and
/// `loadgen.check` children.
pub fn drive(
    addr: SocketAddr,
    plan: &SlotPlan,
    start: Instant,
    end: Instant,
    mut tracer: Option<&mut Tracer>,
) -> SlotResult {
    tighten_timer_slack();
    let mut result = SlotResult::default();
    let mut rng = SplitMix(plan.seed);
    let mut conns: Vec<Conn> = Vec::new();
    // Index into `conns` of the socket taking new requests.
    let mut active: Option<usize> = None;
    let mut retry: VecDeque<Inflight> = VecDeque::new();
    let mut scratch = vec![0u8; 1 << 16];
    let mut next_op = plan.first;
    let mut trains_sent = 0usize;
    let mut issued = 0usize;
    let mut since_train = 0usize;
    let gap = |rng: &mut SplitMix, rate: f64| Duration::from_secs_f64(-rng.unit().ln() / rate);
    let mut next_due = match plan.pacing {
        Pacing::Closed => start,
        Pacing::Open { rate } => start + gap(&mut rng, rate),
    };
    let mut req_seq = 0u64;
    let drain_deadline = end + Duration::from_secs(2);

    loop {
        let now = Instant::now();
        let in_flight: usize = conns.iter().map(|c| c.inflight.len()).sum();
        let may_issue = now < end && plan.limit.is_none_or(|l| issued < l);
        if !may_issue && in_flight == 0 && retry.is_empty() {
            break;
        }
        let any_train_in_flight = conns.iter().any(|c| c.inflight.iter().any(|f| f.train));
        if !may_issue && now >= drain_deadline && !any_train_in_flight {
            for c in conns.drain(..) {
                for f in c.inflight {
                    result.fail(format!(
                        "{:?} unanswered at phase end",
                        op_of(plan, &f).kind
                    ));
                }
            }
            break;
        }

        // Decide what goes out now.
        let mut to_send: Vec<Inflight> = retry.drain(..).collect();
        if may_issue {
            loop {
                let (train_due, due) = match plan.pacing {
                    Pacing::Closed => {
                        if in_flight + to_send.len() > 0 {
                            break;
                        }
                        let train_due = match plan.train_every {
                            TrainEvery::Never => false,
                            TrainEvery::Ops(n) => since_train >= n,
                        };
                        (train_due, now)
                    }
                    Pacing::Open { .. } if next_due <= now => (false, next_due),
                    Pacing::Open { .. } => break,
                };
                if train_due && !plan.trains.is_empty() {
                    to_send.push(Inflight {
                        op: trains_sent % plan.trains.len(),
                        train: true,
                        due,
                        sent: now,
                        req: 0,
                    });
                    trains_sent += 1;
                    since_train = 0;
                } else {
                    to_send.push(Inflight {
                        op: next_op % plan.ops.len(),
                        train: false,
                        due,
                        sent: now,
                        req: 0,
                    });
                    next_op += 1;
                    since_train += 1;
                    if let Pacing::Open { rate } = plan.pacing {
                        next_due += gap(&mut rng, rate);
                    }
                }
                issued += 1;
                if matches!(plan.pacing, Pacing::Closed) || plan.limit.is_some_and(|l| issued >= l)
                {
                    break;
                }
            }
        }

        for mut f in to_send {
            let op = op_of(plan, &f);
            let send_start = Instant::now();
            if f.req == 0 {
                req_seq += 1;
                f.req = (plan.slot << 40) | req_seq;
                result.attempted += 1;
                if let Pacing::Open { .. } = plan.pacing {
                    result
                        .late_ns
                        .push(send_start.saturating_duration_since(f.due).as_nanos() as u64);
                }
            }
            let idx = match active {
                Some(i) if conns[i].sent < PER_CONN_REQUESTS => i,
                _ => match Conn::open(addr) {
                    Ok(c) => {
                        conns.push(c);
                        conns.len() - 1
                    }
                    Err(e) => {
                        result.fail(format!("connect: {e}"));
                        continue;
                    }
                },
            };
            active = Some(idx);
            let conn = &mut conns[idx];
            conn.out.extend_from_slice(&op.http);
            conn.sent += 1;
            f.sent = send_start;
            if let Err(e) = conn.flush() {
                // This request and every one pipelined before it on the
                // socket are lost.
                for _ in 0..=conns.remove(idx).inflight.len() {
                    result.fail(format!("send: {e}"));
                }
                active = None;
                continue;
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.record_child("loadgen.send", f.req, send_start, Instant::now());
            }
            conn.inflight.push_back(f);
        }

        // Read what arrived and check it.
        let mut i = 0;
        while i < conns.len() {
            let mut drop_conn = false;
            let conn = &mut conns[i];
            // A socket that fails to send or receive is treated as closed:
            // whatever is still in flight on it fails below.
            let open = conn.flush().is_ok() && conn.fill(&mut scratch).unwrap_or(false);
            let mut consumed = 0;
            let mut closed_by_server = false;
            while let Some(p) = parse_response(&conn.input[consumed..]) {
                let Some(f) = conn.inflight.pop_front() else {
                    result.fail("response with no request in flight".into());
                    break;
                };
                let done = Instant::now();
                let op = op_of(plan, &f);
                let body = std::str::from_utf8(
                    &conn.input[consumed + p.body.start..consumed + p.body.end],
                )
                .unwrap_or("");
                let verdict = check(op, p.status, body, &mut result);
                let checked = Instant::now();
                let from = match plan.pacing {
                    Pacing::Closed => f.sent,
                    Pacing::Open { .. } => f.due,
                };
                match verdict {
                    Ok(()) => {
                        let ns = done.saturating_duration_since(from).as_nanos() as u64;
                        match op.kind {
                            Kind::Predict => {
                                result.predict_ns.push(ns);
                                if done <= end {
                                    result.predict_ok_in_phase += 1;
                                }
                            }
                            Kind::Observe => result.observe_ns.push(ns),
                            Kind::TrainNoJoin => result.train_nojoin_ns.push(ns),
                            Kind::TrainJoinAll => result.train_joinall_ns.push(ns),
                        }
                    }
                    Err(why) => result.fail(why),
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.record_root("loadgen.request", f.req, from, checked);
                    t.record_child("loadgen.check", f.req, done, checked);
                }
                consumed += p.body.end;
                if p.close {
                    closed_by_server = true;
                    break;
                }
            }
            conn.input.drain(..consumed);
            if closed_by_server {
                // Requests pipelined behind a closing response were never
                // read by the server: send them again on a fresh socket.
                retry.extend(conn.inflight.drain(..));
                drop_conn = true;
            } else if !open {
                for f in conn.inflight.drain(..) {
                    result.fail(format!(
                        "{:?}: connection closed with the request in flight",
                        op_of(plan, &f).kind
                    ));
                }
                drop_conn = true;
            } else if let Some(f) = conn.inflight.front() {
                if now.saturating_duration_since(f.sent) > op_of(plan, f).timeout() {
                    for f in conn.inflight.drain(..) {
                        result.fail(format!("{:?} timed out", op_of(plan, &f).kind));
                    }
                    drop_conn = true;
                }
            } else if conn.sent >= PER_CONN_REQUESTS {
                drop_conn = true;
            }
            if drop_conn {
                conns.remove(i);
                active = match active {
                    Some(a) if a == i => None,
                    Some(a) if a > i => Some(a - 1),
                    other => other,
                };
            } else {
                i += 1;
            }
        }
        if !retry.is_empty() {
            continue;
        }

        // Sleep until the next send is due or a socket has data.
        let now = Instant::now();
        let mut wake = now + Duration::from_millis(50);
        if now < end {
            if let Pacing::Open { .. } = plan.pacing {
                wake = wake.min(next_due);
            } else if conns.iter().all(|c| c.inflight.is_empty()) {
                continue;
            }
            wake = wake.min(end);
        }
        if wake > now && !conns.is_empty() {
            wait_ready(&conns, wake - now);
        } else if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    result
}

fn op_of<'a>(plan: &'a SlotPlan, f: &Inflight) -> &'a Op {
    if f.train {
        &plan.trains[f.op]
    } else {
        &plan.ops[f.op]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_only_when_complete() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\
                     Connection: close\r\n\r\n{\"a\":";
        let p = parse_response(full).expect("complete");
        assert_eq!(p.status, 200);
        assert!(p.close);
        assert_eq!(&full[p.body.clone()], b"{\"a\":");
        assert!(parse_response(&full[..full.len() - 1]).is_none());
    }

    #[test]
    fn answers_are_checked_against_the_oracle() {
        let op = Op::post(
            Kind::Predict,
            "/v1/predict",
            "{}",
            Expect::Labels(vec![true, false]),
        );
        let mut r = SlotResult::default();
        let body = "{\"model\":\"c@1\",\"labels\":[true,false],\"tiers\":[0,1],\"latency_ms\":0.1}";
        assert!(check(&op, 200, body, &mut r).is_ok());
        assert_eq!(r.tier_rows[..2], [1, 1]);
        let flipped = "{\"labels\":[false,false],\"tiers\":null}";
        assert!(check(&op, 200, flipped, &mut r).is_err());
        assert!(check(&op, 500, body, &mut r).is_err());
        let short = "{\"labels\":[true]}";
        assert!(check(&op, 200, short, &mut r).is_err());

        let obs = Op::post(Kind::Observe, "/v1/observe", "{}", Expect::Accepted(3));
        assert!(check(&obs, 200, "{\"accepted\":3,\"buffered\":9}", &mut r).is_ok());
        assert!(check(&obs, 200, "{\"accepted\":2,\"buffered\":9}", &mut r).is_err());
    }
}
