//! `servebench`: the repository's end-to-end serving benchmark.
//!
//! ```text
//! servebench --server <hamlet-serve> --workload <tree-1row|mlp-64row|cascade-writes>
//!            --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! servebench oracle <artifact-dir> <in> <out>      (internal: the oracle process)
//! ```
//!
//! From the seed it generates the `expedia` star, prepares the artifacts,
//! asks the oracle for every answer, starts the real `hamlet-serve serve`
//! binary and drives it over loopback from two connection slots. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! replays the same inputs through each layer and prints the per-layer
//! metrics. The last line of stdout is the result JSON. See README.md.

mod client;
mod host;
mod layers;
mod oracle;
mod prep;
mod server;
mod trace;
mod workload;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hamlet_serve::rollout::OBSERVE_CAP_ROWS;
use serde_json::{Number, Value};

use client::{SlotPlan, SlotResult};
use host::{Samples, TcpCounters};
use trace::Tracer;
use workload::{Traffic, Workload};

/// How often the traced run samples `/metrics` during its socket phases.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// Untraced/traced open-loop phase pairs the tracing overhead is taken
/// from.
const OVERHEAD_PAIRS: usize = 4;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}` (one of {:?})",
                        Workload::ALL.map(Workload::name)
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("oracle") {
        oracle::main(&args[1..])
    } else {
        parse_args(&args).and_then(|a| run(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Quantile `q` of `v` by linear interpolation between order statistics.
fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] as f64 + (s[hi] as f64 - s[lo] as f64) * (pos - lo as f64)
}

fn median(v: &[u64]) -> f64 {
    quantile(v, 0.5)
}

fn median_f64(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Cycles per second of `--seconds` in an untraced run. Each cycle runs a
/// closed-loop phase (0.4 of its measured time) and an open-loop phase
/// (0.6), then, outside the measured time, a write probe, one set-up
/// sample and the reference passes. With two connections the server's speed swings from phase to
/// phase (how their requests fall into coalesced batches); short cycles
/// average many phases, and every kind of sample is spread over the run.
const CYCLES_PER_SECOND: f64 = 3.0;

/// Passes of the reference workload per cycle; the fastest one counts.
const REFERENCE_PASSES: usize = 5;

/// Time of one reference pass at the reference speed, in nanoseconds:
/// about what it takes on a quiet host of the 2-vCPU Xeon guest the
/// benchmark was tuned on. Every time metric is scaled by this over the
/// run's median pass, so figures read as if measured at that speed; see
/// README.md, "Noise on a shared host".
const REFERENCE_NS: f64 = 440_000.0;

/// Indices, in order, of the quarter of the cycles (at least one) in which
/// the hypervisor stole the least CPU time.
fn calm_cycles(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    order.truncate((steal.len() / 4).max(1));
    order.sort_unstable();
    order
}

/// The Theil–Sen line through `(steal share, value)` points, read at a
/// steal share of 0: the value with nothing stolen. The slope is the
/// median of the slopes between pairs of points with different steal
/// shares (0 if there are none), the intercept the median of
/// `value − slope × steal`, so a few points far off the line, such as a
/// retrain that met a background compaction, do not move it.
fn at_zero_steal(points: &[(f64, f64)]) -> f64 {
    let mut slopes = Vec::new();
    for (i, &(x1, y1)) in points.iter().enumerate() {
        for &(x2, y2) in &points[i + 1..] {
            if x1 != x2 {
                slopes.push((y2 - y1) / (x2 - x1));
            }
        }
    }
    let slope = if slopes.is_empty() {
        0.0
    } else {
        median_f64(&slopes)
    };
    let at_zero: Vec<f64> = points.iter().map(|&(x, y)| y - slope * x).collect();
    median_f64(&at_zero)
}

/// Metrics in report order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Runs two slots for `dur`. With `sample`, the calling thread invokes it
/// every [`SAMPLE_EVERY`] until the phase ends; `tracers` (none or one per
/// slot) record the slots' spans.
fn run_phase(
    addr: SocketAddr,
    plans: &[SlotPlan; 2],
    dur: Duration,
    tracers: &mut [Tracer],
    mut sample: Option<&mut dyn FnMut()>,
) -> SlotResult {
    let start = Instant::now();
    let end = start + dur;
    let mut merged = SlotResult::default();
    std::thread::scope(|s| {
        let mut tracers = tracers.iter_mut();
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let tracer = tracers.next();
                s.spawn(move || client::drive(addr, plan, start, end, tracer))
            })
            .collect();
        if let Some(f) = sample.as_mut() {
            while Instant::now() < end {
                f();
                std::thread::sleep(SAMPLE_EVERY);
            }
        }
        for h in handles {
            merged.merge(h.join().expect("a load thread panicked"));
        }
    });
    merged
}

fn scrape(addr: SocketAddr) -> Result<Samples, String> {
    match server::get(addr, "/metrics") {
        Ok((200, text)) => Ok(host::parse_metrics(&text)),
        Ok((status, _)) => Err(format!("/metrics answered {status}")),
        Err(e) => Err(format!("/metrics: {e}")),
    }
}

fn delta(before: &Samples, after: &Samples, name: &str, labels: &[&str]) -> f64 {
    host::sum_of(after, name, labels) - host::sum_of(before, name, labels)
}

/// Requests the server counted on the endpoints the load uses.
fn server_requests(before: &Samples, after: &Samples) -> f64 {
    ["predict", "observe", "train"]
        .iter()
        .map(|e| {
            let label = format!("endpoint=\"{e}\"");
            delta(before, after, "hamlet_requests_total", &[&label])
        })
        .sum()
}

/// Copies the artifact files of `from` into `to`.
fn copy_artifacts(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(entry.file_name()))
                .map_err(|e| format!("copying {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

fn num(v: f64) -> Value {
    Value::Num(Number::Float(v))
}

fn count(v: u64) -> Value {
    Value::Num(Number::UInt(v))
}

/// What a run reports besides its metrics.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Reasons the result is not correct, if any.
    problems: Vec<String>,
    fingerprint: Value,
    extra: Vec<(String, Value)>,
}

fn run(a: &Args) -> Result<(), String> {
    let tcp_before = TcpCounters::read();
    let (steal_before, ticks_before) = host::cpu_ticks();
    let run_dir = a.out.join(format!(
        "{}-seed{}-trace{}-{}",
        a.workload.name(),
        a.seed,
        u8::from(a.trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let prep_start = Instant::now();
    let prepared = prep::prepare(&a.server, &run_dir, a.seed)?;
    let bench = std::env::current_exe().map_err(|e| e.to_string())?;
    let traffic = workload::traffic(a.workload, &prepared, a.seed, |q| {
        oracle::expected(&bench, &prepared.art, q, &run_dir)
    })?;
    let prep_s = prep_start.elapsed().as_secs_f64();
    let log = run_dir.join("server.log");

    let mut outcome = if a.trace {
        traced(a, &prepared, &traffic, &run_dir, &log, tcp_before)?
    } else {
        untraced(a, &prepared, &traffic, &log, tcp_before)?
    };
    let (steal, ticks) = host::cpu_ticks();
    let stolen = (steal - steal_before) as f64 / (ticks - ticks_before).max(1) as f64;
    outcome.extra.push(("cpu_steal_share".into(), num(stolen)));
    outcome.extra.push(("prep_s".into(), num(prep_s)));
    outcome
        .extra
        .push(("cascade_target_p".into(), num(prepared.target_p)));
    outcome
        .extra
        .push(("star_seed".into(), count(prepared.star_seed)));

    let correct = outcome.problems.is_empty();
    for p in &outcome.problems {
        eprintln!("servebench: NOT CORRECT: {p}");
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<34} {value:>14.4} {unit}");
    }
    let metrics = Value::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), num(*value)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), count(outcome.attempted.max(1))),
        ("failed".into(), count(outcome.failed)),
        ("metrics".into(), metrics),
    ]);
    let context = Value::Obj(vec![
        ("fingerprint".into(), outcome.fingerprint),
        ("run".into(), Value::Obj(outcome.extra)),
        (
            "problems".into(),
            Value::Arr(outcome.problems.into_iter().map(Value::Str).collect()),
        ),
    ]);
    let record = Value::Obj(vec![
        ("context".into(), context.clone()),
        ("result".into(), result.clone()),
    ]);
    let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::write(run_dir.join("result.json"), text).map_err(|e| e.to_string())?;
    // The artifacts are rebuilt from the seed on every run.
    let _ = std::fs::remove_dir_all(&prepared.art);
    println!(
        "{}",
        serde_json::to_string(&context).map_err(|e| e.to_string())?
    );
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Checks shared by both runs: every operation succeeded, the observe
/// writes were all accepted, and on the cascade both tiers answered.
fn problems(w: Workload, results: &[&SlotResult]) -> Vec<String> {
    let mut out = Vec::new();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    if failed > 0 {
        let first = results
            .iter()
            .find_map(|r| r.first_error.clone())
            .unwrap_or_default();
        out.push(format!("{failed} operations failed; first: {first}"));
    }
    let sent: u64 = results.iter().map(|r| r.observe_rows_sent).sum();
    let accepted: u64 = results.iter().map(|r| r.observe_rows_accepted).sum();
    if sent != accepted {
        out.push(format!("observe accepted {accepted} of {sent} rows"));
    }
    if w == Workload::CascadeWrites {
        let mut tiers = [0u64; 4];
        for r in results {
            for (t, n) in tiers.iter_mut().zip(r.tier_rows) {
                *t += n;
            }
        }
        if tiers[0] == 0 || tiers[1] == 0 {
            out.push(format!("a cascade tier answered no rows: {tiers:?}"));
        }
    }
    out
}

/// Starts the server that takes the load; on the cascade workload it also
/// fills the observe buffer.
fn start_server(
    a: &Args,
    art: &Path,
    log: &Path,
    t: &Traffic,
) -> Result<(server::ServerProc, f64), String> {
    let (proc, secs) = server::start(&a.server, art, log)?;
    if a.workload == Workload::CascadeWrites {
        fill_observe_buffer(proc.addr, &t.fill_observe)?;
    }
    Ok((proc, secs))
}

/// One set-up sample: a server started on a fresh copy of the artifacts,
/// timed to its first `/healthz` 200, then stopped.
fn setup_sample(a: &Args, pristine: &Path, dir: &Path, log: &Path) -> Result<f64, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    copy_artifacts(pristine, dir)?;
    let (proc, secs) = server::start(&a.server, dir, log)?;
    drop(proc);
    Ok(secs)
}

/// Fills the server's observe buffer to its cap before the cascade
/// workload measures. In steady state the buffer is full; filled up front,
/// it holds the same rows, and so the same memory, on every run, however
/// many writes the load manages.
fn fill_observe_buffer(addr: SocketAddr, fill: &client::Op) -> Result<(), String> {
    loop {
        let (status, body) = server::send(addr, &fill.http)
            .map_err(|e| format!("filling the observe buffer: {e}"))?;
        if status != 200 {
            return Err(format!("filling the observe buffer: {status} {body}"));
        }
        let buffered =
            client::json_uint(&body, "buffered").ok_or("observe answer without count")?;
        if buffered >= OBSERVE_CAP_ROWS as u64 {
            return Ok(());
        }
    }
}

fn untraced(
    a: &Args,
    prepared: &prep::Prepared,
    t: &Traffic,
    log: &Path,
    tcp_before: TcpCounters,
) -> Result<Outcome, String> {
    let w = a.workload;
    let cycles = ((a.seconds * CYCLES_PER_SECOND).round() as usize).max(1);
    // Set-up is sampled on copies of the artifacts as prepared, before the
    // serving server adds its event log and journals to them.
    let pristine = log.with_file_name("art-pristine");
    copy_artifacts(&prepared.art, &pristine)?;
    let setup_dir = log.with_file_name("art-setup");
    let (server, _) = start_server(a, &prepared.art, log, t)?;
    let addr = server.addr;
    let before = scrape(addr)?;
    let closed_dur = Duration::from_secs_f64(a.seconds * 0.4 / cycles as f64);
    let open_dur = Duration::from_secs_f64(a.seconds * 0.6 / cycles as f64);
    let (mut closed, mut open, mut probe) = (
        SlotResult::default(),
        SlotResult::default(),
        SlotResult::default(),
    );
    let (mut capacity, mut steal, mut open_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setups, mut reference) = (Vec::new(), Vec::new());
    // (steal share of the cycle, latency in ms) of every retrain.
    let (mut nojoin, mut joinall) = (Vec::new(), Vec::new());
    for cycle in 0..cycles {
        let ticks = host::cpu_ticks();
        let awake = host::KeepAwake::start();
        let plans = workload::phase_plans(w, t, false, a.seed, cycle);
        let c = run_phase(addr, &plans, closed_dur, &mut [], None);
        let plans = workload::phase_plans(w, t, true, a.seed, cycle);
        let o = run_phase(addr, &plans, open_dur, &mut [], None);
        drop(awake);
        let now = Instant::now();
        let plan = workload::probe_plan(t, a.seed, cycle);
        let p = client::drive(addr, &plan, now, now + Duration::from_secs(120), None);
        setups.push(setup_sample(a, &pristine, &setup_dir, log)?);
        reference.push(server.paused(|| {
            (0..REFERENCE_PASSES)
                .map(|_| host::reference_pass_ns())
                .min()
                .unwrap_or(0) as f64
        }));
        let after = host::cpu_ticks();
        let stolen = (after.0 - ticks.0) as f64 / (after.1 - ticks.1).max(1) as f64;
        steal.push(stolen);
        capacity.push((
            stolen,
            c.predict_ok_in_phase as f64 / closed_dur.as_secs_f64(),
        ));
        open_ns.push(o.predict_ns.clone());
        nojoin.extend(
            p.train_nojoin_ns
                .iter()
                .map(|&ns| (stolen, ns as f64 / 1e6)),
        );
        joinall.extend(
            p.train_joinall_ns
                .iter()
                .map(|&ns| (stolen, ns as f64 / 1e6)),
        );
        closed.merge(c);
        open.merge(o);
        probe.merge(p);
    }
    let rss = host::peak_rss_mb(server.pid()).unwrap_or(f64::NAN);
    let after = scrape(addr)?;
    let fingerprint = host::fingerprint(a.seed, w.name(), &server.args, &after);
    drop(server);
    let _ = std::fs::remove_dir_all(&pristine);
    let _ = std::fs::remove_dir_all(&setup_dir);
    let tcp = TcpCounters::read().since(&tcp_before);

    let results = [&closed, &open, &probe];
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let mut problems = problems(w, &results);
    if open.predict_ns.is_empty() || closed.predict_ok_in_phase == 0 {
        problems.push("no predict request was answered correctly".into());
    }
    let tier_rows = results.iter().fold([0u64; 4], |mut acc, r| {
        for (a, b) in acc.iter_mut().zip(r.tier_rows) {
            *a += b;
        }
        acc
    });
    let calm = calm_cycles(&steal);
    let calm_ns: Vec<u64> = calm
        .iter()
        .flat_map(|&i| open_ns[i].iter().copied())
        .collect();
    let raw_capacity = at_zero_steal(&capacity);
    let raw_p50 = quantile(&calm_ns, 0.5) / 1e6;
    let raw_nojoin = at_zero_steal(&nojoin);
    let raw_joinall = at_zero_steal(&joinall);
    let raw_p99 = quantile(&open.predict_ns, 0.99) / 1e6;
    let open_samples = open.predict_ns.len();
    // Observes run beside the predicts on the cascade workload and in the
    // probes elsewhere; retrains run in the probes.
    let observe_ns = if w == Workload::CascadeWrites {
        [closed.observe_ns.as_slice(), open.observe_ns.as_slice()].concat()
    } else {
        probe.observe_ns.clone()
    };
    let ms = |ns: f64| ns / 1e6;
    let raw_setup = median_f64(&setups);
    let raw_observe = ms(median(&observe_ns));
    // The same figures without the steal handling, for comparison.
    let plain = vec![
        (
            "capacity_rps".to_string(),
            num(closed.predict_ok_in_phase as f64 / (closed_dur.as_secs_f64() * cycles as f64)),
        ),
        ("p50_ms".into(), num(quantile(&open.predict_ns, 0.5) / 1e6)),
        (
            "train_nojoin_ms".into(),
            num(ms(median(&probe.train_nojoin_ns))),
        ),
        (
            "train_joinall_ms".into(),
            num(ms(median(&probe.train_joinall_ns))),
        ),
    ];
    // How much slower than the reference speed the host ran this guest.
    let slowdown = median_f64(&reference) / REFERENCE_NS;
    let metrics: Metrics = vec![
        ("setup_s", raw_setup / slowdown, "s"),
        ("capacity_rps", raw_capacity * slowdown, "1/s"),
        ("p50_ms", raw_p50 / slowdown, "ms"),
        (
            "ok_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        ("server_rss_mb", rss, "MiB"),
        ("train_nojoin_ms", raw_nojoin / slowdown, "ms"),
        ("train_joinall_ms", raw_joinall / slowdown, "ms"),
    ];
    let counted = server_requests(&before, &after);
    if tcp.any() {
        eprintln!("servebench: FLAGGED: kernel TCP counters moved during the run: {tcp:?}");
    }
    let floats = |v: &[f64]| Value::Arr(v.iter().map(|&x| num(x)).collect());
    let raw = vec![
        ("setup_s".to_string(), num(raw_setup)),
        ("capacity_rps".into(), num(raw_capacity)),
        ("p50_ms".into(), num(raw_p50)),
        ("p99_ms".into(), num(raw_p99)),
        ("observe_p50_ms".into(), num(raw_observe)),
        ("train_nojoin_ms".into(), num(raw_nojoin)),
        ("train_joinall_ms".into(), num(raw_joinall)),
    ];
    let extra = vec![
        (
            "fail_ratio".into(),
            num(failed as f64 / attempted.max(1) as f64),
        ),
        ("tcp_listen_overflows".into(), count(tcp.listen_overflows)),
        ("tcp_listen_drops".into(), count(tcp.listen_drops)),
        ("tcp_syn_retrans".into(), count(tcp.syn_retrans)),
        ("tcp_flagged".into(), Value::Bool(tcp.any())),
        ("server_requests".into(), num(counted)),
        ("client_requests".into(), count(attempted)),
        // Measured like the metrics, but too dependent on the host to
        // bound; see README.md.
        ("p99_ms".into(), num(raw_p99 / slowdown)),
        ("open_loop_samples".into(), count(open_samples as u64)),
        ("observe_p50_ms".into(), num(raw_observe / slowdown)),
        ("observe_samples".into(), count(observe_ns.len() as u64)),
        ("host_slowdown".into(), num(slowdown)),
        ("raw".into(), Value::Obj(raw)),
        ("calm_cycles".into(), count(calm.len() as u64)),
        ("without_steal_handling".into(), Value::Obj(plain)),
        ("cycles".into(), count(cycles as u64)),
        (
            "cycle_capacity_rps".into(),
            floats(&capacity.iter().map(|&(_, c)| c).collect::<Vec<_>>()),
        ),
        ("cycle_steal_share".into(), floats(&steal)),
        ("cycle_reference_ns".into(), floats(&reference)),
        ("setup_starts_s".into(), floats(&setups)),
        (
            "tier_rows".into(),
            Value::Arr(tier_rows.iter().map(|&n| count(n)).collect()),
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        fingerprint,
        extra,
    })
}

fn traced(
    a: &Args,
    prepared: &prep::Prepared,
    t: &Traffic,
    run_dir: &Path,
    log: &Path,
    tcp_before: TcpCounters,
) -> Result<Outcome, String> {
    let w = a.workload;
    // The in-process state writes its own event log and journals, so it
    // gets a copy of the artifacts the server never touches.
    let art_copy = &run_dir.join("art-inproc");
    copy_artifacts(&prepared.art, art_copy)?;
    let inproc = layers::InProc::boot(art_copy)?;
    let (server, _) = start_server(a, &prepared.art, log, t)?;
    let addr = server.addr;
    // The socket phases run as in the untraced run.
    let awake = host::KeepAwake::start();
    let phase = Duration::from_secs_f64(a.seconds * 0.2);
    let origin = Instant::now();
    let mut slot_tracers = [Tracer::new(origin, 1), Tracer::new(origin, 2)];
    let mut main_tracer = Tracer::new(origin, 3);

    let mut queue_max = 0f64;
    let mut sample = || {
        if let Ok(s) = scrape(addr) {
            let deepest = s
                .iter()
                .filter(|(k, _)| k.starts_with("hamlet_fair_queue_depth{"))
                .map(|(_, v)| *v)
                .fold(0.0, f64::max);
            queue_max = queue_max.max(deepest);
        }
    };
    let before = scrape(addr)?;
    let plans = workload::phase_plans(w, t, false, a.seed, 0);
    let closed = run_phase(addr, &plans, phase, &mut [], Some(&mut sample));
    // Untraced and traced open-loop phases alternate on the same schedule,
    // so drift on the host lands on both sides of the overhead ratio.
    let (mut open_plain, mut open_traced) = (SlotResult::default(), SlotResult::default());
    let (mut p50_plain, mut p50_traced) = (Vec::new(), Vec::new());
    let pair = phase / OVERHEAD_PAIRS as u32;
    for i in 0..OVERHEAD_PAIRS {
        let plans = workload::phase_plans(w, t, true, a.seed, 1 + i);
        let plain = run_phase(addr, &plans, pair, &mut [], Some(&mut sample));
        let traced = run_phase(addr, &plans, pair, &mut slot_tracers, Some(&mut sample));
        p50_plain.push(median(&plain.predict_ns));
        p50_traced.push(median(&traced.predict_ns));
        open_plain.merge(plain);
        open_traced.merge(traced);
    }
    let mid = scrape(addr)?;
    let (dec_attempted, dec_failed, dec_error) = layers::decompose(
        addr,
        &inproc,
        &t.predict_bodies,
        &t.predicts,
        phase,
        &mut main_tracer,
        4 << 40,
    );
    drop(awake);
    let after = scrape(addr)?;
    let fingerprint = host::fingerprint(a.seed, w.name(), &server.args, &after);
    drop(server);
    layers::sweep(
        &inproc,
        prepared,
        &t.observe_src,
        run_dir,
        art_copy,
        &mut main_tracer,
        5 << 40,
    )?;
    let tcp = TcpCounters::read().since(&tcp_before);

    let results = [&closed, &open_plain, &open_traced];
    let attempted = results.iter().map(|r| r.attempted).sum::<u64>() + dec_attempted;
    let failed = results.iter().map(|r| r.failed).sum::<u64>() + dec_failed;
    let mut problems = problems(w, &results);
    if let Some(e) = dec_error {
        problems.push(format!("{dec_failed} replayed requests failed; first: {e}"));
    }

    let spans = &main_tracer.spans;
    let (net, router_self) = layers::net_and_router_self(spans);
    let span_median = |name: &str| median(&trace::durations(spans, name));
    let coalesce = |kind: &str| {
        let label = format!("kind=\"{kind}\"");
        delta(&before, &mid, "hamlet_coalesce_total", &[&label])
    };
    let (merged, solo, batches) = (
        coalesce("merged_requests"),
        coalesce("solo_requests"),
        coalesce("batches"),
    );
    let rows = delta(&before, &mid, "hamlet_model_rows_total", &[]);
    let escalation = if w == Workload::CascadeWrites {
        let all = delta(&before, &mid, "hamlet_cascade_tier_rows_total", &[]);
        let front = delta(
            &before,
            &mid,
            "hamlet_cascade_tier_rows_total",
            &["tier=\"0\""],
        );
        (all - front) / all
    } else {
        let [front, top] = prepared.tier_rows;
        top as f64 / (front + top) as f64
    };
    let p50_plain = median_f64(&p50_plain);
    let p50_traced = median_f64(&p50_traced);
    let server_requests = server_requests(&before, &after);
    let client_requests = attempted;
    if server_requests as u64 != client_requests {
        eprintln!(
            "servebench: the server counted {server_requests} requests, the client sent {client_requests}"
        );
    }
    let all_endpoints = |name: &str| delta(&before, &after, name, &[]);
    let per_row = |name: &str, rows: usize| span_median(name) / rows as f64;
    let metrics: Metrics = vec![
        ("http.net_us", median(&net) / 1e3, "us"),
        ("server.router_self_us", median(&router_self) / 1e3, "us"),
        (
            "server.execute_us",
            span_median("server.execute") / 1e3,
            "us",
        ),
        ("server.fair_queue_depth_max", queue_max, "count"),
        ("api.decode_us", span_median("api.decode") / 1e3, "us"),
        ("api.encode_us", span_median("api.encode") / 1e3, "us"),
        (
            "registry.get_ns",
            span_median("registry.get") / f64::from(layers::GET_REPS),
            "ns",
        ),
        (
            "artifact.validate_us",
            span_median("artifact.validate") / 1e3,
            "us",
        ),
        (
            "artifact.warm_load_ms",
            span_median("artifact.warm_load") / 1e6,
            "ms",
        ),
        ("coalesce.merged_ratio", merged / (merged + solo), "ratio"),
        ("coalesce.rows_per_batch", rows / (solo + batches), "rows"),
        (
            "ml.predict_ns_per_row.tree",
            per_row("ml.predict.tree", layers::BATCH_ROWS),
            "ns",
        ),
        (
            "ml.predict_ns_per_row.f32",
            per_row("ml.predict.f32", layers::BATCH_ROWS),
            "ns",
        ),
        (
            "ml.predict_ns_per_row.i8",
            per_row("ml.predict.i8", layers::BATCH_ROWS),
            "ns",
        ),
        ("cascade.escalation_ratio", escalation, "ratio"),
        (
            "cascade.predict_ns_per_row",
            per_row("cascade.predict", layers::CASCADE_ROWS),
            "ns",
        ),
        (
            "rollout.observe_append_us",
            span_median("rollout.observe_append") / 1e3,
            "us",
        ),
        ("train.nojoin_ms", span_median("train.nojoin") / 1e6, "ms"),
        ("train.joinall_ms", span_median("train.joinall") / 1e6, "ms"),
        (
            "datagen.resolve_ms",
            span_median("datagen.resolve") / 1e6,
            "ms",
        ),
        (
            "loadgen.late_p99_ms",
            quantile(&open_plain.late_ns, 0.99) / 1e6,
            "ms",
        ),
        ("server.requests", server_requests, "count"),
        (
            "server.errors",
            all_endpoints("hamlet_request_errors_total"),
            "count",
        ),
        (
            "server.panics",
            all_endpoints("hamlet_request_panics_total"),
            "count",
        ),
        ("trace.overhead_ratio", p50_traced / p50_plain, "ratio"),
        ("tcp.listen_overflows", tcp.listen_overflows as f64, "count"),
        ("tcp.listen_drops", tcp.listen_drops as f64, "count"),
        ("tcp.syn_retrans", tcp.syn_retrans as f64, "count"),
    ];
    if tcp.any() {
        eprintln!("servebench: FLAGGED: kernel TCP counters moved during the run: {tcp:?}");
    }
    let mut spans_all: Vec<trace::Span> = main_tracer.spans.clone();
    for tr in &slot_tracers {
        spans_all.extend_from_slice(&tr.spans);
    }
    let span_file = run_dir.join("spans.jsonl");
    trace::write_jsonl(&span_file, &spans_all).map_err(|e| format!("writing spans: {e}"))?;
    drop(inproc);
    let _ = std::fs::remove_dir_all(art_copy);
    let extra = vec![
        ("spans".into(), Value::Str(span_file.display().to_string())),
        ("span_count".into(), count(spans_all.len() as u64)),
        ("client_requests".into(), count(client_requests)),
        ("p50_untraced_ms".into(), num(p50_plain / 1e6)),
        ("p50_traced_ms".into(), num(p50_traced / 1e6)),
        ("tcp_flagged".into(), Value::Bool(tcp.any())),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        fingerprint,
        extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_steal_reads_the_line_at_zero_and_ignores_an_outlier() {
        let mut points: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let steal = f64::from(i) / 50.0;
                (steal, 100.0 - 200.0 * steal)
            })
            .collect();
        points.push((0.1, 5000.0));
        assert!((at_zero_steal(&points) - 100.0).abs() < 1e-9);
        // Without spread in the steal share it is the median.
        assert_eq!(at_zero_steal(&[(0.0, 3.0), (0.0, 1.0), (0.0, 2.0)]), 2.0);
    }

    #[test]
    fn calm_cycles_are_the_least_stolen_quarter_in_order() {
        let steal = [0.3, 0.0, 0.2, 0.1, 0.05, 0.4, 0.0, 0.6];
        assert_eq!(calm_cycles(&steal), vec![1, 6]);
        assert_eq!(calm_cycles(&[0.5]), vec![0]);
    }
}
