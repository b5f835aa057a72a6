//! Event-driven reactors: N threads, each multiplexing a shard of the
//! connections over its own raw `epoll` instance.
//!
//! No async runtime and no FFI crate are available offline, so the handful
//! of syscalls we need (`epoll_create1` / `epoll_ctl` / `epoll_wait`,
//! `eventfd`, `writev`, and the socket calls behind `SO_REUSEPORT`) are
//! declared directly as `extern "C"` against the platform libc that every
//! Rust binary on Linux already links. Everything above the syscall
//! boundary is safe Rust:
//!
//! - [`Epoll`] — an owned epoll instance with add/modify/delete/wait;
//! - [`Waker`] — an `eventfd` the executor pool writes to when a response
//!   is ready, so a reactor wakes from `epoll_wait` without a timeout
//!   race (the classic self-pipe trick, one fd instead of two);
//! - [`TimerWheel`] — a coarse hashed wheel (512 ms slots) holding every
//!   connection's next deadline. Entries are filed lazily and verified
//!   against the connection's *current* deadline when their slot comes due,
//!   so refreshing a deadline is O(1) and never has to find-and-remove;
//! - [`run`] — one reactor's event loop: accept new connections (closing
//!   with a 503 once `max_conns` is reached fleet-wide), feed
//!   readable/writable events into each connection's state machine
//!   ([`crate::conn::Conn`]), hand parsed requests to the executor pool
//!   through the fair [`Dispatcher`](crate::http::Dispatcher), queue
//!   finished responses for write-readiness-driven flushing, and reap
//!   expired connections.
//!
//! **Sharded accept.** Every listening socket comes from
//! [`bind_listeners`]: one per reactor, IPv4 or IPv6. With `--reactors
//! N > 1` they are bound with `SO_REUSEPORT`, so the kernel load-balances
//! accepts across reactors with zero cross-thread coordination; a single
//! reactor binds without it, so a busy port still fails with `EADDRINUSE`.
//!
//! **`EPOLLONESHOT` everywhere.** Every connection fd is registered
//! one-shot: the kernel disarms it on delivery, and the owning reactor
//! re-arms (`EPOLL_CTL_MOD`) only after the connection's state step
//! completes. That makes each readiness cycle race-free by construction —
//! no second event can arrive while one is being processed — which is what
//! keeps connection state transitions safe no matter which path (I/O
//! event or executor completion) touched the `Conn` last.
//!
//! A reactor thread never runs a handler and never blocks on a socket:
//! slow clients cost a buffer, idle keep-alive clients cost a file
//! descriptor, and all worker threads stay available for actual request
//! execution.

use std::collections::HashMap;
use std::ffi::c_void;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::raw::{c_int, c_uint};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::conn::{Conn, Verdict};
use crate::http::{Completion, Dispatcher, Job, ReactorStats, ServerOptions};

// ---- raw epoll / eventfd / socket FFI (no external crates; offline build) ----

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
/// Disarm the fd after one event delivery; re-armed via `EPOLL_CTL_MOD`.
const EPOLLONESHOT: u32 = 0x4000_0000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;
const EFD_CLOEXEC: c_int = 0x80000;

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0x800;
const SOCK_CLOEXEC: c_int = 0x80000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const SO_REUSEPORT: c_int = 15;

/// Accept-queue length every listening socket asks for. std's listeners
/// ask for 128, which a burst of concurrent connects
/// overflows; each dropped SYN then waits out a 1 s retransmit. The
/// kernel caps the value at `net.core.somaxconn`.
const LISTEN_BACKLOG: c_int = 1024;

/// Mirror of `struct iovec` for [`writev`].
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct IoVec {
    pub base: *const u8,
    pub len: usize,
}

/// Mirror of `struct sockaddr_in` (16 bytes); port and address are
/// big-endian on the wire.
#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// Mirror of `struct sockaddr_in6` (28 bytes); the port is big-endian,
/// the address is its 16 octets in network order.
#[repr(C)]
struct SockAddrIn6 {
    sin6_family: u16,
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

/// Mirror of `struct epoll_event`. The kernel ABI packs this to 12 bytes on
/// x86-64 (and only there), hence the conditional `repr(packed)`.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    pub(crate) fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn bind(fd: c_int, addr: *const c_void, len: c_uint) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_int, len: c_uint) -> c_int;
}

/// Binds `n` non-blocking listening sockets to the same address: the
/// first address `addr` resolves to that takes the bind, tried in order
/// as std's `TcpListener` does. Every socket gets `SO_REUSEADDR`
/// and a [`LISTEN_BACKLOG`] accept queue. With `n > 1` they also get
/// `SO_REUSEPORT`, so the kernel shards incoming connections across them;
/// a single socket goes without, so a port already in use still fails
/// with `EADDRINUSE`. Port 0 is resolved by the first socket and reused
/// by the rest, so all shards share the ephemeral port.
pub(crate) fn bind_listeners(addr: &str, n: usize) -> std::io::Result<Vec<TcpListener>> {
    let mut last_err = None;
    for mut sa in addr.to_socket_addrs()? {
        let mut listeners = Vec::with_capacity(n);
        let bound = (0..n.max(1)).try_for_each(|_| {
            let listener = bind_one(sa, n > 1)?;
            if sa.port() == 0 {
                sa.set_port(listener.local_addr()?.port());
            }
            listeners.push(listener);
            Ok(())
        });
        match bound {
            Ok(()) => return Ok(listeners),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "could not resolve to any addresses",
        )
    }))
}

/// Maps a negative libc return value to the thread's `errno`.
fn cvt(rc: c_int) -> std::io::Result<c_int> {
    if rc < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// One non-blocking listening socket on `sa` (see [`bind_listeners`]).
fn bind_one(sa: SocketAddr, reuse_port: bool) -> std::io::Result<TcpListener> {
    let domain = if sa.is_ipv4() { AF_INET } else { AF_INET6 };
    // SAFETY: `socket` takes no pointers.
    let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // SAFETY: freshly created socket fd we exclusively own; wrapping
    // first makes every error path below close it on drop.
    let listener = unsafe { TcpListener::from_raw_fd(fd) };
    let one: c_int = 1;
    let opts: &[c_int] = if reuse_port {
        &[SO_REUSEADDR, SO_REUSEPORT]
    } else {
        &[SO_REUSEADDR]
    };
    for &opt in opts {
        // SAFETY: `fd` is open; `one` outlives the call and the length
        // passed is its exact size.
        cvt(unsafe { setsockopt(fd, SOL_SOCKET, opt, &one, size_of::<c_int>() as c_uint) })?;
    }
    let (sin, sin6);
    let (ptr, len): (*const c_void, usize) = match sa {
        SocketAddr::V4(v4) => {
            sin = SockAddrIn {
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from(*v4.ip()).to_be(),
                sin_zero: [0; 8],
            };
            (std::ptr::from_ref(&sin).cast(), size_of_val(&sin))
        }
        SocketAddr::V6(v6) => {
            sin6 = SockAddrIn6 {
                sin6_family: AF_INET6 as u16,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            (std::ptr::from_ref(&sin6).cast(), size_of_val(&sin6))
        }
    };
    // SAFETY: `fd` is open; `ptr` points at the complete `sockaddr_in` or
    // `sockaddr_in6` built above, which outlives the call, and `len` is
    // its exact size.
    cvt(unsafe { bind(fd, ptr, len as c_uint) })?;
    // SAFETY: `fd` is the open socket `listener` owns; `listen` only
    // reads it.
    cvt(unsafe { listen(fd, LISTEN_BACKLOG) })?;
    Ok(listener)
}

/// An owned epoll instance.
pub(crate) struct Epoll {
    fd: c_int,
}

impl Epoll {
    pub(crate) fn new() -> std::io::Result<Epoll> {
        // SAFETY: `epoll_create1` takes no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let arg = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        // SAFETY: `self.fd` is the epoll fd this value owns; `arg` is null
        // (allowed for DEL) or points at `ev`, which outlives the call.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, arg) })?;
        Ok(())
    }

    pub(crate) fn add(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    pub(crate) fn modify(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    pub(crate) fn delete(&self, fd: RawFd) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` for readiness events. Interrupted waits
    /// report zero events rather than erroring.
    pub(crate) fn wait(
        &self,
        events: &mut [EpollEvent],
        timeout_ms: c_int,
    ) -> std::io::Result<usize> {
        // SAFETY: the kernel writes at most `events.len()` entries into the
        // exclusively borrowed `events` buffer.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: this value owns `self.fd` and nothing uses it after drop.
        unsafe { close(self.fd) };
    }
}

/// An `eventfd`-backed wakeup handle shared by the executor pool: writing
/// bumps the counter and makes the reactor's `epoll_wait` return.
pub(crate) struct Waker {
    file: std::fs::File,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Waker> {
        // SAFETY: `eventfd` takes no pointers.
        let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        // SAFETY: `fd` is a freshly created eventfd we exclusively own.
        let file = unsafe { std::fs::File::from_raw_fd(fd) };
        Ok(Waker { file })
    }

    fn fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Signal the reactor. A full counter (EAGAIN) means a wake is already
    /// pending, which is exactly what we want — ignore every error.
    pub(crate) fn wake(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Consume pending wake signals (nonblocking).
    fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

/// Wheel granularity; deadlines are only ever late by at most one slot
/// plus one `epoll_wait` timeout, which is fine for second-scale timeouts.
const WHEEL_SLOT: Duration = Duration::from_millis(512);

/// Slots in the ring (≈131 s span). Deadlines beyond the span are clamped
/// to the last slot and re-filed when they surface — correctness never
/// depends on the span, only efficiency.
const WHEEL_SLOTS: usize = 256;

/// A coarse hashed timer wheel over connection tokens.
///
/// Insert-only: entries are *not* removed when a deadline moves or a
/// connection closes. Instead, when a slot comes due the reactor checks
/// each surfaced token against the connection's live deadline and either
/// reaps it, re-files it, or drops the stale entry. That keeps deadline
/// refreshes O(1) on the hot path at the cost of at most one spurious
/// surfacing per refresh.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<u64>>,
    cursor: usize,
    last_tick: Instant,
}

impl TimerWheel {
    pub(crate) fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            last_tick: now,
        }
    }

    /// File `token` to surface at (or shortly after) `deadline`.
    pub(crate) fn insert(&mut self, token: u64, deadline: Instant, now: Instant) {
        let remaining = deadline.saturating_duration_since(now);
        let ticks = (remaining.as_millis() / WHEEL_SLOT.as_millis()) as usize + 1;
        let slot = (self.cursor + ticks.min(WHEEL_SLOTS - 1)) % WHEEL_SLOTS;
        self.slots[slot].push(token);
    }

    /// Advance to `now`, returning every token whose slot came due.
    pub(crate) fn tick(&mut self, now: Instant) -> Vec<u64> {
        let mut due = Vec::new();
        while now.saturating_duration_since(self.last_tick) >= WHEEL_SLOT {
            self.last_tick += WHEEL_SLOT;
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            due.append(&mut self.slots[self.cursor]);
        }
        due
    }
}

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
/// Wheel-only token for [`ServerOptions::on_tick`]: never registered with
/// epoll, it just rides the timer wheel and is re-filed after each firing.
const TOKEN_TICK: u64 = 2;
const FIRST_CONN_TOKEN: u64 = 3;

/// Pre-rendered response for connections over the `max_conns` cap.
const OVERLOADED: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\n\
    Content-Type: application/json\r\nContent-Length: 36\r\n\
    Connection: close\r\n\r\n{\"error\":\"connection limit reached\"}";

/// Everything one reactor thread needs, bundled so [`run`] stays a
/// single-argument spawn target.
pub(crate) struct ReactorConfig {
    /// This reactor's index (0-based); index 0 drives `on_tick`.
    pub index: usize,
    /// This reactor's listening socket (see [`bind_listeners`]).
    pub listener: TcpListener,
    pub dispatcher: Arc<Dispatcher>,
    pub completions: Receiver<Completion>,
    pub waker: Arc<Waker>,
    pub shutdown: Arc<AtomicBool>,
    pub opts: Arc<ServerOptions>,
    pub queue_depth: Arc<AtomicUsize>,
    /// Per-reactor gauges exported at `/metrics`.
    pub stats: Arc<ReactorStats>,
    /// Fleet-wide open-connection count backing the `max_conns` cap.
    pub total_conns: Arc<AtomicUsize>,
}

/// One reactor's mutable state plus the shared handles its helpers need.
struct Reactor {
    index: usize,
    epoll: Epoll,
    opts: Arc<ServerOptions>,
    dispatcher: Arc<Dispatcher>,
    queue_depth: Arc<AtomicUsize>,
    stats: Arc<ReactorStats>,
    total_conns: Arc<AtomicUsize>,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel,
    next_token: u64,
}

/// One reactor's event loop. Owns a shard of the connections, its own
/// epoll instance and timer wheel; runs until `shutdown` is set (the waker
/// is poked by `Server::shutdown` so the flag is observed promptly).
pub(crate) fn run(cfg: ReactorConfig) {
    let ReactorConfig {
        index,
        listener,
        dispatcher,
        completions,
        waker,
        shutdown,
        opts,
        queue_depth,
        stats,
        total_conns,
    } = cfg;
    // Dropped on every exit path: when the last reactor leaves, the
    // dispatcher closes and the executor pool drains and exits.
    let _open = dispatcher.reactor_guard();
    let epoll = match Epoll::new() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("hamlet-serve reactor {index}: epoll_create1 failed: {e}");
            return;
        }
    };
    let now = Instant::now();
    if let Err(e) = epoll.add(waker.fd(), TOKEN_WAKER, EPOLLIN) {
        eprintln!("hamlet-serve reactor {index}: registering waker failed: {e}");
        return;
    }
    if let Err(e) = epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN) {
        eprintln!("hamlet-serve reactor {index}: registering listener failed: {e}");
        return;
    }
    let mut r = Reactor {
        index,
        epoll,
        opts,
        dispatcher,
        queue_depth,
        stats,
        total_conns,
        conns: HashMap::new(),
        wheel: TimerWheel::new(now),
        next_token: FIRST_CONN_TOKEN,
    };
    // Application ticks fire on exactly one reactor (the auto-demoter must
    // not run N× faster because the network plane got wider).
    if r.index == 0 {
        if let Some(tick) = &r.opts.on_tick {
            r.wheel.insert(TOKEN_TICK, now + tick.every, now);
        }
    }

    let mut events = [EpollEvent { events: 0, data: 0 }; 256];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return; // drops the conns; the guard drop closes the dispatcher
        }
        let n = match r.epoll.wait(&mut events, WHEEL_SLOT.as_millis() as c_int) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("hamlet-serve reactor {}: epoll_wait failed: {e}", r.index);
                return;
            }
        };
        let now = Instant::now();

        for ev in &events[..n] {
            let token = ev.data;
            let bits = ev.events;
            match token {
                TOKEN_WAKER => waker.drain(),
                TOKEN_LISTENER => r.accept_ready(&listener, now),
                _ => {
                    let Some(conn) = r.conns.get_mut(&token) else {
                        continue; // already closed this iteration
                    };
                    // EPOLLONESHOT: delivery disarmed the fd; finish_step
                    // re-arms once the state step is done.
                    conn.armed = false;
                    let mut verdict = Verdict::Open;
                    if bits & (EPOLLERR | EPOLLHUP) != 0 {
                        // Peer is gone in both directions; nothing we queue
                        // can be delivered.
                        verdict = Verdict::Close;
                    } else {
                        if bits & EPOLLIN != 0 {
                            verdict = conn.on_readable(now);
                        }
                        if verdict == Verdict::Open && bits & EPOLLOUT != 0 {
                            verdict = conn.on_writable(now);
                        }
                    }
                    r.finish_step(token, verdict, now);
                }
            }
        }

        // Executor completions (the waker event only interrupts the wait;
        // the channel is the actual data path).
        loop {
            match completions.try_recv() {
                Ok(done) => {
                    let Some(conn) = r.conns.get_mut(&done.token) else {
                        continue; // connection died while the handler ran
                    };
                    conn.complete(&done.response, now);
                    // Opportunistic flush: most responses fit the socket
                    // buffer and complete without waiting for EPOLLOUT.
                    let verdict = if conn.wants_flush() {
                        conn.on_writable(now)
                    } else {
                        Verdict::Open
                    };
                    r.finish_step(done.token, verdict, now);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return, // server handle gone
            }
        }

        // Deadline sweep: surfaced tokens are checked against their live
        // deadline (lazy wheel semantics — see TimerWheel docs).
        for token in r.wheel.tick(now) {
            if token == TOKEN_TICK {
                if let Some(tick) = &r.opts.on_tick {
                    (tick.run)();
                    r.wheel.insert(TOKEN_TICK, now + tick.every, now);
                }
                continue;
            }
            let Some(conn) = r.conns.get_mut(&token) else {
                continue; // stale entry for a closed connection
            };
            if conn.expired(now) {
                r.close_conn(token);
            } else if let Some(deadline) = conn.deadline {
                r.wheel.insert(token, deadline, now);
                conn.filed = Some(deadline);
            } else {
                conn.filed = None; // Dispatched: re-filed when a deadline returns
            }
        }
    }
}

impl Reactor {
    /// Accept every pending connection (level-triggered listener).
    fn accept_ready(&mut self, listener: &TcpListener, now: Instant) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => self.adopt(stream, now),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Unexpected accept failure — most importantly EMFILE /
                    // ENFILE fd exhaustion. The level-triggered listener stays
                    // ready while the backlog is non-empty, so returning
                    // immediately would spin the reactor at 100% CPU doing
                    // failed accepts. Back off briefly instead: pending
                    // clients wait in the kernel backlog and existing
                    // connections resume right after.
                    std::thread::sleep(Duration::from_millis(50));
                    return;
                }
            }
        }
    }

    /// Take ownership of an accepted stream: admission-check against the
    /// fleet-wide cap, register one-shot with epoll, file the idle
    /// deadline.
    fn adopt(&mut self, stream: TcpStream, now: Instant) {
        if self.total_conns.load(Ordering::SeqCst) >= self.opts.max_conns {
            // Over capacity: answer 503 best-effort and drop. The write is
            // nonblocking; a client that cannot even take 200 bytes gets a
            // bare close.
            let _ = stream.set_nonblocking(true);
            let _ = (&stream).write(OVERLOADED);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1; // tokens are never reused: no ABA with late completions
        let mut conn = Conn::new(stream, now, Arc::clone(&self.opts));
        let want = conn.desired_events();
        if self
            .epoll
            .add(conn.stream().as_raw_fd(), token, want | EPOLLONESHOT)
            .is_err()
        {
            return; // dropping the stream closes it
        }
        conn.registered = want;
        conn.armed = true;
        if let Some(d) = conn.deadline {
            self.wheel.insert(token, d, now);
            conn.filed = Some(d);
        }
        self.conns.insert(token, conn);
        self.total_conns.fetch_add(1, Ordering::SeqCst);
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.stats.accepted_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Post-I/O bookkeeping shared by every path that touches a
    /// connection: dispatch newly parsed requests through the fair queue,
    /// re-arm the one-shot epoll registration, file deadlines, or tear the
    /// connection down.
    fn finish_step(&mut self, token: u64, verdict: Verdict, now: Instant) {
        if verdict == Verdict::Close {
            self.close_conn(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // At most one request per connection is in flight (response
        // ordering), so this hands over at most one job.
        let next = conn.next_job(now);
        if let Some(request) = next {
            // Gauge-eligible jobs (see `http::gauge_predicts`) are
            // counted before the push so an executor (or a coalescing
            // handler reading the gauge) never observes its own job as
            // "nothing else pending" while more dispatches race in.
            let counted = crate::http::gauge_predicts(&request);
            if counted {
                self.queue_depth.fetch_add(1, Ordering::SeqCst);
            }
            let key = crate::http::fair_key(&request);
            self.dispatcher.push(
                key,
                Job {
                    reactor: self.index,
                    token,
                    request,
                    counted,
                },
            );
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = conn.desired_events();
        // One-shot protocol: a MOD both updates interest and re-arms, so
        // it is needed whenever the kernel side is disarmed *or* the
        // interest set changed (a MOD on a still-armed fd is a harmless
        // re-arm; level-triggered, so buffered readiness fires again
        // immediately).
        if !conn.armed || want != conn.registered {
            let fd = conn.stream().as_raw_fd();
            if self.epoll.modify(fd, token, want | EPOLLONESHOT).is_err() {
                self.close_conn(token);
                return;
            }
            let conn = self.conns.get_mut(&token).expect("still present");
            conn.registered = want;
            conn.armed = true;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some(deadline) = conn.deadline {
            // Only re-file when the filed entry would fire too early or
            // not at all; firing late is handled lazily by the sweep.
            if conn.filed.is_none_or(|f| f > deadline) {
                self.wheel.insert(token, deadline, now);
                conn.filed = Some(deadline);
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream().as_raw_fd());
            self.total_conns.fetch_sub(1, Ordering::SeqCst);
            self.stats.connections.fetch_sub(1, Ordering::Relaxed);
            // Dropping the Conn closes the socket.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_listener_queues_a_connect_burst_beyond_std_backlog() {
        // A listener at std's backlog of 128 drops the SYNs past its queue,
        // and each of those connects then times out here.
        const BURST: usize = 200;
        let somaxconn: usize = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        if somaxconn < BURST {
            eprintln!("skipped: net.core.somaxconn = {somaxconn} caps backlogs below {BURST}");
            return;
        }
        let listener = bind_listeners("127.0.0.1:0", 1).unwrap().remove(0);
        let addr = listener.local_addr().unwrap();
        // Nobody accepts: every connect must complete into the accept queue.
        let held: Vec<TcpStream> = (0..BURST)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                    .unwrap_or_else(|e| panic!("connect {i} of {BURST}: {e}"))
            })
            .collect();
        assert_eq!(held.len(), BURST);
        // No SO_REUSEPORT: a second bind to the busy port still fails.
        let err = bind_listeners(&addr.to_string(), 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    }

    #[test]
    fn epoll_roundtrip_on_a_real_socket_pair() {
        let epoll = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        epoll.add(server.as_raw_fd(), 7, EPOLLIN).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing to read yet.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        client.write_all(b"ping").unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 7);
        let bits = events[0].events;
        assert!(bits & EPOLLIN != 0);

        // MOD to write interest: a fresh socket is immediately writable.
        epoll.modify(server.as_raw_fd(), 7, EPOLLOUT).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let bits = events[0].events;
        assert!(bits & EPOLLOUT != 0);
        epoll.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_wakes_epoll_and_drains() {
        let epoll = Epoll::new().unwrap();
        let waker = Waker::new().unwrap();
        epoll.add(waker.fd(), TOKEN_WAKER, EPOLLIN).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "no wake yet");
        waker.wake();
        waker.wake(); // coalesces
        assert_eq!(epoll.wait(&mut events, 2000).unwrap(), 1);
        waker.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn timer_wheel_surfaces_deadlines_coarsely() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.insert(1, t0 + Duration::from_millis(600), t0);
        wheel.insert(2, t0 + Duration::from_secs(40), t0);
        // Nothing due immediately.
        assert!(wheel.tick(t0).is_empty());
        // After ~1.6 s the 600 ms deadline has surfaced, the 40 s one not.
        let due: Vec<u64> = wheel.tick(t0 + Duration::from_millis(1600));
        assert!(due.contains(&1), "{due:?}");
        assert!(!due.contains(&2), "{due:?}");
        // Far future: everything surfaces (possibly via clamped re-file).
        let due = wheel.tick(t0 + Duration::from_secs(200));
        assert!(due.contains(&2), "{due:?}");
    }

    #[test]
    fn timer_wheel_clamps_beyond_span_deadlines() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        // A deadline far past the wheel span must still surface eventually
        // (the reactor re-files it on surfacing; here we just check it
        // comes out at the clamped horizon rather than being lost).
        wheel.insert(9, t0 + Duration::from_secs(10_000), t0);
        let span = WHEEL_SLOT * (WHEEL_SLOTS as u32);
        let due = wheel.tick(t0 + span + WHEEL_SLOT);
        assert!(due.contains(&9), "{due:?}");
    }
}
