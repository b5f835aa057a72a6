//! The server under test: the real `hamlet-serve serve` binary with its
//! production defaults, started as a child process and always reaped.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;
const SIGCONT: i32 = 18;
const SIGSTOP: i32 = 19;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// A running server; killed and waited for when dropped.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// The flags it was started with.
    pub args: Vec<String>,
}

impl ServerProc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Runs `f` with the server stopped by `SIGSTOP`, so that nothing the
    /// server does in the background runs beside `f`, then lets it go on.
    pub fn paused<T>(&self, f: impl FnOnce() -> T) -> T {
        let pid = self.child.id() as i32;
        // SAFETY: kill only sends a signal to our own child process.
        unsafe { kill(pid, SIGSTOP) };
        // The signal is delivered asynchronously; wait until every thread
        // has stopped (state `T`), for at most 100 ms.
        let deadline = Instant::now() + Duration::from_millis(100);
        while Instant::now() < deadline && !is_stopped(pid) {
            std::thread::sleep(Duration::from_micros(50));
        }
        let out = f();
        // SAFETY: as above.
        unsafe { kill(pid, SIGCONT) };
        out
    }
}

/// Whether every thread of process `pid` is stopped.
fn is_stopped(pid: i32) -> bool {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return false;
    };
    tasks.flatten().all(|t| {
        std::fs::read_to_string(t.path().join("stat"))
            .ok()
            .and_then(|stat| {
                // The state follows the parenthesised command name.
                let state = stat.rsplit_once(')')?.1.trim_start().chars().next()?;
                Some(state == 'T')
            })
            .unwrap_or(false)
    })
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // The server has no shutdown endpoint; a killed server is the
        // production stop path too. Errors here mean it already exited.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("finding a free port: {e}"))?;
    l.local_addr()
        .map(|a| a.port())
        .map_err(|e| format!("finding a free port: {e}"))
}

/// One `GET` on a fresh connection: (status, body).
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    send(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

/// One request (complete HTTP bytes) on a fresh connection: (status, body).
pub fn send(addr: SocketAddr, request: &[u8]) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(request)?;
    let resp = hamlet_serve::http::read_response(&mut s)?;
    Ok((
        resp.status,
        String::from_utf8_lossy(&resp.body).into_owned(),
    ))
}

/// Starts `hamlet-serve serve` on `art` and returns it with its set-up
/// time: from spawn, through the warm-load of the artifact directory, to
/// the first 200 from `/healthz`. Server output goes to `log`.
pub fn start(bin: &Path, art: &Path, log: &Path) -> Result<(ServerProc, f64), String> {
    let addr: SocketAddr = format!("127.0.0.1:{}", free_port()?)
        .parse()
        .map_err(|e| format!("{e}"))?;
    let args = vec![
        "serve".to_string(),
        "--dir".to_string(),
        art.display().to_string(),
        "--addr".to_string(),
        addr.to_string(),
    ];
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("opening {}: {e}", log.display()))?;
    let t0 = Instant::now();
    let mut command = Command::new(bin);
    command.args(&args).stdout(Stdio::null()).stderr(log);
    // SAFETY: the hook runs in the forked child before exec and only calls
    // prctl, which is async-signal-safe. PR_SET_PDEATHSIG kills the server
    // when the benchmark dies without reaching `Drop` (killed by a signal).
    unsafe {
        command.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
    let child = command
        .spawn()
        .map_err(|e| format!("starting {}: {e}", bin.display()))?;
    let mut server = ServerProc { child, addr, args };
    let deadline = t0 + Duration::from_secs(60);
    loop {
        if let Ok((200, _)) = get(addr, "/healthz") {
            return Ok((server, t0.elapsed().as_secs_f64()));
        }
        if let Ok(Some(status)) = server.child.try_wait() {
            return Err(format!("the server exited during start-up: {status}"));
        }
        if Instant::now() > deadline {
            return Err("the server did not answer /healthz within 60 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}
