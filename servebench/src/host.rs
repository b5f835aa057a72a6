//! What the benchmark reads from the host and from the running server:
//! kernel TCP counters, the server's peak RSS, its `/metrics` text, and the
//! host/config fingerprint stamped on every result.

use std::collections::BTreeMap;
use std::path::Path;

/// `TcpExt` counters from `/proc/net/netstat`. A nonzero delta across a run
/// flags it: a listen-queue overflow or a SYN retransmit costs a client a
/// 1 s kernel timeout, which must never hide inside a median.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpCounters {
    pub listen_overflows: u64,
    pub listen_drops: u64,
    pub syn_retrans: u64,
}

impl TcpCounters {
    /// Reads the counters; all zero where the file is unreadable.
    pub fn read() -> TcpCounters {
        let text = std::fs::read_to_string("/proc/net/netstat").unwrap_or_default();
        let mut lines = text.lines();
        let mut out = TcpCounters::default();
        // The file pairs a header line of names with a line of values.
        while let (Some(names), Some(values)) = (lines.next(), lines.next()) {
            if !names.starts_with("TcpExt:") {
                continue;
            }
            for (name, value) in names.split_whitespace().zip(values.split_whitespace()) {
                let v = value.parse().unwrap_or(0);
                match name {
                    "ListenOverflows" => out.listen_overflows = v,
                    "ListenDrops" => out.listen_drops = v,
                    "TCPSynRetrans" => out.syn_retrans = v,
                    _ => {}
                }
            }
        }
        out
    }

    /// Counter increase from `before` to `self`.
    pub fn since(&self, before: &TcpCounters) -> TcpCounters {
        TcpCounters {
            listen_overflows: self
                .listen_overflows
                .saturating_sub(before.listen_overflows),
            listen_drops: self.listen_drops.saturating_sub(before.listen_drops),
            syn_retrans: self.syn_retrans.saturating_sub(before.syn_retrans),
        }
    }

    pub fn any(&self) -> bool {
        self.listen_overflows + self.listen_drops + self.syn_retrans > 0
    }
}

/// Aggregate CPU time from `/proc/stat`: (steal ticks, all ticks). The
/// share stolen by the hypervisor during a run tells how much of its
/// noise came from other guests on the host.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Keeps every CPU of the machine out of its idle state while it lives.
///
/// An idle guest CPU halts, and the hypervisor may hand its core to
/// another guest; the next wakeup then waits for the host's scheduler, for
/// anything from microseconds on a quiet host to milliseconds on a busy
/// one. A request-response benchmark wakes a CPU on nearly every request,
/// so that wait would dominate its median latency and make it follow the
/// host's load rather than the program. One spinning thread per CPU under
/// `SCHED_IDLE` keeps the CPUs running; any other thread that wakes
/// preempts it. The price is a tail of waits of 1–4 ms, most likely
/// threads queued on a busy CPU until a scheduler tick moves them to a
/// spinning one (see README.md, "Noise on a shared host").
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    // SAFETY: pid 0 is the calling thread; the param is a
                    // valid struct for the call. On failure the thread
                    // exits rather than compete with the measured ones.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) }
                        != 0
                    {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Time of one pass of a fixed CPU workload that is the benchmark's own
/// code, not the program's: hashing a 256 KiB buffer and 64 dot products
/// over 4 KiB of `f32`. Run between phases, it tracks how fast the host
/// lets this guest compute at the moment.
pub fn reference_pass_ns() -> u64 {
    use std::hint::black_box;
    thread_local! {
        static BUF: (Vec<u8>, Vec<f32>, Vec<f32>) = (
            (0..256 * 1024).map(|i| (i * 7 + 3) as u8).collect(),
            (0..1024).map(|i| i as f32 * 0.5).collect(),
            (0..1024).map(|i| 1.0 / (1.0 + i as f32)).collect(),
        );
    }
    BUF.with(|(bytes, a, b)| {
        let t0 = std::time::Instant::now();
        let mut h = 0xcbf29ce484222325u64;
        for &x in black_box(bytes.as_slice()) {
            h = (h ^ u64::from(x)).wrapping_mul(0x100000001b3);
        }
        let mut acc = 0f32;
        for _ in 0..64 {
            acc += black_box(a.as_slice())
                .iter()
                .zip(black_box(b.as_slice()))
                .map(|(x, y)| x * y)
                .sum::<f32>();
        }
        black_box((h, acc));
        t0.elapsed().as_nanos() as u64
    })
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Prometheus text samples keyed by `name{labels}` exactly as exposed.
pub type Samples = BTreeMap<String, f64>;

/// Parses `/metrics` text into samples, skipping comments.
pub fn parse_metrics(text: &str) -> Samples {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Sum of every sample of metric `name` whose label set contains all of
/// `labels` (each `k="v"`).
pub fn sum_of(samples: &Samples, name: &str, labels: &[&str]) -> f64 {
    samples
        .iter()
        .filter(|(k, _)| {
            let (metric, rest) = k.split_once('{').unwrap_or((k.as_str(), ""));
            metric == name && labels.iter().all(|l| rest.contains(l))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Label value of the first sample of `name` carrying `label`.
pub fn label_of(samples: &Samples, name: &str, label: &str) -> Option<String> {
    let prefix = format!("{name}{{");
    let needle = format!("{label}=\"");
    samples.keys().find_map(|k| {
        let rest = k.strip_prefix(&prefix)?;
        let start = rest.find(&needle)? + needle.len();
        let len = rest[start..].find('"')?;
        Some(rest[start..start + len].to_string())
    })
}

/// Number of distinct samples of metric `name`.
pub fn count_of(samples: &Samples, name: &str) -> usize {
    let prefix = format!("{name}{{");
    samples.keys().filter(|k| k.starts_with(&prefix)).count()
}

/// The host and configuration a result was measured on.
pub fn fingerprint(
    seed: u64,
    workload: &str,
    server_args: &[String],
    metrics: &Samples,
) -> serde_json::Value {
    use serde_json::Value;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let str_val = |s: String| Value::Str(s);
    let num = |n: u64| Value::Num(serde_json::Number::UInt(n));
    Value::Obj(vec![
        ("cpu_model".into(), str_val(cpu)),
        ("nproc".into(), num(nproc as u64)),
        ("kernel_release".into(), str_val(kernel)),
        (
            "kernel_tier".into(),
            str_val(
                label_of(metrics, "hamlet_kernel_backend_info", "backend")
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "reactors".into(),
            num(count_of(metrics, "hamlet_reactor_connections") as u64),
        ),
        (
            "server_args".into(),
            Value::Arr(server_args.iter().cloned().map(Value::Str).collect()),
        ),
        ("git_commit".into(), str_val(git_commit())),
        (
            "source_hash".into(),
            str_val(format!("{:016x}", source_hash(Path::new(".")))),
        ),
        ("workload".into(), str_val(workload.to_string())),
        ("seed".into(), num(seed)),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (which would search parent directories).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// FNV-1a over the path and bytes of every file the server is built from
/// (`Cargo.toml`, `Cargo.lock`, `crates/`, `vendor/`), in sorted order —
/// identifies the code under test when the checkout is not a git repo.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() => walk(&path, out),
                Ok(t) if t.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for f in files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_text_parses_into_labelled_samples() {
        let text = "# TYPE hamlet_coalesce_total counter\n\
                    hamlet_coalesce_total{kind=\"batches\"} 7\n\
                    hamlet_coalesce_total{kind=\"solo_requests\"} 5\n\
                    hamlet_kernel_backend_info{backend=\"avx2\"} 1\n\
                    hamlet_uptime_seconds 1.5\n";
        let s = parse_metrics(text);
        assert_eq!(sum_of(&s, "hamlet_coalesce_total", &[]), 12.0);
        assert_eq!(
            sum_of(&s, "hamlet_coalesce_total", &["kind=\"batches\""]),
            7.0
        );
        assert_eq!(sum_of(&s, "hamlet_uptime_seconds", &[]), 1.5);
        assert_eq!(
            label_of(&s, "hamlet_kernel_backend_info", "backend").as_deref(),
            Some("avx2")
        );
        assert_eq!(count_of(&s, "hamlet_coalesce_total"), 2);
    }
}
