//! `hamlet-serve` CLI: train servable artifacts, run the HTTP server, and
//! drive a running server (probe, blast, rollout). The subcommands and
//! their flags are listed in [`USAGE`], which `hamlet-serve --help` prints.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_serve::api::{ObserveResponse, PredictResponse, RolloutStartRequest, TrainRequest};
use hamlet_serve::artifact::{Format, LoadMode, ModelArtifact};
use hamlet_serve::http::{read_response, RawResponse, ServerOptions, MAX_KEEPALIVE_REQUESTS};
use hamlet_serve::rollout::GuardrailConfig;
use hamlet_serve::server::AppState;
use hamlet_serve::train::{train_and_register, DATASETS};

/// Server address every client subcommand and `serve` default to.
const DEFAULT_ADDR: &str = "127.0.0.1:8080";

/// Read timeout of the client subcommands' connections (`probe` derives
/// its own from `--threshold-ms`).
const IO_TIMEOUT: Duration = Duration::from_secs(30);

const USAGE: &str = "hamlet-serve — model training and batched HTTP serving

USAGE:
    hamlet-serve train --name <NAME> --dataset <DATASET> --spec <SPEC>
                       [--config <CONFIG>] [--scale <N>] [--seed <N>]
                       [--full] [--dir <DIR>]
    hamlet-serve serve [--addr <ADDR>] [--workers <N>] [--reactors <N>]
                       [--max-conns <N>] [--dir <DIR>] [--load-mode heap|mmap]
                       [--coalesce-window <MICROS>] [--coalesce-max-rows <N>]
                       [--demote-idle-secs <N>] [--canary-slice <PCT>]
                       [--guardrail-min-samples <N>] [--guardrail-agreement <P>]
                       [--guardrail-error-ratio <P>] [--guardrail-p99-ratio <X>]
                       [--drift-check-secs <N>] [--no-drift-freeze]
    hamlet-serve probe [--addr <ADDR>] [--idle <N>] [--path <PATH>]
                       [--body <JSON>] [--threshold-ms <MS>]
    hamlet-serve blast [--addr <ADDR>] [--path <PATH>] [--requests <N>]
                       [--concurrency <N>] --body-template <JSON>
                       [--summary-json <PATH|->]
    hamlet-serve blast --conns <N> --duration <SECS> [--active <N>]
                       [--addr <ADDR>] [--path <PATH>] --body-template <JSON>
                       [--summary-json <PATH|->]
    hamlet-serve blast --observe [--requests <N>] [--rate <REQ_PER_S>]
                       [--addr <ADDR>] --body-template <OBSERVE-JSON>
    hamlet-serve rollout <status|start|abort> [--addr <ADDR>]
                         [--candidate <KEY> | --refresh <NAME>] [--slice <PCT>]
    hamlet-serve artifact inspect <PATH>
    hamlet-serve artifact convert <SRC> [--to v3|v2] [--dir <DIR>]
                                  [--quantize i8|f16] [--sample-rows <N>]
    hamlet-serve artifact diff <A> <B>
    hamlet-serve cascade build --tiers <PATH,PATH[,PATH...]>
                               [--target-p <P>] [--calibrator platt|isotonic]
                               [--sample-rows <N>] [--name <NAME>] [--dir <DIR>]
    hamlet-serve datasets

SPECS:    TreeGini TreeInfoGain TreeGainRatio OneNN SvmLinear SvmQuadratic
          SvmRbf Ann NaiveBayesBfs LogRegL1
CONFIGS:  NoJoin (default) | JoinAll | NoFK
DATASETS: movies yelp walmart expedia lastfm books flights onexr
DEFAULTS: --dir artifacts, --addr 127.0.0.1:8080, --scale 2000, --seed 7,
          --workers = CPU count (request *executors*: idle connections no
          longer occupy a worker), --reactors = min(4, CPUs/4) event-loop
          shards (each with its own SO_REUSEPORT listener and epoll;
          HAMLET_REACTORS overrides), --max-conns 1024; --full uses the
          paper-fidelity grids; --load-mode heap (mmap borrows format-v3
          weights zero-copy from the mapped files); --coalesce-window 200
          microseconds (0 disables cross-request predict coalescing),
          --coalesce-max-rows 512 (a merged batch flushes at this size);
          --demote-idle-secs 0 (off): when set, promoted non-latest
          versions untouched for that long are auto-demoted back to lazy
          slots (telemetry last-hit driven; the latest version is never
          touched). /v1/stats and /metrics expose the telemetry.

ROLLOUT:  serve runs the safe-rollout plane: `rollout start` puts a held
          candidate into SHADOW (bare-name predict traffic is mirrored to
          it, responses discarded, agreement/latency scored against the
          incumbent), it graduates to CANARY (--canary-slice percent of
          bare-name traffic served for real, default 10), and it is
          auto-PROMOTED only once agreement ≥ --guardrail-agreement
          (default 0.98), canary panic-500 ratio ≤ --guardrail-error-ratio
          (default 0.02) and candidate p99 ≤ --guardrail-p99-ratio × the
          incumbent's (default 3.0) over --guardrail-min-samples mirrored
          rows and canary requests (default 200/50). Any tripped guardrail
          rolls the candidate back instantly (demote + audit trail).
          /v1/observe streams labeled production rows into a crash-safe
          buffer; every --drift-check-secs (default 5, 0 disables) the
          paper's avoid-join decision rule re-runs over it and freezes
          auto-promotion while the live data sits outside the safety
          envelope (--no-drift-freeze keeps promotion unfrozen). State
          survives restarts via the rollout journal next to the artifacts.

PROBE:    opens --idle parked keep-alive connections, then times one
          request on a FRESH connection; fails if it errors or exceeds
          --threshold-ms. Smoke-checks that idle connections are free.

BLAST:    fires --requests POSTs at --path from --concurrency parallel
          connections. --body-template substitutes {n} with the request
          index and {i} with index mod 2 (in-domain 0/1 codes). Prints one
          `index<TAB>labels` line per request to stdout (sorted, stable
          across runs) so outputs can be diffed between server configs —
          e.g. coalescing on vs. off must be byte-identical. A latency
          p50/p90/p99 summary goes to stderr; --summary-json writes the
          same numbers as JSON to a file (`-` appends them to stdout).
          When responses carry cascade tier provenance, the summary gains
          `tier_rows` (rows answered per tier) and --expect-tiers N fails
          the run unless at least N distinct tiers actually answered —
          the CI probe's proof that short-circuiting really happened.

          With --conns/--duration blast instead runs SUSTAINED: it opens
          --conns keep-alive connections one by one, timing how long the
          server takes to adopt and answer a first trivial request on each
          (the accept-latency proxy), then drives requests from --active
          of them (default min(16, conns)) for --duration seconds while
          the rest sit parked. Reports accept p50/p99 alongside request
          p50/p90/p99 and req/s; --summary-json gains accept_p50_ms /
          accept_p99_ms. No per-request stdout lines in this mode.

ARTIFACT: inspect prints a file's format, sections, weight encoding and
          header without loading the model (quantized artifacts also list
          per-tensor encodings, byte sizes and scales); convert rewrites
          between v2 (json) and v3 (binary) reporting the size ratio.
          convert --quantize i8|f16 additionally rewrites the weight
          tensors (per-tensor symmetric i8, or IEEE half precision) into a
          NEW artifact named `<name>-<enc>` and reports the size ratio
          plus a prediction-agreement estimate against the source model on
          --sample-rows (default 512) deterministic in-domain rows; diff
          reports added/removed features, cardinality changes and
          label-set deltas between two artifact versions (either side may
          be v1/v2 json or v3 binary).

CASCADE:  build bundles existing artifacts (comma-separated, cheapest
          first, authoritative top tier last; all must share one feature
          contract) into a single tiered-cascade artifact. Each front
          tier's raw margin is calibrated (--calibrator platt|isotonic,
          default platt) against *agreement with the top tier* on
          --sample-rows (default 2048) deterministic in-domain rows — no
          ground-truth labels needed — and its short-circuit threshold is
          picked as the loosest cut whose kept rows still agree with the
          top tier at rate ≥ --target-p (default 0.95). Writes a v3
          artifact named --name (default `<top>-casc`) and prints a JSON
          report: per-tier thresholds, whole-cascade agreement with the
          top tier, escalation ratio, rows answered per tier, and a
          single-threaded speedup estimate over the top tier alone.

KERNELS:  inference uses runtime-dispatched SIMD kernels (AVX2, then
          SSE2, else scalar; `/v1/stats` reports the chosen tier). Set
          HAMLET_FORCE_SCALAR=1 to pin the bit-exact scalar reference.
";

/// `--flag value` pairs from the command line, read through typed
/// accessors whose errors name the flag and the value it was given.
struct Flags(HashMap<String, String>);

impl Flags {
    /// The raw value of `--name`, if given.
    fn str(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// Whether `--name` was given (how the value-less switches are read).
    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// `--name` parsed as `T`, if given.
    fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.str(name)
            .map(|v| v.parse().map_err(|_| format!("bad --{name} `{v}`")))
            .transpose()
    }

    /// `--name` parsed as `T`, or `default` when absent.
    fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// Like [`Flags::get`], but a given value must also pass `valid`;
    /// `expected` describes the accepted values in the error.
    fn checked<T: FromStr>(
        &self,
        name: &str,
        default: T,
        valid: impl Fn(&T) -> bool,
        expected: &str,
    ) -> Result<T, String> {
        match self.opt(name)? {
            None => Ok(default),
            Some(v) if valid(&v) => Ok(v),
            Some(_) => Err(format!(
                "bad --{name} `{}` (expected {expected})",
                self.str(name).unwrap_or_default()
            )),
        }
    }
}

/// Splits CLI args into positional operands and `--flag value` pairs.
fn parse_args(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(name) = a.strip_prefix("--") else {
            positional.push(a.clone());
            i += 1;
            continue;
        };
        if matches!(name, "full" | "observe" | "no-drift-freeze") {
            flags.insert(name.to_string(), "true".to_string());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
            i += 2;
        }
    }
    Ok((positional, Flags(flags)))
}

/// Parses a serde-named enum value (e.g. `TreeGini`) via its JSON form.
fn parse_enum<T: serde::Deserialize>(what: &str, value: &str) -> Result<T, String> {
    serde_json::from_str(&format!("\"{value}\""))
        .map_err(|_| format!("unknown {what} `{value}` (see --help)"))
}

/// One keep-alive HTTP/1.1 connection to a server. Every request is
/// `Content-Length`-framed and its reply read with [`read_response`]; the
/// connection is replaced before the server's keep-alive request cap
/// would close it.
struct Client {
    addr: String,
    timeout: Duration,
    stream: TcpStream,
    served: usize,
}

impl Client {
    /// Connects to `addr`; a read that waits longer than `timeout` fails.
    fn connect(addr: &str, timeout: Duration) -> Result<Client, String> {
        let stream = TcpStream::connect(addr)
            .and_then(|s| s.set_read_timeout(Some(timeout)).map(|()| s))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Client {
            addr: addr.to_string(),
            timeout,
            stream,
            served: 0,
        })
    }

    /// Connects and completes one `GET /healthz` round trip, so the
    /// server has adopted the connection as a keep-alive one.
    fn adopted(addr: &str, timeout: Duration) -> Result<Client, String> {
        let mut client = Client::connect(addr, timeout)?;
        client.send("GET", "/healthz", "")?;
        Ok(client)
    }

    /// Sends one request and reads its reply, whatever the status. The
    /// duration is the round trip alone, never a reconnect.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(RawResponse, Duration), String> {
        if self.served + 1 >= MAX_KEEPALIVE_REQUESTS {
            *self = Client::connect(&self.addr, self.timeout)?;
        }
        self.served += 1;
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: hamlet-serve\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let sent = Instant::now();
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let resp = read_response(&mut self.stream).map_err(|e| format!("recv: {e}"))?;
        Ok((resp, sent.elapsed()))
    }

    /// POSTs `body` like [`Client::send`], but a status other than 200 is
    /// an error naming it.
    fn post(&mut self, path: &str, body: &str) -> Result<(Vec<u8>, Duration), String> {
        let (resp, took) = self.send("POST", path, body)?;
        if resp.status != 200 {
            return Err(format!(
                "HTTP {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        Ok((resp.body, took))
    }
}

/// Nearest-rank percentile `q` of an ascending slice (0 when empty).
fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Writes a `--summary-json` line when the flag is given: `-` appends it
/// to stdout (after any label lines, so diff-oriented consumers can still
/// strip it with `head -n -1`), anything else names a file.
fn write_summary(flags: &Flags, summary: &str) -> Result<(), String> {
    match flags.str("summary-json") {
        None => Ok(()),
        Some("-") => {
            println!("{summary}");
            Ok(())
        }
        Some(dest) => std::fs::write(dest, format!("{summary}\n"))
            .map_err(|e| format!("writing --summary-json {dest}: {e}")),
    }
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let name = flags.str("name").ok_or("--name is required")?.to_string();
    let dataset = flags
        .str("dataset")
        .ok_or("--dataset is required")?
        .to_string();
    let spec: ModelSpec = parse_enum("spec", flags.str("spec").ok_or("--spec is required")?)?;
    let config: Option<FeatureConfig> = flags
        .str("config")
        .map(|c| parse_enum("config", c))
        .transpose()?;
    let dir = flags.get("dir", PathBuf::from("artifacts"))?;

    // No warm-load: version allocation reads versions from artifact
    // filenames, so existing models need not be deserialized to train.
    let registry = hamlet_serve::registry::ModelRegistry::new();
    let req = TrainRequest {
        name,
        dataset,
        spec,
        config,
        scale: flags.opt("scale")?,
        seed: flags.opt("seed")?,
        full_budget: flags.has("full").then_some(true),
    };
    eprintln!(
        "training {} on `{}` ({})...",
        req.spec.name(),
        req.dataset,
        req.config.clone().unwrap_or(FeatureConfig::NoJoin).name()
    );
    let resp = train_and_register(&registry, &dir, &req).map_err(|e| e.to_string())?;
    println!(
        "{}",
        serde_json::to_string_pretty(&resp).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `serve`'s rollout guardrails. Each threshold must be finite and in
/// range: a NaN makes its comparison always false, which would switch
/// that guardrail off and let a candidate promote unguarded.
fn parse_guardrails(flags: &Flags) -> Result<GuardrailConfig, String> {
    let d = GuardrailConfig::default();
    let ratio = |p: &f64| (0.0..=1.0).contains(p);
    const RATIO: &str = "a value in [0, 1]";
    let min_samples: Option<u64> = flags.opt("guardrail-min-samples")?;
    Ok(GuardrailConfig {
        canary_slice: flags.checked(
            "canary-slice",
            d.canary_slice,
            |s| (1..=100).contains(s),
            "a percent in 1..=100",
        )?,
        min_shadow_rows: min_samples.unwrap_or(d.min_shadow_rows),
        min_canary_requests: min_samples.unwrap_or(d.min_canary_requests),
        min_agreement: flags.checked("guardrail-agreement", d.min_agreement, ratio, RATIO)?,
        max_error_ratio: flags.checked("guardrail-error-ratio", d.max_error_ratio, ratio, RATIO)?,
        max_p99_ratio: flags.checked(
            "guardrail-p99-ratio",
            d.max_p99_ratio,
            |x| x.is_finite() && *x > 0.0,
            "a finite ratio > 0",
        )?,
        drift_freeze: d.drift_freeze && !flags.has("no-drift-freeze"),
        ..d
    })
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let addr = flags.str("addr").unwrap_or(DEFAULT_ADDR);
    let defaults = ServerOptions::default();
    let workers = flags.get("workers", defaults.workers)?;
    let max_conns = flags.get("max-conns", defaults.max_conns)?;
    let reactors = flags.get("reactors", defaults.reactors)?.max(1);
    let dir = flags.get("dir", PathBuf::from("artifacts"))?;
    let load_mode = match flags.str("load-mode") {
        None | Some("heap") => LoadMode::Heap,
        Some("mmap") => LoadMode::Mmap,
        Some(other) => return Err(format!("bad --load-mode `{other}` (heap|mmap)")),
    };
    let coalesce_defaults = hamlet_serve::coalesce::CoalesceConfig::default();
    let coalesce = hamlet_serve::coalesce::CoalesceConfig {
        window: flags
            .opt("coalesce-window")?
            .map_or(coalesce_defaults.window, Duration::from_micros),
        max_rows: flags.get("coalesce-max-rows", coalesce_defaults.max_rows)?,
    };
    let demote_idle_secs: u64 = flags.get("demote-idle-secs", 0)?;
    let guardrails = parse_guardrails(flags)?;
    let drift_check_secs: u64 = flags.get("drift-check-secs", 5)?;

    let (state, loaded) = AppState::warm_full(
        dir.clone(),
        hamlet_serve::server::WarmOptions {
            load_mode,
            coalesce,
            guardrails,
        },
    )
    .map_err(|e| e.to_string())?;
    let mut opts = ServerOptions {
        workers,
        max_conns,
        reactors,
        ..defaults
    };
    {
        // One ~1 Hz ops tick drives all three background loops: rollout
        // guardrail evaluation every pass, the drift advisor at its own
        // cadence, and idle-version demotion when enabled.
        let idle = Duration::from_secs(demote_idle_secs);
        let tick_state = std::sync::Arc::clone(&state);
        let passes = std::sync::atomic::AtomicU64::new(0);
        opts.on_tick = Some(hamlet_serve::http::AppTick {
            every: Duration::from_secs(1),
            run: std::sync::Arc::new(move || {
                let n = passes.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                tick_state
                    .rollout
                    .tick(&tick_state.registry, &tick_state.telemetry);
                if drift_check_secs > 0 && n.is_multiple_of(drift_check_secs) {
                    tick_state
                        .rollout
                        .drift_check(&tick_state.registry, &tick_state.telemetry);
                }
                if demote_idle_secs > 0 {
                    for key in hamlet_serve::server::demote_idle(&tick_state, idle) {
                        eprintln!("auto-demoted idle version {key}");
                    }
                }
            }),
        });
    }
    let server = hamlet_serve::server::serve_with(addr, opts, state).map_err(|e| e.to_string())?;
    eprintln!(
        "hamlet-serve listening on http://{} ({} executor(s), {} reactor(s), {} max conns, \
         {} model(s) warm from {}, {load_mode:?} load mode, coalesce window {:?} / {} rows, \
         auto-demote {})",
        server.addr(),
        workers,
        reactors,
        max_conns,
        loaded,
        dir.display(),
        coalesce.window,
        coalesce.max_rows,
        if demote_idle_secs > 0 {
            format!("after {demote_idle_secs}s idle")
        } else {
            "off".into()
        },
    );
    // Parked on a condvar (zero CPU) until a stop signal; process signals
    // (Ctrl-C) terminate the process directly.
    server.block_until_shutdown();
    Ok(())
}

/// `probe`: open N idle keep-alive connections, then verify a fresh
/// connection still answers promptly — the reactor's "idle connections are
/// free" property as a CI-runnable smoke check.
fn cmd_probe(flags: &Flags) -> Result<(), String> {
    let addr = flags.str("addr").unwrap_or(DEFAULT_ADDR);
    let idle: usize = flags.get("idle", 64)?;
    let path = flags.str("path").unwrap_or("/healthz");
    let body = flags.str("body").unwrap_or("");
    let threshold_ms: f64 = flags.get("threshold-ms", 2000.0)?;
    // Blocking reads must not outlive the failure budget: if the server
    // wedges (the exact regression this probe exists to catch), the probe
    // has to exit nonzero promptly, not hang the CI job.
    let io_timeout = Duration::from_millis((threshold_ms.max(1000.0) * 2.0) as u64);

    // Park idle keep-alive connections. Each does one tiny request first so
    // it is a *bona fide* keep-alive connection, not just an unused socket.
    let parked = (0..idle)
        .map(|i| {
            Client::adopted(addr, io_timeout).map_err(|e| format!("parking connection {i}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;

    // One timed request on a fresh connection.
    let start = Instant::now();
    let method = if body.is_empty() { "GET" } else { "POST" };
    let (resp, _) = Client::connect(addr, io_timeout)
        .and_then(|mut fresh| fresh.send(method, path, body))
        .map_err(|e| format!("fresh connection: {e}"))?;
    let latency_ms = millis(start.elapsed());
    drop(parked);

    let status = resp.status;
    println!(
        "{{\"idle_connections\":{idle},\"path\":\"{path}\",\"status\":{status},\
         \"latency_ms\":{latency_ms:.3}}}"
    );
    if !(200..300).contains(&status) {
        return Err(format!(
            "probe got HTTP {status}: {}",
            String::from_utf8_lossy(&resp.body)
        ));
    }
    if latency_ms > threshold_ms {
        return Err(format!(
            "probe latency {latency_ms:.1} ms exceeds threshold {threshold_ms} ms \
             with {idle} idle connections parked"
        ));
    }
    Ok(())
}

/// A blast body: `{n}` becomes the request index, `{i}` the index mod 2.
fn render(template: &str, n: usize) -> String {
    template
        .replace("{n}", &n.to_string())
        .replace("{i}", &(n % 2).to_string())
}

/// How long a [`drive`] run lasts, and what it keeps of each reply.
#[derive(Clone, Copy)]
enum Run {
    /// Exactly this many requests, keeping each reply's labels and
    /// cascade tiers.
    Fixed(usize),
    /// As many requests as fit in this long, keeping latencies only.
    Sustained(Duration),
}

/// What a [`drive`] run collected, merged across its connections.
#[derive(Default)]
struct Driven {
    /// Round-trip latency per request, in milliseconds.
    latencies: Vec<f64>,
    /// `(request index, labels JSON)` per request (fixed runs only).
    labels: Vec<(usize, String)>,
    /// The cascade tier that answered each row (fixed runs only; empty
    /// when no reply carried tier provenance).
    tiers: Vec<u8>,
}

/// POSTs `template` bodies to `path`, one thread per client: client `tid`
/// of `k` sends requests `n = tid, tid + k, …` until the [`Run`] ends.
fn drive(clients: Vec<Client>, path: &str, template: &str, run: Run) -> Result<Driven, String> {
    let k = clients.len();
    let requests = match run {
        Run::Fixed(n) => n,
        Run::Sustained(_) => usize::MAX,
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(tid, mut client)| {
                scope.spawn(move || -> Result<Driven, String> {
                    let mut out = Driven::default();
                    for n in (tid..requests).step_by(k) {
                        if matches!(run, Run::Sustained(d) if started.elapsed() >= d) {
                            break;
                        }
                        let err = |e: String| format!("worker {tid} req {n}: {e}");
                        let (body, took) = client.post(path, &render(template, n)).map_err(err)?;
                        out.latencies.push(millis(took));
                        if let Run::Fixed(_) = run {
                            let resp: PredictResponse = serde_json::from_slice(&body)
                                .map_err(|e| err(format!("not a predict response: {e}")))?;
                            let labels = serde_json::to_string(&resp.labels)
                                .map_err(|e| err(e.to_string()))?;
                            out.labels.push((n, labels));
                            out.tiers.extend(resp.tiers.unwrap_or_default());
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut all = Driven::default();
        for h in handles {
            let part = h.join().expect("blast worker panicked")?;
            all.latencies.extend(part.latencies);
            all.labels.extend(part.labels);
            all.tiers.extend(part.tiers);
        }
        Ok(all)
    })
}

/// `blast`: fire N POSTs from C parallel connections and print each
/// response's `labels` keyed by request index — deterministic output for
/// diffing server configurations (the CI coalescing probe runs this twice,
/// with coalescing on and off, and requires identical files).
fn cmd_blast(flags: &Flags) -> Result<(), String> {
    let addr = flags.str("addr").unwrap_or(DEFAULT_ADDR);
    let template = flags.str("body-template").ok_or(
        "--body-template is required (use {n} for the request index, {i} for index mod 2)",
    )?;
    if flags.has("observe") {
        let path = flags.str("path").unwrap_or("/v1/observe");
        return blast_observe(addr, path, template, flags);
    }
    let path = flags.str("path").unwrap_or("/v1/predict");
    if flags.has("conns") || flags.has("duration") {
        return blast_sustained(addr, path, template, flags);
    }
    let requests: usize = flags.get("requests", 64)?;
    let concurrency = flags.get("concurrency", 16)?.clamp(1, requests.max(1));
    let expect_tiers: usize = flags.get("expect-tiers", 0)?;

    let started = Instant::now();
    let clients = (0..concurrency)
        .map(|_| Client::connect(addr, IO_TIMEOUT))
        .collect::<Result<_, _>>()?;
    let mut run = drive(clients, path, template, Run::Fixed(requests))?;
    let elapsed = started.elapsed();
    run.labels.sort_by_key(|(n, _)| *n);
    for (n, labels) in &run.labels {
        println!("{n}\t{labels}");
    }
    run.latencies.sort_by(f64::total_cmp);
    let lats = &run.latencies;
    let (p50, p90, p99) = (pct(lats, 0.5), pct(lats, 0.9), pct(lats, 0.99));
    let req_per_s = requests as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "blast: {requests} requests over {concurrency} connections in {elapsed:?} \
         ({req_per_s:.0} req/s), latency p50 {p50:.3} ms / p90 {p90:.3} ms / p99 {p99:.3} ms"
    );
    let mut tier_rows = vec![0u64; run.tiers.iter().max().map_or(0, |&t| usize::from(t) + 1)];
    for &t in &run.tiers {
        tier_rows[usize::from(t)] += 1;
    }
    if !tier_rows.is_empty() {
        eprintln!(
            "blast: cascade tier rows {tier_rows:?} ({} escalated past tier 0)",
            tier_rows.iter().skip(1).sum::<u64>()
        );
    }
    if expect_tiers > 0 {
        let distinct = tier_rows.iter().filter(|&&n| n > 0).count();
        if distinct < expect_tiers {
            return Err(format!(
                "--expect-tiers {expect_tiers}: only {distinct} tier(s) answered rows \
                 (histogram {tier_rows:?}); the cascade never split the workload"
            ));
        }
    }
    let tier_field = if tier_rows.is_empty() {
        String::new()
    } else {
        let counts: Vec<String> = tier_rows.iter().map(u64::to_string).collect();
        format!(",\"tier_rows\":[{}]", counts.join(","))
    };
    write_summary(
        flags,
        &format!(
            "{{\"requests\":{requests},\"concurrency\":{concurrency},\
             \"elapsed_ms\":{:.3},\"req_per_s\":{req_per_s:.1},\
             \"p50_ms\":{p50:.3},\"p90_ms\":{p90:.3},\"p99_ms\":{p99:.3}{tier_field}}}",
            millis(elapsed)
        ),
    )
}

/// `blast --observe`: stream labeled rows into `/v1/observe` at a target
/// request rate from one keep-alive connection. The body template is an
/// [`ObserveRequest`](hamlet_serve::api::ObserveRequest) JSON with the
/// usual `{n}`/`{i}` substitutions, so CI and local runs can fabricate
/// deterministic in-domain labeled traffic.
fn blast_observe(addr: &str, path: &str, template: &str, flags: &Flags) -> Result<(), String> {
    let requests: usize = flags.get("requests", 64)?;
    let rate: f64 = flags.get("rate", 0.0)?;
    let started = Instant::now();
    let mut client = Client::connect(addr, IO_TIMEOUT)?;
    let (mut accepted_total, mut buffered_last) = (0, 0);
    for n in 0..requests {
        if rate > 0.0 {
            let due = started + Duration::from_secs_f64(n as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let (body, _) = client
            .post(path, &render(template, n))
            .map_err(|e| format!("req {n}: {e}"))?;
        let resp: ObserveResponse = serde_json::from_slice(&body)
            .map_err(|e| format!("req {n}: not an observe response: {e}"))?;
        accepted_total += resp.accepted;
        buffered_last = resp.buffered;
    }
    let elapsed = started.elapsed();
    let req_per_s = requests as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "blast observe: {requests} requests ({accepted_total} labeled rows) in {elapsed:?} \
         ({req_per_s:.0} req/s), {buffered_last} rows buffered server-side"
    );
    write_summary(
        flags,
        &format!(
            "{{\"mode\":\"observe\",\"requests\":{requests},\"rows_accepted\":{accepted_total},\
             \"buffered\":{buffered_last},\"elapsed_ms\":{:.3},\"req_per_s\":{req_per_s:.1}}}",
            millis(elapsed)
        ),
    )
}

/// `blast --conns/--duration`: sustained open-loop mode. Opens `--conns`
/// keep-alive connections serially, timing connect plus one /healthz round
/// trip per connection — how long the network plane takes to accept, adopt
/// and first service each socket (the accept-latency proxy; raw `connect`
/// completes from the kernel backlog before the reactor ever sees the fd,
/// so it alone measures nothing). Then drives requests from `--active` of
/// them for `--duration` seconds while the remainder sit parked as idle
/// keep-alive load on the reactors.
fn blast_sustained(addr: &str, path: &str, template: &str, flags: &Flags) -> Result<(), String> {
    let conns = flags.get("conns", 256)?.max(1);
    let duration_s = flags.checked(
        "duration",
        5.0,
        |d| *d > 0.0 && Duration::try_from_secs_f64(*d).is_ok(),
        "a positive number of seconds",
    )?;
    let active = flags.get("active", 16)?.clamp(1, conns);

    // Phase 1: open every connection, timing until its first (trivial)
    // response arrives.
    let mut accept_ms = Vec::with_capacity(conns);
    let mut clients = Vec::with_capacity(conns);
    for i in 0..conns {
        let t = Instant::now();
        clients.push(Client::adopted(addr, IO_TIMEOUT).map_err(|e| format!("conn {i}: {e}"))?);
        accept_ms.push(millis(t.elapsed()));
    }

    // Phase 2: the active subset drives requests until the deadline; the
    // parked majority stays open, exercising "idle connections are free".
    let parked = clients.split_off(active);
    let started = Instant::now();
    let mut run = drive(
        clients,
        path,
        template,
        Run::Sustained(Duration::from_secs_f64(duration_s)),
    )?;
    let elapsed = started.elapsed();
    drop(parked);

    accept_ms.sort_by(f64::total_cmp);
    run.latencies.sort_by(f64::total_cmp);
    let lats = &run.latencies;
    let requests = lats.len();
    let req_per_s = requests as f64 / elapsed.as_secs_f64().max(1e-9);
    let (ap50, ap99) = (pct(&accept_ms, 0.5), pct(&accept_ms, 0.99));
    let (p50, p90, p99) = (pct(lats, 0.5), pct(lats, 0.9), pct(lats, 0.99));
    eprintln!(
        "blast sustained: {conns} conns ({active} active) for {:.1}s: {requests} requests \
         ({req_per_s:.0} req/s), accept p50 {ap50:.3} ms / p99 {ap99:.3} ms, \
         latency p50 {p50:.3} ms / p90 {p90:.3} ms / p99 {p99:.3} ms",
        elapsed.as_secs_f64()
    );
    write_summary(
        flags,
        &format!(
            "{{\"mode\":\"sustained\",\"conns\":{conns},\"active\":{active},\
             \"duration_s\":{:.3},\"requests\":{requests},\"req_per_s\":{req_per_s:.1},\
             \"accept_p50_ms\":{ap50:.3},\"accept_p99_ms\":{ap99:.3},\
             \"p50_ms\":{p50:.3},\"p90_ms\":{p90:.3},\"p99_ms\":{p99:.3}}}",
            elapsed.as_secs_f64()
        ),
    )
}

/// `rollout status|start|abort`: thin HTTP client over the rollout plane's
/// admin endpoints, printing the server's JSON verbatim.
fn cmd_rollout(positional: &[String], flags: &Flags) -> Result<(), String> {
    let (method, path, body) = match positional.first().map(String::as_str) {
        Some("status") => ("GET", "/v1/rollout/status", String::new()),
        Some("start") => {
            let req = RolloutStartRequest {
                candidate: flags.opt("candidate")?,
                refresh: flags.opt("refresh")?,
                slice: flags.opt("slice")?,
            };
            if req.candidate.is_some() == req.refresh.is_some() {
                return Err(
                    "rollout start needs exactly one of --candidate <KEY> (an already-\
                     registered version) or --refresh <NAME> (warm-start refit on the \
                     observe buffer)"
                        .into(),
                );
            }
            let body = serde_json::to_string(&req).map_err(|e| e.to_string())?;
            ("POST", "/v1/rollout/start", body)
        }
        Some("abort") => ("POST", "/v1/rollout/abort", String::new()),
        _ => {
            return Err("usage: rollout <status|start|abort> [--addr <ADDR>] \
                 [--candidate <KEY> | --refresh <NAME>] [--slice <PCT>]"
                .into())
        }
    };
    let addr = flags.str("addr").unwrap_or(DEFAULT_ADDR);
    let (resp, _) = Client::connect(addr, IO_TIMEOUT)?.send(method, path, &body)?;
    println!("{}", String::from_utf8_lossy(&resp.body));
    if !(200..300).contains(&resp.status) {
        return Err(format!("HTTP {}", resp.status));
    }
    Ok(())
}

/// `artifact inspect|convert|diff`: offline artifact tooling.
fn cmd_artifact(positional: &[String], flags: &Flags) -> Result<(), String> {
    match positional.first().map(String::as_str) {
        Some("inspect") => {
            let [path] = &positional[1..] else {
                return Err("usage: artifact inspect <PATH>".into());
            };
            artifact_inspect(Path::new(path))
        }
        Some("convert") => {
            let [src] = &positional[1..] else {
                return Err("usage: artifact convert <SRC> [--to v3|v2] [--dir <DIR>]".into());
            };
            artifact_convert(Path::new(src), flags)
        }
        Some("diff") => {
            let [a, b] = &positional[1..] else {
                return Err("usage: artifact diff <A> <B>".into());
            };
            let load = |p: &str| {
                ModelArtifact::load(Path::new(p)).map_err(|e| format!("loading {p}: {e}"))
            };
            let d = hamlet_serve::diff::diff_artifacts(&load(a)?, &load(b)?);
            println!(
                "{}",
                serde_json::to_string_pretty(&d).map_err(|e| e.to_string())?
            );
            if !d.contract_compatible() {
                eprintln!(
                    "note: contracts are NOT request-compatible; clients of `{}` \
                     cannot blindly switch to `{}`",
                    d.a, d.b
                );
            }
            Ok(())
        }
        _ => Err("usage: artifact <inspect|convert|diff> ...".into()),
    }
}

/// Prints an artifact's identity and physical layout without loading the
/// model payload (v3: container header + META section only).
fn artifact_inspect(path: &Path) -> Result<(), String> {
    use serde::{Number, Value};
    let head = ModelArtifact::load_head(path).map_err(|e| e.to_string())?;
    let file_len = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let mut out = vec![
        ("path".into(), Value::Str(path.display().to_string())),
        ("format".into(), Value::Str(head.format.to_string())),
        ("file_bytes".into(), Value::Num(Number::UInt(file_len))),
        ("key".into(), Value::Str(head.key())),
        ("family".into(), Value::Str(head.family.clone())),
        ("encoding".into(), Value::Str(head.encoding.clone())),
        ("config".into(), Value::Str(head.config.clone())),
        (
            "n_features".into(),
            Value::Num(Number::UInt(head.n_features as u64)),
        ),
        (
            "test_accuracy".into(),
            Value::Num(Number::Float(head.test_accuracy)),
        ),
        ("dataset".into(), Value::Str(head.dataset.clone())),
        (
            "schema_fingerprint".into(),
            Value::Num(Number::UInt(head.schema_fingerprint)),
        ),
    ];
    if head.format == Format::V3 {
        // Physical layout: section table straight from the header.
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let entries = hamlet_serve::container::parse_sections(&bytes).map_err(|e| e.to_string())?;
        let sections = entries
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("tag".into(), Value::Str(s.tag_str())),
                    ("offset".into(), Value::Num(Number::UInt(s.offset as u64))),
                    ("bytes".into(), Value::Num(Number::UInt(s.len as u64))),
                ])
            })
            .collect();
        out.push(("sections".into(), Value::Arr(sections)));
        // Quantized payloads carry a JSON descriptor section: per-tensor
        // encoding, byte size, and (for i8) the symmetric scale.
        if let Ok(entry) =
            hamlet_serve::container::find(&entries, hamlet_serve::container::SEC_QNTS)
        {
            let qnts = &bytes[entry.offset..entry.offset + entry.len];
            let desc: Value = serde_json::from_slice(qnts)
                .map_err(|e| format!("QNTS section is not valid JSON: {e}"))?;
            out.push(("quantization".into(), desc));
        }
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&Value::Obj(out)).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Rewrites an artifact between formats, reporting both sizes.
fn artifact_convert(src: &Path, flags: &Flags) -> Result<(), String> {
    let to = match flags.str("to") {
        None | Some("v3") => Format::V3,
        Some("v2") => Format::V2,
        Some(other) => return Err(format!("bad --to `{other}` (v3|v2)")),
    };
    let out_dir = flags
        .str("dir")
        .map(PathBuf::from)
        .or_else(|| src.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let artifact =
        ModelArtifact::load(src).map_err(|e| format!("loading {}: {e}", src.display()))?;
    if let Some(spec) = flags.str("quantize") {
        if to == Format::V2 {
            return Err("--quantize writes v3 binary artifacts; drop --to v2".into());
        }
        let enc = hamlet_ml::quant::QuantEncoding::parse(spec)
            .ok_or_else(|| format!("bad --quantize `{spec}` (i8|f16)"))?;
        return artifact_quantize(src, &artifact, enc, &out_dir, flags);
    }
    // Refuse in-place rewrites *before* touching the filesystem, comparing
    // resolved paths so `./artifacts/x` and `artifacts/x` don't sneak past.
    let planned = artifact.path_in_format(&out_dir, to);
    let resolved_src = src.canonicalize().map_err(|e| e.to_string())?;
    let same_file = match planned.canonicalize() {
        Ok(resolved_dst) => resolved_dst == resolved_src,
        // Destination doesn't exist yet — cannot be the source.
        Err(_) => false,
    };
    if same_file {
        return Err(format!(
            "refusing to overwrite {} with itself; pass --dir or --to",
            src.display()
        ));
    }
    let dst = artifact
        .save_format(&out_dir, to)
        .map_err(|e| e.to_string())?;
    let src_len = std::fs::metadata(src).map_err(|e| e.to_string())?.len();
    let dst_len = std::fs::metadata(&dst).map_err(|e| e.to_string())?.len();
    println!(
        "{{\"src\":\"{}\",\"src_bytes\":{src_len},\"dst\":\"{}\",\"dst_bytes\":{dst_len},\
         \"ratio\":{:.2}}}",
        src.display(),
        dst.display(),
        src_len as f64 / dst_len.max(1) as f64
    );
    Ok(())
}

/// `convert --quantize i8|f16`: rewrite the weight tensors into a NEW v3
/// artifact named `<name>-<enc>` (same version) and report the size ratio
/// plus a prediction-agreement estimate on deterministic in-domain rows.
fn artifact_quantize(
    src: &Path,
    artifact: &ModelArtifact,
    enc: hamlet_ml::quant::QuantEncoding,
    out_dir: &Path,
    flags: &Flags,
) -> Result<(), String> {
    let sample_rows: usize = flags.get("sample-rows", 512)?;
    let mut quantized = artifact.clone();
    quantized.model = artifact
        .model
        .quantize(enc)
        .map_err(|e| format!("quantizing {}: {e}", artifact.key()))?;
    // A distinct name, never an in-place downgrade: the f32 original stays
    // servable next to its quantized sibling.
    quantized.name = format!("{}-{}", artifact.name, enc.name());

    let cards: Vec<u32> = artifact.features().iter().map(|f| f.cardinality).collect();
    let d = cards.len();
    let agreement = if d == 0 || sample_rows == 0 {
        1.0
    } else {
        let rows = sample_in_domain_rows(&cards, sample_rows);
        let base = artifact.model.predict_batch(&rows, d);
        let quant = quantized.model.predict_batch(&rows, d);
        let same = base.iter().zip(&quant).filter(|(a, b)| a == b).count();
        same as f64 / base.len() as f64
    };

    let dst = quantized
        .save_format(out_dir, Format::V3)
        .map_err(|e| e.to_string())?;
    let src_len = std::fs::metadata(src).map_err(|e| e.to_string())?.len();
    let dst_len = std::fs::metadata(&dst).map_err(|e| e.to_string())?.len();
    println!(
        "{{\"src\":\"{}\",\"src_bytes\":{src_len},\"dst\":\"{}\",\"dst_bytes\":{dst_len},\
         \"ratio\":{:.2},\"encoding\":\"{}\",\"sample_rows\":{sample_rows},\
         \"agreement\":{agreement:.4}}}",
        src.display(),
        dst.display(),
        src_len as f64 / dst_len.max(1) as f64,
        enc.name()
    );
    Ok(())
}

/// `cascade build`: bundle existing artifacts into a tiered cascade.
fn cmd_cascade(positional: &[String], flags: &Flags) -> Result<(), String> {
    match positional.first().map(String::as_str) {
        Some("build") => cascade_build(flags),
        _ => Err(
            "usage: cascade build --tiers <PATH,PATH[,...]> [--target-p <P>] \
             [--calibrator platt|isotonic] [--sample-rows <N>] [--name <NAME>] [--dir <DIR>]"
                .into(),
        ),
    }
}

/// Deterministic in-domain sample rows: a fixed-seed LCG drawing codes
/// from the contract cardinalities, identical run to run, so the
/// quantization agreement and cascade calibration reports reproduce.
fn sample_in_domain_rows(cards: &[u32], n: usize) -> Vec<u32> {
    let mut state = 0x243F6A88_85A308D3u64;
    let mut rows = Vec::with_capacity(n * cards.len());
    for _ in 0..n {
        for &card in cards {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rows.push(((state >> 33) % u64::from(card.max(1))) as u32);
        }
    }
    rows
}

fn cascade_build(flags: &Flags) -> Result<(), String> {
    use hamlet_ml::any::AnyClassifier;
    use hamlet_ml::cascade::{pick_threshold, Calibrator, CascadeModel, CascadeTier};

    let tier_paths: Vec<PathBuf> = flags
        .str("tiers")
        .ok_or("--tiers is required (comma-separated artifact paths, cheapest first, top last)")?
        .split(',')
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
        .collect();
    if tier_paths.len() < 2 {
        return Err(
            "--tiers needs at least two artifact paths (cheap front tier, top tier)".into(),
        );
    }
    let target_p = flags.checked(
        "target-p",
        0.95,
        |p| (0.0..=1.0).contains(p),
        "a rate in [0, 1]",
    )?;
    let sample_rows = flags.checked(
        "sample-rows",
        2048,
        |&n| n > 0,
        "a positive row count: calibration needs data",
    )?;
    let isotonic = match flags.str("calibrator") {
        None | Some("platt") => false,
        Some("isotonic") => true,
        Some(other) => return Err(format!("bad --calibrator `{other}` (platt|isotonic)")),
    };

    let artifacts: Vec<ModelArtifact> = tier_paths
        .iter()
        .map(|p| ModelArtifact::load(p).map_err(|e| format!("loading {}: {e}", p.display())))
        .collect::<Result<_, _>>()?;
    // Every tier consumes the same rows, verbatim — enforce contract
    // identity up front rather than letting a mismatched tier misread
    // another tier's codes at serve time.
    let fp0 = artifacts[0].contract.fingerprint();
    for (path, art) in tier_paths.iter().zip(&artifacts).skip(1) {
        let fp = art.contract.fingerprint();
        if fp != fp0 {
            return Err(format!(
                "tier `{}` has contract fingerprint {fp:#018x} but `{}` has {fp0:#018x}; \
                 cascade tiers must share one feature contract (same features, \
                 cardinalities and dictionaries)",
                path.display(),
                tier_paths[0].display()
            ));
        }
    }

    let cards: Vec<u32> = artifacts[0]
        .features()
        .iter()
        .map(|f| f.cardinality)
        .collect();
    let d = cards.len();
    if d == 0 {
        return Err("tier artifacts have an empty feature contract".into());
    }
    let rows = sample_in_domain_rows(&cards, sample_rows);

    // Distillation targets: the authoritative top tier's own predictions.
    // Calibration asks "when does the cheap tier agree with the model it
    // fronts for?" — no ground-truth labels required.
    let top_artifact = artifacts.last().expect("len >= 2");
    let top_predictions = top_artifact.model.predict_batch(&rows, d);

    let mut tiers = Vec::with_capacity(artifacts.len());
    let mut thresholds = Vec::with_capacity(artifacts.len());
    for art in &artifacts[..artifacts.len() - 1] {
        let scores = art.model.score_batch(&rows, d);
        let agree: Vec<bool> = art
            .model
            .predict_batch(&rows, d)
            .iter()
            .zip(&top_predictions)
            .map(|(mine, top)| mine == top)
            .collect();
        let calibrator = if isotonic {
            Calibrator::fit_isotonic(&scores, &agree)
        } else {
            Calibrator::fit_platt(&scores, &agree)
        }
        .map_err(|e| format!("calibrating {}: {e}", art.key()))?;
        let conf_agree: Vec<(f64, bool)> = scores
            .iter()
            .map(|&s| calibrator.confidence(s))
            .zip(agree)
            .collect();
        let threshold = pick_threshold(&conf_agree, target_p);
        thresholds.push(threshold);
        tiers.push(CascadeTier {
            model: art.model.clone(),
            calibrator,
            threshold,
        });
    }
    // The top tier always answers whatever reaches it.
    thresholds.push(1.0);
    tiers.push(CascadeTier {
        model: top_artifact.model.clone(),
        calibrator: Calibrator::Platt { a: 0.0, b: 0.0 },
        threshold: 1.0,
    });
    let cascade = CascadeModel::new(tiers).map_err(|e| e.to_string())?;

    // Report numbers on the same sample: agreement with the top tier,
    // rows answered per tier, and a single-threaded latency comparison
    // (best of a few repetitions, so one cold pass can't skew it).
    let reps = 3;
    let top_ns = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(top_artifact.model.predict_batch(&rows, d));
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap_or(0);
    let tiered = cascade.predict_batch_tiered(&rows, d, 1, sample_rows.max(1));
    let cascade_ns = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(cascade.predict_batch_tiered(&rows, d, 1, sample_rows.max(1)));
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap_or(0);
    let agreement = tiered
        .labels
        .iter()
        .zip(&top_predictions)
        .filter(|(a, b)| a == b)
        .count() as f64
        / top_predictions.len().max(1) as f64;
    let hist = tiered.tier_histogram();
    let deepest = hist.iter().rposition(|&n| n > 0).unwrap_or(0);
    let tier_rows = &hist[..=deepest];
    let escalated: u64 = tier_rows.iter().skip(1).sum();
    let escalation_ratio = escalated as f64 / tiered.labels.len().max(1) as f64;

    let out_dir = flags
        .str("dir")
        .map(PathBuf::from)
        .or_else(|| tier_paths[0].parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let mut out = top_artifact.clone();
    out.model = AnyClassifier::Cascade(cascade);
    out.name = flags
        .str("name")
        .map_or_else(|| format!("{}-casc", top_artifact.name), str::to_string);
    // Cascades need the v3 CASC descriptor section.
    let dst = out
        .save_format(&out_dir, Format::V3)
        .map_err(|e| e.to_string())?;
    let dst_len = std::fs::metadata(&dst).map_err(|e| e.to_string())?.len();

    let join_json = |xs: &[String]| xs.join(",");
    let tier_names: Vec<String> = tier_paths
        .iter()
        .map(|p| format!("\"{}\"", p.display()))
        .collect();
    let threshold_strs: Vec<String> = thresholds.iter().map(|t| format!("{t:.6}")).collect();
    let tier_row_strs: Vec<String> = tier_rows.iter().map(u64::to_string).collect();
    println!(
        "{{\"tiers\":[{}],\"dst\":\"{}\",\"dst_bytes\":{dst_len},\
         \"calibrator\":\"{}\",\"target_p\":{target_p},\"sample_rows\":{sample_rows},\
         \"thresholds\":[{}],\"agreement\":{agreement:.4},\
         \"escalation_ratio\":{escalation_ratio:.4},\"tier_rows\":[{}],\
         \"top_ms\":{:.3},\"cascade_ms\":{:.3},\"speedup\":{:.2}}}",
        join_json(&tier_names),
        dst.display(),
        if isotonic { "isotonic" } else { "platt" },
        join_json(&threshold_strs),
        join_json(&tier_row_strs),
        top_ns as f64 / 1e6,
        cascade_ns as f64 / 1e6,
        top_ns as f64 / cascade_ns.max(1) as f64,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(cmd, "-h" | "--help" | "help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (positional, flags) = match parse_args(&args[1..]) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if !matches!(cmd, "artifact" | "cascade" | "rollout") && !positional.is_empty() {
        eprintln!("error: unexpected argument `{}`", positional[0]);
        return ExitCode::FAILURE;
    }
    let result = match cmd {
        "train" => cmd_train(&flags),
        "serve" => cmd_serve(&flags),
        "probe" => cmd_probe(&flags),
        "blast" => cmd_blast(&flags),
        "artifact" => cmd_artifact(&positional, &flags),
        "cascade" => cmd_cascade(&positional, &flags),
        "rollout" => cmd_rollout(&positional, &flags),
        "datasets" => {
            for d in DATASETS {
                println!("{d}");
            }
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_serve::http::{Request, Responder, Response, Server};
    use std::sync::Arc;

    fn flags(args: &[&str]) -> Flags {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).expect("well-formed args").1
    }

    /// Echoes the request body with a 200, except `/missing`: a 404.
    fn echo_server() -> Server {
        Server::bind(
            "127.0.0.1:0",
            1,
            Arc::new(|req: &Request, responder: Responder| {
                let status = if req.path == "/missing" { 404 } else { 200 };
                responder.send(Response::json(status, req.body.clone()))
            }),
        )
        .expect("bind an ephemeral port")
    }

    #[test]
    fn client_reconnects_before_the_keepalive_cap() {
        let server = echo_server();
        let mut client = Client::connect(&server.addr().to_string(), IO_TIMEOUT).unwrap();
        // The server closes a connection at its request cap, so more than
        // two caps' worth of calls succeed only if the client reconnects.
        for n in 0..2 * MAX_KEEPALIVE_REQUESTS + 1 {
            let body = format!("{{\"n\":{n}}}");
            let (echo, _) = client.post("/echo", &body).unwrap();
            assert_eq!(echo, body.as_bytes(), "call {n}");
        }
        server.shutdown();
    }

    #[test]
    fn client_post_names_a_non_200_status() {
        let server = echo_server();
        let mut client = Client::connect(&server.addr().to_string(), IO_TIMEOUT).unwrap();
        let err = client.post("/missing", "{}").unwrap_err();
        assert!(err.starts_with("HTTP 404"), "{err}");
        // `send` hands back any status, and the connection stays usable.
        let (resp, _) = client.send("GET", "/missing", "").unwrap();
        assert_eq!(resp.status, 404);
        assert!(client.post("/echo", "{}").is_ok());
        server.shutdown();
    }

    #[test]
    fn flag_reader_defaults_parses_and_names_bad_values() {
        let f = flags(&["--requests", "12", "--concurrency", "many", "--full"]);
        assert_eq!(f.get("absent", 64usize), Ok(64));
        assert_eq!(f.get("requests", 64usize), Ok(12));
        assert_eq!(f.opt::<usize>("absent"), Ok(None));
        assert_eq!(
            f.get("concurrency", 16usize),
            Err("bad --concurrency `many`".to_string())
        );
        assert!(f.has("full"));
        let positive = |n: &usize| *n > 0;
        assert_eq!(f.checked("requests", 1, positive, "n > 0"), Ok(12));
        assert_eq!(
            flags(&["--requests", "0"]).checked("requests", 1, positive, "n > 0"),
            Err("bad --requests `0` (expected n > 0)".to_string())
        );
    }

    #[test]
    fn blast_rejects_a_non_finite_or_non_positive_duration() {
        for bad in ["nan", "NaN", "inf", "-inf", "0", "-1", "1e300"] {
            let f = flags(&["--conns", "1", "--duration", bad, "--body-template", "{}"]);
            let err = cmd_blast(&f).unwrap_err();
            assert!(err.starts_with(&format!("bad --duration `{bad}`")), "{err}");
        }
    }

    #[test]
    fn guardrail_flags_reject_values_that_would_disable_a_check() {
        for (flag, bad) in [
            ("guardrail-agreement", "nan"),
            ("guardrail-agreement", "-0.1"),
            ("guardrail-agreement", "1.5"),
            ("guardrail-error-ratio", "NaN"),
            ("guardrail-error-ratio", "inf"),
            ("guardrail-error-ratio", "2"),
            ("guardrail-p99-ratio", "nan"),
            ("guardrail-p99-ratio", "inf"),
            ("guardrail-p99-ratio", "0"),
            ("guardrail-p99-ratio", "-3"),
            ("canary-slice", "0"),
            ("canary-slice", "101"),
        ] {
            let err = parse_guardrails(&flags(&[&format!("--{flag}"), bad])).unwrap_err();
            assert!(err.starts_with(&format!("bad --{flag} `{bad}`")), "{err}");
        }
        let g = parse_guardrails(&flags(&[
            "--guardrail-agreement",
            "1",
            "--guardrail-error-ratio",
            "0",
            "--guardrail-p99-ratio",
            "1.5",
            "--guardrail-min-samples",
            "8",
            "--no-drift-freeze",
        ]))
        .unwrap();
        assert_eq!(
            (g.min_agreement, g.max_error_ratio, g.max_p99_ratio),
            (1.0, 0.0, 1.5)
        );
        assert_eq!((g.min_shadow_rows, g.min_canary_requests), (8, 8));
        assert!(!g.drift_freeze);
        let d = parse_guardrails(&flags(&[])).unwrap();
        assert_eq!(d.min_agreement, GuardrailConfig::default().min_agreement);
        assert!(d.drift_freeze);
    }
}
