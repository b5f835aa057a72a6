//! Cross-request predict coalescing at the executor boundary.
//!
//! Production traffic on `/v1/predict` is overwhelmingly *many tiny
//! bodies* — one row from each of thousands of clients — not a few big
//! batches. Served naively, every such request pays full dispatch (EWMA
//! fold-back, per-model accounting) for a one-row `predict` call. The
//! coalescer amortizes that by merging **concurrent in-flight requests
//! that resolved the same artifact** into one batch predict:
//!
//! - The first request to find no open batch for its model becomes the
//!   **leader**: it opens a batch with its rows and holds it open for a
//!   bounded window (see below). Its executor thread is parked for at most
//!   that window.
//! - Requests arriving meanwhile become **followers**: their (already
//!   validated) rows and [`Responder`]s are appended to the open batch and
//!   their executor returns *immediately* to pull the next job — so the
//!   merge width is bounded by the number of concurrent requests, not by
//!   the executor count.
//! - The leader then executes the whole batch sequentially on its own
//!   executor thread and answers every participant. Rows are never
//!   re-ordered across a request boundary and per-row prediction is
//!   stateless, so each response is **bit-identical** to the uncoalesced
//!   execution.
//!
//! Each model's merge point (`Lane`) lives in its telemetry cell
//! ([`ModelStats`]), which the request resolved once; the coalescer itself
//! holds only tuning and counters. A leader holds that cell's `Arc` while
//! its batch is open, so the cell map's GC sweep never splits a batch.
//!
//! The window is **fed by the per-model ns/row EWMA**
//! ([`ModelStats::ns_per_row`]) rather than fixed: there is no point
//! holding a batch open longer than the work itself costs, so for a cheap
//! model (a tree at tens of ns/row) the effective window collapses to
//! roughly the cost of a full batch, while an expensive RBF-SVM — where
//! one merged batch saves many dispatches — gets the full configured
//! window. The leader also
//! flushes early when the batch hits `max_rows` or when the executor
//! queue drains (nobody left to wait for, observed via
//! [`Responder::queue_depth`]) — which is what makes *sequential*
//! keep-alive traffic pay no window at all: a lone request sees an empty
//! queue and runs solo immediately. The gauge counts only coalescable
//! (predict) jobs — see `http::gauge_predicts` — but it still
//! cannot tell *which model* a pending predict targets (nor whether it is
//! a large batch that will never merge), so a lane whose leaders
//! repeatedly wait out the window without a single partner **damps
//! itself**: it stops leading after a few empty windows and retries one
//! exploratory window every handful of requests, bounding the cost of a
//! misleading gauge while noticing a return of real concurrency within
//! ~16 requests.
//!
//! Error isolation is structural: validation and dictionary encoding run
//! per request *before* anything is merged, so a bad row 4xxes only its
//! own request and never taints a batch. A panic inside the merged
//! predict unwinds the batch, whose responders then answer 500 from their
//! destructors — one poisoned batch never wedges a connection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::artifact::ModelArtifact;
use crate::http::Responder;
use crate::telemetry::ModelStats;

/// Tuning for the predict coalescer.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceConfig {
    /// Longest a leader holds a batch open waiting for merge partners.
    /// Zero disables coalescing entirely (every request runs solo).
    pub window: Duration,
    /// A batch flushes as soon as it holds this many rows; requests at
    /// least this large never coalesce (they already amortize dispatch).
    pub max_rows: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            window: Duration::from_micros(200),
            max_rows: 512,
        }
    }
}

/// Monotonic counters describing coalescer behaviour (reported by
/// `GET /healthz`).
#[derive(Debug, Default)]
pub struct CoalesceStats {
    batches: AtomicU64,
    merged_requests: AtomicU64,
    solo_requests: AtomicU64,
    flush_full: AtomicU64,
    flush_timeout: AtomicU64,
    flush_drained: AtomicU64,
}

/// A serializable snapshot of [`CoalesceStats`].
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoalesceSnapshot {
    /// Batches flushed through the merged path (including ones whose
    /// window expired with a single participant).
    pub batches: u64,
    /// Requests answered out of batches that actually merged (≥ 2
    /// participants) — zero here means no two requests ever shared a
    /// batch.
    pub merged_requests: u64,
    /// Requests executed alone: coalescing disabled, batch too large, no
    /// concurrency to merge with, or a window that expired partnerless.
    pub solo_requests: u64,
    /// Batches flushed because they reached `max_rows`.
    pub flush_full: u64,
    /// Batches flushed because the merge window expired.
    pub flush_timeout: u64,
    /// Batches flushed early because the executor queue drained.
    pub flush_drained: u64,
}

impl CoalesceStats {
    /// Current counter values.
    pub fn snapshot(&self) -> CoalesceSnapshot {
        CoalesceSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            merged_requests: self.merged_requests.load(Ordering::Relaxed),
            solo_requests: self.solo_requests.load(Ordering::Relaxed),
            flush_full: self.flush_full.load(Ordering::Relaxed),
            flush_timeout: self.flush_timeout.load(Ordering::Relaxed),
            flush_drained: self.flush_drained.load(Ordering::Relaxed),
        }
    }
}

/// One validated predict request waiting for execution: its flattened
/// row-major codes, arrival time (for per-request latency reporting) and
/// reply handle.
#[derive(Debug)]
pub struct PendingPredict {
    /// Row-major codes, already validated/encoded against the contract.
    pub rows: Vec<u32>,
    /// When the request entered the handler.
    pub start: Instant,
    /// Whether this request asked for per-row tier confidence
    /// (`?explain_tiers=1`); carried per participant so coalesced partners
    /// with different flags each get the response shape they asked for.
    pub explain_tiers: bool,
    /// Where its response goes.
    pub responder: Responder,
    /// `Some` marks a **mirrored** part from the rollout plane's shadow
    /// lane and holds the incumbent's labels for its rows: the rows are a
    /// copy of live traffic the incumbent already answered, the responder
    /// is detached (its receiver dropped), and after execution the labels
    /// are scored against these instead of being sent anywhere. Real
    /// requests carry `None`.
    pub shadow: Option<Vec<bool>>,
}

/// A flushed batch the leader must execute: every participant resolved
/// `artifact`, and `parts` are in arrival order.
#[derive(Debug)]
pub struct Batch {
    /// The artifact every participant resolved.
    pub artifact: Arc<ModelArtifact>,
    /// Participants in arrival order.
    pub parts: Vec<PendingPredict>,
    why: FlushCause,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushCause {
    Full,
    Timeout,
    Drained,
}

/// What [`Coalescer::submit`] decided.
#[derive(Debug)]
pub enum Submitted {
    /// The caller is the batch's leader; execute `Batch` and answer every
    /// participant.
    Flush(Batch),
    /// The rows joined an open batch; its leader will answer. Return at
    /// once — the executor is free.
    Joined,
    /// Coalescing does not apply; the caller runs this request solo.
    Solo(PendingPredict),
}

/// An open-or-idle merge point for one resolved model key; a field of the
/// model's [`ModelStats`] cell.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    state: Mutex<LaneState>,
    joined: Condvar,
}

#[derive(Debug, Default)]
struct LaneState {
    open: Option<OpenBatch>,
    /// Consecutive windows this lane's leaders waited out without a single
    /// partner arriving. The queue gauge counts pending *predict* jobs but
    /// not which model they target, so steady interleaved traffic against
    /// two different models (or a stream of large never-merging batches)
    /// would otherwise make each lane's leader burn a full window for
    /// partners that cannot exist. Past [`LONELY_LEAD_THRESHOLD`] the lane
    /// mostly stops leading (runs solo), retrying one window every
    /// [`LONELY_RETRY_EVERY`] requests; the first real merge resets it to
    /// fully eager.
    lonely_streak: u32,
    /// Solo requests skipped while damped (drives the periodic retry).
    damped_skips: u32,
}

#[derive(Debug)]
struct OpenBatch {
    artifact: Arc<ModelArtifact>,
    parts: Vec<PendingPredict>,
    total_rows: usize,
    d: usize,
}

/// The cross-request predict coalescer (see module docs).
#[derive(Debug)]
pub struct Coalescer {
    config: CoalesceConfig,
    /// Behaviour counters. Shared: the server hands in the block owned by
    /// its `Telemetry` handle so `/healthz`, `/v1/stats` and `/metrics`
    /// all read the same accounting.
    pub stats: Arc<CoalesceStats>,
}

/// Leader wake-up cadence while holding a batch open: short enough to
/// notice `queue_depth` draining promptly, long enough that a 200 µs
/// window costs only a handful of wake-ups.
const WAIT_SLICE: Duration = Duration::from_micros(64);

/// Consecutive partnerless window timeouts after which a lane stops
/// leading (requests run solo instead of waiting)...
const LONELY_LEAD_THRESHOLD: u32 = 4;

/// ...retrying one exploratory window per this many damped solo requests,
/// so a lane recovers promptly once real concurrency returns while the
/// steady-state overhead of a stuck queue gauge stays ≤ one window per
/// `LONELY_RETRY_EVERY` requests.
const LONELY_RETRY_EVERY: u32 = 16;

impl Coalescer {
    /// A coalescer with the given tuning, recording into `stats`
    /// (telemetry's block, in the server).
    pub fn new(config: CoalesceConfig, stats: Arc<CoalesceStats>) -> Self {
        Coalescer { config, stats }
    }

    /// Whether any merging can happen at all.
    pub fn enabled(&self) -> bool {
        !self.config.window.is_zero() && self.config.max_rows > 1
    }

    /// The merge window a leader would hold open for a model whose
    /// observed sequential cost is `ewma_ns_per_row`: never longer than
    /// the configured window, and never (much) longer than a full batch of
    /// that model costs to execute — waiting past that point adds more
    /// latency than the merge can save.
    pub fn effective_window(&self, ewma_ns_per_row: Option<f64>) -> Duration {
        let configured = self.config.window;
        let Some(ns) = ewma_ns_per_row else {
            return configured;
        };
        if !ns.is_finite() || ns <= 0.0 {
            return configured;
        }
        let full_batch_ns = (ns * self.config.max_rows as f64).min(1e15);
        configured.min(Duration::from_nanos(full_batch_ns as u64).max(configured / 16))
    }

    /// Routes one validated request: merge into an open batch, lead a new
    /// one, or run solo. May block for up to the effective window (leader
    /// path only). `cell` is the resolved model's cell: its lane is the
    /// merge point and its EWMA sizes the window.
    pub fn submit(
        &self,
        cell: &ModelStats,
        artifact: &Arc<ModelArtifact>,
        d: usize,
        part: PendingPredict,
    ) -> Submitted {
        let n = part.rows.len() / d.max(1);
        if !self.enabled() || n >= self.config.max_rows {
            self.stats.solo_requests.fetch_add(1, Ordering::Relaxed);
            return Submitted::Solo(part);
        }
        let lane = &cell.lane;
        let mut state = lane.state.lock().expect("coalescer lane poisoned");
        if let Some(open) = state.open.as_mut() {
            // An identity (not just key) match: a hot-swap racing this
            // request could have replaced the artifact under the same key,
            // and two different models must never share a batch.
            if Arc::ptr_eq(&open.artifact, artifact)
                && open.d == d
                && open.total_rows + n <= self.config.max_rows
            {
                open.total_rows += n;
                open.parts.push(part);
                drop(state);
                // Wake the leader: the batch may just have become full.
                lane.joined.notify_all();
                return Submitted::Joined;
            }
            // Full or mismatched batch: run solo rather than serialize
            // behind it.
            drop(state);
            self.stats.solo_requests.fetch_add(1, Ordering::Relaxed);
            return Submitted::Solo(part);
        }
        if part.responder.queue_depth() <= 1 {
            // Nothing else is queued or running: there is nobody to merge
            // with, so waiting would be pure added latency.
            self.stats.solo_requests.fetch_add(1, Ordering::Relaxed);
            return Submitted::Solo(part);
        }
        if state.lonely_streak >= LONELY_LEAD_THRESHOLD {
            // The gauge says predicts are pending but recent windows all
            // expired empty — they must target other models (or be large
            // never-merging batches). Run solo, with a periodic
            // exploratory lead so real concurrency is noticed.
            state.damped_skips += 1;
            if state.damped_skips >= LONELY_RETRY_EVERY {
                state.damped_skips = 0;
                state.lonely_streak = LONELY_LEAD_THRESHOLD - 1; // one retry
            }
            drop(state);
            self.stats.solo_requests.fetch_add(1, Ordering::Relaxed);
            return Submitted::Solo(part);
        }
        // Become the leader: open the batch and hold it for the window.
        state.open = Some(OpenBatch {
            artifact: Arc::clone(artifact),
            d,
            total_rows: n,
            parts: vec![part],
        });
        let deadline = Instant::now() + self.effective_window(cell.ns_per_row());
        let why = loop {
            let open = state.open.as_ref().expect("leader owns the open batch");
            if open.total_rows >= self.config.max_rows {
                break FlushCause::Full;
            }
            // The leader's own job is still counted in the gauge, so ≤ 1
            // means the executor queue drained: flush now rather than
            // wait out the window for partners that cannot exist.
            if open.parts[0].responder.queue_depth() <= 1 {
                break FlushCause::Drained;
            }
            let now = Instant::now();
            if now >= deadline {
                break FlushCause::Timeout;
            }
            let (next, _timeout) = lane
                .joined
                .wait_timeout(state, (deadline - now).min(WAIT_SLICE))
                .expect("coalescer lane poisoned");
            state = next;
        };
        let open = state.open.take().expect("leader owns the open batch");
        // Partner bookkeeping for the lonely-lane damping (see LaneState).
        if open.parts.len() > 1 {
            state.lonely_streak = 0;
            state.damped_skips = 0;
        } else if why == FlushCause::Timeout {
            state.lonely_streak = state.lonely_streak.saturating_add(1);
        }
        drop(state);
        match why {
            FlushCause::Full => self.stats.flush_full.fetch_add(1, Ordering::Relaxed),
            FlushCause::Timeout => self.stats.flush_timeout.fetch_add(1, Ordering::Relaxed),
            FlushCause::Drained => self.stats.flush_drained.fetch_add(1, Ordering::Relaxed),
        };
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        if open.parts.len() > 1 {
            self.stats
                .merged_requests
                .fetch_add(open.parts.len() as u64, Ordering::Relaxed);
        } else {
            // A batch nobody joined is solo execution with extra steps —
            // counting it as "merged" would let a broken coalescer look
            // healthy (and the CI probe asserts merged_requests > 0).
            self.stats.solo_requests.fetch_add(1, Ordering::Relaxed);
        }
        Submitted::Flush(Batch {
            artifact: open.artifact,
            parts: open.parts,
            why,
        })
    }
}

impl Batch {
    /// Wraps a single pending part as a one-participant batch, so solo and
    /// mirrored executions flow through the same `run_batch` path as real
    /// coalesced flushes (one spot owns panic containment, latency
    /// accounting and shadow scoring).
    pub fn solo(artifact: Arc<ModelArtifact>, part: PendingPredict) -> Batch {
        Batch {
            artifact,
            parts: vec![part],
            why: FlushCause::Drained,
        }
    }

    /// Why the leader flushed (exposed for tests and logging).
    pub fn flushed_by_timeout(&self) -> bool {
        self.why == FlushCause::Timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests::toy_artifact;
    use crate::http::Responder;

    fn part(
        rows: Vec<u32>,
        depth: usize,
    ) -> (
        PendingPredict,
        std::sync::mpsc::Receiver<crate::http::Response>,
    ) {
        let (responder, rx) = Responder::direct_with_depth(depth);
        (
            PendingPredict {
                rows,
                start: Instant::now(),
                explain_tiers: false,
                responder,
                shadow: None,
            },
            rx,
        )
    }

    #[test]
    fn disabled_and_oversized_requests_run_solo() {
        let artifact = Arc::new(toy_artifact("solo", 1));
        let cell = &ModelStats::default();
        let off = Coalescer::new(
            CoalesceConfig {
                window: Duration::ZERO,
                max_rows: 0,
            },
            Arc::default(),
        );
        assert!(!off.enabled());
        let (p, _rx) = part(vec![0, 0], 8);
        assert!(matches!(
            off.submit(cell, &artifact, 2, p),
            Submitted::Solo(_)
        ));

        let on = Coalescer::new(
            CoalesceConfig {
                window: Duration::from_millis(50),
                max_rows: 4,
            },
            Arc::default(),
        );
        // 4 rows ≥ max_rows: big enough on its own, no merge.
        let (p, _rx) = part(vec![0; 8], 8);
        assert!(matches!(
            on.submit(cell, &artifact, 2, p),
            Submitted::Solo(_)
        ));
        assert_eq!(on.stats.snapshot().solo_requests, 1);
    }

    #[test]
    fn lone_requests_skip_the_window_entirely() {
        let artifact = Arc::new(toy_artifact("lone", 1));
        let cell = &ModelStats::default();
        let c = Coalescer::new(
            CoalesceConfig {
                window: Duration::from_secs(5), // would be very visible
                max_rows: 512,
            },
            Arc::default(),
        );
        let (p, _rx) = part(vec![0, 0], 1); // queue depth 1: nothing pending
        let t0 = Instant::now();
        assert!(matches!(
            c.submit(cell, &artifact, 2, p),
            Submitted::Solo(_)
        ));
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "a lone request must not wait for merge partners"
        );
    }

    #[test]
    fn window_timeout_flushes_a_lonely_leader() {
        let artifact = Arc::new(toy_artifact("timeout", 1));
        let cell = &ModelStats::default();
        let c = Coalescer::new(
            CoalesceConfig {
                window: Duration::from_millis(30),
                max_rows: 512,
            },
            Arc::default(),
        );
        // Depth 2 claims another request is pending; it never joins, so
        // the leader flushes alone at the window.
        let (p, _rx) = part(vec![0, 0], 2);
        let t0 = Instant::now();
        let Submitted::Flush(batch) = c.submit(cell, &artifact, 2, p) else {
            panic!("expected leader flush");
        };
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "waited the window"
        );
        assert!(batch.flushed_by_timeout());
        assert_eq!(batch.parts.len(), 1);
        assert_eq!(c.stats.snapshot().flush_timeout, 1);
    }

    #[test]
    fn followers_merge_into_the_leaders_batch_until_full() {
        let artifact = Arc::new(toy_artifact("merge", 1));
        let cell = &ModelStats::default();
        let c = Arc::new(Coalescer::new(
            CoalesceConfig {
                window: Duration::from_secs(10), // flush must come from `Full`
                max_rows: 4,
            },
            Arc::default(),
        ));
        std::thread::scope(|scope| {
            let leader = {
                let c = Arc::clone(&c);
                let artifact = Arc::clone(&artifact);
                scope.spawn(move || {
                    let (p, _rx) = part(vec![0, 0], 4);
                    c.submit(cell, &artifact, 2, p)
                })
            };
            // Give the leader time to open the batch, then fill it.
            std::thread::sleep(Duration::from_millis(50));
            for _ in 0..3 {
                let (p, _rx) = part(vec![1, 1], 4);
                match c.submit(cell, &artifact, 2, p) {
                    Submitted::Joined => {}
                    other => panic!("expected follower join, got {other:?}"),
                }
            }
            let Submitted::Flush(batch) = leader.join().unwrap() else {
                panic!("leader must flush");
            };
            assert_eq!(batch.parts.len(), 4);
            assert!(!batch.flushed_by_timeout(), "flushed because full");
        });
        let stats = c.stats.snapshot();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.merged_requests, 4);
        assert_eq!(stats.flush_full, 1);
    }

    #[test]
    fn different_artifacts_never_share_a_batch() {
        // Same key, different identity (a hot-swap race): the follower
        // must fall back to solo, not merge into the stale batch.
        let a1 = Arc::new(toy_artifact("same", 1));
        let cell = &ModelStats::default();
        let a2 = Arc::new(toy_artifact("same", 1));
        let c = Arc::new(Coalescer::new(
            CoalesceConfig {
                window: Duration::from_millis(200),
                max_rows: 8,
            },
            Arc::default(),
        ));
        std::thread::scope(|scope| {
            let leader = {
                let c = Arc::clone(&c);
                let a1 = Arc::clone(&a1);
                scope.spawn(move || {
                    let (p, _rx) = part(vec![0, 0], 2);
                    c.submit(cell, &a1, 2, p)
                })
            };
            std::thread::sleep(Duration::from_millis(50));
            let (p, _rx) = part(vec![1, 1], 2);
            assert!(
                matches!(c.submit(cell, &a2, 2, p), Submitted::Solo(_)),
                "identity mismatch must not merge"
            );
            assert!(matches!(leader.join().unwrap(), Submitted::Flush(_)));
        });
    }

    #[test]
    fn lonely_lanes_damp_to_solo_and_recover_on_a_real_merge() {
        let artifact = Arc::new(toy_artifact("damp", 1));
        let cell = &ModelStats::default();
        let c = Coalescer::new(
            CoalesceConfig {
                window: Duration::from_millis(15),
                max_rows: 512,
            },
            Arc::default(),
        );
        // A depth gauge stuck at 2 (e.g. steady predict traffic against a
        // different model that can never merge here): the first
        // few requests each lead and wait out the window...
        for i in 0..LONELY_LEAD_THRESHOLD {
            let (p, _rx) = part(vec![0, 0], 2);
            assert!(
                matches!(c.submit(cell, &artifact, 2, p), Submitted::Flush(_)),
                "request {i} should still lead"
            );
        }
        // ...after which the lane stops burning windows: solo, and fast.
        let t0 = Instant::now();
        let mut solos = 0;
        for _ in 0..LONELY_RETRY_EVERY - 1 {
            let (p, _rx) = part(vec![0, 0], 2);
            if matches!(c.submit(cell, &artifact, 2, p), Submitted::Solo(_)) {
                solos += 1;
            }
        }
        assert_eq!(solos, LONELY_RETRY_EVERY - 1, "damped lane runs solo");
        assert!(
            t0.elapsed() < Duration::from_millis(10),
            "damped requests must not wait: {:?}",
            t0.elapsed()
        );
        // The periodic exploratory lead comes back around...
        let retried = (0..3).any(|_| {
            let (p, _rx) = part(vec![0, 0], 2);
            matches!(c.submit(cell, &artifact, 2, p), Submitted::Flush(_))
        });
        assert!(retried, "damping must keep probing for concurrency");
        // ...and one real merge resets the lane to fully eager. (The
        // exploratory lead above timed out lonely, so the lane is damped
        // again: drain a full retry cycle first so the next submit leads.)
        for _ in 0..LONELY_RETRY_EVERY {
            let (p, _rx) = part(vec![0, 0], 2);
            let _ = c.submit(cell, &artifact, 2, p);
        }
        std::thread::scope(|scope| {
            let leader = {
                let c = &c;
                let artifact = Arc::clone(&artifact);
                scope.spawn(move || {
                    let (p, _rx) = part(vec![0, 0], 2);
                    c.submit(cell, &artifact, 2, p)
                })
            };
            std::thread::sleep(Duration::from_millis(5));
            let (p, _rx) = part(vec![1, 1], 2);
            // May join the leader's batch (or miss the window and lead a
            // lonely batch itself; either way the leader's flush counts).
            let _ = c.submit(cell, &artifact, 2, p);
            leader.join().unwrap();
        });
        let (p, _rx) = part(vec![0, 0], 2);
        assert!(
            matches!(c.submit(cell, &artifact, 2, p), Submitted::Flush(_)),
            "a successful merge resets the damping"
        );
    }

    #[test]
    fn effective_window_tracks_the_models_cost() {
        let c = Coalescer::new(
            CoalesceConfig {
                window: Duration::from_micros(200),
                max_rows: 512,
            },
            Arc::default(),
        );
        // Unknown model: full window.
        assert_eq!(c.effective_window(None), Duration::from_micros(200));
        // Expensive model (10 µs/row): a full batch dwarfs the window.
        assert_eq!(
            c.effective_window(Some(10_000.0)),
            Duration::from_micros(200)
        );
        // Cheap model (20 ns/row): the window collapses to ~a full batch
        // (512 × 20 ns ≈ 10 µs) — waiting longer than the work costs is
        // pure latency.
        let cheap = c.effective_window(Some(20.0));
        assert!(cheap <= Duration::from_micros(13), "{cheap:?}");
        assert!(cheap >= Duration::from_micros(200) / 16, "{cheap:?}");
        // Garbage observations fall back to the configured window.
        assert_eq!(
            c.effective_window(Some(f64::NAN)),
            Duration::from_micros(200)
        );
        assert_eq!(c.effective_window(Some(-1.0)), Duration::from_micros(200));
    }
}
