//! The `Telemetry` handle: per-endpoint and per-model counters and latency
//! histograms, the recent-event ring, and the optional durable event log.
//!
//! Cloning `Telemetry` is an `Arc` bump; every recording path is lock-free
//! or read-lock-only in steady state. The per-model cell ([`ModelStats`])
//! is the one piece of per-model state on the predict path: counters and
//! histogram, the per-row cost EWMA the coalescer's window reads, and the
//! coalescer's merge lane. The cell map is a `RwLock<HashMap>` taken for
//! read on every hit, with an occasional write-locked insert for first
//! contact and a garbage-collection sweep once the map grows past a
//! threshold.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use hamlet_ml::cascade::MAX_TIERS;

use crate::coalesce::{CoalesceStats, Lane};
use crate::error::Result;

use super::eventlog::{Event, EventKind, EventLog};
use super::hist::{HistogramSnapshot, LatencyHistogram};

/// Recent events kept in memory for `/v1/stats` regardless of whether a
/// durable log is attached.
const EVENT_RING: usize = 64;
/// When a first-contact insert finds this many model cells, the unheld
/// cells without traffic are pruned first. Keys are `name@version`, so a
/// periodically retrained model would otherwise leak one cell per probed
/// version for the process lifetime.
const MODEL_CELLS_GC_THRESHOLD: usize = 256;
/// EWMA smoothing factor for per-row latency observations.
pub(crate) const LATENCY_EWMA_ALPHA: f64 = 0.2;
/// `last_hit_ms` sentinel: never hit since boot.
const NEVER: u64 = u64::MAX;

/// The served API surface, as fixed telemetry dimensions: one histogram
/// and counter pair per endpoint, no allocation to attribute a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Predict,
    Explain,
    Advise,
    Train,
    Models,
    Demote,
    /// Streaming labeled-row ingest (`/v1/observe`).
    Observe,
    /// Rollout control surface (`/v1/rollout/*`).
    Rollout,
    Healthz,
    Stats,
    Metrics,
    /// Anything unrouted (404s, typos, probes).
    Other,
}

impl Endpoint {
    pub const COUNT: usize = 12;
    pub const ALL: [Endpoint; Endpoint::COUNT] = [
        Endpoint::Predict,
        Endpoint::Explain,
        Endpoint::Advise,
        Endpoint::Train,
        Endpoint::Models,
        Endpoint::Demote,
        Endpoint::Observe,
        Endpoint::Rollout,
        Endpoint::Healthz,
        Endpoint::Stats,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    /// Classifies a request path (method-agnostic: a GET to `/v1/predict`
    /// still counts against the predict dimension, as a 405).
    pub fn of(path: &str) -> Endpoint {
        match path {
            "/v1/predict" => Endpoint::Predict,
            "/v1/explain" => Endpoint::Explain,
            "/v1/advise" => Endpoint::Advise,
            "/v1/train" => Endpoint::Train,
            "/v1/models" => Endpoint::Models,
            "/v1/models/demote" => Endpoint::Demote,
            "/v1/observe" => Endpoint::Observe,
            "/healthz" => Endpoint::Healthz,
            "/v1/stats" => Endpoint::Stats,
            "/metrics" => Endpoint::Metrics,
            p if p.starts_with("/v1/rollout") => Endpoint::Rollout,
            _ => Endpoint::Other,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Predict => "predict",
            Endpoint::Explain => "explain",
            Endpoint::Advise => "advise",
            Endpoint::Train => "train",
            Endpoint::Models => "models",
            Endpoint::Demote => "demote",
            Endpoint::Observe => "observe",
            Endpoint::Rollout => "rollout",
            Endpoint::Healthz => "healthz",
            Endpoint::Stats => "stats",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Counters and latency for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointStats {
    hist: LatencyHistogram,
    requests: AtomicU64,
    errors: AtomicU64,
    /// 500s caused by a handler panic (the dropped-`Responder` path), kept
    /// distinct from ordinary errors: the rollout scorer must not count a
    /// crashed execution as a disagreement — or an agreement.
    panics: AtomicU64,
}

impl EndpointStats {
    /// Records one completed request.
    #[inline]
    pub fn observe(&self, spent: Duration, error: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.hist.record(spent);
    }

    /// Records one request whose handler panicked (delivered as a 500 by
    /// the dropped `Responder`). Counts as a request *and* an error, plus
    /// the distinct panic tag.
    #[inline]
    pub fn observe_panic(&self, spent: Duration) {
        self.panics.fetch_add(1, Ordering::Relaxed);
        self.observe(spent, true);
    }

    pub fn snapshot(&self) -> EndpointSnapshot {
        EndpointSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            hist: self.hist.snapshot(),
        }
    }
}

/// Point-in-time copy of one endpoint's stats.
#[derive(Debug, Clone)]
pub struct EndpointSnapshot {
    pub requests: u64,
    pub errors: u64,
    /// Of `errors`, how many were handler panics.
    pub panics: u64,
    pub hist: HistogramSnapshot,
}

/// Everything the server keeps per model key: counters and latency, the
/// last-hit timestamp the auto-demoter reads, the per-row cost EWMA and
/// the coalescer's merge lane. A request resolves it once and passes it
/// down the whole predict path.
#[derive(Debug)]
pub struct ModelStats {
    hist: LatencyHistogram,
    requests: AtomicU64,
    merged_requests: AtomicU64,
    rows: AtomicU64,
    /// Milliseconds since the telemetry epoch at the last hit; [`NEVER`]
    /// until the first one.
    last_hit_ms: AtomicU64,
    /// Rows answered per cascade tier (fixed slots so recording is a few
    /// unconditional atomics, no allocation). All zero for single-model
    /// artifacts.
    tier_rows: [AtomicU64; MAX_TIERS],
    /// Rows this version scored in shadow (mirrored traffic, responses
    /// discarded).
    shadow_rows: AtomicU64,
    /// Of `shadow_rows`, how many agreed with the incumbent's label.
    shadow_agree_rows: AtomicU64,
    /// Shadow rows skipped because the mirrored execution panicked — kept
    /// out of both `shadow_rows` and the agreement tally.
    shadow_skipped_rows: AtomicU64,
    /// EWMA of observed sequential predict cost in ns/row, as f64 bits
    /// (CAS-updated); zero until the first observation.
    ns_per_row: AtomicU64,
    /// The coalescer's merge point for this model.
    pub(crate) lane: Lane,
}

impl Default for ModelStats {
    fn default() -> Self {
        ModelStats {
            hist: LatencyHistogram::new(),
            requests: AtomicU64::new(0),
            merged_requests: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            last_hit_ms: AtomicU64::new(NEVER),
            tier_rows: std::array::from_fn(|_| AtomicU64::new(0)),
            shadow_rows: AtomicU64::new(0),
            shadow_agree_rows: AtomicU64::new(0),
            shadow_skipped_rows: AtomicU64::new(0),
            ns_per_row: AtomicU64::new(0),
            lane: Lane::default(),
        }
    }
}

impl ModelStats {
    /// Records one answered predict request against this model.
    #[inline]
    pub fn record(&self, spent: Duration, rows: u64, merged: bool, now_ms: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if merged {
            self.merged_requests.fetch_add(1, Ordering::Relaxed);
        }
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.last_hit_ms.store(now_ms, Ordering::Relaxed);
        self.hist.record(spent);
    }

    /// Folds one tiered (cascade) execution's per-tier row histogram in.
    #[inline]
    pub fn record_tiers(&self, hist: &[u64; MAX_TIERS]) {
        for (cell, &n) in self.tier_rows.iter().zip(hist) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Folds one shadow-scored batch in: `rows` mirrored rows of which
    /// `agree` matched the incumbent's labels.
    #[inline]
    pub fn record_shadow(&self, rows: u64, agree: u64) {
        self.shadow_rows.fetch_add(rows, Ordering::Relaxed);
        self.shadow_agree_rows.fetch_add(agree, Ordering::Relaxed);
    }

    /// Records `rows` mirrored rows dropped from shadow scoring because
    /// their execution panicked.
    #[inline]
    pub fn record_shadow_skipped(&self, rows: u64) {
        self.shadow_skipped_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Current per-row cost EWMA (ns/row), if any observation was recorded.
    pub fn ns_per_row(&self) -> Option<f64> {
        let bits = self.ns_per_row.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }

    /// Folds one executed batch's wall-clock ÷ rows into the EWMA: the
    /// first observation seeds it, later ones blend in, and non-finite or
    /// non-positive values are ignored.
    pub fn observe_ns_per_row(&self, ns_per_row: f64) {
        if !ns_per_row.is_finite() || ns_per_row <= 0.0 {
            return;
        }
        let mut cur = self.ns_per_row.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let next = if old == 0.0 {
                ns_per_row
            } else {
                LATENCY_EWMA_ALPHA * ns_per_row + (1.0 - LATENCY_EWMA_ALPHA) * old
            };
            match self.ns_per_row.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    pub fn snapshot(&self) -> ModelSnapshot {
        let last = self.last_hit_ms.load(Ordering::Relaxed);
        ModelSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            merged_requests: self.merged_requests.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            last_hit_ms: (last != NEVER).then_some(last),
            tier_rows: std::array::from_fn(|i| self.tier_rows[i].load(Ordering::Relaxed)),
            shadow_rows: self.shadow_rows.load(Ordering::Relaxed),
            shadow_agree_rows: self.shadow_agree_rows.load(Ordering::Relaxed),
            shadow_skipped_rows: self.shadow_skipped_rows.load(Ordering::Relaxed),
            hist: self.hist.snapshot(),
        }
    }
}

/// Point-in-time copy of one model's stats.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    pub requests: u64,
    pub merged_requests: u64,
    pub rows: u64,
    pub last_hit_ms: Option<u64>,
    /// Rows answered per cascade tier; all zero for single-model artifacts.
    pub tier_rows: [u64; MAX_TIERS],
    /// Rows scored in shadow, and how many of them agreed with the
    /// incumbent. Zero outside a rollout.
    pub shadow_rows: u64,
    pub shadow_agree_rows: u64,
    /// Shadow rows dropped because the mirrored execution panicked.
    pub shadow_skipped_rows: u64,
    pub hist: HistogramSnapshot,
}

impl ModelSnapshot {
    /// Live shadow agreement ratio, when any shadow rows were scored.
    pub fn shadow_agreement(&self) -> Option<f64> {
        (self.shadow_rows > 0).then(|| self.shadow_agree_rows as f64 / self.shadow_rows as f64)
    }

    /// Whether this version received mirrored traffic, scored or skipped.
    pub fn shadowed(&self) -> bool {
        self.shadow_rows > 0 || self.shadow_skipped_rows > 0
    }

    /// Rows answered per cascade tier, trimmed after the deepest tier that
    /// saw traffic; `None` when no tiered execution touched this model.
    pub fn cascade_tier_rows(&self) -> Option<&[u64]> {
        let deepest = self.tier_rows.iter().rposition(|&n| n > 0)?;
        Some(&self.tier_rows[..=deepest])
    }

    /// Fraction of cascade-served rows that escalated past tier 0.
    pub fn escalation_ratio(&self) -> Option<f64> {
        let total: u64 = self.tier_rows.iter().sum();
        (total > 0).then(|| self.tier_rows[1..].iter().sum::<u64>() as f64 / total as f64)
    }
}

#[derive(Debug)]
struct TelemetryInner {
    epoch: Instant,
    coalesce: Arc<CoalesceStats>,
    endpoints: [EndpointStats; Endpoint::COUNT],
    models: RwLock<HashMap<String, Arc<ModelStats>>>,
    recent: Mutex<VecDeque<Event>>,
    log: Option<EventLog>,
}

/// The process-wide telemetry handle. Clone freely; all clones share one
/// set of counters.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Telemetry {
    fn build(log: Option<EventLog>) -> Telemetry {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                epoch: Instant::now(),
                coalesce: Arc::new(CoalesceStats::default()),
                endpoints: std::array::from_fn(|_| EndpointStats::default()),
                models: RwLock::new(HashMap::new()),
                recent: Mutex::new(VecDeque::with_capacity(EVENT_RING)),
                log,
            }),
        }
    }

    /// Metrics only — events stay in the in-memory ring. What tests and
    /// embedded uses want.
    pub fn in_memory() -> Telemetry {
        Telemetry::build(None)
    }

    /// Metrics plus a durable event log under `dir` (created on demand,
    /// torn tail recovered).
    pub fn with_event_log(dir: &std::path::Path) -> Result<Telemetry> {
        Ok(Telemetry::build(Some(EventLog::open(dir)?)))
    }

    /// The coalescer counter block this telemetry owns. Hand the same
    /// `Arc` to [`Coalescer::new`](crate::coalesce::Coalescer::new) so
    /// `/healthz`, `/v1/stats` and `/metrics` all read one source of truth.
    pub fn coalesce_stats(&self) -> Arc<CoalesceStats> {
        Arc::clone(&self.inner.coalesce)
    }

    /// The stats cell for one endpoint dimension.
    #[inline]
    pub fn endpoint(&self, e: Endpoint) -> &EndpointStats {
        &self.inner.endpoints[e.index()]
    }

    /// The cell for a model key, created on first contact. Callers on the
    /// hot path resolve this once per request (or batch) and reuse the
    /// `Arc`.
    pub fn model(&self, key: &str) -> Arc<ModelStats> {
        if let Some(cell) = self.inner.models.read().expect("model stats lock").get(key) {
            return Arc::clone(cell);
        }
        let mut map = self.inner.models.write().expect("model stats lock");
        if map.len() >= MODEL_CELLS_GC_THRESHOLD {
            // Drop cells nobody else holds *and* that recorded nothing:
            // stats for keys that were only probed. Cells with traffic are
            // kept so restarting clients cannot wipe history mid-scrape,
            // and a coalescer leader holds its cell's `Arc` while its batch
            // is open, so a sweep never splits a batch.
            map.retain(|_, cell| {
                Arc::strong_count(cell) > 1 || cell.requests.load(Ordering::Relaxed) > 0
            });
        }
        Arc::clone(map.entry(key.to_string()).or_default())
    }

    /// Milliseconds since this telemetry was created (the monotonic clock
    /// behind `last_hit_ms`).
    #[inline]
    pub fn now_ms(&self) -> u64 {
        self.inner.epoch.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    pub fn uptime(&self) -> Duration {
        self.inner.epoch.elapsed()
    }

    /// How long since `key` last served a predict — time since boot when it
    /// never has. This is what the auto-demoter compares against its idle
    /// threshold.
    pub fn idle_for(&self, key: &str) -> Duration {
        let now = self.now_ms();
        let last = self
            .inner
            .models
            .read()
            .expect("model stats lock")
            .get(key)
            .map(|cell| cell.last_hit_ms.load(Ordering::Relaxed));
        match last {
            Some(ms) if ms != NEVER => Duration::from_millis(now.saturating_sub(ms)),
            _ => Duration::from_millis(now),
        }
    }

    /// Appends an audit event: always into the in-memory ring, and onto
    /// the durable log when one is attached. Disk trouble is reported on
    /// stderr rather than propagated — telemetry must never fail the
    /// operation it is describing.
    pub fn record_event(&self, kind: EventKind, model: &str, detail: &str) {
        let event = Event::now(kind, model, detail);
        if let Some(log) = &self.inner.log {
            if let Err(e) = log.append(&event) {
                eprintln!("event log append failed: {e}");
            }
        }
        let mut ring = self.inner.recent.lock().expect("event ring lock");
        if ring.len() >= EVENT_RING {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// The in-memory event tail, oldest first.
    pub fn recent_events(&self) -> Vec<Event> {
        self.inner
            .recent
            .lock()
            .expect("event ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// The durable log, when attached.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.inner.log.as_ref()
    }

    /// Snapshots every endpoint dimension, in [`Endpoint::ALL`] order.
    pub fn endpoints_snapshot(&self) -> Vec<(Endpoint, EndpointSnapshot)> {
        Endpoint::ALL
            .iter()
            .map(|&e| (e, self.endpoint(e).snapshot()))
            .collect()
    }

    /// Snapshots every model cell, sorted by key for stable output.
    pub fn models_snapshot(&self) -> Vec<(String, ModelSnapshot)> {
        let mut rows: Vec<(String, ModelSnapshot)> = self
            .inner
            .models
            .read()
            .expect("model stats lock")
            .iter()
            .map(|(k, cell)| (k.clone(), cell.snapshot()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_classification_covers_the_api() {
        assert_eq!(Endpoint::of("/v1/predict"), Endpoint::Predict);
        assert_eq!(Endpoint::of("/metrics"), Endpoint::Metrics);
        assert_eq!(Endpoint::of("/nope"), Endpoint::Other);
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn model_cells_accumulate_and_survive_gc() {
        let t = Telemetry::in_memory();
        let cell = t.model("m@1");
        cell.record(Duration::from_millis(2), 3, true, t.now_ms());
        cell.record(Duration::from_millis(4), 1, false, t.now_ms());
        drop(cell);
        // Flood with probed-but-idle keys to trigger the GC sweep.
        for i in 0..(MODEL_CELLS_GC_THRESHOLD + 8) {
            t.model(&format!("ghost-{i}"));
        }
        let rows = t.models_snapshot();
        let (_, snap) = rows.iter().find(|(k, _)| k == "m@1").expect("traffic kept");
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.merged_requests, 1);
        assert_eq!(snap.rows, 4);
        assert!(snap.last_hit_ms.is_some());
    }

    #[test]
    fn held_cells_survive_gc() {
        let t = Telemetry::in_memory();
        // Held with zero traffic, the way a coalescer leader holds its
        // cell while its batch is open.
        let held = t.model("m@1");
        for i in 0..(MODEL_CELLS_GC_THRESHOLD + 8) {
            t.model(&format!("ghost-{i}"));
        }
        assert!(Arc::ptr_eq(&held, &t.model("m@1")));
    }

    #[test]
    fn idle_for_tracks_last_hit() {
        let t = Telemetry::in_memory();
        // Untouched key: idle since boot.
        let idle_unknown = t.idle_for("never@1");
        assert!(idle_unknown <= t.uptime() + Duration::from_millis(1));
        t.model("hot@1")
            .record(Duration::from_micros(50), 1, false, t.now_ms());
        assert!(t.idle_for("hot@1") < Duration::from_secs(1));
    }

    #[test]
    fn event_ring_is_bounded() {
        let t = Telemetry::in_memory();
        for i in 0..(EVENT_RING + 10) {
            t.record_event(EventKind::Drift, "m@1", &format!("e{i}"));
        }
        let tail = t.recent_events();
        assert_eq!(tail.len(), EVENT_RING);
        assert_eq!(tail.last().unwrap().detail, format!("e{}", EVENT_RING + 9));
        assert_eq!(tail.first().unwrap().detail, "e10");
    }
}
