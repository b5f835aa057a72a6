//! Safe rollout plane: shadow → canary → promote with guardrails.
//!
//! The paper's verdict — avoid the KFK join — is only safe *inside* a
//! tuple-ratio envelope, and a freshly trained artifact carries no live
//! evidence that it behaves. This module makes version cutover earn its
//! way instead of happening instantly:
//!
//! ```text
//!            start                    guardrails clear        guardrails clear
//!   (held) ───────────▶ SHADOW ─────────────────────▶ CANARY ─────────────▶ promoted
//!   candidate           mirrored traffic,             slice of live           (adopt:
//!   registered          responses discarded,          traffic served          latest
//!   invisible           agreement + latency           for real                cut over)
//!                       scored vs incumbent              │
//!                           │                             │ any guardrail trips
//!                           └──────────────┬──────────────┘
//!                                          ▼
//!                                     ROLLED BACK
//!                        (demote + `Demote`/`Drift` audit events,
//!                         incumbent keeps serving throughout)
//! ```
//!
//! - **Shadow**: live `/v1/predict` batches against the incumbent are
//!   mirrored into the candidate's coalescer lane, after the real
//!   responses have been sent. The mirrored responses are discarded;
//!   per-row agreement with the incumbent and candidate latency accumulate
//!   in the candidate's [`ModelStats`](crate::telemetry::ModelStats), the
//!   same cell that holds that lane.
//! - **Canary**: a configurable percent of bare-name requests — selected
//!   by hashing the coalescer lane key with the row codes — is served by
//!   the candidate for real; the rest keeps shadow-scoring.
//! - **Auto-promote**: only when live agreement, canary error ratio and
//!   p99 clear the [`GuardrailConfig`] over minimum sample counts.
//! - **Auto-rollback**: the instant any guardrail trips, the candidate is
//!   demoted back to its lazy slot and the incumbent (which never stopped
//!   serving bare-name traffic) simply continues.
//!
//! Every transition is journaled to a dedicated CRC-framed [`EventLog`]
//! under `<artifact-dir>/rollout/`, so a server restart mid-rollout
//! resumes the state machine (with counters reset — live evidence does not
//! survive a restart, by design). Labeled production rows stream in via
//! `POST /v1/observe` into an [`ObserveStore`] (bounded ring + crash-safe
//! on-disk buffer reusing the event log's frame format); they feed both
//! warm-start candidate training (`train_incremental`) and the **drift
//! leg**: a timer-driven re-run of the paper's avoid-join decision rule
//! over live FK cardinalities, appending `Drift` audit events and
//! optionally freezing auto-promotion while the no-join artifact is
//! outside its safety envelope.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use hamlet_core::advisor::{advise_dims, Advice, DimStats};
use hamlet_ml::dataset::Provenance;

use crate::artifact::ModelArtifact;
use crate::container::crc32;
use crate::error::{Result, ServeError};
use crate::registry::ModelRegistry;
use crate::telemetry::eventlog::{scan_frames, write_frame};
use crate::telemetry::{Event, EventKind, EventLog, Telemetry};

/// Guardrails a candidate must clear to advance, and the knobs of the
/// drift advisor. All server-configurable (`hamlet-serve serve
/// --canary-slice --guardrail-*`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardrailConfig {
    /// Percent (0–100) of bare-name traffic the canary serves.
    pub canary_slice: u8,
    /// Minimum mirrored rows scored before shadow can graduate.
    pub min_shadow_rows: u64,
    /// Minimum canary-served requests before auto-promote.
    pub min_canary_requests: u64,
    /// Minimum live agreement with the incumbent (both phases).
    pub min_agreement: f64,
    /// Maximum canary error (panic-500) ratio.
    pub max_error_ratio: f64,
    /// Candidate p99 must stay within this multiple of the incumbent's.
    pub max_p99_ratio: f64,
    /// Freeze auto-promotion while the drift advisor reports the artifact
    /// outside its safety envelope.
    pub drift_freeze: bool,
    /// Minimum observed rows before a drift verdict is attempted.
    pub drift_min_rows: usize,
}

impl Default for GuardrailConfig {
    fn default() -> Self {
        Self {
            canary_slice: 10,
            min_shadow_rows: 200,
            min_canary_requests: 50,
            min_agreement: 0.98,
            max_error_ratio: 0.02,
            max_p99_ratio: 3.0,
            drift_freeze: true,
            drift_min_rows: 50,
        }
    }
}

/// Rollout phase of the active candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Mirrored traffic only; responses discarded.
    Shadow,
    /// A slice of live traffic served for real.
    Canary,
}

impl Phase {
    /// Lowercase tag used in journal records and `/metrics`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Shadow => "shadow",
            Phase::Canary => "canary",
        }
    }
}

const PHASE_SHADOW: u64 = 1;
const PHASE_CANARY: u64 = 2;

/// The in-flight rollout: one candidate at a time, process-wide.
#[derive(Debug)]
pub struct ActiveRollout {
    /// Bare registry name whose traffic is mirrored/sliced.
    pub name: String,
    /// Candidate key `name@version` (held: invisible to bare-name lookups).
    pub candidate: String,
    /// Incumbent key `name@version` that keeps serving throughout.
    pub incumbent: String,
    /// Canary traffic slice in percent.
    pub slice: u8,
    phase: AtomicU64,
    canary_requests: AtomicU64,
    canary_errors: AtomicU64,
}

impl ActiveRollout {
    fn new(name: &str, candidate: &str, incumbent: &str, slice: u8, phase: Phase) -> Self {
        Self {
            name: name.into(),
            candidate: candidate.into(),
            incumbent: incumbent.into(),
            slice,
            phase: AtomicU64::new(match phase {
                Phase::Shadow => PHASE_SHADOW,
                Phase::Canary => PHASE_CANARY,
            }),
            canary_requests: AtomicU64::new(0),
            canary_errors: AtomicU64::new(0),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        match self.phase.load(Ordering::Relaxed) {
            PHASE_CANARY => Phase::Canary,
            _ => Phase::Shadow,
        }
    }

    /// Counts one canary-served request.
    pub fn count_canary_request(&self) {
        self.canary_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one canary request that died in a panic-500.
    pub fn count_canary_error(&self) {
        self.canary_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// One labeled production row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedRow {
    /// Contract-order categorical codes.
    pub codes: Vec<u32>,
    /// Observed ground-truth label.
    pub label: bool,
}

/// Per-name cap on buffered rows (both the ring and what a reload keeps).
pub const OBSERVE_CAP_ROWS: usize = 65_536;

/// On-disk buffer size that triggers a compacting rewrite from the ring.
const OBSERVE_COMPACT_BYTES: u64 = 8 << 20;

struct ObserveBuffer {
    rows: VecDeque<ObservedRow>,
    file: std::fs::File,
    file_bytes: u64,
}

/// Bounded in-memory + crash-safe on-disk buffer of labeled rows, one
/// file per model name under `<artifact-dir>/observe/`, framed with the
/// event log's `[len][crc32][payload]` record format. On open, a torn
/// tail (crash mid-append) is truncated away exactly like the event log's
/// recovery path; complete records are never lost.
pub struct ObserveStore {
    dir: PathBuf,
    cap_rows: usize,
    inner: Mutex<HashMap<String, ObserveBuffer>>,
    total_rows: AtomicU64,
}

impl std::fmt::Debug for ObserveStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserveStore")
            .field("dir", &self.dir)
            .field("cap_rows", &self.cap_rows)
            .finish_non_exhaustive()
    }
}

fn encode_observed(buf: &mut Vec<u8>, row: &ObservedRow) {
    let mut payload = Vec::with_capacity(5 + row.codes.len() * 4);
    payload.push(u8::from(row.label));
    payload.extend_from_slice(&(row.codes.len() as u32).to_le_bytes());
    for &c in &row.codes {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    write_frame(buf, &payload);
}

fn decode_observed(payload: &[u8]) -> Option<ObservedRow> {
    if payload.len() < 5 {
        return None;
    }
    let label = payload[0] != 0;
    let d = u32::from_le_bytes(payload[1..5].try_into().ok()?) as usize;
    let body = &payload[5..];
    if body.len() != d * 4 {
        return None;
    }
    let codes = body
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Some(ObservedRow { codes, label })
}

impl ObserveStore {
    /// Opens (lazily — per-name files load on first touch) a store rooted
    /// at `dir`.
    pub fn open(dir: &Path, cap_rows: usize) -> ObserveStore {
        ObserveStore {
            dir: dir.to_path_buf(),
            cap_rows: cap_rows.max(1),
            inner: Mutex::new(HashMap::new()),
            total_rows: AtomicU64::new(0),
        }
    }

    fn file_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.obs"))
    }

    /// Loads (or creates) the buffer for `name`, recovering the valid
    /// prefix of its file and truncating any torn tail.
    fn load(&self, name: &str) -> Result<ObserveBuffer> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| ServeError::io(format!("creating {}", self.dir.display()), e))?;
        let path = self.file_path(name);
        let ctx = |e| ServeError::io(format!("opening {}", path.display()), e);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(ctx)?;
        let bytes = std::fs::read(&path).map_err(ctx)?;
        let mut rows = VecDeque::new();
        let valid = scan_frames(&bytes, |payload| match decode_observed(payload) {
            Some(row) => {
                if rows.len() == self.cap_rows {
                    rows.pop_front();
                }
                rows.push_back(row);
                true
            }
            None => false,
        });
        if valid < bytes.len() {
            file.set_len(valid as u64).map_err(ctx)?;
        }
        self.total_rows
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(ObserveBuffer {
            rows,
            file,
            file_bytes: valid as u64,
        })
    }

    /// Appends labeled rows for `name` (ring + durable file, one fsync per
    /// call); returns how many rows are now buffered for the name.
    pub fn append(&self, name: &str, rows: &[ObservedRow]) -> Result<usize> {
        let mut inner = self.inner.lock().expect("observe lock");
        if !inner.contains_key(name) {
            let buf = self.load(name)?;
            inner.insert(name.to_string(), buf);
        }
        let buf = inner.get_mut(name).expect("just inserted");
        let mut framed = Vec::new();
        for row in rows {
            encode_observed(&mut framed, row);
            if buf.rows.len() == self.cap_rows {
                buf.rows.pop_front();
            }
            buf.rows.push_back(row.clone());
        }
        let path = self.file_path(name);
        let ctx = |e| ServeError::io(format!("appending {}", path.display()), e);
        buf.file.write_all(&framed).map_err(ctx)?;
        buf.file.sync_data().map_err(ctx)?;
        buf.file_bytes += framed.len() as u64;
        self.total_rows
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        if buf.file_bytes > OBSERVE_COMPACT_BYTES {
            self.compact(name, buf)?;
        }
        Ok(buf.rows.len())
    }

    /// Rewrites the on-disk buffer from the in-memory ring (temp file +
    /// atomic rename), dropping rows the ring has already evicted.
    fn compact(&self, name: &str, buf: &mut ObserveBuffer) -> Result<()> {
        let path = self.file_path(name);
        let tmp = self.dir.join(format!(".{name}.obs.tmp"));
        let ctx = |e| ServeError::io(format!("compacting {}", path.display()), e);
        let mut framed = Vec::new();
        for row in &buf.rows {
            encode_observed(&mut framed, row);
        }
        let mut f = std::fs::File::create(&tmp).map_err(ctx)?;
        f.write_all(&framed).map_err(ctx)?;
        f.sync_all().map_err(ctx)?;
        std::fs::rename(&tmp, &path).map_err(ctx)?;
        buf.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(ctx)?;
        buf.file_bytes = framed.len() as u64;
        Ok(())
    }

    /// A copy of the buffered rows for `name` (loading its file on first
    /// touch; an unreadable or absent buffer reads as empty).
    pub fn snapshot(&self, name: &str) -> Vec<ObservedRow> {
        let mut inner = self.inner.lock().expect("observe lock");
        if !inner.contains_key(name) {
            match self.load(name) {
                Ok(buf) => {
                    inner.insert(name.to_string(), buf);
                }
                Err(_) => return Vec::new(),
            }
        }
        inner[name].rows.iter().cloned().collect()
    }

    /// Names with at least one buffered row (touched this process).
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("observe lock");
        let mut names: Vec<String> = inner
            .iter()
            .filter(|(_, b)| !b.rows.is_empty())
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Rows currently buffered for `name`.
    pub fn buffered(&self, name: &str) -> usize {
        let inner = self.inner.lock().expect("observe lock");
        inner.get(name).map_or(0, |b| b.rows.len())
    }

    /// Total rows accepted since boot (including reloaded ones).
    pub fn total_rows(&self) -> u64 {
        self.total_rows.load(Ordering::Relaxed)
    }
}

/// Test-only fault-injection knobs, seeded once from the environment at
/// warm boot (so parallel tests never race on `set_var`).
#[derive(Debug, Clone, Default)]
pub struct Faults {
    /// `HAMLET_FAULT_PREDICT_PANIC=<key>`: panic before executing a batch
    /// for this exact artifact key (exercises panic containment).
    pub predict_panic: Option<String>,
    /// `HAMLET_FAULT_FLIP_LABELS=<key>`: invert every label this artifact
    /// key computes (a deliberately degraded candidate).
    pub flip_labels: Option<String>,
}

impl Faults {
    /// Reads the knobs from the environment.
    pub fn from_env() -> Faults {
        let non_empty =
            |v: std::result::Result<String, std::env::VarError>| v.ok().filter(|s| !s.is_empty());
        Faults {
            predict_panic: non_empty(std::env::var("HAMLET_FAULT_PREDICT_PANIC")),
            flip_labels: non_empty(std::env::var("HAMLET_FAULT_FLIP_LABELS")),
        }
    }

    /// Panics iff the panic knob names `key`.
    pub fn maybe_panic(&self, key: &str) {
        if self.predict_panic.as_deref() == Some(key) {
            panic!("injected predict panic for `{key}`");
        }
    }

    /// Flips `labels` in place iff the flip knob names `key`.
    pub fn maybe_flip(&self, key: &str, labels: &mut [bool]) {
        if self.flip_labels.as_deref() == Some(key) {
            for l in labels.iter_mut() {
                *l = !*l;
            }
        }
    }
}

/// One journal record: the JSON carried in a `Rollout` event's detail
/// field, replayed at boot to restore an in-flight rollout.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct JournalRecord {
    /// `start` | `canary` | `promote` | `rollback` | `abort`.
    action: String,
    candidate: String,
    incumbent: String,
    slice: u8,
    /// Present on `rollback` (the tripped guardrail).
    reason: Option<String>,
}

/// Point-in-time rollout-plane counters for `/metrics`, `/v1/stats` and
/// the `rollout status` CLI.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct RolloutSnapshot {
    /// Whether a rollout is in flight.
    pub active: bool,
    /// Bare name under rollout.
    pub model: Option<String>,
    /// Candidate key.
    pub candidate: Option<String>,
    /// Incumbent key.
    pub incumbent: Option<String>,
    /// `shadow` | `canary` when active.
    pub phase: Option<String>,
    /// Canary traffic slice percent.
    pub slice: u8,
    /// Auto-promotion frozen by the drift advisor.
    pub frozen: bool,
    /// Requests served by the canary so far.
    pub canary_requests: u64,
    /// Canary requests that died in a panic-500.
    pub canary_errors: u64,
    /// Drift-advisor runs since boot.
    pub drift_checks: u64,
    /// Drift verdicts (safety envelope left) since boot.
    pub drift_events: u64,
    /// Auto-promotions since boot.
    pub promotions: u64,
    /// Auto-rollbacks (and aborts) since boot.
    pub rollbacks: u64,
    /// Labeled rows accepted by `/v1/observe` since boot.
    pub observe_rows: u64,
}

/// The rollout state machine + drift advisor. One per server, rooted in
/// the artifact directory (`rollout/` journal, `observe/` buffers).
#[derive(Debug)]
pub struct RolloutPlane {
    journal: Option<EventLog>,
    guardrails: GuardrailConfig,
    active: RwLock<Option<Arc<ActiveRollout>>>,
    /// The observed-row buffer feeding drift checks and warm-start fits.
    pub observe: ObserveStore,
    frozen: AtomicBool,
    drift_checks: AtomicU64,
    drift_events: AtomicU64,
    promotions: AtomicU64,
    rollbacks: AtomicU64,
}

impl RolloutPlane {
    /// Opens the plane under `artifact_dir` and replays the journal tail
    /// (the in-flight rollout, if the process died mid-flight, is restored
    /// by [`RolloutPlane::resume`] once the registry exists).
    pub fn open(artifact_dir: &Path, guardrails: GuardrailConfig) -> Result<RolloutPlane> {
        let journal = EventLog::open(&artifact_dir.join("rollout"))?;
        Ok(RolloutPlane {
            journal: Some(journal),
            guardrails,
            active: RwLock::new(None),
            observe: ObserveStore::open(&artifact_dir.join("observe"), OBSERVE_CAP_ROWS),
            frozen: AtomicBool::new(false),
            drift_checks: AtomicU64::new(0),
            drift_events: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
        })
    }

    /// A plane with no durable journal and a process-unique observe
    /// directory (lazily created on first append) — for tests and
    /// library use where nothing should touch a shared disk location.
    pub fn in_memory(guardrails: GuardrailConfig) -> RolloutPlane {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hamlet-rollout-mem-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        RolloutPlane {
            journal: None,
            guardrails,
            active: RwLock::new(None),
            observe: ObserveStore::open(&dir, OBSERVE_CAP_ROWS),
            frozen: AtomicBool::new(false),
            drift_checks: AtomicU64::new(0),
            drift_events: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
        }
    }

    /// The configured guardrails.
    pub fn guardrails(&self) -> &GuardrailConfig {
        &self.guardrails
    }

    /// Whether the drift advisor currently freezes auto-promotion.
    pub fn frozen(&self) -> bool {
        self.frozen.load(Ordering::Relaxed)
    }

    /// The in-flight rollout, if any.
    pub fn active(&self) -> Option<Arc<ActiveRollout>> {
        self.active.read().expect("rollout lock").clone()
    }

    /// Replays the journal and restores an in-flight rollout: the
    /// candidate goes back on **hold** (warm-load made the highest on-disk
    /// version the latest, which mid-rollout is exactly wrong) and the
    /// phase resumes where the journal left off, with live counters reset
    /// — evidence does not survive a restart, by design. Call once at warm
    /// boot, after the registry is loaded.
    pub fn resume(&self, registry: &ModelRegistry, telemetry: &Telemetry) {
        let Some(journal) = &self.journal else {
            return;
        };
        let tail = match journal.tail(usize::MAX) {
            Ok(events) => tail_records(&tail_rollout_events(events)),
            Err(_) => return,
        };
        let Some((rec, phase)) = tail else {
            return;
        };
        // The rollout only resumes if both versions still resolve; a
        // deleted candidate degenerates to "no rollout" (the journal keeps
        // the history either way).
        if registry.get(&rec.candidate).is_err() || registry.get(&rec.incumbent).is_err() {
            return;
        }
        if registry.hold(&rec.candidate).is_err() {
            return;
        }
        let name = rec
            .candidate
            .rsplit_once('@')
            .map(|(n, _)| n.to_string())
            .unwrap_or_else(|| rec.candidate.clone());
        let active = Arc::new(ActiveRollout::new(
            &name,
            &rec.candidate,
            &rec.incumbent,
            rec.slice,
            phase,
        ));
        *self.active.write().expect("rollout lock") = Some(active);
        telemetry.record_event(
            EventKind::Rollout,
            &name,
            &format!(
                "resumed {} rollout of `{}` from journal after restart",
                phase.name(),
                rec.candidate
            ),
        );
    }

    /// Appends a journal record and mirrors it into the telemetry audit
    /// stream (ring + durable event log).
    fn journal(&self, telemetry: &Telemetry, name: &str, rec: &JournalRecord) {
        let detail = serde_json::to_string(rec).unwrap_or_else(|_| rec.action.clone());
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append(&Event::now(EventKind::Rollout, name, &detail)) {
                eprintln!("rollout journal append failed: {e}");
            }
        }
        telemetry.record_event(EventKind::Rollout, name, &detail);
    }

    /// Starts a rollout: `candidate_key` (an exact `name@version`) enters
    /// shadow against the current latest version of its name. If the
    /// candidate currently *is* the latest (e.g. it was just trained
    /// through `/v1/train`), it is first put on hold so the prior version
    /// resumes serving bare-name traffic for the duration.
    pub fn start(
        &self,
        registry: &ModelRegistry,
        telemetry: &Telemetry,
        candidate_key: &str,
        slice: Option<u8>,
    ) -> Result<RolloutSnapshot> {
        if self.active().is_some() {
            return Err(ServeError::BadRequest(
                "a rollout is already active; abort it first".into(),
            ));
        }
        let candidate = registry.get(candidate_key)?;
        let cand_key = candidate.key();
        let name = candidate.name.clone();
        // If the candidate is what `name` currently resolves to, step it
        // aside so an incumbent exists to mirror against.
        if registry.get(&name).is_ok_and(|a| a.key() == cand_key) {
            registry.hold(&cand_key)?;
        }
        let incumbent = registry.get(&name).map_err(|_| {
            ServeError::BadRequest(format!(
                "candidate `{cand_key}` has no incumbent to shadow (it is the only version of `{name}`)"
            ))
        })?;
        if incumbent.key() == cand_key {
            return Err(ServeError::BadRequest(format!(
                "candidate `{cand_key}` is already the serving version"
            )));
        }
        if incumbent.feature_fingerprint() != candidate.feature_fingerprint() {
            return Err(ServeError::BadRequest(format!(
                "candidate `{cand_key}` and incumbent `{}` disagree on the feature contract; \
                 mirrored traffic would not validate",
                incumbent.key()
            )));
        }
        let slice = slice.unwrap_or(self.guardrails.canary_slice).min(100);
        let rec = JournalRecord {
            action: "start".into(),
            candidate: cand_key.clone(),
            incumbent: incumbent.key(),
            slice,
            reason: None,
        };
        self.journal(telemetry, &name, &rec);
        let active = Arc::new(ActiveRollout::new(
            &name,
            &cand_key,
            &incumbent.key(),
            slice,
            Phase::Shadow,
        ));
        *self.active.write().expect("rollout lock") = Some(active);
        Ok(self.snapshot())
    }

    /// Operator abort: clears the rollout without demoting the candidate.
    pub fn abort(&self, telemetry: &Telemetry) -> Result<RolloutSnapshot> {
        let Some(active) = self.active.write().expect("rollout lock").take() else {
            return Err(ServeError::BadRequest("no rollout is active".into()));
        };
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        let rec = JournalRecord {
            action: "abort".into(),
            candidate: active.candidate.clone(),
            incumbent: active.incumbent.clone(),
            slice: active.slice,
            reason: Some("operator abort".into()),
        };
        self.journal(telemetry, &active.name, &rec);
        Ok(self.snapshot())
    }

    /// Auto-rollback: journal + audit events, demote the candidate back to
    /// its lazy slot (the incumbent never stopped serving), and clear the
    /// rollout.
    fn rollback(
        &self,
        registry: &ModelRegistry,
        telemetry: &Telemetry,
        active: &ActiveRollout,
        reason: &str,
    ) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        let rec = JournalRecord {
            action: "rollback".into(),
            candidate: active.candidate.clone(),
            incumbent: active.incumbent.clone(),
            slice: active.slice,
            reason: Some(reason.into()),
        };
        self.journal(telemetry, &active.name, &rec);
        // The live evidence itself is a drift signal: the no-join artifact
        // stopped behaving on observed traffic.
        self.drift_events.fetch_add(1, Ordering::Relaxed);
        telemetry.record_event(
            EventKind::Drift,
            &active.candidate,
            &format!("candidate rolled back on live evidence: {reason}"),
        );
        // Demote releases the candidate's resident payload; an unpersisted
        // candidate (no backing file) just stays held, which is equally
        // out of traffic.
        if let Err(e) = registry.demote(&active.candidate) {
            telemetry.record_event(
                EventKind::Rollout,
                &active.name,
                &format!("rollback demote of `{}` skipped: {e}", active.candidate),
            );
        }
        *self.active.write().expect("rollout lock") = None;
    }

    /// Graduates shadow → canary.
    fn graduate(&self, telemetry: &Telemetry, active: &ActiveRollout) {
        active.phase.store(PHASE_CANARY, Ordering::Relaxed);
        let rec = JournalRecord {
            action: "canary".into(),
            candidate: active.candidate.clone(),
            incumbent: active.incumbent.clone(),
            slice: active.slice,
            reason: None,
        };
        self.journal(telemetry, &active.name, &rec);
    }

    /// Auto-promote: the candidate becomes the latest for its name.
    fn promote(&self, registry: &ModelRegistry, telemetry: &Telemetry, active: &ActiveRollout) {
        if let Err(e) = registry.adopt(&active.candidate) {
            // Candidate vanished mid-flight (operator delete): treat as a
            // rollback so the plane never wedges.
            self.rollback(registry, telemetry, active, &format!("adopt failed: {e}"));
            return;
        }
        self.promotions.fetch_add(1, Ordering::Relaxed);
        let rec = JournalRecord {
            action: "promote".into(),
            candidate: active.candidate.clone(),
            incumbent: active.incumbent.clone(),
            slice: active.slice,
            reason: None,
        };
        self.journal(telemetry, &active.name, &rec);
        *self.active.write().expect("rollout lock") = None;
    }

    /// One guardrail-evaluation tick (the timer wheel drives this ~1/s;
    /// tests call it directly). Evaluates the active rollout against the
    /// guardrails and performs at most one transition.
    pub fn tick(&self, registry: &ModelRegistry, telemetry: &Telemetry) {
        let Some(active) = self.active() else {
            return;
        };
        let g = &self.guardrails;
        let snap = telemetry.model(&active.candidate).snapshot();
        let inc_snap = telemetry.model(&active.incumbent).snapshot();

        // Agreement and p99 guardrails apply in both phases: shadow
        // mirroring keeps scoring the non-canary traffic during canary.
        let enough_shadow = snap.shadow_rows >= g.min_shadow_rows;
        if enough_shadow {
            let agreement = snap.shadow_agreement().unwrap_or(1.0);
            if agreement < g.min_agreement {
                self.rollback(
                    registry,
                    telemetry,
                    &active,
                    &format!(
                        "shadow agreement {agreement:.4} < {:.4} over {} rows",
                        g.min_agreement, snap.shadow_rows
                    ),
                );
                return;
            }
        }
        if let (Some(cand_p99), Some(inc_p99)) = (
            snap.hist.percentile_ms(0.99),
            inc_snap.hist.percentile_ms(0.99),
        ) {
            if enough_shadow && cand_p99 > inc_p99 * g.max_p99_ratio {
                self.rollback(
                    registry,
                    telemetry,
                    &active,
                    &format!(
                        "candidate p99 {cand_p99:.2}ms > {:.1}x incumbent p99 {inc_p99:.2}ms",
                        g.max_p99_ratio
                    ),
                );
                return;
            }
        }

        match active.phase() {
            Phase::Shadow => {
                if enough_shadow && !self.frozen() {
                    self.graduate(telemetry, &active);
                }
            }
            Phase::Canary => {
                let requests = active.canary_requests.load(Ordering::Relaxed);
                let errors = active.canary_errors.load(Ordering::Relaxed);
                if requests >= 10 {
                    let ratio = errors as f64 / requests as f64;
                    if ratio > g.max_error_ratio {
                        self.rollback(
                            registry,
                            telemetry,
                            &active,
                            &format!(
                                "canary error ratio {ratio:.4} > {:.4} over {requests} requests",
                                g.max_error_ratio
                            ),
                        );
                        return;
                    }
                }
                if requests >= g.min_canary_requests && enough_shadow && !self.frozen() {
                    self.promote(registry, telemetry, &active);
                }
            }
        }
    }

    /// The drift leg: re-runs the paper's avoid-join decision rule over
    /// the observe buffer for every name with observed rows, using **live**
    /// FK cardinalities (distinct codes actually seen) in place of the
    /// training-time dimension sizes. A `RetainJoin` verdict on any
    /// closed-domain FK means the artifact has left its safety envelope:
    /// a `Drift` audit event is appended and (configurably) auto-promotion
    /// freezes until the envelope is recovered.
    pub fn drift_check(&self, registry: &ModelRegistry, telemetry: &Telemetry) {
        let mut any_drifted = false;
        for name in self.observe.names() {
            self.drift_checks.fetch_add(1, Ordering::Relaxed);
            let rows = self.observe.snapshot(&name);
            if rows.len() < self.guardrails.drift_min_rows {
                continue;
            }
            let Ok(artifact) = registry.get(&name) else {
                continue;
            };
            let contract = &artifact.contract;
            let d = contract.width();
            let mut dims = Vec::new();
            for (j, f) in contract.features().iter().enumerate() {
                if !matches!(
                    f.provenance,
                    Provenance::ForeignKey { .. } | Provenance::Foreign { .. }
                ) {
                    continue;
                }
                let distinct: HashSet<u32> = rows
                    .iter()
                    .filter(|r| r.codes.len() == d)
                    .map(|r| r.codes[j])
                    .collect();
                dims.push(DimStats {
                    name: f.name.clone(),
                    n_rows: distinct.len(),
                    open_domain: contract.is_open(j),
                });
            }
            if dims.is_empty() {
                continue;
            }
            let family = artifact.metadata.spec.family();
            let report = advise_dims(&dims, rows.len(), family);
            if !report.all_avoidable() {
                any_drifted = true;
                self.drift_events.fetch_add(1, Ordering::Relaxed);
                let retained: Vec<String> = report
                    .dimensions
                    .iter()
                    .filter(|dd| dd.advice == Advice::RetainJoin)
                    .map(|dd| {
                        format!(
                            "{} (tuple ratio {:.2} < {:.0})",
                            dd.dimension, dd.tuple_ratio, dd.threshold
                        )
                    })
                    .collect();
                telemetry.record_event(
                    EventKind::Drift,
                    &artifact.key(),
                    &format!(
                        "live tuple ratio left the {:?} safety envelope over {} observed rows: {}",
                        family,
                        rows.len(),
                        retained.join(", ")
                    ),
                );
            }
        }
        let freeze = any_drifted && self.guardrails.drift_freeze;
        self.frozen.store(freeze, Ordering::Relaxed);
    }

    /// Routes one bare-name predict request: returns the candidate
    /// artifact when `name` is mid-canary and the request hashes into the
    /// slice. The hash folds the candidate's coalescer lane key with the
    /// row codes, so routing is deterministic per request but uniform
    /// across them.
    pub fn canary_route(
        &self,
        registry: &ModelRegistry,
        served: &ModelArtifact,
        rows: &[u32],
    ) -> Option<(Arc<ActiveRollout>, Arc<ModelArtifact>)> {
        let active = self.active()?;
        if active.phase() != Phase::Canary
            || served.name != active.name
            || served.key() == active.candidate
        {
            return None;
        }
        let mut seed = crc32(active.candidate.as_bytes());
        let mut bytes = Vec::with_capacity(rows.len() * 4 + 4);
        bytes.extend_from_slice(&seed.to_le_bytes());
        for &c in rows {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        seed = crc32(&bytes);
        if seed % 100 >= u32::from(active.slice) {
            return None;
        }
        let candidate = registry.get(&active.candidate).ok()?;
        if candidate.feature_fingerprint() != served.feature_fingerprint() {
            return None;
        }
        Some((active, candidate))
    }

    /// Whether batches served by `artifact` should be mirrored into the
    /// candidate's lane (any active phase; the candidate itself and
    /// already-mirrored parts are excluded by the caller).
    pub fn mirror_target(&self, artifact: &ModelArtifact) -> Option<Arc<ActiveRollout>> {
        let active = self.active()?;
        (artifact.name == active.name && artifact.key() != active.candidate).then_some(active)
    }

    /// Point-in-time counters.
    pub fn snapshot(&self) -> RolloutSnapshot {
        let active = self.active();
        RolloutSnapshot {
            active: active.is_some(),
            model: active.as_ref().map(|a| a.name.clone()),
            candidate: active.as_ref().map(|a| a.candidate.clone()),
            incumbent: active.as_ref().map(|a| a.incumbent.clone()),
            phase: active.as_ref().map(|a| a.phase().name().into()),
            slice: active.as_ref().map_or(0, |a| a.slice),
            frozen: self.frozen(),
            canary_requests: active
                .as_ref()
                .map_or(0, |a| a.canary_requests.load(Ordering::Relaxed)),
            canary_errors: active
                .as_ref()
                .map_or(0, |a| a.canary_errors.load(Ordering::Relaxed)),
            drift_checks: self.drift_checks.load(Ordering::Relaxed),
            drift_events: self.drift_events.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            observe_rows: self.observe.total_rows(),
        }
    }
}

/// Filters an event list down to rollout journal records.
fn tail_rollout_events(events: Vec<Event>) -> Vec<Event> {
    events
        .into_iter()
        .filter(|e| e.kind == EventKind::Rollout)
        .collect()
}

/// Folds journal records to the in-flight rollout at the tail, if any.
fn tail_records(events: &[Event]) -> Option<(JournalRecord, Phase)> {
    let mut state: Option<(JournalRecord, Phase)> = None;
    for e in events {
        let Ok(rec) = serde_json::from_str::<JournalRecord>(&e.detail) else {
            continue;
        };
        match rec.action.as_str() {
            "start" => state = Some((rec, Phase::Shadow)),
            "canary" => {
                if let Some((cur, phase)) = &mut state {
                    if cur.candidate == rec.candidate {
                        *phase = Phase::Canary;
                    }
                }
            }
            "promote" | "rollback" | "abort" => state = None,
            _ => {}
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests::toy_artifact;
    use crate::registry::ModelRegistry;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hamlet-rollout-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn rows(n: usize) -> Vec<ObservedRow> {
        (0..n)
            .map(|i| ObservedRow {
                codes: vec![(i % 2) as u32, (i % 4) as u32],
                label: i % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn observe_store_rides_the_ring_and_survives_reload() {
        let dir = temp_dir("obs");
        let store = ObserveStore::open(&dir, 8);
        assert_eq!(store.append("m", &rows(5)).unwrap(), 5);
        assert_eq!(store.append("m", &rows(5)).unwrap(), 8, "ring caps at 8");
        assert_eq!(store.buffered("m"), 8);
        assert_eq!(store.total_rows(), 10);
        // A fresh store reloads from disk: all 10 durable rows exist, the
        // ring keeps the newest 8.
        let store2 = ObserveStore::open(&dir, 8);
        let snap = store2.snapshot("m");
        assert_eq!(snap.len(), 8);
        assert_eq!(snap.last().unwrap(), rows(5).last().unwrap());
        // Unknown names read as empty.
        assert!(store2.snapshot("ghost").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observe_store_truncates_a_torn_tail() {
        let dir = temp_dir("torn");
        {
            let store = ObserveStore::open(&dir, 64);
            store.append("m", &rows(6)).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the file tail.
        let path = dir.join("m.obs");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let store = ObserveStore::open(&dir, 64);
        let snap = store.snapshot("m");
        assert_eq!(snap.len(), 5, "torn record dropped, prefix recovered");
        assert_eq!(snap[0], rows(1)[0]);
        // The file was truncated to the valid prefix, so appends resume
        // cleanly.
        assert_eq!(store.append("m", &rows(2)).unwrap(), 7);
        let store2 = ObserveStore::open(&dir, 64);
        assert_eq!(store2.snapshot("m").len(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Registry with `m@1` (latest) and `m@2` persisted + registered as a
    /// held candidate.
    fn registry_with_candidate(dir: &Path) -> (ModelRegistry, String) {
        let reg = ModelRegistry::new();
        let (k1, p1) = reg
            .register_next_version(toy_artifact("m", 0), 1, |a| a.save(dir))
            .unwrap();
        reg.record_origin(&k1, &p1);
        let (k2, p2) = reg
            .register_candidate(toy_artifact("m", 0), 2, |a| a.save(dir))
            .unwrap();
        reg.record_origin(&k2, &p2);
        (reg, k2)
    }

    #[test]
    fn lifecycle_shadow_canary_promote() {
        let dir = temp_dir("promote");
        let (reg, cand) = registry_with_candidate(&dir);
        let plane = RolloutPlane::open(&dir, GuardrailConfig::default()).unwrap();
        let telemetry = Telemetry::in_memory();

        let snap = plane.start(&reg, &telemetry, &cand, Some(25)).unwrap();
        assert_eq!(snap.phase.as_deref(), Some("shadow"));
        assert_eq!(snap.slice, 25);
        assert_eq!(reg.get("m").unwrap().version, 1, "incumbent serves");

        // Not enough shadow evidence: tick is a no-op.
        plane.tick(&reg, &telemetry);
        assert_eq!(plane.active().unwrap().phase(), Phase::Shadow);

        // Perfect agreement over enough rows graduates to canary.
        telemetry.model(&cand).record_shadow(500, 500);
        plane.tick(&reg, &telemetry);
        let active = plane.active().unwrap();
        assert_eq!(active.phase(), Phase::Canary);

        // Enough clean canary traffic auto-promotes.
        for _ in 0..60 {
            active.count_canary_request();
        }
        plane.tick(&reg, &telemetry);
        assert!(plane.active().is_none(), "rollout completed");
        assert_eq!(reg.get("m").unwrap().version, 2, "candidate adopted");
        assert_eq!(plane.snapshot().promotions, 1);
        // The audit trail carries every transition.
        let actions: Vec<String> = telemetry
            .recent_events()
            .iter()
            .filter(|e| e.kind == EventKind::Rollout)
            .map(|e| e.detail.clone())
            .collect();
        assert!(
            actions.iter().any(|a| a.contains("\"start\"")),
            "{actions:?}"
        );
        assert!(
            actions.iter().any(|a| a.contains("\"canary\"")),
            "{actions:?}"
        );
        assert!(
            actions.iter().any(|a| a.contains("\"promote\"")),
            "{actions:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn low_agreement_rolls_back_with_audit_trail() {
        let dir = temp_dir("rollback");
        let (reg, cand) = registry_with_candidate(&dir);
        let plane = RolloutPlane::open(&dir, GuardrailConfig::default()).unwrap();
        let telemetry = Telemetry::in_memory();
        // Audit residency transitions exactly like the server boot path.
        reg.set_observer({
            let telemetry = telemetry.clone();
            Arc::new(move |note, key| {
                let kind = match note {
                    crate::registry::RegistryNote::Demoted => EventKind::Demote,
                    _ => EventKind::Promote,
                };
                telemetry.record_event(kind, key, "residency change");
            })
        });
        plane.start(&reg, &telemetry, &cand, None).unwrap();

        // 90% agreement < 98% guardrail: instant rollback.
        telemetry.model(&cand).record_shadow(500, 450);
        plane.tick(&reg, &telemetry);
        assert!(plane.active().is_none());
        assert_eq!(reg.get("m").unwrap().version, 1, "incumbent restored");
        let snap = plane.snapshot();
        assert_eq!(snap.rollbacks, 1);
        assert_eq!(snap.drift_events, 1, "rollback is a drift signal");
        let events = telemetry.recent_events();
        assert!(
            events.iter().any(|e| e.kind == EventKind::Drift),
            "{events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Rollout && e.detail.contains("rollback")),
            "{events:?}"
        );
        // The candidate was demoted back to a lazy slot.
        assert!(
            events.iter().any(|e| e.kind == EventKind::Demote),
            "{events:?}"
        );
        // A fresh start can begin again.
        assert!(plane.start(&reg, &telemetry, &cand, None).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_resumes_mid_canary() {
        let dir = temp_dir("resume");
        let (reg, cand) = registry_with_candidate(&dir);
        let telemetry = Telemetry::in_memory();
        {
            let plane = RolloutPlane::open(&dir, GuardrailConfig::default()).unwrap();
            plane.start(&reg, &telemetry, &cand, Some(15)).unwrap();
            telemetry.model(&cand).record_shadow(500, 500);
            plane.tick(&reg, &telemetry);
            assert_eq!(plane.active().unwrap().phase(), Phase::Canary);
            // Process "dies" here: plane dropped mid-canary.
        }
        // Warm boot: the highest on-disk version would win warm-load, so
        // resume() must hold the candidate and restore the canary phase.
        let (reg2, _) = ModelRegistry::warm_load(&dir).unwrap();
        assert_eq!(reg2.get("m").unwrap().version, 2, "warm-load picks v2");
        let plane2 = RolloutPlane::open(&dir, GuardrailConfig::default()).unwrap();
        plane2.resume(&reg2, &telemetry);
        let active = plane2.active().expect("rollout resumed");
        assert_eq!(active.phase(), Phase::Canary);
        assert_eq!(active.candidate, cand);
        assert_eq!(active.slice, 15);
        assert_eq!(
            reg2.get("m").unwrap().version,
            1,
            "incumbent restored to bare-name traffic"
        );
        // Counters reset: promotion needs fresh evidence.
        assert_eq!(telemetry.model(&cand).snapshot().shadow_rows, 500);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_ignores_completed_rollouts_and_torn_tails() {
        let dir = temp_dir("replay-done");
        let (reg, cand) = registry_with_candidate(&dir);
        let telemetry = Telemetry::in_memory();
        {
            let plane = RolloutPlane::open(&dir, GuardrailConfig::default()).unwrap();
            plane.start(&reg, &telemetry, &cand, None).unwrap();
            telemetry.model(&cand).record_shadow(500, 450);
            plane.tick(&reg, &telemetry); // rolls back
        }
        let (reg2, _) = ModelRegistry::warm_load(&dir).unwrap();
        let plane2 = RolloutPlane::open(&dir, GuardrailConfig::default()).unwrap();
        plane2.resume(&reg2, &telemetry);
        assert!(plane2.active().is_none(), "completed rollout stays done");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn start_holds_a_candidate_that_is_already_latest() {
        let dir = temp_dir("hold-latest");
        let reg = ModelRegistry::new();
        let (k1, p1) = reg
            .register_next_version(toy_artifact("m", 0), 1, |a| a.save(&dir))
            .unwrap();
        reg.record_origin(&k1, &p1);
        // v2 registered the normal way: it becomes latest instantly (the
        // pre-rollout behavior this plane exists to fix).
        let (k2, p2) = reg
            .register_next_version(toy_artifact("m", 0), 1, |a| a.save(&dir))
            .unwrap();
        reg.record_origin(&k2, &p2);
        assert_eq!(reg.get("m").unwrap().version, 2);
        let plane = RolloutPlane::open(&dir, GuardrailConfig::default()).unwrap();
        let telemetry = Telemetry::in_memory();
        let snap = plane.start(&reg, &telemetry, &k2, None).unwrap();
        assert_eq!(snap.candidate.as_deref(), Some(k2.as_str()));
        assert_eq!(snap.incumbent.as_deref(), Some(k1.as_str()));
        assert_eq!(reg.get("m").unwrap().version, 1, "v1 serves during shadow");
        // Double-start refuses.
        assert!(plane.start(&reg, &telemetry, &k2, None).is_err());
        // Abort clears without demoting.
        plane.abort(&telemetry).unwrap();
        assert!(plane.active().is_none());
        assert!(plane.abort(&telemetry).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drift_check_fires_and_freezes_on_live_cardinality_blowup() {
        use hamlet_ml::contract::FeatureContract;
        use hamlet_ml::dataset::FeatureMeta;
        use hamlet_relation::domain::CatDomain;

        let dir = temp_dir("drift");
        // A closed FK domain of 200 values: with few observed rows and many
        // distinct codes, the live tuple ratio collapses below the Tree/ANN
        // threshold of 3.
        let mut art = toy_artifact("d", 0);
        art.contract = FeatureContract::new(vec![
            FeatureMeta::with_domain(
                "xs0",
                Provenance::Home,
                CatDomain::synthetic("xs0", 2).into_shared(),
            ),
            FeatureMeta::with_domain(
                "fk",
                Provenance::ForeignKey { dim: 0 },
                CatDomain::synthetic("fk", 200).into_shared(),
            ),
        ])
        .unwrap();
        let reg = ModelRegistry::new();
        let (key, path) = reg.register_next_version(art, 1, |a| a.save(&dir)).unwrap();
        reg.record_origin(&key, &path);

        let plane = RolloutPlane::open(&dir, GuardrailConfig::default()).unwrap();
        let telemetry = Telemetry::in_memory();
        // 100 rows spanning 100 distinct FK codes: tuple ratio 1.0 < 3.
        let drifted: Vec<ObservedRow> = (0..100)
            .map(|i| ObservedRow {
                codes: vec![i % 2, i],
                label: i % 2 == 0,
            })
            .collect();
        plane.observe.append("d", &drifted).unwrap();
        plane.drift_check(&reg, &telemetry);
        let snap = plane.snapshot();
        assert_eq!(snap.drift_checks, 1);
        assert_eq!(snap.drift_events, 1);
        assert!(
            snap.frozen,
            "default config freezes promotion while drifted"
        );
        let events = telemetry.recent_events();
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Drift && e.detail.contains("fk")),
            "{events:?}"
        );

        // Back inside the envelope: plenty of rows over few FK values.
        let safe: Vec<ObservedRow> = (0..2000)
            .map(|i| ObservedRow {
                codes: vec![i % 2, i % 10],
                label: i % 2 == 0,
            })
            .collect();
        plane.observe.append("d", &safe).unwrap();
        plane.drift_check(&reg, &telemetry);
        assert!(!plane.snapshot().frozen, "envelope recovered, unfrozen");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frozen_plane_blocks_graduation_but_not_rollback() {
        let dir = temp_dir("frozen");
        let (reg, cand) = registry_with_candidate(&dir);
        let plane = RolloutPlane::open(&dir, GuardrailConfig::default()).unwrap();
        let telemetry = Telemetry::in_memory();
        plane.start(&reg, &telemetry, &cand, None).unwrap();
        plane.frozen.store(true, Ordering::Relaxed);
        telemetry.model(&cand).record_shadow(500, 500);
        plane.tick(&reg, &telemetry);
        assert_eq!(
            plane.active().unwrap().phase(),
            Phase::Shadow,
            "frozen: no graduation"
        );
        // Bad agreement still rolls back while frozen.
        telemetry.model(&cand).record_shadow(500, 0);
        plane.tick(&reg, &telemetry);
        assert!(plane.active().is_none(), "rollback is never frozen");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn canary_routing_is_deterministic_and_respects_the_slice() {
        let dir = temp_dir("route");
        let (reg, cand) = registry_with_candidate(&dir);
        let plane = RolloutPlane::open(&dir, GuardrailConfig::default()).unwrap();
        let telemetry = Telemetry::in_memory();
        plane.start(&reg, &telemetry, &cand, Some(50)).unwrap();
        let incumbent = reg.get("m").unwrap();
        // Shadow phase: no routing at all.
        assert!(plane.canary_route(&reg, &incumbent, &[0, 1]).is_none());
        telemetry.model(&cand).record_shadow(500, 500);
        plane.tick(&reg, &telemetry);
        // Canary: roughly the slice fraction routes, deterministically.
        let mut routed = 0;
        for i in 0..200u32 {
            let rows = [i % 2, i % 4];
            let a = plane.canary_route(&reg, &incumbent, &rows).is_some();
            let b = plane.canary_route(&reg, &incumbent, &rows).is_some();
            assert_eq!(a, b, "routing is deterministic per request");
            routed += usize::from(a);
        }
        assert!(routed > 0, "a 50% slice routes some of 200 requests");
        assert!(routed < 200, "a 50% slice does not route everything");
        // The candidate artifact itself is never re-routed (no recursion).
        let candidate = reg.get(&cand).unwrap();
        assert!(plane.canary_route(&reg, &candidate, &[0, 1]).is_none());
        // Mirroring targets incumbent-served batches only.
        assert!(plane.mirror_target(&incumbent).is_some());
        assert!(plane.mirror_target(&candidate).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faults_knobs_parse_and_apply() {
        let faults = Faults {
            predict_panic: Some("m@2".into()),
            flip_labels: Some("m@2".into()),
        };
        let mut labels = vec![true, false, true];
        faults.maybe_flip("m@1", &mut labels);
        assert_eq!(labels, vec![true, false, true], "other keys untouched");
        faults.maybe_flip("m@2", &mut labels);
        assert_eq!(labels, vec![false, true, false]);
        faults.maybe_panic("m@1"); // no-op
        assert!(std::panic::catch_unwind(|| faults.maybe_panic("m@2")).is_err());
    }
}
