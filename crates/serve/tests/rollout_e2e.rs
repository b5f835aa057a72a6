//! End-to-end safe-rollout tests over real HTTP: a healthy candidate walks
//! the full shadow → canary → auto-promote lifecycle on mirrored live
//! traffic; a degraded (label-flipping) candidate is auto-rolled-back by
//! the agreement guardrail without a single non-canary request seeing an
//! error; and the journaled state machine resumes mid-canary across a
//! server restart.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hamlet_core::experiment::RunResult;
use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_ml::any::AnyClassifier;
use hamlet_ml::dataset::{CatDataset, FeatureMeta, Provenance};
use hamlet_ml::tree::{DecisionTree, SplitCriterion, TreeParams};
use hamlet_relation::domain::CatDomain;
use hamlet_serve::api::{PredictResponse, StatsResponse};
use hamlet_serve::artifact::{ModelArtifact, TrainingMetadata, FORMAT_VERSION};
use hamlet_serve::http::{AppTick, ServerOptions};
use hamlet_serve::rollout::{GuardrailConfig, Phase, RolloutSnapshot};
use hamlet_serve::server::{serve_with, AppState, WarmOptions};
use hamlet_serve::telemetry::{EventKind, EventLog};

/// Minimal HTTP client: one request on a fresh connection.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("recv");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamlet-rollout-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A tiny deterministic tree artifact (no training pipeline involved), as
/// `name@version`. Two features, two-value closed domains.
fn tiny_artifact(name: &str, version: u32) -> ModelArtifact {
    let d = 2usize;
    let features: Vec<FeatureMeta> = (0..d)
        .map(|j| {
            FeatureMeta::with_domain(
                format!("f{j}"),
                Provenance::Home,
                CatDomain::synthetic(format!("f{j}"), 2).into_shared(),
            )
        })
        .collect();
    let rows: Vec<u32> = vec![0, 0, 0, 1, 1, 0, 1, 1];
    let labels: Vec<bool> = vec![false, true, true, false];
    let ds = CatDataset::new(features, rows, labels).unwrap();
    let model: AnyClassifier = DecisionTree::fit(
        &ds,
        TreeParams::new(SplitCriterion::Gini)
            .with_minsplit(2)
            .with_cp(0.0),
    )
    .unwrap()
    .into();
    ModelArtifact {
        format_version: FORMAT_VERSION,
        name: name.into(),
        version,
        model,
        feature_config: FeatureConfig::NoJoin,
        contract: ds.contract(),
        schema_fingerprint: 0xD0D0,
        metadata: TrainingMetadata {
            dataset: "synthetic".into(),
            spec: ModelSpec::TreeGini,
            train_rows: ds.n_rows(),
            metrics: RunResult {
                model: "rollout-test".into(),
                config: "NoJoin".into(),
                train_accuracy: 1.0,
                val_accuracy: 1.0,
                test_accuracy: 1.0,
                seconds: 0.0,
                winner: String::new(),
            },
        },
    }
}

/// Loose guardrails sized for a test: small sample floors, a full canary
/// slice for deterministic routing, and a p99 ratio too large for
/// microbenchmark noise to trip.
fn test_guardrails() -> GuardrailConfig {
    GuardrailConfig {
        canary_slice: 100,
        min_shadow_rows: 6,
        min_canary_requests: 5,
        max_p99_ratio: 10_000.0,
        drift_min_rows: 4,
        ..GuardrailConfig::default()
    }
}

/// Boots a server whose reactor tick drives the rollout guardrails and the
/// drift advisor, like the CLI's ops tick does.
fn serve_ticking(state: &Arc<AppState>) -> hamlet_serve::http::Server {
    let tick_state = Arc::clone(state);
    let opts = ServerOptions {
        workers: 2,
        on_tick: Some(AppTick {
            every: Duration::from_millis(100),
            run: Arc::new(move || {
                tick_state
                    .rollout
                    .tick(&tick_state.registry, &tick_state.telemetry);
                tick_state
                    .rollout
                    .drift_check(&tick_state.registry, &tick_state.telemetry);
            }),
        }),
        ..ServerOptions::default()
    };
    serve_with("127.0.0.1:0", opts, Arc::clone(state)).unwrap()
}

fn status_snapshot(addr: std::net::SocketAddr) -> RolloutSnapshot {
    let (status, body) = http(addr, "GET", "/v1/rollout/status", "");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).unwrap()
}

/// Healthy candidate: shadow on mirrored traffic → canary slice → guardrail
/// auto-promote, with every transition audit-logged and the drift advisor
/// running against the `/v1/observe` buffer throughout.
#[test]
fn lifecycle_shadow_canary_auto_promote() {
    let dir = tmp_dir("lifecycle");
    tiny_artifact("lc", 1).save(&dir).unwrap();
    tiny_artifact("lc", 2).save(&dir).unwrap();

    let (state, loaded) = AppState::warm_full(
        dir.clone(),
        WarmOptions {
            guardrails: test_guardrails(),
            ..WarmOptions::default()
        },
    )
    .unwrap();
    assert_eq!(loaded, 2);
    let server = serve_ticking(&state);
    let addr = server.addr();

    // Labeled production rows land in the observe buffer; the tick-driven
    // drift advisor will chew on them for the whole test.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/observe",
        "{\"model\":\"lc\",\"rows\":[[0,0],[0,1],[1,0],[1,1],[0,0],[1,1]],\
         \"labels\":[false,true,true,false,false,false]}",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"accepted\":6"), "{body}");

    // Start the rollout: lc@2 is the latest on disk, so the plane steps it
    // aside and lc@1 resumes serving as the incumbent.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/rollout/start",
        "{\"candidate\":\"lc@2\",\"slice\":100}",
    );
    assert_eq!(status, 200, "{body}");
    let snap: RolloutSnapshot = serde_json::from_str(&body).unwrap();
    assert_eq!(snap.phase.as_deref(), Some("shadow"));
    assert_eq!(snap.incumbent.as_deref(), Some("lc@1"));

    // Shadow: bare-name traffic is served by the incumbent while mirrored
    // copies score the candidate. Keep sending until the tick graduates.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http(
            addr,
            "POST",
            "/v1/predict",
            "{\"model\":\"lc\",\"rows\":[[0,1],[1,0]]}",
        );
        assert_eq!(status, 200, "{body}");
        let resp: PredictResponse = serde_json::from_str(&body).unwrap();
        let snap = status_snapshot(addr);
        if snap.phase.as_deref() == Some("canary") {
            break;
        }
        assert_eq!(resp.model, "lc@1", "shadow must not serve the candidate");
        assert!(
            Instant::now() < deadline,
            "never graduated to canary: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Canary at slice 100: bare traffic is the candidate's; once the
    // request floor is met the tick auto-promotes and the rollout ends.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http(
            addr,
            "POST",
            "/v1/predict",
            "{\"model\":\"lc\",\"rows\":[[1,1]]}",
        );
        assert_eq!(status, 200, "{body}");
        let snap = status_snapshot(addr);
        if !snap.active {
            assert_eq!(snap.promotions, 1, "{snap:?}");
            assert_eq!(snap.rollbacks, 0, "{snap:?}");
            break;
        }
        assert!(Instant::now() < deadline, "never auto-promoted: {snap:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The candidate was adopted as the latest; the old incumbent still
    // answers pinned.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/predict",
        "{\"model\":\"lc\",\"rows\":[[0,0]]}",
    );
    assert_eq!(status, 200, "{body}");
    let resp: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(resp.model, "lc@2", "promotion must adopt the candidate");
    let (status, _) = http(
        addr,
        "POST",
        "/v1/predict",
        "{\"model\":\"lc@1\",\"rows\":[[0,0]]}",
    );
    assert_eq!(status, 200);

    // Every transition is in the audit stream, and the drift advisor ran.
    let (status, body) = http(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let stats: StatsResponse = serde_json::from_str(&body).unwrap();
    let rollout_details: Vec<&str> = stats
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Rollout)
        .map(|e| e.detail.as_str())
        .collect();
    for action in [
        "\"action\":\"start\"",
        "\"action\":\"canary\"",
        "\"action\":\"promote\"",
    ] {
        assert!(
            rollout_details.iter().any(|d| d.contains(action)),
            "missing {action} in {rollout_details:?}"
        );
    }
    assert!(stats.rollout.drift_checks > 0, "{body}");
    assert_eq!(stats.rollout.observe_rows, 6, "{body}");

    let (status, text) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        text.contains("hamlet_rollout_state{model=\"none\"} 0"),
        "{text}"
    );
    assert!(
        text.contains("hamlet_rollout_total{kind=\"promotions\"} 1"),
        "{text}"
    );
    assert!(!text.contains("hamlet_drift_checks_total 0\n"), "{text}");
    server.shutdown();
    drop(state);

    // The transitions survived both on the durable event log.
    let log = EventLog::open(&dir.join("events")).unwrap();
    let events = log.scan_range(0, u64::MAX).unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Rollout && e.detail.contains("\"action\":\"promote\"")),
        "promote record missing from durable log"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Degraded candidate: the injected label-flip fault makes the candidate
/// disagree with the incumbent on every mirrored row, so the agreement
/// guardrail auto-rolls it back — demote + `Drift` audit trail — while the
/// incumbent keeps answering every live request with a 200.
#[test]
fn degraded_candidate_auto_rolls_back() {
    // The fault keys on the exact candidate key, so the other tests in
    // this binary (different names) are unaffected by the process-wide var.
    std::env::set_var("HAMLET_FAULT_FLIP_LABELS", "rb@2");
    let dir = tmp_dir("rollback");
    tiny_artifact("rb", 1).save(&dir).unwrap();
    tiny_artifact("rb", 2).save(&dir).unwrap();

    let (state, _) = AppState::warm_full(
        dir.clone(),
        WarmOptions {
            guardrails: test_guardrails(),
            ..WarmOptions::default()
        },
    )
    .unwrap();
    let server = serve_ticking(&state);
    let addr = server.addr();

    let (status, body) = http(
        addr,
        "POST",
        "/v1/rollout/start",
        "{\"candidate\":\"rb@2\"}",
    );
    assert_eq!(status, 200, "{body}");

    // Live traffic throughout the rollback: the incumbent serves it all,
    // and none of it may error.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http(
            addr,
            "POST",
            "/v1/predict",
            "{\"model\":\"rb\",\"rows\":[[0,1],[1,0]]}",
        );
        assert_eq!(status, 200, "live traffic saw an error: {body}");
        let resp: PredictResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(resp.model, "rb@1", "degraded candidate must never serve");
        let snap = status_snapshot(addr);
        if !snap.active {
            assert_eq!(snap.rollbacks, 1, "{snap:?}");
            assert_eq!(snap.promotions, 0, "{snap:?}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "degraded candidate was never rolled back: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The incumbent is still the latest, and still answers.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/predict",
        "{\"model\":\"rb\",\"rows\":[[0,0]]}",
    );
    assert_eq!(status, 200, "{body}");
    let resp: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(resp.model, "rb@1");

    // The rollback is fully audited: a journal record with the agreement
    // reason, a Drift event on the candidate (live evidence of
    // misbehaviour), and the Demote from releasing its payload.
    let (status, body) = http(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let stats: StatsResponse = serde_json::from_str(&body).unwrap();
    assert!(
        stats.events.iter().any(|e| e.kind == EventKind::Rollout
            && e.detail.contains("\"action\":\"rollback\"")
            && e.detail.contains("agreement")),
        "{body}"
    );
    assert!(
        stats
            .events
            .iter()
            .any(|e| e.kind == EventKind::Drift && e.model == "rb@2"),
        "{body}"
    );
    assert!(
        stats
            .events
            .iter()
            .any(|e| e.kind == EventKind::Demote && e.model == "rb@2"),
        "{body}"
    );
    let (status, text) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        text.contains("hamlet_rollout_total{kind=\"rollbacks\"} 1"),
        "{text}"
    );
    assert!(text.contains("hamlet_drift_events_total 1"), "{text}");
    server.shutdown();
    std::env::remove_var("HAMLET_FAULT_FLIP_LABELS");
    std::fs::remove_dir_all(&dir).ok();
}

/// The journaled state machine survives a restart mid-canary: the second
/// server generation resumes the rollout with the candidate back on hold,
/// so bare-name traffic stays on the incumbent.
#[test]
fn journal_resumes_rollout_across_restart() {
    let dir = tmp_dir("journal");
    tiny_artifact("jr", 1).save(&dir).unwrap();
    tiny_artifact("jr", 2).save(&dir).unwrap();

    // ---- Generation 1: start, graduate to canary, die. ----
    let warm = || {
        AppState::warm_full(
            dir.clone(),
            WarmOptions {
                guardrails: test_guardrails(),
                ..WarmOptions::default()
            },
        )
    };
    let (state, _) = warm().unwrap();
    state
        .rollout
        .start(&state.registry, &state.telemetry, "jr@2", Some(100))
        .unwrap();
    // Enough clean mirrored evidence for the guardrails, then one tick.
    state.telemetry.model("jr@2").record_shadow(16, 16);
    state.rollout.tick(&state.registry, &state.telemetry);
    let active = state.rollout.active().expect("rollout active");
    assert_eq!(active.phase(), Phase::Canary);
    drop(state); // no clean shutdown: the journal is all that survives

    // ---- Generation 2: warm boot resumes mid-canary from the journal. ----
    let (state, loaded) = warm().unwrap();
    assert_eq!(loaded, 2);
    let active = state.rollout.active().expect("rollout must resume");
    assert_eq!(active.candidate, "jr@2");
    assert_eq!(active.incumbent, "jr@1");
    assert_eq!(active.phase(), Phase::Canary);
    assert_eq!(active.slice, 100);
    // Live counters reset on restart — evidence does not survive, by design.
    let snap = state.rollout.snapshot();
    assert_eq!(snap.canary_requests, 0);

    // Over HTTP: status reports the resumed canary, and the candidate is
    // back on hold so the bare name resolves to the incumbent.
    let server = serve_ticking(&state);
    let addr = server.addr();
    let snap = status_snapshot(addr);
    assert!(snap.active);
    assert_eq!(snap.phase.as_deref(), Some("canary"));
    assert_eq!(snap.candidate.as_deref(), Some("jr@2"));
    assert_eq!(state.registry.get("jr").unwrap().version, 1);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
