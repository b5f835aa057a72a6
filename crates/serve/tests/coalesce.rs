//! Cross-request predict coalescing acceptance: bit-identical responses vs
//! solo execution across every model family, per-request error isolation,
//! window-timeout flushes (including on a 1-executor server), no merging
//! across models or pinned versions, and the end-to-end HTTP path.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hamlet_core::experiment::RunResult;
use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_ml::ann::{AnnParams, Mlp};
use hamlet_ml::any::{AnyClassifier, SubsetModel};
use hamlet_ml::dataset::{CatDataset, FeatureMeta, Provenance};
use hamlet_ml::knn::OneNearestNeighbor;
use hamlet_ml::logreg::{LogRegL1, LogRegParams};
use hamlet_ml::model::MajorityClass;
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_ml::svm::{KernelKind, SvmModel, SvmParams};
use hamlet_ml::tree::{DecisionTree, SplitCriterion, TreeParams};
use hamlet_relation::domain::CatDomain;
use hamlet_serve::api::PredictResponse;
use hamlet_serve::artifact::{ModelArtifact, TrainingMetadata, FORMAT_VERSION};
use hamlet_serve::coalesce::CoalesceConfig;
use hamlet_serve::http::{Request, Responder, Response};
use hamlet_serve::server::{router, AppState, WarmOptions};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamlet-coal-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A dataset whose features carry real dictionaries (incl. a shared FK/RID
/// domain) so both coded and raw ingestion paths are exercised.
fn dict_dataset(seed: u64, n: usize) -> CatDataset {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let shared = CatDomain::synthetic("shared", 6).into_shared();
    let features = vec![
        FeatureMeta::with_domain("fk", Provenance::ForeignKey { dim: 0 }, Arc::clone(&shared)),
        FeatureMeta::with_domain("rid", Provenance::Foreign { dim: 0 }, shared),
        FeatureMeta::with_domain(
            "xs",
            Provenance::Home,
            CatDomain::synthetic_with_others("xs", 3).into_shared(),
        ),
    ];
    let cards: Vec<u32> = features.iter().map(|f| f.cardinality).collect();
    let rows: Vec<u32> = (0..n)
        .flat_map(|_| {
            cards
                .iter()
                .map(|&k| rng.gen_range(0..k))
                .collect::<Vec<_>>()
        })
        .collect();
    let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    CatDataset::new(features, rows, labels).unwrap()
}

fn artifact_for(model: AnyClassifier, ds: &CatDataset, name: &str) -> ModelArtifact {
    ModelArtifact {
        format_version: FORMAT_VERSION,
        name: name.into(),
        version: 1,
        model,
        feature_config: FeatureConfig::NoJoin,
        contract: ds.contract(),
        schema_fingerprint: 0xC0A1,
        metadata: TrainingMetadata {
            dataset: "synthetic".into(),
            spec: ModelSpec::TreeGini,
            train_rows: ds.n_rows(),
            metrics: RunResult {
                model: "coalesce".into(),
                config: "NoJoin".into(),
                train_accuracy: 1.0,
                val_accuracy: 1.0,
                test_accuracy: 1.0,
                seconds: 0.0,
                winner: "-".into(),
            },
        },
    }
}

fn all_families(ds: &CatDataset) -> Vec<(&'static str, AnyClassifier)> {
    let sub = ds.select_features(&[2]).unwrap();
    vec![
        ("majority", MajorityClass::fit(ds).into()),
        (
            "tree",
            DecisionTree::fit(
                ds,
                TreeParams::new(SplitCriterion::Gini)
                    .with_minsplit(2)
                    .with_cp(0.0),
            )
            .unwrap()
            .into(),
        ),
        ("knn", OneNearestNeighbor::fit(ds).unwrap().into()),
        (
            "svm",
            SvmModel::fit(ds, SvmParams::new(KernelKind::Rbf { gamma: 0.4 }, 4.0))
                .unwrap()
                .into(),
        ),
        (
            "mlp",
            Mlp::fit(
                ds,
                AnnParams {
                    epochs: 2,
                    ..AnnParams::small(1e-4, 0.01)
                },
            )
            .unwrap()
            .into(),
        ),
        ("naive-bayes", NaiveBayes::fit(ds).unwrap().into()),
        (
            "logreg",
            LogRegL1::fit_single(
                ds,
                1e-3,
                LogRegParams {
                    max_iter: 30,
                    ..Default::default()
                },
            )
            .unwrap()
            .into(),
        ),
        (
            "subset",
            SubsetModel {
                keep: vec![2],
                inner: Box::new(NaiveBayes::fit(&sub).unwrap().into()),
            }
            .into(),
        ),
    ]
}

fn empty_state(coalesce: CoalesceConfig) -> Arc<AppState> {
    let (state, loaded) = AppState::warm_full(
        tmp_dir("none"), // never created: empty registry
        WarmOptions {
            coalesce,
            ..WarmOptions::default()
        },
    )
    .unwrap();
    assert_eq!(loaded, 0);
    state
}

fn predict_request(model: &str, rows: &[Vec<u32>]) -> Request {
    let body = format!(
        "{{\"model\":\"{model}\",\"rows\":{}}}",
        serde_json::to_string(&rows.to_vec()).unwrap()
    );
    Request {
        method: "POST".into(),
        path: "/v1/predict".into(),
        query: String::new(),
        body: body.into_bytes(),
        keep_alive: false,
    }
}

/// Drives `count` concurrent predict requests through the handler, each on
/// its own thread with a responder claiming `depth` queued jobs (so the
/// coalescer holds batches open). Returns `(status, body)` per request, in
/// request order.
fn concurrent_predicts(
    handler: &hamlet_serve::http::Handler,
    requests: &[Request],
    depth: usize,
) -> Vec<(u16, String)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| {
                scope.spawn(move || {
                    let (responder, rx) = Responder::direct_with_depth(depth);
                    handler(req, responder);
                    let resp: Response = rx
                        .recv_timeout(Duration::from_secs(30))
                        .expect("request answered");
                    (resp.status, String::from_utf8(resp.body).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Bit-identical outputs, coalesced vs solo, for all 8 model families.
#[test]
fn coalesced_predicts_bitmatch_solo_for_every_family() {
    use rand::{Rng, SeedableRng};
    let ds = dict_dataset(3, 60);
    let cards = ds.cardinalities();
    let state_on = empty_state(CoalesceConfig {
        window: Duration::from_millis(100),
        max_rows: 512,
    });
    let state_off = empty_state(CoalesceConfig {
        window: Duration::ZERO, // disabled: the uncoalesced reference
        max_rows: 0,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
    for (tag, model) in all_families(&ds) {
        let name = format!("f-{tag}");
        state_on
            .registry
            .insert(artifact_for(model.clone(), &ds, &name));
        state_off
            .registry
            .insert(artifact_for(model.clone(), &ds, &name));
        // 16 concurrent requests of 1–4 rows each, random in-domain codes.
        let batches: Vec<Vec<Vec<u32>>> = (0..16)
            .map(|_| {
                (0..rng.gen_range(1..=4usize))
                    .map(|_| cards.iter().map(|&k| rng.gen_range(0..k)).collect())
                    .collect()
            })
            .collect();
        let requests: Vec<Request> = batches
            .iter()
            .map(|rows| predict_request(&name, rows))
            .collect();
        let on = concurrent_predicts(&router(Arc::clone(&state_on)), &requests, 16);
        let off = concurrent_predicts(&router(Arc::clone(&state_off)), &requests, 16);
        for (i, ((s_on, b_on), (s_off, b_off))) in on.iter().zip(&off).enumerate() {
            assert_eq!((s_on, s_off), (&200u16, &200u16), "{tag} req {i}: {b_on}");
            let r_on: PredictResponse = serde_json::from_str(b_on).unwrap();
            let r_off: PredictResponse = serde_json::from_str(b_off).unwrap();
            assert_eq!(
                r_on.labels, r_off.labels,
                "{tag} req {i}: coalesced and solo labels diverge"
            );
            // Ground truth straight from the model.
            let flat: Vec<u32> = batches[i].iter().flatten().copied().collect();
            assert_eq!(
                r_on.labels,
                model.predict_batch(&flat, cards.len()),
                "{tag} req {i}: labels diverge from the in-memory model"
            );
        }
    }
    let stats = state_on.coalescer.stats.snapshot();
    assert!(
        stats.merged_requests >= 2,
        "concurrent traffic never coalesced: {stats:?}"
    );
    let off_stats = state_off.coalescer.stats.snapshot();
    assert_eq!(off_stats.batches, 0, "disabled coalescer must stay idle");
    assert_eq!(off_stats.merged_requests, 0);
}

/// A bad row 4xxes only its own request: concurrent invalid requests never
/// poison the batches their valid neighbours merge into.
#[test]
fn per_request_error_isolation_under_coalescing() {
    let ds = dict_dataset(7, 40);
    let state = empty_state(CoalesceConfig {
        window: Duration::from_millis(80),
        max_rows: 512,
    });
    let model: AnyClassifier = MajorityClass::fit(&ds).into();
    state.registry.insert(artifact_for(model, &ds, "iso"));
    let handler = router(Arc::clone(&state));
    // Interleave valid rows with out-of-domain codes (99) and a ragged row.
    let requests: Vec<Request> = (0..12)
        .map(|i| match i % 3 {
            0 => predict_request("iso", &[vec![0, 0, 0]]),
            1 => predict_request("iso", &[vec![0, 99, 0]]),
            _ => predict_request("iso", &[vec![0, 0]]),
        })
        .collect();
    let results = concurrent_predicts(&handler, &requests, 12);
    for (i, (status, body)) in results.iter().enumerate() {
        match i % 3 {
            0 => {
                assert_eq!(*status, 200, "req {i}: {body}");
                let resp: PredictResponse = serde_json::from_str(body).unwrap();
                assert_eq!(resp.labels.len(), 1, "req {i}");
            }
            1 => {
                assert_eq!(*status, 400, "req {i}: {body}");
                assert!(body.contains("row 0"), "req {i}: {body}");
            }
            _ => {
                assert_eq!(*status, 400, "req {i}: {body}");
            }
        }
    }
}

/// A leader whose promised merge partners never arrive flushes at the
/// window, alone, with the correct answer (deterministic in-process
/// variant: the fixed-depth responder claims a second job that never
/// comes).
#[test]
fn window_timeout_flushes_a_leader_without_followers() {
    let ds = dict_dataset(11, 30);
    let state = empty_state(CoalesceConfig {
        window: Duration::from_millis(60),
        max_rows: 512,
    });
    let model: AnyClassifier = MajorityClass::fit(&ds).into();
    state
        .registry
        .insert(artifact_for(model.clone(), &ds, "win"));
    let handler = router(Arc::clone(&state));
    let t0 = Instant::now();
    let results = concurrent_predicts(&handler, &[predict_request("win", &[vec![0, 0, 0]])], 2);
    assert!(
        t0.elapsed() >= Duration::from_millis(50),
        "leader must wait out the window: {:?}",
        t0.elapsed()
    );
    assert_eq!(results[0].0, 200, "{}", results[0].1);
    let resp: PredictResponse = serde_json::from_str(&results[0].1).unwrap();
    assert_eq!(resp.labels, model.predict_batch(&[0, 0, 0], 3));
    let stats = state.coalescer.stats.snapshot();
    assert_eq!(stats.flush_timeout, 1, "{stats:?}");
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.merged_requests, 0, "nobody joined: not a merge");
    assert_eq!(stats.solo_requests, 1, "the lonely leader counts as solo");
}

/// The same flush observed end-to-end through a 1-executor server: the
/// lone executor leads a batch while the second request is stuck in the
/// job queue behind it, so the window must expire for either to answer.
#[test]
fn window_timeout_flush_under_a_one_executor_server() {
    use std::io::Write;
    let ds = dict_dataset(13, 30);
    let dir = tmp_dir("onexec");
    let model: AnyClassifier = MajorityClass::fit(&ds).into();
    artifact_for(model.clone(), &ds, "one").save(&dir).unwrap();
    let (state, _) = AppState::warm_full(
        dir.clone(),
        WarmOptions {
            coalesce: CoalesceConfig {
                window: Duration::from_millis(60),
                max_rows: 512,
            },
            ..WarmOptions::default()
        },
    )
    .unwrap();
    let server = hamlet_serve::server::serve_with(
        "127.0.0.1:0",
        hamlet_serve::http::ServerOptions {
            workers: 1,
            ..hamlet_serve::http::ServerOptions::default()
        },
        Arc::clone(&state),
    )
    .unwrap();
    let addr = server.addr();
    let body = "{\"model\":\"one\",\"rows\":[[0,0,0]]}";
    let request = format!(
        "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    // Two sockets fire simultaneously; with one executor, whichever
    // dispatches first leads a batch while the other waits in the queue
    // (visible via the depth gauge), so the leader can only flush by
    // timeout. The race of "did the executor check the gauge before the
    // second dispatch landed" is retried across rounds.
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut a = std::net::TcpStream::connect(addr).unwrap();
        let mut b = std::net::TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(20)); // both accepted
        a.write_all(request.as_bytes()).unwrap();
        b.write_all(request.as_bytes()).unwrap();
        let ra = hamlet_serve::http::read_response(&mut a).unwrap();
        let rb = hamlet_serve::http::read_response(&mut b).unwrap();
        assert_eq!((ra.status, rb.status), (200, 200));
        for raw in [&ra, &rb] {
            let resp: PredictResponse =
                serde_json::from_slice(&raw.body).expect("predict response");
            assert_eq!(resp.labels, model.predict_batch(&[0, 0, 0], 3));
        }
        let stats = state.coalescer.stats.snapshot();
        if stats.flush_timeout >= 1 {
            break;
        }
        assert!(
            rounds < 40,
            "no window-timeout flush observed in {rounds} rounds: {stats:?}"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Different models, and different *versions* of one model, never share a
/// batch: Majority models with opposite polarities make any cross-merge
/// visible as wrong labels.
#[test]
fn no_coalescing_across_models_or_pinned_versions() {
    let ds = dict_dataset(17, 30);
    let state = empty_state(CoalesceConfig {
        window: Duration::from_millis(120),
        max_rows: 512,
    });
    // m@1 answers `false`, m@2 (the latest) answers `true`, other@1 `false`.
    let mut v1 = artifact_for(
        AnyClassifier::Majority(MajorityClass { positive: false }),
        &ds,
        "m",
    );
    v1.version = 1;
    let mut v2 = artifact_for(
        AnyClassifier::Majority(MajorityClass { positive: true }),
        &ds,
        "m",
    );
    v2.version = 2;
    let other = artifact_for(
        AnyClassifier::Majority(MajorityClass { positive: false }),
        &ds,
        "other",
    );
    state.registry.insert(v1);
    state.registry.insert(v2);
    state.registry.insert(other);
    let handler = router(Arc::clone(&state));
    let requests: Vec<(Request, &str, bool)> = (0..12)
        .map(|i| match i % 3 {
            0 => (predict_request("m", &[vec![0, 0, 0]]), "m@2", true),
            1 => (predict_request("m@1", &[vec![0, 0, 0]]), "m@1", false),
            _ => (predict_request("other", &[vec![0, 0, 0]]), "other@1", false),
        })
        .collect();
    let reqs: Vec<Request> = requests.iter().map(|(r, _, _)| r.clone()).collect();
    let results = concurrent_predicts(&handler, &reqs, 12);
    for ((_, want_model, want_label), (status, body)) in requests.iter().zip(&results) {
        assert_eq!(*status, 200, "{body}");
        let resp: PredictResponse = serde_json::from_str(body).unwrap();
        assert_eq!(&resp.model, want_model, "{body}");
        assert_eq!(
            resp.labels,
            vec![*want_label],
            "cross-model/version merge detected: {body}"
        );
    }
}

/// End-to-end over real sockets with default coalescing: concurrent small
/// requests answer correctly, and the healthz counters account for every
/// request exactly once (merged or solo).
#[test]
fn e2e_concurrent_small_predicts_with_default_coalescing() {
    use rand::{Rng, SeedableRng};
    use std::io::Write;
    let ds = dict_dataset(19, 50);
    let cards = ds.cardinalities();
    let dir = tmp_dir("e2e");
    let model: AnyClassifier = DecisionTree::fit(
        &ds,
        TreeParams::new(SplitCriterion::Gini)
            .with_minsplit(2)
            .with_cp(0.0),
    )
    .unwrap()
    .into();
    artifact_for(model.clone(), &ds, "e2e").save(&dir).unwrap();
    let (state, _) = AppState::warm(dir.clone()).unwrap();
    let server = hamlet_serve::server::serve_with(
        "127.0.0.1:0",
        hamlet_serve::http::ServerOptions {
            workers: 2,
            ..hamlet_serve::http::ServerOptions::default()
        },
        Arc::clone(&state),
    )
    .unwrap();
    let addr = server.addr();

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE2E);
    let rows_per_client: Vec<Vec<u32>> = (0..32)
        .map(|_| cards.iter().map(|&k| rng.gen_range(0..k)).collect())
        .collect();
    let d = cards.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = rows_per_client
            .iter()
            .map(|row| {
                scope.spawn(move || {
                    let mut s = std::net::TcpStream::connect(addr).unwrap();
                    let body = format!(
                        "{{\"model\":\"e2e\",\"rows\":[{}]}}",
                        serde_json::to_string(row).unwrap()
                    );
                    let request = format!(
                        "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
                         Connection: close\r\n\r\n{body}",
                        body.len()
                    );
                    s.write_all(request.as_bytes()).unwrap();
                    let resp = hamlet_serve::http::read_response(&mut s).unwrap();
                    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                    let parsed: PredictResponse = serde_json::from_slice(&resp.body).unwrap();
                    parsed.labels
                })
            })
            .collect();
        for (row, h) in rows_per_client.iter().zip(handles) {
            assert_eq!(
                h.join().unwrap(),
                model.predict_batch(row, d),
                "row {row:?}"
            );
        }
    });
    let stats = state.coalescer.stats.snapshot();
    assert_eq!(
        stats.merged_requests + stats.solo_requests,
        32,
        "every predict is accounted exactly once: {stats:?}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
