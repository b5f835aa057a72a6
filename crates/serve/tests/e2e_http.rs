//! End-to-end serving test over a real TCP socket: boot on an ephemeral
//! port, train + persist an artifact, restart the server from disk, and
//! check `/healthz`, `/v1/models`, `/v1/predict` and `/v1/advise` answer
//! correctly — with `/v1/predict` matching in-process `Classifier::predict`
//! for both pre-encoded codes and raw label strings, and `/v1/advise`
//! matching `hamlet_core::advisor::advise`. Also drives the keep-alive path:
//! one socket, many requests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use hamlet_core::advisor::{advise, DimStats};
use hamlet_core::feature_config::{build_dataset, build_splits, FeatureConfig};
use hamlet_core::model_zoo::{ModelFamily, ModelSpec};
use hamlet_datagen::prelude::*;
use hamlet_ml::model::Classifier;
use hamlet_serve::api::{
    AdviseRequest, AdviseResponse, ExplainRequest, ExplainResponse, Health, ModelsResponse,
    PredictRequest, PredictResponse, TrainRequest,
};
use hamlet_serve::artifact::{ModelArtifact, TrainingMetadata, FORMAT_VERSION};
use hamlet_serve::server::{serve, AppState};
use hamlet_serve::train::train_and_register;

/// Minimal HTTP client: one request, returns (status, body).
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

/// A persistent keep-alive client: every request rides the same socket.
struct KeepAliveClient {
    reader: BufReader<TcpStream>,
}

impl KeepAliveClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        KeepAliveClient {
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request with `Connection: keep-alive` and reads exactly one
    /// response (headers + Content-Length body), leaving the socket open.
    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        self.reader
            .get_mut()
            .write_all(request.as_bytes())
            .expect("send");
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        let mut keep_alive = false;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("Content-Length: ") {
                content_length = v.trim().parse().expect("length");
            }
            if line.eq_ignore_ascii_case("connection: keep-alive") {
                keep_alive = true;
            }
        }
        assert!(keep_alive, "server must honour Connection: keep-alive");
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("utf-8 body"))
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamlet-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn full_train_restart_predict_advise_cycle() {
    let dir = tmp_dir("cycle");

    // ---- Phase 1: a "first process" trains and persists a model. ----
    let g = EmulatorSpec::movies().generate_scaled(1200, 7);
    let (state1, loaded) = AppState::warm(dir.clone()).unwrap();
    assert_eq!(loaded, 0, "fresh dir starts empty");
    let train_req = TrainRequest {
        name: "movies-tree".into(),
        dataset: "movies".into(),
        spec: ModelSpec::TreeGini,
        config: Some(FeatureConfig::NoJoin),
        scale: Some(1200),
        seed: Some(7),
        full_budget: None,
    };
    let trained = train_and_register(&state1.registry, &state1.artifact_dir, &train_req).unwrap();
    assert_eq!(trained.key, "movies-tree@1");
    drop(state1); // "process exit"

    // ---- Phase 2: a fresh server boots from the artifact directory. ----
    let (state2, loaded) = AppState::warm(dir.clone()).unwrap();
    assert_eq!(loaded, 1, "artifact survives restart");
    let server = serve("127.0.0.1:0", 2, Arc::clone(&state2)).unwrap();
    let addr = server.addr();

    // /healthz
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let health: Health = serde_json::from_str(&body).unwrap();
    assert_eq!(health.status, "ok");
    assert_eq!(health.models, 1);

    // /v1/models
    let (status, body) = http(addr, "GET", "/v1/models", "");
    assert_eq!(status, 200, "{body}");
    let models: ModelsResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(models.models.len(), 1);
    assert_eq!(models.models[0].key, "movies-tree@1");
    assert_eq!(models.models[0].config, "NoJoin");

    // /v1/predict over the full holdout split, compared against in-process
    // Classifier::predict of the same artifact — all of it through one
    // keep-alive connection.
    let artifact = state2.registry.get("movies-tree").unwrap();
    let data = build_splits(&g, &FeatureConfig::NoJoin).unwrap();
    let rows: Vec<Vec<u32>> = (0..data.test.n_rows())
        .map(|i| data.test.row(i).to_vec())
        .collect();
    let expected = artifact.model.predict(&data.test);
    let mut client = KeepAliveClient::connect(addr);
    let (status, body) = client.request(
        "POST",
        "/v1/predict",
        &serde_json::to_string(&PredictRequest {
            model: "movies-tree".into(),
            rows: Some(rows.clone()),
            rows_raw: None,
        })
        .unwrap(),
    );
    assert_eq!(status, 200, "{body}");
    let predicted: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(predicted.model, "movies-tree@1");
    assert_eq!(
        predicted.labels, expected,
        "HTTP predictions must match in-process Classifier::predict"
    );
    assert!(predicted.latency_ms >= 0.0);

    // Same batch as raw label strings (decoded through the artifact's own
    // v2 contract) — the server-side dictionary encoding must produce
    // bit-identical predictions, on the same keep-alive socket.
    assert!(artifact.contract.has_domains(), "freshly trained = v2");
    let rows_raw: Vec<Vec<String>> = rows
        .iter()
        .map(|r| artifact.contract.decode_row(r).unwrap())
        .collect();
    let (status, body) = client.request(
        "POST",
        "/v1/predict",
        &serde_json::to_string(&PredictRequest {
            model: "movies-tree".into(),
            rows: None,
            rows_raw: Some(rows_raw),
        })
        .unwrap(),
    );
    assert_eq!(status, 200, "{body}");
    let raw_predicted: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(
        raw_predicted.labels, expected,
        "raw-string predictions must bit-match pre-encoded rows"
    );

    // The keep-alive socket keeps answering cheap requests too.
    let (status, body) = client.request("GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");

    // /v1/advise with the generated star's true statistics, compared against
    // the in-process advisor on the star itself.
    let dims: Vec<DimStats> = g
        .star
        .dims()
        .iter()
        .map(|d| DimStats {
            name: d.table.name().to_string(),
            n_rows: d.n_rows(),
            open_domain: d.open_domain,
        })
        .collect();
    let (status, body) = http(
        addr,
        "POST",
        "/v1/advise",
        &serde_json::to_string(&AdviseRequest {
            family: ModelFamily::TreeOrAnn,
            n_train: g.n_train,
            dims,
        })
        .unwrap(),
    );
    assert_eq!(status, 200, "{body}");
    let got: AdviseResponse = serde_json::from_str(&body).unwrap();
    let want = advise(&g.star, g.n_train, ModelFamily::TreeOrAnn);
    assert_eq!(got.dimensions.len(), want.dimensions.len());
    for (g_dim, w_dim) in got.dimensions.iter().zip(&want.dimensions) {
        assert_eq!(g_dim.dimension, w_dim.dimension);
        assert_eq!(g_dim.advice, w_dim.advice, "{}", g_dim.dimension);
        assert!((g_dim.tuple_ratio - w_dim.tuple_ratio).abs() < 1e-12);
    }

    // Bad prediction input: wrong width must be a 400, not a panic.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/predict",
        "{\"model\":\"movies-tree\",\"rows\":[[0]]}",
    );
    assert_eq!(status, 400, "{body}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The reactor acceptance scenario: 4 executors serving 64 concurrent
/// keep-alive connections. All 64 park idle after a first request; a fresh
/// client's `/v1/predict` must be answered promptly (idle connections cost
/// no worker threads), `/v1/explain` must decode the predicted rows back to
/// label strings on a keep-alive socket, and every parked connection must
/// still be answerable afterwards.
#[test]
fn sixty_four_idle_keepalive_connections_do_not_block_new_clients() {
    let dir = tmp_dir("idle64");
    let (state, _) = AppState::warm(dir.clone()).unwrap();
    // A real (if quickly fit) model: NoJoin features over the 1:n scenario
    // generator, so the contract carries true dictionaries for /v1/explain.
    let g = onexr::generate(OneXrParams {
        n_s: 400,
        n_r: 20,
        ..Default::default()
    });
    let ds = build_dataset(&g.star, &FeatureConfig::NoJoin).unwrap();
    let model = hamlet_ml::naive_bayes::NaiveBayes::fit(&ds).unwrap();
    state.registry.insert(ModelArtifact {
        format_version: FORMAT_VERSION,
        name: "idle-nb".into(),
        version: 1,
        model: model.into(),
        feature_config: FeatureConfig::NoJoin,
        contract: ds.contract(),
        schema_fingerprint: g.star.fingerprint(),
        metadata: TrainingMetadata {
            dataset: "onexr".into(),
            spec: ModelSpec::NaiveBayesBfs,
            train_rows: ds.n_rows(),
            metrics: hamlet_core::experiment::RunResult {
                model: "NB".into(),
                config: "NoJoin".into(),
                train_accuracy: 0.0,
                val_accuracy: 0.0,
                test_accuracy: 0.0,
                seconds: 0.0,
                winner: String::new(),
            },
        },
    });
    let server = serve("127.0.0.1:0", 4, Arc::clone(&state)).unwrap();
    let addr = server.addr();

    // Park 64 keep-alive connections, each proven live with one request.
    let mut parked: Vec<KeepAliveClient> = (0..64)
        .map(|i| {
            let mut client = KeepAliveClient::connect(addr);
            let (status, body) = client.request("GET", "/healthz", "");
            assert_eq!(status, 200, "parked connection {i}: {body}");
            client
        })
        .collect();

    // A fresh connection predicts promptly despite 64 open sockets on 4
    // executors (16x oversubscription under the old thread-per-connection
    // model).
    let rows: Vec<Vec<u32>> = (0..4).map(|i| ds.row(i).to_vec()).collect();
    let start = std::time::Instant::now();
    let (status, body) = http(
        addr,
        "POST",
        "/v1/predict",
        &serde_json::to_string(&PredictRequest {
            model: "idle-nb".into(),
            rows: Some(rows.clone()),
            rows_raw: None,
        })
        .unwrap(),
    );
    let latency = start.elapsed();
    assert_eq!(status, 200, "{body}");
    let predicted: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(predicted.labels.len(), 4);
    assert!(
        latency < std::time::Duration::from_secs(5),
        "fresh predict took {latency:?} behind 64 idle connections"
    );

    // /v1/explain end-to-end on a keep-alive socket: codes decode to the
    // exact labels the contract holds.
    let mut ka = KeepAliveClient::connect(addr);
    let (status, body) = ka.request(
        "POST",
        "/v1/explain",
        &serde_json::to_string(&ExplainRequest {
            model: "idle-nb".into(),
            rows: rows.clone(),
        })
        .unwrap(),
    );
    assert_eq!(status, 200, "{body}");
    let explained: ExplainResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(explained.model, "idle-nb@1");
    let artifact = state.registry.get("idle-nb").unwrap();
    for (row, labels) in rows.iter().zip(&explained.rows_raw) {
        assert_eq!(
            labels,
            &artifact.contract.decode_row(row).unwrap(),
            "HTTP explain must match in-process decode_row"
        );
    }

    // Every parked connection is still live and answers again.
    for (i, client) in parked.iter_mut().enumerate() {
        let (status, _) = client.request("GET", "/healthz", "");
        assert_eq!(status, 200, "parked connection {i} died while idle");
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_batched_predictions_are_consistent() {
    let dir = tmp_dir("conc");
    let (state, _) = AppState::warm(dir.clone()).unwrap();
    let train_req = TrainRequest {
        name: "onexr-nb".into(),
        dataset: "onexr".into(),
        spec: ModelSpec::NaiveBayesBfs,
        config: None,
        scale: Some(600),
        seed: Some(11),
        full_budget: None,
    };
    train_and_register(&state.registry, &state.artifact_dir, &train_req).unwrap();
    let server = serve("127.0.0.1:0", 4, Arc::clone(&state)).unwrap();
    let addr = server.addr();

    let artifact = state.registry.get("onexr-nb").unwrap();
    let d = artifact.features().len();
    // One fixed batch; every thread must get the identical answer.
    let rows: Vec<Vec<u32>> = (0..32)
        .map(|i| {
            (0..d)
                .map(|j| (i as u32 + j as u32) % artifact.features()[j].cardinality)
                .collect()
        })
        .collect();
    let body = serde_json::to_string(&PredictRequest {
        model: "onexr-nb".into(),
        rows: Some(rows),
        rows_raw: None,
    })
    .unwrap();

    let mut answers = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || http(addr, "POST", "/v1/predict", &body))
            })
            .collect();
        for h in handles {
            answers.push(h.join().unwrap());
        }
    });
    let first: PredictResponse = serde_json::from_str(&answers[0].1).unwrap();
    assert_eq!(first.labels.len(), 32);
    for (status, body) in &answers {
        assert_eq!(*status, 200);
        let r: PredictResponse = serde_json::from_str(body).unwrap();
        assert_eq!(r.labels, first.labels);
    }

    // A large batch runs sequentially on the executor that owns it and
    // must bit-match the in-process predict.
    let n_large = 4096;
    let rows: Vec<Vec<u32>> = (0..n_large)
        .map(|i| {
            (0..d)
                .map(|j| (i as u32 * 7 + j as u32) % artifact.features()[j].cardinality)
                .collect()
        })
        .collect();
    let flat: Vec<u32> = rows.iter().flatten().copied().collect();
    let expected = artifact.model.predict_batch(&flat, d);
    let (status, body) = http(
        addr,
        "POST",
        "/v1/predict",
        &serde_json::to_string(&PredictRequest {
            model: "onexr-nb".into(),
            rows: Some(rows),
            rows_raw: None,
        })
        .unwrap(),
    );
    assert_eq!(status, 200);
    let large: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(
        large.labels, expected,
        "a 4096-row served predict must be bit-identical to predict_batch"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
