//! Serving-layer microbenchmarks: the enum-dispatch predict hot path vs the
//! boxed-trait-object path, batch throughput through `predict_batch`,
//! saturation (one ~20k-row batch on one thread), the
//! reactor's idle-keep-alive headline (HTTP predict throughput with 0 vs
//! 256 parked connections), raw label encoding, and artifact save/load
//! costs.
//!
//! Run with `cargo bench -p hamlet-bench --bench serve_latency`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hamlet_core::experiment::run_experiment_with_model;
use hamlet_core::feature_config::{build_dataset, build_splits, FeatureConfig};
use hamlet_core::model_zoo::{Budget, ModelSpec};
use hamlet_datagen::prelude::*;
use hamlet_ml::any::AnyClassifier;
use hamlet_ml::model::Classifier;
use hamlet_serve::artifact::{ModelArtifact, TrainingMetadata, FORMAT_VERSION};
use hamlet_serve::http::ServerOptions;
use hamlet_serve::server::{serve_with, AppState};

fn trained_tree() -> (AnyClassifier, Vec<u32>, usize, GeneratedStar) {
    let g = onexr::generate(OneXrParams {
        n_s: 1200,
        n_r: 100,
        ..Default::default()
    });
    let config = FeatureConfig::NoJoin;
    let trained =
        run_experiment_with_model(&g, ModelSpec::TreeGini, &config, &Budget::quick()).unwrap();
    let data = build_splits(&g, &config).unwrap();
    let d = data.test.n_features();
    let mut rows = Vec::with_capacity(data.test.n_rows() * d);
    for i in 0..data.test.n_rows() {
        rows.extend_from_slice(data.test.row(i));
    }
    (trained.model, rows, d, g)
}

fn predict_dispatch(c: &mut Criterion) {
    let (model, rows, d, _g) = trained_tree();
    let boxed: Box<dyn Classifier> = Box::new(model.clone());
    let first_row = &rows[..d];

    let mut group = c.benchmark_group("predict_row");
    group.bench_function("enum_dispatch", |b| {
        b.iter(|| black_box(model.predict_row(black_box(first_row))))
    });
    group.bench_function("boxed_dyn", |b| {
        b.iter(|| black_box(boxed.predict_row(black_box(first_row))))
    });
    group.finish();
}

fn predict_batch_throughput(c: &mut Criterion) {
    let (model, rows, d, _g) = trained_tree();
    let n = rows.len() / d;
    c.bench_function(&format!("predict_batch/n{n}"), |b| {
        b.iter(|| black_box(model.predict_batch(black_box(&rows), d)))
    });
}

/// Saturation case: one ~20k-row predict batch on a single thread — the
/// way `/v1/predict` runs it, on the executor that owns the request.
fn predict_batch_saturation(c: &mut Criterion) {
    let (model, rows, d, _g) = trained_tree();
    // Tile the holdout rows up to ~20k rows — the "one huge client batch"
    // shape.
    let base_n = rows.len() / d;
    let reps = 20_000usize.div_ceil(base_n);
    let mut big = Vec::with_capacity(rows.len() * reps);
    for _ in 0..reps {
        big.extend_from_slice(&rows);
    }
    let n = big.len() / d;

    let mut group = c.benchmark_group(format!("serve_saturation/n{n}"));
    group.bench_function("single_thread", |b| {
        b.iter(|| black_box(model.predict_batch(black_box(&big), d)))
    });
    group.finish();
}

/// Reads one HTTP response off a keep-alive socket, returning its body.
fn read_one_response(s: &mut TcpStream) -> Vec<u8> {
    hamlet_serve::http::read_response(s)
        .expect("one response")
        .body
}

/// The reactor's headline: end-to-end HTTP predict throughput with 0 vs
/// 256 *idle* keep-alive connections parked on the server. Before the
/// epoll refactor every parked connection pinned a worker thread, so 256
/// parked connections starved the pool outright; with the reactor they
/// must cost (close to) nothing.
fn idle_keepalive_throughput(c: &mut Criterion) {
    let (model, rows, d, g) = trained_tree();
    let dir = std::env::temp_dir().join(format!("hamlet-bench-idle-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (state, _) = AppState::warm(dir.clone()).unwrap();
    let contract = build_dataset(&g.star, &FeatureConfig::NoJoin)
        .unwrap()
        .contract();
    state.registry.insert(ModelArtifact {
        format_version: FORMAT_VERSION,
        name: "bench-idle".into(),
        version: 1,
        model,
        feature_config: FeatureConfig::NoJoin,
        contract,
        schema_fingerprint: g.star.fingerprint(),
        metadata: TrainingMetadata {
            dataset: "onexr".into(),
            spec: ModelSpec::TreeGini,
            train_rows: g.n_train,
            metrics: hamlet_core::experiment::RunResult {
                model: "DT-Gini".into(),
                config: "NoJoin".into(),
                train_accuracy: 0.0,
                val_accuracy: 0.0,
                test_accuracy: 0.0,
                seconds: 0.0,
                winner: String::new(),
            },
        },
    });
    let server = serve_with(
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            max_conns: 2048,
            // Parked connections must survive the whole measurement.
            idle_timeout: Duration::from_secs(3600),
            ..ServerOptions::default()
        },
        Arc::clone(&state),
    )
    .unwrap();
    let addr = server.addr();

    // A fixed 64-row predict request, sent over one keep-alive socket.
    let coded: Vec<Vec<u32>> = rows.chunks_exact(d).take(64).map(<[u32]>::to_vec).collect();
    let request_body = format!(
        "{{\"model\":\"bench-idle\",\"rows\":{}}}",
        serde_json::to_string(&coded).unwrap()
    );
    let request = format!(
        "POST /v1/predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{request_body}",
        request_body.len()
    );

    let mut group = c.benchmark_group("idle_keepalive");
    let mut parked: Vec<TcpStream> = Vec::new();
    for n_parked in [0usize, 256] {
        while parked.len() < n_parked {
            let mut s = TcpStream::connect(addr).expect("park");
            // One real request each, so every parked socket is a live
            // keep-alive connection in the reactor, not an unused fd.
            s.write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
                .unwrap();
            read_one_response(&mut s);
            parked.push(s);
        }
        // The server closes keep-alive sockets after 100 requests (the
        // per-connection cap), so the bench client reconnects shy of it.
        let mut client = TcpStream::connect(addr).expect("bench client");
        client.set_nodelay(true).unwrap();
        let mut served = 0usize;
        group.bench_function(format!("predict64/parked{n_parked}"), |b| {
            b.iter(|| {
                if served + 1 >= hamlet_serve::http::MAX_KEEPALIVE_REQUESTS {
                    client = TcpStream::connect(addr).expect("bench reconnect");
                    client.set_nodelay(true).unwrap();
                    served = 0;
                }
                served += 1;
                client.write_all(request.as_bytes()).unwrap();
                black_box(read_one_response(&mut client));
            })
        });
    }
    group.finish();
    drop(parked);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Cost of the server-side dictionary encoding that `rows_raw` adds on top
/// of a pre-encoded predict.
fn raw_encode_overhead(c: &mut Criterion) {
    let (_model, rows, d, g) = trained_tree();
    let contract = build_dataset(&g.star, &FeatureConfig::NoJoin)
        .unwrap()
        .contract();
    let coded: Vec<Vec<u32>> = rows.chunks_exact(d).map(<[u32]>::to_vec).collect();
    let raw: Vec<Vec<String>> = coded
        .iter()
        .map(|r| contract.decode_row(r).unwrap())
        .collect();
    let n = coded.len();
    let mut group = c.benchmark_group(format!("ingest/n{n}"));
    group.bench_function("validate_coded", |b| {
        b.iter(|| black_box(contract.validate_batch(black_box(&coded)).unwrap()))
    });
    group.bench_function("encode_raw", |b| {
        b.iter(|| black_box(contract.encode_batch(black_box(&raw)).unwrap()))
    });
    group.finish();
}

fn artifact_io(c: &mut Criterion) {
    let (model, _rows, _d, g) = trained_tree();
    let config = FeatureConfig::NoJoin;
    let contract = build_dataset(&g.star, &config).unwrap().contract();
    let artifact = ModelArtifact {
        format_version: FORMAT_VERSION,
        name: "bench-tree".into(),
        version: 1,
        model,
        feature_config: config,
        contract,
        schema_fingerprint: g.star.fingerprint(),
        metadata: TrainingMetadata {
            dataset: "onexr".into(),
            spec: ModelSpec::TreeGini,
            train_rows: g.n_train,
            metrics: hamlet_core::experiment::RunResult {
                model: "DT-Gini".into(),
                config: "NoJoin".into(),
                train_accuracy: 0.0,
                val_accuracy: 0.0,
                test_accuracy: 0.0,
                seconds: 0.0,
                winner: String::new(),
            },
        },
    };
    let dir = std::env::temp_dir().join(format!("hamlet-bench-art-{}", std::process::id()));
    let path = artifact.save(&dir).unwrap();

    let mut group = c.benchmark_group("artifact");
    group.bench_function("save", |b| b.iter(|| artifact.save(&dir).unwrap()));
    group.bench_function("load", |b| b.iter(|| ModelArtifact::load(&path).unwrap()));
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    benches,
    predict_dispatch,
    predict_batch_throughput,
    predict_batch_saturation,
    idle_keepalive_throughput,
    raw_encode_overhead,
    artifact_io
);
criterion_main!(benches);
