//! The traced run's in-process half: the same generated requests replayed
//! through each layer's public functions, one span around every call.
//! Spans come from this file only; nothing inside the server is
//! instrumented.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_ml::any::{AnyClassifier, MIN_ROWS_PER_SHARD};
use hamlet_serve::api::{PredictRequest, PredictResponse, TrainRequest};
use hamlet_serve::artifact::LoadMode;
use hamlet_serve::http::{Handler, Request, Responder};
use hamlet_serve::registry::ModelRegistry;
use hamlet_serve::rollout::{ObserveStore, ObservedRow, OBSERVE_CAP_ROWS};
use hamlet_serve::server::{execute_batch, router, AppState};

use crate::client::{Op, PER_CONN_REQUESTS};
use crate::prep::{Prepared, CASCADE, DATASET, MLP, MLP_I8, SCALE, TREE};
use crate::trace::{Span, Tracer};

/// `registry.get` is timed over this many back-to-back calls, since one
/// call is close to the clock's own cost.
pub const GET_REPS: u32 = 16;

/// Repetitions of each kernel call in the sweep.
const KERNEL_REPS: usize = 300;

/// Rows per batch-kernel call in the sweep.
pub const BATCH_ROWS: usize = 64;

/// The cascade sweep passes segments of 1..=this many rows...
const CASCADE_SEGMENTS: usize = 8;

/// ...so each call classifies this many rows.
pub const CASCADE_ROWS: usize = CASCADE_SEGMENTS * (CASCADE_SEGMENTS + 1) / 2;

/// A server state built in process from a copy of the artifacts.
pub struct InProc {
    state: Arc<AppState>,
    handler: Handler,
}

impl InProc {
    pub fn boot(art: &Path) -> Result<InProc, String> {
        let (state, _) = AppState::warm(art.to_path_buf()).map_err(|e| e.to_string())?;
        let handler = router(Arc::clone(&state));
        Ok(InProc { state, handler })
    }
}

/// Replays predict requests one at a time for `dur`: over the socket, then
/// through the router in process, then through each layer the router
/// calls. Every request gets a `request` root span with children
/// `http.roundtrip`, `server.router`, `api.decode`, `registry.get`,
/// `artifact.validate`, `server.execute` and `api.encode`. Returns
/// (attempted, failed, first error).
pub fn decompose(
    addr: SocketAddr,
    inproc: &InProc,
    bodies: &[String],
    ops: &[Op],
    dur: Duration,
    tracer: &mut Tracer,
    req_base: u64,
) -> (u64, u64, Option<String>) {
    let state = &inproc.state;
    let mut stream: Option<TcpStream> = None;
    let mut sent_on = 0;
    let (mut attempted, mut failed, mut first_error) = (0u64, 0u64, None);
    let mut fail = |failed: &mut u64, why: String| {
        *failed += 1;
        first_error.get_or_insert(why);
    };
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < dur {
        let (body, op) = (&bodies[i % bodies.len()], &ops[i % ops.len()]);
        i += 1;
        let req = req_base + i as u64;
        attempted += 1;
        let root = Instant::now();

        if sent_on >= PER_CONN_REQUESTS {
            stream = None;
        }
        let s = match stream.as_mut() {
            Some(s) => s,
            None => match TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|_| s)) {
                Ok(s) => {
                    sent_on = 0;
                    stream.insert(s)
                }
                Err(e) => {
                    fail(&mut failed, format!("connect: {e}"));
                    continue;
                }
            },
        };
        sent_on += 1;
        let t0 = Instant::now();
        let answer = s
            .write_all(&op.http)
            .and_then(|_| hamlet_serve::http::read_response(s));
        tracer.record_child("http.roundtrip", req, t0, Instant::now());
        // One failure per request at most: a failed step skips the rest.
        match answer {
            Ok(r) => {
                let answer = String::from_utf8_lossy(&r.body);
                if let Err(why) = crate::client::verify(op, r.status, &answer) {
                    fail(&mut failed, why);
                    continue;
                }
            }
            Err(e) => {
                fail(&mut failed, format!("roundtrip: {e}"));
                stream = None;
                continue;
            }
        }

        let request = Request {
            method: "POST".into(),
            path: "/v1/predict".into(),
            query: String::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        };
        let (responder, rx) = Responder::direct();
        let t0 = Instant::now();
        (inproc.handler)(&request, responder);
        let routed = rx.recv();
        tracer.record_child("server.router", req, t0, Instant::now());
        if !matches!(routed, Ok(ref r) if r.status == 200) {
            fail(&mut failed, "in-process router did not answer 200".into());
            continue;
        }

        let decoded: Result<PredictRequest, _> = tracer.child("api.decode", req, || {
            serde_json::from_slice(body.as_bytes())
        });
        let Ok(decoded) = decoded else {
            fail(&mut failed, "request body does not decode".into());
            continue;
        };
        let artifact = tracer.child("registry.get", req, || {
            for _ in 1..GET_REPS {
                let _ = black_box(state.registry.get(black_box(&decoded.model)));
            }
            state.registry.get(&decoded.model)
        });
        let Ok(artifact) = artifact else {
            fail(&mut failed, format!("model {} not found", decoded.model));
            continue;
        };
        let rows = decoded.rows.as_deref().unwrap_or_default();
        let Ok(flat) = tracer.child("artifact.validate", req, || artifact.validate_coded(rows))
        else {
            fail(&mut failed, "rows do not validate".into());
            continue;
        };
        let d = artifact.contract.width();
        let mut labels = tracer.child("server.execute", req, || {
            execute_batch(state, &artifact, &[&flat], d)
        });
        let labels = labels.pop().unwrap_or_default();
        let tiers =
            matches!(artifact.model, AnyClassifier::Cascade(_)).then(|| vec![0u8; labels.len()]);
        let response = PredictResponse {
            model: artifact.key(),
            labels,
            tiers,
            tier_confidence: None,
            latency_ms: 0.0,
        };
        let _ = tracer.child("api.encode", req, || {
            black_box(serde_json::to_string(&response))
        });
        tracer.record_root("request", req, root, Instant::now());
    }
    (attempted, failed, first_error)
}

/// Per-request `(http.net, router self)` in nanoseconds from the
/// decomposition spans: the socket round trip minus the direct router call,
/// and the router call minus the layer calls it is made of.
pub fn net_and_router_self(spans: &[Span]) -> (Vec<u64>, Vec<u64>) {
    let mut by_req: HashMap<u64, HashMap<&str, u64>> = HashMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().insert(s.name, s.dur_ns());
    }
    let (mut net, mut own) = (Vec::new(), Vec::new());
    for parts in by_req.values() {
        if !parts.contains_key("request") {
            continue;
        }
        let get = |n: &str| parts.get(n).copied().unwrap_or(0) as i64;
        let router = get("server.router");
        net.push((get("http.roundtrip") - router).max(0) as u64);
        let layers = get("api.decode")
            + get("registry.get") / i64::from(GET_REPS)
            + get("artifact.validate")
            + get("server.execute")
            + get("api.encode");
        own.push((router - layers).max(0) as u64);
    }
    (net, own)
}

/// Times each layer's own entry point on the run's inputs: the batch
/// kernels, the cascade, the observe append, dataset generation, training
/// and the registry warm-load.
pub fn sweep(
    inproc: &InProc,
    p: &Prepared,
    observe_src: &[(Vec<Vec<u32>>, Vec<bool>)],
    work: &Path,
    art_copy: &Path,
    tracer: &mut Tracer,
    req_base: u64,
) -> Result<(), String> {
    let state = &inproc.state;
    let d = p.d;
    let mut req = req_base;
    let mut next = || {
        req += 1;
        req
    };
    let offset = (p.star_seed as usize) % p.n_rows();
    let batch: Vec<u32> = (offset..offset + BATCH_ROWS)
        .flat_map(|i| p.row(i % p.n_rows()).to_vec())
        .collect();
    for (name, model) in [
        ("ml.predict.tree", TREE),
        ("ml.predict.f32", MLP),
        ("ml.predict.i8", MLP_I8),
    ] {
        let artifact = state.registry.get(model).map_err(|e| e.to_string())?;
        for _ in 0..KERNEL_REPS {
            let r = next();
            tracer.root(name, r, || {
                black_box(artifact.model.predict_segments_sharded(
                    &[black_box(&batch)],
                    d,
                    1,
                    MIN_ROWS_PER_SHARD,
                ))
            });
        }
    }

    // Segments of 1..=8 rows, as coalesced cascade requests arrive.
    let mut segments: Vec<&[u32]> = Vec::new();
    let mut at = 0;
    for n in 1..=CASCADE_SEGMENTS {
        segments.push(&batch[at * d..(at + n) * d]);
        at += n;
    }
    let casc = state.registry.get(CASCADE).map_err(|e| e.to_string())?;
    let AnyClassifier::Cascade(c) = &casc.model else {
        return Err(format!("{CASCADE} is not a cascade"));
    };
    for _ in 0..KERNEL_REPS {
        let r = next();
        tracer.root("cascade.predict", r, || {
            black_box(c.predict_segments_tiered(black_box(&segments), d, 1, MIN_ROWS_PER_SHARD))
        });
    }

    let store = ObserveStore::open(&work.join("observe-probe"), OBSERVE_CAP_ROWS);
    for (rows, labels) in observe_src.iter().take(100) {
        let observed: Vec<ObservedRow> = rows
            .iter()
            .zip(labels)
            .map(|(codes, &label)| ObservedRow {
                codes: codes.clone(),
                label,
            })
            .collect();
        let r = next();
        tracer
            .root("rollout.observe_append", r, || {
                store.append(TREE, &observed)
            })
            .map_err(|e| e.to_string())?;
    }

    for _ in 0..5 {
        let r = next();
        tracer
            .root("datagen.resolve", r, || {
                hamlet_serve::train::resolve_dataset(DATASET, SCALE, p.star_seed)
            })
            .map_err(|e| e.to_string())?;
    }

    let registry = ModelRegistry::new();
    let train_dir = work.join("train-probe");
    for k in 0..6 {
        let (name, config) = if k % 2 == 0 {
            ("train.nojoin", FeatureConfig::NoJoin)
        } else {
            ("train.joinall", FeatureConfig::JoinAll)
        };
        let request = TrainRequest {
            name: "probe".into(),
            dataset: DATASET.into(),
            spec: ModelSpec::Ann,
            config: Some(config),
            scale: Some(SCALE),
            seed: None,
            full_budget: None,
        };
        let r = next();
        tracer
            .root(name, r, || {
                hamlet_serve::train::train_and_register(&registry, &train_dir, &request)
            })
            .map_err(|e| e.to_string())?;
    }

    for _ in 0..5 {
        let r = next();
        tracer
            .root("artifact.warm_load", r, || {
                ModelRegistry::warm_load_with(art_copy, LoadMode::Heap)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
