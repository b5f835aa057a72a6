//! Serving-path correctness for tiered cascades: threshold-0 and
//! threshold-1 cascades are byte-identical (labels) to their single-tier
//! equivalents through the full artifact save → warm-load → `/v1/predict`
//! path; batched execution (which partitions and re-packs ambiguous rows
//! between tiers) bit-matches per-row solo requests; and a zero-copy mmap
//! load serves exactly what the heap load serves.

use std::path::PathBuf;

use hamlet_core::feature_config::{build_dataset, FeatureConfig};
use hamlet_datagen::prelude::*;
use hamlet_ml::ann::{AnnParams, Mlp};
use hamlet_ml::any::AnyClassifier;
use hamlet_ml::cascade::{Calibrator, CascadeModel, CascadeTier};
use hamlet_ml::dataset::CatDataset;
use hamlet_ml::tree::{DecisionTree, SplitCriterion, TreeParams};
use hamlet_serve::api::PredictResponse;
use hamlet_serve::artifact::{LoadMode, ModelArtifact, TrainingMetadata, FORMAT_VERSION};
use hamlet_serve::http::{Request, Responder, Response};
use hamlet_serve::server::{router, AppState, WarmOptions};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamlet-casc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn dataset() -> CatDataset {
    let g = onexr::generate(OneXrParams {
        n_s: 200,
        n_r: 8,
        ..Default::default()
    });
    build_dataset(&g.star, &FeatureConfig::NoJoin).unwrap()
}

fn tree(ds: &CatDataset) -> AnyClassifier {
    DecisionTree::fit(
        ds,
        TreeParams::new(SplitCriterion::Gini)
            .with_minsplit(2)
            .with_cp(0.0),
    )
    .unwrap()
    .into()
}

fn mlp(ds: &CatDataset) -> AnyClassifier {
    Mlp::fit(
        ds,
        AnnParams {
            epochs: 3,
            ..AnnParams::small(1e-4, 0.01)
        },
    )
    .unwrap()
    .into()
}

/// A tree→MLP cascade with a Platt-calibrated front tier. `threshold`
/// picks the short-circuit bar directly; `None` derives one from the
/// observed confidence spread so that only the most-confident rows stay on
/// tier 0 — guaranteeing the batch genuinely splits across tiers.
fn cascade(ds: &CatDataset, threshold: Option<f64>) -> AnyClassifier {
    let tier0 = tree(ds);
    let tier1 = mlp(ds);
    let d = ds.n_features();
    let flat: Vec<u32> = (0..ds.n_rows()).flat_map(|i| ds.row(i).to_vec()).collect();
    let scores = tier0.score_batch(&flat, d);
    // Distillation targets: agreement with the top tier, exactly what the
    // CLI's cascade builder calibrates against.
    let top = tier1.predict_batch(&flat, d);
    let agree: Vec<bool> = tier0
        .predict_batch(&flat, d)
        .iter()
        .zip(&top)
        .map(|(a, b)| a == b)
        .collect();
    let calibrator = Calibrator::fit_platt(&scores, &agree).unwrap();
    let threshold = threshold.unwrap_or_else(|| {
        let mut confs: Vec<f64> = scores.iter().map(|&s| calibrator.confidence(s)).collect();
        confs.sort_by(f64::total_cmp);
        confs.dedup();
        assert!(
            confs.len() >= 2,
            "test setup needs a confidence spread to split on"
        );
        // Only rows at the maximum confidence short-circuit; everything
        // else escalates.
        *confs.last().unwrap()
    });
    AnyClassifier::Cascade(
        CascadeModel::new(vec![
            CascadeTier {
                model: tier0,
                calibrator,
                threshold,
            },
            CascadeTier {
                model: tier1,
                calibrator: Calibrator::Platt { a: 0.0, b: 0.0 },
                threshold: 1.0,
            },
        ])
        .unwrap(),
    )
}

fn artifact_for(name: &str, model: AnyClassifier, ds: &CatDataset) -> ModelArtifact {
    ModelArtifact {
        format_version: FORMAT_VERSION,
        name: name.into(),
        version: 1,
        model,
        feature_config: FeatureConfig::NoJoin,
        contract: ds.contract(),
        schema_fingerprint: 0xCA5C,
        metadata: TrainingMetadata {
            dataset: "onexr".into(),
            spec: hamlet_core::model_zoo::ModelSpec::TreeGini,
            train_rows: ds.n_rows(),
            metrics: hamlet_core::experiment::RunResult {
                model: "n/a".into(),
                config: "NoJoin".into(),
                train_accuracy: 0.0,
                val_accuracy: 0.0,
                test_accuracy: 0.0,
                seconds: 0.0,
                winner: String::new(),
            },
        },
    }
}

fn post_predict(handler: &hamlet_serve::http::Handler, query: &str, body: &str) -> (u16, String) {
    let (responder, rx) = Responder::direct();
    handler(
        &Request {
            method: "POST".into(),
            path: "/v1/predict".into(),
            query: query.into(),
            body: body.as_bytes().to_vec(),
            keep_alive: false,
        },
        responder,
    );
    let resp: Response = rx.recv().expect("handler answered");
    (resp.status, String::from_utf8(resp.body).unwrap())
}

fn rows_json(ds: &CatDataset, take: usize) -> String {
    let rows: Vec<Vec<u32>> = (0..take.min(ds.n_rows()))
        .map(|i| ds.row(i).to_vec())
        .collect();
    serde_json::to_string(&rows).unwrap()
}

fn predict_labels(
    handler: &hamlet_serve::http::Handler,
    model: &str,
    rows: &str,
) -> PredictResponse {
    let (status, body) = post_predict(
        handler,
        "",
        &format!("{{\"model\":\"{model}\",\"rows\":{rows}}}"),
    );
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).unwrap()
}

#[test]
fn threshold_extremes_are_identical_to_single_tiers() {
    let ds = dataset();
    let dir = tmp_dir("extremes");
    for (name, model) in [
        ("tree-only", tree(&ds)),
        ("mlp-only", mlp(&ds)),
        // Threshold 0: every calibrated confidence (∈ [0.5, 1)) clears it,
        // so tier 0 answers everything. Threshold 1: nothing clears it, so
        // every row escalates to the top tier.
        ("casc-zero", cascade(&ds, Some(0.0))),
        ("casc-one", cascade(&ds, Some(1.0))),
    ] {
        artifact_for(name, model, &ds).save(&dir).unwrap();
    }
    let (app, loaded) = AppState::warm(dir.clone()).unwrap();
    assert_eq!(loaded, 4);
    let handler = router(app);
    let rows = rows_json(&ds, 64);
    let tree_resp = predict_labels(&handler, "tree-only", &rows);
    let mlp_resp = predict_labels(&handler, "mlp-only", &rows);
    let zero = predict_labels(&handler, "casc-zero", &rows);
    let one = predict_labels(&handler, "casc-one", &rows);
    assert_eq!(zero.labels, tree_resp.labels, "threshold 0 ≡ tier 0 alone");
    assert_eq!(one.labels, mlp_resp.labels, "threshold 1 ≡ top tier alone");
    assert!(zero.tiers.unwrap().iter().all(|&t| t == 0));
    assert!(one.tiers.unwrap().iter().all(|&t| t == 1));
    assert!(
        tree_resp.tiers.is_none(),
        "single models carry no provenance"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batched_cascade_bitmatches_per_row_requests() {
    let ds = dataset();
    let dir = tmp_dir("repack");
    // A mid threshold so the batch genuinely splits: some rows answered by
    // tier 0, the ambiguous remainder re-packed for the MLP.
    artifact_for("casc", cascade(&ds, None), &ds)
        .save(&dir)
        .unwrap();
    let (app, _) = AppState::warm(dir.clone()).unwrap();
    let handler = router(app);
    // All dataset rows: the derived threshold guarantees both tiers appear
    // somewhere in this set.
    let n = ds.n_rows();
    let batch = predict_labels(&handler, "casc", &rows_json(&ds, n));
    let batch_tiers = batch.tiers.clone().unwrap();
    assert!(
        batch_tiers.contains(&0) && batch_tiers.contains(&1),
        "threshold must split the batch across tiers: {batch_tiers:?}"
    );
    // Every row answered solo agrees with its slot in the batched answer —
    // the partition/re-pack must restore row order exactly.
    for (i, tier) in batch_tiers.iter().enumerate() {
        let row = serde_json::to_string(&[ds.row(i)]).unwrap();
        let solo = predict_labels(&handler, "casc", &row);
        assert_eq!(solo.labels[0], batch.labels[i], "row {i}");
        assert_eq!(solo.tiers.unwrap()[0], *tier, "row {i} tier");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mmap_cascade_serves_identically_to_heap() {
    let ds = dataset();
    let dir = tmp_dir("mmap");
    artifact_for("casc", cascade(&ds, None), &ds)
        .save(&dir)
        .unwrap();
    let rows = rows_json(&ds, 48);
    let mut answers = Vec::new();
    for mode in [LoadMode::Heap, LoadMode::Mmap] {
        let (app, loaded) = AppState::warm_full(
            dir.clone(),
            WarmOptions {
                load_mode: mode,
                ..WarmOptions::default()
            },
        )
        .unwrap();
        assert_eq!(loaded, 1);
        let handler = router(app);
        let resp = predict_labels(&handler, "casc", &rows);
        answers.push((resp.labels, resp.tiers));
    }
    assert_eq!(answers[0], answers[1], "heap and mmap loads must agree");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_tiers_flag_rides_the_query_string() {
    let ds = dataset();
    let dir = tmp_dir("explain");
    artifact_for("casc", cascade(&ds, None), &ds)
        .save(&dir)
        .unwrap();
    let (app, _) = AppState::warm(dir.clone()).unwrap();
    let handler = router(app);
    let body = format!("{{\"model\":\"casc\",\"rows\":{}}}", rows_json(&ds, 8));
    let (status, plain) = post_predict(&handler, "", &body);
    assert_eq!(status, 200, "{plain}");
    let plain: PredictResponse = serde_json::from_str(&plain).unwrap();
    assert!(plain.tier_confidence.is_none());
    let (status, explained) = post_predict(&handler, "explain_tiers=1", &body);
    assert_eq!(status, 200, "{explained}");
    let explained: PredictResponse = serde_json::from_str(&explained).unwrap();
    let conf = explained.tier_confidence.expect("confidence present");
    assert_eq!(conf.len(), 8);
    assert!(conf.iter().all(|c| (0.5..1.0).contains(c)), "{conf:?}");
    assert_eq!(plain.labels, explained.labels);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cascade_partition_is_deterministic_across_thread_counts() {
    // The tiered executor can shard tier scoring; its tier partition must
    // not depend on the fan-out width or the shard floor.
    let ds = dataset();
    let AnyClassifier::Cascade(c) = cascade(&ds, None) else {
        unreachable!()
    };
    let d = ds.n_features();
    let flat: Vec<u32> = (0..ds.n_rows()).flat_map(|i| ds.row(i).to_vec()).collect();
    let reference = c.predict_batch_tiered(&flat, d, 1, 1);
    for threads in [2, 4, 7] {
        let got = c.predict_batch_tiered(&flat, d, threads, 8);
        assert_eq!(got.labels, reference.labels, "{threads} threads");
        assert_eq!(got.tiers, reference.tiers, "{threads} threads");
        let bits: Vec<u64> = got.confidence.iter().map(|x| x.to_bits()).collect();
        let ref_bits: Vec<u64> = reference.confidence.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, ref_bits, "{threads} threads");
    }
}
