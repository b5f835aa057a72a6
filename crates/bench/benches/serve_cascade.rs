//! Tiered-cascade serving benchmarks: a calibrated cheap-tree front tier
//! short-circuiting for a weight-heavy MLP, vs. each tier served alone.
//!
//! The cascade's front tree is *distilled*: trained on the MLP's own
//! predictions over the deterministic evaluation rows, then calibrated
//! against agreement-with-the-MLP and thresholded via `pick_threshold` at
//! 0.99 — exactly the construction `hamlet-serve cascade build` performs.
//! The bench asserts ≥99% label agreement between the cascade and the
//! MLP-only artifact on those rows before timing anything, so the speedup
//! numbers are only recorded for a cascade that actually preserves the top
//! tier's answers.
//!
//! All three artifacts run through `execute_batch` — the merged
//! (coalesced) executor path — at 1, 64 and 512 single-row segments.
//! Acceptance: `exec_merged_casc_64x1` ≤ 25% of `exec_merged_mlp_64x1`.
//!
//! Medians land in `BENCH_serve.json` (see the vendored criterion shim).
//!
//! Run with `cargo bench -p hamlet-bench --bench serve_cascade`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hamlet_core::experiment::RunResult;
use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_ml::ann::{AnnParams, Mlp};
use hamlet_ml::any::AnyClassifier;
use hamlet_ml::cascade::{pick_threshold, Calibrator, CascadeModel, CascadeTier};
use hamlet_ml::dataset::{CatDataset, FeatureMeta, Provenance};
use hamlet_ml::tree::{DecisionTree, SplitCriterion, TreeParams};
use hamlet_relation::domain::CatDomain;
use hamlet_serve::artifact::{ModelArtifact, TrainingMetadata, FORMAT_VERSION};
use hamlet_serve::server::{execute_batch, AppState, WarmOptions};

/// Single-row segment counts per merged batch (the coalesced shapes).
const SIZES: [usize; 3] = [1, 64, 512];

fn dataset(seed: u64, n: usize) -> CatDataset {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let d = 8usize;
    let k = 16u32;
    let features: Vec<FeatureMeta> = (0..d)
        .map(|j| {
            FeatureMeta::with_domain(
                format!("f{j}"),
                Provenance::Home,
                CatDomain::synthetic(format!("f{j}"), k).into_shared(),
            )
        })
        .collect();
    let rows: Vec<u32> = (0..n * d).map(|_| rng.gen_range(0..k)).collect();
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
        schema_fingerprint: 0xCA5C,
        metadata: TrainingMetadata {
            dataset: "synthetic".into(),
            spec: ModelSpec::TreeGini,
            train_rows: ds.n_rows(),
            metrics: RunResult {
                model: "bench".into(),
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

fn in_domain_rows(ds: &CatDataset, count: usize, seed: u64) -> Vec<Vec<u32>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cards = ds.cardinalities();
    (0..count)
        .map(|_| cards.iter().map(|&k| rng.gen_range(0..k)).collect())
        .collect()
}

/// MLP top tier, distilled-tree front tier, and the evaluation rows the
/// distillation/calibration ran over.
fn cascade_setup() -> (CatDataset, AnyClassifier, AnyClassifier, Vec<Vec<u32>>) {
    let ds = dataset(0xC0, 96);
    let d = ds.n_features();
    let mlp: AnyClassifier = Mlp::fit(
        &ds,
        AnnParams {
            epochs: 1,
            ..AnnParams::new(1e-4, 0.01)
        },
    )
    .unwrap()
    .into();

    let rows = in_domain_rows(&ds, *SIZES.last().unwrap(), 7);
    let flat: Vec<u32> = rows.iter().flatten().copied().collect();
    let top = mlp.predict_batch(&flat, d);

    // Distill: the tree learns the MLP's answers on the evaluation rows,
    // then gets calibrated against agreement with those same answers.
    let distill =
        CatDataset::new(ds.contract().features().to_vec(), flat.clone(), top.clone()).unwrap();
    let tree: AnyClassifier = DecisionTree::fit(
        &distill,
        TreeParams::new(SplitCriterion::Gini)
            .with_minsplit(2)
            .with_cp(0.0),
    )
    .unwrap()
    .into();
    let scores = tree.score_batch(&flat, d);
    let agree: Vec<bool> = tree
        .predict_batch(&flat, d)
        .iter()
        .zip(&top)
        .map(|(a, b)| a == b)
        .collect();
    let calibrator = Calibrator::fit_platt(&scores, &agree).unwrap();
    let conf_agree: Vec<(f64, bool)> = scores
        .iter()
        .map(|&s| calibrator.confidence(s))
        .zip(agree)
        .collect();
    let threshold = pick_threshold(&conf_agree, 0.99);
    let cascade = AnyClassifier::Cascade(
        CascadeModel::new(vec![
            CascadeTier {
                model: tree.clone(),
                calibrator,
                threshold,
            },
            CascadeTier {
                model: mlp.clone(),
                calibrator: Calibrator::Platt { a: 0.0, b: 0.0 },
                threshold: 1.0,
            },
        ])
        .unwrap(),
    );

    // Gate before timing: the cascade must preserve ≥99% of the MLP's
    // labels on the deterministic rows, and must actually short-circuit.
    let got = cascade.predict_batch(&flat, d);
    let agreement = got.iter().zip(&top).filter(|(a, b)| a == b).count() as f64 / top.len() as f64;
    assert!(
        agreement >= 0.99,
        "cascade/MLP agreement {agreement:.4} below the 0.99 acceptance bar"
    );
    let AnyClassifier::Cascade(ref c) = cascade else {
        unreachable!()
    };
    let hist = c
        .predict_batch_tiered(&flat, d, 1, flat.len())
        .tier_histogram();
    assert!(hist[0] > 0, "cascade never short-circuited: {hist:?}");
    eprintln!(
        "serve_cascade: threshold {threshold:.4}, agreement {agreement:.4}, tier rows {:?}",
        &hist[..2]
    );
    (ds, tree, cascade, rows)
}

/// Merged executor-path comparison: tree-only, MLP-only and the cascade
/// over 1 / 64 / 512 coalesced single-row segments.
fn exec_cascade(c: &mut Criterion) {
    let (ds, tree, cascade, rows) = cascade_setup();
    let d = ds.n_features();
    let mlp = {
        let AnyClassifier::Cascade(ref casc) = cascade else {
            unreachable!()
        };
        casc.tiers.last().unwrap().model.clone()
    };
    let (state, _) = AppState::warm_full(
        std::env::temp_dir().join("hamlet-bench-cascade-none"),
        WarmOptions::default(),
    )
    .unwrap();

    let mut group = c.benchmark_group("serve_cascade");
    for (tag, model) in [("tree", tree), ("mlp", mlp), ("casc", cascade)] {
        let artifact = artifact_for(model, &ds, &format!("casc-{tag}"));
        for n in SIZES {
            let segments: Vec<&[u32]> = rows[..n].iter().map(Vec::as_slice).collect();
            // Seed the EWMA and warm caches before timing.
            execute_batch(&state, &artifact, &segments, d);
            group.bench_function(format!("exec_merged_{tag}_{n}x1"), |b| {
                b.iter(|| black_box(execute_batch(&state, &artifact, black_box(&segments), d)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, exec_cascade);
criterion_main!(benches);
