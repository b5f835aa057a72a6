//! Inputs from the seed: the `expedia` emulator star, the served artifacts
//! (trained, quantized and bundled into a cascade by the `hamlet-serve`
//! CLI itself), and the held-out rows that requests are drawn from.

use std::path::{Path, PathBuf};
use std::process::Command;

use hamlet_core::feature_config::{build_splits, FeatureConfig};
use hamlet_ml::any::{AnyClassifier, MIN_ROWS_PER_SHARD};
use hamlet_serve::artifact::ModelArtifact;

/// Dataset every workload is generated from (16 NoJoin features).
pub const DATASET: &str = "expedia";

/// Labelled examples in the generated star (train + validation + test).
pub const SCALE: usize = 2000;

/// Range the cascade's target precision is searched in, and the bisection
/// steps of the search. The search aims at an even split of the held-out
/// rows between the tiers, so the work per request, and with it every
/// figure of the cascade workload, depends little on the seed.
const TARGET_P_RANGE: (f64, f64) = (0.5, 0.999);
const TARGET_P_STEPS: usize = 8;

/// Share of rows each cascade tier must answer for the cascade workload to
/// exercise both.
const MIN_TIER_SHARE: f64 = 0.25;

/// Stars tried per seed. On some stars the tree's calibrated confidence
/// does not separate rows the ANN agrees on, so no threshold splits the
/// traffic between the tiers; the next star derived from the seed is tried.
const STAR_ATTEMPTS: u64 = 16;

/// Served model names.
pub const TREE: &str = "tree";
pub const MLP: &str = "mlp";
pub const MLP_I8: &str = "mlp-i8";
pub const ANN: &str = "ann";
pub const CASCADE: &str = "casc";

/// The prepared inputs of one run.
pub struct Prepared {
    /// Artifact directory the server warm-loads.
    pub art: PathBuf,
    /// Generator seed of the star the artifacts were trained on.
    pub star_seed: u64,
    /// Features per row.
    pub d: usize,
    /// Held-out rows, flattened row-major, with their true labels.
    pub rows: Vec<u32>,
    pub labels: Vec<bool>,
    /// The cascade's chosen target precision.
    pub target_p: f64,
    /// Rows per cascade tier over the held-out rows.
    pub tier_rows: [u64; 2],
}

impl Prepared {
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    pub fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.d..(i + 1) * self.d]
    }
}

fn cli(server: &Path, args: &[&str]) -> Result<(), String> {
    let out = Command::new(server)
        .args(args)
        .output()
        .map_err(|e| format!("running {} {}: {e}", server.display(), args.join(" ")))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "`hamlet-serve {}` failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// Generates the star and the artifacts into `<run_dir>/art`.
pub fn prepare(server: &Path, run_dir: &Path, seed: u64) -> Result<Prepared, String> {
    let art = run_dir.join("art");
    let art_s = art
        .to_str()
        .ok_or("artifact path is not UTF-8")?
        .to_string();
    let path = |name: &str| art.join(format!("{name}@1.model.bin"));
    let scale_s = SCALE.to_string();
    for attempt in 0..STAR_ATTEMPTS {
        let star_seed = seed.wrapping_add(attempt.wrapping_mul(1_000_003));
        let _ = std::fs::remove_dir_all(&art);
        std::fs::create_dir_all(&art).map_err(|e| format!("creating {}: {e}", art.display()))?;
        let g = hamlet_serve::train::resolve_dataset(DATASET, SCALE, star_seed)
            .map_err(|e| e.to_string())?;
        let test = build_splits(&g, &FeatureConfig::NoJoin)
            .map_err(|e| e.to_string())?
            .test;
        let d = test.n_features();
        let rows: Vec<u32> = (0..test.n_rows())
            .flat_map(|i| test.row(i).to_vec())
            .collect();
        let labels = test.labels().to_vec();

        let seed_s = star_seed.to_string();
        let train = |name: &str, spec: &str, full: bool| {
            let mut args = vec![
                "train",
                "--name",
                name,
                "--dataset",
                DATASET,
                "--spec",
                spec,
                "--scale",
                &scale_s,
                "--seed",
                &seed_s,
                "--dir",
                &art_s,
            ];
            if full {
                args.push("--full");
            }
            cli(server, &args)
        };
        train(TREE, "TreeGini", false)?;
        train(ANN, "Ann", false)?;
        let tiers = format!("{},{}", path(TREE).display(), path(ANN).display());
        // Rows each tier answers on the held-out rows, cascade built at `p`.
        let split = |p: f64| -> Result<[u64; 2], String> {
            cli(
                server,
                &[
                    "cascade",
                    "build",
                    "--tiers",
                    &tiers,
                    "--target-p",
                    &p.to_string(),
                    "--name",
                    CASCADE,
                    "--dir",
                    &art_s,
                ],
            )?;
            let casc = ModelArtifact::load(&path(CASCADE)).map_err(|e| e.to_string())?;
            let AnyClassifier::Cascade(c) = &casc.model else {
                return Err(format!("{} is not a cascade", path(CASCADE).display()));
            };
            let hist = c
                .predict_batch_tiered(&rows, d, 1, MIN_ROWS_PER_SHARD)
                .tier_histogram();
            Ok([hist[0], hist[1]])
        };
        let n = labels.len() as f64;
        let imbalance = |h: [u64; 2]| (h[0] as f64 - h[1] as f64).abs();
        // A higher target precision escalates more rows.
        let (mut lo, mut hi) = TARGET_P_RANGE;
        let mut best: Option<(f64, [u64; 2])> = None;
        for _ in 0..TARGET_P_STEPS {
            let p = (lo + hi) / 2.0;
            let h = split(p)?;
            if best.is_none_or(|(_, b)| imbalance(h) < imbalance(b)) {
                best = Some((p, h));
            }
            if (h[1] as f64) < n / 2.0 {
                lo = p;
            } else {
                hi = p;
            }
        }
        let Some((target_p, _)) = best else {
            continue;
        };
        let hist = split(target_p)?;
        if hist.iter().any(|&t| (t as f64) < MIN_TIER_SHARE * n) {
            continue;
        }
        train(MLP, "Ann", true)?;
        let mlp = path(MLP);
        let mlp_s = mlp.to_str().ok_or("artifact path is not UTF-8")?;
        cli(server, &["artifact", "convert", mlp_s, "--quantize", "i8"])?;
        if !path(MLP_I8).exists() {
            return Err(format!(
                "quantized artifact {} missing",
                path(MLP_I8).display()
            ));
        }
        return Ok(Prepared {
            art,
            star_seed,
            d,
            rows,
            labels,
            target_p,
            tier_rows: hist,
        });
    }
    Err(format!(
        "no star of {STAR_ATTEMPTS} derived from seed {seed} gives each cascade tier \
         {MIN_TIER_SHARE} of the rows at a target-p in {TARGET_P_RANGE:?}"
    ))
}
