//! The correctness oracle: a separate process, pinned to the bit-exact
//! scalar kernels (`HAMLET_FORCE_SCALAR=1`), computes the expected labels of
//! every request from the artifact files. Scalar and SIMD inference agree
//! bit for bit, and so do solo and coalesced execution, so every server
//! answer must equal the oracle's.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use hamlet_ml::any::{AnyClassifier, MIN_ROWS_PER_SHARD};
use hamlet_serve::artifact::LoadMode;
use hamlet_serve::registry::ModelRegistry;

/// One request for the oracle: the model it names and its flattened rows.
pub struct Query<'a> {
    pub model: &'a str,
    pub rows: &'a [u32],
}

/// The label of every row.
pub struct Answer {
    pub labels: Vec<bool>,
}

/// Runs the oracle process on `queries`; `work` holds its input and output.
pub fn expected(
    bench: &Path,
    art: &Path,
    queries: &[Query],
    work: &Path,
) -> Result<Vec<Answer>, String> {
    let input = work.join("oracle-in.txt");
    let output = work.join("oracle-out.txt");
    let mut text = String::new();
    for q in queries {
        text.push_str(q.model);
        for c in q.rows {
            let _ = write!(text, " {c}");
        }
        text.push('\n');
    }
    std::fs::write(&input, text).map_err(|e| format!("writing {}: {e}", input.display()))?;
    let status = Command::new(bench)
        .arg("oracle")
        .arg(art)
        .arg(&input)
        .arg(&output)
        .env("HAMLET_FORCE_SCALAR", "1")
        .status()
        .map_err(|e| format!("starting the oracle: {e}"))?;
    if !status.success() {
        return Err(format!("the oracle failed: {status}"));
    }
    let text = std::fs::read_to_string(&output)
        .map_err(|e| format!("reading {}: {e}", output.display()))?;
    let answers: Vec<Answer> = text
        .lines()
        .map(|line| Answer {
            labels: line.bytes().map(|b| b == b'1').collect(),
        })
        .collect();
    if answers.len() != queries.len() {
        return Err(format!(
            "the oracle answered {} of {} requests",
            answers.len(),
            queries.len()
        ));
    }
    Ok(answers)
}

/// The oracle process: `servebench oracle <artifact-dir> <in> <out>`.
pub fn main(args: &[String]) -> Result<(), String> {
    let [art, input, output] = args else {
        return Err("usage: servebench oracle <artifact-dir> <in> <out>".into());
    };
    let backend = hamlet_ml::kernels::backend().name();
    if backend != "scalar" {
        return Err(format!(
            "the oracle must run on the scalar kernels, got `{backend}` \
             (set HAMLET_FORCE_SCALAR=1)"
        ));
    }
    let (registry, _) =
        ModelRegistry::warm_load_with(Path::new(art), LoadMode::Heap).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let mut tokens = line.split(' ');
        let model = tokens.next().unwrap_or_default();
        let rows: Vec<u32> = tokens
            .map(|t| t.parse().map_err(|_| format!("bad code `{t}`")))
            .collect::<Result<_, _>>()?;
        let artifact = registry.get(model).map_err(|e| e.to_string())?;
        let d = artifact.contract.width();
        let labels = match &artifact.model {
            AnyClassifier::Cascade(c) => {
                c.predict_batch_tiered(&rows, d, 1, MIN_ROWS_PER_SHARD)
                    .labels
            }
            m => m.predict_batch(&rows, d),
        };
        out.extend(labels.iter().map(|&l| if l { '1' } else { '0' }));
        out.push('\n');
    }
    std::fs::write(output, out).map_err(|e| format!("writing {output}: {e}"))
}
