//! The three serving workloads and their traffic, generated from the seed.

use std::fmt::Write as _;

use crate::client::{Expect, Kind, Op, Pacing, SlotPlan, SplitMix, TrainEvery};
use crate::oracle::{Answer, Query};
use crate::prep::{Prepared, CASCADE, DATASET, MLP, MLP_I8, SCALE, TREE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1-row predicts against a decision tree: the kernel costs
    /// nanoseconds, so the time goes to the network plane, JSON, router and
    /// coalescer.
    Tree1Row,
    /// 64-row predicts against the full-fidelity MLP, alternating between
    /// the f32 artifact and its i8 copy: the time goes to the kernels.
    Mlp64Row,
    /// 1–8-row predicts against a tree→ANN cascade on one connection,
    /// observe writes at a fixed rate on the other.
    CascadeWrites,
}

/// Open-loop offered load in requests per second, kept as absolute numbers
/// so later runs offer the same load. Set at about half of the closed-loop
/// `capacity_rps` measured on a 2-core guest while other guests loaded the
/// host (tree ~4.5k/s, MLP ~1.5k/s, cascade ~4k/s; on an idle host the
/// capacities are about 3× higher): an open loop at half the idle
/// capacity saturates whenever the host gets busy.
const OPEN_RPS_TREE: f64 = 2000.0;
const OPEN_RPS_MLP: f64 = 500.0;
const OPEN_RPS_CASCADE: f64 = 1500.0;

/// Observe writes per second on the cascade workload's write connection,
/// in both phases. Each costs the server an fsync, whose latency on a
/// shared host ranged from 0.15 ms to 4 ms: at this rate even the slow
/// disk keeps up, so the writes compete with the reads without queueing
/// behind the disk.
const OPEN_RPS_OBSERVE: f64 = 50.0;

/// Observes before the one retrain of each write probe, which follows the
/// predict phases of the workloads without concurrent writes.
const PROBE_OBSERVES: usize = 10;

/// Rows per observe request that fills the observe buffer before the
/// cascade workload measures.
const FILL_ROWS: usize = 1024;

/// Registry name the retrains register under.
const RETRAIN: &str = "retrain";

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Tree1Row,
        Workload::Mlp64Row,
        Workload::CascadeWrites,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tree1Row => "tree-1row",
            Workload::Mlp64Row => "mlp-64row",
            Workload::CascadeWrites => "cascade-writes",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// All requests of a run.
pub struct Traffic {
    pub predicts: Vec<Op>,
    /// The JSON body of each predict, for the traced run's in-process
    /// replay.
    pub predict_bodies: Vec<String>,
    pub observes: Vec<Op>,
    /// Observed rows and labels of each observe request.
    pub observe_src: Vec<(Vec<Vec<u32>>, Vec<bool>)>,
    /// A [`FILL_ROWS`]-row observe, repeated before measuring until the
    /// server's observe buffer is full.
    pub fill_observe: Op,
    /// `[NoJoin, JoinAll]` retrains of an ANN under [`RETRAIN`].
    pub trains: Vec<Op>,
}

fn rows_json(rows: &[Vec<u32>]) -> String {
    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (j, c) in r.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{c}");
        }
        s.push(']');
    }
    s.push(']');
    s
}

/// Builds the run's traffic from `seed` and asks the oracle for every
/// predict answer.
pub fn traffic(
    w: Workload,
    p: &Prepared,
    seed: u64,
    oracle: impl FnOnce(&[Query]) -> Result<Vec<Answer>, String>,
) -> Result<Traffic, String> {
    let mut rng = SplitMix(seed ^ 0x5EED_F00D);
    let draw = |n: usize, rng: &mut SplitMix| -> Vec<usize> {
        (0..n).map(|_| rng.below(p.n_rows())).collect()
    };
    let (count, sizes): (usize, fn(&mut SplitMix) -> usize) = match w {
        Workload::Tree1Row => (4096, |_| 1),
        Workload::Mlp64Row => (512, |_| 64),
        Workload::CascadeWrites => (4096, |r| 1 + r.below(8)),
    };
    let mut predict_bodies = Vec::with_capacity(count);
    let mut asked: Vec<(&str, Vec<u32>)> = Vec::with_capacity(count);
    for i in 0..count {
        let model = match w {
            Workload::Tree1Row => TREE,
            Workload::Mlp64Row if i % 2 == 0 => MLP,
            Workload::Mlp64Row => MLP_I8,
            Workload::CascadeWrites => CASCADE,
        };
        let n = sizes(&mut rng);
        let rows: Vec<Vec<u32>> = draw(n, &mut rng)
            .into_iter()
            .map(|r| p.row(r).to_vec())
            .collect();
        predict_bodies.push(format!(
            "{{\"model\":\"{model}\",\"rows\":{}}}",
            rows_json(&rows)
        ));
        asked.push((model, rows.concat()));
    }
    let queries: Vec<Query> = asked
        .iter()
        .map(|(model, rows)| Query { model, rows })
        .collect();
    let answers = oracle(&queries)?;
    let predicts = predict_bodies
        .iter()
        .zip(answers)
        .map(|(body, a)| Op::post(Kind::Predict, "/v1/predict", body, Expect::Labels(a.labels)))
        .collect();

    let observe = |n: usize, rng: &mut SplitMix| {
        let idx = draw(n, rng);
        let rows: Vec<Vec<u32>> = idx.iter().map(|&r| p.row(r).to_vec()).collect();
        let labels: Vec<bool> = idx.iter().map(|&r| p.labels[r]).collect();
        let body = format!(
            "{{\"model\":\"{TREE}\",\"rows\":{},\"labels\":[{}]}}",
            rows_json(&rows),
            labels
                .iter()
                .map(|l| if *l { "true" } else { "false" })
                .collect::<Vec<_>>()
                .join(",")
        );
        let op = Op::post(Kind::Observe, "/v1/observe", &body, Expect::Accepted(n));
        (op, (rows, labels))
    };
    let (observes, observe_src) = (0..1024)
        .map(|_| {
            let n = 1 + rng.below(8);
            observe(n, &mut rng)
        })
        .unzip();
    let (fill_observe, _) = observe(FILL_ROWS, &mut rng);

    // Retrains use the server's default generator seed, so their cost and
    // the memory their versions hold do not vary with the workload seed.
    let trains = [
        ("NoJoin", Kind::TrainNoJoin),
        ("JoinAll", Kind::TrainJoinAll),
    ]
    .into_iter()
    .map(|(config, kind)| {
        let body = format!(
            "{{\"name\":\"{RETRAIN}\",\"dataset\":\"{DATASET}\",\"spec\":\"Ann\",\
             \"config\":\"{config}\",\"scale\":{SCALE}}}"
        );
        Op::post(kind, "/v1/train", &body, Expect::Trained)
    })
    .collect();

    Ok(Traffic {
        predicts,
        predict_bodies,
        observes,
        observe_src,
        fill_observe,
        trains,
    })
}

/// The two slots of one serving phase of cycle `cycle`: closed loop, or
/// open loop at the workload's fixed offered rate. Each cycle starts at
/// another place in the request pool.
pub fn phase_plans(
    w: Workload,
    t: &Traffic,
    open: bool,
    seed: u64,
    cycle: usize,
) -> [SlotPlan<'_>; 2] {
    let phase_seed = seed
        .wrapping_mul(31)
        .wrapping_add(2 * cycle as u64 + u64::from(open));
    let first = cycle * 997;
    let predicts = |first: usize, pacing: Pacing, slot: u64| SlotPlan {
        ops: &t.predicts,
        first,
        trains: &[],
        train_every: TrainEvery::Never,
        pacing,
        limit: None,
        seed: phase_seed.wrapping_mul(7).wrapping_add(slot),
        slot,
    };
    let half = t.predicts.len() / 2;
    match w {
        Workload::Tree1Row | Workload::Mlp64Row => {
            let pacing = if open {
                let rate = if w == Workload::Tree1Row {
                    OPEN_RPS_TREE
                } else {
                    OPEN_RPS_MLP
                };
                Pacing::Open { rate: rate / 2.0 }
            } else {
                Pacing::Closed
            };
            [
                predicts(first, pacing, 1),
                predicts(first + half, pacing, 2),
            ]
        }
        Workload::CascadeWrites => {
            // The writes arrive at one fixed rate in both phases, so the
            // read load they compete with never depends on how fast the
            // disk syncs.
            let a = if open {
                Pacing::Open {
                    rate: OPEN_RPS_CASCADE,
                }
            } else {
                Pacing::Closed
            };
            let b = Pacing::Open {
                rate: OPEN_RPS_OBSERVE,
            };
            [
                predicts(first, a, 1),
                SlotPlan {
                    ops: &t.observes,
                    first,
                    trains: &[],
                    train_every: TrainEvery::Never,
                    pacing: b,
                    limit: None,
                    seed: phase_seed.wrapping_mul(7).wrapping_add(2),
                    slot: 2,
                },
            ]
        }
    }
}

/// The write probe of cycle `cycle`: observes, then one retrain
/// (alternating the configuration), on one closed-loop connection after
/// the cycle's predict phases.
pub fn probe_plan(t: &Traffic, seed: u64, cycle: usize) -> SlotPlan<'_> {
    let train = cycle % t.trains.len();
    SlotPlan {
        ops: &t.observes,
        first: cycle * PROBE_OBSERVES,
        trains: &t.trains[train..=train],
        train_every: TrainEvery::Ops(PROBE_OBSERVES),
        pacing: Pacing::Closed,
        limit: Some(PROBE_OBSERVES + 1),
        seed,
        slot: 3,
    }
}
