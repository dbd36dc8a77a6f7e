//! Golden training pins for the five Deep-RL methods.
//!
//! Each method trains at a tiny config on BA(120); every checkpoint's
//! epoch, validation score and loss (as raw bits), the recovery count, the
//! error, and the seeds `infer` returns afterwards are pinned. Two runs add
//! a one-shot NaN at `train.<solver>` episode 2: one for an S2V-core method
//! (S2V-DQN) and one for a `DqnAgent` method (GCOMB), so the rollback path
//! is pinned too. A last run poisons RL4IM's episodes 2 to 5, which spends
//! the recovery budget and pins the `Diverged` exit.
//!
//! A refactor of the training loops must keep all of these bit-identical;
//! the values must never be re-recorded to make it pass.

use std::sync::{Mutex, MutexGuard};

use mcp_benchmark::prelude::*;
use mcpb_resilience::{fault, FaultPlan};

use drl::common::{Task, TrainReport};
use drl::{
    Gcomb, GcombConfig, GeometricQn, GeometricQnConfig, Lense, LenseConfig, Rl4Im, Rl4ImConfig,
    S2vDqn, S2vDqnConfig,
};

/// The fault plan is process-global; every run here must hold this lock so
/// an injected NaN cannot leak into a clean run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn train_graph() -> graph::Graph {
    graph::generators::barabasi_albert(120, 3, 7)
}

const K: usize = 5;

struct Golden {
    /// `(epoch, validation_score.to_bits(), loss.to_bits())` per checkpoint.
    checkpoints: &'static [(usize, u64, u64)],
    recoveries: u32,
    /// `Debug` rendering of `TrainReport::error`.
    error: &'static str,
    /// `infer(train_graph, K)` after training.
    seeds: &'static [u32],
}

fn render(report: &TrainReport, seeds: &[u32]) -> String {
    let cps: Vec<String> = report
        .checkpoints
        .iter()
        .map(|c| {
            format!(
                "({}, {:#x}, {:#x})",
                c.epoch,
                c.validation_score.to_bits(),
                c.loss.to_bits()
            )
        })
        .collect();
    format!(
        "Golden {{ checkpoints: &[{}], recoveries: {}, error: {:?}, seeds: &{:?} }}",
        cps.join(", "),
        report.recoveries,
        format!("{:?}", report.error),
        seeds
    )
}

fn check(name: &str, report: &TrainReport, seeds: &[u32], want: &Golden) {
    let got: Vec<(usize, u64, u64)> = report
        .checkpoints
        .iter()
        .map(|c| (c.epoch, c.validation_score.to_bits(), c.loss.to_bits()))
        .collect();
    let ok = got == want.checkpoints
        && report.recoveries == want.recoveries
        && format!("{:?}", report.error) == want.error
        && seeds == want.seeds;
    assert!(
        ok,
        "{name}: training is no longer bit-identical to the pinned run.\n got: {}",
        render(report, seeds)
    );
}

fn s2v_dqn_cfg() -> S2vDqnConfig {
    S2vDqnConfig {
        episodes: 6,
        train_subgraph_nodes: 20,
        train_budget: 3,
        validate_every: 3,
        task: Task::Mcp,
        seed: 11,
        ..S2vDqnConfig::default()
    }
}

fn gcomb_cfg() -> GcombConfig {
    GcombConfig {
        supervised_epochs: 10,
        prob_greedy_runs: 3,
        train_subgraph_nodes: 60,
        rl_episodes: 5,
        train_budget: 3,
        validate_every: 2,
        task: Task::Mcp,
        seed: 3,
        ..GcombConfig::default()
    }
}

fn run_s2v_dqn() -> (TrainReport, Vec<u32>) {
    let g = train_graph();
    let mut m = S2vDqn::new(s2v_dqn_cfg());
    let r = m.train(&g);
    (r, m.infer(&g, K))
}

fn run_gcomb() -> (TrainReport, Vec<u32>) {
    let g = train_graph();
    let mut m = Gcomb::new(gcomb_cfg());
    let r = m.train(&g);
    (r, m.infer(&g, K))
}

fn run_rl4im(validate_every: usize) -> (TrainReport, Vec<u32>) {
    let g = train_graph();
    let mut m = Rl4Im::new(Rl4ImConfig {
        episodes: 6,
        train_budget: 3,
        batch_size: 4,
        eps_decay_steps: 30,
        validate_every,
        task: Task::Mcp,
        seed: 5,
        ..Rl4ImConfig::default()
    });
    let r = m.train(std::slice::from_ref(&g));
    (r, m.infer(&g, K))
}

fn with_faults(
    plan: &str,
    run: impl FnOnce() -> (TrainReport, Vec<u32>),
) -> (TrainReport, Vec<u32>) {
    fault::install(FaultPlan::parse(plan).expect("valid plan"));
    let out = run();
    fault::clear();
    out
}

#[test]
fn s2v_dqn_training_is_pinned() {
    let _g = serial();
    let (r, seeds) = run_s2v_dqn();
    check("S2V-DQN", &r, &seeds, &S2V_DQN);
}

#[test]
fn rl4im_training_is_pinned() {
    let _g = serial();
    let (r, seeds) = run_rl4im(3);
    check("RL4IM", &r, &seeds, &RL4IM);
}

#[test]
fn gcomb_training_is_pinned() {
    let _g = serial();
    let (r, seeds) = run_gcomb();
    check("GCOMB", &r, &seeds, &GCOMB);
}

#[test]
fn lense_training_is_pinned() {
    let _g = serial();
    let g = train_graph();
    let mut m = Lense::new(LenseConfig {
        subgraph_size: 40,
        num_labeled: 8,
        encoder_epochs: 10,
        nav_episodes: 6,
        nav_steps: 6,
        train_budget: 3,
        validate_every: 3,
        task: Task::Mcp,
        seed: 13,
        ..LenseConfig::default()
    });
    let r = m.train(&g);
    check("LeNSE", &r, &m.infer(&g, K), &LENSE);
}

#[test]
fn geometric_qn_training_is_pinned() {
    let _g = serial();
    let g = train_graph();
    let mut m = GeometricQn::new(GeometricQnConfig {
        episodes: 6,
        explore_steps: 6,
        train_budget: 3,
        validate_every: 3,
        task: Task::Mcp,
        seed: 7,
        ..GeometricQnConfig::default()
    });
    let r = m.train(std::slice::from_ref(&g));
    check("Geometric-QN", &r, &m.infer(&g, K), &GEOMETRIC_QN);
}

#[test]
fn s2v_dqn_recovery_is_pinned() {
    let _g = serial();
    let (r, seeds) = with_faults("nan@train.S2V-DQN:2", run_s2v_dqn);
    check("S2V-DQN (nan@2)", &r, &seeds, &S2V_DQN_NAN);
}

#[test]
fn gcomb_recovery_is_pinned() {
    let _g = serial();
    let (r, seeds) = with_faults("nan@train.GCOMB:2", run_gcomb);
    check("GCOMB (nan@2)", &r, &seeds, &GCOMB_NAN);
}

#[test]
fn rl4im_exhausted_budget_is_pinned() {
    let _g = serial();
    let plan = "nan@train.RL4IM:2; nan@train.RL4IM:3; nan@train.RL4IM:4; nan@train.RL4IM:5";
    let (r, seeds) = with_faults(plan, || run_rl4im(1));
    check("RL4IM (diverged)", &r, &seeds, &RL4IM_DIVERGED);
}

const S2V_DQN: Golden = Golden {
    checkpoints: &[
        (3, 0x3fc3333333333333, 0x3fd9aa6655555555),
        (6, 0x3fc3333333333333, 0x3fd029dc71c71c72),
    ],
    recoveries: 0,
    error: "None",
    seeds: &[104, 99, 64, 82, 118],
};
const RL4IM: Golden = Golden {
    checkpoints: &[
        (3, 0x3fe3333333333333, 0x3ffa222f00000000),
        (6, 0x3fe3333333333333, 0x4009357000000000),
    ],
    recoveries: 0,
    error: "None",
    seeds: &[0, 1, 3, 2, 4],
};
const GCOMB: Golden = Golden {
    checkpoints: &[
        (2, 0x3febbbbbbbbbbbbc, 0x3f97a30c80000000),
        (4, 0x3febbbbbbbbbbbbc, 0x3f97a30c80000000),
        (5, 0x3febbbbbbbbbbbbc, 0x3f97a30c80000000),
    ],
    recoveries: 0,
    error: "None",
    seeds: &[0, 1, 3, 4, 2],
};
const LENSE: Golden = Golden {
    checkpoints: &[
        (3, 0x3fe1555555555555, 0x3fa31cfdd1745d17),
        (6, 0x3fe0444444444444, 0x3fa2ed1571c71c72),
    ],
    recoveries: 0,
    error: "None",
    seeds: &[3, 0, 1, 14, 35],
};
const GEOMETRIC_QN: Golden = Golden {
    checkpoints: &[
        (3, 0x3fdb333333333333, 0x3f92ad5480000000),
        (6, 0x3fd8888888888889, 0x3f893f38aaaaaaab),
    ],
    recoveries: 0,
    error: "None",
    seeds: &[0, 20, 4, 17, 32],
};
const S2V_DQN_NAN: Golden = Golden {
    checkpoints: &[
        (3, 0x3fc3333333333333, 0x3fcc1d5700000000),
        (6, 0x3fc3333333333333, 0x3fd2fd93c71c71c7),
    ],
    recoveries: 1,
    error: "None",
    seeds: &[104, 64, 99, 82, 118],
};
const GCOMB_NAN: Golden = Golden {
    checkpoints: &[
        (4, 0x3febbbbbbbbbbbbc, 0x3f97a30c80000000),
        (5, 0x3febbbbbbbbbbbbc, 0x3f97a30c80000000),
    ],
    recoveries: 1,
    error: "None",
    seeds: &[0, 1, 3, 4, 2],
};
const RL4IM_DIVERGED: Golden = Golden {
    checkpoints: &[(1, 0x3fe3333333333333, 0x0)],
    recoveries: 3,
    error: "Some(Diverged { solver: \"RL4IM\", episode: 5, recoveries: 3, loss: NaN })",
    seeds: &[0, 1, 3, 2, 4],
};
