//! Golden seed sets for the two S2V-based methods. The models are trained
//! as the quick-scale paper drivers train them (S2V-DQN on BrightKite,
//! RL4IM on the synthetic WC pool) and queried on two catalog graphs of
//! different families. The pinned seeds were recorded with the per-step
//! tape forward pass that greedy inference used before the incremental
//! rollout replaced it, so any drift in inference or in the validation
//! rollouts that pick the training checkpoint shows up here.

use mcpb_drl::common::Task;
use mcpb_drl::rl4im::{synthetic_training_pool, Rl4Im, Rl4ImConfig};
use mcpb_drl::s2v_dqn::{S2vDqn, S2vDqnConfig};
use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_graph::{catalog, Graph, NodeId};

const BUDGET: usize = 30;

fn query_graphs(weights: Option<WeightModel>) -> Vec<(&'static str, Graph)> {
    ["Damascus", "CondMat"]
        .into_iter()
        .map(|name| {
            let g = catalog::require(name).expect("catalog dataset").load();
            let g = match weights {
                Some(w) => assign_weights(&g, w, 7),
                None => g,
            };
            (name, g)
        })
        .collect()
}

fn s2v_dqn_seeds() -> Vec<(&'static str, Vec<NodeId>)> {
    let train = catalog::require("BrightKite").expect("catalog").load();
    let mut model = S2vDqn::new(S2vDqnConfig {
        episodes: 20,
        train_subgraph_nodes: 40,
        train_budget: 5,
        validate_every: 5,
        eps_decay_steps: 40,
        seed: 7,
        task: Task::Mcp,
        ..S2vDqnConfig::default()
    });
    model.train(&train);
    query_graphs(None)
        .into_iter()
        .map(|(name, g)| (name, model.infer(&g, BUDGET)))
        .collect()
}

fn rl4im_seeds() -> Vec<(&'static str, Vec<NodeId>)> {
    let mut model = Rl4Im::new(Rl4ImConfig {
        episodes: 25,
        train_budget: 5,
        batch_size: 8,
        eps_decay_steps: 50,
        validate_every: 10,
        task: Task::Im { rr_sets: 1_000 },
        seed: 7,
        ..Rl4ImConfig::default()
    });
    model.train(&synthetic_training_pool(
        8,
        60,
        WeightModel::WeightedCascade,
        7,
    ));
    query_graphs(Some(WeightModel::WeightedCascade))
        .into_iter()
        .map(|(name, g)| (name, model.infer(&g, BUDGET)))
        .collect()
}

fn assert_golden(method: &str, got: &[(&str, Vec<NodeId>)], want: &[(&str, &[NodeId])]) {
    assert_eq!(got.len(), want.len());
    for ((name, seeds), (want_name, want_seeds)) in got.iter().zip(want) {
        assert_eq!(name, want_name);
        assert_eq!(
            seeds.as_slice(),
            *want_seeds,
            "{method} seed set on {name} drifted"
        );
    }
}

#[test]
fn s2v_dqn_seed_sets_are_pinned() {
    assert_golden("S2V-DQN", &s2v_dqn_seeds(), S2V_DQN_GOLDEN);
}

#[test]
fn rl4im_seed_sets_are_pinned() {
    assert_golden("RL4IM", &rl4im_seeds(), RL4IM_GOLDEN);
}

const S2V_DQN_GOLDEN: &[(&str, &[NodeId])] = &[
    (
        "Damascus",
        &[
            0, 2, 28, 8, 15, 60, 6, 4, 29, 63, 20, 5, 24, 79, 46, 32, 16, 1, 25, 49, 39, 62, 9, 37,
            168, 18, 132, 31, 159, 107,
        ],
    ),
    (
        "CondMat",
        &[
            903, 620, 1343, 1421, 1422, 1420, 1419, 1418, 1417, 1416, 851, 849, 848, 847, 846, 845,
            850, 604, 51, 1667, 1668, 1669, 1666, 1665, 1670, 1671, 1672, 1664, 1054, 1055,
        ],
    ),
];

const RL4IM_GOLDEN: &[(&str, &[NodeId])] = &[
    (
        "Damascus",
        &[
            0, 2, 28, 60, 15, 8, 24, 4, 5, 63, 20, 16, 46, 29, 79, 39, 49, 32, 107, 62, 87, 172,
            282, 14, 26, 90, 48, 140, 129, 1,
        ],
    ),
    (
        "CondMat",
        &[
            620, 903, 1343, 136, 150, 183, 381, 661, 745, 849, 203, 1092, 1195, 274, 399, 427,
            1215, 1266, 489, 1668, 569, 1876, 888, 1021, 1118, 1399, 1580, 1593, 1841, 1927,
        ],
    ),
];
