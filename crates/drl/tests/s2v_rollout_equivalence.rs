//! The incremental S2V rollout against the tape.
//!
//! Greedy inference for S2V-DQN and RL4IM runs on [`S2vQNet::rollout`],
//! which updates only the embedding rows a tag change reaches. These
//! properties drive it and a tape-driven rollout (one full
//! [`S2vQNet::q_numbers`] forward pass per step, kept here and not in the
//! library) side by side on random graphs, weights, shapes and budgets, and
//! demand `to_bits()`-equal Q values and embeddings at every step and equal
//! seed sets.

use mcpb_drl::s2v_dqn::S2vQNet;
use mcpb_gnn::s2v::S2vGraph;
use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_graph::{generators, Edge, Graph, NodeId};
use mcpb_nn::{ParamStore, Tape, Tensor};
use mcpb_rl::dqn::argmax;
use proptest::prelude::*;

fn build_graph(family: usize, n: usize, density: usize, seed: u64) -> Graph {
    match family {
        0 => generators::barabasi_albert(n, 1 + density % 3, seed),
        // Sparse ER graphs leave isolated nodes.
        1 => generators::erdos_renyi(n, n * density / 2, seed),
        2 => Graph::from_edges(n, &[]).expect("edgeless graph"),
        3 => Graph::from_edges(1, &[]).expect("single node"),
        _ => {
            // Directed edge list with self-loops and parallel edges.
            let m = n * (density + 1);
            let edges: Vec<Edge> = (0..m)
                .map(|i| {
                    let h = seed
                        .wrapping_add(i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    Edge {
                        src: (h % n as u64) as NodeId,
                        dst: ((h >> 32) % n as u64) as NodeId,
                        weight: 1.0,
                    }
                })
                .collect();
            Graph::from_edges(n, &edges).expect("edge list in range")
        }
    }
}

/// Tape embeddings for `tags`, the reference the rollout's must equal.
fn tape_embeddings(net: &S2vQNet, store: &ParamStore, sg: &S2vGraph, tags: &[f32]) -> Tensor {
    let mut tape = Tape::new();
    let x = tape.input(Tensor::column(tags));
    let mu = net.s2v.embed(&mut tape, store, sg, x);
    tape.value(mu).clone()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} ({g} vs {w})");
    }
}

/// Runs the incremental rollout and the tape rollout in lockstep; returns
/// the seed set both produced.
fn lockstep(
    net: &S2vQNet,
    store: &ParamStore,
    sg: &S2vGraph,
    budget: usize,
    tag: impl Fn(usize) -> f32,
) -> Vec<NodeId> {
    let n = sg.n;
    let mut state = net.rollout(store, sg);
    let mut tags = vec![0f32; n];
    let mut seeds = Vec::new();
    let mut q_roll = Vec::new();
    for step in 0..budget {
        let candidates: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| tags[v as usize] == 0.0)
            .collect();
        let q_tape = net.q_numbers(store, sg, &tags, &candidates);
        state.q_values_into(&mut q_roll);
        assert_bits_eq(&q_roll, &q_tape, &format!("Q at step {step}"));
        let pick = state.greedy_pick();
        if candidates.is_empty() {
            assert_eq!(pick, None, "no candidate left at step {step}");
            break;
        }
        let want = candidates[argmax(&q_tape)];
        assert_eq!(pick, Some(want), "greedy pick at step {step}");
        tags[want as usize] = tag(step);
        state.set_tag(want, tag(step));
        assert_bits_eq(state.tags(), &tags, "tags");
        seeds.push(want);
    }
    seeds
}

fn weight_model(i: usize) -> WeightModel {
    [
        WeightModel::Constant,
        WeightModel::WeightedCascade,
        WeightModel::TriValency,
    ][i]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rollout_is_bit_identical_to_the_tape(
        family in 0usize..5,
        n in 1usize..48,
        density in 0usize..5,
        weights in 0usize..3,
        rounds in 1usize..5,
        dim in 1usize..17,
        fractional_tags in any::<bool>(),
        budget_kind in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let g = assign_weights(&build_graph(family, n, density, seed), weight_model(weights), seed);
        let n = g.num_nodes();
        let sg = S2vGraph::new(&g);
        let mut store = ParamStore::new(seed);
        let net = S2vQNet::new(&mut store, "q", dim, rounds);
        let k = match budget_kind {
            0 => 0,
            1 => 1 + (seed as usize) % n,
            _ => n + 3,
        };
        // RL4IM without state abstraction tags by selection order.
        let tag = |step: usize| {
            if fractional_tags {
                (step + 1) as f32 / k.max(1) as f32
            } else {
                1.0
            }
        };

        let seeds = lockstep(&net, &store, &sg, k, tag);
        prop_assert_eq!(seeds.len(), k.min(n));
        prop_assert_eq!(net.greedy_rollout(&store, &sg, k, tag), seeds);
    }

    #[test]
    fn embeddings_and_q_track_the_tape_after_every_tag(
        family in 0usize..5,
        n in 1usize..40,
        density in 0usize..5,
        rounds in 1usize..5,
        dim in 1usize..17,
        seed in 0u64..10_000,
    ) {
        let g = assign_weights(&build_graph(family, n, density, seed), WeightModel::TriValency, seed);
        let n = g.num_nodes();
        let sg = S2vGraph::new(&g);
        let mut store = ParamStore::new(seed ^ 0x5eed);
        let net = S2vQNet::new(&mut store, "q", dim, rounds);
        let mut emb = net.s2v.rollout(&store, &sg);
        let mut q_state = net.rollout(&store, &sg);
        let mut tags = vec![0f32; n];
        let mut q_roll = Vec::new();
        // Arbitrary order, repeated nodes and retagging back to zero.
        for step in 0..2 * n {
            let v = (seed as usize + step * 7) % n;
            let x = if step % 5 == 4 { 0.0 } else { (step % 3) as f32 * 0.5 + 0.25 };
            tags[v] = x;
            emb.set_tag(v, x);
            q_state.set_tag(v as NodeId, x);
            assert_bits_eq(
                &emb.embeddings().data,
                &tape_embeddings(&net, &store, &sg, &tags).data,
                &format!("embeddings after step {step}"),
            );
            let candidates: Vec<NodeId> = (0..n as NodeId)
                .filter(|&u| tags[u as usize] == 0.0)
                .collect();
            q_state.q_values_into(&mut q_roll);
            assert_bits_eq(
                &q_roll,
                &net.q_numbers(&store, &sg, &tags, &candidates),
                &format!("Q after step {step}"),
            );
        }
    }
}
