//! Determinism contract: every component of the benchmark is ChaCha-seeded
//! and must reproduce bit-for-bit across runs — the property that makes the
//! regenerated tables citable.

use mcp_benchmark::prelude::*;

fn test_graph() -> graph::Graph {
    graph::weights::assign_weights(
        &graph::generators::barabasi_albert(200, 3, 11),
        WeightModel::WeightedCascade,
        0,
    )
}

#[test]
fn traditional_solvers_are_deterministic() {
    let g = test_graph();
    assert_eq!(
        mcp::LazyGreedy::run(&g, 10).seeds,
        mcp::LazyGreedy::run(&g, 10).seeds
    );
    assert_eq!(
        im::Imm::paper_default(5).run(&g, 8).0.seeds,
        im::Imm::paper_default(5).run(&g, 8).0.seeds
    );
    assert_eq!(
        im::Opim::paper_default(5).run(&g, 8).0.seeds,
        im::Opim::paper_default(5).run(&g, 8).0.seeds
    );
    assert_eq!(
        im::TimPlus::with_seed(5).run(&g, 8).0.seeds,
        im::TimPlus::with_seed(5).run(&g, 8).0.seeds
    );
    assert_eq!(
        im::CelfPlusPlus::new(2_000, 5).run(&g, 8).seeds,
        im::CelfPlusPlus::new(2_000, 5).run(&g, 8).seeds
    );
    assert_eq!(
        im::SimulatedAnnealing::with_seed(5).run(&g, 8).seeds,
        im::SimulatedAnnealing::with_seed(5).run(&g, 8).seeds
    );
}

#[test]
fn rr_sampling_is_deterministic_and_parallel_safe() {
    // Parallel sampling (mcpb-par) must still be order-deterministic.
    let g = test_graph();
    let a = im::sample_collection(&g, 5_000, 9);
    let b = im::sample_collection(&g, 5_000, 9);
    assert_eq!(a.sets(), b.sets());
}

#[test]
fn monte_carlo_is_deterministic() {
    let g = test_graph();
    let a = im::influence_mc(&g, &[0, 1, 2], 3_000, 13);
    let b = im::influence_mc(&g, &[0, 1, 2], 3_000, 13);
    assert_eq!(a, b);
    let c = im::influence_mc_lt(&g, &[0, 1, 2], 3_000, 13);
    let d = im::influence_mc_lt(&g, &[0, 1, 2], 3_000, 13);
    assert_eq!(c, d);
}

#[test]
fn deep_rl_training_is_deterministic() {
    let train = graph::generators::barabasi_albert(150, 3, 17);
    let make = || {
        let mut model = drl::S2vDqn::new(drl::S2vDqnConfig {
            episodes: 8,
            seed: 21,
            ..drl::S2vDqnConfig::default()
        });
        model.train(&train);
        model.infer(&train, 5)
    };
    assert_eq!(make(), make());
}

#[test]
fn catalog_and_weights_are_deterministic() {
    for name in ["BrightKite", "WikiTalk", "CondMat"] {
        let d = graph::catalog::by_name(name).unwrap();
        let a = d.load();
        let b = d.load();
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }
    let g = graph::generators::barabasi_albert(100, 2, 3);
    for model in WeightModel::all() {
        let a = graph::weights::assign_weights(&g, model, 7);
        let b = graph::weights::assign_weights(&g, model, 7);
        assert_eq!(
            a.edges().collect::<Vec<_>>(),
            b.edges().collect::<Vec<_>>(),
            "{model}"
        );
    }
}

#[test]
fn full_benchmark_records_reproduce() {
    use mcpb_bench::registry::McpMethodKind;
    let mut spec = BenchmarkSpec::quick_mcp(&["Damascus"], &[4]);
    spec.mcp_methods = vec![McpMethodKind::LazyGreedy, McpMethodKind::Gcomb];
    let a = run_benchmark(&spec);
    let b = run_benchmark(&spec);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.method, rb.method);
        assert_eq!(ra.quality, rb.quality, "{}", ra.method);
        assert_eq!(ra.absolute, rb.absolute);
    }
}
