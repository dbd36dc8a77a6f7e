//! # mcp-benchmark
//!
//! Facade crate re-exporting the whole MCP/IM benchmark suite — a Rust
//! reproduction of *"A Benchmark Study of Deep-RL Methods for Maximum
//! Coverage Problems over Graphs"* (PVLDB 2024).
//!
//! Sub-crates:
//! * [`graph`] — CSR graphs, generators, dataset catalog, statistics,
//!   edge-weight models, similarity metrics.
//! * [`mcp`] — coverage oracle, Normal/Lazy Greedy, baselines.
//! * [`im`] — IC cascades, RIS machinery, IMM, OPIM, discount heuristics,
//!   CELF, CHANGE.
//! * [`nn`] — from-scratch autodiff, layers, optimizers.
//! * [`gnn`] — GCN, Struc2Vec, DeepWalk.
//! * [`rl`] — replay, schedules, generic DQN.
//! * [`drl`] — the five Deep-RL methods: S2V-DQN, GCOMB, RL4IM,
//!   Geometric-QN, LeNSE.
//! * `bench` — benchmarking framework + one driver per table/figure.
//! * [`core`] — declarative benchmark orchestration (`bench::core`).
//!
//! ```
//! use mcp_benchmark::prelude::*;
//!
//! let g = graph::generators::barabasi_albert(200, 3, 7);
//! let greedy = mcp::LazyGreedy::run(&g, 10);
//! assert!(greedy.coverage > 0.3);
//! ```

pub use mcpb_bench as bench;
pub use mcpb_bench::core;
pub use mcpb_drl as drl;
pub use mcpb_gnn as gnn;
pub use mcpb_graph as graph;
pub use mcpb_im as im;
pub use mcpb_mcp as mcp;
pub use mcpb_nn as nn;
pub use mcpb_rl as rl;

/// One-stop prelude for examples and integration tests.
pub mod prelude {
    pub use mcpb_bench as bench;
    pub use mcpb_bench::core::{run_benchmark, BenchmarkReport, BenchmarkSpec, Problem};
    pub use mcpb_drl as drl;
    pub use mcpb_gnn as gnn;
    pub use mcpb_graph as graph;
    pub use mcpb_graph::WeightModel;
    pub use mcpb_im as im;
    pub use mcpb_mcp as mcp;
    pub use mcpb_nn as nn;
    pub use mcpb_rl as rl;
}
