//! Struc2Vec / structure2vec (Dai et al. 2016) — the embedding network of
//! S2V-DQN and RL4IM.
//!
//! The embedding recursion (T synchronous rounds, starting from zeros):
//!
//! ```text
//! mu_v <- relu( theta1 * x_v
//!             + theta2 * sum_{u in N(v)} mu_u
//!             + theta3 * sum_{(u,v) in E} relu(theta4 * w_uv) )
//! ```
//!
//! where `x_v` is a scalar node tag (e.g. the "already in the solution"
//! indicator S2V-DQN uses).

use crate::adjacency::{in_edge_incidence, neighbor_sum};
use mcpb_graph::Graph;
use mcpb_nn::prelude::*;
use std::sync::Arc;

/// Per-graph fixed operators the S2V forward pass needs.
#[derive(Debug, Clone)]
pub struct S2vGraph {
    /// Undirected neighbor-sum operator (`n x n`).
    pub nsum: Arc<SparseMatrix>,
    /// In-edge incidence operator (`n x E`).
    pub incidence: Arc<SparseMatrix>,
    /// Edge weights (`E x 1`) aligned with the incidence columns.
    pub edge_weights: Tensor,
    /// Node count.
    pub n: usize,
}

impl S2vGraph {
    /// Precomputes the operators for `g`.
    pub fn new(g: &Graph) -> Self {
        let (incidence, weights) = in_edge_incidence(g);
        Self {
            nsum: Arc::new(neighbor_sum(g)),
            incidence: Arc::new(incidence),
            edge_weights: Tensor::column(&weights),
            n: g.num_nodes(),
        }
    }
}

/// The Struc2Vec parameter set.
#[derive(Debug, Clone, Copy)]
pub struct S2v {
    theta1: ParamId,
    theta2: ParamId,
    theta3: ParamId,
    theta4: ParamId,
    /// Embedding dimension.
    pub dim: usize,
    /// Number of message-passing rounds.
    pub rounds: usize,
}

impl S2v {
    /// Registers parameters for embedding dimension `dim` and `rounds`
    /// rounds of message passing.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, rounds: usize) -> Self {
        Self {
            theta1: store.register_xavier(&format!("{name}.theta1"), 1, dim),
            theta2: store.register_xavier(&format!("{name}.theta2"), dim, dim),
            theta3: store.register_xavier(&format!("{name}.theta3"), dim, dim),
            theta4: store.register_xavier(&format!("{name}.theta4"), 1, dim),
            dim,
            rounds,
        }
    }

    /// Runs the embedding recursion. `x` is the `n x 1` node-tag input
    /// already on the tape. Returns `n x dim` embeddings.
    pub fn embed(&self, tape: &mut Tape, store: &ParamStore, sg: &S2vGraph, x: Var) -> Var {
        let _span = mcpb_trace::span("nn.forward");
        let t1 = tape.param(store, self.theta1);
        let t2 = tape.param(store, self.theta2);
        let t3 = tape.param(store, self.theta3);
        let t4 = tape.param(store, self.theta4);

        // Edge term is loop-invariant: incidence * relu(w_e * theta4) * theta3.
        let we = tape.input(self.edge_input(sg));
        let edge_feat = tape.matmul(we, t4);
        let edge_relu = tape.relu(edge_feat);
        let edge_agg = tape.spmm(sg.incidence.clone(), edge_relu);
        let edge_term = tape.matmul(edge_agg, t3);

        // Node-tag term is loop-invariant too.
        let tag_term = tape.matmul(x, t1);

        let mut mu = tape.input(Tensor::zeros(sg.n, self.dim));
        for _ in 0..self.rounds {
            // audit:allow(MCPB013) — Arc refcount bump, not a buffer copy
            let pooled = tape.spmm(sg.nsum.clone(), mu);
            let msg = tape.matmul(pooled, t2);
            let sum1 = tape.add(tag_term, msg);
            let sum2 = tape.add(sum1, edge_term);
            mu = tape.relu(sum2);
        }
        mu
    }

    /// Gradient-free embedding state for a greedy rollout on `sg`, with
    /// every tag at zero. See [`S2vRollout`].
    pub fn rollout<'a>(&self, store: &'a ParamStore, sg: &'a S2vGraph) -> S2vRollout<'a> {
        S2vRollout::new(self, store, sg)
    }

    fn edge_input(&self, sg: &S2vGraph) -> Tensor {
        if sg.edge_weights.is_empty() {
            // Degenerate graphs with no edges still need a (0 x 1) operand.
            Tensor::zeros(0, 1)
        } else {
            sg.edge_weights.clone()
        }
    }
}

/// Gradient-free S2V embeddings that follow a greedy rollout one tag at a
/// time.
///
/// A rollout step changes the tag of one node `v`, and that change reaches
/// round `r` only through rows that changed in round `r - 1`. The state
/// keeps one `n x dim` buffer per round, and [`S2vRollout::set_tag`]
/// recomputes only the rows whose inputs changed: row `v` in round 1, and
/// `{v} ∪ N(rows that changed in round r - 1)` in round `r` (`nsum` has no
/// self-loops, so `v` is added for its tag term). A step thus costs
/// O(Σ over recomputed rows of (deg · dim + dim²)) instead of a full
/// forward pass.
///
/// Every row is computed by the same per-element operations, in the same
/// order, as [`S2v::embed`] on the tape: [`SparseMatrix::row_matmul_dense_into`]
/// and [`Tensor::vecmat_into`] reproduce one output row of their full
/// kernels, the sum is `tag + msg`, then `+ edge`, and relu is `max(0.0)`.
/// Those kernels compute each output row independently, so the embeddings
/// are bit-identical to a tape forward pass with the same tags.
pub struct S2vRollout<'a> {
    sg: &'a S2vGraph,
    theta1: &'a Tensor,
    theta2: &'a Tensor,
    dim: usize,
    /// First-round message. The tape pools all-zero start embeddings, which
    /// gives `+0.0` for every row (the `nsum` values are finite), so every
    /// node's first-round message is `0 * theta2`.
    msg0: Vec<f32>,
    /// Loop-invariant edge term `incidence * relu(w * theta4) * theta3`.
    edge_term: Tensor,
    tags: Vec<f32>,
    rounds: usize,
    /// `mu[r]` is the output of round `r + 1`. With zero rounds the one
    /// buffer stays all zeros, as the tape's embeddings do.
    mu: Vec<Tensor>,
    /// Rows to recompute in the current round.
    frontier: Vec<usize>,
    /// Rows whose bits changed in the last round computed.
    changed: Vec<usize>,
    /// Membership bitmap for `frontier`; all false between rounds.
    mark: Vec<bool>,
    pooled: Vec<f32>,
    msg: Vec<f32>,
    tag_row: Vec<f32>,
}

impl<'a> S2vRollout<'a> {
    fn new(s2v: &S2v, store: &'a ParamStore, sg: &'a S2vGraph) -> Self {
        debug_assert!(
            sg.nsum.values.iter().all(|v| v.is_finite()),
            "the first-round message assumes finite nsum values"
        );
        let (n, dim) = (sg.n, s2v.dim);
        let theta2 = store.value(s2v.theta2);
        let mut msg0 = vec![0.0; dim];
        theta2.vecmat_into(&vec![0.0; dim], &mut msg0);
        let edge_term = edge_aggregate(sg, store.value(s2v.theta4)).matmul(store.value(s2v.theta3));
        let mut state = Self {
            sg,
            theta1: store.value(s2v.theta1),
            theta2,
            dim,
            msg0,
            edge_term,
            tags: vec![0.0; n],
            rounds: s2v.rounds,
            mu: (0..s2v.rounds.max(1))
                .map(|_| Tensor::zeros(n, dim))
                .collect(),
            frontier: Vec::new(),
            changed: Vec::new(),
            mark: vec![false; n],
            pooled: vec![0.0; dim],
            msg: vec![0.0; dim],
            tag_row: vec![0.0; dim],
        };
        for r in 0..s2v.rounds {
            for i in 0..n {
                state.recompute_row(r, i);
            }
        }
        state
    }

    /// Node tags in effect.
    pub fn tags(&self) -> &[f32] {
        &self.tags
    }

    /// The final-round embeddings (`n x dim`).
    pub fn embeddings(&self) -> &Tensor {
        &self.mu[self.mu.len() - 1]
    }

    /// Rows of [`S2vRollout::embeddings`] that changed in the last
    /// [`S2vRollout::set_tag`].
    pub fn changed_rows(&self) -> &[usize] {
        &self.changed
    }

    /// Sets the tag of node `v` to `x` and brings every round up to date.
    pub fn set_tag(&mut self, v: usize, x: f32) {
        self.tags[v] = x;
        self.changed.clear();
        for r in 0..self.rounds {
            self.frontier.clear();
            self.frontier.push(v);
            self.mark[v] = true;
            for &c in &self.changed {
                for &u in self.sg.nsum.row_indices(c) {
                    let u = u as usize;
                    if !self.mark[u] {
                        self.mark[u] = true;
                        self.frontier.push(u);
                    }
                }
            }
            self.changed.clear();
            for idx in 0..self.frontier.len() {
                let i = self.frontier[idx];
                self.mark[i] = false;
                if self.recompute_row(r, i) {
                    self.changed.push(i);
                }
            }
        }
    }

    /// Recomputes row `i` of round `r + 1`; true when any bit changed.
    fn recompute_row(&mut self, r: usize, i: usize) -> bool {
        let d = self.dim;
        if r == 0 {
            self.msg.copy_from_slice(&self.msg0);
        } else {
            self.sg
                .nsum
                .row_matmul_dense_into(i, &self.mu[r - 1], &mut self.pooled);
            self.theta2.vecmat_into(&self.pooled, &mut self.msg);
        }
        self.theta1.vecmat_into(&[self.tags[i]], &mut self.tag_row);
        let edge = self.edge_term.row_slice(i);
        let row = &mut self.mu[r].data[i * d..(i + 1) * d];
        let mut changed = false;
        for j in 0..d {
            let sum = (self.tag_row[j] + self.msg[j]) + edge[j];
            #[cfg(debug_assertions)]
            check_finite(sum, r, i, j);
            let y = sum.max(0.0);
            changed |= y.to_bits() != row[j].to_bits();
            row[j] = y;
        }
        changed
    }
}

/// The tape's `incidence * relu(w * theta4)` (`n x dim`), forming each
/// edge's `relu(w_e * theta4)` row when its incidence entry is summed instead
/// of materializing the `E x dim` matrix first. The per-element operations
/// and the CSR summation order are the tape's, so the result is
/// bit-identical; skipping the intermediate saves its allocation and the
/// scattered reads of its rows.
fn edge_aggregate(sg: &S2vGraph, theta4: &Tensor) -> Tensor {
    let (inc, dim) = (&sg.incidence, theta4.cols);
    let mut agg = Tensor::zeros(sg.n, dim);
    let mut feat = vec![0.0; dim];
    for v in 0..sg.n {
        let out = &mut agg.data[v * dim..(v + 1) * dim];
        for idx in inc.offsets[v]..inc.offsets[v + 1] {
            let w = sg.edge_weights.data[inc.indices[idx] as usize];
            theta4.vecmat_into(&[w], &mut feat);
            let val = inc.values[idx];
            for (o, &f) in out.iter_mut().zip(&feat) {
                *o += val * f.max(0.0);
            }
        }
    }
    agg
}

/// Debug-mode numeric sanitizer of the rollout, the counterpart of the
/// tape's: aborts at the first non-finite pre-activation, naming the round
/// and the row.
#[cfg(debug_assertions)]
fn check_finite(sum: f32, r: usize, i: usize, j: usize) {
    if !sum.is_finite() {
        // audit:allow(MCPB002) — the sanitizer's whole job is to abort.
        panic!(
            "mcpb-gnn sanitizer: S2V rollout produced non-finite value {sum} \
             in round {} at row {i}, element {j}",
            r + 1
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_nn::optim::Adam;

    #[test]
    fn embeddings_have_requested_shape() {
        let g = generators::barabasi_albert(25, 2, 1);
        let sg = S2vGraph::new(&g);
        let mut store = ParamStore::new(0);
        let s2v = S2v::new(&mut store, "s2v", 8, 3);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(25, 1));
        let mu = s2v.embed(&mut tape, &store, &sg, x);
        assert_eq!((tape.value(mu).rows, tape.value(mu).cols), (25, 8));
    }

    #[test]
    fn node_tags_change_embeddings() {
        let g = generators::barabasi_albert(20, 2, 2);
        let sg = S2vGraph::new(&g);
        let mut store = ParamStore::new(1);
        let s2v = S2v::new(&mut store, "s2v", 4, 2);

        let run = |tag: f32| -> Tensor {
            let mut tape = Tape::new();
            let mut tags = Tensor::zeros(20, 1);
            tags.data[0] = tag;
            let x = tape.input(tags);
            let mu = s2v.embed(&mut tape, &store, &sg, x);
            tape.value(mu).clone()
        };
        let a = run(0.0);
        let b = run(1.0);
        assert_ne!(a, b, "tagging node 0 must perturb embeddings");
    }

    #[test]
    fn s2v_is_trainable_end_to_end() {
        // Regress pooled embedding -> number of edges across random graphs.
        let graphs: Vec<_> = (0..6u64)
            .map(|s| {
                assign_weights(
                    &generators::erdos_renyi(15, 15 + (s as usize) * 8, s),
                    WeightModel::Constant,
                    0,
                )
            })
            .collect();
        let mut store = ParamStore::new(3);
        let s2v = S2v::new(&mut store, "s2v", 8, 2);
        let head = Linear::new(&mut store, "head", 8, 1);
        let mut adam = Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..120 {
            let mut total = 0.0;
            for g in &graphs {
                let sg = S2vGraph::new(g);
                let target = g.num_edges() as f32 / 100.0;
                let mut tape = Tape::new();
                let x = tape.input(Tensor::zeros(g.num_nodes(), 1));
                let mu = s2v.embed(&mut tape, &store, &sg, x);
                let pooled = tape.sum_rows(mu);
                let pred = head.forward(&mut tape, &store, pooled);
                let loss = tape.mse_loss(pred, Tensor::scalar(target));
                tape.backward(loss);
                total += tape.value(loss).item();
                let grads = tape.param_grads();
                adam.step(&mut store, &grads);
            }
            first.get_or_insert(total);
            last = total;
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss {:?} -> {last}",
            first.unwrap()
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in round 1 at row 3")]
    fn rollout_sanitizer_names_round_and_row() {
        let g = generators::barabasi_albert(10, 2, 1);
        let sg = S2vGraph::new(&g);
        let mut store = ParamStore::new(0);
        let s2v = S2v::new(&mut store, "s2v", 4, 2);
        store.value_mut(s2v.theta1).data.fill(f32::MAX);
        let mut rollout = s2v.rollout(&store, &sg);
        rollout.set_tag(3, f32::MAX);
    }

    #[test]
    fn empty_graph_embeds_without_panic() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let sg = S2vGraph::new(&g);
        let mut store = ParamStore::new(0);
        let s2v = S2v::new(&mut store, "s2v", 4, 2);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(0, 1));
        let mu = s2v.embed(&mut tape, &store, &sg, x);
        assert_eq!(tape.value(mu).rows, 0);
    }
}
