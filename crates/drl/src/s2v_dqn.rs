//! S2V-DQN (Khalil et al., NeurIPS 2017): structure2vec node embeddings
//! feeding a Q-network trained with Q-learning to build a seed set node by
//! node (§3.2).
//!
//! `Q(S, v) = theta5^T relu([theta6 * sum_u mu_u , theta7 * mu_v])`, where
//! the `mu` embeddings are computed with the solution-membership indicator
//! as the node tag. Training runs episodes on BFS-sampled subgraphs of the
//! training graph (the paper trains on BrightKite for MCP); inference runs
//! the greedy policy on the full test graph.

use crate::common::{
    sample_training_subgraph, Episode, Learner, RewardOracle, Task, TrainReport, Trainer,
};
use mcpb_gnn::s2v::{S2v, S2vGraph, S2vRollout};
use mcpb_graph::{Graph, NodeId};
use mcpb_im::solver::{ImSolution, ImSolver};
use mcpb_mcp::solver::{McpSolution, McpSolver};
use mcpb_nn::optim::merge_grads;
use mcpb_nn::prelude::*;
use mcpb_rl::replay::ReplayBuffer;
use mcpb_rl::schedule::EpsilonSchedule;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The S2V + Q-head network shared by S2V-DQN and RL4IM. Parameter ids are
/// valid in both the online and target stores (identical registration
/// order).
#[derive(Debug, Clone, Copy)]
pub struct S2vQNet {
    /// The embedding network.
    pub s2v: S2v,
    theta5: ParamId,
    theta6: ParamId,
    theta7: ParamId,
}

impl S2vQNet {
    /// Registers the network in `store`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, rounds: usize) -> Self {
        let s2v = S2v::new(store, &format!("{name}.s2v"), dim, rounds);
        Self {
            s2v,
            theta5: store.register_xavier(&format!("{name}.theta5"), 2 * dim, 1),
            theta6: store.register_xavier(&format!("{name}.theta6"), dim, dim),
            theta7: store.register_xavier(&format!("{name}.theta7"), dim, dim),
        }
    }

    /// Q values for `candidates` given solution tags. Returns the tape (for
    /// backward) and the `c x 1` Q output variable.
    pub fn q_values(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        sg: &S2vGraph,
        tags: &[f32],
        candidates: &[NodeId],
    ) -> Var {
        let x = tape.input(Tensor::column(tags));
        let mu = self.s2v.embed(tape, store, sg, x);
        let t5 = tape.param(store, self.theta5);
        let t6 = tape.param(store, self.theta6);
        let t7 = tape.param(store, self.theta7);
        // Mean pooling (sum / n) keeps the state-feature scale comparable
        // between small training subgraphs and large test graphs; the
        // original sum pooling is what makes size transfer brittle.
        let pooled_sum = tape.sum_rows(mu);
        let pooled = tape.scale(pooled_sum, 1.0 / sg.n.max(1) as f32);
        let pooled6 = tape.matmul(pooled, t6);
        let rows: Vec<usize> = candidates.iter().map(|&v| v as usize).collect();
        let n_cand = rows.len();
        let cand = tape.gather_rows(mu, rows);
        let cand7 = tape.matmul(cand, t7);
        let rep = tape.repeat_row(pooled6, n_cand);
        let cat = tape.concat_cols(rep, cand7);
        let act = tape.relu(cat);
        tape.matmul(act, t5)
    }

    /// Q values as plain numbers (no gradient kept).
    pub fn q_numbers(
        &self,
        store: &ParamStore,
        sg: &S2vGraph,
        tags: &[f32],
        candidates: &[NodeId],
    ) -> Vec<f32> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let mut tape = Tape::new();
        let q = self.q_values(&mut tape, store, sg, tags, candidates);
        tape.value(q).data.clone()
    }

    /// Gradient-free Q state for a greedy rollout on `sg`, with every tag at
    /// zero. See [`S2vQRollout`].
    pub fn rollout<'a>(&self, store: &'a ParamStore, sg: &'a S2vGraph) -> S2vQRollout<'a> {
        let emb = self.s2v.rollout(store, sg);
        let theta7 = store.value(self.theta7);
        // Rows of a matmul are independent, so this equals the tape's
        // `gather_rows(mu, candidates) * theta7` row for row.
        let cand7 = emb.embeddings().matmul(theta7);
        S2vQRollout {
            emb,
            theta5: store.value(self.theta5),
            theta6: store.value(self.theta6),
            theta7,
            cand7,
            pooled: vec![0.0; self.s2v.dim],
            pooled6: vec![0.0; self.s2v.dim],
        }
    }

    /// Greedy policy rollout: `budget` sequential argmax-Q selections over
    /// the untagged nodes, tagging the `step`-th pick with `tag(step)`.
    pub fn greedy_rollout(
        &self,
        store: &ParamStore,
        sg: &S2vGraph,
        budget: usize,
        mut tag: impl FnMut(usize) -> f32,
    ) -> Vec<NodeId> {
        let _span = mcpb_trace::span("nn.rollout");
        let mut state = self.rollout(store, sg);
        let mut seeds = Vec::with_capacity(budget.min(sg.n));
        for step in 0..budget {
            let Some(pick) = state.greedy_pick() else {
                break;
            };
            seeds.push(pick);
            if step + 1 < budget {
                state.set_tag(pick, tag(step));
            }
        }
        seeds
    }
}

/// Gradient-free Q values over an [`S2vRollout`], for greedy inference.
///
/// Besides the embeddings it keeps the rows of `mu_T * theta7` and
/// refreshes only the rows that a tag change touched. Scoring a step
/// re-sums the pooled row over all rows in row order, computes
/// `pooled * theta6` and the `theta5` dot product over that half once, and
/// then finishes each candidate's dot product from its cached row. Every
/// value comes from the same per-element operations, in the same order, as
/// [`S2vQNet::q_values`] on the tape, so the Q values are bit-identical to
/// [`S2vQNet::q_numbers`] with the same tags.
pub struct S2vQRollout<'a> {
    emb: S2vRollout<'a>,
    theta5: &'a Tensor,
    theta6: &'a Tensor,
    theta7: &'a Tensor,
    /// Row `v` is `mu_T[v] * theta7`.
    cand7: Tensor,
    pooled: Vec<f32>,
    pooled6: Vec<f32>,
}

impl S2vQRollout<'_> {
    /// Node tags in effect; candidates are the nodes tagged `0.0`.
    pub fn tags(&self) -> &[f32] {
        self.emb.tags()
    }

    /// Sets the tag of `v` to `x`, updating embeddings and cached rows.
    pub fn set_tag(&mut self, v: NodeId, x: f32) {
        self.emb.set_tag(v as usize, x);
        let mu = self.emb.embeddings();
        let w = self.cand7.cols;
        for &i in self.emb.changed_rows() {
            let out = &mut self.cand7.data[i * w..(i + 1) * w];
            self.theta7.vecmat_into(mu.row_slice(i), out);
        }
    }

    /// The `theta5` dot product over the pooled half of the Q input, shared
    /// by every candidate of the step.
    fn state_prefix(&mut self) -> f32 {
        let mu = self.emb.embeddings();
        self.pooled.fill(0.0);
        for r in 0..mu.rows {
            for (p, &x) in self.pooled.iter_mut().zip(mu.row_slice(r)) {
                *p += x;
            }
        }
        let scale = 1.0 / mu.rows.max(1) as f32;
        for p in self.pooled.iter_mut() {
            *p *= scale;
        }
        self.theta6.vecmat_into(&self.pooled, &mut self.pooled6);
        let mut acc = 0.0f32;
        for (&p, &w) in self.pooled6.iter().zip(&self.theta5.data) {
            acc += p.max(0.0) * w;
        }
        acc
    }

    /// Finishes the Q value of node `v` from the shared prefix.
    fn q_of(&self, prefix: f32, v: usize) -> f32 {
        let tail = &self.theta5.data[self.pooled6.len()..];
        let mut acc = prefix;
        for (&c, &w) in self.cand7.row_slice(v).iter().zip(tail) {
            acc += c.max(0.0) * w;
        }
        acc
    }

    /// Candidates: the untagged nodes, in increasing order.
    fn candidates(&self) -> impl Iterator<Item = usize> + '_ {
        self.emb
            .tags()
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t == 0.0)
            .map(|(v, _)| v)
    }

    /// Q values of every untagged node, in increasing node order.
    pub fn q_values_into(&mut self, out: &mut Vec<f32>) {
        out.clear();
        let prefix = self.state_prefix();
        out.extend(self.candidates().map(|v| self.q_of(prefix, v)));
    }

    /// The untagged node with the largest Q value, the first one on ties
    /// (as [`mcpb_rl::dqn::argmax`] breaks them), or `None` when every node
    /// is tagged.
    pub fn greedy_pick(&mut self) -> Option<NodeId> {
        let prefix = self.state_prefix();
        let mut candidates = self.candidates();
        let first = candidates.next()?;
        let mut best = (first, self.q_of(prefix, first));
        for v in candidates {
            let q = self.q_of(prefix, v);
            if q > best.1 {
                best = (v, q);
            }
        }
        Some(best.0 as NodeId)
    }
}

/// One replay transition of [`S2vQCore`]: node tags before the action and
/// the tags of the bootstrap state, on graph `graph_idx` of the caller's
/// graph list.
#[derive(Clone)]
pub(crate) struct S2vTransition {
    pub(crate) graph_idx: usize,
    pub(crate) tags: Vec<f32>,
    pub(crate) action: NodeId,
    pub(crate) reward: f32,
    pub(crate) next_tags: Vec<f32>,
    pub(crate) done: bool,
}

/// The S2V Q-learning core shared by S2V-DQN and RL4IM: online and target
/// [`S2vQNet`] parameters, Adam, and the RNG behind exploration and replay
/// sampling. The methods differ only in how they play an episode, in the
/// bootstrap discount they pass to [`S2vQCore::update`], and in the tag an
/// inference pick receives.
pub(crate) struct S2vQCore {
    net: S2vQNet,
    online: ParamStore,
    target: ParamStore,
    optimizer: Adam,
    pub(crate) rng: ChaCha8Rng,
}

impl S2vQCore {
    /// Registers the network under `name`; `seeds` seed the online store,
    /// the target store and the RNG.
    pub(crate) fn new(name: &str, dim: usize, rounds: usize, lr: f32, seeds: [u64; 3]) -> Self {
        let mut online = ParamStore::new(seeds[0]);
        let net = S2vQNet::new(&mut online, name, dim, rounds);
        let mut target = ParamStore::new(seeds[1]);
        let _ = S2vQNet::new(&mut target, name, dim, rounds);
        target.copy_values_from(&online);
        Self {
            net,
            online,
            target,
            optimizer: Adam::new(lr),
            rng: ChaCha8Rng::seed_from_u64(seeds[2]),
        }
    }

    /// Epsilon-greedy pick among the untagged nodes of `sg`, or `None` when
    /// every node is tagged.
    pub(crate) fn pick(&mut self, sg: &S2vGraph, tags: &[f32], eps: f64) -> Option<NodeId> {
        let candidates: Vec<NodeId> = (0..sg.n as NodeId)
            .filter(|&v| tags[v as usize] == 0.0)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        Some(if self.rng.gen::<f64>() < eps {
            *candidates.choose(&mut self.rng).expect("non-empty")
        } else {
            let q = self.net.q_numbers(&self.online, sg, tags, &candidates);
            candidates[mcpb_rl::dqn::argmax(&q)]
        })
    }

    /// One Adam step over a replay batch of `batch_size` with the Huber TD
    /// loss against `r + boot_gamma * max_a' Q_target(s', a')`, syncing the
    /// target every `target_sync` steps. Returns the mean loss and the
    /// merged-gradient L2 norm (the divergence guard's two signals).
    pub(crate) fn update(
        &mut self,
        replay: &ReplayBuffer<S2vTransition>,
        graphs: &[S2vGraph],
        batch_size: usize,
        target_sync: usize,
        boot_gamma: f32,
    ) -> (f32, f64) {
        let batch = replay.sample(batch_size, &mut self.rng);
        let mut all_grads = Vec::new();
        let mut total_loss = 0.0f32;
        for t in &batch {
            let sg = &graphs[t.graph_idx];
            let target_val = if t.done {
                t.reward
            } else {
                let candidates: Vec<NodeId> = (0..sg.n as NodeId)
                    .filter(|&v| t.next_tags[v as usize] == 0.0)
                    .collect();
                if candidates.is_empty() {
                    t.reward
                } else {
                    let q = self
                        .net
                        .q_numbers(&self.target, sg, &t.next_tags, &candidates);
                    t.reward + boot_gamma * q.iter().copied().fold(f32::NEG_INFINITY, f32::max)
                }
            };
            let mut tape = Tape::new();
            let q = self
                .net
                .q_values(&mut tape, &self.online, sg, &t.tags, &[t.action]);
            let loss = tape.huber_loss(q, Tensor::scalar(target_val), 1.0);
            tape.backward(loss);
            total_loss += tape.value(loss).item();
            all_grads.extend(tape.param_grads());
        }
        let merged = merge_grads(all_grads);
        let gnorm = merged
            .iter()
            .flat_map(|(_, g)| g.data.iter())
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            .sqrt();
        self.optimizer.step(&mut self.online, &merged);
        if self.optimizer.t % target_sync as u64 == 0 {
            self.target.copy_values_from(&self.online);
        }
        (total_loss / batch.len().max(1) as f32, gnorm)
    }

    /// Greedy policy rollout: `k` sequential argmax-Q selections, tagging
    /// the `step`-th pick with `tag(step)`.
    pub(crate) fn infer(
        &self,
        graph: &Graph,
        k: usize,
        tag: impl FnMut(usize) -> f32,
    ) -> Vec<NodeId> {
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let sg = S2vGraph::new(graph);
        self.net.greedy_rollout(&self.online, &sg, k.min(n), tag)
    }
}

impl Learner for S2vQCore {
    fn snapshot(&self) -> Vec<Tensor> {
        self.online.snapshot()
    }

    fn restore(&mut self, snapshot: &[Tensor]) {
        self.online.load_snapshot(snapshot);
        self.target.copy_values_from(&self.online);
    }

    fn halve_lr(&mut self) -> f32 {
        self.optimizer.lr *= 0.5;
        self.optimizer.lr
    }
}

/// S2V-DQN hyper-parameters, CPU-scaled from the paper's setup.
#[derive(Debug, Clone, Copy)]
pub struct S2vDqnConfig {
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Message-passing rounds.
    pub rounds: usize,
    /// Nodes per BFS-sampled training subgraph.
    pub train_subgraph_nodes: usize,
    /// Training episodes.
    pub episodes: usize,
    /// Seeds selected per training episode.
    pub train_budget: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Replay minibatch size (each sample costs one full forward/backward).
    pub batch_size: usize,
    /// Gradient steps between target syncs.
    pub target_sync: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Epsilon decay horizon in environment steps.
    pub eps_decay_steps: usize,
    /// n-step returns (the original uses n-step Q-learning; 1 = plain TD).
    pub n_step: usize,
    /// Validate (and checkpoint) every this many episodes.
    pub validate_every: usize,
    /// Task (MCP or IM).
    pub task: Task,
    /// RNG seed.
    pub seed: u64,
}

impl Default for S2vDqnConfig {
    fn default() -> Self {
        Self {
            embed_dim: 16,
            rounds: 2,
            train_subgraph_nodes: 40,
            episodes: 40,
            train_budget: 5,
            gamma: 0.99,
            lr: 5e-3,
            batch_size: 4,
            target_sync: 40,
            replay_capacity: 2_000,
            eps_decay_steps: 120,
            n_step: 2,
            validate_every: 10,
            task: Task::Mcp,
            seed: 0,
        }
    }
}

/// The trained S2V-DQN model.
pub struct S2vDqn {
    cfg: S2vDqnConfig,
    core: S2vQCore,
}

impl S2vDqn {
    /// Creates an untrained model.
    pub fn new(cfg: S2vDqnConfig) -> Self {
        let seeds = [cfg.seed, cfg.seed ^ 0xbeef, cfg.seed ^ 0x51f7];
        Self {
            core: S2vQCore::new("s2vdqn", cfg.embed_dim, cfg.rounds, cfg.lr, seeds),
            cfg,
        }
    }

    /// Config in effect.
    pub fn config(&self) -> &S2vDqnConfig {
        &self.cfg
    }

    /// Trains on subgraphs of `train_graph`, validating on a held-out
    /// subgraph. Keeps the best-validation checkpoint (the paper's
    /// protocol, §4.1).
    pub fn train(&mut self, train_graph: &Graph) -> TrainReport {
        let trainer =
            Trainer::start("S2V-DQN", self.cfg.episodes, self.cfg.validate_every).keep_best();
        let (val_graph, _) = sample_training_subgraph(
            train_graph,
            self.cfg.train_subgraph_nodes * 2,
            self.cfg.seed ^ 0x7a11,
        );
        let mut replay: ReplayBuffer<S2vTransition> = ReplayBuffer::new(self.cfg.replay_capacity);
        let schedule = EpsilonSchedule::standard(self.cfg.eps_decay_steps);
        // Every episode's graph stays addressable by the replay buffer.
        let mut graphs: Vec<S2vGraph> = Vec::new();
        let mut global_step = 0usize;
        let episode = |m: &mut Self, ep: usize, losses: &mut Vec<f32>| {
            let cfg = m.cfg;
            // Fresh training subgraph per episode.
            let (g, _) = sample_training_subgraph(
                train_graph,
                cfg.train_subgraph_nodes,
                cfg.seed.wrapping_add(ep as u64 * 131),
            );
            let n = g.num_nodes();
            if n < 2 {
                return None;
            }
            graphs.push(S2vGraph::new(&g));
            let gi = graphs.len() - 1;
            let mut oracle = RewardOracle::new(&g, cfg.task, cfg.seed.wrapping_add(ep as u64));
            let mut tags = vec![0f32; n];
            let budget = cfg.train_budget.min(n);
            // Episode trace for n-step return construction.
            let mut trace: Vec<(Vec<f32>, NodeId, f32)> = Vec::with_capacity(budget);
            for _ in 0..budget {
                let eps = schedule.value(global_step);
                let Some(action) = m.core.pick(&graphs[gi], &tags, eps) else {
                    break;
                };
                let reward = oracle.add_seed(action) as f32;
                trace.push((tags.clone(), action, reward));
                tags[action as usize] = 1.0;
                global_step += 1;
            }

            // Build n-step transitions: R = sum_{j<h} gamma^j r_{i+j}, with
            // the bootstrap state h steps ahead (the original's n-step
            // Q-learning; n_step = 1 recovers plain TD). The bootstrap is
            // discounted by gamma^n, as R already is the n-step return.
            let nstep = cfg.n_step.max(1);
            let boot_gamma = cfg.gamma.powi(nstep as i32);
            let len = trace.len();
            let mut grad_norm = 0f64;
            for i in 0..len {
                let horizon = (i + nstep).min(len);
                let mut ret = 0f32;
                for (j, item) in trace[i..horizon].iter().enumerate() {
                    ret += cfg.gamma.powi(j as i32) * item.2;
                }
                // Tags after `horizon` actions: start state i plus the
                // actions taken in between.
                let mut boot_tags = trace[i].0.clone();
                for item in trace[i..horizon].iter() {
                    boot_tags[item.1 as usize] = 1.0;
                }
                replay.push(S2vTransition {
                    graph_idx: gi,
                    tags: trace[i].0.clone(),
                    action: trace[i].1,
                    reward: ret,
                    next_tags: boot_tags,
                    done: horizon == len,
                });
                if replay.len() >= cfg.batch_size {
                    let (loss, gnorm) = m.core.update(
                        &replay,
                        &graphs,
                        cfg.batch_size,
                        cfg.target_sync,
                        boot_gamma,
                    );
                    losses.push(loss);
                    grad_norm = grad_norm.max(gnorm);
                }
            }
            Some(Episode {
                grad_norm: Some(grad_norm),
                epsilon: schedule.value(global_step),
                reward: oracle.total(),
            })
        };
        let validate = |m: &mut Self| m.evaluate(&val_graph, m.cfg.train_budget);
        trainer.run(self, |m| &mut m.core, episode, validate)
    }

    /// Greedy rollout value on `graph` with budget `k` (normalized
    /// objective).
    pub fn evaluate(&self, graph: &Graph, k: usize) -> f64 {
        RewardOracle::score(
            graph,
            self.cfg.task,
            self.cfg.seed ^ 0xe7a1,
            &self.infer(graph, k),
        )
    }

    /// Greedy policy rollout: k sequential argmax-Q selections.
    pub fn infer(&self, graph: &Graph, k: usize) -> Vec<NodeId> {
        self.core.infer(graph, k, |_| 1.0)
    }
}

impl McpSolver for S2vDqn {
    fn name(&self) -> &str {
        "S2V-DQN"
    }

    fn solve(&mut self, graph: &Graph, k: usize) -> McpSolution {
        McpSolution::evaluate(graph, self.infer(graph, k))
    }
}

impl ImSolver for S2vDqn {
    fn name(&self) -> &str {
        "S2V-DQN"
    }

    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        ImSolution::seeds_only(self.infer(graph, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators;
    use mcpb_mcp::greedy::LazyGreedy;

    fn tiny_cfg() -> S2vDqnConfig {
        S2vDqnConfig {
            embed_dim: 8,
            rounds: 2,
            train_subgraph_nodes: 40,
            episodes: 30,
            train_budget: 4,
            validate_every: 10,
            eps_decay_steps: 60,
            seed: 7,
            ..S2vDqnConfig::default()
        }
    }

    #[test]
    fn trains_and_infers_on_mcp() {
        let g = generators::barabasi_albert(200, 3, 1);
        let mut model = S2vDqn::new(tiny_cfg());
        let report = model.train(&g);
        assert!(!report.checkpoints.is_empty());
        assert!(report.train_seconds > 0.0);
        let seeds = model.infer(&g, 5);
        assert_eq!(seeds.len(), 5);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "seeds must be distinct");
    }

    #[test]
    fn trained_model_beats_random_on_coverage() {
        let g = generators::barabasi_albert(300, 3, 2);
        let mut model = S2vDqn::new(tiny_cfg());
        model.train(&g);
        let sol = McpSolver::solve(&mut model, &g, 8);
        let mut rnd_total = 0.0;
        for s in 0..5u64 {
            rnd_total += mcpb_mcp::baselines::RandomSeeds::run(&g, 8, s).coverage;
        }
        let rnd = rnd_total / 5.0;
        assert!(
            sol.coverage > rnd,
            "s2v-dqn {} vs random {rnd}",
            sol.coverage
        );
    }

    #[test]
    fn lazy_greedy_dominates_s2v_dqn() {
        // The paper's headline MCP finding.
        let g = generators::barabasi_albert(300, 3, 3);
        let mut model = S2vDqn::new(tiny_cfg());
        model.train(&g);
        let drl = McpSolver::solve(&mut model, &g, 10);
        let greedy = LazyGreedy::run(&g, 10);
        assert!(
            greedy.covered >= drl.covered,
            "greedy {} < s2v-dqn {}",
            greedy.covered,
            drl.covered
        );
    }

    #[test]
    fn im_task_variant_runs() {
        use mcpb_graph::weights::{assign_weights, WeightModel};
        let g = assign_weights(
            &generators::barabasi_albert(120, 2, 4),
            WeightModel::Constant,
            0,
        );
        let mut cfg = tiny_cfg();
        cfg.task = Task::Im { rr_sets: 300 };
        cfg.episodes = 6;
        let mut model = S2vDqn::new(cfg);
        let report = model.train(&g);
        assert!(report.best_score() >= 0.0);
        let sol = ImSolver::solve(&mut model, &g, 4);
        assert_eq!(sol.seeds.len(), 4);
    }

    #[test]
    fn n_step_variants_all_train() {
        let g = generators::barabasi_albert(150, 3, 9);
        for n_step in [1usize, 3] {
            let mut cfg = tiny_cfg();
            cfg.n_step = n_step;
            cfg.episodes = 10;
            let mut model = S2vDqn::new(cfg);
            let report = model.train(&g);
            assert!(!report.checkpoints.is_empty(), "n_step={n_step}");
            assert_eq!(model.infer(&g, 3).len(), 3);
        }
    }

    #[test]
    fn zero_budget_inference() {
        let g = generators::barabasi_albert(30, 2, 5);
        let model = S2vDqn::new(tiny_cfg());
        assert!(model.infer(&g, 0).is_empty());
    }
}
