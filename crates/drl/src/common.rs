//! Shared machinery for the five Deep-RL methods: the task/objective
//! abstraction (MCP coverage vs IM influence), the reward oracle both RL
//! environments query, and training reports for the §5.2/§5.3 experiments.

use mcpb_graph::{Graph, NodeId};
use mcpb_im::rrset::{sample_collection, RrCollection};
use mcpb_mcp::coverage::CoverageOracle;

/// Which coverage problem a model is being trained/applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Maximum Coverage Problem: reward = newly covered nodes.
    Mcp,
    /// Influence Maximization: reward = marginal RIS spread estimate.
    Im {
        /// RR sets backing the reward estimator.
        rr_sets: usize,
    },
}

impl Task {
    /// IM task with the default reward-estimator resolution.
    pub fn im_default() -> Task {
        Task::Im { rr_sets: 2_000 }
    }
}

/// Incremental objective oracle: tracks a growing seed set and returns
/// *normalized* marginal gains in `[0, 1]` (fraction of |V| newly covered /
/// influenced), the reward signal every method's RL environment uses.
pub enum RewardOracle<'g> {
    /// MCP: exact incremental coverage.
    Coverage(CoverageOracle<'g>),
    /// IM: RR-set coverage (seeds tracked inside).
    Influence {
        /// Shared RR-set collection.
        rr: RrCollection,
        /// RR sets already hit by the selected seeds.
        hit: Vec<bool>,
        /// Count of hit RR sets.
        hits: usize,
        /// Selected seeds.
        seeds: Vec<NodeId>,
        /// Node count of the underlying graph.
        n: usize,
    },
}

impl<'g> RewardOracle<'g> {
    /// Builds the oracle appropriate for `task` on `graph`.
    pub fn new(graph: &'g Graph, task: Task, seed: u64) -> Self {
        match task {
            Task::Mcp => RewardOracle::Coverage(CoverageOracle::new(graph)),
            Task::Im { rr_sets } => {
                let rr = sample_collection(graph, rr_sets, seed);
                let m = rr.len();
                RewardOracle::Influence {
                    rr,
                    hit: vec![false; m],
                    hits: 0,
                    seeds: Vec::new(),
                    n: graph.num_nodes(),
                }
            }
        }
    }

    /// Normalized objective of `seeds` on `graph`: the score every method's
    /// `evaluate` and validation report.
    pub fn score(graph: &'g Graph, task: Task, seed: u64, seeds: &[NodeId]) -> f64 {
        let mut oracle = RewardOracle::new(graph, task, seed);
        for &s in seeds {
            oracle.add_seed(s);
        }
        oracle.total()
    }

    /// Normalized marginal gain of adding `v` (no mutation).
    pub fn marginal_gain(&self, v: NodeId) -> f64 {
        match self {
            RewardOracle::Coverage(o) => {
                let n = o.graph().num_nodes().max(1);
                o.marginal_gain(v) as f64 / n as f64
            }
            RewardOracle::Influence { rr, hit, .. } => {
                if rr.is_empty() {
                    return 0.0;
                }
                let fresh = rr
                    .sets_containing(v)
                    .iter()
                    .filter(|&&id| !hit[id as usize])
                    .count();
                fresh as f64 / rr.len() as f64
            }
        }
    }

    /// Adds `v` as a seed; returns its realized normalized gain.
    pub fn add_seed(&mut self, v: NodeId) -> f64 {
        match self {
            RewardOracle::Coverage(o) => {
                let n = o.graph().num_nodes().max(1);
                o.add_seed(v) as f64 / n as f64
            }
            RewardOracle::Influence {
                rr,
                hit,
                hits,
                seeds,
                ..
            } => {
                let mut fresh = 0usize;
                for &id in rr.sets_containing(v) {
                    if !hit[id as usize] {
                        hit[id as usize] = true;
                        fresh += 1;
                    }
                }
                *hits += fresh;
                seeds.push(v);
                if rr.is_empty() {
                    0.0
                } else {
                    fresh as f64 / rr.len() as f64
                }
            }
        }
    }

    /// Seeds chosen so far.
    pub fn seeds(&self) -> &[NodeId] {
        match self {
            RewardOracle::Coverage(o) => o.seeds(),
            RewardOracle::Influence { seeds, .. } => seeds,
        }
    }

    /// Total normalized objective value of the current seed set.
    pub fn total(&self) -> f64 {
        match self {
            RewardOracle::Coverage(o) => o.coverage(),
            RewardOracle::Influence { rr, hits, .. } => {
                if rr.is_empty() {
                    0.0
                } else {
                    *hits as f64 / rr.len() as f64
                }
            }
        }
    }

    /// Denormalized objective (covered nodes / estimated spread).
    pub fn total_absolute(&self) -> f64 {
        match self {
            RewardOracle::Coverage(o) => o.covered_count() as f64,
            RewardOracle::Influence { rr, hits, n, .. } => {
                if rr.is_empty() {
                    0.0
                } else {
                    *n as f64 * *hits as f64 / rr.len() as f64
                }
            }
        }
    }
}

/// A validation checkpoint recorded during training (drives Fig. 8/9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Epoch / episode index.
    pub epoch: usize,
    /// Validation objective (normalized) at this point.
    pub validation_score: f64,
    /// Mean TD / regression loss over the epoch.
    pub loss: f64,
}

/// Training summary returned by every method's `train`.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Checkpoints in epoch order.
    pub checkpoints: Vec<Checkpoint>,
    /// Wall-clock seconds spent training.
    pub train_seconds: f64,
    /// Divergence recoveries (rollback + LR halving) performed.
    pub recoveries: u32,
    /// Set when training aborted after exhausting the recovery budget; the
    /// report still carries every checkpoint up to the failure, so partial
    /// results survive (failure is data, not a crash).
    pub error: Option<TrainError>,
}

/// Typed training failure.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The loop kept diverging after spending its recovery budget.
    Diverged {
        /// Solver name.
        solver: &'static str,
        /// 1-based episode at which the budget ran out.
        episode: usize,
        /// Recoveries performed before giving up.
        recoveries: u32,
        /// The final divergent loss.
        loss: f64,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Diverged {
                solver,
                episode,
                recoveries,
                loss,
            } => write!(
                f,
                "{solver} training diverged at episode {episode} \
                 (loss {loss}, {recoveries} recoveries spent)"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// Parameter hooks the [`Trainer`] needs from a method's learner: a
/// rollback point, a restore (which also re-syncs any target network), and
/// the learning-rate halving of a divergence recovery.
pub(crate) trait Learner {
    /// Clones the trained parameters.
    fn snapshot(&self) -> Vec<mcpb_nn::Tensor>;
    /// Loads parameters from a [`Learner::snapshot`].
    fn restore(&mut self, snapshot: &[mcpb_nn::Tensor]);
    /// Halves the learning rate and returns the new rate.
    fn halve_lr(&mut self) -> f32;
}

impl Learner for mcpb_rl::dqn::DqnAgent {
    fn snapshot(&self) -> Vec<mcpb_nn::Tensor> {
        mcpb_rl::dqn::DqnAgent::snapshot(self)
    }

    fn restore(&mut self, snapshot: &[mcpb_nn::Tensor]) {
        mcpb_rl::dqn::DqnAgent::restore(self, snapshot);
    }

    fn halve_lr(&mut self) -> f32 {
        self.scale_lr(0.5)
    }
}

/// What one training episode reports back to the [`Trainer`].
pub(crate) struct Episode {
    /// Largest merged-gradient L2 norm of the episode's updates, for the
    /// methods whose divergence guard watches it.
    pub grad_norm: Option<f64>,
    /// Exploration rate after the episode (telemetry only).
    pub epsilon: f64,
    /// Episode reward (telemetry only).
    pub reward: f64,
}

/// The training protocol shared by all five methods: episodes, a
/// divergence guard, validation every `validate_every` episodes (and after
/// the last), and the [`TrainReport`].
///
/// [`Trainer::start`] opens the wall clock behind
/// [`TrainReport::train_seconds`] and, when tracing is on, the root
/// `train.<solver>` span, so a method calls it before its own preparation
/// stages. [`Trainer::run`] then drives the episode loop. After each
/// episode it checks the episode's mean loss (and gradient norm) with a
/// [`mcpb_resilience::DivergenceGuard`]; `train.<solver>` is also the NaN
/// fault-injection site. On divergence it restores the last good
/// parameters, halves the learning rate, drops the episode's losses and
/// moves on without telemetry or validation for that episode. Once the
/// recovery budget is spent the loop ends with [`TrainError::Diverged`] in
/// the report. Healthy episodes emit [`mcpb_trace::Event::EpisodeEnd`] and,
/// on the cadence, record a [`Checkpoint`] whose loss is the mean of every
/// update since the previous checkpoint.
pub(crate) struct Trainer {
    solver: &'static str,
    episodes: usize,
    validate_every: usize,
    keep_best: bool,
    idle_loss: f64,
    watch: mcpb_trace::Stopwatch,
    _span: Option<mcpb_trace::Span>,
}

impl Trainer {
    /// Starts the training clock and, when tracing is enabled, the root
    /// span that nested spans (subgraph sampling, NN forward/backward)
    /// aggregate under.
    pub(crate) fn start(solver: &'static str, episodes: usize, validate_every: usize) -> Self {
        let span =
            mcpb_trace::is_enabled().then(|| mcpb_trace::span_named(format!("train.{solver}")));
        Trainer {
            solver,
            episodes,
            validate_every,
            keep_best: false,
            idle_loss: 0.0,
            watch: mcpb_trace::Stopwatch::start(),
            _span: span,
        }
    }

    /// Keeps the best-validation parameters and loads them when the loop
    /// ends (also after a divergence); otherwise the last parameters stay.
    pub(crate) fn keep_best(mut self) -> Self {
        self.keep_best = true;
        self
    }

    /// Checkpoint loss when no update ran since the previous checkpoint
    /// (0 by default).
    pub(crate) fn idle_loss(mut self, loss: f64) -> Self {
        self.idle_loss = loss;
        self
    }

    /// Runs the episode loop. `episode(model, ep, losses)` plays episode
    /// `ep` (0-based), pushes each update's loss, and returns `None` to skip
    /// the episode entirely (e.g. a graph too small to play on).
    /// `validate(model)` scores the current policy. `learner` projects the
    /// model onto the parameters the guard rolls back.
    pub(crate) fn run<M, L: Learner>(
        self,
        model: &mut M,
        learner: fn(&mut M) -> &mut L,
        mut episode: impl FnMut(&mut M, usize, &mut Vec<f32>) -> Option<Episode>,
        mut validate: impl FnMut(&mut M) -> f64,
    ) -> TrainReport {
        let mut report = TrainReport::default();
        let site = format!("train.{}", self.solver);
        let mut guard =
            mcpb_resilience::DivergenceGuard::new(mcpb_resilience::DivergenceConfig::default());
        let mut epoch_losses: Vec<f32> = Vec::new();
        let mut last_good = learner(model).snapshot();
        let mut best_snapshot = self
            .keep_best
            .then(|| (f64::NEG_INFINITY, last_good.clone()));
        for ep in 0..self.episodes {
            let ep_loss_start = epoch_losses.len();
            let Some(outcome) = episode(model, ep, &mut epoch_losses) else {
                continue;
            };
            let loss = mean_f32(&epoch_losses[ep_loss_start..]);
            let loss = match mcpb_resilience::fault::arm(&site) {
                Some(mcpb_resilience::FaultKind::Nan) => f64::NAN,
                _ => loss,
            };
            match guard.observe(loss, outcome.grad_norm) {
                mcpb_resilience::Verdict::Healthy => last_good = learner(model).snapshot(),
                mcpb_resilience::Verdict::Recover { .. } => {
                    let l = learner(model);
                    l.restore(&last_good);
                    let lr = f64::from(l.halve_lr());
                    self.recovery_event(ep + 1, loss, lr);
                    epoch_losses.truncate(ep_loss_start);
                    continue;
                }
                mcpb_resilience::Verdict::Exhausted => {
                    report.error = Some(TrainError::Diverged {
                        solver: self.solver,
                        episode: ep + 1,
                        recoveries: guard.recoveries(),
                        loss,
                    });
                    break;
                }
            }
            self.episode_event(ep + 1, loss, outcome.epsilon, outcome.reward);
            if (ep + 1) % self.validate_every == 0 || ep + 1 == self.episodes {
                let score = validate(model);
                let loss = if epoch_losses.is_empty() {
                    self.idle_loss
                } else {
                    epoch_losses.iter().sum::<f32>() as f64 / epoch_losses.len() as f64
                };
                epoch_losses.clear();
                report.checkpoints.push(Checkpoint {
                    epoch: ep + 1,
                    validation_score: score,
                    loss,
                });
                if let Some((best_score, snapshot)) = &mut best_snapshot {
                    if score > *best_score {
                        *best_score = score;
                        *snapshot = learner(model).snapshot();
                    }
                }
            }
        }
        if let Some((_, snapshot)) = &best_snapshot {
            learner(model).restore(snapshot);
        }
        report.recoveries = guard.recoveries();
        report.train_seconds = self.watch.elapsed_secs();
        report
    }

    /// Emits a [`mcpb_trace::Event::Recovery`] and bumps the recovery
    /// counter. No-op when tracing is disabled.
    fn recovery_event(&self, episode: usize, loss: f64, lr: f64) {
        if !mcpb_trace::is_enabled() {
            return;
        }
        mcpb_trace::emit(mcpb_trace::Event::Recovery {
            solver: self.solver.to_string(),
            episode: episode as u64,
            loss,
            lr,
        });
        mcpb_trace::counter_add(&format!("train.recoveries/{}", self.solver), 1);
    }

    /// Emits one `EpisodeEnd` event, an episode-reward histogram sample and
    /// the `train.episodes_per_sec/<solver>` and `train.eta_secs/<solver>`
    /// heartbeats, so a live `MCPB_TRACE` tail shows progress. No-op
    /// (single atomic load) when tracing is disabled.
    fn episode_event(&self, episode: usize, loss: f64, epsilon: f64, reward: f64) {
        if !mcpb_trace::is_enabled() {
            return;
        }
        mcpb_trace::emit(mcpb_trace::Event::EpisodeEnd {
            solver: self.solver.to_string(),
            episode: episode as u64,
            loss,
            epsilon,
            reward,
        });
        mcpb_trace::observe(&format!("train.episode_reward/{}", self.solver), reward);
        let elapsed = self.watch.elapsed_secs();
        if elapsed > 0.0 {
            let rate = episode as f64 / elapsed;
            mcpb_trace::emit(mcpb_trace::Event::Metric {
                name: format!("train.episodes_per_sec/{}", self.solver),
                value: rate,
            });
            let remaining = self.episodes.saturating_sub(episode);
            mcpb_trace::emit(mcpb_trace::Event::Metric {
                name: format!("train.eta_secs/{}", self.solver),
                value: remaining as f64 / rate.max(f64::MIN_POSITIVE),
            });
        }
    }
}

impl TrainReport {
    /// The best validation score observed.
    pub fn best_score(&self) -> f64 {
        self.checkpoints
            .iter()
            .map(|c| c.validation_score)
            .fold(0.0, f64::max)
    }

    /// Epoch of the best checkpoint (0 when empty).
    pub fn best_epoch(&self) -> usize {
        self.checkpoints
            .iter()
            .max_by(|a, b| {
                a.validation_score
                    .partial_cmp(&b.validation_score)
                    .expect("scores are finite")
            })
            .map_or(0, |c| c.epoch)
    }
}

/// Mean of an `f32` loss slice as `f64` (0 when empty): the per-episode
/// loss the divergence guard and the telemetry see.
fn mean_f32(xs: &[f32]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len() as f64
    }
}

/// Samples a connected-ish training subgraph of about `target_nodes` nodes
/// by BFS from a random non-isolated start, mirroring how S2V-DQN/GCOMB
/// subsample training instances.
pub fn sample_training_subgraph(
    graph: &Graph,
    target_nodes: usize,
    seed: u64,
) -> (Graph, Vec<NodeId>) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let _span = mcpb_trace::span("graph.sample_subgraph");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let candidates: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| graph.out_degree(v) + graph.in_degree(v) > 0)
        .collect();
    if candidates.is_empty() {
        return graph.induced_subgraph(&[]);
    }
    let mut picked: Vec<NodeId> = Vec::with_capacity(target_nodes);
    let mut seen = vec![false; graph.num_nodes()];
    let mut queue = std::collections::VecDeque::new();
    while picked.len() < target_nodes.min(graph.num_nodes()) {
        if queue.is_empty() {
            // (Re)start BFS from a fresh random node.
            let start = *candidates.choose(&mut rng).expect("non-empty candidates");
            if !seen[start as usize] {
                seen[start as usize] = true;
                queue.push_back(start);
            } else if picked.len() + 1 >= candidates.len() {
                break;
            } else {
                continue;
            }
        }
        let Some(v) = queue.pop_front() else { continue };
        picked.push(v);
        let mut nbrs: Vec<NodeId> = graph
            .out_neighbors(v)
            .iter()
            .chain(graph.in_neighbors(v))
            .copied()
            .collect();
        nbrs.shuffle(&mut rng);
        for u in nbrs {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    graph.induced_subgraph(&picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge};

    #[test]
    fn coverage_oracle_gains() {
        let g = Graph::from_edges(4, &[Edge::unweighted(0, 1), Edge::unweighted(0, 2)]).unwrap();
        let mut o = RewardOracle::new(&g, Task::Mcp, 0);
        assert!((o.marginal_gain(0) - 0.75).abs() < 1e-12);
        let gain = o.add_seed(0);
        assert!((gain - 0.75).abs() < 1e-12);
        assert!((o.total() - 0.75).abs() < 1e-12);
        assert_eq!(o.total_absolute(), 3.0);
        assert_eq!(o.seeds(), &[0]);
    }

    #[test]
    fn influence_oracle_gains_match_coverage_of_rr() {
        let g = assign_weights(
            &generators::barabasi_albert(60, 2, 1),
            WeightModel::Constant,
            0,
        );
        let mut o = RewardOracle::new(&g, Task::Im { rr_sets: 500 }, 7);
        let pred = o.marginal_gain(0);
        let got = o.add_seed(0);
        assert!((pred - got).abs() < 1e-12);
        // Second add of the same node gains nothing.
        assert_eq!(o.add_seed(0), 0.0);
        assert!(o.total() > 0.0);
        assert!(o.total_absolute() > 0.0);
    }

    #[test]
    fn influence_gains_are_submodular_along_path() {
        let g = assign_weights(
            &generators::barabasi_albert(80, 3, 2),
            WeightModel::Constant,
            0,
        );
        let mut o = RewardOracle::new(&g, Task::Im { rr_sets: 800 }, 3);
        let before = o.marginal_gain(5);
        o.add_seed(0);
        o.add_seed(1);
        let after = o.marginal_gain(5);
        assert!(after <= before + 1e-12);
    }

    #[test]
    fn train_report_best() {
        let r = TrainReport {
            checkpoints: vec![
                Checkpoint {
                    epoch: 0,
                    validation_score: 0.1,
                    loss: 1.0,
                },
                Checkpoint {
                    epoch: 5,
                    validation_score: 0.4,
                    loss: 0.5,
                },
                Checkpoint {
                    epoch: 9,
                    validation_score: 0.3,
                    loss: 0.4,
                },
            ],
            train_seconds: 1.0,
            ..TrainReport::default()
        };
        assert_eq!(r.best_epoch(), 5);
        assert!((r.best_score() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn subgraph_sampling_respects_size() {
        let g = generators::barabasi_albert(300, 3, 4);
        let (sub, order) = sample_training_subgraph(&g, 50, 9);
        assert_eq!(sub.num_nodes(), 50);
        assert_eq!(order.len(), 50);
        assert!(sub.num_edges() > 0, "BFS subgraph should be connected-ish");
    }

    #[test]
    fn subgraph_sampling_handles_small_graphs() {
        let g = generators::erdos_renyi(10, 20, 1);
        let (sub, _) = sample_training_subgraph(&g, 100, 2);
        assert!(sub.num_nodes() <= 10);
    }
}
