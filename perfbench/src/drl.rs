//! `drl_train`: every Deep-RL preparation of Tab. 2, shared by the
//! `mcpb-par` pool's workers.

use crate::sweeps::{im_train_subgraph, mcp_train_graph};
use crate::trace::Tracer;
use crate::workload::{fnv, mix, UnitOut, Workload, FNV_START};
use mcpb_bench::{prepare_im, prepare_mcp, ImMethodKind, McpMethodKind, Scale};
use mcpb_drl::TrainReport;
use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_graph::Graph;

/// Training scale of every preparation.
const SCALE: Scale = Scale::Full;
/// Training seeds per method and unit, derived from the workload seed.
/// One seed's training quality and time vary too much from seed to seed
/// for a steady run; the mean over three varies less. Drawing the training
/// graphs from the workload seed instead, with fixed training seeds, moved
/// `quality` as much.
const SEEDS: u64 = 3;

const MCP_METHODS: [McpMethodKind; 3] = [
    McpMethodKind::S2vDqn,
    McpMethodKind::Gcomb,
    McpMethodKind::Lense,
];
const IM_METHODS: [ImMethodKind; 4] = [
    ImMethodKind::Gcomb,
    ImMethodKind::Lense,
    ImMethodKind::Rl4Im,
    ImMethodKind::GeometricQn,
];

/// One preparation: a method of either task.
#[derive(Clone, Copy)]
enum Job {
    Mcp(McpMethodKind),
    Im(ImMethodKind),
}

/// Runs every `(seed, job)` preparation on the `mcpb-par` pool, whose
/// workers take the next job from one shared cursor, and returns each job's
/// metric stem and training report in job order. Each training is
/// deterministic given its seed, so the reports do not depend on which
/// worker ran which job. One thread's speed on the host the benchmark was
/// tuned on drifted by a quarter from run to run; a shared cursor lets the
/// faster worker take more jobs, as the sweep drivers' lanes do.
fn train_all(jobs: &[(u64, Job)], mcp: &Graph, im: &Graph) -> Vec<(String, Option<TrainReport>)> {
    mcpb_par::run_chunks(jobs.len(), |i| match jobs[i] {
        (seed, Job::Mcp(kind)) => (
            format!("mcp.{}", kind.name()),
            prepare_mcp(kind, mcp, SCALE, seed).train_report,
        ),
        (seed, Job::Im(kind)) => (
            format!("im.{}", kind.name()),
            prepare_im(kind, im, WeightModel::WeightedCascade, SCALE, seed).train_report,
        ),
    })
}

/// The training workload.
pub struct DrlTrain {
    seed: u64,
    graphs: Option<(Graph, Graph)>,
}

impl DrlTrain {
    /// The training workload for `seed`.
    pub fn new(seed: u64) -> DrlTrain {
        DrlTrain { seed, graphs: None }
    }
}

impl Workload for DrlTrain {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.graphs = None;
        let mcp = mcp_train_graph(tr)?;
        let sub = im_train_subgraph(tr)?;
        let im = tr.span("graph.weights", || {
            assign_weights(&sub, WeightModel::WeightedCascade, self.seed)
        });
        self.graphs = Some((mcp, im));
        Ok(())
    }

    fn arcs(&self) -> usize {
        self.graphs
            .as_ref()
            .map_or(0, |(mcp, im)| mcp.num_edges() + im.num_edges())
    }

    fn unit(&mut self, tr: &mut Tracer) -> Result<UnitOut, String> {
        let (mcp, im) = self.graphs.as_ref().ok_or("unit before setup")?;
        let jobs: Vec<(u64, Job)> = (0..SEEDS)
            .flat_map(|j| {
                let seed = mix(self.seed ^ j);
                let mcp_jobs = MCP_METHODS.into_iter().map(Job::Mcp);
                let im_jobs = IM_METHODS.into_iter().map(Job::Im);
                mcp_jobs.chain(im_jobs).map(move |job| (seed, job))
            })
            .collect();
        let reports = tr.span("drl.prepare", || train_all(&jobs, mcp, im));

        let mut out = UnitOut {
            attempted: reports.len() as u64,
            digest: FNV_START,
            ..UnitOut::default()
        };
        let (mut recoveries, mut diverged) = (0u32, 0u64);
        for (name, report) in reports {
            let Some(r) = report else {
                out.problems.push(format!("{name}: no training report"));
                out.failed += 1;
                continue;
            };
            let best = r
                .checkpoints
                .iter()
                .map(|c| c.validation_score)
                .fold(f64::NEG_INFINITY, f64::max);
            if !(best.is_finite() && (0.0..=1.0).contains(&best)) {
                out.problems.push(format!(
                    "{name}: best validation score {best} outside [0, 1]"
                ));
            }
            if let Some(e) = &r.error {
                out.problems.push(format!("{name}: training diverged: {e}"));
                diverged += 1;
            } else {
                out.clean += 1;
            }
            recoveries += r.recoveries;
            out.qualities.push(best);
            out.digest = fnv(out.digest, best.to_bits());
            *out.layer.entry(format!("train_s.{name}")).or_default() += r.train_seconds;
        }
        out.failed += diverged;
        out.layer
            .insert("train.recoveries".into(), f64::from(recoveries));
        out.layer.insert("train.diverged".into(), diverged as f64);
        Ok(out)
    }
}
