//! `mcp_sweep` and `im_sweep`: the Fig. 4 and Fig. 6 lineups through the
//! resilient sweep drivers, with a crash-safe journal.

use crate::trace::Tracer;
use crate::workload::{fnv, mix, Layer, UnitOut, Workload, FNV_START};
use mcpb_bench::{
    run_im_sweep_resilient, run_mcp_sweep_resilient, ImMethodKind, McpMethodKind, Scale,
    SweepOptions, SweepOutcome,
};
use mcpb_graph::catalog::{self, Dataset};
use mcpb_graph::weights::WeightModel;
use mcpb_graph::Graph;
use mcpb_resilience::journal::{read_journal, EntryStatus};
use std::path::PathBuf;
use std::time::Instant;

/// Fig. 4 datasets the unit sweeps, at full catalog size.
const MCP_DATASETS: [&str; 5] = ["Gowalla", "Digg", "Youtube", "Skitter", "Higgs"];
/// Fig. 4 budgets the unit sweeps.
const MCP_BUDGETS: [usize; 2] = [10, 50];
/// Fig. 6 datasets the unit sweeps, at full catalog size.
const IM_DATASETS: [&str; 2] = ["WikiTalk", "Pokec"];
/// Fig. 6 budgets the unit sweeps.
const IM_BUDGETS: [usize; 2] = [10, 50];
/// RR sets behind the common IM scorer (the `--full fig6` setting).
const IM_SCORER_RR_SETS: usize = 10_000;

/// Seed of the sweeps' training and solver randomness: the paper drivers'
/// default. The workload seed drives the query graphs instead, because
/// across training seeds the Deep-RL models' quality varies more than any
/// useful bound on `quality`.
const SWEEP_SEED: u64 = 7;

/// A catalog dataset; with `reseed`, its generator seed is derived from the
/// workload seed: same size and family, different graph.
fn dataset(name: &str, reseed: Option<u64>) -> Result<Dataset, String> {
    let mut ds = catalog::require(name).map_err(|e| e.to_string())?;
    if let Some(seed) = reseed {
        ds.seed = mix(ds.seed ^ seed);
    }
    Ok(ds)
}

fn load(tr: &mut Tracer, ds: &Dataset) -> Result<Graph, String> {
    let g = tr.span("graph.load", || ds.load());
    tr.span("graph.validate", || g.validate())
        .map_err(|e| format!("{} failed validation: {e}", ds.name))?;
    Ok(g)
}

/// Which sweep a [`Sweep`] runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Problem {
    /// Maximum coverage (Fig. 4).
    Mcp,
    /// Influence maximization under WC weights (Fig. 6).
    Im,
}

/// One of the two sweep workloads. The sweep drivers take the query
/// datasets as descriptors and generate each graph inside the unit, so the
/// set-up builds only the training graph.
pub struct Sweep {
    problem: Problem,
    threads: usize,
    datasets: Vec<Dataset>,
    train: Option<Graph>,
    journal: PathBuf,
}

impl Sweep {
    /// The sweep workload for `problem`, with query graphs drawn from
    /// `seed`, journaling under `work_dir`.
    pub fn new(
        problem: Problem,
        seed: u64,
        threads: usize,
        work_dir: PathBuf,
    ) -> Result<Sweep, String> {
        let (names, file): (&[&str], _) = match problem {
            Problem::Mcp => (&MCP_DATASETS, "mcp_sweep.jsonl"),
            Problem::Im => (&IM_DATASETS, "im_sweep.jsonl"),
        };
        Ok(Sweep {
            problem,
            threads,
            datasets: names
                .iter()
                .map(|n| dataset(n, Some(seed)))
                .collect::<Result<_, _>>()?,
            train: None,
            journal: work_dir.join(file),
        })
    }

    fn run(&self, tr: &mut Tracer, train: &Graph) -> Result<(SweepOutcome, usize), String> {
        let opts = SweepOptions {
            journal: Some(self.journal.clone()),
            ..SweepOptions::default()
        };
        let (outcome, methods) = match self.problem {
            Problem::Mcp => {
                let methods = McpMethodKind::benchmark_set();
                let out = tr.span("sweep.mcp", || {
                    run_mcp_sweep_resilient(
                        &methods,
                        &self.datasets,
                        &MCP_BUDGETS,
                        train,
                        Scale::Full,
                        SWEEP_SEED,
                        &opts,
                    )
                });
                (out, methods.len())
            }
            Problem::Im => {
                let methods = ImMethodKind::benchmark_set();
                let out = tr.span("sweep.im", || {
                    run_im_sweep_resilient(
                        &methods,
                        &self.datasets,
                        &[WeightModel::WeightedCascade],
                        &IM_BUDGETS,
                        train,
                        IM_SCORER_RR_SETS,
                        Scale::Full,
                        SWEEP_SEED,
                        &opts,
                    )
                });
                (out, methods.len())
            }
        };
        Ok((
            outcome.map_err(|e| format!("sweep journal: {e:?}"))?,
            methods,
        ))
    }

    fn budgets(&self) -> &'static [usize] {
        match self.problem {
            Problem::Mcp => &MCP_BUDGETS,
            Problem::Im => &IM_BUDGETS,
        }
    }
}

impl Workload for Sweep {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // Drop the previous graph first, so a set-up never holds two
        // copies and the memory high-water mark stays that of one.
        self.train = None;
        self.train = Some(match self.problem {
            Problem::Mcp => mcp_train_graph(tr)?,
            Problem::Im => im_train_subgraph(tr)?,
        });
        Ok(())
    }

    fn arcs(&self) -> usize {
        self.train.as_ref().map_or(0, Graph::num_edges)
    }

    fn unit(&mut self, tr: &mut Tracer) -> Result<UnitOut, String> {
        let train = self.train.take().ok_or("unit before setup")?;
        let t0 = Instant::now();
        let ran = self.run(tr, &train);
        let grid_wall = t0.elapsed().as_secs_f64();
        self.train = Some(train);
        let (outcome, methods) = ran?;
        let journal = tr
            .span("journal.read", || read_journal(&self.journal))
            .map_err(|e| format!("sweep journal unreadable: {e:?}"))?;

        let planned = methods * self.datasets.len() * self.budgets().len();
        let prefix = match self.problem {
            Problem::Mcp => "mcp",
            Problem::Im => "im",
        };
        // A preparation that fails drops its method's whole lane: those
        // cells are missing from the records, not listed as failures. So
        // count what completed, and every other operation as failed.
        let prep_failures = outcome
            .failures
            .iter()
            .filter(|f| f.key.contains("|prepare|"))
            .count();
        let attempted = planned + methods;
        let clean = outcome.records.len() + methods - prep_failures;
        let mut out = UnitOut {
            attempted: attempted as u64,
            failed: (attempted - clean) as u64,
            clean: clean as u64,
            digest: FNV_START,
            ..UnitOut::default()
        };

        let mut lanes: Layer = Layer::new();
        for r in &outcome.records {
            *lanes
                .entry(format!("query_s.{prefix}.{}", r.method))
                .or_default() += r.runtime;
            out.qualities.push(r.quality);
            out.digest = fnv(out.digest, r.quality.to_bits());
            out.digest = fnv(out.digest, r.absolute.to_bits());
            if !(r.quality > 0.0 && r.quality <= 1.0) {
                out.problems.push(format!(
                    "{} {} k={}: quality {} outside (0, 1]",
                    r.method, r.dataset, r.budget, r.quality
                ));
            }
        }
        if outcome.records.len() != planned {
            out.problems.push(format!(
                "{} of {planned} cells completed",
                outcome.records.len()
            ));
        }
        if self.problem == Problem::Mcp {
            // Normal and lazy greedy are the same algorithm; only the gain
            // bookkeeping differs, so their coverage must agree.
            for lazy in outcome.records.iter().filter(|r| r.method == "LazyGreedy") {
                let normal = outcome.records.iter().find(|r| {
                    r.method == "NormalGreedy"
                        && r.dataset == lazy.dataset
                        && r.budget == lazy.budget
                });
                if normal.map(|n| n.absolute) != Some(lazy.absolute) {
                    out.problems.push(format!(
                        "LazyGreedy and NormalGreedy disagree on {} k={}",
                        lazy.dataset, lazy.budget
                    ));
                }
            }
        }

        let query_total: f64 = lanes.values().sum();
        let critical = lanes.values().cloned().fold(0.0, f64::max);
        let cells = journal
            .entries
            .iter()
            .filter(|e| !e.cell.contains("|prepare|"));
        let (mut cells_n, mut cells_failed, mut attempts) = (0u64, 0u64, 0u64);
        for e in cells {
            cells_n += 1;
            attempts += u64::from(e.attempts);
            if e.status == EntryStatus::Failed {
                cells_failed += 1;
            }
        }
        out.layer = lanes;
        out.layer.insert("cells".into(), cells_n as f64);
        out.layer.insert("cells_failed".into(), cells_failed as f64);
        out.layer.insert("cell_attempts".into(), attempts as f64);
        out.layer.insert("sweep.critical_lane_s".into(), critical);
        out.layer.insert(
            "sweep.busy_share".into(),
            query_total / (self.threads as f64 * grid_wall),
        );
        out.layer
            .insert("sweep.unattributed_s".into(), grid_wall - critical);
        Ok(out)
    }
}

/// The MCP training graph: BrightKite, as in the paper.
pub fn mcp_train_graph(tr: &mut Tracer) -> Result<Graph, String> {
    load(tr, &dataset("BrightKite", None)?)
}

/// The IM training graph: a 15%-edge subgraph of Youtube, as in the paper.
pub fn im_train_subgraph(tr: &mut Tracer) -> Result<Graph, String> {
    let g = load(tr, &dataset("Youtube", None)?)?;
    Ok(tr.span("graph.subsample", || {
        mcpb_bench::experiments::subsample_edges(&g, 0.15, SWEEP_SEED)
    }))
}
