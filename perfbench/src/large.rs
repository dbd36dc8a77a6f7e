//! `large_rr`: `ba-1m` from a warmed on-disk cache, then sharded RR
//! sampling and IC/LT Monte-Carlo, as `mcpbench large-smoke` does.

use crate::trace::Tracer;
use crate::workload::{fnv, mix, UnitOut, Workload, FNV_START};
use mcpb_graph::{large_config, CompactGraph, LargeConfig};
use std::path::PathBuf;
use std::time::Instant;

/// RR sets per unit: enough that the RR estimate of the chosen seeds'
/// spread is within a few percent, and that sampling is a visible share
/// of the unit.
const RR_SETS: usize = 100_000;
/// IC trials per unit.
const IC_TRIALS: usize = 512;
/// LT trials per unit.
const LT_TRIALS: usize = 32;
/// Seeds chosen from the RR sets.
const SEEDS: usize = 5;

/// The large-tier workload.
pub struct LargeRr {
    seed: u64,
    config: LargeConfig,
    cache_dir: PathBuf,
    graph: Option<CompactGraph>,
}

impl LargeRr {
    /// The large-tier workload, caching the graph under `work_dir`.
    pub fn new(seed: u64, work_dir: PathBuf) -> Result<LargeRr, String> {
        let config = large_config("ba-1m").ok_or("ba-1m missing from the large catalog")?;
        Ok(LargeRr {
            seed,
            config,
            cache_dir: work_dir.join("large"),
            graph: None,
        })
    }
}

impl Workload for LargeRr {
    fn warm(&mut self) -> Result<(), String> {
        self.config
            .load_cached(&self.cache_dir)
            .map(drop)
            .map_err(|e| format!("warming the ba-1m cache: {e}"))
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // Drop the previous mapping first so each set-up maps afresh.
        self.graph = None;
        let (g, hit) = tr
            .span("graph.load_cached", || {
                self.config.load_cached(&self.cache_dir)
            })
            .map_err(|e| format!("loading the ba-1m cache: {e}"))?;
        if !hit {
            return Err("ba-1m cache was rebuilt after warming".to_string());
        }
        tr.span("graph.validate", || g.validate())
            .map_err(|e| format!("ba-1m failed validation: {e}"))?;
        self.graph = Some(g);
        Ok(())
    }

    fn arcs(&self) -> usize {
        self.graph.as_ref().map_or(0, CompactGraph::num_arcs)
    }

    fn unit(&mut self, tr: &mut Tracer) -> Result<UnitOut, String> {
        let g = self.graph.as_ref().ok_or("unit before setup")?;
        let n = g.num_nodes();
        let t0 = Instant::now();
        let rr = tr.span("im.sample_collection", || {
            mcpb_im::sample_collection(g, RR_SETS, mix(self.seed ^ 1))
        });
        let rr_s = t0.elapsed().as_secs_f64();
        let (seeds, _) = rr.greedy_max_coverage(SEEDS);
        let rr_spread = rr.estimate_spread(&seeds);
        let t1 = Instant::now();
        let ic = tr.span("im.influence_mc", || {
            mcpb_im::influence_mc(g, &seeds, IC_TRIALS, mix(self.seed ^ 2))
        });
        let ic_s = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let lt = tr.span("im.influence_mc_lt", || {
            mcpb_im::influence_mc_lt(g, &seeds, LT_TRIALS, mix(self.seed ^ 3))
        });
        let lt_s = t2.elapsed().as_secs_f64();

        let mut out = UnitOut {
            attempted: 3,
            clean: 3,
            digest: FNV_START,
            ..UnitOut::default()
        };
        let mut members = 0usize;
        for set in rr.sets().iter() {
            members += set.len();
            out.digest = fnv(out.digest, set.len() as u64);
            if set.is_empty() || set.iter().any(|&v| v as usize >= n) {
                out.problems
                    .push("an RR set is empty or names a node out of range".into());
                break;
            }
        }
        if rr.len() != RR_SETS {
            out.problems
                .push(format!("{} RR sets sampled, {RR_SETS} asked", rr.len()));
        }
        let k = seeds.len() as f64;
        for (model, spread) in [("IC", ic), ("LT", lt)] {
            if !(spread >= k && spread <= n as f64) {
                out.problems
                    .push(format!("{model} spread {spread} outside [{k}, {n}]"));
            }
            out.digest = fnv(out.digest, spread.to_bits());
        }
        // Both estimate the IC spread of the same seeds; with this many RR
        // sets and trials they agree within a few percent.
        if (rr_spread - ic).abs() > 0.1 * ic {
            out.problems.push(format!(
                "RR estimate {rr_spread} and Monte-Carlo IC spread {ic} disagree by over 10%"
            ));
        }
        out.qualities.push(ic / n as f64);
        out.layer
            .insert("rr.sets_per_s".into(), rr.len() as f64 / rr_s);
        out.layer.insert(
            "rr.mean_set_size".into(),
            members as f64 / rr.len().max(1) as f64,
        );
        out.layer.insert("ic.mc_s".into(), ic_s);
        out.layer.insert("lt.mc_s".into(), lt_s);
        Ok(out)
    }
}
