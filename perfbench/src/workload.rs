//! What every workload provides to the measurement loop in `main.rs`.

use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Per-layer values of one unit or one workload, keyed by metric name.
pub type Layer = BTreeMap<String, f64>;

/// Outcome of one fixed unit of work.
#[derive(Debug, Default)]
pub struct UnitOut {
    /// Normalized objective of every answer the unit produced.
    pub qualities: Vec<f64>,
    /// Operations attempted: sweep cells and preparations, trainings,
    /// requests, or kernel calls.
    pub attempted: u64,
    /// Operations that failed: failed cells, diverged trainings, shed or
    /// error requests.
    pub failed: u64,
    /// Operations answered cleanly (for requests: `served`, not degraded).
    pub clean: u64,
    /// Per-layer values measured inside the unit.
    pub layer: Layer,
    /// Timing samples by metric stem, pooled over the units of a run and
    /// reported as `{stem}.p50`, `{stem}.p90` and `{stem}.samples`.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Digest of the unit's answers (timings excluded); every unit of one
    /// run answers the same inputs, so every digest must match.
    pub digest: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// One-off work users do not pay per run, such as warming an on-disk
    /// cache. Not timed.
    fn warm(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Builds the inputs. Called several times; the last result is used.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;

    /// Arcs in the graphs the set-up built or loaded.
    fn arcs(&self) -> usize;

    /// Runs the fixed unit of work once.
    fn unit(&mut self, tr: &mut Tracer) -> Result<UnitOut, String>;
}

/// FNV-1a step, for answer digests.
pub fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64 finalizer: derives independent input seeds from the
/// workload seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
