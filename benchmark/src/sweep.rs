//! Running a workload's sweep and checking what it produced.

use hotspot_features::plane::PlaneCache;
use hotspot_forecast::context::ForecastContext;
use hotspot_forecast::evaluate::EvalRecord;
use hotspot_forecast::sweep::{
    canonical_tsv, InProcessExecutor, ShardSpec, SweepConfig, SweepExecutor, SweepPlan, SweepResult,
};
use std::sync::Arc;

/// Run `config`'s whole plan in process, as `run_sweep` does, with an
/// optional injected plane cache (`None` builds the configured one).
pub fn run(
    ctx: &ForecastContext,
    config: &SweepConfig,
    plane_cache: Option<Arc<PlaneCache>>,
) -> (SweepPlan, SweepResult) {
    let plan = SweepPlan::new(config);
    let executor = InProcessExecutor {
        ctx,
        config,
        shard: ShardSpec::FULL,
        checkpoint: None,
        plane_cache,
    };
    let cells = executor
        .execute(&plan)
        .expect("an in-memory sweep performs no I/O");
    (plan, SweepResult::from_cells(cells))
}

/// What the output checks found in one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// FNV-1a digest of the canonical TSV.
    pub digest: u64,
    /// Cells attempted.
    pub cells: usize,
    /// Cells that produced an evaluation.
    pub evaluated: usize,
    /// Cells that exhausted their attempts panicking.
    pub errored: usize,
    /// Cells stopped by the soft deadline.
    pub timed_out: usize,
    /// Mean average precision over evaluated cells (0 when none).
    pub mean_ap: f64,
    /// Mean lift over evaluated cells (0 when none).
    pub mean_lift: f64,
    /// Every check that did not hold, as a sentence.
    pub problems: Vec<String>,
}

/// Check a finished sweep: clean health, every evaluated cell with a
/// finite AP in [0, 1] and a finite lift above 0, and a canonical TSV
/// covering the plan. A sweep may evaluate no cell: sparse labels can
/// leave every target day of a small grid without a positive.
pub fn check(plan: &SweepPlan, result: &SweepResult) -> Checked {
    let mut problems = Vec::new();
    if !result.health.is_clean() {
        problems.push(format!(
            "sweep health is not clean: {}",
            result.health.summary()
        ));
    }
    let records: Vec<&EvalRecord> = result.cells.iter().filter_map(|c| c.record()).collect();
    for cell in &result.cells {
        if let Some(r) = cell.record() {
            if !(r.ap.is_finite() && (0.0..=1.0).contains(&r.ap)) {
                problems.push(format!("cell {} has AP {}", cell.key(), r.ap));
            }
            if !(r.lift.is_finite() && r.lift > 0.0) {
                problems.push(format!("cell {} has lift {}", cell.key(), r.lift));
            }
        }
    }
    let digest = match canonical_tsv(plan, result) {
        Ok(tsv) => hotspot_obs::fnv1a(tsv.as_bytes()),
        Err(e) => {
            problems.push(format!("canonical TSV: {e}"));
            0
        }
    };
    let n = records.len().max(1) as f64;
    Checked {
        digest,
        cells: result.cells.len(),
        evaluated: records.len(),
        errored: result.health.errored,
        timed_out: result.health.timed_out,
        mean_ap: records.iter().map(|r| r.ap).sum::<f64>() / n,
        mean_lift: records.iter().map(|r| r.lift).sum::<f64>() / n,
        problems,
    }
}

/// Whether two records are equal bit for bit.
pub fn same_record(a: &EvalRecord, b: &EvalRecord) -> bool {
    a.ap.to_bits() == b.ap.to_bits()
        && a.ap_random.to_bits() == b.ap_random.to_bits()
        && a.lift.to_bits() == b.lift.to_bits()
        && a.positives == b.positives
        && a.evaluated == b.evaluated
}
