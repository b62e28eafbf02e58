//! Output checks that run outside the timed interval, and the golden
//! copy of each workload's outputs at the default seed.
//!
//! The golden files are the benchmark's own rather than the tracked
//! `BENCH_sweep.json`, whose records are stale: the evaluation salt
//! changed after they were written and only their timings were
//! refreshed, so for hexagonal-color [[7,1,3]] @ 1e-3 the lowest-depth
//! record there reads p = 0.005 while the code computes 0.00167.

use std::path::PathBuf;

use asynd_core::eval_seed_for;
use asynd_decode::factory_for;
use asynd_server::tenant_salt;
use serde_json::Value;

use crate::jobs::{Job, JobOutcome};

/// The workload seed the golden copies and pinned counts are taken at.
pub const DEFAULT_SEED: u64 = 2026;

/// Checks one race at any seed: every strategy's schedule validates
/// against the code, every estimate is reproduced exactly by a fresh
/// single-thread evaluator under the job's salt, and the winner is the
/// strategy with the lowest logical error rate (ties to the earlier one).
///
/// # Errors
///
/// The first violation, as text.
pub fn check_job(job: &Job, outcome: &JobOutcome) -> Result<(), String> {
    let code = &job.entry.code;
    let salt = tenant_salt(&job.tenant());
    let fresh = job.evaluator(factory_for(job.entry.decoder));
    for strategy in &outcome.strategies {
        let context = |problem: String| format!("{} {}: {problem}", outcome.key, strategy.name);
        strategy.schedule.validate(code).map_err(|e| context(format!("invalid schedule: {e}")))?;
        let seed = eval_seed_for(salt, strategy.schedule.key());
        let estimate = fresh
            .evaluate(code, &strategy.schedule, seed)
            .map_err(|e| context(format!("re-evaluation failed: {e}")))?;
        if estimate != strategy.estimate {
            return Err(context(format!(
                "estimate {:?} is not reproduced ({estimate:?})",
                strategy.estimate
            )));
        }
    }
    let best = outcome.strategies.iter().enumerate().fold(0, |best, (index, s)| {
        let incumbent = outcome.strategies[best].estimate.p_overall();
        if s.estimate.p_overall() < incumbent {
            index
        } else {
            best
        }
    });
    if best != outcome.winner {
        return Err(format!("{}: winner {} is not the best strategy", outcome.key, outcome.winner));
    }
    Ok(())
}

/// Where a workload's golden copy lives.
pub fn golden_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("{workload}.json"))
}

/// The workload's golden document (`outputs` and `pinned`), if recorded.
pub fn load_golden(workload: &str) -> Option<Value> {
    let text = std::fs::read_to_string(golden_path(workload)).ok()?;
    serde_json::from_str(&text).ok()
}

/// Writes a workload's golden document.
///
/// # Errors
///
/// File-system failures, as text.
pub fn write_golden(workload: &str, doc: &Value) -> Result<(), String> {
    let path = golden_path(workload);
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}
