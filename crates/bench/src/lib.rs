//! Shared harness for the benchmark binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary accepts `--quick` (default) or `--full`:
//!
//! * `--quick` runs a reduced set of code instances with small MCTS budgets
//!   and Monte-Carlo shot counts so the whole suite finishes in minutes;
//! * `--full` raises instance counts, MCTS iterations and shot counts toward
//!   the paper's scale (hours of compute).
//!
//! The binaries print the same rows/series the paper reports; absolute
//! numbers depend on the reproduction's simulator and decoders, but the
//! comparisons (who wins, by roughly what factor) are the reproduction
//! target. See EXPERIMENTS.md for recorded outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use asynd_circuit::{
    estimate_logical_error, DecoderFactory, EstimateOptions, NoiseModel, Schedule,
};
use asynd_codes::catalog::RecommendedDecoder;
use asynd_codes::StabilizerCode;
use asynd_core::{LowestDepthScheduler, MctsConfig, MctsScheduler, Scheduler};
use asynd_decode::factory_for;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// How much compute a benchmark binary is allowed to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Reduced instances and budgets (default).
    Quick,
    /// Paper-scale instances and budgets.
    Full,
}

impl RunMode {
    /// Parses `--quick` / `--full` from the process arguments.
    pub fn from_args() -> RunMode {
        if std::env::args().any(|a| a == "--full") {
            RunMode::Full
        } else {
            RunMode::Quick
        }
    }

    /// Monte-Carlo shots used for final (reported) evaluations.
    pub fn evaluation_shots(self) -> usize {
        match self {
            RunMode::Quick => 40_000,
            RunMode::Full => 400_000,
        }
    }

    /// The MCTS budget for schedule synthesis.
    pub fn mcts_config(self, seed: u64) -> MctsConfig {
        match self {
            RunMode::Quick => MctsConfig {
                iterations_per_step: 24,
                shots_per_evaluation: 1200,
                seed,
                ..MctsConfig::default()
            },
            RunMode::Full => MctsConfig {
                iterations_per_step: 512,
                shots_per_evaluation: 20_000,
                seed,
                ..MctsConfig::default()
            },
        }
    }

    /// Caps the number of data qubits of the instances run in quick mode.
    pub fn max_qubits(self) -> usize {
        match self {
            RunMode::Quick => 30,
            RunMode::Full => usize::MAX,
        }
    }
}

/// The measured outcome of evaluating one schedule.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Logical X error rate.
    pub p_x: f64,
    /// Logical Z error rate.
    pub p_z: f64,
    /// Overall logical error rate.
    pub p_overall: f64,
    /// Circuit depth of the schedule.
    pub depth: usize,
}

/// Evaluates a schedule with a fixed seed and shot budget.
///
/// # Panics
///
/// Panics if the evaluation fails (invalid schedule or noise model), which
/// indicates a harness bug rather than a measurement outcome.
pub fn measure(
    code: &StabilizerCode,
    schedule: &Schedule,
    noise: &NoiseModel,
    factory: &dyn DecoderFactory,
    shots: usize,
    seed: u64,
) -> Measurement {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let options = EstimateOptions::default();
    let (estimate, _) =
        estimate_logical_error(code, schedule, noise, factory, shots, &options, &mut rng)
            .expect("benchmark evaluation failed");
    Measurement {
        p_x: estimate.p_x(),
        p_z: estimate.p_z(),
        p_overall: estimate.p_overall(),
        depth: schedule.depth(),
    }
}

/// Synthesizes the AlphaSyndrome (MCTS) schedule for a code under the given
/// decoder and noise model.
///
/// # Panics
///
/// Panics if synthesis fails.
pub fn alphasyndrome_schedule(
    code: &StabilizerCode,
    noise: &NoiseModel,
    decoder: RecommendedDecoder,
    mode: RunMode,
    seed: u64,
) -> Schedule {
    let factory = factory_for(decoder);
    let mut config = mode.mcts_config(seed);
    if mode == RunMode::Quick {
        // Keep the total number of rollouts roughly constant across code
        // sizes so the quick sweep stays in the minutes range: larger codes
        // have more scheduling steps, so they get fewer iterations per step.
        let total_checks: usize = code.stabilizers().iter().map(|s| s.weight()).sum();
        config.iterations_per_step = (768 / total_checks.max(1)).clamp(6, 24);
    }
    let scheduler = MctsScheduler::new(noise.clone(), factory, config);
    scheduler.schedule(code).expect("MCTS synthesis failed")
}

/// The lowest-depth baseline schedule.
///
/// # Panics
///
/// Panics if synthesis fails.
pub fn lowest_depth_schedule(code: &StabilizerCode) -> Schedule {
    LowestDepthScheduler::new().schedule(code).expect("lowest-depth synthesis failed")
}

/// Relative reduction (in percent) of `ours` with respect to `baseline`.
pub fn reduction_percent(ours: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        100.0 * (1.0 - ours / baseline)
    }
}

/// Builds the decoder factory paired with a catalog decoder label.
pub fn decoder_factory(decoder: RecommendedDecoder) -> Arc<dyn DecoderFactory + Send + Sync> {
    factory_for(decoder)
}

/// Formats a probability in the paper's `a.bc×10^e` style.
pub fn sci(p: f64) -> String {
    if p <= 0.0 {
        "<1/shots".to_string()
    } else {
        format!("{p:.2e}")
    }
}

/// Prints a horizontal rule sized for the benchmark tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_codes::steane_code;

    #[test]
    fn quick_mode_is_the_default() {
        assert_eq!(RunMode::from_args(), RunMode::Quick);
        assert!(RunMode::Quick.evaluation_shots() < RunMode::Full.evaluation_shots());
        assert!(
            RunMode::Quick.mcts_config(0).iterations_per_step
                < RunMode::Full.mcts_config(0).iterations_per_step
        );
    }

    #[test]
    fn measure_runs_end_to_end() {
        let code = steane_code();
        let schedule = lowest_depth_schedule(&code);
        let factory = decoder_factory(RecommendedDecoder::BpOsd);
        let m = measure(&code, &schedule, &NoiseModel::paper(), factory.as_ref(), 500, 1);
        assert!(m.p_overall >= 0.0 && m.p_overall <= 1.0);
        assert_eq!(m.depth, schedule.depth());
    }

    #[test]
    fn reduction_percent_handles_edge_cases() {
        assert_eq!(reduction_percent(0.5, 1.0), 50.0);
        assert_eq!(reduction_percent(1.0, 0.0), 0.0);
        assert!(sci(0.0).contains("shots"));
        assert!(sci(1.23e-3).contains("e-3"));
    }
}
