//! Quickstart: synthesize an AlphaSyndrome schedule for the Steane code and
//! compare it with the lowest-depth baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use asyndrome::circuit::{estimate_logical_error, EstimateOptions, NoiseModel};
use asyndrome::codes::steane_code;
use asyndrome::core::{LowestDepthScheduler, MctsConfig, MctsScheduler, Scheduler};
use asyndrome::decode::BpOsdFactory;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a code, a noise model and a decoder.
    let code = steane_code();
    let noise = NoiseModel::paper();
    let factory = BpOsdFactory::new();
    println!("code: {code}");

    // 2. Baseline: the depth-optimal schedule.
    let baseline = LowestDepthScheduler::new().schedule(&code)?;

    // 3. AlphaSyndrome: MCTS with the decoder in the loop.
    let config =
        MctsConfig { iterations_per_step: 64, shots_per_evaluation: 3000, ..Default::default() };
    let scheduler =
        MctsScheduler::new(noise.clone(), std::sync::Arc::new(BpOsdFactory::new()), config);
    let mcts = scheduler.schedule_with_progress(&code, |step| {
        if step.fixed_checks == step.total_checks {
            println!(
                "  partition {} finished ({} checks), mean reward {:.3}",
                step.partition, step.total_checks, step.mean_reward
            );
        }
    })?;

    // 4. Evaluate both schedules with a fresh seed.
    let shots = 100_000;
    let options = EstimateOptions::default();
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let (base, _) =
        estimate_logical_error(&code, &baseline, &noise, &factory, shots, &options, &mut rng)?;
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let (ours, _) =
        estimate_logical_error(&code, &mcts, &noise, &factory, shots, &options, &mut rng)?;

    println!();
    println!(
        "{:<22} {:>6} {:>12} {:>12} {:>12}",
        "schedule", "depth", "logical X", "logical Z", "overall"
    );
    println!(
        "{:<22} {:>6} {:>12.2e} {:>12.2e} {:>12.2e}",
        "lowest depth",
        baseline.depth(),
        base.p_x(),
        base.p_z(),
        base.p_overall()
    );
    println!(
        "{:<22} {:>6} {:>12.2e} {:>12.2e} {:>12.2e}",
        "AlphaSyndrome (MCTS)",
        mcts.depth(),
        ours.p_x(),
        ours.p_z(),
        ours.p_overall()
    );
    if ours.p_overall() < base.p_overall() {
        println!(
            "\nAlphaSyndrome reduced the overall logical error rate by {:.1}%",
            100.0 * (1.0 - ours.p_overall() / base.p_overall())
        );
    } else {
        println!("\nAlphaSyndrome did not improve on the baseline at this search budget; raise iterations_per_step / shots_per_evaluation.");
    }
    Ok(())
}
