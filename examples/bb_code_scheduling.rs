//! Schedules a bivariate-bicycle code round (the family behind IBM's
//! [[72,12,6]] memory) and compares the trivial, IBM-style and AlphaSyndrome
//! schedules under BP-OSD decoding.
//!
//! A reduced BB instance is used so the example finishes in about a minute;
//! pass `--large` to run the full [[72,12,6]] code (several minutes).
//!
//! Run with: `cargo run --release --example bb_code_scheduling [-- --large]`

use asyndrome::circuit::{estimate_logical_error, EstimateOptions, NoiseModel, Schedule};
use asyndrome::codes::{bb_code_72_12_6, bivariate_bicycle_code};
use asyndrome::core::industry::ibm_bb_schedule;
use asyndrome::core::{MctsConfig, MctsScheduler, Scheduler};
use asyndrome::decode::BpOsdFactory;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let large = std::env::args().any(|a| a == "--large");
    let code = if large {
        bb_code_72_12_6()
    } else {
        bivariate_bicycle_code(3, 3, &[(0, 0), (1, 0)], &[(0, 0), (0, 1)], 2)?
    };
    println!(
        "code: {code} ({} stabilizers of weight {})",
        code.stabilizers().len(),
        code.max_stabilizer_weight()
    );

    let noise = NoiseModel::paper();
    let factory = BpOsdFactory::new();

    let trivial = Schedule::trivial(&code);
    let ibm = ibm_bb_schedule(&code)?;
    let mcts = MctsScheduler::new(
        noise.clone(),
        std::sync::Arc::new(BpOsdFactory::new()),
        MctsConfig { iterations_per_step: 16, shots_per_evaluation: 800, ..Default::default() },
    )
    .schedule(&code)?;

    let shots = 30_000;
    let options = EstimateOptions::default();
    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>12}",
        "schedule", "depth", "logical X", "logical Z", "overall"
    );
    for (name, schedule) in [("trivial", &trivial), ("IBM-style", &ibm), ("AlphaSyndrome", &mcts)] {
        schedule.validate(&code)?;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (estimate, _) =
            estimate_logical_error(&code, schedule, &noise, &factory, shots, &options, &mut rng)?;
        println!(
            "{:<16} {:>6} {:>12.2e} {:>12.2e} {:>12.2e}",
            name,
            schedule.depth(),
            estimate.p_x(),
            estimate.p_z(),
            estimate.p_overall()
        );
    }
    Ok(())
}
