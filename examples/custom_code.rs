//! Shows how to bring your own QEC code: define a CSS code from its
//! parity-check matrices, synthesize an AlphaSyndrome schedule for it with a
//! chosen decoder, and inspect the result.
//!
//! The code used here is the [[8,3,2]] "smallest interesting colour code"
//! (a cube code): one weight-8 X stabilizer, four weight-4 Z stabilizers.
//!
//! Run with: `cargo run --release --example custom_code`

use asyndrome::circuit::{estimate_logical_error, EstimateOptions, NoiseModel};
use asyndrome::codes::CssCode;
use asyndrome::core::{LowestDepthScheduler, MctsConfig, MctsScheduler, Scheduler};
use asyndrome::decode::UnionFindFactory;
use asyndrome::pauli::BinMatrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Qubits sit on the vertices of a cube; faces give the Z checks and the
    // whole cube gives the single X check.
    let hx = BinMatrix::from_dense(&[&[1, 1, 1, 1, 1, 1, 1, 1]]);
    let hz = BinMatrix::from_dense(&[
        &[1, 1, 1, 1, 0, 0, 0, 0],
        &[0, 0, 0, 0, 1, 1, 1, 1],
        &[1, 1, 0, 0, 1, 1, 0, 0],
        &[1, 0, 1, 0, 1, 0, 1, 0],
    ]);
    let code = CssCode::new(hx, hz).build("cube code", "custom", 2)?;
    code.validate()?;
    println!("custom code: {code}, k = {}", code.num_logicals());
    for (i, s) in code.stabilizers().iter().enumerate() {
        println!("  stabilizer {i}: {s}");
    }

    let noise = NoiseModel::paper();
    let factory = UnionFindFactory::new();

    let baseline = LowestDepthScheduler::new().schedule(&code)?;
    let mcts = MctsScheduler::new(
        noise.clone(),
        std::sync::Arc::new(UnionFindFactory::new()),
        MctsConfig { iterations_per_step: 48, shots_per_evaluation: 2000, ..Default::default() },
    )
    .schedule(&code)?;

    let shots = 50_000;
    let options = EstimateOptions::default();
    println!();
    println!("{:<22} {:>6} {:>12}", "schedule", "depth", "overall error");
    for (name, schedule) in [("lowest depth", &baseline), ("AlphaSyndrome (MCTS)", &mcts)] {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let (estimate, _) =
            estimate_logical_error(&code, schedule, &noise, &factory, shots, &options, &mut rng)?;
        println!("{:<22} {:>6} {:>12.2e}", name, schedule.depth(), estimate.p_overall());
    }

    println!();
    println!("per-stabilizer tick assignment of the synthesized schedule:");
    for (s, stab) in code.stabilizers().iter().enumerate() {
        let ticks: Vec<String> = stab
            .entries()
            .iter()
            .map(|&(q, _)| format!("q{q}@t{}", mcts.tick_of(s, q).unwrap()))
            .collect();
        println!("  stabilizer {s}: {}", ticks.join(", "));
    }
    Ok(())
}
