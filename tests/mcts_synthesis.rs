//! Integration tests of the AlphaSyndrome MCTS scheduler: validity,
//! determinism and improvement over the lowest-depth baseline.

use asyndrome::circuit::{estimate_logical_error, EstimateOptions, NoiseModel};
use asyndrome::codes::{generalized_shor_code, steane_code};
use asyndrome::core::{LowestDepthScheduler, MctsConfig, MctsScheduler, Scheduler};
use asyndrome::decode::{BpOsdFactory, UnionFindFactory};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn mcts_schedules_are_valid_for_multiple_decoders() {
    let code = steane_code();
    let noise = NoiseModel::paper();
    let config =
        MctsConfig { iterations_per_step: 8, shots_per_evaluation: 200, ..MctsConfig::quick() };

    let bposd = std::sync::Arc::new(BpOsdFactory::new());
    let schedule =
        MctsScheduler::new(noise.clone(), bposd, config.clone()).schedule(&code).unwrap();
    schedule.validate(&code).unwrap();

    let unionfind = std::sync::Arc::new(UnionFindFactory::new());
    let schedule = MctsScheduler::new(noise, unionfind, config).schedule(&code).unwrap();
    schedule.validate(&code).unwrap();
}

#[test]
fn mcts_covers_every_check_exactly_once() {
    let code = generalized_shor_code(3);
    let noise = NoiseModel::paper();
    let config =
        MctsConfig { iterations_per_step: 6, shots_per_evaluation: 150, ..MctsConfig::quick() };
    let schedule = MctsScheduler::new(noise, std::sync::Arc::new(BpOsdFactory::new()), config)
        .schedule(&code)
        .unwrap();
    let total_weight: usize = code.stabilizers().iter().map(|s| s.weight()).sum();
    assert_eq!(schedule.checks().len(), total_weight);
    schedule.validate(&code).unwrap();
}

/// With a moderate search budget the synthesized schedule must not be
/// meaningfully worse than the lowest-depth baseline, and is expected to
/// improve on it (the paper's headline claim). The tolerance absorbs
/// Monte-Carlo noise at this budget.
#[test]
fn mcts_is_competitive_with_the_lowest_depth_baseline() {
    let code = steane_code();
    let noise = NoiseModel::paper();
    let factory = BpOsdFactory::new();
    let config = MctsConfig {
        iterations_per_step: 32,
        shots_per_evaluation: 1500,
        seed: 3,
        ..Default::default()
    };
    let mcts = MctsScheduler::new(noise.clone(), std::sync::Arc::new(BpOsdFactory::new()), config)
        .schedule(&code)
        .unwrap();
    let baseline = LowestDepthScheduler::new().schedule(&code).unwrap();

    let shots = 40_000;
    let options = EstimateOptions::default();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let (ours, _) =
        estimate_logical_error(&code, &mcts, &noise, &factory, shots, &options, &mut rng).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let (base, _) =
        estimate_logical_error(&code, &baseline, &noise, &factory, shots, &options, &mut rng)
            .unwrap();

    assert!(
        ours.p_overall() <= base.p_overall() * 1.10,
        "MCTS schedule ({}) is much worse than the lowest-depth baseline ({})",
        ours.p_overall(),
        base.p_overall()
    );
}

/// Larger search budgets must reproduce the improvement claim strictly; this
/// takes a few minutes, so it is ignored by default
/// (`cargo test --release -- --ignored` runs it).
#[test]
#[ignore = "several minutes of MCTS search; run with --ignored"]
fn mcts_strictly_improves_with_a_larger_budget() {
    let code = steane_code();
    let noise = NoiseModel::paper();
    let factory = BpOsdFactory::new();
    let config = MctsConfig {
        iterations_per_step: 128,
        shots_per_evaluation: 6000,
        seed: 5,
        ..Default::default()
    };
    let mcts = MctsScheduler::new(noise.clone(), std::sync::Arc::new(BpOsdFactory::new()), config)
        .schedule(&code)
        .unwrap();
    let baseline = LowestDepthScheduler::new().schedule(&code).unwrap();

    let shots = 200_000;
    let options = EstimateOptions::default();
    let mut rng = ChaCha8Rng::seed_from_u64(123);
    let (ours, _) =
        estimate_logical_error(&code, &mcts, &noise, &factory, shots, &options, &mut rng).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(123);
    let (base, _) =
        estimate_logical_error(&code, &baseline, &noise, &factory, shots, &options, &mut rng)
            .unwrap();
    assert!(
        ours.p_overall() < base.p_overall(),
        "expected a strict improvement: {} !< {}",
        ours.p_overall(),
        base.p_overall()
    );
}

#[test]
fn mcts_progress_reports_are_complete_and_ordered() {
    let code = steane_code();
    let noise = NoiseModel::paper();
    let config =
        MctsConfig { iterations_per_step: 5, shots_per_evaluation: 100, ..MctsConfig::quick() };
    let scheduler = MctsScheduler::new(noise, std::sync::Arc::new(BpOsdFactory::new()), config);
    let mut reports = Vec::new();
    scheduler.schedule_with_progress(&code, |r| reports.push(r.clone())).unwrap();
    let total_weight: usize = code.stabilizers().iter().map(|s| s.weight()).sum();
    assert_eq!(reports.len(), total_weight);
    for pair in reports.windows(2) {
        if pair[0].partition == pair[1].partition {
            assert_eq!(pair[0].fixed_checks + 1, pair[1].fixed_checks);
        } else {
            assert_eq!(pair[1].fixed_checks, 1);
        }
    }
}
