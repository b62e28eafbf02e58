//! Cross-checks of the bit-packed parallel estimation pipeline against the
//! historical scalar loop: on real codes with real decoders, both paths
//! must report statistically indistinguishable logical error rates.

use asyndrome::circuit::{
    estimate_logical_error, estimate_logical_error_scalar, EstimateOptions, NoiseModel, Schedule,
};
use asyndrome::codes::{rotated_surface_code, steane_code, StabilizerCode};
use asyndrome::decode::UnionFindFactory;
use asyndrome::sim::wilson_interval;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Asserts that two binomial observations are consistent: their Wilson
/// intervals (at a stringent z, so spurious failures are ~1e-5) overlap.
fn assert_statistically_equal(name: &str, p_a: f64, p_b: f64, shots: usize) {
    let z = 4.417;
    let (a_lo, a_hi) = wilson_interval((p_a * shots as f64).round() as usize, shots, z);
    let (b_lo, b_hi) = wilson_interval((p_b * shots as f64).round() as usize, shots, z);
    assert!(
        a_lo <= b_hi && b_lo <= a_hi,
        "{name}: scalar p = {p_a:.5} [{a_lo:.5}, {a_hi:.5}] vs batch p = {p_b:.5} \
         [{b_lo:.5}, {b_hi:.5}] do not overlap"
    );
}

fn cross_check(code: &StabilizerCode, shots: usize) {
    let schedule = Schedule::trivial(code);
    let noise = NoiseModel::brisbane();
    let factory = UnionFindFactory::new();
    let scalar = estimate_logical_error_scalar(
        code,
        &schedule,
        &noise,
        &factory,
        shots,
        &mut ChaCha8Rng::seed_from_u64(11),
    )
    .unwrap();
    let batch = estimate_logical_error(
        code,
        &schedule,
        &noise,
        &factory,
        shots,
        &EstimateOptions::default(),
        &mut ChaCha8Rng::seed_from_u64(12),
    )
    .unwrap()
    .0;
    assert_eq!(batch.shots, shots, "no early stop configured, full budget expected");
    assert_statistically_equal("p_overall", scalar.p_overall(), batch.p_overall(), shots);
    assert_statistically_equal("p_x", scalar.p_x(), batch.p_x(), shots);
    assert_statistically_equal("p_z", scalar.p_z(), batch.p_z(), shots);
}

#[test]
fn scalar_and_parallel_agree_on_steane() {
    cross_check(&steane_code(), 20_000);
}

#[test]
fn scalar_and_parallel_agree_on_rotated_surface_d3() {
    cross_check(&rotated_surface_code(3), 8_000);
}

#[test]
fn pipeline_is_reproducible_end_to_end() {
    let code = steane_code();
    let schedule = Schedule::trivial(&code);
    let noise = NoiseModel::brisbane();
    let factory = UnionFindFactory::new();
    let run = |seed: u64| {
        estimate_logical_error(
            &code,
            &schedule,
            &noise,
            &factory,
            4_000,
            &EstimateOptions::default(),
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
        .unwrap()
        .0
    };
    assert_eq!(run(3), run(3));
    // Thread cap must not change the result either.
    let (capped, _) = estimate_logical_error(
        &code,
        &schedule,
        &noise,
        &factory,
        4_000,
        &EstimateOptions { max_threads: Some(1), ..EstimateOptions::default() },
        &mut ChaCha8Rng::seed_from_u64(3),
    )
    .unwrap();
    assert_eq!(capped, run(3));
}
