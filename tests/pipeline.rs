//! Cross-crate integration tests: codes → schedulers → circuits → DEMs →
//! decoders → logical error rates.

use asyndrome::circuit::{
    estimate_logical_error, DetectorErrorModel, EstimateOptions, NoiseModel, Schedule,
};
use asyndrome::codes::catalog::{table2_entries, RecommendedDecoder};
use asyndrome::codes::{rotated_surface_code, steane_code, xzzx_code};
use asyndrome::core::industry::{
    google_surface_schedule, ibm_bb_schedule, rotational_surface_schedule,
};
use asyndrome::core::{LowestDepthScheduler, Scheduler, TrivialScheduler};
use asyndrome::decode::{factory_for, MwpmFactory};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every scheduler must emit a schedule that validates against every catalog
/// code it supports.
#[test]
fn all_baseline_schedulers_validate_on_the_full_catalog() {
    for entry in table2_entries() {
        let code = entry.code;
        for scheduler in [&TrivialScheduler::new() as &dyn Scheduler, &LowestDepthScheduler::new()]
        {
            let schedule = scheduler
                .schedule(&code)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", scheduler.name(), code.name()));
            schedule
                .validate(&code)
                .unwrap_or_else(|e| panic!("{} invalid on {}: {e}", scheduler.name(), code.name()));
        }
    }
}

/// DEMs built from every catalog instance must have consistent dimensions
/// and probabilities.
#[test]
fn dems_are_well_formed_for_every_catalog_instance() {
    let noise = NoiseModel::paper();
    for entry in table2_entries() {
        if entry.code.num_qubits() > 40 {
            continue;
        }
        let schedule = Schedule::trivial(&entry.code);
        let dem = DetectorErrorModel::build(&entry.code, &schedule, &noise).unwrap();
        assert_eq!(dem.num_detectors(), 2 * entry.code.stabilizers().len());
        assert_eq!(dem.num_observables(), 2 * entry.code.num_logicals());
        for e in dem.errors() {
            assert!(e.probability > 0.0 && e.probability < 1.0);
            assert!(e.detectors.iter().all(|&d| d < dem.num_detectors()));
            assert!(e.observables.iter().all(|&o| o < dem.num_observables()));
        }
    }
}

/// The Fig. 1 motivation: Google's zig-zag schedule clearly beats the
/// trivial schedule on the distance-3 rotated surface code.
#[test]
fn google_schedule_beats_trivial_on_surface_code() {
    let code = rotated_surface_code(3);
    let noise = NoiseModel::brisbane();
    let factory = MwpmFactory::new();
    let shots = 8000;
    let options = EstimateOptions::default();

    let trivial = Schedule::trivial(&code);
    let google = google_surface_schedule(&code).unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (trivial_est, _) =
        estimate_logical_error(&code, &trivial, &noise, &factory, shots, &options, &mut rng)
            .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (google_est, _) =
        estimate_logical_error(&code, &google, &noise, &factory, shots, &options, &mut rng)
            .unwrap();

    assert!(
        google_est.p_overall() < 0.7 * trivial_est.p_overall(),
        "google ({}) must clearly beat trivial ({})",
        google_est.p_overall(),
        trivial_est.p_overall()
    );
}

/// The Fig. 7 bias: the clockwise order biases towards logical Z errors and
/// the anti-clockwise order towards logical X errors.
#[test]
fn rotational_orders_show_the_fig7_bias() {
    let code = rotated_surface_code(3);
    let noise = NoiseModel::paper();
    let factory = MwpmFactory::new();
    let shots = 30_000;
    let options = EstimateOptions::default();

    let clockwise = rotational_surface_schedule(&code, true).unwrap();
    let anticlockwise = rotational_surface_schedule(&code, false).unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let (cw, _) =
        estimate_logical_error(&code, &clockwise, &noise, &factory, shots, &options, &mut rng)
            .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let (acw, _) =
        estimate_logical_error(&code, &anticlockwise, &noise, &factory, shots, &options, &mut rng)
            .unwrap();

    // The two orders are mirror images: their X/Z biases must be opposite.
    let cw_bias = cw.p_z() - cw.p_x();
    let acw_bias = acw.p_z() - acw.p_x();
    assert!(
        cw_bias * acw_bias < 0.0,
        "expected opposite logical X/Z biases, got cw ({}, {}) acw ({}, {})",
        cw.p_x(),
        cw.p_z(),
        acw.p_x(),
        acw.p_z()
    );
}

/// Depth ordering between the schedulers matches expectations on a CSS code.
#[test]
fn depth_relationships_hold() {
    let code = rotated_surface_code(5);
    let trivial = TrivialScheduler::new().schedule(&code).unwrap();
    let lowest = LowestDepthScheduler::new().schedule(&code).unwrap();
    let google = google_surface_schedule(&code).unwrap();
    assert!(google.depth() <= lowest.depth());
    assert!(lowest.depth() <= trivial.depth());
    assert_eq!(google.depth(), 4);
    assert_eq!(lowest.depth(), 8);
}

/// The IBM-style BB schedule and the general machinery handle a non-CSS code
/// end to end.
#[test]
fn non_css_codes_run_end_to_end() {
    let code = xzzx_code(3);
    let schedule = LowestDepthScheduler::new().schedule(&code).unwrap();
    let factory = factory_for(RecommendedDecoder::BpOsd);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let (estimate, _) = estimate_logical_error(
        &code,
        &schedule,
        &NoiseModel::paper(),
        factory.as_ref(),
        4000,
        &EstimateOptions::default(),
        &mut rng,
    )
    .unwrap();
    assert!(estimate.p_overall() < 0.5);

    assert!(ibm_bb_schedule(&code).is_err(), "the IBM schedule requires a CSS code");
}

/// Decoded logical error rates must decrease when the physical error rate
/// decreases (basic monotonicity of the whole pipeline).
#[test]
fn logical_error_rate_is_monotone_in_physical_noise() {
    let code = steane_code();
    let schedule = LowestDepthScheduler::new().schedule(&code).unwrap();
    let factory = factory_for(RecommendedDecoder::BpOsd);
    let options = EstimateOptions::default();
    let mut previous = f64::MAX;
    for p in [3e-2, 1e-2, 3e-3] {
        let noise = NoiseModel::uniform(p, p, p);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let (estimate, _) = estimate_logical_error(
            &code,
            &schedule,
            &noise,
            factory.as_ref(),
            6000,
            &options,
            &mut rng,
        )
        .unwrap();
        assert!(
            estimate.p_overall() <= previous,
            "p_overall should not increase as p decreases (p={p}): {} > {previous}",
            estimate.p_overall()
        );
        previous = estimate.p_overall();
    }
}
