//! End-to-end decoder sanity checks: every decoder, run inside the paper's
//! Fig. 10 evaluation loop on real codes, must (a) beat the trivial
//! "predict nothing" decoder and (b) reach small logical error rates at low
//! physical noise.

use asynd_circuit::{
    estimate_logical_error, DecoderFactory, DetectorErrorModel, EstimateOptions, NoiseModel,
    ObservableDecoder, Schedule,
};
use asynd_codes::{rotated_surface_code, steane_code, toric_code};
use asynd_decode::{BpOsdFactory, MwpmFactory, UnionFindFactory};
use asynd_pauli::BitVec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Decoder that never predicts an observable flip (baseline).
struct NullDecoder(usize);

impl ObservableDecoder for NullDecoder {
    fn decode(&self, _detectors: &BitVec) -> BitVec {
        BitVec::zeros(self.0)
    }
}

struct NullFactory;

impl DecoderFactory for NullFactory {
    fn name(&self) -> &str {
        "null"
    }
    fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
        Box::new(NullDecoder(dem.num_observables()))
    }
}

fn run(
    code: &asynd_codes::StabilizerCode,
    factory: &dyn DecoderFactory,
    noise: &NoiseModel,
    shots: usize,
    seed: u64,
) -> f64 {
    let schedule = Schedule::trivial(code);
    schedule.validate(code).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let options = EstimateOptions::default();
    let (estimate, _) =
        estimate_logical_error(code, &schedule, noise, factory, shots, &options, &mut rng).unwrap();
    estimate.p_overall()
}

#[test]
fn mwpm_beats_null_on_surface_code() {
    let code = rotated_surface_code(3);
    let noise = NoiseModel::brisbane();
    let with_decoder = run(&code, &MwpmFactory::new(), &noise, 2000, 11);
    let without = run(&code, &NullFactory, &noise, 2000, 11);
    assert!(
        with_decoder < without * 0.7,
        "MWPM ({with_decoder}) must clearly beat the null decoder ({without})"
    );
    assert!(with_decoder < 0.2, "MWPM logical error rate unexpectedly high: {with_decoder}");
}

#[test]
fn mwpm_error_rate_drops_with_physical_error_rate() {
    let code = rotated_surface_code(3);
    let high = run(&code, &MwpmFactory::new(), &NoiseModel::scaled(1e-2), 2000, 5);
    let low = run(&code, &MwpmFactory::new(), &NoiseModel::scaled(1e-3), 2000, 5);
    assert!(low < high, "logical error rate must fall with physical error rate: {low} !< {high}");
    assert!(low < 0.05, "low-noise logical error rate unexpectedly high: {low}");
}

#[test]
fn bposd_beats_null_on_steane_code() {
    let code = steane_code();
    let noise = NoiseModel::brisbane();
    let with_decoder = run(&code, &BpOsdFactory::new(), &noise, 2000, 7);
    let without = run(&code, &NullFactory, &noise, 2000, 7);
    assert!(
        with_decoder < without * 0.8,
        "BP-OSD ({with_decoder}) must beat the null decoder ({without})"
    );
}

#[test]
fn unionfind_beats_null_on_steane_code() {
    let code = steane_code();
    let noise = NoiseModel::brisbane();
    let with_decoder = run(&code, &UnionFindFactory::new(), &noise, 2000, 13);
    let without = run(&code, &NullFactory, &noise, 2000, 13);
    assert!(
        with_decoder < without,
        "union-find ({with_decoder}) must beat the null decoder ({without})"
    );
}

#[test]
fn mwpm_handles_multi_logical_toric_code() {
    let code = toric_code(3);
    let noise = NoiseModel::scaled(2e-3);
    let p = run(&code, &MwpmFactory::new(), &noise, 1000, 3);
    assert!(p < 0.25, "toric-code logical error rate unexpectedly high: {p}");
}

#[test]
fn bposd_handles_low_noise_cleanly() {
    let code = steane_code();
    let p = run(&code, &BpOsdFactory::new(), &NoiseModel::scaled(1e-4), 2000, 17);
    assert!(p < 0.01, "BP-OSD at p=1e-4 should give a tiny logical error rate, got {p}");
}
