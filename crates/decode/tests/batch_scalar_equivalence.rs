//! Batch-vs-scalar equivalence fuzzing.
//!
//! The word-parallel `decode_batch` paths (zero-/single-defect bulk
//! serving, lane-batched BP, cache-hit scans) must be bit-identical to the
//! scalar `ObservableDecoder::decode` oracle for every decoder in the
//! crate. This suite fuzzes that contract across random detector error
//! models and shot counts straddling the 64-shot word boundary, random
//! models whose mechanisms share one probability (so BP message
//! magnitudes tie at every iteration), real catalog colour-code models
//! whose detector rows reach ~80 mechanisms, and catalog surface, xzzx and
//! hypergraph-product models for the MWPM and union-find residual paths.

use asynd_circuit::{DemError, DetectorErrorModel, NoiseModel};
use asynd_codes::catalog::family_by_name;
use asynd_core::{LowestDepthScheduler, Scheduler};
use asynd_decode::{BpOsdDecoder, CachedDecoder, MwpmDecoder, UnionFindDecoder};
use asynd_sim::{BatchDecoder, BatchSampler};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random DEM with `num_detectors` detectors and `num_observables`
/// observables: each mechanism touches 1–3 distinct detectors and flips an
/// arbitrary subset of observables, with probabilities high enough that
/// sampled batches exercise single- and multi-defect shots. With
/// `shared_probability` every mechanism gets that one probability.
fn random_dem(
    num_detectors: usize,
    num_observables: usize,
    seed: u64,
    shared_probability: Option<f64>,
) -> DetectorErrorModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let num_errors = rng.gen_range(1..3 * num_detectors + 2);
    let errors = (0..num_errors)
        .map(|_| {
            let weight = rng.gen_range(1..4usize).min(num_detectors);
            let mut detectors: Vec<usize> =
                (0..weight).map(|_| rng.gen_range(0..num_detectors)).collect();
            detectors.sort_unstable();
            detectors.dedup();
            let observables: Vec<usize> =
                (0..num_observables).filter(|_| rng.gen_range(0..2u32) == 1).collect();
            let probability = shared_probability
                .unwrap_or_else(|| 0.02 + 0.2 * (rng.gen_range(0..1000u32) as f64 / 1000.0));
            DemError { probability, detectors, observables }
        })
        .collect();
    DetectorErrorModel::from_parts(num_detectors, num_observables, errors)
}

/// Shot counts pinned to the word-boundary edge cases plus arbitrary sizes.
fn arb_shots() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(63usize), Just(64usize), Just(65usize), 2usize..130]
}

fn assert_batch_matches_scalar(
    decoder: &dyn BatchDecoder,
    dem: &DetectorErrorModel,
    shots: usize,
    seed: u64,
) {
    let model = dem.to_frame_model();
    let sampler = BatchSampler::new(&model);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let batch = sampler.sample(shots, &mut rng);
    let predictions = decoder.decode_batch(&batch);
    assert_eq!(predictions.rows(), dem.num_observables());
    assert_eq!(predictions.cols(), shots);
    for s in 0..shots {
        let scalar = decoder.decode_shot(&batch.shot_detectors(s));
        assert_eq!(predictions.column(s), scalar, "shot {s} diverges from the scalar oracle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mwpm_batch_matches_scalar(nd in 1usize..12, no in 1usize..4, dem_seed in any::<u64>(),
                                 shots in arb_shots(), shot_seed in any::<u64>()) {
        let dem = random_dem(nd, no, dem_seed, None);
        assert_batch_matches_scalar(&MwpmDecoder::new(&dem), &dem, shots, shot_seed);
    }

    #[test]
    fn unionfind_batch_matches_scalar(nd in 1usize..12, no in 1usize..4, dem_seed in any::<u64>(),
                                      shots in arb_shots(), shot_seed in any::<u64>()) {
        let dem = random_dem(nd, no, dem_seed, None);
        assert_batch_matches_scalar(&UnionFindDecoder::new(&dem), &dem, shots, shot_seed);
    }

    #[test]
    fn bposd_batch_matches_scalar(nd in 1usize..12, no in 1usize..4, dem_seed in any::<u64>(),
                                  tied in any::<bool>(), shots in arb_shots(),
                                  shot_seed in any::<u64>()) {
        // The lane-batched BP message pass must replay the scalar
        // floating-point schedule exactly, so equality here is bit-level,
        // not approximate. With `tied`, every mechanism shares one prior:
        // message magnitudes start tied and ties at the row minimum
        // persist through the iterations.
        let dem = random_dem(nd, no, dem_seed, tied.then_some(0.1));
        assert_batch_matches_scalar(&BpOsdDecoder::new(&dem, 10, 0), &dem, shots, shot_seed);
    }

    #[test]
    fn cached_batch_matches_scalar(nd in 1usize..12, no in 1usize..4, dem_seed in any::<u64>(),
                                   shots in arb_shots(), shot_seed in any::<u64>()) {
        let dem = random_dem(nd, no, dem_seed, None);
        let cached = CachedDecoder::new(UnionFindDecoder::new(&dem));
        assert_batch_matches_scalar(&cached, &dem, shots, shot_seed);
        // A second pass over the same batch is served from a warm cache and
        // must still agree.
        assert_batch_matches_scalar(&cached, &dem, shots, shot_seed);
    }
}

/// Lane-batched BP-OSD against the scalar oracle on the catalog colour
/// codes the sweep decodes with BP-OSD: index 0 and 1 of both colour
/// families, lowest-depth schedule, at a low and a high physical rate.
/// Their detector rows are up to 81 mechanisms wide, so the two-min
/// check-node update's argmin/runner-up split is exercised far beyond the
/// random models' row widths.
#[test]
fn bposd_batch_matches_scalar_on_catalog_colour_codes() {
    for family in ["hexagonal-color", "square-octagonal-color"] {
        let entries = family_by_name(family).expect("catalog family");
        for entry in &entries[..2] {
            let schedule = LowestDepthScheduler::new().schedule(&entry.code).unwrap();
            for (seed, p) in [(11, 1e-3), (12, 7.4e-3)] {
                let dem = DetectorErrorModel::build(&entry.code, &schedule, &NoiseModel::scaled(p))
                    .unwrap();
                let decoder = BpOsdDecoder::new(&dem, 30, 0);
                assert_batch_matches_scalar(&decoder, &dem, 130, seed);
            }
        }
    }
}

/// MWPM's per-call shortest-path table and union-find's cluster solver
/// against the scalar oracle on catalog models, where the random models'
/// twelve detectors are far exceeded: MWPM on rotated-surface d=5 and
/// defect-surface [[25,2,4]], union-find on xzzx d=5 and hgp [[27,4,3]],
/// lowest-depth schedule, at a low and a high physical rate. The high rate
/// gives most shots several defects, so the shared MWPM rows serve many
/// hard shots of one call.
#[test]
fn matching_family_batch_matches_scalar_on_catalog_codes() {
    type Build = fn(&DetectorErrorModel) -> Box<dyn BatchDecoder>;
    let mwpm: Build = |dem| Box::new(MwpmDecoder::new(dem));
    let unionfind: Build = |dem| Box::new(UnionFindDecoder::new(dem));
    for (family, index, build) in [
        ("rotated-surface", 1, mwpm),
        ("defect-surface", 0, mwpm),
        ("xzzx", 1, unionfind),
        ("hgp", 0, unionfind),
    ] {
        let code = &family_by_name(family).expect("catalog family")[index].code;
        let schedule = LowestDepthScheduler::new().schedule(code).unwrap();
        for (seed, p) in [(21, 1e-3), (22, 7.4e-3)] {
            let dem = DetectorErrorModel::build(code, &schedule, &NoiseModel::scaled(p)).unwrap();
            assert_batch_matches_scalar(build(&dem).as_ref(), &dem, 130, seed);
        }
    }
}
