//! Word-parallel batch decoding: every decoder in this crate implements
//! [`asynd_sim::BatchDecoder`] with a genuinely batched `decode_batch`, so
//! it plugs directly into the bit-packed evaluation pipeline
//! (`BatchSampler` → `decode_batch` → word-parallel scoring in the
//! `ParallelEstimator`) *and* exploits the packed layout instead of
//! unpacking one shot at a time.
//!
//! # Which decoder takes which path
//!
//! Every batch starts in the shared word-parallel engine
//! ([`word_parallel_batch`]), which classifies all 64 shots of each word
//! with three word ops per detector row:
//!
//! 1. **Zero-defect shots** cost nothing: the prediction matrix starts
//!    zeroed and every decoder maps the empty syndrome to the empty
//!    prediction (a [`ResidualDecoder`] contract).
//! 2. **Single-defect shots** are served from a per-call lookup table: the
//!    scalar decoder runs once per *distinct* firing detector (the one-hot
//!    syndrome is bit-identical to the shot's syndrome), and the cached
//!    prediction is XOR-accumulated into up to 64 shots per word op.
//! 3. **Multi-defect ("hard") shots** fall back to the decoder-specific
//!    *residual* path below. The shot-major matrix is transposed once with
//!    the blocked [`BitMatrix::transpose`] kernel, so each hard shot's
//!    syndrome is a zero-copy word slice, not a bit gather.
//!
//! Residual paths:
//!
//! | Decoder | Residual path | Scalar fallback triggers |
//! |---|---|---|
//! | [`MwpmDecoder`] | per-shot matching over one per-call table of Dijkstra rows, each source's row computed on first use and shared by all hard shots of the call (see `mwpm.rs`) | none: matching is per-shot, but no row is computed twice |
//! | [`UnionFindDecoder`] | scalar loop over hard shots (the default) | every multi-defect shot: cluster growth is per-shot; each cluster solve is one elimination of `[A \| b]` in the crate's shared GF(2) kernel plus one refinement loop, on buffers reused across the decode (see `unionfind.rs`) |
//! | [`BpOsdDecoder`] | lane-batched BP message pass: 64 shots per message word (see `bposd.rs`) | OSD post-processing of the shots whose BP did not converge: one elimination in the same GF(2) kernel per shot, on one scratch reused across the call, OSD-CS candidates taken from its kernel vectors |
//! | [`CachedDecoder<D>`] | cache-hit scan, then the inner decoder's residual path on distinct misses | cache misses only |
//!
//! The scalar [`ObservableDecoder::decode`] entry points are untouched and
//! serve as the cross-check oracle: `decode_batch` is bit-identical to
//! decoding each `shot_detectors(s)` column in a loop (asserted by the
//! tests here and fuzzed in `tests/batch_scalar_equivalence.rs`).

use asynd_circuit::ObservableDecoder;
use asynd_pauli::BitVec;
use asynd_sim::{BatchDecoder, BatchShots, BitMatrix, WORD_BITS};

use crate::{BpOsdDecoder, CachedDecoder, MwpmDecoder, UnionFindDecoder};

/// The residual (hard-shot) half of the word-parallel batch contract.
///
/// Implementors must uphold two invariants the batch engine relies on:
/// the all-zero syndrome decodes to the all-zero prediction, and
/// [`decode_residual`](Self::decode_residual) writes exactly what the
/// scalar [`ObservableDecoder::decode`] would produce for each listed
/// shot (the default implementation *is* that scalar loop; overrides —
/// BP-OSD's lane-batched message pass, MWPM's shared Dijkstra rows — must
/// preserve bit-identity).
pub trait ResidualDecoder: ObservableDecoder {
    /// Decodes the hard shots `shot_indices` of a transposed
    /// (shot-major-rows) detector matrix into `predictions` columns.
    ///
    /// `transposed` has one row per shot and one bit-column per detector,
    /// so `transposed.row_words(s)` is the packed syndrome of shot `s` —
    /// the same word layout a detector-length [`BitVec`] uses.
    fn decode_residual(
        &self,
        transposed: &BitMatrix,
        shot_indices: &[usize],
        predictions: &mut BitMatrix,
    ) {
        for &s in shot_indices {
            let syndrome = BitVec::from_words(transposed.row_words(s).to_vec(), transposed.cols());
            let prediction = self.decode(&syndrome);
            for o in prediction.ones() {
                predictions.set(o, s, true);
            }
        }
    }
}

impl ResidualDecoder for UnionFindDecoder {}
// The MWPM and BP-OSD overrides live in `mwpm.rs` and `bposd.rs`.

/// The shared word-parallel engine: pre-screens every shot word, serves
/// zero- and single-defect shots in bulk, and hands the residual hard
/// shots (as indices into a lazily transposed detector matrix) to
/// `residual`.
fn word_parallel_batch<D>(
    decoder: &D,
    shots: &BatchShots,
    residual: impl FnOnce(&BitMatrix, &[usize], &mut BitMatrix),
) -> BitMatrix
where
    D: ObservableDecoder + ?Sized,
{
    let detectors = &shots.detectors;
    let num_detectors = detectors.rows();
    let num_shots = shots.num_shots();
    let num_observables = shots.observables.rows();
    let mut predictions = BitMatrix::zeros(num_observables, num_shots);
    if num_shots == 0 {
        return predictions;
    }
    let words = detectors.words_per_row();
    // One-hot lookup table, filled on demand: a single-defect shot's
    // syndrome IS the one-hot vector of its firing detector, so the scalar
    // decoder runs at most once per distinct detector per call.
    let mut one_hot: Vec<Option<BitVec>> = vec![None; num_detectors];
    let mut hard_shots = Vec::new();
    for w in 0..words {
        let valid = if w + 1 == words { detectors.tail_mask() } else { u64::MAX };
        // Saturating per-shot defect counter in two bit-planes: `any` is
        // "≥1 defect", `multi` is "≥2 defects", maintained with two word
        // ops per detector row.
        let mut any = 0u64;
        let mut multi = 0u64;
        for r in 0..num_detectors {
            let row = detectors.row_words(r)[w];
            multi |= any & row;
            any |= row;
        }
        let single = any & !multi & valid;
        if single != 0 {
            for (r, slot) in one_hot.iter_mut().enumerate() {
                let mask = single & detectors.row_words(r)[w];
                if mask == 0 {
                    continue;
                }
                let prediction = slot.get_or_insert_with(|| {
                    decoder.decode(&BitVec::from_indices(num_detectors, &[r]))
                });
                for o in prediction.ones() {
                    predictions.xor_row_word(o, w, mask);
                }
            }
        }
        let mut hard = multi & valid;
        while hard != 0 {
            hard_shots.push(w * WORD_BITS + hard.trailing_zeros() as usize);
            hard &= hard - 1;
        }
    }
    if !hard_shots.is_empty() {
        // One blocked transpose buys zero-copy syndrome words for every
        // hard shot; zero-/single-defect shots never pay for it.
        let transposed = detectors.transpose();
        residual(&transposed, &hard_shots, &mut predictions);
    }
    predictions
}

macro_rules! impl_word_parallel_batch {
    ($($decoder:ty),* $(,)?) => {$(
        impl BatchDecoder for $decoder {
            fn decode_shot(&self, detectors: &BitVec) -> BitVec {
                ObservableDecoder::decode(self, detectors)
            }

            fn decode_batch(&self, shots: &BatchShots) -> BitMatrix {
                word_parallel_batch(self, shots, |transposed, hard, predictions| {
                    self.decode_residual(transposed, hard, predictions);
                })
            }
        }
    )*};
}

impl_word_parallel_batch!(MwpmDecoder, UnionFindDecoder, BpOsdDecoder);

impl<D: ResidualDecoder> BatchDecoder for CachedDecoder<D> {
    fn decode_shot(&self, detectors: &BitVec) -> BitVec {
        ObservableDecoder::decode(self, detectors)
    }

    fn decode_batch(&self, shots: &BatchShots) -> BitMatrix {
        word_parallel_batch(self, shots, |transposed, hard, predictions| {
            // Serve repeats from the memo cache, decode each distinct miss
            // once, and backfill both the duplicate shots and the cache.
            // Keys match the scalar path exactly: a transposed shot row
            // has the same packed words as `BitVec::words()`.
            let mut misses: Vec<usize> = Vec::new();
            let mut duplicate_of: Vec<(usize, usize)> = Vec::new();
            {
                let cache = self.cache.lock().expect("decoder cache poisoned");
                let mut pending: std::collections::HashMap<&[u64], usize> =
                    std::collections::HashMap::new();
                for &s in hard {
                    let key = transposed.row_words(s);
                    if let Some(hit) = cache.get(key) {
                        for o in hit.ones() {
                            predictions.set(o, s, true);
                        }
                    } else if let Some(&first) = pending.get(key) {
                        duplicate_of.push((s, first));
                    } else {
                        pending.insert(key, s);
                        misses.push(s);
                    }
                }
            }
            if !misses.is_empty() {
                self.inner.decode_residual(transposed, &misses, predictions);
                let mut cache = self.cache.lock().expect("decoder cache poisoned");
                for &s in &misses {
                    cache.insert(transposed.row_words(s).to_vec(), predictions.column(s));
                }
            }
            for (s, first) in duplicate_of {
                for o in predictions.column(first).ones() {
                    predictions.set(o, s, true);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_circuit::{DemError, DetectorErrorModel};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_dem() -> DetectorErrorModel {
        DetectorErrorModel::from_parts(
            3,
            2,
            vec![
                DemError { probability: 0.05, detectors: vec![0], observables: vec![0] },
                DemError { probability: 0.08, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.03, detectors: vec![1, 2], observables: vec![1] },
            ],
        )
    }

    #[test]
    fn batch_decoding_matches_scalar_decoding() {
        let dem = toy_dem();
        let model = dem.to_frame_model();
        let sampler = asynd_sim::BatchSampler::new(&model);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let batch = sampler.sample(200, &mut rng);

        let decoders: Vec<Box<dyn BatchDecoder>> = vec![
            Box::new(MwpmDecoder::new(&dem)),
            Box::new(UnionFindDecoder::new(&dem)),
            Box::new(BpOsdDecoder::new(&dem, 10, 0)),
            Box::new(CachedDecoder::new(UnionFindDecoder::new(&dem))),
        ];
        for decoder in &decoders {
            let predictions = decoder.decode_batch(&batch);
            assert_eq!(predictions.rows(), dem.num_observables());
            assert_eq!(predictions.cols(), 200);
            for s in 0..200 {
                let scalar = decoder.decode_shot(&batch.shot_detectors(s));
                assert_eq!(predictions.column(s), scalar, "shot {s}");
            }
        }
    }

    #[test]
    fn all_shot_classes_route_correctly() {
        // Hand-built batch with exactly one zero-defect, one single-defect
        // and one multi-defect shot — the three engine paths.
        let dem = toy_dem();
        let model = dem.to_frame_model();
        let mut detectors = BitMatrix::zeros(3, 3);
        detectors.set(0, 1, true); // shot 1: detector 0 only (single)
        detectors.set(0, 2, true); // shot 2: detectors 0 and 1 (hard)
        detectors.set(1, 2, true);
        let batch = BatchShots { detectors, observables: BitMatrix::zeros(2, 3) };
        let _ = model;
        let decoder = MwpmDecoder::new(&dem);
        let predictions = decoder.decode_batch(&batch);
        for s in 0..3 {
            assert_eq!(
                predictions.column(s),
                decoder.decode_shot(&batch.shot_detectors(s)),
                "shot {s}"
            );
        }
        assert!(!predictions.column(0).any(), "quiet shot must predict nothing");
    }

    #[test]
    fn cached_decoder_is_batch_capable() {
        let dem = toy_dem();
        let cached = CachedDecoder::new(MwpmDecoder::new(&dem));
        let model = dem.to_frame_model();
        let sampler = asynd_sim::BatchSampler::new(&model);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let batch = sampler.sample(100, &mut rng);
        let predictions = BatchDecoder::decode_batch(&cached, &batch);
        assert_eq!(predictions.cols(), 100);
        for s in 0..100 {
            let scalar = BatchDecoder::decode_shot(&cached, &batch.shot_detectors(s));
            assert_eq!(predictions.column(s), scalar, "shot {s}");
        }
    }
}
