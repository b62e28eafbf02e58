//! Belief-propagation + ordered-statistics decoding (BP-OSD).

use asynd_circuit::{DecoderFactory, DetectorErrorModel, ObservableDecoder};
use asynd_pauli::BitVec;

use crate::common::{ones, CachedDecoder, DecodeMatrix, Gf2System, WORD};

/// BP-OSD decoder over a detector error model.
///
/// The decoder runs normalized min-sum belief propagation on the DEM's
/// Tanner graph (checks = detectors, variables = error mechanisms) with the
/// mechanisms' prior log-likelihood ratios. If the hard decision after any
/// iteration reproduces the observed syndrome, it is accepted; otherwise the
/// ordered-statistics stage (OSD) sorts the mechanisms by posterior, most
/// likely first, and solves for the most likely consistent error with one
/// elimination in the crate's GF(2) kernel (the one union-find's cluster
/// solves use). `osd_order > 0` adds an exhaustive search over flips of
/// the first `osd_order` non-pivot (free) columns in that order — the most
/// likely mechanisms outside the information set (OSD-CS), as in the
/// `ldpc` package the paper uses — each candidate being the OSD-0 solution
/// XOR a combination of those columns' kernel vectors.
///
/// # Example
///
/// ```
/// use asynd_codes::steane_code;
/// use asynd_circuit::{DetectorErrorModel, NoiseModel, ObservableDecoder, Schedule};
/// use asynd_decode::BpOsdDecoder;
/// use asynd_pauli::BitVec;
///
/// let code = steane_code();
/// let schedule = Schedule::trivial(&code);
/// let dem = DetectorErrorModel::build(&code, &schedule, &NoiseModel::brisbane()).unwrap();
/// let decoder = BpOsdDecoder::new(&dem, 30, 0);
/// assert!(!decoder.decode(&BitVec::zeros(dem.num_detectors())).any());
/// ```
pub struct BpOsdDecoder {
    matrix: DecodeMatrix,
    max_iterations: usize,
    osd_order: usize,
    /// Normalisation factor of the min-sum update.
    scale: f64,
}

/// Largest OSD-CS order: the sweep tries `2^osd_order` combinations.
const MAX_OSD_ORDER: usize = 10;

impl BpOsdDecoder {
    /// Builds the decoder. `osd_order` is clamped to 10: OSD-CS tries all
    /// `2^osd_order` flip combinations.
    ///
    /// # Panics
    ///
    /// Panics if the DEM has more than 64 observables.
    pub fn new(dem: &DetectorErrorModel, max_iterations: usize, osd_order: usize) -> Self {
        let matrix = DecodeMatrix::new(dem).expect("observable count exceeds decoder support");
        let osd_order = osd_order.min(MAX_OSD_ORDER);
        BpOsdDecoder { matrix, max_iterations, osd_order, scale: 0.75 }
    }

    /// Runs min-sum BP; returns the per-mechanism posterior LLRs and the
    /// hard-decision error set if BP converged to the syndrome.
    fn belief_propagation(&self, syndrome: &BitVec) -> (Vec<f64>, Option<Vec<usize>>) {
        let m = &self.matrix;
        let num_errors = m.num_errors();
        let priors: Vec<f64> = (0..num_errors).map(|j| m.prior_llr(j)).collect();
        if num_errors == 0 {
            return (priors, Some(Vec::new()));
        }
        let mut var_to_check: Vec<f64> = m.edge_errors().iter().map(|&j| priors[j]).collect();
        let mut check_to_var = vec![0.0; var_to_check.len()];
        let mut posteriors = priors.clone();

        for _ in 0..self.max_iterations {
            self.iterate(
                syndrome.words(),
                &priors,
                &mut var_to_check,
                &mut check_to_var,
                &mut posteriors,
            );
            // Hard decision.
            let decision: Vec<usize> = (0..num_errors).filter(|&j| posteriors[j] < 0.0).collect();
            if self.matrix.syndrome_of(&decision) == *syndrome {
                return (posteriors, Some(decision));
            }
        }
        (posteriors, None)
    }

    /// One normalized min-sum iteration of one shot, whose packed syndrome
    /// words are `syndrome`: the [`check_row`] update of every detector
    /// row, then the variable update. Messages are indexed by Tanner-graph
    /// edge ([`DecodeMatrix::edges`]), posteriors by mechanism.
    fn iterate(
        &self,
        syndrome: &[u64],
        priors: &[f64],
        var_to_check: &mut [f64],
        check_to_var: &mut [f64],
        posteriors: &mut [f64],
    ) {
        let m = &self.matrix;
        for d in 0..m.num_detectors() {
            let edges = m.edges(d);
            let fired = (syndrome[d / 64] >> (d % 64)) & 1 == 1;
            check_row(&var_to_check[edges.clone()], &mut check_to_var[edges], fired, self.scale);
        }
        posteriors.fill(0.0);
        for (&j, &msg) in m.edge_errors().iter().zip(check_to_var.iter()) {
            posteriors[j] += msg;
        }
        for (p, &prior) in posteriors.iter_mut().zip(priors) {
            *p += prior;
        }
        let edges = var_to_check.iter_mut().zip(check_to_var.iter()).zip(m.edge_errors());
        for ((v2c, &c2v), &j) in edges {
            *v2c = posteriors[j] - c2v;
        }
    }

    /// Ordered-statistics post-processing: the most reliable error set
    /// consistent with the syndrome whose packed words are `syndrome`, or
    /// nothing if the syndrome is not reproducible.
    ///
    /// One [`Gf2System`] elimination with the columns sorted by posterior
    /// gives the OSD-0 solution. OSD-CS candidates are that solution XOR a
    /// combination of the kernel vectors of the first `osd_order` free
    /// columns, which is what re-solving with those columns forced to 1
    /// gives, because the reduced form of a fixed column order is unique.
    fn osd(&self, syndrome: &[u64], posteriors: &[f64], s: &mut OsdScratch) -> Vec<usize> {
        let m = &self.matrix;
        let num_errors = m.num_errors();
        if num_errors == 0 {
            return Vec::new();
        }
        // Rank columns: most likely to have fired first (lowest LLR), so
        // they are preferred as pivots.
        s.order.clear();
        s.order.extend(0..num_errors);
        s.order.sort_by(|&a, &b| {
            posteriors[a].partial_cmp(&posteriors[b]).unwrap_or(std::cmp::Ordering::Equal)
        });
        s.system.reset(m.num_detectors(), num_errors);
        for (pos, &j) in s.order.iter().enumerate() {
            for &d in m.column(j) {
                s.system.set(d, pos);
            }
        }
        for d in ones(syndrome).take_while(|&d| d < m.num_detectors()) {
            s.system.set(d, num_errors);
        }
        // A syndrome outside the column space (not DEM-generated) gets
        // the empty guess.
        if !s.system.eliminate() {
            return Vec::new();
        }
        let flippable = s.system.solve(self.osd_order, &mut s.particular, &mut s.kernel, |p| p);
        let pivots = &s.system.pivots;
        let mut rest = pivots.iter().peekable();
        let free: Vec<usize> =
            (0..num_errors).filter(|p| rest.next_if_eq(&p).is_none()).take(flippable).collect();
        // Candidate `bits` flips the free positions of its set bits; its
        // mechanisms are those, then the pivots it sets, each ascending,
        // and its cost sums them in that order.
        let words = num_errors.div_ceil(WORD);
        let chosen = |bits: usize| -> Vec<usize> {
            let flipped = (0..free.len()).filter(|k| bits & (1 << k) != 0);
            let mut solution = s.particular.clone();
            for k in flipped.clone() {
                let vector = &s.kernel[k * words..(k + 1) * words];
                solution.iter_mut().zip(vector).for_each(|(x, v)| *x ^= v);
            }
            let set = pivots.iter().filter(|&&p| solution[p / WORD] >> (p % WORD) & 1 == 1);
            flipped.map(|k| free[k]).chain(set.copied()).collect()
        };
        let cost =
            |bits| -> f64 { chosen(bits).iter().map(|&c| posteriors[s.order[c]].max(-30.0)).sum() };
        // Strict `<` keeps the earliest candidate on ties.
        let mut best = (0, cost(0));
        for bits in 1..1usize << free.len() {
            let c = cost(bits);
            if c < best.1 {
                best = (bits, c);
            }
        }
        chosen(best.0).into_iter().map(|c| s.order[c]).collect()
    }
}

/// Buffers of the OSD stage, reused by every OSD call of one decode.
#[derive(Debug, Default)]
struct OsdScratch {
    /// Mechanism at every system position, most likely first.
    order: Vec<usize>,
    /// The augmented system over all detectors and mechanisms.
    system: Gf2System,
    /// The OSD-0 solution over system positions.
    particular: Vec<u64>,
    /// Kernel vectors of the flippable free positions.
    kernel: Vec<u64>,
}

impl ObservableDecoder for BpOsdDecoder {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        if !detectors.any() {
            return BitVec::zeros(self.matrix.num_observables());
        }
        let (posteriors, converged) = self.belief_propagation(detectors);
        let errors = match converged {
            Some(errors) => errors,
            None => self.osd(detectors.words(), &posteriors, &mut OsdScratch::default()),
        };
        let mask = self.matrix.observables_of(&errors);
        self.matrix.mask_to_bitvec(mask)
    }
}

impl crate::batch::ResidualDecoder for BpOsdDecoder {
    /// Lane-batched min-sum BP: up to 64 hard shots run as the lanes of
    /// one group, iterated in lock step and checked for convergence 64
    /// lanes per word op.
    ///
    /// Each lane's messages and posteriors are one contiguous slice of flat
    /// buffers allocated once per call and reused by every 64-shot group.
    /// A lane iterates with the scalar pass's own `iterate`, whose
    /// check-node update is the two-min row kernel: one pass per detector
    /// row keeps the two smallest magnitudes, the argmin and the sign
    /// parity; then the argmin edge gets the runner-up, every other edge
    /// the minimum — O(deg) per row instead of O(deg²). Results are
    /// bit-identical to the naive update and to the scalar oracle, because
    /// min, |·| and XOR parity are exact and order-free and every other
    /// floating-point operation runs in the scalar pass's order.
    ///
    /// A lane that converges is recorded immediately — exactly where the
    /// scalar loop would have returned — and is skipped by every later
    /// iteration, so the per-iteration cost follows the unconverged shots.
    /// Lanes that exhaust the iteration budget fall back to the scalar OSD
    /// stage with their posteriors and packed syndrome words, sharing one
    /// OSD scratch across the call.
    fn decode_residual(
        &self,
        transposed: &asynd_sim::BitMatrix,
        shot_indices: &[usize],
        predictions: &mut asynd_sim::BitMatrix,
    ) {
        const LANES: usize = 64;
        let m = &self.matrix;
        let num_errors = m.num_errors();
        if num_errors == 0 {
            // The scalar path converges immediately to the empty error
            // set; the prediction rows stay zero.
            return;
        }
        let priors: Vec<f64> = (0..num_errors).map(|j| m.prior_llr(j)).collect();
        let record = |predictions: &mut asynd_sim::BitMatrix, shot: usize, obs_mask: u64| {
            for o in 0..m.num_observables() {
                if (obs_mask >> o) & 1 == 1 {
                    predictions.set(o, shot, true);
                }
            }
        };
        // Lane `l` owns `var_to_check[l * num_edges..][..num_edges]` (and
        // the same range of `check_to_var`) and
        // `posteriors[l * num_errors..][..num_errors]`.
        let edge_errors = m.edge_errors();
        let num_edges = edge_errors.len();
        let mut var_to_check = vec![0.0f64; LANES * num_edges];
        let mut check_to_var = vec![0.0f64; LANES * num_edges];
        let mut posteriors = vec![0.0f64; LANES * num_errors];
        let mut det_mask = vec![0u64; m.num_detectors()];
        let mut decided = vec![0u64; num_errors];
        let mut osd = OsdScratch::default();
        for group in shot_indices.chunks(LANES) {
            let lane_all: u64 =
                if group.len() == LANES { u64::MAX } else { (1u64 << group.len()) - 1 };
            // Per-detector lane mask of the group's syndromes: bit `l` of
            // `det_mask[d]` is detector d of lane l's shot.
            det_mask.fill(0);
            for (lane, &s) in group.iter().enumerate() {
                let words = transposed.row_words(s);
                for (d, mask) in det_mask.iter_mut().enumerate() {
                    if (words[d / 64] >> (d % 64)) & 1 == 1 {
                        *mask |= 1 << lane;
                    }
                }
                let v2c = &mut var_to_check[lane * num_edges..(lane + 1) * num_edges];
                for (v, &j) in v2c.iter_mut().zip(edge_errors) {
                    *v = priors[j];
                }
                posteriors[lane * num_errors..(lane + 1) * num_errors].copy_from_slice(&priors);
            }
            decided.fill(0);
            let mut active = lane_all;
            // Lanes still iterating; converged lanes are frozen.
            let mut live: Vec<usize> = (0..group.len()).collect();

            for _ in 0..self.max_iterations {
                for &l in &live {
                    let post = &mut posteriors[l * num_errors..(l + 1) * num_errors];
                    self.iterate(
                        transposed.row_words(group[l]),
                        &priors,
                        &mut var_to_check[l * num_edges..(l + 1) * num_edges],
                        &mut check_to_var[l * num_edges..(l + 1) * num_edges],
                        post,
                    );
                    // Hard decision, packed as lane bits per mechanism.
                    for (mask, &p) in decided.iter_mut().zip(post.iter()) {
                        if p < 0.0 {
                            *mask |= 1 << l;
                        } else {
                            *mask &= !(1 << l);
                        }
                    }
                }
                // Word-parallel convergence check: lane l converged iff
                // its decided errors reproduce its syndrome on every
                // detector. Frozen lanes keep their stale decision bits;
                // `active` masks them out below.
                let mut mismatch = 0u64;
                for (d, &dm) in det_mask.iter().enumerate() {
                    let mut acc = 0u64;
                    for &j in m.row(d) {
                        acc ^= decided[j];
                    }
                    mismatch |= acc ^ dm;
                }
                let newly = active & !mismatch;
                if newly != 0 {
                    let mut bits = newly;
                    while bits != 0 {
                        let lane = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let mut obs_mask = 0u64;
                        for (j, &mask) in decided.iter().enumerate() {
                            if (mask >> lane) & 1 == 1 {
                                obs_mask ^= m.observable_mask(j);
                            }
                        }
                        record(predictions, group[lane], obs_mask);
                    }
                    active &= !newly;
                    live.retain(|&l| (active >> l) & 1 == 1);
                }
                if active == 0 {
                    break;
                }
            }
            // Scalar OSD fallback for the lanes BP never settled, with
            // their last-iteration posteriors — identical inputs to the
            // scalar path's OSD stage.
            let mut bits = active;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = group[lane];
                let lane_posteriors = &posteriors[lane * num_errors..(lane + 1) * num_errors];
                let errors = self.osd(transposed.row_words(s), lane_posteriors, &mut osd);
                record(predictions, s, m.observables_of(&errors));
            }
        }
    }
}

/// Two-min normalized min-sum check-node update of one detector row.
///
/// `incoming` holds the row's variable-to-check messages; `outgoing`
/// receives its check-to-variable messages, and `syndrome` is the
/// detector's bit. One pass over the row keeps the smallest magnitude
/// `min1`, its first index `argmin`, the runner-up `min2` (equal to
/// `min1` on a tie) and the parity of the negative messages. The argmin
/// edge then receives `min2` and every other edge `min1`, an empty "other"
/// set (∞) sends 0, the magnitude is scaled by `scale`, and the sign is
/// the row parity XOR the syndrome bit XOR the edge's own sign.
///
/// This is the textbook O(deg²) update — each edge gets the scaled minimum
/// magnitude and sign product over the other edges of its row — in O(deg),
/// and bit-identical to it: min, |·| and XOR parity are exact and
/// order-free, so nothing depends on how the row is traversed.
fn check_row(incoming: &[f64], outgoing: &mut [f64], syndrome: bool, scale: f64) {
    let mut min1 = f64::INFINITY;
    let mut min2 = f64::INFINITY;
    let mut argmin = 0;
    let mut negative = syndrome;
    for (i, &msg) in incoming.iter().enumerate() {
        negative ^= msg < 0.0;
        let a = msg.abs();
        if a < min1 {
            min2 = min1;
            min1 = a;
            argmin = i;
        } else if a < min2 {
            min2 = a;
        }
    }
    let magnitude = |v: f64| if v.is_infinite() { 0.0 } else { v * scale };
    let (others_min, argmin_min) = (magnitude(min1), magnitude(min2));
    for (i, (out, &msg)) in outgoing.iter_mut().zip(incoming).enumerate() {
        let v = if i == argmin { argmin_min } else { others_min };
        *out = if negative ^ (msg < 0.0) { -v } else { v };
    }
}

/// Factory for [`BpOsdDecoder`] (wrapped in a memoisation cache).
#[derive(Debug, Clone)]
pub struct BpOsdFactory {
    max_iterations: usize,
    osd_order: usize,
}

impl BpOsdFactory {
    /// Creates a factory with the default configuration (30 BP iterations,
    /// OSD order 0), matching the common `ldpc` BP-OSD setup.
    pub fn new() -> Self {
        BpOsdFactory { max_iterations: 30, osd_order: 0 }
    }

    /// Overrides the iteration budget and OSD combination-sweep order;
    /// [`BpOsdDecoder::new`] clamps the order to 10.
    pub fn with_parameters(max_iterations: usize, osd_order: usize) -> Self {
        BpOsdFactory { max_iterations, osd_order }
    }
}

impl Default for BpOsdFactory {
    fn default() -> Self {
        BpOsdFactory::new()
    }
}

impl DecoderFactory for BpOsdFactory {
    fn name(&self) -> &str {
        "bp-osd"
    }

    fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
        Box::new(CachedDecoder::new(BpOsdDecoder::new(dem, self.max_iterations, self.osd_order)))
    }

    fn build_batch(
        &self,
        dem: &DetectorErrorModel,
    ) -> Box<dyn asynd_circuit::BatchObservableDecoder> {
        Box::new(CachedDecoder::new(BpOsdDecoder::new(dem, self.max_iterations, self.osd_order)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_circuit::DemError;
    use asynd_pauli::BinMatrix;

    fn toy_dem() -> DetectorErrorModel {
        // Two detectors; three mechanisms with distinct signatures.
        DetectorErrorModel::from_parts(
            2,
            2,
            vec![
                DemError { probability: 0.02, detectors: vec![0], observables: vec![0] },
                DemError { probability: 0.01, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.02, detectors: vec![1], observables: vec![1] },
            ],
        )
    }

    /// The textbook O(deg²) check-node update of one row, kept here only
    /// as the oracle of [`check_row`].
    fn naive_check_row(incoming: &[f64], syndrome: bool, scale: f64) -> Vec<f64> {
        (0..incoming.len())
            .map(|i| {
                let mut sign = if syndrome { -1.0 } else { 1.0 };
                let mut min_abs = f64::INFINITY;
                for (i2, &msg) in incoming.iter().enumerate() {
                    if i2 == i {
                        continue;
                    }
                    if msg < 0.0 {
                        sign = -sign;
                    }
                    min_abs = min_abs.min(msg.abs());
                }
                if min_abs.is_infinite() {
                    min_abs = 0.0;
                }
                sign * scale * min_abs
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn check_row_matches_the_naive_update_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rows: Vec<Vec<f64>> = vec![
            vec![],
            vec![3.0],
            vec![-2.5],
            vec![0.0],
            vec![-0.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0, 2.0],
            vec![-1.0, 1.0, 1.0],
            vec![2.0, 1.0, -1.0, 1.0],
            vec![0.0, -0.0, 1.0],
            vec![-0.0, -0.0],
            vec![-0.0, 0.0, -0.0],
            vec![-3.0, -1.0, -2.0, -1.0],
            vec![-4.0, -4.0, -4.0],
            vec![f64::INFINITY, 2.0],
            vec![f64::INFINITY, f64::NEG_INFINITY],
        ];
        // Random rows up to catalog widths over a tiny alphabet, so ties
        // at the minimum and signed zeros are the common case.
        let alphabet = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 7.25, -7.25];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x2a);
        for _ in 0..400 {
            let len = rng.gen_range(1..90usize);
            rows.push((0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect());
        }
        for row in &rows {
            for syndrome in [false, true] {
                let mut out = vec![f64::NAN; row.len()];
                check_row(row, &mut out, syndrome, 0.75);
                assert_eq!(
                    bits(&out),
                    bits(&naive_check_row(row, syndrome, 0.75)),
                    "row {row:?}, syndrome {syndrome}"
                );
            }
        }
    }

    /// The OSD stage before the shared elimination kernel, kept verbatim
    /// as the oracle apart from one edit: the matrix and the order are
    /// arguments instead of fields.
    fn reference_osd(
        m: &DecodeMatrix,
        osd_order: usize,
        syndrome: &BitVec,
        posteriors: &[f64],
    ) -> Vec<usize> {
        let num_errors = m.num_errors();
        if num_errors == 0 {
            return Vec::new();
        }
        // Rank columns: most likely to have fired first (lowest LLR).
        let mut order: Vec<usize> = (0..num_errors).collect();
        order.sort_by(|&a, &b| {
            posteriors[a].partial_cmp(&posteriors[b]).unwrap_or(std::cmp::Ordering::Equal)
        });

        // Build the permuted parity-check matrix and select pivots greedily.
        let mut inverse_order = vec![0usize; num_errors];
        for (position, &j) in order.iter().enumerate() {
            inverse_order[j] = position;
        }
        let permuted = BinMatrix::from_row_supports(
            num_errors,
            &(0..m.num_detectors())
                .map(|d| m.row(d).iter().map(|&j| inverse_order[j]).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        );
        // Reduced solve on the permuted system: columns earlier in `order`
        // are preferred as pivots by the left-to-right sweep of row_reduce.
        let mut augmented =
            permuted.hstack(&BinMatrix::from_rows(vec![syndrome.clone()]).transpose());
        let pivots = augmented.row_reduce();
        // If the syndrome column became a pivot the system is inconsistent
        // (should not happen for a DEM-generated syndrome); return BP's best
        // guess of nothing.
        if pivots.contains(&num_errors) {
            return Vec::new();
        }

        let solve_with = |flips: &[usize]| -> (f64, Vec<usize>) {
            // Solve with the given non-pivot columns forced to 1.
            let mut rhs = syndrome.clone();
            for &f in flips {
                for &d in m.column(order[f]) {
                    rhs.flip(d);
                }
            }
            let mut chosen: Vec<usize> = flips.to_vec();
            // Back-substitute through the reduced augmented matrix: recompute
            // pivot values for the adjusted rhs.
            let mut aug2 = permuted.hstack(&BinMatrix::from_rows(vec![rhs]).transpose());
            let piv2 = aug2.row_reduce();
            if piv2.contains(&num_errors) {
                return (f64::INFINITY, Vec::new());
            }
            for (row, &col) in piv2.iter().enumerate() {
                if aug2.get(row, num_errors) {
                    chosen.push(col);
                }
            }
            let cost: f64 = chosen.iter().map(|&c| posteriors[order[c]].max(-30.0)).sum();
            (cost, chosen)
        };

        // OSD-0 solution.
        let (mut best_cost, mut best) = solve_with(&[]);
        // OSD-CS: exhaustive flips over the `osd_order` least reliable
        // non-pivot columns.
        if osd_order > 0 {
            let pivot_set: std::collections::HashSet<usize> = pivots.iter().copied().collect();
            let free: Vec<usize> =
                (0..num_errors).filter(|c| !pivot_set.contains(c)).take(osd_order).collect();
            let combos = 1usize << free.len().min(10);
            for bits in 1..combos {
                let flips: Vec<usize> = free
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| bits & (1 << i) != 0)
                    .map(|(_, &c)| c)
                    .collect();
                let (cost, candidate) = solve_with(&flips);
                if cost < best_cost {
                    best_cost = cost;
                    best = candidate;
                }
            }
        }
        best.into_iter().map(|c| order[c]).collect()
    }

    /// Syndromes to feed the OSD stage on one DEM, each with the BP
    /// posteriors the decoder would hand it: every sampled shot whose BP
    /// did not converge, then random detector sets, some of them outside
    /// the column space.
    fn osd_inputs(decoder: &BpOsdDecoder, dem: &DetectorErrorModel) -> Vec<(BitVec, Vec<f64>)> {
        use rand::{Rng, SeedableRng};
        let n = dem.num_detectors();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(n as u64);
        let batch = asynd_sim::BatchSampler::new(&dem.to_frame_model()).sample(2048, &mut rng);
        let mut inputs = Vec::new();
        for shot in 0..batch.num_shots() {
            let syndrome = batch.shot_detectors(shot);
            if let (posteriors, None) = decoder.belief_propagation(&syndrome) {
                inputs.push((syndrome, posteriors));
            }
        }
        for _ in 0..24 {
            let weight = rng.gen_range(1..9usize);
            let indices: Vec<usize> = (0..weight).map(|_| rng.gen_range(0..n)).collect();
            let syndrome = BitVec::from_indices(n, &indices);
            let (posteriors, _) = decoder.belief_propagation(&syndrome);
            inputs.push((syndrome, posteriors));
        }
        inputs
    }

    /// The catalog DEMs the OSD tests run on: the lowest-depth schedules
    /// of the two smallest colour codes of each lattice, at two rates.
    fn colour_dems() -> Vec<DetectorErrorModel> {
        use asynd_circuit::NoiseModel;
        use asynd_codes::catalog::family_by_name;
        use asynd_core::{LowestDepthScheduler, Scheduler};
        let mut dems = Vec::new();
        for family in ["hexagonal-color", "square-octagonal-color"] {
            for entry in &family_by_name(family).expect("catalog family")[..2] {
                let schedule = LowestDepthScheduler::new().schedule(&entry.code).unwrap();
                for p in [1e-3, 7.4e-3] {
                    let noise = NoiseModel::scaled(p);
                    dems.push(DetectorErrorModel::build(&entry.code, &schedule, &noise).unwrap());
                }
            }
        }
        dems
    }

    #[test]
    fn osd_matches_the_binmatrix_reference_on_colour_dems() {
        // (calls, inconsistent syndromes, OSD-CS calls with free columns)
        let mut seen = (0, 0, 0);
        // The colour DEMs reach every syndrome. Without its mechanisms of
        // odd detector count, the first one leaves every odd-weight
        // syndrome outside the column space.
        let mut dems = colour_dems();
        let even: Vec<DemError> =
            dems[0].errors().iter().filter(|e| e.detectors.len() % 2 == 0).cloned().collect();
        dems.push(DetectorErrorModel::from_parts(
            dems[0].num_detectors(),
            dems[0].num_observables(),
            even,
        ));
        for dem in dems {
            let decoders = [0, 2, 4, 12].map(|order| (order, BpOsdDecoder::new(&dem, 30, order)));
            let mut scratch = OsdScratch::default();
            for (i, (syndrome, posteriors)) in osd_inputs(&decoders[0].1, &dem).iter().enumerate() {
                // Order 12 re-eliminates 1 024 times per reference call,
                // so it runs on a handful of syndromes only.
                for (order, decoder) in &decoders[..if i < 3 { 4 } else { 3 }] {
                    let order = *order;
                    let got = decoder.osd(syndrome.words(), posteriors, &mut scratch);
                    let expected = reference_osd(&decoder.matrix, order, syndrome, posteriors);
                    assert_eq!(got, expected, "order {order}, syndrome {syndrome:?}");
                    seen.0 += 1;
                    if scratch.system.pivots.last() == Some(&decoder.matrix.num_errors()) {
                        seen.1 += 1;
                    } else if order > 0 && scratch.system.pivots.len() < decoder.matrix.num_errors()
                    {
                        seen.2 += 1;
                    }
                }
            }
        }
        eprintln!("{seen:?}");
        assert!(seen.1 > 0, "no inconsistent syndrome: {seen:?}");
        assert!(seen.2 > 0, "no OSD-CS call with free columns: {seen:?}");
    }

    #[test]
    fn osd_corrections_reproduce_consistent_syndromes() {
        let mut checked = 0;
        for dem in colour_dems() {
            for order in [0, 4] {
                let decoder = BpOsdDecoder::new(&dem, 30, order);
                let mut scratch = OsdScratch::default();
                for (syndrome, posteriors) in osd_inputs(&decoder, &dem) {
                    let errors = decoder.osd(syndrome.words(), &posteriors, &mut scratch);
                    if scratch.system.pivots.last() == Some(&decoder.matrix.num_errors()) {
                        continue;
                    }
                    assert_eq!(decoder.matrix.syndrome_of(&errors), syndrome, "order {order}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn single_mechanisms_decode_exactly() {
        let dem = toy_dem();
        let decoder = BpOsdDecoder::new(&dem, 20, 0);
        for error in dem.errors() {
            let detectors = BitVec::from_indices(2, &error.detectors);
            let expected = BitVec::from_indices(2, &error.observables);
            assert_eq!(decoder.decode(&detectors), expected, "failed for {:?}", error.detectors);
        }
    }

    #[test]
    fn prefers_likely_single_error_over_unlikely_pair() {
        // Syndrome {0,1}: either mechanism 1 (p=0.01) or mechanisms 0+2
        // (p=0.0004). BP/OSD must choose mechanism 1 → no observable flip.
        let decoder = BpOsdDecoder::new(&toy_dem(), 20, 0);
        let prediction = decoder.decode(&BitVec::from_indices(2, &[0, 1]));
        assert!(!prediction.any());
    }

    #[test]
    fn osd_handles_non_converging_bp() {
        // Degenerate DEM engineered so BP alone cannot settle: two equal
        // mechanisms explaining the same detector with different observables.
        let dem = DetectorErrorModel::from_parts(
            1,
            2,
            vec![
                DemError { probability: 0.01, detectors: vec![0], observables: vec![0] },
                DemError { probability: 0.01, detectors: vec![0], observables: vec![1] },
            ],
        );
        let decoder = BpOsdDecoder::new(&dem, 5, 2);
        let prediction = decoder.decode(&BitVec::from_indices(1, &[0]));
        // Either single-mechanism explanation is acceptable; both flip
        // exactly one observable.
        assert_eq!(prediction.count_ones(), 1);
    }

    #[test]
    fn quiet_syndrome_is_trivial() {
        let decoder = BpOsdDecoder::new(&toy_dem(), 20, 0);
        assert!(!decoder.decode(&BitVec::zeros(2)).any());
    }

    #[test]
    fn higher_osd_order_never_worse_on_toy_case() {
        let dem = toy_dem();
        let d0 = BpOsdDecoder::new(&dem, 20, 0);
        let d4 = BpOsdDecoder::new(&dem, 20, 4);
        for error in dem.errors() {
            let detectors = BitVec::from_indices(2, &error.detectors);
            assert_eq!(d0.decode(&detectors), d4.decode(&detectors));
        }
    }
}
