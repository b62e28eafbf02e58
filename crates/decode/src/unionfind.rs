//! Hypergraph union-find decoder.

use std::cmp::Ordering;

use asynd_circuit::{DecoderFactory, DetectorErrorModel, ObservableDecoder};
use asynd_pauli::BitVec;

use crate::common::{ones, CachedDecoder, DecodeMatrix, Gf2System, WORD};

/// Hypergraph union-find decoder.
///
/// Clusters grow on the DEM's Tanner graph starting from the detection
/// events: in each growth round every *invalid* cluster absorbs the error
/// mechanisms incident to its frontier detectors together with those
/// mechanisms' other detectors, merging clusters that touch. A cluster is
/// *valid* when the error mechanisms fully contained in it can reproduce
/// the cluster's internal syndrome, which is checked (and solved) by GF(2)
/// elimination on the cluster-local matrix — the standard generalisation
/// of union-find to hypergraph error models used for LDPC codes. Valid
/// clusters freeze — they stop growing and their solve result is memoised
/// — so per-round work tracks only the clusters that are still unexplained.
///
/// Each cluster solve is one pass of the crate's GF(2) elimination kernel
/// (shared with BP-OSD's OSD stage) over the augmented cluster system
/// `[A | b]` in flat `u64` words, with columns in reliability order: it
/// gives the validity test, a particular solution and the kernel basis
/// together. One refinement loop over word slices
/// then moves towards the cheapest explanation (lowest sum of prior LLRs):
/// every kernel combination for kernels of up to 12 vectors, otherwise
/// three greedy sweeps. All buffers come from one scratch per decode, so a
/// solve allocates nothing once they have grown to the largest cluster.
///
/// # Example
///
/// ```
/// use asynd_codes::steane_code;
/// use asynd_circuit::{DetectorErrorModel, NoiseModel, ObservableDecoder, Schedule};
/// use asynd_decode::UnionFindDecoder;
/// use asynd_pauli::BitVec;
///
/// let code = steane_code();
/// let schedule = Schedule::trivial(&code);
/// let dem = DetectorErrorModel::build(&code, &schedule, &NoiseModel::brisbane()).unwrap();
/// let decoder = UnionFindDecoder::new(&dem);
/// assert!(!decoder.decode(&BitVec::zeros(dem.num_detectors())).any());
/// ```
pub struct UnionFindDecoder {
    matrix: DecodeMatrix,
}

/// One growing cluster: its detectors and absorbed errors, plus the
/// memoised solve result. `valid_mask` is `Some(observable mask)` once the
/// contained errors explain the internal syndrome; `dirty` marks clusters
/// whose membership changed since the last solve. A merged-away cluster is
/// left as the (dead) default.
#[derive(Default)]
struct Cluster {
    detectors: Vec<usize>,
    errors: Vec<usize>,
    valid_mask: Option<u64>,
    dirty: bool,
    live: bool,
}

impl UnionFindDecoder {
    /// Builds the decoder from a DEM.
    ///
    /// # Panics
    ///
    /// Panics if the DEM has more than 64 observables.
    pub fn new(dem: &DetectorErrorModel) -> Self {
        let matrix = DecodeMatrix::new(dem).expect("observable count exceeds decoder support");
        UnionFindDecoder { matrix }
    }

    /// Solves one cluster: finds a set of contained mechanisms reproducing
    /// the cluster-internal syndrome, returning their combined observable
    /// mask, or `None` if the cluster is still invalid. The chosen
    /// mechanisms are left in `scratch.best` as a bit set over the
    /// positions of `cluster_errors`.
    ///
    /// One [`Gf2System`] elimination of the augmented `[A | b]` yields
    /// the validity test, a particular solution and the kernel basis at
    /// once.
    fn solve_cluster(
        &self,
        cluster_detectors: &[usize],
        cluster_errors: &[usize],
        syndrome: &BitVec,
        scratch: &mut SolveScratch,
    ) -> Option<u64> {
        let s = scratch;
        s.best.clear();
        if cluster_errors.is_empty() {
            // Valid only if no detection event sits inside.
            return if cluster_detectors.iter().any(|&d| syndrome.get(d)) { None } else { Some(0) };
        }
        let rows = cluster_detectors.len();
        let cols = cluster_errors.len();
        s.llrs.clear();
        s.llrs.extend(cluster_errors.iter().map(|&j| self.matrix.prior_llr(j).max(1e-3)));
        // Reliability-ordered local solve (local OSD-0): the system's
        // columns put the most likely mechanisms first so the particular
        // solution prefers them. `order[p]` is the cluster column at
        // system position `p`.
        s.order.clear();
        s.order.extend(0..cols);
        let llrs = &s.llrs;
        s.order.sort_by(|&a, &b| llrs[a].partial_cmp(&llrs[b]).unwrap_or(Ordering::Equal));
        // Augmented system: row `r` is cluster detector `r`, position
        // `cols` its syndrome bit.
        s.system.reset(rows, cols);
        for (r, &d) in cluster_detectors.iter().enumerate() {
            s.detector_row[d] = r;
        }
        for (pos, &col) in s.order.iter().enumerate() {
            for &d in self.matrix.column(cluster_errors[col]) {
                let r = s.detector_row[d];
                if r != usize::MAX {
                    s.system.set(r, pos);
                }
            }
        }
        for (r, &d) in cluster_detectors.iter().enumerate() {
            if syndrome.get(d) {
                s.system.set(r, cols);
            }
            s.detector_row[d] = usize::MAX;
        }
        if !s.system.eliminate() {
            return None;
        }
        // Particular solution and kernel basis, mapped back to cluster
        // columns so costs sum in ascending column order.
        let words = cols.div_ceil(WORD);
        let order = &s.order;
        let kernel_len = s.system.solve(usize::MAX, &mut s.best, &mut s.kernel, |p| order[p]);
        // Among the consistent explanations inside the cluster, refine
        // towards the most likely one: exhaustively for small kernels (in
        // ascending subset order, each candidate one XOR off a prefix
        // table), greedily otherwise. Strict `<` keeps the earlier
        // candidate on ties.
        let mut best_cost = cost(llrs, &s.best, f64::INFINITY);
        if kernel_len <= 12 {
            s.candidates.clear();
            s.candidates.extend_from_slice(&s.best);
            let mut best_bits = 0;
            for bits in 1usize..(1 << kernel_len) {
                let base = (bits & (bits - 1)) * words;
                let basis = bits.trailing_zeros() as usize * words;
                for i in 0..words {
                    let word = s.candidates[base + i] ^ s.kernel[basis + i];
                    s.candidates.push(word);
                }
                let c = cost(llrs, &s.candidates[bits * words..], best_cost);
                if c < best_cost {
                    best_cost = c;
                    best_bits = bits;
                }
            }
            s.best.copy_from_slice(&s.candidates[best_bits * words..(best_bits + 1) * words]);
        } else {
            for _sweep in 0..3 {
                let mut improved = false;
                for vector in s.kernel.chunks_exact(words) {
                    s.candidates.clear();
                    s.candidates.extend(s.best.iter().zip(vector).map(|(a, b)| a ^ b));
                    let c = cost(llrs, &s.candidates, best_cost);
                    if c < best_cost {
                        best_cost = c;
                        std::mem::swap(&mut s.best, &mut s.candidates);
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        Some(
            ones(&s.best)
                .fold(0, |mask, col| mask ^ self.matrix.observable_mask(cluster_errors[col])),
        )
    }
}

/// Sum of the LLRs of the columns set in `x`, added in ascending column
/// order. Stops as soon as the partial sum reaches `bound`: every LLR is
/// positive, so rounded partial sums never decrease and the full sum
/// could not fall below `bound` either.
fn cost(llrs: &[f64], x: &[u64], bound: f64) -> f64 {
    let mut total = 0.0;
    for (w, &word) in x.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            total += llrs[w * WORD + rest.trailing_zeros() as usize];
            if total >= bound {
                return total;
            }
            rest &= rest - 1;
        }
    }
    total
}

/// Buffers shared by every cluster solve of one decode, so a solve
/// allocates nothing once they have grown to the largest cluster.
#[derive(Default)]
struct SolveScratch {
    /// Row of every cluster detector in the local system; `usize::MAX`
    /// between solves.
    detector_row: Vec<usize>,
    /// Prior LLR of every cluster column.
    llrs: Vec<f64>,
    /// Cluster column at every system position.
    order: Vec<usize>,
    /// The augmented cluster system and its elimination.
    system: Gf2System,
    /// Kernel basis over cluster columns, one vector after another.
    kernel: Vec<u64>,
    /// Best explanation so far over cluster columns.
    best: Vec<u64>,
    /// Candidate explanations: the prefix table of exhaustive refinement,
    /// or the one candidate of a greedy step.
    candidates: Vec<u64>,
}

impl SolveScratch {
    fn new(num_detectors: usize) -> Self {
        SolveScratch { detector_row: vec![usize::MAX; num_detectors], ..Default::default() }
    }
}

/// Tests read the last solve's elimination state, such as
/// `scratch.pivots`, through the cluster system.
#[cfg(test)]
impl std::ops::Deref for SolveScratch {
    type Target = Gf2System;

    fn deref(&self) -> &Gf2System {
        &self.system
    }
}

impl ObservableDecoder for UnionFindDecoder {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        let m = &self.matrix;
        if !detectors.any() || m.num_errors() == 0 {
            return BitVec::zeros(m.num_observables());
        }
        let mut scratch = SolveScratch::new(m.num_detectors());
        let mask = self.grow_clusters(detectors, |cluster_detectors, cluster_errors| {
            self.solve_cluster(cluster_detectors, cluster_errors, detectors, &mut scratch)
        });
        m.mask_to_bitvec(mask)
    }
}

impl UnionFindDecoder {
    /// Grows clusters from the detection events of a non-empty syndrome
    /// until every cluster is valid (or can grow no further), solving each
    /// changed cluster with `solve(detectors, errors)` (both sorted), and
    /// returns the XOR of the valid clusters' observable masks.
    fn grow_clusters(
        &self,
        detectors: &BitVec,
        mut solve: impl FnMut(&[usize], &[usize]) -> Option<u64>,
    ) -> u64 {
        let m = &self.matrix;
        // One singleton cluster per detection event. Clusters that reach a
        // valid explanation freeze: they neither grow nor re-solve unless
        // an invalid neighbour grows into them (then the merged cluster is
        // marked dirty and solved afresh). This keeps clusters local and
        // the per-round work proportional to what actually changed.
        let mut cluster_of = vec![usize::MAX; m.num_detectors()];
        let mut scanned = vec![false; m.num_detectors()];
        let mut error_absorbed = vec![false; m.num_errors()];
        let mut clusters: Vec<Cluster> = Vec::new();
        for d in detectors.ones() {
            cluster_of[d] = clusters.len();
            clusters.push(Cluster {
                detectors: vec![d],
                errors: Vec::new(),
                valid_mask: None,
                dirty: true,
                live: true,
            });
        }
        loop {
            // Solve phase: re-solve only the clusters whose membership
            // changed since the last round.
            let mut all_valid = true;
            for cluster in &mut clusters {
                if !cluster.live {
                    continue;
                }
                if cluster.dirty {
                    cluster.detectors.sort_unstable();
                    cluster.errors.sort_unstable();
                    cluster.valid_mask = solve(&cluster.detectors, &cluster.errors);
                    cluster.dirty = false;
                }
                if cluster.valid_mask.is_none() {
                    all_valid = false;
                }
            }
            if all_valid {
                break;
            }
            // Growth phase: every invalid cluster scans its not-yet-scanned
            // detectors once (one frontier layer per round), absorbing each
            // incident error together with that error's other detectors.
            // Touching a foreign cluster merges it into the grower.
            let mut progressed = false;
            for ci in 0..clusters.len() {
                if !clusters[ci].live || clusters[ci].valid_mask.is_some() {
                    continue;
                }
                let frontier: Vec<usize> =
                    clusters[ci].detectors.iter().copied().filter(|&d| !scanned[d]).collect();
                for d in frontier {
                    scanned[d] = true;
                    progressed = true;
                    for &j in m.row(d) {
                        if error_absorbed[j] {
                            continue;
                        }
                        error_absorbed[j] = true;
                        clusters[ci].errors.push(j);
                        clusters[ci].dirty = true;
                        for &dd in m.column(j) {
                            let prev = cluster_of[dd];
                            if prev == usize::MAX {
                                cluster_of[dd] = ci;
                                clusters[ci].detectors.push(dd);
                            } else if prev != ci {
                                let mut other = std::mem::take(&mut clusters[prev]);
                                for &od in &other.detectors {
                                    cluster_of[od] = ci;
                                }
                                clusters[ci].detectors.append(&mut other.detectors);
                                clusters[ci].errors.append(&mut other.errors);
                                clusters[ci].dirty = true;
                            }
                        }
                    }
                }
            }
            if !progressed {
                // Every invalid cluster has exhausted its neighbourhood;
                // give up with the valid clusters' best effort.
                break;
            }
        }
        clusters.iter().filter(|c| c.live).fold(0, |mask, c| mask ^ c.valid_mask.unwrap_or(0))
    }
}

/// Factory for [`UnionFindDecoder`] (wrapped in a memoisation cache).
#[derive(Debug, Clone, Default)]
pub struct UnionFindFactory {
    _private: (),
}

impl UnionFindFactory {
    /// Creates the factory.
    pub fn new() -> Self {
        UnionFindFactory { _private: () }
    }
}

impl DecoderFactory for UnionFindFactory {
    fn name(&self) -> &str {
        "unionfind"
    }

    fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
        Box::new(CachedDecoder::new(UnionFindDecoder::new(dem)))
    }

    fn build_batch(
        &self,
        dem: &DetectorErrorModel,
    ) -> Box<dyn asynd_circuit::BatchObservableDecoder> {
        Box::new(CachedDecoder::new(UnionFindDecoder::new(dem)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_circuit::DemError;
    use asynd_pauli::BinMatrix;

    fn chain_dem() -> DetectorErrorModel {
        DetectorErrorModel::from_parts(
            3,
            1,
            vec![
                DemError { probability: 0.01, detectors: vec![0], observables: vec![] },
                DemError { probability: 0.01, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.01, detectors: vec![1, 2], observables: vec![] },
                DemError { probability: 0.01, detectors: vec![2], observables: vec![0] },
            ],
        )
    }

    #[test]
    fn quiet_syndrome_is_trivial() {
        let decoder = UnionFindDecoder::new(&chain_dem());
        assert!(!decoder.decode(&BitVec::zeros(3)).any());
    }

    #[test]
    fn single_mechanism_syndromes_are_consistent() {
        // Union-find must return *some* consistent explanation; for the
        // unambiguous signatures below the explanation is unique.
        let dem = chain_dem();
        let decoder = UnionFindDecoder::new(&dem);
        // Defects {0,1}: the only explanation inside the first growth
        // neighbourhood is mechanism 1, which flips nothing.
        assert!(!decoder.decode(&BitVec::from_indices(3, &[0, 1])).any());
        // Defects {1,2}: mechanism 2, no observable.
        assert!(!decoder.decode(&BitVec::from_indices(3, &[1, 2])).any());
    }

    #[test]
    fn cluster_growth_reaches_a_valid_explanation() {
        let dem = chain_dem();
        let decoder = UnionFindDecoder::new(&dem);
        for error in dem.errors() {
            let detectors = BitVec::from_indices(3, &error.detectors);
            let prediction = decoder.decode(&detectors);
            // The prediction must correspond to *a* valid explanation of the
            // syndrome; verify consistency by re-projecting through the DEM:
            // any explanation of a weight-1-mechanism syndrome within this
            // chain differs from the truth only by a detector-trivial cycle,
            // which does not exist here, so the observables must match.
            assert_eq!(
                prediction,
                BitVec::from_indices(1, &error.observables),
                "failed for {:?}",
                error.detectors
            );
        }
    }

    #[test]
    fn hyperedge_cluster_is_solved() {
        let dem = DetectorErrorModel::from_parts(
            4,
            1,
            vec![DemError { probability: 0.01, detectors: vec![0, 1, 2, 3], observables: vec![0] }],
        );
        let decoder = UnionFindDecoder::new(&dem);
        let prediction = decoder.decode(&BitVec::from_indices(4, &[0, 1, 2, 3]));
        assert!(prediction.get(0));
    }

    #[test]
    fn unexplainable_syndrome_does_not_loop_forever() {
        // A detector with no incident error cannot be explained; the decoder
        // must terminate and return something.
        let dem = DetectorErrorModel::from_parts(
            2,
            1,
            vec![DemError { probability: 0.01, detectors: vec![0], observables: vec![0] }],
        );
        let decoder = UnionFindDecoder::new(&dem);
        let _ = decoder.decode(&BitVec::from_indices(2, &[1]));
    }

    /// The cluster solver before the single-elimination rewrite, kept
    /// verbatim as the oracle apart from two edits: the matrix is an
    /// argument instead of a field, and it returns the chosen mechanisms
    /// instead of their observable mask.
    fn reference_solve_cluster(
        matrix: &DecodeMatrix,
        cluster_detectors: &[usize],
        cluster_errors: &[usize],
        syndrome: &BitVec,
    ) -> Option<Vec<usize>> {
        if cluster_errors.is_empty() {
            // Valid only if no detection event sits inside.
            return if cluster_detectors.iter().any(|&d| syndrome.get(d)) {
                None
            } else {
                Some(Vec::new())
            };
        }
        // Local system: rows = cluster detectors, columns = cluster errors.
        // Dense scatter table instead of a HashMap: clusters are re-solved
        // many times per decode and the detector count is small.
        let mut detector_position = vec![usize::MAX; matrix.num_detectors()];
        for (i, &d) in cluster_detectors.iter().enumerate() {
            detector_position[d] = i;
        }
        let mut rows = vec![Vec::new(); cluster_detectors.len()];
        for (col, &j) in cluster_errors.iter().enumerate() {
            for &d in matrix.column(j) {
                let row = detector_position[d];
                if row != usize::MAX {
                    rows[row].push(col);
                }
            }
        }
        let llrs: Vec<f64> =
            cluster_errors.iter().map(|&j| matrix.prior_llr(j).max(1e-3)).collect();
        // Reliability-ordered local solve (local OSD-0): place the most
        // likely columns first so the particular solution prefers them.
        let mut order: Vec<usize> = (0..cluster_errors.len()).collect();
        order.sort_by(|&a, &b| llrs[a].partial_cmp(&llrs[b]).unwrap_or(std::cmp::Ordering::Equal));
        let mut inverse = vec![0usize; order.len()];
        for (pos, &col) in order.iter().enumerate() {
            inverse[col] = pos;
        }
        let permuted_rows: Vec<Vec<usize>> =
            rows.iter().map(|r| r.iter().map(|&c| inverse[c]).collect()).collect();
        let local = BinMatrix::from_row_supports(cluster_errors.len(), &permuted_rows);
        let rhs = BitVec::from_bools(cluster_detectors.iter().map(|&d| syndrome.get(d)));
        let particular_permuted = local.solve(&rhs).ok()?;
        let kernel_permuted = local.kernel_basis();
        // Among the consistent explanations inside the cluster, refine
        // towards the most likely one: exhaustively for small kernels,
        // greedily otherwise.
        let chosen: Vec<usize> = if cluster_errors.len() <= 64 {
            // Word fast path: candidate sets fit one u64, so refinement
            // runs in registers with no allocation per candidate. The
            // trailing-zeros cost loop visits columns in the same
            // ascending order as `BitVec::ones`, so floating-point sums
            // match the wide path exactly.
            let unpermute =
                |v: &BitVec| -> u64 { v.ones().fold(0u64, |m, pos| m | (1u64 << order[pos])) };
            let particular = unpermute(&particular_permuted);
            let kernel: Vec<u64> = kernel_permuted.iter().map(unpermute).collect();
            let cost = |mut x: u64| -> f64 {
                let mut total = 0.0;
                while x != 0 {
                    total += llrs[x.trailing_zeros() as usize];
                    x &= x - 1;
                }
                total
            };
            let mut best = particular;
            let mut best_cost = cost(best);
            if kernel.len() <= 12 {
                for bits in 1usize..(1 << kernel.len()) {
                    let mut candidate = particular;
                    for (i, &k) in kernel.iter().enumerate() {
                        if bits & (1 << i) != 0 {
                            candidate ^= k;
                        }
                    }
                    let c = cost(candidate);
                    if c < best_cost {
                        best_cost = c;
                        best = candidate;
                    }
                }
            } else {
                for _sweep in 0..3 {
                    let mut improved = false;
                    for &k in &kernel {
                        let candidate = best ^ k;
                        let c = cost(candidate);
                        if c < best_cost {
                            best_cost = c;
                            best = candidate;
                            improved = true;
                        }
                    }
                    if !improved {
                        break;
                    }
                }
            }
            let mut chosen = Vec::new();
            let mut x = best;
            while x != 0 {
                chosen.push(cluster_errors[x.trailing_zeros() as usize]);
                x &= x - 1;
            }
            chosen
        } else {
            let unpermute = |v: &BitVec| -> BitVec {
                let mut unpermuted = BitVec::zeros(cluster_errors.len());
                for pos in v.ones() {
                    unpermuted.set(order[pos], true);
                }
                unpermuted
            };
            let particular = unpermute(&particular_permuted);
            let kernel: Vec<BitVec> = kernel_permuted.iter().map(unpermute).collect();
            let cost = |x: &BitVec| -> f64 { x.ones().map(|col| llrs[col]).sum() };
            let mut best = particular.clone();
            let mut best_cost = cost(&best);
            if kernel.len() <= 12 {
                for bits in 1usize..(1 << kernel.len()) {
                    let mut candidate = particular.clone();
                    for (i, k) in kernel.iter().enumerate() {
                        if bits & (1 << i) != 0 {
                            candidate.xor_with(k);
                        }
                    }
                    let c = cost(&candidate);
                    if c < best_cost {
                        best_cost = c;
                        best = candidate;
                    }
                }
            } else {
                for _sweep in 0..3 {
                    let mut improved = false;
                    for k in &kernel {
                        let mut candidate = best.clone();
                        candidate.xor_with(k);
                        let c = cost(&candidate);
                        if c < best_cost {
                            best_cost = c;
                            best = candidate;
                            improved = true;
                        }
                    }
                    if !improved {
                        break;
                    }
                }
            }
            best.ones().map(|col| cluster_errors[col]).collect()
        };
        Some(chosen)
    }

    /// How many harvested solves fell into each regime the oracle must
    /// cover.
    #[derive(Debug, Default)]
    struct Coverage {
        solves: usize,
        invalid: usize,
        wide: usize,
        small_kernel: usize,
        large_kernel: usize,
        tied: usize,
    }

    /// Decodes every syndrome with the new solver while replaying each
    /// cluster solve through the reference: both must pick the same
    /// mechanisms, and those must reproduce the cluster-internal syndrome.
    fn compare_with_reference(dem: &DetectorErrorModel, syndromes: &[BitVec], seen: &mut Coverage) {
        let decoder = UnionFindDecoder::new(dem);
        let m = &decoder.matrix;
        let mut scratch = SolveScratch::new(m.num_detectors());
        for syndrome in syndromes.iter().filter(|s| s.any()) {
            decoder.grow_clusters(syndrome, |detectors, errors| {
                let mask = decoder.solve_cluster(detectors, errors, syndrome, &mut scratch);
                let reference = reference_solve_cluster(m, detectors, errors, syndrome);
                seen.solves += 1;
                let Some(expected) = reference else {
                    assert_eq!(mask, None, "cluster {detectors:?} / {errors:?}");
                    seen.invalid += 1;
                    return mask;
                };
                let chosen: Vec<usize> = ones(&scratch.best).map(|col| errors[col]).collect();
                assert_eq!(chosen, expected, "cluster {detectors:?} / {errors:?}");
                assert_eq!(mask, Some(m.observables_of(&expected)));
                let produced = m.syndrome_of(&chosen);
                assert!(produced.ones().all(|d| detectors.binary_search(&d).is_ok()));
                assert!(detectors.iter().all(|&d| produced.get(d) == syndrome.get(d)));
                if !errors.is_empty() {
                    let kernel = errors.len() - scratch.pivots.len();
                    seen.wide += usize::from(errors.len() > 64);
                    seen.small_kernel += usize::from(kernel > 0 && kernel <= 12);
                    seen.large_kernel += usize::from(kernel > 12);
                    let mut llrs = scratch.llrs.clone();
                    llrs.sort_by(f64::total_cmp);
                    seen.tied += usize::from(llrs.windows(2).any(|w| w[0] == w[1]));
                }
                mask
            });
        }
    }

    #[test]
    fn valid_cluster_corrections_reproduce_the_cluster_syndrome() {
        use asynd_circuit::NoiseModel;
        use asynd_codes::catalog::family_by_name;
        use asynd_core::{LowestDepthScheduler, Scheduler};
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut valid = 0;
        for family in ["hexagonal-color", "square-octagonal-color"] {
            for entry in &family_by_name(family).expect("catalog family")[..2] {
                let schedule = LowestDepthScheduler::new().schedule(&entry.code).unwrap();
                for p in [1e-3, 7.4e-3] {
                    let noise = NoiseModel::scaled(p);
                    let dem = DetectorErrorModel::build(&entry.code, &schedule, &noise).unwrap();
                    let decoder = UnionFindDecoder::new(&dem);
                    let m = &decoder.matrix;
                    let n = dem.num_detectors();
                    let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
                    let batch =
                        asynd_sim::BatchSampler::new(&dem.to_frame_model()).sample(256, &mut rng);
                    let mut syndromes: Vec<BitVec> =
                        (0..batch.num_shots()).map(|s| batch.shot_detectors(s)).collect();
                    for _ in 0..24 {
                        let indices: Vec<usize> =
                            (0..rng.gen_range(2..13usize)).map(|_| rng.gen_range(0..n)).collect();
                        syndromes.push(BitVec::from_indices(n, &indices));
                    }
                    let mut scratch = SolveScratch::new(n);
                    for syndrome in syndromes.iter().filter(|s| s.any()) {
                        decoder.grow_clusters(syndrome, |detectors, errors| {
                            let mask =
                                decoder.solve_cluster(detectors, errors, syndrome, &mut scratch);
                            if mask.is_some() {
                                let chosen: Vec<usize> =
                                    ones(&scratch.best).map(|col| errors[col]).collect();
                                // The chosen mechanisms flip exactly the
                                // cluster's detection events, and nothing
                                // outside the cluster.
                                let produced = m.syndrome_of(&chosen);
                                let outside =
                                    produced.ones().any(|d| detectors.binary_search(&d).is_err());
                                let wrong =
                                    detectors.iter().any(|&d| produced.get(d) != syndrome.get(d));
                                assert!(!outside && !wrong, "cluster {detectors:?} / {errors:?}");
                                valid += 1;
                            }
                            mask
                        });
                    }
                }
            }
        }
        assert!(valid > 0);
    }

    #[test]
    fn cluster_solver_matches_the_binmatrix_reference_on_catalog_dems() {
        use asynd_circuit::NoiseModel;
        use asynd_codes::catalog::family_by_name;
        use asynd_core::{LowestDepthScheduler, Scheduler};
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut seen = Coverage::default();
        for (family, index) in [("xzzx", 1), ("hgp", 0), ("rotated-surface", 1)] {
            let code = &family_by_name(family).expect("catalog family")[index].code;
            let schedule = LowestDepthScheduler::new().schedule(code).unwrap();
            for noise in [NoiseModel::scaled(1e-3), NoiseModel::brisbane()] {
                let dem = DetectorErrorModel::build(code, &schedule, &noise).unwrap();
                let n = dem.num_detectors();
                let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
                // Sampled shots, then random detector sets of weight 2-12
                // that grow clusters far past what low noise produces.
                let batch =
                    asynd_sim::BatchSampler::new(&dem.to_frame_model()).sample(64, &mut rng);
                let mut syndromes: Vec<BitVec> =
                    (0..batch.num_shots()).map(|s| batch.shot_detectors(s)).collect();
                for _ in 0..40 {
                    let weight = rng.gen_range(2..13usize);
                    let indices: Vec<usize> = (0..weight).map(|_| rng.gen_range(0..n)).collect();
                    syndromes.push(BitVec::from_indices(n, &indices));
                }
                compare_with_reference(&dem, &syndromes, &mut seen);
            }
        }
        eprintln!("{seen:?}");
        assert!(seen.invalid > 0, "{seen:?}");
        assert!(seen.wide > 0, "{seen:?}");
        assert!(seen.small_kernel > 0, "{seen:?}");
        assert!(seen.large_kernel > 0, "{seen:?}");
        assert!(seen.tied > 0, "{seen:?}");
    }
}
