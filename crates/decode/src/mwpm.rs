//! Minimum-weight perfect-matching decoder over detector error models.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use asynd_circuit::{DecoderFactory, DetectorErrorModel, ObservableDecoder};
use asynd_pauli::BitVec;
use asynd_sim::BitMatrix;

use crate::batch::ResidualDecoder;
use crate::common::{ones, CachedDecoder};

/// An edge of the matching graph.
#[derive(Debug, Clone, Copy)]
struct MatchEdge {
    to: usize,
    weight: f64,
    observables: u64,
}

/// Minimum-weight perfect-matching (MWPM) decoder.
///
/// The matching graph has one node per detector plus a virtual boundary
/// node. Every DEM mechanism flipping one detector becomes a boundary edge,
/// every mechanism flipping two detectors becomes an internal edge, and
/// hyperedges (more than two detectors, e.g. Y-type faults) are decomposed
/// into existing edges when possible — the same strategy PyMatching applies
/// to stim's decomposed DEMs. Edge weights are `ln((1-p)/p)`.
///
/// Decoding computes all-pairs shortest paths between the defects (and the
/// boundary) with Dijkstra, then finds a minimum-weight perfect matching:
/// exactly (bitmask dynamic programming) for up to 20 defects and greedily
/// beyond that. The prediction is the XOR of the observable masks along the
/// matched shortest paths.
///
/// The scalar [`ObservableDecoder::decode`] runs a fresh Dijkstra from
/// every defect and is the oracle. The batch path runs each source's
/// Dijkstra at most once per call and shares the row among all hard shots
/// of the call (see [`ResidualDecoder`]); the decoder itself keeps no rows.
///
/// # Example
///
/// ```
/// use asynd_codes::rotated_surface_code;
/// use asynd_circuit::{DetectorErrorModel, NoiseModel, ObservableDecoder, Schedule};
/// use asynd_decode::MwpmDecoder;
/// use asynd_pauli::BitVec;
///
/// let code = rotated_surface_code(3);
/// let schedule = Schedule::trivial(&code);
/// let dem = DetectorErrorModel::build(&code, &schedule, &NoiseModel::brisbane()).unwrap();
/// let decoder = MwpmDecoder::new(&dem);
/// let quiet = decoder.decode(&BitVec::zeros(dem.num_detectors()));
/// assert!(!quiet.any());
/// ```
pub struct MwpmDecoder {
    num_detectors: usize,
    num_observables: usize,
    /// Adjacency list; node `num_detectors` is the virtual boundary.
    adjacency: Vec<Vec<MatchEdge>>,
    /// Exact-matching cutoff (number of defects).
    exact_limit: usize,
}

/// Shortest paths from one source node: per-node distance and the
/// observable mask accumulated along a shortest path.
struct PathRow {
    dist: Vec<f64>,
    mask: Vec<u64>,
}

/// Max-heap entry for Dijkstra (reversed ordering on weight).
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on distance for a min-heap behaviour inside BinaryHeap.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl MwpmDecoder {
    /// Builds the matching graph from a DEM.
    ///
    /// # Panics
    ///
    /// Panics if the DEM has more than 64 observables.
    pub fn new(dem: &DetectorErrorModel) -> Self {
        assert!(dem.num_observables() <= 64, "MWPM decoder supports at most 64 observables");
        let boundary = dem.num_detectors();
        let mut edges: HashMap<(usize, usize), (f64, u64)> = HashMap::new();

        // First pass: genuine edges (one or two detectors).
        for error in dem.errors() {
            let mask = pack_mask(&error.observables);
            match error.detectors.len() {
                0 => {}
                1 => add_edge(&mut edges, error.detectors[0], boundary, error.probability, mask),
                2 => add_edge(
                    &mut edges,
                    error.detectors[0],
                    error.detectors[1],
                    error.probability,
                    mask,
                ),
                _ => {}
            }
        }
        // Second pass: decompose hyperedges into existing edges when possible.
        let existing: Vec<(usize, usize)> = edges.keys().copied().collect();
        for error in dem.errors() {
            if error.detectors.len() <= 2 {
                continue;
            }
            let mask = pack_mask(&error.observables);
            let parts = decompose(&error.detectors, &existing, boundary);
            for (i, (a, b)) in parts.iter().enumerate() {
                let part_mask = if i == 0 { mask } else { 0 };
                add_edge(&mut edges, *a, *b, error.probability, part_mask);
            }
        }

        let mut adjacency = vec![Vec::new(); dem.num_detectors() + 1];
        for ((a, b), (p, mask)) in edges {
            let p = p.clamp(1e-12, 0.5 - 1e-12);
            let weight = ((1.0 - p) / p).ln();
            adjacency[a].push(MatchEdge { to: b, weight, observables: mask });
            adjacency[b].push(MatchEdge { to: a, weight, observables: mask });
        }
        MwpmDecoder {
            num_detectors: dem.num_detectors(),
            num_observables: dem.num_observables(),
            adjacency,
            exact_limit: 20,
        }
    }

    /// Number of nodes including the virtual boundary.
    fn num_nodes(&self) -> usize {
        self.num_detectors + 1
    }

    /// Dijkstra from `source`: per-node distance and accumulated
    /// observable mask along a shortest path.
    fn shortest_paths(&self, source: usize) -> PathRow {
        let mut dist = vec![f64::INFINITY; self.num_nodes()];
        let mut mask = vec![0u64; self.num_nodes()];
        let mut heap = BinaryHeap::new();
        dist[source] = 0.0;
        heap.push(HeapEntry { dist: 0.0, node: source });
        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if d > dist[node] {
                continue;
            }
            for edge in &self.adjacency[node] {
                let candidate = d + edge.weight;
                if candidate + 1e-12 < dist[edge.to] {
                    dist[edge.to] = candidate;
                    mask[edge.to] = mask[node] ^ edge.observables;
                    heap.push(HeapEntry { dist: candidate, node: edge.to });
                }
            }
        }
        PathRow { dist, mask }
    }

    /// Matches `defects` given the shortest-path row of each, returning
    /// the XOR of the observable masks of the matched paths: exactly up to
    /// the cutoff, greedily beyond it.
    fn match_defects(&self, defects: &[usize], rows: &[&PathRow]) -> u64 {
        if defects.len() <= self.exact_limit {
            self.match_exact(defects, rows).1
        } else {
            self.match_greedy(defects, rows)
        }
    }

    /// Exact minimum-weight matching over `defects` (plus the boundary) by
    /// bitmask dynamic programming. Returns the matching weight and the
    /// XOR of observable masks of the matched paths (infinity and 0 when
    /// no perfect matching exists).
    fn match_exact(&self, defects: &[usize], rows: &[&PathRow]) -> (f64, u64) {
        let m = defects.len();
        let boundary = self.num_detectors;
        let full = 1usize << m;
        let mut best = vec![f64::INFINITY; full];
        let mut best_mask = vec![0u64; full];
        best[0] = 0.0;
        for state in 0..full {
            if best[state].is_infinite() {
                continue;
            }
            let Some(i) = (0..m).find(|&i| state & (1 << i) == 0) else {
                continue;
            };
            // Option 1: match defect i to the boundary.
            let next = state | (1 << i);
            let row = rows[i];
            let to_boundary = row.dist[boundary];
            if to_boundary.is_finite() && best[state] + to_boundary < best[next] {
                best[next] = best[state] + to_boundary;
                best_mask[next] = best_mask[state] ^ row.mask[boundary];
            }
            // Option 2: match defect i with another unmatched defect j.
            for (j, &other) in defects.iter().enumerate().skip(i + 1) {
                if state & (1 << j) != 0 {
                    continue;
                }
                let pair_cost = row.dist[other];
                if !pair_cost.is_finite() {
                    continue;
                }
                let next = state | (1 << i) | (1 << j);
                if best[state] + pair_cost < best[next] {
                    best[next] = best[state] + pair_cost;
                    best_mask[next] = best_mask[state] ^ row.mask[other];
                }
            }
        }
        if best[full - 1].is_finite() {
            (best[full - 1], best_mask[full - 1])
        } else {
            (f64::INFINITY, 0)
        }
    }

    /// Greedy matching used beyond the exact-matching size limit.
    fn match_greedy(&self, defects: &[usize], rows: &[&PathRow]) -> u64 {
        let m = defects.len();
        let boundary = self.num_detectors;
        let mut unmatched: Vec<usize> = (0..m).collect();
        let mut result = 0u64;
        while let Some(&first) = unmatched.first() {
            let row = rows[first];
            let mut best_cost = row.dist[boundary];
            let mut best_choice: Option<usize> = None;
            let mut best_mask = row.mask[boundary];
            for &other in unmatched.iter().skip(1) {
                let cost = row.dist[defects[other]];
                if cost < best_cost {
                    best_cost = cost;
                    best_choice = Some(other);
                    best_mask = row.mask[defects[other]];
                }
            }
            if best_cost.is_finite() {
                result ^= best_mask;
            }
            unmatched.retain(|&i| i != first && Some(i) != best_choice);
        }
        result
    }
}

/// Merges an edge into the accumulating edge map, combining parallel edges
/// as independent mechanisms and keeping the dominant observable mask.
fn add_edge(
    edges: &mut HashMap<(usize, usize), (f64, u64)>,
    a: usize,
    b: usize,
    p: f64,
    mask: u64,
) {
    let key = if a <= b { (a, b) } else { (b, a) };
    let entry = edges.entry(key).or_insert((0.0, mask));
    let combined = entry.0 * (1.0 - p) + p * (1.0 - entry.0);
    if p > entry.0 {
        entry.1 = mask;
    }
    entry.0 = combined;
}

/// Packs a sorted observable index list into a bit mask.
fn pack_mask(observables: &[usize]) -> u64 {
    observables.iter().fold(0u64, |acc, &o| acc | (1 << o))
}

/// Attempts to decompose a hyperedge's detector set into pairs (or
/// singletons mapped to the boundary) that already exist as edges; falls
/// back to consecutive pairing.
fn decompose(
    detectors: &[usize],
    existing: &[(usize, usize)],
    boundary: usize,
) -> Vec<(usize, usize)> {
    let has = |a: usize, b: usize| {
        let key = if a <= b { (a, b) } else { (b, a) };
        existing.contains(&key)
    };
    if detectors.len() == 4 {
        let d = detectors;
        let partitions = [
            [(d[0], d[1]), (d[2], d[3])],
            [(d[0], d[2]), (d[1], d[3])],
            [(d[0], d[3]), (d[1], d[2])],
        ];
        for partition in partitions {
            if partition.iter().all(|&(a, b)| has(a, b)) {
                return partition.to_vec();
            }
        }
    }
    if detectors.len() == 3 {
        // Try one pair plus one boundary edge.
        for i in 0..3 {
            let single = detectors[i];
            let rest: Vec<usize> = detectors.iter().copied().filter(|&d| d != single).collect();
            if has(rest[0], rest[1]) && has(single, boundary) {
                return vec![(rest[0], rest[1]), (single, boundary)];
            }
        }
    }
    // Fallback: consecutive pairing, odd leftover to the boundary.
    let mut parts = Vec::new();
    let mut iter = detectors.chunks(2);
    for chunk in &mut iter {
        if chunk.len() == 2 {
            parts.push((chunk[0], chunk[1]));
        } else {
            parts.push((chunk[0], boundary));
        }
    }
    parts
}

/// The scalar oracle: a fresh Dijkstra from every defect of the shot.
impl ObservableDecoder for MwpmDecoder {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        let defects: Vec<usize> = detectors.ones().collect();
        if defects.is_empty() {
            return BitVec::zeros(self.num_observables);
        }
        let rows: Vec<PathRow> = defects.iter().map(|&d| self.shortest_paths(d)).collect();
        let rows: Vec<&PathRow> = rows.iter().collect();
        let result_mask = self.match_defects(&defects, &rows);
        BitVec::from_bools((0..self.num_observables).map(|i| (result_mask >> i) & 1 == 1))
    }
}

/// A shortest-path row depends only on its source, so one table of rows,
/// filled on first use, serves every hard shot of the call. The table
/// lives for the call only: decoders sit in the evaluator cache, and rows
/// kept there would grow its memory with every cached model.
impl ResidualDecoder for MwpmDecoder {
    fn decode_residual(
        &self,
        transposed: &BitMatrix,
        shot_indices: &[usize],
        predictions: &mut BitMatrix,
    ) {
        let mut table: Vec<Option<PathRow>> = (0..self.num_nodes()).map(|_| None).collect();
        let mut defects = Vec::new();
        for &s in shot_indices {
            defects.clear();
            defects.extend(ones(transposed.row_words(s)));
            for &d in &defects {
                if table[d].is_none() {
                    table[d] = Some(self.shortest_paths(d));
                }
            }
            let rows: Vec<&PathRow> = defects.iter().filter_map(|&d| table[d].as_ref()).collect();
            let mask = self.match_defects(&defects, &rows);
            for o in ones(&[mask]) {
                predictions.set(o, s, true);
            }
        }
    }
}

/// Factory for [`MwpmDecoder`] (wrapped in a memoisation cache).
#[derive(Debug, Clone, Default)]
pub struct MwpmFactory {
    _private: (),
}

impl MwpmFactory {
    /// Creates the factory.
    pub fn new() -> Self {
        MwpmFactory { _private: () }
    }
}

impl DecoderFactory for MwpmFactory {
    fn name(&self) -> &str {
        "mwpm"
    }

    fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
        Box::new(CachedDecoder::new(MwpmDecoder::new(dem)))
    }

    fn build_batch(
        &self,
        dem: &DetectorErrorModel,
    ) -> Box<dyn asynd_circuit::BatchObservableDecoder> {
        Box::new(CachedDecoder::new(MwpmDecoder::new(dem)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_circuit::DemError;

    /// A hand-built repetition-code-like DEM:
    /// detectors 0,1,2 in a chain; errors connect boundary-0, 0-1, 1-2,
    /// 2-boundary; the last one flips observable 0.
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
    fn quiet_syndrome_decodes_to_nothing() {
        let decoder = MwpmDecoder::new(&chain_dem());
        let prediction = decoder.decode(&BitVec::zeros(3));
        assert!(!prediction.any());
    }

    #[test]
    fn single_error_signatures_are_recovered() {
        let dem = chain_dem();
        let decoder = MwpmDecoder::new(&dem);
        for error in dem.errors() {
            let detectors = BitVec::from_indices(3, &error.detectors);
            let prediction = decoder.decode(&detectors);
            let expected = BitVec::from_indices(1, &error.observables);
            assert_eq!(prediction, expected, "failed for {:?}", error.detectors);
        }
    }

    #[test]
    fn matching_prefers_the_cheaper_explanation() {
        // Defect on detector 2 only: explanations are "error 3" (boundary,
        // flips the observable) or "errors 2+1+0" (three edges). The single
        // boundary edge is cheaper, so the observable must be predicted.
        let decoder = MwpmDecoder::new(&chain_dem());
        let prediction = decoder.decode(&BitVec::from_indices(3, &[2]));
        assert!(prediction.get(0));
    }

    #[test]
    fn two_defects_match_internally() {
        // Defects 0 and 1 are best explained by the single 0-1 edge, which
        // does not flip the observable.
        let decoder = MwpmDecoder::new(&chain_dem());
        let prediction = decoder.decode(&BitVec::from_indices(3, &[0, 1]));
        assert!(!prediction.get(0));
    }

    #[test]
    fn hyperedge_decomposition_does_not_panic() {
        let dem = DetectorErrorModel::from_parts(
            4,
            1,
            vec![
                DemError { probability: 0.01, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.01, detectors: vec![2, 3], observables: vec![0] },
                DemError { probability: 0.02, detectors: vec![0, 1, 2, 3], observables: vec![0] },
            ],
        );
        let decoder = MwpmDecoder::new(&dem);
        let prediction = decoder.decode(&BitVec::from_indices(4, &[0, 1, 2, 3]));
        // The four defects decompose into the two known edges; only one of
        // them carries the observable.
        assert!(prediction.get(0));
    }

    /// Brute-force minimum matching weight over `defects`: the lowest
    /// unmatched defect pairs with the boundary or with any later
    /// unmatched defect. Sums accumulate in the exact path's order (pairs
    /// by their lowest defect), so the two minima agree to the bit.
    fn brute_force_weight(rows: &[&PathRow], defects: &[usize], boundary: usize) -> f64 {
        fn search(
            rows: &[&PathRow],
            defects: &[usize],
            boundary: usize,
            unmatched: u32,
            acc: f64,
        ) -> f64 {
            let Some(i) = (0..defects.len()).find(|&i| unmatched & (1 << i) != 0) else {
                return acc;
            };
            let rest = unmatched & !(1 << i);
            let mut best = f64::INFINITY;
            let to_boundary = rows[i].dist[boundary];
            if to_boundary.is_finite() {
                best = best.min(search(rows, defects, boundary, rest, acc + to_boundary));
            }
            for j in (i + 1..defects.len()).filter(|&j| rest & (1 << j) != 0) {
                let pair = rows[i].dist[defects[j]];
                if pair.is_finite() {
                    best = best.min(search(rows, defects, boundary, rest & !(1 << j), acc + pair));
                }
            }
            best
        }
        search(rows, defects, boundary, (1 << defects.len()) - 1, 0.0)
    }

    #[test]
    fn exact_matching_reaches_the_brute_force_minimum_weight() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut checked = 0;
        for _ in 0..60 {
            let n = rng.gen_range(2..11usize);
            let errors = (0..rng.gen_range(n..3 * n))
                .map(|_| {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    let detectors = if a == b || rng.gen_range(0..4u32) == 0 {
                        vec![a]
                    } else {
                        vec![a.min(b), a.max(b)]
                    };
                    let probability = 0.005 + 0.3 * rng.gen_range(0..1000u32) as f64 / 1000.0;
                    let observables = if rng.gen_range(0..2u32) == 0 { vec![] } else { vec![0] };
                    DemError { probability, detectors, observables }
                })
                .collect();
            let decoder = MwpmDecoder::new(&DetectorErrorModel::from_parts(n, 1, errors));
            for _ in 0..10 {
                let mut defects: Vec<usize> =
                    (0..rng.gen_range(1..9usize)).map(|_| rng.gen_range(0..n)).collect();
                defects.sort_unstable();
                defects.dedup();
                let rows: Vec<PathRow> =
                    defects.iter().map(|&d| decoder.shortest_paths(d)).collect();
                let rows: Vec<&PathRow> = rows.iter().collect();
                let (weight, _) = decoder.match_exact(&defects, &rows);
                assert_eq!(weight, brute_force_weight(&rows, &defects, n), "defects {defects:?}");
                checked += usize::from(weight.is_finite());
            }
        }
        assert!(checked > 300, "only {checked} matchable defect sets");
    }

    #[test]
    fn greedy_path_used_for_many_defects() {
        // Six copies of one 4-detector block, all detectors firing: 24
        // defects, past the exact cutoff of 20. Every edge flips its own
        // observable, so the prediction spells out the matched edges. In
        // each block greedy pairs detector 0 with its nearest neighbour 1
        // (weight 2.94), which strands 2 and 3 on the boundary (3.51 and
        // 0.85): 7.30 in all. The minimum matching sends 0 to the boundary
        // and pairs 1 with 2 instead (3.18 + 1.39 + 0.85 = 5.41).
        let blocks = 6;
        let mut errors = Vec::new();
        for b in 0..blocks {
            let (d, o) = (4 * b, 5 * b);
            for (detectors, probability, observables) in [
                (vec![d, d + 1], 0.05, vec![o]),
                (vec![d + 1, d + 2], 0.2, vec![o + 1]),
                (vec![d + 2, d + 3], 1e-4, vec![]),
                (vec![d], 0.04, vec![o + 2]),
                (vec![d + 1], 1e-4, vec![]),
                (vec![d + 2], 0.029, vec![o + 3]),
                (vec![d + 3], 0.3, vec![o + 4]),
            ] {
                errors.push(DemError { probability, detectors, observables });
            }
        }
        let (n, num_observables) = (4 * blocks, 5 * blocks);
        let decoder = MwpmDecoder::new(&DetectorErrorModel::from_parts(n, num_observables, errors));
        // Greedy's matching per block: (0,1) -> observable 0, (2,boundary)
        // -> 3, (3,boundary) -> 4. It matches every defect exactly once.
        let greedy: [(usize, Option<usize>, usize); 3] =
            [(0, Some(1), 0), (2, None, 3), (3, None, 4)];
        let mut matched = vec![0; n];
        let mut expected = Vec::new();
        for b in 0..blocks {
            for &(u, v, observable) in &greedy {
                matched[4 * b + u] += 1;
                if let Some(v) = v {
                    matched[4 * b + v] += 1;
                }
                expected.push(5 * b + observable);
            }
        }
        assert!(matched.iter().all(|&count| count == 1));
        let all: Vec<usize> = (0..n).collect();
        let prediction = decoder.decode(&BitVec::from_indices(n, &all));
        assert_eq!(prediction, BitVec::from_indices(num_observables, &expected));
        // One block alone stays under the cutoff and gets the minimum
        // matching: (0,boundary) -> 2, (1,2) -> 1, (3,boundary) -> 4.
        let prediction = decoder.decode(&BitVec::from_indices(n, &[0, 1, 2, 3]));
        assert_eq!(prediction, BitVec::from_indices(num_observables, &[1, 2, 4]));
    }
}
