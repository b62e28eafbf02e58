//! Shared decoder infrastructure: the sparse detector-by-error matrix view
//! of a DEM, the GF(2) elimination kernel and common error types.

use std::error::Error;
use std::fmt;

use asynd_circuit::DetectorErrorModel;
use asynd_pauli::BitVec;

/// Errors raised while constructing decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecoderError {
    /// The DEM has more observables than the decoder's compact
    /// representation supports (64).
    TooManyObservables {
        /// Number of observables in the DEM.
        found: usize,
    },
    /// The DEM contains an error mechanism whose detector count is not
    /// supported by the decoder (e.g. MWPM needs at most 2 after
    /// decomposition).
    UnsupportedHyperedge {
        /// Number of detectors of the offending mechanism.
        detectors: usize,
    },
}

impl fmt::Display for DecoderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecoderError::TooManyObservables { found } => {
                write!(
                    f,
                    "detector error model has {found} observables, more than the supported 64"
                )
            }
            DecoderError::UnsupportedHyperedge { detectors } => {
                write!(
                    f,
                    "error mechanism touches {detectors} detectors, unsupported by this decoder"
                )
            }
        }
    }
}

impl Error for DecoderError {}

/// A sparse column view of a DEM: for every error mechanism, its detectors,
/// prior probability and packed observable mask; and for every detector, the
/// list of mechanisms touching it.
///
/// This is the common substrate of the BP-OSD and union-find decoders.
#[derive(Debug, Clone)]
pub struct DecodeMatrix {
    num_detectors: usize,
    num_observables: usize,
    /// Per-error detector lists (columns).
    columns: Vec<Vec<usize>>,
    /// Per-error prior probabilities.
    priors: Vec<f64>,
    /// Per-error observable masks, bit i set when the error flips observable i.
    observable_masks: Vec<u64>,
    /// Start of every detector's row in `row_errors` (length
    /// `num_detectors + 1`).
    row_offsets: Vec<usize>,
    /// Incident errors of every detector (rows), concatenated in detector
    /// order: entry `e` is the error of Tanner-graph edge `e`.
    row_errors: Vec<usize>,
}

impl DecodeMatrix {
    /// Builds the matrix view of a DEM.
    ///
    /// # Errors
    ///
    /// Returns [`DecoderError::TooManyObservables`] when the DEM has more
    /// than 64 observables.
    pub fn new(dem: &DetectorErrorModel) -> Result<Self, DecoderError> {
        if dem.num_observables() > 64 {
            return Err(DecoderError::TooManyObservables { found: dem.num_observables() });
        }
        let mut columns = Vec::with_capacity(dem.errors().len());
        let mut priors = Vec::with_capacity(dem.errors().len());
        let mut observable_masks = Vec::with_capacity(dem.errors().len());
        let mut rows = vec![Vec::new(); dem.num_detectors()];
        for (j, error) in dem.errors().iter().enumerate() {
            for &d in &error.detectors {
                rows[d].push(j);
            }
            columns.push(error.detectors.clone());
            priors.push(error.probability.clamp(1e-12, 1.0 - 1e-12));
            let mut mask = 0u64;
            for &o in &error.observables {
                mask |= 1 << o;
            }
            observable_masks.push(mask);
        }
        Ok(DecodeMatrix {
            num_detectors: dem.num_detectors(),
            num_observables: dem.num_observables(),
            columns,
            priors,
            observable_masks,
            row_offsets: std::iter::once(0)
                .chain(rows.iter().scan(0, |end, row| {
                    *end += row.len();
                    Some(*end)
                }))
                .collect(),
            row_errors: rows.concat(),
        })
    }

    /// Number of detectors (matrix rows).
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of observables.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Number of error mechanisms (matrix columns).
    pub fn num_errors(&self) -> usize {
        self.columns.len()
    }

    /// The detectors flipped by error `j`.
    pub fn column(&self, j: usize) -> &[usize] {
        &self.columns[j]
    }

    /// The errors incident on detector `d`.
    pub fn row(&self, d: usize) -> &[usize] {
        &self.row_errors[self.edges(d)]
    }

    /// The Tanner-graph edges of detector `d`: the positions of its row in
    /// [`DecodeMatrix::edge_errors`], so per-edge state can live in one
    /// flat array.
    pub(crate) fn edges(&self, d: usize) -> std::ops::Range<usize> {
        self.row_offsets[d]..self.row_offsets[d + 1]
    }

    /// The error of every Tanner-graph edge, rows concatenated in detector
    /// order.
    pub(crate) fn edge_errors(&self) -> &[usize] {
        &self.row_errors
    }

    /// Prior probability of error `j`.
    pub fn prior(&self, j: usize) -> f64 {
        self.priors[j]
    }

    /// Prior log-likelihood ratio `ln((1-p)/p)` of error `j`.
    pub fn prior_llr(&self, j: usize) -> f64 {
        ((1.0 - self.priors[j]) / self.priors[j]).ln()
    }

    /// Packed observable mask of error `j`.
    pub fn observable_mask(&self, j: usize) -> u64 {
        self.observable_masks[j]
    }

    /// Expands a packed observable mask into a [`BitVec`] prediction.
    pub fn mask_to_bitvec(&self, mask: u64) -> BitVec {
        BitVec::from_bools((0..self.num_observables).map(|i| (mask >> i) & 1 == 1))
    }

    /// The syndrome produced by a set of errors (XOR of their columns).
    pub fn syndrome_of(&self, errors: &[usize]) -> BitVec {
        let mut syndrome = BitVec::zeros(self.num_detectors);
        for &j in errors {
            for &d in &self.columns[j] {
                syndrome.flip(d);
            }
        }
        syndrome
    }

    /// The combined observable mask of a set of errors.
    pub fn observables_of(&self, errors: &[usize]) -> u64 {
        errors.iter().fold(0u64, |acc, &j| acc ^ self.observable_masks[j])
    }
}

/// Bits per word of a packed GF(2) vector or system row.
pub(crate) const WORD: usize = 64;

/// The crate's one GF(2) solver: a reusable scratch holding an augmented
/// system `[A | b]` row-major in flat `u64` words, filled by the caller in
/// its own column order (position `cols` is `b`) and solved by one reduced
/// row echelon pass.
///
/// Pivots are picked column by column from the first row at or below the
/// pivot row, so earlier positions are preferred and pivots never depend
/// on `b`; a pivot in the `b` column means the system is inconsistent.
#[derive(Debug, Default)]
pub(crate) struct Gf2System {
    cols: usize,
    /// Words per row.
    stride: usize,
    words: Vec<u64>,
    /// Position of the pivot of every nonzero reduced row, ascending.
    pub(crate) pivots: Vec<usize>,
    /// Kernel vector of every free position `solve` built one for; only
    /// those entries are ever read, the rest are stale.
    slot: Vec<usize>,
}

impl Gf2System {
    /// Clears the scratch to `rows` all-zero equations in `cols` unknowns.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        (self.cols, self.stride) = (cols, (cols + 1).div_ceil(WORD));
        self.words.clear();
        self.words.resize(rows * self.stride, 0);
        self.pivots.clear();
    }

    /// Sets entry `(row, pos)`.
    #[inline]
    pub(crate) fn set(&mut self, row: usize, pos: usize) {
        set_bit(&mut self.words[row * self.stride..], pos);
    }

    /// Reduces the system in place and returns whether it is consistent.
    #[inline]
    pub(crate) fn eliminate(&mut self) -> bool {
        let stride = self.stride;
        let rows = self.words.len() / stride;
        for col in 0..=self.cols {
            let pivot_row = self.pivots.len();
            if pivot_row >= rows {
                break;
            }
            let (w, bit) = (col / WORD, 1u64 << (col % WORD));
            let Some(found) = (pivot_row..rows).find(|&r| self.words[r * stride + w] & bit != 0)
            else {
                continue;
            };
            if found != pivot_row {
                for i in 0..stride {
                    self.words.swap(pivot_row * stride + i, found * stride + i);
                }
            }
            // Rows at or below the pivot row are zero left of `col`, so
            // clearing the column only needs the words from `w` on.
            for r in (0..rows).filter(|&r| r != pivot_row) {
                if self.words[r * stride + w] & bit != 0 {
                    for i in w..stride {
                        self.words[r * stride + i] ^= self.words[pivot_row * stride + i];
                    }
                }
            }
            self.pivots.push(col);
        }
        self.pivots.last() != Some(&self.cols)
    }

    /// Reads a consistent reduced system: its particular solution (free
    /// positions 0) into `particular`, and into `kernel` the vectors of its
    /// first `limit` free positions, whose count it returns. Vectors take
    /// `cols.div_ceil(WORD)` words each, position `p` at bit `map(p)`. The
    /// vector of free position `f` holds `f` and every pivot whose reduced
    /// row has a 1 at `f`.
    pub(crate) fn solve(
        &mut self,
        limit: usize,
        particular: &mut Vec<u64>,
        kernel: &mut Vec<u64>,
        map: impl Fn(usize) -> usize,
    ) -> usize {
        let words = self.cols.div_ceil(WORD);
        let built = limit.min(self.cols - self.pivots.len());
        particular.clear();
        particular.resize(words, 0);
        for (r, &pivot) in self.pivots.iter().enumerate() {
            if self.words[r * self.stride + self.cols / WORD] >> (self.cols % WORD) & 1 == 1 {
                set_bit(particular, map(pivot));
            }
        }
        kernel.clear();
        kernel.resize(built * words, 0);
        if self.slot.len() < self.cols {
            self.slot.resize(self.cols, 0);
        }
        let mut pivots = self.pivots.iter().peekable();
        let (mut k, mut end) = (0, 0);
        for pos in 0..self.cols {
            if k == built {
                break;
            }
            if pivots.next_if_eq(&&pos).is_none() {
                self.slot[pos] = k;
                set_bit(&mut kernel[k * words..(k + 1) * words], map(pos));
                (k, end) = (k + 1, pos + 1);
            }
        }
        for (r, &pivot) in self.pivots.iter().enumerate() {
            // A reduced row's first set bit is its pivot and its last may
            // be the `b` bit; the ones between are free positions.
            let row = &self.words[r * self.stride..(r + 1) * self.stride];
            for pos in ones(row).skip(1).take_while(|&pos| pos < end) {
                let k = self.slot[pos];
                set_bit(&mut kernel[k * words..(k + 1) * words], map(pivot));
            }
        }
        built
    }
}

/// Sets bit `i` of a word slice.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / WORD] |= 1 << (i % WORD);
}

/// Positions of the set bits of a word slice, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// A memoising wrapper around any decoder: identical detector patterns are
/// decoded once and served from a cache afterwards.
///
/// Syndrome distributions at realistic noise rates are heavily concentrated
/// on a small set of patterns (most shots have zero or one detection
/// event), so caching speeds up the Monte-Carlo evaluation loop — and
/// therefore MCTS rollouts — by an order of magnitude without changing any
/// decoding decision.
pub struct CachedDecoder<D> {
    pub(crate) inner: D,
    pub(crate) cache: std::sync::Mutex<std::collections::HashMap<Vec<u64>, BitVec>>,
}

impl<D: asynd_circuit::ObservableDecoder> CachedDecoder<D> {
    /// Wraps a decoder with a memoisation cache.
    pub fn new(inner: D) -> Self {
        CachedDecoder { inner, cache: std::sync::Mutex::new(std::collections::HashMap::new()) }
    }

    /// Gives back the wrapped decoder.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: asynd_circuit::ObservableDecoder> asynd_circuit::ObservableDecoder for CachedDecoder<D> {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        let key: Vec<u64> = detectors.words().to_vec();
        if let Some(hit) = self.cache.lock().expect("decoder cache poisoned").get(&key) {
            return hit.clone();
        }
        let result = self.inner.decode(detectors);
        self.cache.lock().expect("decoder cache poisoned").insert(key, result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_circuit::DemError;

    fn toy_dem() -> DetectorErrorModel {
        DetectorErrorModel::from_parts(
            3,
            2,
            vec![
                DemError { probability: 0.1, detectors: vec![0], observables: vec![0] },
                DemError { probability: 0.2, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.3, detectors: vec![1, 2], observables: vec![1] },
            ],
        )
    }

    #[test]
    fn matrix_view_shapes() {
        let m = DecodeMatrix::new(&toy_dem()).unwrap();
        assert_eq!(m.num_detectors(), 3);
        assert_eq!(m.num_errors(), 3);
        assert_eq!(m.row(0), &[0, 1]);
        assert_eq!(m.row(2), &[2]);
        assert_eq!(m.edges(1), 2..4);
        assert_eq!(m.edge_errors(), &[0, 1, 1, 2, 2]);
        assert_eq!(m.column(1), &[0, 1]);
        assert_eq!(m.observable_mask(0), 0b01);
        assert_eq!(m.observable_mask(2), 0b10);
        assert!(m.prior_llr(0) > m.prior_llr(2));
    }

    #[test]
    fn syndrome_and_observables_of_sets() {
        let m = DecodeMatrix::new(&toy_dem()).unwrap();
        let syndrome = m.syndrome_of(&[0, 2]);
        assert_eq!(syndrome.ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(m.observables_of(&[0, 2]), 0b11);
        let pred = m.mask_to_bitvec(0b10);
        assert!(!pred.get(0));
        assert!(pred.get(1));
    }

    #[test]
    fn too_many_observables_rejected() {
        let dem = DetectorErrorModel::from_parts(1, 100, vec![]);
        assert!(matches!(
            DecodeMatrix::new(&dem),
            Err(DecoderError::TooManyObservables { found: 100 })
        ));
    }
}
