//! Dense GF(2) matrices with bit-packed rows.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{BitVec, PauliError};

/// A dense matrix over GF(2) with bit-packed rows.
///
/// `BinMatrix` underlies the linear algebra used throughout the workspace:
/// extracting logical operators of CSS codes (kernels and quotients) and
/// checking stabilizer independence (rank). It is also the reference
/// the decoders' word-level GF(2) kernel (union-find's cluster solves and
/// BP-OSD's OSD stage) is tested against.
///
/// # Example
///
/// ```
/// use asynd_pauli::{BinMatrix, BitVec};
///
/// // Parity-check matrix of the 3-bit repetition code.
/// let h = BinMatrix::from_dense(&[
///     &[1, 1, 0],
///     &[0, 1, 1],
/// ]);
/// assert_eq!(h.rank(), 2);
/// let kernel = h.kernel_basis();
/// assert_eq!(kernel.len(), 1);
/// assert_eq!(kernel[0].ones().collect::<Vec<_>>(), vec![0, 1, 2]);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinMatrix {
    rows: Vec<BitVec>,
    num_cols: usize,
}

impl BinMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(num_rows: usize, num_cols: usize) -> Self {
        BinMatrix { rows: vec![BitVec::zeros(num_cols); num_rows], num_cols }
    }

    /// Creates the identity matrix of the given size.
    pub fn identity(n: usize) -> Self {
        let mut m = BinMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from rows of 0/1 integers.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_dense<R: AsRef<[u8]>>(rows: &[R]) -> Self {
        let num_cols = rows.first().map(|r| r.as_ref().len()).unwrap_or(0);
        let mut m = BinMatrix::zeros(rows.len(), num_cols);
        for (i, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            assert_eq!(row.len(), num_cols, "ragged rows in BinMatrix::from_dense");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v % 2 == 1);
            }
        }
        m
    }

    /// Builds a matrix from pre-built bit rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let num_cols = rows.first().map(|r| r.len()).unwrap_or(0);
        for r in &rows {
            assert_eq!(r.len(), num_cols, "ragged rows in BinMatrix::from_rows");
        }
        BinMatrix { rows, num_cols }
    }

    /// Builds a matrix from per-row lists of set-column indices.
    pub fn from_row_supports(num_cols: usize, supports: &[Vec<usize>]) -> Self {
        let rows = supports.iter().map(|s| BitVec::from_indices(num_cols, s)).collect();
        BinMatrix { rows, num_cols }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Reads entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.rows[row].get(col)
    }

    /// Writes entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        self.rows[row].set(col, value);
    }

    /// Borrow of one row.
    pub fn row(&self, row: usize) -> &BitVec {
        &self.rows[row]
    }

    /// All rows.
    pub fn rows(&self) -> &[BitVec] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the matrix width.
    pub fn push_row(&mut self, row: BitVec) {
        assert_eq!(row.len(), self.num_cols, "row width mismatch in push_row");
        self.rows.push(row);
    }

    /// XORs row `src` into row `dst`.
    pub fn add_row_into(&mut self, src: usize, dst: usize) {
        assert_ne!(src, dst, "cannot add a row into itself");
        let (a, b) = if src < dst {
            let (lo, hi) = self.rows.split_at_mut(dst);
            (&lo[src], &mut hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(src);
            (&hi[0], &mut lo[dst])
        };
        b.xor_with(a);
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> BinMatrix {
        let mut t = BinMatrix::zeros(self.num_cols, self.num_rows());
        for (i, row) in self.rows.iter().enumerate() {
            for j in row.ones() {
                t.set(j, i, true);
            }
        }
        t
    }

    /// Matrix-vector product over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != num_cols()`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.num_cols, "vector length mismatch in mul_vec");
        BitVec::from_bools(self.rows.iter().map(|r| r.dot(v)))
    }

    /// Matrix-matrix product over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul(&self, other: &BinMatrix) -> BinMatrix {
        assert_eq!(self.num_cols, other.num_rows(), "inner dimension mismatch in mul");
        let other_t = other.transpose();
        let mut out = BinMatrix::zeros(self.num_rows(), other.num_cols());
        for (i, row) in self.rows.iter().enumerate() {
            for (j, col) in other_t.rows.iter().enumerate() {
                if row.dot(col) {
                    out.set(i, j, true);
                }
            }
        }
        out
    }

    /// Horizontally concatenates `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &BinMatrix) -> BinMatrix {
        assert_eq!(self.num_rows(), other.num_rows(), "row count mismatch in hstack");
        let mut out = BinMatrix::zeros(self.num_rows(), self.num_cols + other.num_cols);
        for i in 0..self.num_rows() {
            for j in self.rows[i].ones() {
                out.set(i, j, true);
            }
            for j in other.rows[i].ones() {
                out.set(i, self.num_cols + j, true);
            }
        }
        out
    }

    /// Vertically concatenates `[self; other]`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &BinMatrix) -> BinMatrix {
        assert_eq!(self.num_cols, other.num_cols, "column count mismatch in vstack");
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        BinMatrix { rows, num_cols: self.num_cols }
    }

    /// In-place Gaussian elimination to row echelon form.
    ///
    /// Returns the pivot columns, one per non-zero row of the reduced form
    /// (so `pivots.len()` is the rank). The reduction is "reduced" row
    /// echelon: pivot columns are cleared above and below the pivot.
    pub fn row_reduce(&mut self) -> Vec<usize> {
        let mut pivots = Vec::new();
        let mut pivot_row = 0usize;
        for col in 0..self.num_cols {
            if pivot_row >= self.rows.len() {
                break;
            }
            // Find a row at or below pivot_row with a 1 in this column.
            let Some(found) = (pivot_row..self.rows.len()).find(|&r| self.rows[r].get(col)) else {
                continue;
            };
            self.rows.swap(pivot_row, found);
            // Clear the column everywhere else.
            for r in 0..self.rows.len() {
                if r != pivot_row && self.rows[r].get(col) {
                    self.add_row_into(pivot_row, r);
                }
            }
            pivots.push(col);
            pivot_row += 1;
        }
        pivots
    }

    /// The rank of the matrix.
    pub fn rank(&self) -> usize {
        let mut copy = self.clone();
        copy.row_reduce().len()
    }

    /// A basis of the kernel (null space) `{x : A x = 0}`.
    pub fn kernel_basis(&self) -> Vec<BitVec> {
        let mut reduced = self.clone();
        let pivots = reduced.row_reduce();
        let pivot_set: std::collections::HashSet<usize> = pivots.iter().copied().collect();
        let free_cols: Vec<usize> = (0..self.num_cols).filter(|c| !pivot_set.contains(c)).collect();
        let mut basis = Vec::with_capacity(free_cols.len());
        for &free in &free_cols {
            let mut v = BitVec::zeros(self.num_cols);
            v.set(free, true);
            // Back-substitute: pivot variable value = entry of reduced row at `free`.
            for (row_idx, &pivot_col) in pivots.iter().enumerate() {
                if reduced.rows[row_idx].get(free) {
                    v.set(pivot_col, true);
                }
            }
            basis.push(v);
        }
        basis
    }

    /// Solves `A x = b`, returning one solution if it exists.
    ///
    /// # Errors
    ///
    /// Returns [`PauliError::DimensionMismatch`] if `b.len() != num_rows()`
    /// and [`PauliError::NoSolution`] if the system is inconsistent.
    pub fn solve(&self, b: &BitVec) -> Result<BitVec, PauliError> {
        if b.len() != self.num_rows() {
            return Err(PauliError::DimensionMismatch {
                context: format!("rhs length {} but matrix has {} rows", b.len(), self.num_rows()),
            });
        }
        // Augment with b as an extra column and reduce.
        let mut aug = BinMatrix::zeros(self.num_rows(), self.num_cols + 1);
        for i in 0..self.num_rows() {
            for j in self.rows[i].ones() {
                aug.set(i, j, true);
            }
            if b.get(i) {
                aug.set(i, self.num_cols, true);
            }
        }
        let pivots = aug.row_reduce();
        if pivots.contains(&self.num_cols) {
            return Err(PauliError::NoSolution);
        }
        let mut x = BitVec::zeros(self.num_cols);
        for (row_idx, &pivot_col) in pivots.iter().enumerate() {
            if aug.rows[row_idx].get(self.num_cols) {
                x.set(pivot_col, true);
            }
        }
        Ok(x)
    }

    /// The inverse of a square, invertible matrix.
    ///
    /// # Errors
    ///
    /// Returns [`PauliError::DimensionMismatch`] if the matrix is not square
    /// and [`PauliError::NoSolution`] if it is singular.
    pub fn inverse(&self) -> Result<BinMatrix, PauliError> {
        if self.num_rows() != self.num_cols {
            return Err(PauliError::DimensionMismatch {
                context: format!("cannot invert {}x{} matrix", self.num_rows(), self.num_cols),
            });
        }
        let n = self.num_cols;
        let mut aug = self.hstack(&BinMatrix::identity(n));
        let pivots = aug.row_reduce();
        // Invertible iff the pivots are exactly the first n columns.
        if pivots.len() != n || pivots.iter().enumerate().any(|(i, &p)| p != i) {
            return Err(PauliError::NoSolution);
        }
        let mut inv = BinMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if aug.get(i, n + j) {
                    inv.set(i, j, true);
                }
            }
        }
        Ok(inv)
    }

    /// Whether the given vector is in the row space of the matrix.
    pub fn row_space_contains(&self, v: &BitVec) -> bool {
        assert_eq!(v.len(), self.num_cols, "vector length mismatch in row_space_contains");
        self.transpose().solve(v).is_ok()
    }

    /// Reduces `v` against the row space (returns the canonical coset
    /// representative after eliminating with the matrix's reduced rows).
    ///
    /// The matrix is first row-reduced internally; the result is zero exactly
    /// when `v` lies in the row space.
    pub fn reduce_vector(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.num_cols, "vector length mismatch in reduce_vector");
        let mut reduced = self.clone();
        let pivots = reduced.row_reduce();
        let mut out = v.clone();
        for (row_idx, &pivot_col) in pivots.iter().enumerate() {
            if out.get(pivot_col) {
                out.xor_with(&reduced.rows[row_idx]);
            }
        }
        out
    }
}

impl fmt::Debug for BinMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BinMatrix({}x{}) [", self.num_rows(), self.num_cols)?;
        for row in &self.rows {
            write!(f, "  ")?;
            for j in 0..self.num_cols {
                write!(f, "{}", if row.get(j) { '1' } else { '0' })?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> BinMatrix {
        BinMatrix::from_dense(&[&[1, 1, 0, 0], &[0, 1, 1, 0], &[1, 0, 1, 0]])
    }

    #[test]
    fn rank_and_reduce() {
        let m = example();
        assert_eq!(m.rank(), 2); // third row is sum of the first two
        let mut r = m.clone();
        let pivots = r.row_reduce();
        assert_eq!(pivots, vec![0, 1]);
    }

    #[test]
    fn kernel_is_annihilated() {
        let m = example();
        for v in m.kernel_basis() {
            assert!(!m.mul_vec(&v).any(), "kernel vector not annihilated");
        }
        // kernel dimension = cols - rank = 4 - 2 = 2
        assert_eq!(m.kernel_basis().len(), 2);
    }

    #[test]
    fn solve_consistent_and_inconsistent() {
        let m = BinMatrix::from_dense(&[&[1, 1, 0], &[0, 1, 1]]);
        let b = BitVec::from_indices(2, &[0]);
        let x = m.solve(&b).unwrap();
        assert_eq!(m.mul_vec(&x), b);

        let singular = BinMatrix::from_dense(&[&[1, 1, 0], &[1, 1, 0]]);
        let bad = BitVec::from_indices(2, &[0]);
        assert_eq!(singular.solve(&bad), Err(PauliError::NoSolution));
    }

    #[test]
    fn transpose_and_mul() {
        let m = BinMatrix::from_dense(&[&[1, 0, 1], &[0, 1, 1]]);
        let t = m.transpose();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_cols(), 2);
        let prod = m.mul(&t);
        // M Mᵀ = [[0, 1], [1, 0]] over GF(2)
        assert!(!prod.get(0, 0));
        assert!(prod.get(0, 1));
        assert!(prod.get(1, 0));
        assert!(!prod.get(1, 1));
    }

    #[test]
    fn identity_behaves() {
        let i = BinMatrix::identity(5);
        assert_eq!(i.rank(), 5);
        let v = BitVec::from_indices(5, &[1, 3]);
        assert_eq!(i.mul_vec(&v), v);
    }

    #[test]
    fn stack_shapes() {
        let a = BinMatrix::zeros(2, 3);
        let b = BinMatrix::identity(2);
        let h = a.hstack(&b);
        assert_eq!((h.num_rows(), h.num_cols()), (2, 5));
        let c = BinMatrix::zeros(1, 3);
        let v = a.vstack(&c);
        assert_eq!((v.num_rows(), v.num_cols()), (3, 3));
    }

    #[test]
    fn row_space_membership() {
        let m = example();
        let in_space = BitVec::from_indices(4, &[0, 2]); // row0 + row1
        let out_space = BitVec::from_indices(4, &[3]);
        assert!(m.row_space_contains(&in_space));
        assert!(!m.row_space_contains(&out_space));
        assert!(!m.reduce_vector(&in_space).any());
        assert!(m.reduce_vector(&out_space).any());
    }

    #[test]
    fn inverse_roundtrip() {
        let m = BinMatrix::from_dense(&[&[1, 1, 0], &[0, 1, 1], &[0, 0, 1]]);
        let inv = m.inverse().unwrap();
        assert_eq!(m.mul(&inv), BinMatrix::identity(3));
        assert_eq!(inv.mul(&m), BinMatrix::identity(3));

        let singular = BinMatrix::from_dense(&[&[1, 1], &[1, 1]]);
        assert!(singular.inverse().is_err());
        let rect = BinMatrix::zeros(2, 3);
        assert!(rect.inverse().is_err());
    }

    #[test]
    fn from_row_supports_matches_dense() {
        let a = BinMatrix::from_row_supports(4, &[vec![0, 2], vec![1]]);
        let b = BinMatrix::from_dense(&[&[1, 0, 1, 0], &[0, 1, 0, 0]]);
        assert_eq!(a, b);
    }
}
