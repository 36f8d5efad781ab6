//! Coordinate-format (COO) accumulator: the reference matrix builder for
//! tests, doc examples and the kernels bench.

use crate::csr::CsrMatrix;

/// A sparse matrix under construction, stored as `(row, col, value)` triplets.
///
/// Connections are stamped one at a time and duplicate coordinates are
/// accumulated (summed) when converting to [`CsrMatrix`]. It is the simple
/// reference builder for tests, doc examples and the kernels bench; the
/// placer assembles its systems through [`crate::CsrWorkspace`].
///
/// # Example
///
/// ```
/// use complx_sparse::TripletMatrix;
///
/// let mut t = TripletMatrix::new(3);
/// // A two-pin connection between variables 0 and 2 with weight w:
/// t.add_connection(0, 2, 5.0);
/// let a = t.to_csr();
/// assert_eq!(a.get(0, 0), 5.0);
/// assert_eq!(a.get(0, 2), -5.0);
/// assert_eq!(a.get(2, 2), 5.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    n: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl TripletMatrix {
    /// Creates an empty accumulator for an `n`×`n` matrix.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// The matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of raw (possibly duplicate) triplets stored so far.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Adds `value` at `(row, col)`. Duplicates accumulate; an exact `0.0`
    /// is skipped.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "triplet index out of bounds");
        // Skips explicit structural zeros only;
        // small nonzero values must be stored.
        if value == 0.0 {
            return;
        }
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.vals.push(value);
    }

    /// Adds `value` to the diagonal entry `(i, i)`.
    pub fn add_diagonal(&mut self, i: usize, value: f64) {
        self.add(i, i, value);
    }

    /// Stamps a two-pin spring of weight `w` between movable variables
    /// `i` and `j`: adds `w` to both diagonal entries and `−w` to both
    /// off-diagonal entries — the Laplacian stamp of every quadratic net
    /// model.
    pub fn add_connection(&mut self, i: usize, j: usize, w: f64) {
        debug_assert!(i != j, "self-connection has no effect on the Laplacian");
        self.add(i, i, w);
        self.add(j, j, w);
        self.add(i, j, -w);
        self.add(j, i, -w);
    }

    /// Converts to a [`CsrMatrix`], summing duplicate coordinates in
    /// insertion order.
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_triplets(self.n, &self.rows, &self.cols, &self.vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let t = TripletMatrix::new(4);
        let a = t.to_csr();
        assert_eq!(a.dim(), 4);
        assert_eq!(a.nnz(), 0);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 1, 1.5);
        t.add(0, 1, 2.5);
        let a = t.to_csr();
        assert_eq!(a.get(0, 1), 4.0);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn zero_entries_skipped() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 0.0);
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn connection_stamp_is_laplacian() {
        let mut t = TripletMatrix::new(3);
        t.add_connection(0, 2, 2.0);
        let a = t.to_csr();
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(2, 2), 2.0);
        assert_eq!(a.get(0, 2), -2.0);
        assert_eq!(a.get(2, 0), -2.0);
        assert_eq!(a.get(1, 1), 0.0);
        // Row sums of a pure Laplacian are zero.
        let v = vec![1.0; 3];
        let mut out = vec![0.0; 3];
        a.mul_vec(&v, &mut out);
        assert!(out.iter().all(|&x| x.abs() < 1e-14));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut t = TripletMatrix::new(2);
        t.add(2, 0, 1.0);
    }
}
