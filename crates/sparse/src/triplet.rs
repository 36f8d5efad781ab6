//! Coordinate-format (COO) accumulator used while stamping net models.

use crate::csr::CsrMatrix;

/// A sparse matrix under construction, stored as `(row, col, value)` triplets.
///
/// Quadratic net models (Bound2Bound, star, clique) are "stamped" into a
/// `TripletMatrix` one connection at a time; duplicate coordinates are
/// accumulated (summed) when converting to [`CsrMatrix`]. Anchor pseudonets
/// add to the diagonal the same way.
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

    /// Creates an empty accumulator with room for `cap` triplets.
    pub fn with_capacity(n: usize, cap: usize) -> Self {
        Self {
            n,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
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

    /// Adds `value` at `(row, col)`. Duplicates accumulate. Returns
    /// whether the triplet was stored: an exact `0.0` is skipped.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) -> bool {
        assert!(row < self.n && col < self.n, "triplet index out of bounds");
        // Skips explicit structural zeros only;
        // small nonzero values must be stored.
        if value == 0.0 {
            return false;
        }
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.vals.push(value);
        true
    }

    /// Adds `value` to the diagonal entry `(i, i)`; returns whether it was
    /// stored (see [`Self::add`]).
    pub fn add_diagonal(&mut self, i: usize, value: f64) -> bool {
        self.add(i, i, value)
    }

    /// Stamps a two-pin spring of weight `w` between movable variables
    /// `i` and `j`: adds `w` to both diagonal entries and `−w` to both
    /// off-diagonal entries. This is the Laplacian stamp used by every
    /// quadratic net model. Returns whether the stamp was stored (all four
    /// triplets are, unless `w` is `0.0`).
    pub fn add_connection(&mut self, i: usize, j: usize, w: f64) -> bool {
        debug_assert!(i != j, "self-connection has no effect on the Laplacian");
        let stored = self.add(i, i, w);
        self.add(j, j, w);
        self.add(i, j, -w);
        self.add(j, i, -w);
        stored
    }

    /// Removes all triplets, keeping the allocation; dimension is preserved.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Removes all triplets and sets the dimension to `n`, keeping the
    /// allocation.
    pub fn reset(&mut self, n: usize) {
        self.clear();
        self.n = n;
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

    #[test]
    fn clear_keeps_dimension() {
        let mut t = TripletMatrix::new(3);
        t.add(1, 1, 1.0);
        t.clear();
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.dim(), 3);
        t.add(2, 2, 1.0);
        t.reset(5);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.dim(), 5);
    }

    #[test]
    fn add_reports_whether_stored() {
        let mut t = TripletMatrix::new(3);
        assert!(t.add_diagonal(0, 1.0));
        assert!(!t.add_diagonal(1, 0.0));
        assert!(t.add_connection(0, 2, f64::NAN));
        assert!(!t.add_connection(0, 2, -0.0));
        assert_eq!(t.nnz(), 5);
    }
}
