//! Compressed sparse row storage.

use crate::TripletMatrix;

/// Matrices with fewer stored entries than this multiply sequentially —
/// pool dispatch costs more than the multiply below it. The gate depends
/// only on the matrix, never the thread count, and the parallel kernel
/// writes each output row exactly once, so `mul_vec` results are
/// bit-identical for every thread count.
const PAR_MIN_NNZ: usize = 8192;

/// Raw triplet counts from which [`CsrWorkspace::assemble`] sorts and
/// merges rows on the `complx-par` pool. Rows are merged independently and
/// each row's entries reach the same sort call for any row partition, so
/// the assembled matrix is bit-identical for every thread count; the gate
/// only keeps pool dispatch off small matrices.
pub const PAR_MIN_MERGE_NNZ: usize = 8192;

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Rows are stored contiguously; within each row, column indices are strictly
/// increasing. The matrix is not required to be symmetric, but the placement
/// systems built on top of it always are, and [`CsrMatrix::is_symmetric`]
/// lets tests assert it.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Default for CsrMatrix {
    /// The empty 0×0 matrix.
    fn default() -> Self {
        Self {
            n: 0,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }
}

/// One run of `(row, col, value)` triplets as parallel slices.
#[derive(Clone, Copy)]
pub(crate) struct Part<'a> {
    pub(crate) rows: &'a [u32],
    pub(crate) cols: &'a [u32],
    pub(crate) vals: &'a [f64],
}

/// Reusable scratch for building [`CsrMatrix`] values from triplets.
///
/// Assembly is count → prefix → scatter → per-row sort and merge. Every
/// buffer is cleared and refilled on each call, so one workspace serves
/// matrices of any size, and repeated builds of similar systems allocate
/// nothing once the buffers have grown.
///
/// # Summation order
///
/// The parts are read as one concatenated triplet sequence. Each row's
/// entries are gathered in that order, sorted with
/// `sort_unstable_by_key` on the column, and duplicates are summed left to
/// right in the order the sort leaves them; sums of exactly `0.0` are
/// dropped. The result is bit-identical to [`CsrMatrix::from_triplets`]
/// on the concatenation, for any thread count.
#[derive(Debug, Clone, Default)]
pub struct CsrWorkspace {
    /// Row `r`'s raw entries occupy `start[r]..start[r + 1]` of `raw`.
    start: Vec<usize>,
    /// Scatter cursor per row.
    cursor: Vec<usize>,
    /// Raw `(col, value)` entries grouped by row; merged in place.
    raw: Vec<(u32, f64)>,
    /// Entries each row keeps after merging.
    kept: Vec<usize>,
}

impl CsrWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds `out` as the `n`×`n` matrix of the triplets of `parts`,
    /// taken in order, reusing `out`'s storage.
    ///
    /// # Panics
    ///
    /// Panics if a part's dimension is not `n`.
    pub fn assemble(&mut self, n: usize, parts: &[&TripletMatrix], out: &mut CsrMatrix) {
        for p in parts {
            assert_eq!(p.dim(), n, "CsrWorkspace::assemble: dimension mismatch");
        }
        let parts: Vec<Part<'_>> = parts.iter().map(|p| p.part()).collect();
        self.build(n, &parts, out);
    }

    /// The builder behind [`Self::assemble`] and
    /// [`CsrMatrix::from_triplets`].
    fn build(&mut self, n: usize, parts: &[Part<'_>], out: &mut CsrMatrix) {
        // Count entries per row, then prefix-sum into row starts.
        self.start.clear();
        self.start.resize(n + 1, 0);
        for p in parts {
            for &r in p.rows {
                assert!((r as usize) < n, "row index out of bounds");
                self.start[r as usize + 1] += 1;
            }
        }
        for i in 0..n {
            self.start[i + 1] += self.start[i];
        }

        // Scatter into row-grouped entries, in part order.
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.start[..n]);
        self.raw.clear();
        self.raw.resize(self.start[n], (0, 0.0));
        for p in parts {
            for ((&r, &c), &v) in p.rows.iter().zip(p.cols).zip(p.vals) {
                assert!((c as usize) < n, "col index out of bounds");
                let dst = &mut self.cursor[r as usize];
                self.raw[*dst] = (c, v);
                *dst += 1;
            }
        }

        self.kept.clear();
        self.kept.resize(n, 0);
        self.merge_rows();

        // Compact the kept entries of every row into `out`.
        out.n = n;
        out.row_ptr.clear();
        out.row_ptr.reserve(n + 1);
        out.row_ptr.push(0);
        out.col_idx.clear();
        out.values.clear();
        for r in 0..n {
            let lo = self.start[r];
            for &(c, v) in &self.raw[lo..lo + self.kept[r]] {
                out.col_idx.push(c);
                out.values.push(v);
            }
            out.row_ptr.push(out.col_idx.len());
        }
    }

    /// Sorts and merges every row of `raw` in place, on the pool when the
    /// matrix is large enough.
    fn merge_rows(&mut self) {
        let Self {
            start, raw, kept, ..
        } = self;
        let n = kept.len();
        let t = complx_par::threads().min(n.max(1));
        if raw.len() < PAR_MIN_MERGE_NNZ || t <= 1 {
            merge_row_range(start, raw, kept, 0);
            return;
        }
        // Any row partition gives the same bits.
        let bounds = balanced_row_bounds(start, t);
        let start = &start[..];
        let car = complx_obs::carrier();
        complx_par::scope(|s| {
            let mut raw_rest = &mut raw[..];
            let mut kept_rest = &mut kept[..];
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let (raw_part, raw_tail) = raw_rest.split_at_mut(start[hi] - start[lo]);
                raw_rest = raw_tail;
                let (kept_part, kept_tail) = kept_rest.split_at_mut(hi - lo);
                kept_rest = kept_tail;
                let car = &car;
                s.spawn(move || {
                    let _attached = car.attach();
                    let _sp = complx_obs::span("chunks");
                    merge_row_range(start, raw_part, kept_part, lo);
                });
            }
        });
    }
}

/// Splits rows `0..n` into `t` contiguous ranges of about equal entry
/// count, given the `n + 1` row offsets `prefix`: the k-th boundary is the
/// first row whose cumulative entry count reaches k/t of the total.
fn balanced_row_bounds(prefix: &[usize], t: usize) -> Vec<usize> {
    let n = prefix.len() - 1;
    let total = prefix[n];
    let mut bounds = Vec::with_capacity(t + 1);
    bounds.push(0usize);
    let mut prev_bound = 0usize;
    for k in 1..t {
        let row = prefix.partition_point(|&p| p < k * total / t).min(n);
        prev_bound = row.max(prev_bound);
        bounds.push(prev_bound);
    }
    bounds.push(n);
    bounds
}

/// Sorts and merges rows `row0 .. row0 + kept.len()`, whose raw entries
/// are `raw` (beginning at `start[row0]`); records each row's kept count.
fn merge_row_range(start: &[usize], raw: &mut [(u32, f64)], kept: &mut [usize], row0: usize) {
    let base = start[row0];
    for (k, slot) in kept.iter_mut().enumerate() {
        let r = row0 + k;
        let row = &mut raw[start[r] - base..start[r + 1] - base];
        row.sort_unstable_by_key(|&(c, _)| c);
        let mut w = 0;
        let mut i = 0;
        while i < row.len() {
            let (c, mut v) = row[i];
            let mut j = i + 1;
            while j < row.len() && row[j].0 == c {
                v += row[j].1;
                j += 1;
            }
            // lint:allow(no-float-eq): drops entries that sum to exact
            // zero (e.g. +a + -a); small values must be kept.
            if v != 0.0 {
                row[w] = (c, v);
                w += 1;
            }
            i = j;
        }
        *slot = w;
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from parallel triplet arrays, summing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or contain out-of-bounds
    /// indices.
    pub fn from_triplets(n: usize, rows: &[u32], cols: &[u32], vals: &[f64]) -> Self {
        assert_eq!(rows.len(), cols.len());
        assert_eq!(rows.len(), vals.len());
        let mut out = Self::default();
        CsrWorkspace::new().build(n, &[Part { rows, cols, vals }], &mut out);
        out
    }

    /// The matrix dimension (the matrix is square).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the entry at `(row, col)`, or `0.0` if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n);
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        match self.col_idx[lo..hi].binary_search(&(col as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Computes `out = A·v`.
    ///
    /// Large matrices are multiplied on the `complx-par` pool, with rows
    /// partitioned into contiguous, nnz-balanced ranges. Each output row is
    /// written exactly once, so results are bit-identical across thread
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `out` have length different from [`CsrMatrix::dim`].
    pub fn mul_vec(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(
            v.len(),
            self.n,
            "CsrMatrix::mul_vec: input vector length {} does not match matrix dim {}",
            v.len(),
            self.n
        );
        assert_eq!(
            out.len(),
            self.n,
            "CsrMatrix::mul_vec: output vector length {} does not match matrix dim {}",
            out.len(),
            self.n
        );
        debug_assert_eq!(self.row_ptr.len(), self.n + 1, "corrupt row_ptr");
        let t = complx_par::threads().min(self.n.max(1));
        if self.nnz() < PAR_MIN_NNZ || t <= 1 {
            self.mul_vec_rows(v, out, 0);
            return;
        }
        // The boundaries depend on the thread count, which is fine here:
        // per-row outputs are independent, so any partition produces
        // identical bits.
        let bounds = balanced_row_bounds(&self.row_ptr, t);
        let car = complx_obs::carrier();
        complx_par::scope(|s| {
            let mut rest = out;
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let (part, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                let car = &car;
                s.spawn(move || {
                    let _attached = car.attach();
                    let _sp = complx_obs::span("chunks");
                    self.mul_vec_rows(v, part, lo);
                });
            }
        });
    }

    /// The sequential multiply kernel for rows `row0 .. row0 + out.len()`.
    fn mul_vec_rows(&self, v: &[f64], out: &mut [f64], row0: usize) {
        for (i, slot) in out.iter_mut().enumerate() {
            let r = row0 + i;
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * v[self.col_idx[k] as usize];
            }
            *slot = acc;
        }
    }

    /// Returns the diagonal as a dense vector (zeros for missing entries).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, i)).collect()
    }

    /// Computes the quadratic form `vᵀAv`.
    pub fn quadratic_form(&self, v: &[f64]) -> f64 {
        assert_eq!(v.len(), self.n);
        let mut acc = 0.0;
        for r in 0..self.n {
            let mut row_acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                row_acc += self.values[k] * v[self.col_idx[k] as usize];
            }
            acc += v[r] * row_acc;
        }
        acc
    }

    /// Checks symmetry up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.n {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                if (self.values[k] - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Iterates over the stored entries of row `r` as `(col, value)` pairs.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .map(|&c| c as usize)
            .zip(self.values[lo..hi].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        let mut t = TripletMatrix::new(3);
        t.add(0, 0, 2.0);
        t.add(0, 1, -1.0);
        t.add(1, 0, -1.0);
        t.add(1, 1, 2.0);
        t.add(1, 2, -1.0);
        t.add(2, 1, -1.0);
        t.add(2, 2, 2.0);
        t.to_csr()
    }

    #[test]
    fn get_and_nnz() {
        let a = sample();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(2, 1), -1.0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = sample();
        let v = [1.0, 2.0, 3.0];
        let mut out = vec![0.0; 3];
        a.mul_vec(&v, &mut out);
        assert_eq!(out, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn quadratic_form_positive_definite() {
        let a = sample();
        // Tridiagonal Toeplitz [2,-1] is SPD.
        for v in [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-1.0, 2.0, -1.0]] {
            assert!(a.quadratic_form(&v) > 0.0);
        }
    }

    #[test]
    fn symmetry_check() {
        let a = sample();
        assert!(a.is_symmetric(1e-12));
        let mut t = TripletMatrix::new(2);
        t.add(0, 1, 1.0);
        assert!(!t.to_csr().is_symmetric(1e-12));
    }

    #[test]
    fn row_iterator_sorted() {
        let a = sample();
        let row1: Vec<_> = a.row(1).collect();
        assert_eq!(row1, vec![(0, -1.0), (1, 2.0), (2, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "input vector length 2 does not match matrix dim 3")]
    fn mul_vec_rejects_wrong_input_length() {
        let a = sample();
        let mut out = vec![0.0; 3];
        a.mul_vec(&[1.0, 2.0], &mut out);
    }

    #[test]
    #[should_panic(expected = "output vector length 4 does not match matrix dim 3")]
    fn mul_vec_rejects_wrong_output_length() {
        let a = sample();
        let mut out = vec![0.0; 4];
        a.mul_vec(&[1.0, 2.0, 3.0], &mut out);
    }

    /// Builds a matrix big enough to clear `PAR_MIN_NNZ` (a 1-D Poisson
    /// chain has ~3n entries).
    fn big_poisson(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.add(i, i, 2.0 + (i % 7) as f64 * 0.125);
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                t.add(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn parallel_mul_vec_bit_identical_across_thread_counts() {
        let n = 4096; // ~12k nnz: engages the parallel path
        let a = big_poisson(n);
        assert!(a.nnz() >= super::PAR_MIN_NNZ);
        let v: Vec<f64> = (0..n)
            .map(|i| ((i * 31 % 101) as f64) * 0.013 - 0.5)
            .collect();
        let reference = {
            let _g = complx_par::with_threads(1);
            let mut out = vec![0.0; n];
            a.mul_vec(&v, &mut out);
            out
        };
        for t in [2, 8] {
            let _g = complx_par::with_threads(t);
            let mut out = vec![0.0; n];
            a.mul_vec(&v, &mut out);
            for (got, want) in out.iter().zip(&reference) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn duplicate_cancellation_drops_entry() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 1, 1.0);
        t.add(0, 1, -1.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 0);
    }
}
