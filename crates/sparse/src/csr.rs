//! Sliced ELLPACK (SELL-8-σ) storage for the sparse placement systems.

use std::cmp::Reverse;

use crate::TripletMatrix;

/// Rows per slice: the multiply steps this many rows in lockstep, one
/// independent add chain each.
const SLICE: usize = 8;

/// Sorting window σ in rows: rows are ordered by length within each
/// window, so a slice pads its rows to nearly equal lengths while every
/// row stays within σ of its position. A multiple of [`SLICE`].
const SIGMA: usize = 256;

/// Raw triplet counts from which [`CsrWorkspace::assemble`] sorts and
/// merges rows on the `complx-par` pool. Rows are merged independently and
/// each row's entries reach the same sort call for any row partition, so
/// the assembled matrix is bit-identical for every thread count; the gate
/// only keeps pool dispatch off small matrices.
pub const PAR_MIN_MERGE_NNZ: usize = 8192;

/// A square sparse matrix in SELL-8-σ storage (Kreutzer et al., SIAM J.
/// Sci. Comput. 2014) with σ = 256.
///
/// Each row's entries have strictly increasing columns. Rows are stably
/// sorted by descending length within each window of σ rows, then taken
/// eight at a time into *slices*. A slice stores its rows column-major,
/// padded to its longest row: step `k` of a slice holds the k-th entry of
/// each of its eight rows. [`CsrMatrix::mul_vec`] walks the steps once,
/// keeping eight independent sums, which hides the latency of the
/// gathers that a row-at-a-time loop serializes.
///
/// **Summation contract.** Every row is summed from `0.0`, adding its
/// products `a_rk · v_k` in increasing column order, exactly as a
/// compressed-sparse-row loop does; padding is skipped, never added as
/// `0.0`. Outputs are therefore bit-identical to the CSR row loop.
///
/// The name is kept from the compressed-sparse-row layout this replaced;
/// the accessors ([`Self::get`], [`Self::row`], [`Self::diagonal`]) read
/// rows in CSR order. The matrix is not required to be symmetric, but the
/// placement systems built on top of it always are, and
/// [`CsrMatrix::is_symmetric`] lets tests assert it.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    nnz: usize,
    /// Slot `8s + lane` holds row `perm[8s + lane]`; `perm` has exactly
    /// `n` entries. A partial last slice's missing lanes exist only as
    /// zero-length lanes in `len`, `cols` and `vals`.
    perm: Vec<u32>,
    /// The inverse of `perm`: row `r` sits in slot `slot[r]`.
    slot: Vec<u32>,
    /// Stored entries of each slice's rows (`0` for padding lanes).
    len: Vec<[u32; SLICE]>,
    /// Slice `s` holds steps `slice_ptr[s]..slice_ptr[s + 1]`.
    slice_ptr: Vec<usize>,
    /// Per step, the column of each lane's entry (`0` past a row's end).
    cols: Vec<[u32; SLICE]>,
    /// Per step, the value of each lane's entry (`0.0` past a row's end).
    vals: Vec<[f64; SLICE]>,
    /// The diagonal, recorded at assembly (`0.0` where not stored).
    diag: Vec<f64>,
}

impl Default for CsrMatrix {
    /// The empty 0×0 matrix.
    fn default() -> Self {
        Self {
            n: 0,
            nnz: 0,
            perm: Vec::new(),
            slot: Vec::new(),
            len: Vec::new(),
            slice_ptr: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
            diag: Vec::new(),
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
/// Assembly is count → prefix → scatter → per-row sort and merge → slice
/// fill. Every buffer is cleared and refilled on each call, so one
/// workspace serves matrices of any size, and repeated builds of similar
/// systems allocate nothing once the buffers have grown.
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

        self.fill_slices(out);
    }

    /// Lays the merged rows out as `out`'s slices: each σ-row window's
    /// rows stably sorted by descending kept length, eight rows per slice,
    /// column-major and padded to the slice's longest row.
    fn fill_slices(&self, out: &mut CsrMatrix) {
        let Self {
            start, raw, kept, ..
        } = self;
        let n = kept.len();
        out.n = n;
        out.nnz = kept.iter().sum();
        out.perm.clear();
        out.perm.extend(0..n as u32);
        for window in out.perm.chunks_mut(SIGMA) {
            window.sort_by_key(|&r| Reverse(kept[r as usize]));
        }
        out.slot.clear();
        out.slot.resize(n, 0);
        for (q, &r) in out.perm.iter().enumerate() {
            out.slot[r as usize] = q as u32;
        }
        out.diag.clear();
        out.diag.resize(n, 0.0);
        out.len.clear();
        out.slice_ptr.clear();
        out.slice_ptr.push(0);
        out.cols.clear();
        out.vals.clear();
        for rows in out.perm.chunks(SLICE) {
            let mut len = [0u32; SLICE];
            for (l, &r) in len.iter_mut().zip(rows) {
                *l = kept[r as usize] as u32;
            }
            // Descending order puts the longest row in lane 0.
            let width = len[0] as usize;
            for k in 0..width {
                let mut c = [0u32; SLICE];
                let mut a = [0.0f64; SLICE];
                for (lane, &r) in rows.iter().enumerate() {
                    if k < len[lane] as usize {
                        let (col, v) = raw[start[r as usize] + k];
                        c[lane] = col;
                        a[lane] = v;
                        if col == r {
                            out.diag[r as usize] = v;
                        }
                    }
                }
                out.cols.push(c);
                out.vals.push(a);
            }
            out.len.push(len);
            out.slice_ptr.push(out.cols.len());
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
            // Drops entries that sum to exact
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
    /// Builds the matrix from parallel triplet arrays, summing duplicates.
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

    /// Number of stored (structurally non-zero) entries; padding is not
    /// counted.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Row `r`'s lane and its steps, `(lane, first step, entry count)`.
    fn locate(&self, r: usize) -> (usize, usize, usize) {
        let q = self.slot[r] as usize;
        let (s, lane) = (q / SLICE, q % SLICE);
        (lane, self.slice_ptr[s], self.len[s][lane] as usize)
    }

    /// Returns the entry at `(row, col)`, or `0.0` if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n);
        let (lane, lo, len) = self.locate(row);
        match self.cols[lo..lo + len].binary_search_by_key(&(col as u32), |c| c[lane]) {
            Ok(k) => self.vals[lo + k][lane],
            Err(_) => 0.0,
        }
    }

    /// Computes `out = A·v`.
    ///
    /// Each row is summed from `0.0` in increasing column order (see the
    /// type's summation contract), so results match a CSR row loop bit
    /// for bit. The multiply is sequential: split over σ-row windows at
    /// two threads it measured about 1.0× on a two-vCPU host (DESIGN §11),
    /// and a fork-join in every CG iteration only queues behind the other
    /// solve under `complx-serve`.
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
        for (s, len) in self.len.iter().enumerate() {
            let (lo, hi) = (self.slice_ptr[s], self.slice_ptr[s + 1]);
            let mut acc = [0.0f64; SLICE];
            for (k, (c, a)) in self.cols[lo..hi].iter().zip(&self.vals[lo..hi]).enumerate() {
                let k = k as u32;
                for lane in 0..SLICE {
                    let sum = acc[lane] + a[lane] * v[c[lane] as usize];
                    // Select, never add a padding zero: the row's sum is
                    // exactly its own products' sum.
                    acc[lane] = if k < len[lane] { sum } else { acc[lane] };
                }
            }
            let rows = &self.perm[s * SLICE..((s + 1) * SLICE).min(self.n)];
            for (&r, &sum) in rows.iter().zip(&acc) {
                out[r as usize] = sum;
            }
        }
    }

    /// Returns the diagonal as a dense vector (zeros for missing entries).
    pub fn diagonal(&self) -> Vec<f64> {
        self.diag.clone()
    }

    /// The diagonal recorded at assembly, without a copy.
    pub(crate) fn diagonal_ref(&self) -> &[f64] {
        &self.diag
    }

    /// Computes the quadratic form `vᵀAv`.
    pub fn quadratic_form(&self, v: &[f64]) -> f64 {
        assert_eq!(v.len(), self.n);
        let mut acc = 0.0;
        for (r, &vr) in v.iter().enumerate() {
            let mut row_acc = 0.0;
            for (c, a) in self.row(r) {
                row_acc += a * v[c];
            }
            acc += vr * row_acc;
        }
        acc
    }

    /// Checks symmetry up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.n {
            for (c, a) in self.row(r) {
                if (a - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Iterates over the stored entries of row `r` as `(col, value)` pairs,
    /// in increasing column order.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lane, lo, len) = self.locate(r);
        self.cols[lo..lo + len]
            .iter()
            .zip(&self.vals[lo..lo + len])
            .map(move |(c, a)| (c[lane] as usize, a[lane]))
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

    #[test]
    fn slices_sort_rows_by_length_within_windows() {
        // Row r has r % 5 off-diagonal entries, so every window reorders.
        let n = SIGMA + 20;
        let mut t = TripletMatrix::new(n);
        for r in 0..n {
            t.add(r, r, 1.0);
            for k in 1..=r % 5 {
                t.add(r, (r + k) % n, -0.25);
            }
        }
        let a = t.to_csr();
        for window in a.perm.chunks(SIGMA) {
            let lens: Vec<usize> = window.iter().map(|&r| a.row(r as usize).count()).collect();
            assert!(lens.windows(2).all(|w| w[0] >= w[1]), "{lens:?}");
        }
        for (q, &r) in a.perm.iter().enumerate() {
            assert_eq!(a.slot[r as usize] as usize, q);
            assert!((r as usize) / SIGMA == q / SIGMA, "row {r} left its window");
        }
        let stored: usize = (0..n).map(|r| a.row(r).count()).sum();
        assert_eq!(stored, a.nnz());
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
