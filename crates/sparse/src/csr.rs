//! Sliced ELLPACK (SELL-8-σ) storage for the sparse placement systems.

use std::cmp::Reverse;

/// Rows per slice: the multiply steps this many rows in lockstep, one
/// independent add chain each.
const SLICE: usize = 8;

/// Sorting window σ in rows: rows are ordered by length within each
/// window, so a slice pads its rows to nearly equal lengths while every
/// row stays within σ of its position. A multiple of [`SLICE`].
const SIGMA: usize = 256;

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

/// Reusable scratch for building [`CsrMatrix`] values.
///
/// Assembly is two stable counting passes — entries grouped by column,
/// then by row — a per-row merge and the slice fill. Every buffer is
/// cleared and refilled on each call, so one workspace serves matrices of
/// any size, and repeated builds of similar systems allocate nothing once
/// the buffers have grown.
///
/// # Summation order
///
/// The column pass keeps the input order within a column, and the row
/// pass visits columns in increasing order, so each row ends up sorted by
/// column with the entries of one column in input order. Entries sharing
/// a column are summed left to right in that order, and sums of exactly
/// `0.0` are dropped. This is a stable per-row sort followed by a
/// left-to-right sum, so the bits depend on the input order alone, and
/// [`Self::assemble`] and [`CsrMatrix::from_triplets`] share the rule. No
/// comparison sort runs.
#[derive(Debug, Clone, Default)]
pub struct CsrWorkspace {
    /// Column `c`'s `(row, value)` entries occupy
    /// `col_start[c]..col_start[c + 1]` of `by_col`, in input order.
    col_start: Vec<usize>,
    by_col: Vec<(u32, f64)>,
    /// Row `r`'s `(col, value)` entries occupy `start[r]..start[r + 1]`
    /// of `raw`, by column; merged in place.
    start: Vec<usize>,
    raw: Vec<(u32, f64)>,
    /// Scatter cursor per column or row.
    cursor: Vec<usize>,
    /// Entries each row keeps after merging.
    kept: Vec<usize>,
}

impl CsrWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds `out` as the symmetric `n`×`n` matrix, `n = diag.len()`,
    /// with diagonal `diag` and, for each pair `(i, j, v)` in order, `v`
    /// added at `(i, j)` and at `(j, i)`. Reuses `out`'s storage.
    ///
    /// A Laplacian stamps each connection of weight `w` once, as
    /// `(i, j, −w)`, and its weights straight into `diag`; row `i` then
    /// sums its off-diagonal entries in stamping order (see the type's
    /// summation order) and holds `diag[i]` unless it is exactly `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if a pair has an index out of bounds or on the diagonal.
    pub fn assemble(&mut self, diag: &[f64], pairs: &[(u32, u32, f64)], out: &mut CsrMatrix) {
        let n = diag.len();
        // A pair puts one entry in each of its two columns (and rows); each
        // column also holds its diagonal.
        counts(&mut self.col_start, n, 1);
        for &(i, j, _) in pairs {
            assert!(
                (i as usize) < n && (j as usize) < n && i != j,
                "pair index out of bounds or on the diagonal"
            );
            self.col_start[i as usize + 1] += 1;
            self.col_start[j as usize + 1] += 1;
        }
        prefix(&mut self.col_start);
        scatter_init(&mut self.by_col, &mut self.cursor, &self.col_start);
        for &(i, j, v) in pairs {
            place(&mut self.by_col, &mut self.cursor, j, i, v);
            place(&mut self.by_col, &mut self.cursor, i, j, v);
        }
        for (r, &d) in diag.iter().enumerate() {
            place(&mut self.by_col, &mut self.cursor, r as u32, r as u32, d);
        }
        // The pattern is symmetric: every row holds as many entries as
        // its column.
        self.start.clone_from(&self.col_start);
        self.rows_and_fill(out);
    }

    /// The builder behind [`CsrMatrix::from_triplets`].
    fn build_triplets(
        &mut self,
        n: usize,
        rows: &[u32],
        cols: &[u32],
        vals: &[f64],
        out: &mut CsrMatrix,
    ) {
        counts(&mut self.col_start, n, 0);
        counts(&mut self.start, n, 0);
        for (&r, &c) in rows.iter().zip(cols) {
            assert!((r as usize) < n, "row index out of bounds");
            assert!((c as usize) < n, "col index out of bounds");
            self.col_start[c as usize + 1] += 1;
            self.start[r as usize + 1] += 1;
        }
        prefix(&mut self.col_start);
        prefix(&mut self.start);
        scatter_init(&mut self.by_col, &mut self.cursor, &self.col_start);
        for ((&r, &c), &v) in rows.iter().zip(cols).zip(vals) {
            place(&mut self.by_col, &mut self.cursor, c, r, v);
        }
        self.rows_and_fill(out);
    }

    /// Regroups the column-grouped entries by row (rows come out sorted
    /// by column), merges every row, then fills `out`'s slices.
    fn rows_and_fill(&mut self, out: &mut CsrMatrix) {
        let Self {
            col_start,
            by_col,
            start,
            raw,
            cursor,
            kept,
        } = self;
        let n = start.len() - 1;
        scatter_init(raw, cursor, start);
        for c in 0..n {
            for &(r, v) in &by_col[col_start[c]..col_start[c + 1]] {
                place(raw, cursor, r, c as u32, v);
            }
        }
        kept.clear();
        kept.extend((0..n).map(|r| merge_row(&mut raw[start[r]..start[r + 1]])));
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
        out.len.clear();
        out.slice_ptr.clear();
        out.slice_ptr.push(0);
        for rows in out.perm.chunks(SLICE) {
            let mut len = [0u32; SLICE];
            for (l, &r) in len.iter_mut().zip(rows) {
                *l = kept[r as usize] as u32;
            }
            out.len.push(len);
            // Descending order puts the longest row in lane 0.
            out.slice_ptr
                .push(out.slice_ptr[out.slice_ptr.len() - 1] + len[0] as usize);
        }
        // Padding stays column 0, value 0.0; each row fills its lane.
        let steps = out.slice_ptr[out.slice_ptr.len() - 1];
        out.cols.clear();
        out.cols.resize(steps, [0; SLICE]);
        out.vals.clear();
        out.vals.resize(steps, [0.0; SLICE]);
        out.diag.clear();
        out.diag.resize(n, 0.0);
        for (q, &r) in out.perm.iter().enumerate() {
            let (lane, first) = (q % SLICE, out.slice_ptr[q / SLICE]);
            let row = &raw[start[r as usize]..start[r as usize] + kept[r as usize]];
            let steps = out.cols[first..].iter_mut().zip(&mut out.vals[first..]);
            for ((c, a), &(col, v)) in steps.zip(row) {
                c[lane] = col;
                a[lane] = v;
                if col == r {
                    out.diag[r as usize] = v;
                }
            }
        }
    }
}

/// Resets `offsets` to `n + 1` slots: `0`, then `n` times `base`, ready
/// to count entries per index at `offsets[index + 1]`.
fn counts(offsets: &mut Vec<usize>, n: usize, base: usize) {
    offsets.clear();
    offsets.resize(n + 1, base);
    offsets[0] = 0;
}

/// Turns per-index counts into start offsets.
fn prefix(offsets: &mut [usize]) {
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
}

/// Sizes `buf` for the groups `offsets` describes and points each
/// group's cursor at its start.
fn scatter_init(buf: &mut Vec<(u32, f64)>, cursor: &mut Vec<usize>, offsets: &[usize]) {
    let n = offsets.len() - 1;
    cursor.clear();
    cursor.extend_from_slice(&offsets[..n]);
    buf.clear();
    buf.resize(offsets[n], (0, 0.0));
}

/// Appends `(key, v)` to group `group` of `buf`.
fn place(buf: &mut [(u32, f64)], cursor: &mut [usize], group: u32, key: u32, v: f64) {
    let dst = &mut cursor[group as usize];
    buf[*dst] = (key, v);
    *dst += 1;
}

/// Merges one row, sorted by column, in place: each column's entries are
/// summed left to right, and exact-zero sums are dropped. Returns the
/// kept count; the kept entries lead the row.
fn merge_row(row: &mut [(u32, f64)]) -> usize {
    let mut kept = 0;
    let mut i = 0;
    while i < row.len() {
        let (c, mut v) = row[i];
        let mut j = i + 1;
        while j < row.len() && row[j].0 == c {
            v += row[j].1;
            j += 1;
        }
        // Drops entries that sum to exact zero (e.g. +a + -a); small
        // values must be kept.
        if v != 0.0 {
            row[kept] = (c, v);
            kept += 1;
        }
        i = j;
    }
    kept
}

impl CsrMatrix {
    /// Builds the matrix from parallel triplet arrays, summing duplicates
    /// in the order given (see [`CsrWorkspace`]'s summation order).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or contain out-of-bounds
    /// indices.
    pub fn from_triplets(n: usize, rows: &[u32], cols: &[u32], vals: &[f64]) -> Self {
        assert_eq!(rows.len(), cols.len());
        assert_eq!(rows.len(), vals.len());
        let mut out = Self::default();
        CsrWorkspace::new().build_triplets(n, rows, cols, vals, &mut out);
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
    use crate::TripletMatrix;

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
