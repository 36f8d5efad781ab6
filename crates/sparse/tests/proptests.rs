//! Property-based tests for the sparse substrate.

use complx_sparse::{
    vector, CgBreakdown, CgScratch, CgSolver, CsrMatrix, CsrWorkspace, SolveStats, TripletMatrix,
};
use proptest::prelude::*;

/// One `(row, col, value)` triplet run.
type Part = Vec<(usize, usize, f64)>;

/// Strategy: triplet parts over an `(m+1)`-square matrix. Rows and columns
/// `0..m` take duplicates of quarter-integer values (exact sums) and of
/// arbitrary values (order-sensitive sums); few rows and long parts give
/// rows of well over 20 raw entries. Column `m` only receives `+k/4` in
/// the first part and `−k/4` in the last, so every one of its entries sums
/// to exactly `0.0` and must be dropped. Row `m` receives nothing.
fn triplet_parts(max_m: usize, max_len: usize) -> impl Strategy<Value = (usize, Vec<Part>)> {
    (1..=max_m)
        .prop_flat_map(move |m| {
            let part = proptest::collection::vec((0..m, 0..m, entry_value()), 0..max_len);
            let cancels = proptest::collection::vec((0..m, 1i32..=16), 0..8);
            (Just(m), proptest::collection::vec(part, 1..5), cancels)
        })
        .prop_map(|(m, mut parts, cancels)| {
            for (r, k) in cancels {
                let v = f64::from(k) * 0.25;
                parts[0].push((r, m, v));
                if let Some(last) = parts.last_mut() {
                    last.push((r, m, -v));
                }
            }
            (m + 1, parts)
        })
}

/// A quarter-integer (sums exact in any order) or an arbitrary value
/// (sums depend on the order), of either sign.
fn entry_value() -> impl Strategy<Value = f64> {
    (0u8..4, 1i32..=16, 0.001f64..10.0).prop_map(|(kind, k, x)| match kind {
        0 => f64::from(k) * 0.25,
        1 => -f64::from(k) * 0.25,
        2 => x,
        _ => -x,
    })
}

/// The order-defined merge, kept as the reference: scatter by row in input
/// order, stably sort each row by column, sum duplicates left to right,
/// drop exact zeros. Returns each row's `(col, value)` entries.
fn reference_rows(n: usize, triplets: &[(usize, usize, f64)]) -> Vec<Vec<(u32, f64)>> {
    let mut grouped: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for &(r, c, v) in triplets {
        grouped[r].push((c as u32, v));
    }
    grouped
        .into_iter()
        .map(|mut scratch| {
            scratch.sort_by_key(|&(c, _)| c);
            let mut out = Vec::new();
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut v) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                if v != 0.0 {
                    out.push((c, v));
                }
                i = j;
            }
            out
        })
        .collect()
}

fn assert_rows_bit_equal(a: &CsrMatrix, want: &[Vec<(u32, f64)>], what: &str) {
    assert_eq!(a.dim(), want.len(), "{what}: dimension");
    let stored: usize = want.iter().map(Vec::len).sum();
    assert_eq!(a.nnz(), stored, "{what}: nnz");
    for (r, row) in want.iter().enumerate() {
        let got: Vec<(usize, u64)> = a.row(r).map(|(c, v)| (c, v.to_bits())).collect();
        let want: Vec<(usize, u64)> = row
            .iter()
            .map(|&(c, v)| (c as usize, v.to_bits()))
            .collect();
        assert_eq!(got, want, "{what}: row {r}");
    }
}

/// `from_triplets` on the concatenated parts (and `to_csr` on them
/// stamped into one accumulator) equals the reference, bit for bit.
fn assert_triplets_match_reference(n: usize, parts: &[Part]) {
    let concat: Vec<(usize, usize, f64)> = parts.iter().flatten().copied().collect();
    let want = reference_rows(n, &concat);
    let rows: Vec<u32> = concat.iter().map(|t| t.0 as u32).collect();
    let cols: Vec<u32> = concat.iter().map(|t| t.1 as u32).collect();
    let vals: Vec<f64> = concat.iter().map(|t| t.2).collect();
    assert_rows_bit_equal(
        &CsrMatrix::from_triplets(n, &rows, &cols, &vals),
        &want,
        "from_triplets",
    );
    let mut t = TripletMatrix::new(n);
    for &(r, c, v) in &concat {
        t.add(r, c, v);
    }
    assert_rows_bit_equal(&t.to_csr(), &want, "to_csr");
}

/// A symmetric system for the pair builder: the diagonal and the
/// off-diagonal pairs `(i, j, v)`.
type PairSystem = (Vec<f64>, Vec<(u32, u32, f64)>);

/// The pair builder's output must equal the reference merge of the same
/// stamps as triplets — `(i, j, v)` then `(j, i, v)` per pair in order,
/// and the diagonal — bit for bit. One workspace and one output matrix
/// serve every system in turn.
fn assert_pairs_match_reference(systems: &[PairSystem]) {
    let mut ws = CsrWorkspace::new();
    let mut out = CsrMatrix::default();
    for (k, (diag, pairs)) in systems.iter().enumerate() {
        let n = diag.len();
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for &(i, j, v) in pairs {
            triplets.push((i as usize, j as usize, v));
            triplets.push((j as usize, i as usize, v));
        }
        triplets.extend(diag.iter().enumerate().map(|(r, &d)| (r, r, d)));
        let want = reference_rows(n, &triplets);
        ws.assemble(diag, pairs, &mut out);
        assert_rows_bit_equal(&out, &want, &format!("system {k}"));
        let d = out.diagonal();
        for (r, row) in want.iter().enumerate() {
            let want_d = row.iter().find(|e| e.0 as usize == r).map_or(0.0, |e| e.1);
            assert_eq!(
                d[r].to_bits(),
                want_d.to_bits(),
                "system {k}: diagonal({r})"
            );
        }
    }
}

/// Strategy: an `(m+1)`-variable symmetric system. Few variables and many
/// pairs give rows of well over 20 raw entries, with order-sensitive
/// duplicate sums. Variable `m` connects to others only by `+k/4` pairs
/// early and `−k/4` pairs last, and its diagonal is `0.0`: its row and
/// column cancel exactly, so row `m` is empty. About one diagonal entry in
/// four is `0.0`.
fn pair_system(max_m: usize, max_pairs: usize) -> impl Strategy<Value = PairSystem> {
    (2..=max_m)
        .prop_flat_map(move |m| {
            let pair = (0..m as u32, 0..m as u32, entry_value());
            let diag = proptest::collection::vec(
                (0u8..4, 0.01f64..50.0).prop_map(|(z, d)| if z == 0 { 0.0 } else { d }),
                m,
            );
            let cancels = proptest::collection::vec((0..m as u32, 1i32..=16), 0..8);
            (
                Just(m),
                diag,
                proptest::collection::vec(pair, 0..max_pairs),
                cancels,
            )
        })
        .prop_map(|(m, mut diag, pairs, cancels)| {
            let m32 = m as u32;
            let mut all: Vec<(u32, u32, f64)> = cancels
                .iter()
                .map(|&(i, k)| (i, m32, f64::from(k) * 0.25))
                .collect();
            all.extend(pairs.into_iter().filter(|p| p.0 != p.1));
            all.extend(cancels.iter().map(|&(i, k)| (m32, i, -f64::from(k) * 0.25)));
            diag.push(0.0);
            (diag, all)
        })
}

/// A deterministic SplitMix64 stream.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn pair_builder_sums_long_rows_in_stamping_order() {
    // 40 variables and 6,000 pairs: about 300 raw entries per row, each
    // column repeated several times with values whose sums depend on the
    // order. Then a small system in the same buffers.
    let mut next = splitmix(0x5eed);
    let n = 40;
    let pairs: Vec<(u32, u32, f64)> = (0..6000)
        .filter_map(|_| {
            let i = (next() % n) as u32;
            let j = (next() % n) as u32;
            let v = (next() % 2000) as f64 / 97.0 - 10.0;
            (i != j).then_some((i, j, if v == 0.0 { 1.0 } else { v }))
        })
        .collect();
    let diag: Vec<f64> = (0..n).map(|r| 100.0 + r as f64 / 7.0).collect();
    let small = (vec![2.0, 0.0, 3.0], vec![(0, 2, -1.0), (2, 0, -0.5)]);
    assert_pairs_match_reference(&[(diag, pairs), small]);
}

/// The sliced layout's sorting window σ, in rows.
const SIGMA: usize = 256;

/// The compressed-sparse-row multiply the sliced layout replaced, kept as
/// the reference: each row summed from `0.0` over its entries in
/// increasing column order.
fn csr_row_loop(rows: &[Vec<(u32, f64)>], v: &[f64]) -> Vec<f64> {
    rows.iter()
        .map(|row| {
            let mut acc = 0.0;
            for &(c, a) in row {
                acc += a * v[c as usize];
            }
            acc
        })
        .collect()
}

/// Builds the matrix of `triplets` and checks it against the reference
/// assembly: `row`, `get` (stored and missing entries) and `diagonal`
/// round-trip bit for bit, and `mul_vec` equals the CSR row loop bit for
/// bit at 1, 2 and 8 threads.
fn assert_sliced_matches_csr(n: usize, triplets: &[(usize, usize, f64)], v: &[f64]) {
    let want = reference_rows(n, triplets);
    let mut t = TripletMatrix::new(n);
    for &(r, c, x) in triplets {
        t.add(r, c, x);
    }
    let a = t.to_csr();
    assert_rows_bit_equal(&a, &want, "sliced rows");
    let diag = a.diagonal();
    for (r, row) in want.iter().enumerate() {
        for &(c, x) in row {
            assert_eq!(a.get(r, c as usize).to_bits(), x.to_bits(), "get({r}, {c})");
        }
        if let Some(c) = (0..n as u32).find(|c| row.binary_search_by_key(c, |e| e.0).is_err()) {
            assert_eq!(
                a.get(r, c as usize).to_bits(),
                0.0f64.to_bits(),
                "get({r}, {c})"
            );
        }
        let d = row.iter().find(|e| e.0 as usize == r).map_or(0.0, |e| e.1);
        assert_eq!(diag[r].to_bits(), d.to_bits(), "diagonal({r})");
    }
    let expected = csr_row_loop(&want, v);
    for threads in [1, 2, 8] {
        let _g = complx_par::with_threads(threads);
        let mut out = vec![f64::NAN; n];
        a.mul_vec(v, &mut out);
        for (r, (got, exp)) in out.iter().zip(&expected).enumerate() {
            assert_eq!(got.to_bits(), exp.to_bits(), "row {r} at {threads} threads");
        }
    }
}

/// Strategy: an `n`-square matrix of ragged rows as triplets, and a
/// vector to multiply. `n` runs up to 2σ + 40, so most sizes are not
/// multiples of 8 and many span several σ-row windows. Rows hold 0 to 11
/// random entries (about one in twelve is empty); when `n > σ + 8`, row
/// `n / 2` also gets σ + 8 entries, longer than a window. Row 0 holds only
/// negative entries in the columns where `v` is exactly `0.0`, so every
/// one of its products is `−0.0`. In half the cases `v[0]` is infinite:
/// column 0 is where padding lanes point.
fn ragged_system() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>, Vec<f64>)> {
    (1..=2 * SIGMA + 40)
        .prop_flat_map(|n| {
            let value = (0u8..4, 1i32..=16, 0.001f64..10.0).prop_map(|(kind, k, x)| match kind {
                0 => f64::from(k) * 0.25,
                1 => -f64::from(k) * 0.25,
                2 => x,
                _ => -x,
            });
            let rows =
                proptest::collection::vec(proptest::collection::vec((0..n, value), 0..12), n);
            let v = proptest::collection::vec(-4.0f64..4.0, n);
            (Just(n), rows, v, 0u8..2)
        })
        .prop_map(|(n, rows, mut v, infinite)| {
            let zero_cols: Vec<usize> = (3..n).step_by(7).collect();
            let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
            for (r, row) in rows.into_iter().enumerate().skip(1) {
                triplets.extend(row.into_iter().map(|(c, x)| (r, c, x)));
            }
            for &c in &zero_cols {
                v[c] = 0.0;
                triplets.push((0, c, -1.5));
            }
            if infinite == 1 {
                v[0] = f64::INFINITY;
            }
            if n > SIGMA + 8 {
                triplets.extend((0..SIGMA + 8).map(|c| (n / 2, c, 0.5 + c as f64 / 64.0)));
            }
            (n, triplets, v)
        })
}

/// The CG loop before its vectors moved into `CgScratch` and its passes
/// were fused, kept as the reference: fresh vectors per solve and one
/// helper call per vector operation. The observability counters are left
/// out.
fn reference_cg(
    tol: f64,
    max_iterations: usize,
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
) -> SolveStats {
    use vector::{axpy, dot, norm2, xpby};
    let n = a.dim();
    let done = |iterations, relative_residual, converged, breakdown, clamped| SolveStats {
        iterations,
        relative_residual,
        converged,
        breakdown,
        clamped_diagonals: clamped,
    };
    if n == 0 {
        return done(0, 0.0, true, None, 0);
    }
    let mut clamped = 0usize;
    let inv_diag: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|&d| {
            if d > f64::MIN_POSITIVE && d.is_finite() {
                1.0 / d
            } else {
                clamped += 1;
                1.0
            }
        })
        .collect();
    let max_iter = if max_iterations == 0 {
        10 * n + 100
    } else {
        max_iterations
    };
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        x.fill(0.0);
        return done(0, 0.0, true, None, clamped);
    }
    if !b_norm.is_finite() {
        if x.iter().any(|v| !v.is_finite()) {
            x.fill(0.0);
        }
        return done(
            0,
            f64::INFINITY,
            false,
            Some(CgBreakdown::NonFinite),
            clamped,
        );
    }
    if x.iter().any(|v| !v.is_finite()) {
        x.fill(0.0);
    }
    let mut r = vec![0.0; n];
    a.mul_vec(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut res = norm2(&r) / b_norm;
    if !res.is_finite() {
        return done(
            0,
            f64::INFINITY,
            false,
            Some(CgBreakdown::NonFinite),
            clamped,
        );
    }
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];
    let mut iterations = 0;
    let mut breakdown = None;
    while res > tol && iterations < max_iter {
        a.mul_vec(&p, &mut ap);
        let pap = dot(&p, &ap);
        if !pap.is_finite() {
            breakdown = Some(CgBreakdown::NonFinite);
            break;
        }
        if pap <= 0.0 {
            breakdown = Some(CgBreakdown::IndefiniteDirection);
            break;
        }
        let alpha = rz / pap;
        axpy(-alpha, &ap, &mut r);
        for i in 0..n {
            z[i] = r[i] * inv_diag[i];
        }
        let rz_new = dot(&r, &z);
        iterations += 1;
        let res_new = norm2(&r) / b_norm;
        if !res_new.is_finite() || !rz_new.is_finite() {
            breakdown = Some(CgBreakdown::NonFinite);
            break;
        }
        axpy(alpha, &p, x);
        let beta = rz_new / rz;
        rz = rz_new;
        xpby(&z, beta, &mut p);
        res = res_new;
    }
    done(
        iterations,
        res,
        breakdown.is_none() && res <= tol,
        breakdown,
        clamped,
    )
}

/// Solves with every iteration cap from 1 to one past the uncapped count,
/// and uncapped, with one scratch reused throughout: each iterate and each
/// `SolveStats` must equal the reference loop's bit for bit.
fn assert_cg_matches_reference(a: &CsrMatrix, b: &[f64], x0: &[f64], tol: f64) {
    let mut scratch = CgScratch::default();
    let uncapped = reference_cg(tol, 0, a, b, &mut x0.to_vec()).iterations;
    for cap in (1..=uncapped + 1).chain([0]) {
        let mut want_x = x0.to_vec();
        let want = reference_cg(tol, cap, a, b, &mut want_x);
        let mut got_x = x0.to_vec();
        let got = CgSolver::new()
            .with_tolerance(tol)
            .with_max_iterations(cap)
            .solve(a, b, &mut got_x, &mut scratch, None);
        assert_eq!(got.iterations, want.iterations, "cap {cap}");
        assert_eq!(got.converged, want.converged, "cap {cap}");
        assert_eq!(got.breakdown, want.breakdown, "cap {cap}");
        assert_eq!(got.clamped_diagonals, want.clamped_diagonals, "cap {cap}");
        assert_eq!(
            got.relative_residual.to_bits(),
            want.relative_residual.to_bits(),
            "cap {cap}"
        );
        for (i, (g, w)) in got_x.iter().zip(&want_x).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "cap {cap}: x[{i}]");
        }
    }
}

#[test]
fn cg_matches_the_reference_loop_on_chunked_reductions() {
    // 9,000 variables: the reductions sum in 1,024-element partials. A
    // chain with irregular springs and anchors, from an uneven warm start.
    let n = 9000;
    let mut next = splitmix(0xc9);
    let mut t = TripletMatrix::new(n);
    for i in 0..n {
        t.add_diagonal(i, 0.01 + (next() % 100) as f64 / 250.0);
        if i + 1 < n {
            t.add_connection(i, i + 1, 0.5 + (next() % 1000) as f64 / 300.0);
        }
    }
    let a = t.to_csr();
    let b: Vec<f64> = (0..n)
        .map(|_| (next() % 2001) as f64 / 100.0 - 10.0)
        .collect();
    let x0: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
    let mut scratch = CgScratch::default();
    for cap in [1, 2, 7, 40] {
        let mut want_x = x0.clone();
        let want = reference_cg(1e-9, cap, &a, &b, &mut want_x);
        let mut got_x = x0.clone();
        let got = CgSolver::new()
            .with_tolerance(1e-9)
            .with_max_iterations(cap)
            .solve(&a, &b, &mut got_x, &mut scratch, None);
        assert_eq!(got.iterations, cap);
        assert_eq!(
            got.relative_residual.to_bits(),
            want.relative_residual.to_bits(),
            "cap {cap}"
        );
        assert_eq!(
            (got.converged, got.breakdown),
            (want.converged, want.breakdown)
        );
        for (i, (g, w)) in got_x.iter().zip(&want_x).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "cap {cap}: x[{i}]");
        }
    }
}

/// Strategy: a random SPD matrix built as a Laplacian over random edges plus
/// a strictly positive diagonal shift (guaranteeing positive-definiteness).
fn spd_matrix(n: usize, max_edges: usize) -> impl Strategy<Value = CsrMatrix> {
    let edges = proptest::collection::vec((0..n, 0..n, 0.01f64..10.0), 0..=max_edges);
    let shifts = proptest::collection::vec(0.1f64..5.0, n);
    (edges, shifts).prop_map(move |(edges, shifts)| {
        let mut t = TripletMatrix::new(n);
        for (i, j, w) in edges {
            if i != j {
                t.add_connection(i, j, w);
            }
        }
        for (i, s) in shifts.iter().enumerate() {
            t.add_diagonal(i, *s);
        }
        t.to_csr()
    })
}

proptest! {
    #[test]
    fn cg_solves_random_spd_systems(
        a in spd_matrix(20, 60),
        xs in proptest::collection::vec(-100.0f64..100.0, 20),
    ) {
        let mut b = vec![0.0; 20];
        a.mul_vec(&xs, &mut b);
        let mut x = vec![0.0; 20];
        let stats = CgSolver::new().with_tolerance(1e-10).solve(&a, &b, &mut x, &mut CgScratch::default(), None);
        prop_assert!(stats.converged);
        // Residual check (the solution itself may be ill-conditioned).
        let mut ax = vec![0.0; 20];
        a.mul_vec(&x, &mut ax);
        let resid: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q).abs()).sum();
        let scale: f64 = b.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!(resid / scale < 1e-6, "residual {resid} scale {scale}");
    }

    #[test]
    fn cg_matches_the_reference_loop(
        a in spd_matrix(24, 70),
        b in proptest::collection::vec(-50.0f64..50.0, 24),
        x0 in proptest::collection::vec(-20.0f64..20.0, 24),
        tol_exp in 2i32..13,
        flip in 0usize..48,
    ) {
        // In half the cases one row's diagonal is negated: an indefinite
        // system with a clamped preconditioner row that can break down.
        let a = match flip {
            24.. => a,
            k => {
                let mut t = TripletMatrix::new(24);
                for r in 0..24 {
                    for (c, v) in a.row(r) {
                        t.add(r, c, if r == k && c == k { -v } else { v });
                    }
                }
                t.to_csr()
            }
        };
        assert_cg_matches_reference(&a, &b, &x0, 10f64.powi(-tol_exp));
    }

    #[test]
    fn laplacian_stamps_are_symmetric(a in spd_matrix(15, 40)) {
        prop_assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn spd_quadratic_form_is_positive(
        a in spd_matrix(10, 30),
        v in proptest::collection::vec(-10.0f64..10.0, 10),
    ) {
        let nonzero = v.iter().any(|&x| x.abs() > 1e-9);
        if nonzero {
            prop_assert!(a.quadratic_form(&v) > 0.0);
        }
    }

    #[test]
    fn triplet_accumulation_matches_sequential_sum(
        entries in proptest::collection::vec((0usize..5, 0usize..5, -10.0f64..10.0), 0..30)
    ) {
        let mut t = TripletMatrix::new(5);
        let mut dense = [[0.0f64; 5]; 5];
        for &(r, c, v) in &entries {
            t.add(r, c, v);
            dense[r][c] += v;
        }
        let a = t.to_csr();
        for (r, row) in dense.iter().enumerate() {
            for (c, &want) in row.iter().enumerate() {
                prop_assert!((a.get(r, c) - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mul_vec_is_linear(
        a in spd_matrix(8, 20),
        u in proptest::collection::vec(-5.0f64..5.0, 8),
        v in proptest::collection::vec(-5.0f64..5.0, 8),
        alpha in -3.0f64..3.0,
    ) {
        // A(u + αv) == Au + αAv
        let combined: Vec<f64> = u.iter().zip(&v).map(|(x, y)| x + alpha * y).collect();
        let mut lhs = vec![0.0; 8];
        a.mul_vec(&combined, &mut lhs);
        let mut au = vec![0.0; 8];
        let mut av = vec![0.0; 8];
        a.mul_vec(&u, &mut au);
        a.mul_vec(&v, &mut av);
        for i in 0..8 {
            prop_assert!((lhs[i] - (au[i] + alpha * av[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn from_triplets_sums_duplicates_in_input_order((n, parts) in triplet_parts(6, 200)) {
        assert_triplets_match_reference(n, &parts);
        // Column n-1 only held cancelling pairs, and row n-1 nothing.
        let concat: Vec<(usize, usize, f64)> = parts.iter().flatten().copied().collect();
        let a = CsrMatrix::from_triplets(
            n,
            &concat.iter().map(|t| t.0 as u32).collect::<Vec<_>>(),
            &concat.iter().map(|t| t.1 as u32).collect::<Vec<_>>(),
            &concat.iter().map(|t| t.2).collect::<Vec<_>>(),
        );
        for r in 0..n {
            prop_assert!(a.row(r).all(|(c, v)| c != n - 1 && v != 0.0));
        }
        prop_assert_eq!(a.row(n - 1).count(), 0);
    }

    #[test]
    fn pair_builder_matches_the_stamping_order_reference(
        first in pair_system(8, 300),
        second in pair_system(5, 40),
    ) {
        assert_pairs_match_reference(&[first.clone(), second]);
        // The cancelled variable's row is empty.
        let mut out = CsrMatrix::default();
        CsrWorkspace::new().assemble(&first.0, &first.1, &mut out);
        prop_assert_eq!(out.row(first.0.len() - 1).count(), 0);
    }

    #[test]
    fn sliced_multiply_matches_the_csr_row_loop((n, triplets, v) in ragged_system()) {
        assert_sliced_matches_csr(n, &triplets, &v);
    }

    #[test]
    fn norm_triangle_inequality(
        u in proptest::collection::vec(-100.0f64..100.0, 12),
        v in proptest::collection::vec(-100.0f64..100.0, 12),
    ) {
        let sum: Vec<f64> = u.iter().zip(&v).map(|(a, b)| a + b).collect();
        prop_assert!(vector::norm2(&sum) <= vector::norm2(&u) + vector::norm2(&v) + 1e-9);
        prop_assert!(vector::norm1(&sum) <= vector::norm1(&u) + vector::norm1(&v) + 1e-9);
    }
}
