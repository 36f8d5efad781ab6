//! Property-based tests for the sparse substrate.

use complx_sparse::{vector, CgSolver, CsrMatrix, CsrWorkspace, TripletMatrix, PAR_MIN_MERGE_NNZ};
use proptest::prelude::*;

/// One `(row, col, value)` triplet run.
type Part = Vec<(usize, usize, f64)>;

/// Strategy: triplet parts over an `(m+1)`-square matrix. Rows and columns
/// `0..m` take duplicates of quarter-integer values (exact sums) and of
/// arbitrary values (order-sensitive sums); few rows and long parts give
/// rows of well over 20 raw entries. Column `m` only receives `+k/4` in
/// the first part and `−k/4` in the last, so every one of its entries sums
/// to exactly `0.0` and must be dropped.
fn triplet_parts(max_m: usize, max_len: usize) -> impl Strategy<Value = (usize, Vec<Part>)> {
    (1..=max_m)
        .prop_flat_map(move |m| {
            let value = (0u8..4, 1i32..=16, 0.001f64..10.0).prop_map(|(kind, k, x)| match kind {
                0 => f64::from(k) * 0.25,
                1 => -f64::from(k) * 0.25,
                2 => x,
                _ => -x,
            });
            let part = proptest::collection::vec((0..m, 0..m, value), 0..max_len);
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

/// The CSR assembly before the reusable workspace, kept as the reference:
/// scatter by row, copy each row into a scratch vector, sort it by column
/// with `sort_unstable_by_key`, sum duplicates left to right, drop exact
/// zeros. Returns each row's `(col, value)` entries.
fn reference_rows(n: usize, triplets: &[(usize, usize, f64)]) -> Vec<Vec<(u32, f64)>> {
    let mut grouped: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for &(r, c, v) in triplets {
        grouped[r].push((c as u32, v));
    }
    grouped
        .into_iter()
        .map(|mut scratch| {
            scratch.sort_unstable_by_key(|&(c, _)| c);
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
    for (r, row) in want.iter().enumerate() {
        let got: Vec<(usize, u64)> = a.row(r).map(|(c, v)| (c, v.to_bits())).collect();
        let want: Vec<(usize, u64)> = row
            .iter()
            .map(|&(c, v)| (c as usize, v.to_bits()))
            .collect();
        assert_eq!(got, want, "{what}: row {r}");
    }
}

/// The multi-part workspace build must equal, bit for bit, both
/// `from_triplets` on the concatenated triplets and the reference
/// assembly, at 1, 2 and 8 threads, with one workspace reused throughout.
fn assert_workspace_matches_concatenation(n: usize, parts: &[Part]) {
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

    let mats: Vec<TripletMatrix> = parts
        .iter()
        .map(|p| {
            let mut t = TripletMatrix::new(n);
            for &(r, c, v) in p {
                t.add(r, c, v);
            }
            t
        })
        .collect();
    let refs: Vec<&TripletMatrix> = mats.iter().collect();
    let mut ws = CsrWorkspace::new();
    let mut out = CsrMatrix::default();
    for t in [1, 2, 8] {
        let _g = complx_par::with_threads(t);
        ws.assemble(n, &refs, &mut out);
        assert_rows_bit_equal(&out, &want, &format!("workspace at {t} threads"));
    }
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
fn csr_workspace_crosses_parallel_merge_gate() {
    // Deterministic triplets: 40 rows of ~300 raw entries over three
    // parts, so the merge runs on the pool at 2 and 8 threads.
    let mut next = splitmix(0x5eed);
    let n = 41;
    let mut parts: Vec<Part> = (0..3)
        .map(|_| {
            (0..4000)
                .map(|_| {
                    let r = (next() % 40) as usize;
                    let c = (next() % 40) as usize;
                    let v = (next() % 2000) as f64 / 97.0 - 10.0;
                    (r, c, if v == 0.0 { 1.0 } else { v })
                })
                .collect()
        })
        .collect();
    for r in 0..40 {
        parts[0].push((r, 40, 1.25));
        parts[2].push((r, 40, -1.25));
    }
    let total: usize = parts.iter().map(Vec::len).sum();
    assert!(total >= PAR_MIN_MERGE_NNZ);
    assert_workspace_matches_concatenation(n, &parts);
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
        let stats = CgSolver::new().with_tolerance(1e-10).solve(&a, &b, &mut x, None);
        prop_assert!(stats.converged);
        // Residual check (the solution itself may be ill-conditioned).
        let mut ax = vec![0.0; 20];
        a.mul_vec(&x, &mut ax);
        let resid: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q).abs()).sum();
        let scale: f64 = b.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!(resid / scale < 1e-6, "residual {resid} scale {scale}");
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
        for r in 0..5 {
            for c in 0..5 {
                prop_assert!((a.get(r, c) - dense[r][c]).abs() < 1e-12);
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
    fn csr_workspace_matches_from_triplets_on_the_concatenation(
        (n, parts) in triplet_parts(6, 200)
    ) {
        assert_workspace_matches_concatenation(n, &parts);
        // Column n-1 only held cancelling pairs: nothing of it is stored.
        let a = CsrMatrix::from_triplets(
            n,
            &parts.iter().flatten().map(|t| t.0 as u32).collect::<Vec<_>>(),
            &parts.iter().flatten().map(|t| t.1 as u32).collect::<Vec<_>>(),
            &parts.iter().flatten().map(|t| t.2).collect::<Vec<_>>(),
        );
        for r in 0..n {
            prop_assert!(a.row(r).all(|(c, v)| c != n - 1 && v != 0.0));
        }
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
