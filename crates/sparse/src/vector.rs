//! Small dense-vector helpers shared by the solvers.
//!
//! Every helper runs on the calling thread. Split across the `complx-par`
//! pool they measured 0.79–0.96× at two threads (DESIGN.md §11): a
//! fork-join per CG iteration cost more than the loop it split.
//!
//! The reductions ([`dot`] and [`norm1`]) still sum an input of
//! [`PAR_MIN_LEN`] elements or more as fixed [`DOT_CHUNK`]-element
//! partials folded left to right in chunk order. That is the order the
//! parallel path summed in, so every result keeps its bits.

/// Inputs at least this long are summed as [`DOT_CHUNK`] partials.
const PAR_MIN_LEN: usize = 8192;

/// Fixed reduction chunk size (in elements).
const DOT_CHUNK: usize = 1024;

fn dot_seq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn abs_sum(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

/// Folds per-chunk partials left to right: `p0 + p1 + …`.
fn fold_chunks(partials: impl Iterator<Item = f64>) -> f64 {
    partials.reduce(|acc, p| acc + p).unwrap_or(0.0)
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.len() < PAR_MIN_LEN {
        return dot_seq(a, b);
    }
    fold_chunks(
        a.chunks(DOT_CHUNK)
            .zip(b.chunks(DOT_CHUNK))
            .map(|(a, b)| dot_seq(a, b)),
    )
}

/// Euclidean (L2) norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// L1 norm (sum of absolute values).
pub fn norm1(a: &[f64]) -> f64 {
    if a.len() < PAR_MIN_LEN {
        return abs_sum(a);
    }
    fold_chunks(a.chunks(DOT_CHUNK).map(abs_sum))
}

/// Infinity norm (maximum absolute value); `0.0` for an empty slice.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// `y ← y + alpha·x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y ← x + beta·y` (the "xpby" update used inside CG).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, -4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
        assert_eq!(norm1(&a), 7.0);
        assert_eq!(norm_inf(&a), 4.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn xpby_updates_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }

    fn big(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn large_reductions_fold_fixed_chunks_in_order() {
        let n = 3 * PAR_MIN_LEN + 17; // chunked, with a ragged tail
        let a = big(1, n);
        let b = big(2, n);
        // One partial per DOT_CHUNK elements, folded p0 + p1 + … left to
        // right: the order every earlier result was summed in. Starting
        // from -0.0 keeps the first partial's bits (-0.0 + p == p).
        let (mut want_dot, mut want_l1) = (-0.0f64, -0.0f64);
        for lo in (0..n).step_by(DOT_CHUNK) {
            let hi = (lo + DOT_CHUNK).min(n);
            let (a, b) = (&a[lo..hi], &b[lo..hi]);
            want_dot += a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
            want_l1 += a.iter().map(|x| x.abs()).sum::<f64>();
        }
        assert_eq!(dot(&a, &b).to_bits(), want_dot.to_bits());
        assert_eq!(norm1(&a).to_bits(), want_l1.to_bits());
        assert_eq!(norm2(&b).to_bits(), dot(&b, &b).sqrt().to_bits());
    }
}
