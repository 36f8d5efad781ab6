//! Golden-value tests: a hand-computed 8-point fixture and exhaustive
//! agreement with the naive `O(n²)` reference transforms on every
//! supported size from 2 through 256.

use complx_fft::{Complex, FftPlan, RealPlan};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Naive `O(n²)` DFT: `X_k = Σ_j x_j·e^{-2πijk/n}`.
fn naive_dft(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &v) in x.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                acc = acc + v * Complex::cis(ang);
            }
            acc
        })
        .collect()
}

/// The DFT of the ramp `x = [0, 1, …, 7]`, derived by hand.
///
/// For any n-th root of unity `ω ≠ 1`, the geometric-derivative identity
/// `Σ_{j=0}^{n-1} j·ω^j = n/(ω − 1)` gives, with `ω_k = e^{-2πik/8}`,
///
/// `X_k = 8/(ω_k − 1) = −4 + 4i·cot(πk/8)`,
///
/// and the half-angle values `cot(π/8) = 1 + √2`, `cot(π/4) = 1`,
/// `cot(3π/8) = √2 − 1`, `cot(π/2) = 0` (upper half mirrored with the
/// opposite sign). `X_0` is the plain sum `0 + 1 + … + 7 = 28`.
#[test]
fn ramp_8_point_matches_hand_computed_fixture() {
    let want = [
        (28.0, 0.0),
        (-4.0, 9.656_854_249_492_38), // 4·(1 + √2)
        (-4.0, 4.0),
        (-4.0, 1.656_854_249_492_380_6), // 4·(√2 − 1)
        (-4.0, 0.0),
        (-4.0, -1.656_854_249_492_380_6),
        (-4.0, -4.0),
        (-4.0, -9.656_854_249_492_38),
    ];
    let plan = FftPlan::new(8);
    let mut buf: Vec<Complex> = (0..8).map(|j| Complex::new(j as f64, 0.0)).collect();
    plan.fft(&mut buf);
    for (k, (got, &(re, im))) in buf.iter().zip(want.iter()).enumerate() {
        assert!(
            (got.re - re).abs() < 1e-12 && (got.im - im).abs() < 1e-12,
            "k={k}: ({}, {}) vs ({re}, {im})",
            got.re,
            got.im,
        );
    }
}

/// The radix-2 transform agrees with the naive DFT on random data at
/// every power-of-two size from 2 through 256.
#[test]
fn matches_naive_dft_on_sizes_2_through_256() {
    let mut rng = StdRng::seed_from_u64(0x0FF7_2024);
    for lg in 1..=8 {
        let n = 1usize << lg;
        let x: Vec<Complex> = (0..n)
            .map(|_| {
                Complex::new(
                    rng.random_range(-1.0f64..1.0),
                    rng.random_range(-1.0f64..1.0),
                )
            })
            .collect();
        let want = naive_dft(&x);
        let plan = FftPlan::new(n);
        let mut got = x;
        plan.fft(&mut got);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9,
                "n={n} k={k}: ({}, {}) vs ({}, {})",
                g.re,
                g.im,
                w.re,
                w.im,
            );
        }
    }
}

/// The phase-twisted real transforms agree with their naive sums on
/// random data at every power-of-two size from 2 through 256.
#[test]
fn real_transforms_match_naive_sums_on_sizes_2_through_256() {
    let mut rng = StdRng::seed_from_u64(0xDC7_2024);
    for lg in 1..=8 {
        let n = 1usize << lg;
        let x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0f64..1.0)).collect();
        let plan = RealPlan::new(n);
        let mut scratch = Vec::new();

        let mut cos_got = vec![0.0; n];
        plan.cos_forward(&x, &mut cos_got, &mut scratch);
        let mut sin_got = vec![0.0; n];
        plan.sin_forward(&x, &mut sin_got, &mut scratch);

        for k in 0..n {
            let half = std::f64::consts::PI / (2.0 * n as f64);
            let cos_want: f64 = x
                .iter()
                .enumerate()
                .map(|(i, &v)| v * (half * k as f64 * (2 * i + 1) as f64).cos())
                .sum();
            let sin_want: f64 = x
                .iter()
                .enumerate()
                .map(|(i, &v)| v * (half * (k + 1) as f64 * (2 * i + 1) as f64).sin())
                .sum();
            assert!(
                (cos_got[k] - cos_want).abs() < 1e-9,
                "cos n={n} k={k}: {} vs {cos_want}",
                cos_got[k],
            );
            assert!(
                (sin_got[k] - sin_want).abs() < 1e-9,
                "sin n={n} k={k}: {} vs {sin_want}",
                sin_got[k],
            );
        }
    }
}
