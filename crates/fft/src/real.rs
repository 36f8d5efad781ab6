//! Trigonometric transforms of real data via one `2n`-point complex FFT.
//!
//! All four operations reduce to the same identity: zero-pad (or
//! phase-twist) the length-`n` real input into a `2n` complex buffer, run
//! one forward FFT, and read the answer off the real or imaginary part
//! after multiplying by the half-sample phase `e^{-iπk/(2n)}`:
//!
//! * forward cosine (DCT-II):  `c_k = Σ_i x_i cos(πk(2i+1)/2n)
//!                              = Re(e^{-iπk/2n} · FFT₂ₙ(x‖0)[k])`
//! * forward sine (DST-II):    `s_k = −Im(e^{-iπ(k+1)/2n} · FFT₂ₙ(x‖0)[k+1])`
//! * cosine evaluation:        `y_i = Σ_k a_k cos(πk(2i+1)/2n)
//!                              = Re(FFT₂ₙ(a·e^{-iπk/2n}‖0)[i])`
//!   (because `Re z = Re z̄`, the conjugate series collapses onto the
//!   forward transform)
//! * sine evaluation:          `y_i = −Im(FFT₂ₙ(a·e^{-iπk/2n}‖0)[i])`
//!
//! The evaluations are the "inverse" direction the Poisson solver needs:
//! they turn spectral coefficients back into bin-center samples, including
//! the sine series that spectral differentiation produces.

use crate::complex::Complex;
use crate::plan::FftPlan;

/// Cosine/sine transforms of length `n`, built on one `2n`-point [`FftPlan`].
#[derive(Debug, Clone)]
pub struct RealPlan {
    n: usize,
    full: FftPlan,
    /// `phase[k] = e^{-iπk/(2n)}` for `k = 0..=n` (the DST-II forward reads
    /// one index past `n-1`).
    phase: Vec<Complex>,
}

impl RealPlan {
    /// Builds a plan for length-`n` transforms.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "transform length must be a power of two"
        );
        let full = FftPlan::new(2 * n);
        let mut phase = Vec::with_capacity(n + 1);
        for k in 0..=n {
            phase.push(Complex::cis(
                -std::f64::consts::PI * k as f64 / (2.0 * n as f64),
            ));
        }
        Self { n, full, phase }
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan has zero length (never true; API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Fills `scratch` with `x` zero-padded to `2n` and runs the FFT.
    fn padded_fft(&self, x: &[f64], scratch: &mut Vec<Complex>) {
        scratch.clear();
        scratch.resize(2 * self.n, Complex::ZERO);
        for (s, &v) in scratch.iter_mut().zip(x) {
            *s = Complex::new(v, 0.0);
        }
        self.full.fft(scratch);
    }

    /// DCT-II forward: `out[k] = Σ_i x[i]·cos(πk(2i+1)/(2n))`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is not exactly `n` long.
    pub fn cos_forward(&self, x: &[f64], out: &mut [f64], scratch: &mut Vec<Complex>) {
        assert_eq!(x.len(), self.n);
        assert_eq!(out.len(), self.n);
        self.padded_fft(x, scratch);
        for (k, o) in out.iter_mut().enumerate() {
            *o = (self.phase[k] * scratch[k]).re;
        }
    }

    /// DST-II forward: `out[k] = Σ_i x[i]·sin(π(k+1)(2i+1)/(2n))`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is not exactly `n` long.
    pub fn sin_forward(&self, x: &[f64], out: &mut [f64], scratch: &mut Vec<Complex>) {
        assert_eq!(x.len(), self.n);
        assert_eq!(out.len(), self.n);
        self.padded_fft(x, scratch);
        for (k, o) in out.iter_mut().enumerate() {
            *o = -(self.phase[k + 1] * scratch[k + 1]).im;
        }
    }

    /// Fills `scratch` with the phase-twisted coefficients and runs the FFT.
    fn twisted_fft(&self, a: &[f64], scratch: &mut Vec<Complex>) {
        scratch.clear();
        scratch.resize(2 * self.n, Complex::ZERO);
        for (k, &c) in a.iter().enumerate() {
            scratch[k] = self.phase[k].scale(c);
        }
        self.full.fft(scratch);
    }

    /// Cosine series evaluation at the half-sample points:
    /// `out[i] = Σ_k a[k]·cos(πk(2i+1)/(2n))`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `out` is not exactly `n` long.
    pub fn cos_eval(&self, a: &[f64], out: &mut [f64], scratch: &mut Vec<Complex>) {
        assert_eq!(a.len(), self.n);
        assert_eq!(out.len(), self.n);
        self.twisted_fft(a, scratch);
        for (i, o) in out.iter_mut().enumerate() {
            *o = scratch[i].re;
        }
    }

    /// Sine series evaluation at the half-sample points:
    /// `out[i] = Σ_k a[k]·sin(πk(2i+1)/(2n))` (the `k = 0` term vanishes).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `out` is not exactly `n` long.
    pub fn sin_eval(&self, a: &[f64], out: &mut [f64], scratch: &mut Vec<Complex>) {
        assert_eq!(a.len(), self.n);
        assert_eq!(out.len(), self.n);
        self.twisted_fft(a, scratch);
        for (i, o) in out.iter_mut().enumerate() {
            *o = -scratch[i].im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_cos_forward(x: &[f64], k: usize) -> f64 {
        let n = x.len() as f64;
        x.iter()
            .enumerate()
            .map(|(i, &v)| {
                v * (std::f64::consts::PI * k as f64 * (2 * i + 1) as f64 / (2.0 * n)).cos()
            })
            .sum()
    }

    #[test]
    fn cos_forward_matches_naive_sum() {
        let n = 16;
        let plan = RealPlan::new(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.3).collect();
        let mut out = vec![0.0; n];
        let mut scratch = Vec::new();
        plan.cos_forward(&x, &mut out, &mut scratch);
        for (k, &got) in out.iter().enumerate() {
            let want = naive_cos_forward(&x, k);
            assert!((got - want).abs() < 1e-10, "k={k}: {got} vs {want}");
        }
    }

    #[test]
    fn cosine_round_trip_recovers_input() {
        // DCT-II followed by the scaled cosine evaluation is the identity:
        // x_i = (1/n)·c_0 + (2/n)·Σ_{k≥1} c_k cos(πk(2i+1)/2n).
        let n = 32;
        let plan = RealPlan::new(n);
        let x: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.013).cos()).collect();
        let mut c = vec![0.0; n];
        let mut scratch = Vec::new();
        plan.cos_forward(&x, &mut c, &mut scratch);
        let a: Vec<f64> = c
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                if k == 0 {
                    v / n as f64
                } else {
                    2.0 * v / n as f64
                }
            })
            .collect();
        let mut y = vec![0.0; n];
        plan.cos_eval(&a, &mut y, &mut scratch);
        for i in 0..n {
            assert!((y[i] - x[i]).abs() < 1e-12, "i={i}: {} vs {}", y[i], x[i]);
        }
    }
}
