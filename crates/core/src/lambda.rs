//! The Lagrange-multiplier schedule (paper Formula 12 and Section 4).

use crate::config::LambdaMode;

/// Stateful λ schedule.
///
/// The first non-zero value is `λ_1 = Φ/(divisor·Π)` — "sufficiently small
/// so that Φ ≫ λΠ", justified because Φ and Π share units (Section 4; the
/// paper uses divisor 100). Updates then follow the configured mode;
/// ComPLx's own rule caps growth at 2× per iteration and scales the
/// increment by the achieved penalty reduction `Π_{k+1}/Π_k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LambdaSchedule {
    mode: LambdaMode,
    lambda: f64,
    lambda_1: f64,
    h: f64,
    inverse_ratio: bool,
}

impl LambdaSchedule {
    /// Initializes the schedule from the first iterate's Φ and Π.
    ///
    /// # Panics
    ///
    /// Panics if `phi` or `pi` is not positive.
    pub fn new(mode: LambdaMode, divisor: f64, phi: f64, pi: f64) -> Self {
        assert!(phi > 0.0 && pi > 0.0, "Φ and Π must be positive");
        let lambda_1 = phi / (divisor * pi);
        let h = match mode {
            LambdaMode::Complx { h_factor } => h_factor * lambda_1,
            _ => lambda_1,
        };
        Self {
            mode,
            lambda: lambda_1,
            lambda_1,
            h,
            inverse_ratio: false,
        }
    }

    /// Interpret the Π ratio as `Π_k/Π_{k+1}` (accelerate while the
    /// penalty is falling) instead of `Π_{k+1}/Π_k`. This is the default
    /// reading (`PlacerConfig::lambda_inverse_ratio`, DESIGN.md §6); only
    /// the [`LambdaMode::Complx`] rule has a Π ratio to invert.
    #[must_use]
    pub fn with_inverse_ratio(mut self, inverse: bool) -> Self {
        self.inverse_ratio = inverse;
        self
    }

    /// The current multiplier.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The initial multiplier `λ_1`.
    pub fn lambda_1(&self) -> f64 {
        self.lambda_1
    }

    /// The Formula 12 increment scale `h` (checkpointed so a resumed
    /// schedule reproduces the original exactly).
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Rebuilds a schedule from previously captured state (λ, λ₁, h) — the
    /// checkpoint restore path. The update rule is configuration, not
    /// state: it starts as the default mode without the inverse ratio;
    /// apply [`Self::with_mode`] and [`Self::with_inverse_ratio`] as the
    /// original run did.
    pub fn restore(lambda: f64, lambda_1: f64, h: f64) -> Self {
        Self {
            mode: LambdaMode::default(),
            lambda,
            lambda_1,
            h,
            inverse_ratio: false,
        }
    }

    /// Replaces the update rule, keeping the captured state.
    #[must_use]
    pub fn with_mode(mut self, mode: LambdaMode) -> Self {
        self.mode = mode;
        self
    }

    /// Scales the current multiplier by `factor` (the divergence-recovery
    /// policy backs λ off after a numerical fault; the schedule then
    /// regrows it through the usual updates).
    pub fn scale(&mut self, factor: f64) {
        self.lambda *= factor;
    }

    /// Advances the schedule given the previous and current penalty values.
    pub fn advance(&mut self, pi_prev: f64, pi_cur: f64) {
        match self.mode {
            LambdaMode::Complx { .. } => {
                // Formula 12: λ_{k+1} = min(2λ_k, λ_k + (Π_{k+1}/Π_k)·h).
                // The 2λ cap binds during the first iterations ("a maximum
                // increase in λ can be imposed, say 100% per iteration");
                // afterwards growth is additive, throttled by how fast Π
                // falls.
                let ratio = if pi_prev > 0.0 {
                    (pi_cur / pi_prev).max(0.0)
                } else {
                    1.0
                };
                let ratio = if self.inverse_ratio && ratio > 0.0 {
                    1.0 / ratio
                } else {
                    ratio
                };
                self.lambda = (2.0 * self.lambda).min(self.lambda + ratio * self.h);
            }
            LambdaMode::Arithmetic { step } => {
                self.lambda += step * self.lambda_1;
            }
            LambdaMode::Geometric { ratio } => {
                self.lambda *= ratio;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_lambda_is_phi_over_100_pi() {
        let s = LambdaSchedule::new(LambdaMode::default(), 100.0, 5000.0, 10.0);
        assert!((s.lambda() - 5.0).abs() < 1e-12);
        assert_eq!(s.lambda(), s.lambda_1());
    }

    #[test]
    fn complx_growth_capped_at_doubling() {
        let mut s = LambdaSchedule::new(LambdaMode::Complx { h_factor: 100.0 }, 100.0, 100.0, 1.0);
        let l0 = s.lambda();
        s.advance(1.0, 1.0); // huge h would explode without the 2λ cap
        assert!((s.lambda() - 2.0 * l0).abs() < 1e-12);
    }

    #[test]
    fn complx_increment_scales_with_pi_ratio() {
        // Use a small h so the 2λ cap does not bind and the Π-ratio term is
        // observable.
        let mode = LambdaMode::Complx { h_factor: 0.5 };
        let mut a = LambdaSchedule::new(mode, 100.0, 100.0, 1.0);
        let mut b = a;
        a.advance(10.0, 9.0); // Π barely decreased → larger increment
        b.advance(10.0, 1.0); // Π collapsed → smaller increment
        assert!(a.lambda() > b.lambda());
    }

    #[test]
    fn arithmetic_growth_is_linear() {
        let mut s = LambdaSchedule::new(LambdaMode::Arithmetic { step: 1.0 }, 100.0, 100.0, 1.0);
        let l1 = s.lambda_1();
        s.advance(1.0, 1.0);
        s.advance(1.0, 1.0);
        assert!((s.lambda() - 3.0 * l1).abs() < 1e-12);
    }

    #[test]
    fn geometric_growth_multiplies() {
        let mut s = LambdaSchedule::new(LambdaMode::Geometric { ratio: 1.5 }, 100.0, 100.0, 1.0);
        let l1 = s.lambda();
        s.advance(1.0, 1.0);
        assert!((s.lambda() - 1.5 * l1).abs() < 1e-12);
    }

    #[test]
    fn scale_backs_lambda_off_without_touching_lambda_1() {
        let mut s = LambdaSchedule::new(LambdaMode::default(), 100.0, 5000.0, 10.0);
        let l1 = s.lambda_1();
        s.advance(1.0, 1.0);
        let before = s.lambda();
        s.scale(0.5);
        assert!((s.lambda() - 0.5 * before).abs() < 1e-12);
        assert_eq!(s.lambda_1(), l1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_pi_rejected() {
        LambdaSchedule::new(LambdaMode::default(), 100.0, 100.0, 0.0);
    }

    #[test]
    fn restore_reproduces_advance_sequence() {
        let mode = LambdaMode::Geometric { ratio: 1.5 };
        let mut original = LambdaSchedule::new(mode, 100.0, 5000.0, 10.0);
        original.advance(10.0, 7.0);
        original.advance(7.0, 3.0);
        let mut restored =
            LambdaSchedule::restore(original.lambda(), original.lambda_1(), original.h())
                .with_mode(mode);
        original.advance(3.0, 2.0);
        restored.advance(3.0, 2.0);
        assert_eq!(original.lambda().to_bits(), restored.lambda().to_bits());
    }
}
