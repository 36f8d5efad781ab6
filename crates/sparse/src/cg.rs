//! Jacobi-preconditioned Conjugate Gradient.

use crate::csr::CsrMatrix;
use crate::vector::{axpy, dot, norm2, xpby};

/// How a CG solve broke down, when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CgBreakdown {
    /// `p·Ap ≤ 0`: the matrix is not SPD along the search direction (or
    /// round-off destroyed positivity). The last accepted iterate is kept.
    IndefiniteDirection,
    /// The residual, right-hand side, or an intermediate product became
    /// non-finite. The solution is left at the last finite iterate.
    NonFinite,
}

impl std::fmt::Display for CgBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CgBreakdown::IndefiniteDirection => f.write_str("p·Ap ≤ 0 (matrix not SPD)"),
            CgBreakdown::NonFinite => f.write_str("non-finite residual"),
        }
    }
}

/// Convergence report returned by [`CgSolver::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Number of CG iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖₂ / ‖b‖₂`.
    pub relative_residual: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
    /// Set when the solve broke down; the returned `x` is then the last
    /// finite iterate instead of NaN garbage.
    pub breakdown: Option<CgBreakdown>,
    /// Number of non-positive diagonal entries the Jacobi preconditioner
    /// had to clamp (an SPD placement system has none; a non-zero count is
    /// a red flag the caller can act on).
    pub clamped_diagonals: usize,
}

/// A Jacobi-preconditioned Conjugate Gradient solver for SPD systems.
///
/// Placement matrices are diagonally dominant Laplacians plus positive
/// diagonal terms from fixed connections and anchors, so Jacobi (diagonal)
/// preconditioning is cheap and effective — this mirrors the solver choices
/// in SimPL and ComPLx (Section S4 notes ComPLx uses *linear* CG).
///
/// The solver is warm-start friendly: `x` is used as the initial guess,
/// which global placement exploits by passing the previous iterate.
///
/// # Example
///
/// ```
/// use complx_sparse::{CgSolver, TripletMatrix};
///
/// let mut t = TripletMatrix::new(2);
/// t.add(0, 0, 2.0);
/// t.add(1, 1, 8.0);
/// let a = t.to_csr();
/// let mut x = vec![0.0; 2];
/// let stats = CgSolver::new().with_tolerance(1e-12).solve(&a, &[2.0, 8.0], &mut x, None);
/// assert!(stats.converged);
/// assert!((x[0] - 1.0).abs() < 1e-9 && (x[1] - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgSolver {
    tolerance: f64,
    max_iterations: usize,
}

impl Default for CgSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl CgSolver {
    /// Creates a solver with relative tolerance `1e-6` and a limit of
    /// `10·n + 100` iterations (resolved at solve time).
    pub fn new() -> Self {
        Self {
            tolerance: 1e-6,
            max_iterations: 0, // 0 = auto
        }
    }

    /// Sets the relative residual tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Sets an explicit iteration limit (`0` selects the automatic limit).
    #[must_use]
    pub fn with_max_iterations(mut self, limit: usize) -> Self {
        self.max_iterations = limit;
        self
    }

    /// The configured relative tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Solves `A·x = b`, using the incoming `x` as warm start.
    ///
    /// `A` must be symmetric positive-definite for convergence guarantees;
    /// this is not checked (it would cost more than the solve). Breakdown —
    /// an indefinite search direction (`p·Ap ≤ 0`) or a non-finite residual
    /// — is *detected* and reported in [`SolveStats::breakdown`] rather
    /// than propagated: on return `x` always holds the last finite iterate,
    /// never NaN. Non-positive Jacobi diagonal entries are clamped to an
    /// identity preconditioner row and counted in
    /// [`SolveStats::clamped_diagonals`].
    ///
    /// `cancel` is a cooperative cancellation point at every CG iteration:
    /// when it trips, the solver stops after the iteration in flight and
    /// returns the last accepted iterate (reported as unconverged, never as
    /// a breakdown). With `None` or a token that never trips the result is
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` have length different from `a.dim()`.
    pub fn solve(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        cancel: Option<&complx_par::CancelToken>,
    ) -> SolveStats {
        let stats = self.solve_inner(a, b, x, cancel);
        // Feed the armed observability pipeline, if any (no-ops otherwise).
        complx_obs::add("cg.solves", 1);
        complx_obs::add("cg.iterations", stats.iterations as u64);
        complx_obs::add("cg.clamped_diagonals", stats.clamped_diagonals as u64);
        complx_obs::add("cg.breakdowns", u64::from(stats.breakdown.is_some()));
        complx_obs::add("cg.unconverged", u64::from(!stats.converged));
        complx_obs::observe("cg.relative_residual", stats.relative_residual);
        stats
    }

    fn solve_inner(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        cancel: Option<&complx_par::CancelToken>,
    ) -> SolveStats {
        let n = a.dim();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
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

        // Jacobi preconditioner with a guard: a structurally-zero or
        // negative diagonal (singular/indefinite row) falls back to the
        // identity on that row instead of dividing by zero.
        let mut clamped = 0usize;
        let inv_diag: Vec<f64> = a
            .diagonal_ref()
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

        let max_iter = if self.max_iterations == 0 {
            10 * n + 100
        } else {
            self.max_iterations
        };

        let b_norm = norm2(b);
        // An exactly-zero right-hand side has the
        // exactly-zero solution; near-zero norms must still run the solver.
        if b_norm == 0.0 {
            x.fill(0.0);
            return done(0, 0.0, true, None, clamped);
        }
        if !b_norm.is_finite() {
            // Garbage right-hand side: nothing sensible can be solved.
            // Leave x untouched if finite, otherwise zero it.
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
        // A poisoned warm start would contaminate the residual; restart cold.
        if x.iter().any(|v| !v.is_finite()) {
            x.fill(0.0);
            complx_obs::add("cg.cold_restarts", 1);
        }

        // r = b − A·x
        let mut r = vec![0.0; n];
        a.mul_vec(x, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        let mut res = norm2(&r) / b_norm;
        if !res.is_finite() {
            // The matrix itself contains non-finite entries (A·x broke even
            // though x was finite). Report rather than iterate on garbage.
            return done(
                0,
                f64::INFINITY,
                false,
                Some(CgBreakdown::NonFinite),
                clamped,
            );
        }

        // z = M⁻¹ r ; p = z
        let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        let mut ap = vec![0.0; n];

        let mut iterations = 0;
        let mut breakdown = None;
        while res > self.tolerance && iterations < max_iter {
            if cancel.is_some_and(complx_par::CancelToken::is_cancelled) {
                // Cooperative stop: x holds the last accepted (finite)
                // iterate; the caller sees an ordinary unconverged solve.
                complx_obs::add("cg.cancelled", 1);
                break;
            }
            a.mul_vec(&p, &mut ap);
            let pap = dot(&p, &ap);
            if !pap.is_finite() {
                breakdown = Some(CgBreakdown::NonFinite);
                break;
            }
            if pap <= 0.0 {
                // Matrix is not SPD along p (or round-off destroyed
                // positivity); x still holds the last accepted iterate.
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
                // x is only stepped after this check, so it still holds
                // the last finite iterate.
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
            breakdown.is_none() && res <= self.tolerance,
            breakdown,
            clamped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    /// Builds the (SPD) 1-D Poisson matrix of size n with Dirichlet anchors.
    fn poisson(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.add(i, i, 2.0);
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                t.add(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn solves_identity() {
        let mut t = TripletMatrix::new(3);
        for i in 0..3 {
            t.add(i, i, 1.0);
        }
        let a = t.to_csr();
        let mut x = vec![0.0; 3];
        let stats = CgSolver::new().solve(&a, &[1.0, 2.0, 3.0], &mut x, None);
        assert!(stats.converged);
        assert_eq!(stats.iterations, 1);
        for (xi, bi) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((xi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_poisson_to_tolerance() {
        let n = 200;
        let a = poisson(n);
        // Manufacture the solution x* = i/n and compute b = A x*.
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let mut b = vec![0.0; n];
        a.mul_vec(&xs, &mut b);
        let mut x = vec![0.0; n];
        let stats = CgSolver::new()
            .with_tolerance(1e-10)
            .solve(&a, &b, &mut x, None);
        assert!(stats.converged, "stats: {stats:?}");
        for (xi, xsi) in x.iter().zip(&xs) {
            assert!((xi - xsi).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_start_converges_immediately() {
        let n = 50;
        let a = poisson(n);
        let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut b = vec![0.0; n];
        a.mul_vec(&xs, &mut b);
        let mut x = xs.clone();
        let stats = CgSolver::new().solve(&a, &b, &mut x, None);
        assert_eq!(stats.iterations, 0);
        assert!(stats.converged);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = poisson(10);
        let mut x = vec![5.0; 10];
        let stats = CgSolver::new().solve(&a, &[0.0; 10], &mut x, None);
        assert!(stats.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_system() {
        let a = TripletMatrix::new(0).to_csr();
        let mut x: Vec<f64> = vec![];
        let stats = CgSolver::new().solve(&a, &[], &mut x, None);
        assert!(stats.converged);
    }

    #[test]
    fn iteration_limit_respected() {
        let a = poisson(500);
        let b = vec![1.0; 500];
        let mut x = vec![0.0; 500];
        let stats = CgSolver::new()
            .with_tolerance(1e-14)
            .with_max_iterations(3)
            .solve(&a, &b, &mut x, None);
        assert_eq!(stats.iterations, 3);
        assert!(!stats.converged);
    }

    #[test]
    fn singular_diagonal_is_clamped_not_fatal() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        // (1,1) left structurally zero: the Jacobi preconditioner would
        // divide by zero without the clamp.
        let a = t.to_csr();
        let mut x = vec![0.0; 2];
        let stats = CgSolver::new().solve(&a, &[1.0, 1.0], &mut x, None);
        assert_eq!(stats.clamped_diagonals, 1);
        assert!(x.iter().all(|v| v.is_finite()), "x stays finite: {x:?}");
        // The system is singular, so the solve cannot truly converge; it
        // must report that rather than emit NaN.
        assert!(stats.breakdown.is_some() || !stats.converged);
    }

    #[test]
    fn indefinite_matrix_reports_breakdown() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 1, -1.0); // negative diagonal → not SPD
        let a = t.to_csr();
        let mut x = vec![0.0; 2];
        let stats = CgSolver::new().solve(&a, &[1.0, 1.0], &mut x, None);
        assert!(!stats.converged);
        assert!(
            matches!(
                stats.breakdown,
                Some(CgBreakdown::IndefiniteDirection) | Some(CgBreakdown::NonFinite)
            ),
            "stats: {stats:?}"
        );
        assert_eq!(stats.clamped_diagonals, 1);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nonfinite_rhs_reports_breakdown_and_keeps_x_finite() {
        let a = poisson(4);
        let mut x = vec![f64::NAN; 4];
        let stats = CgSolver::new().solve(&a, &[1.0, f64::NAN, 1.0, 1.0], &mut x, None);
        assert!(!stats.converged);
        assert_eq!(stats.breakdown, Some(CgBreakdown::NonFinite));
        assert!(x.iter().all(|v| v.is_finite()), "x sanitized: {x:?}");
    }

    #[test]
    fn nonfinite_warm_start_is_restarted_cold() {
        let n = 20;
        let a = poisson(n);
        let b = vec![1.0; n];
        let mut x = vec![f64::INFINITY; n];
        let stats = CgSolver::new()
            .with_tolerance(1e-10)
            .solve(&a, &b, &mut x, None);
        assert!(stats.converged, "stats: {stats:?}");
        assert!(stats.breakdown.is_none());
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pre_cancelled_solve_stops_immediately_and_stays_finite() {
        let n = 300;
        let a = poisson(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let token = complx_par::CancelToken::new();
        token.cancel();
        let stats = CgSolver::new()
            .with_tolerance(1e-12)
            .solve(&a, &b, &mut x, Some(&token));
        assert_eq!(stats.iterations, 0);
        assert!(!stats.converged);
        assert!(stats.breakdown.is_none(), "cancel is not a breakdown");
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn untripped_token_is_bit_identical_to_no_token() {
        let n = 120;
        let a = poisson(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        let token = complx_par::CancelToken::new();
        let s1 = CgSolver::new().solve(&a, &b, &mut x1, None);
        let s2 = CgSolver::new().solve(&a, &b, &mut x2, Some(&token));
        assert_eq!(s1, s2);
        for (a1, a2) in x1.iter().zip(&x2) {
            assert_eq!(a1.to_bits(), a2.to_bits());
        }
    }

    #[test]
    fn nonfinite_residual_mid_solve_keeps_the_previous_iterate() {
        // A three-variable chain with one stiff spring. From x = 0 and
        // b = (1, 1, 1) the residual 2-norms of the first three iterates
        // are 1.73, 1.48 and 33.6, so with b scaled near the overflow
        // threshold `norm2(r)` overflows first at iteration 2.
        let mut t = TripletMatrix::new(3);
        t.add_connection(0, 1, 1000.0);
        t.add_connection(1, 2, 0.1);
        t.add_diagonal(2, 1.0);
        let a = t.to_csr();
        let b = [1e153; 3];
        let mut one_step = vec![0.0; 3];
        let capped = CgSolver::new()
            .with_max_iterations(1)
            .solve(&a, &b, &mut one_step, None);
        assert_eq!((capped.iterations, capped.breakdown), (1, None));
        let mut x = vec![0.0; 3];
        let stats = CgSolver::new().solve(&a, &b, &mut x, None);
        assert_eq!(stats.breakdown, Some(CgBreakdown::NonFinite));
        assert_eq!(stats.iterations, 2);
        assert!(!stats.converged);
        for (got, want) in x.iter().zip(&one_step) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn breakdown_display_names_the_mode() {
        assert!(CgBreakdown::IndefiniteDirection.to_string().contains("SPD"));
        assert!(CgBreakdown::NonFinite.to_string().contains("non-finite"));
    }
}
