//! A small nonlinear Conjugate Gradient minimizer (Polak–Ribière+ with
//! Armijo backtracking): the optimizer behind every smooth interconnect
//! model ([`crate::SmoothModel`]).

/// Statistics from one nonlinear-CG run on a single axis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct NlcgStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Gradient infinity-norm at the returned iterate (after the last
    /// accepted step) relative to the starting one; the run converged when
    /// this is at most the tolerance.
    pub relative_residual: f64,
}

/// A smooth unconstrained objective over a flat variable vector.
pub(crate) trait SmoothObjective {
    /// Evaluates the objective at `z`, overwriting `grad` with the gradient
    /// (implementations zero it first). `&mut self` lets an objective
    /// reuse its evaluation buffers.
    fn eval(&mut self, z: &[f64], grad: &mut [f64]) -> f64;

    /// A characteristic length scale for the initial line-search step (the
    /// largest component of the first trial step moves by about this much).
    fn step_scale(&self) -> f64;
}

/// Minimizes `problem` starting from `z`, in place, with a cooperative
/// cancellation point at every outer NLCG iteration: when `cancel` trips,
/// the minimizer returns its last accepted iterate. Pass `None` for an
/// uninterruptible run — the result is bit-identical either way while the
/// token stays untripped.
pub(crate) fn minimize(
    problem: &mut impl SmoothObjective,
    z: &mut [f64],
    max_iter: usize,
    tol: f64,
    cancel: Option<&complx_par::CancelToken>,
) -> NlcgStats {
    let n = z.len();
    if n == 0 {
        return NlcgStats::default();
    }
    let mut grad = vec![0.0; n];
    let mut f = problem.eval(z, &mut grad);
    let g0_norm = inf_norm(&grad).max(1e-30);
    let mut dir: Vec<f64> = grad.iter().map(|&v| -v).collect();
    let mut grad_prev = grad.clone();
    let mut iterations = 0;
    let mut z_try = vec![0.0; n];
    let mut grad_try = vec![0.0; n];

    for it in 0..max_iter {
        if cancel.is_some_and(complx_par::CancelToken::is_cancelled) {
            break; // z holds the last accepted iterate
        }
        if inf_norm(&grad) <= tol * g0_norm {
            break;
        }
        let mut slope: f64 = grad.iter().zip(&dir).map(|(g, d)| g * d).sum();
        if slope >= 0.0 {
            for (d, g) in dir.iter_mut().zip(&grad) {
                *d = -g;
            }
            slope = -grad.iter().map(|g| g * g).sum::<f64>();
        }

        let dmax = inf_norm(&dir).max(1e-30);
        let mut step = problem.step_scale() / dmax;
        let mut accepted = false;
        for _ in 0..30 {
            for i in 0..n {
                z_try[i] = z[i] + step * dir[i];
            }
            let f_try = problem.eval(&z_try, &mut grad_try);
            if f_try <= f + 1e-4 * step * slope {
                z.copy_from_slice(&z_try);
                grad_prev.copy_from_slice(&grad);
                grad.copy_from_slice(&grad_try);
                f = f_try;
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        iterations = it + 1;
        if !accepted {
            break; // line search exhausted: numerical optimum
        }
        // Polak–Ribière+ update.
        let num: f64 = grad
            .iter()
            .zip(&grad_prev)
            .map(|(g, gp)| g * (g - gp))
            .sum();
        let den: f64 = grad_prev.iter().map(|g| g * g).sum();
        let beta = (num / den.max(1e-30)).max(0.0);
        for i in 0..n {
            dir[i] = -grad[i] + beta * dir[i];
        }
    }
    NlcgStats {
        iterations,
        relative_residual: inf_norm(&grad) / g0_norm,
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A convex quadratic bowl: f(z) = Σ (z_i − i)².
    struct Bowl;
    impl SmoothObjective for Bowl {
        fn eval(&mut self, z: &[f64], grad: &mut [f64]) -> f64 {
            grad.fill(0.0);
            let mut f = 0.0;
            for (i, (zi, gi)) in z.iter().zip(grad.iter_mut()).enumerate() {
                let d = zi - i as f64;
                f += d * d;
                *gi = 2.0 * d;
            }
            f
        }
        fn step_scale(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn minimizes_quadratic_bowl() {
        let mut z = vec![10.0; 6];
        let stats = minimize(&mut Bowl, &mut z, 200, 1e-8, None);
        assert!(Bowl.eval(&z, &mut [0.0; 6]) < 1e-8, "{stats:?}");
        assert!(stats.relative_residual <= 1e-8, "{stats:?}");
        for (i, zi) in z.iter().enumerate() {
            assert!((zi - i as f64).abs() < 1e-4);
        }
    }

    /// Rosenbrock in 2-D: a classic non-quadratic sanity check.
    struct Rosenbrock;
    impl SmoothObjective for Rosenbrock {
        fn eval(&mut self, z: &[f64], grad: &mut [f64]) -> f64 {
            grad.fill(0.0);
            let (x, y) = (z[0], z[1]);
            let f = (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2);
            grad[0] = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x);
            grad[1] = 200.0 * (y - x * x);
            f
        }
        fn step_scale(&self) -> f64 {
            0.1
        }
    }

    #[test]
    fn makes_progress_on_rosenbrock() {
        let mut z = vec![-1.2, 1.0];
        let mut g = vec![0.0; 2];
        let f0 = Rosenbrock.eval(&z, &mut g);
        let stats = minimize(&mut Rosenbrock, &mut z, 500, 1e-10, None);
        assert!(Rosenbrock.eval(&z, &mut g) < 0.01 * f0, "{stats:?}");
    }

    #[test]
    fn capped_run_reports_the_residual_after_its_last_step() {
        let mut z = vec![10.0; 6];
        let stats = minimize(&mut Bowl, &mut z, 1, 1e-8, None);
        assert_eq!(stats.iterations, 1);
        // The residual is measured at the returned iterate, after the step.
        let (mut g, mut g0) = ([0.0; 6], [0.0; 6]);
        Bowl.eval(&z, &mut g);
        Bowl.eval(&[10.0; 6], &mut g0);
        let want = inf_norm(&g) / inf_norm(&g0);
        assert!(
            want > 1e-8 && want < 1.0,
            "one step neither stalls nor converges"
        );
        assert_eq!(stats.relative_residual.to_bits(), want.to_bits());
    }

    #[test]
    fn empty_problem_is_noop() {
        let mut z: Vec<f64> = vec![];
        let stats = minimize(&mut Bowl, &mut z, 10, 1e-6, None);
        assert_eq!(stats.iterations, 0);
    }
}
