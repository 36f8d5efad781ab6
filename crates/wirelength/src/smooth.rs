//! The smooth interconnect models of paper Section S1 — log-sum-exp,
//! β-regularization and p,β-regularization — as one skeleton and three
//! per-net kernels, minimized by nonlinear Conjugate Gradient.
//!
//! [`SmoothModel`] owns everything the models share: the flat per-axis pin
//! arrays, the per-net coordinate buffer, the smoothed anchor penalty
//! `λ_i·√((x−x°)² + ε²)`, the per-axis NLCG run, write-back, the core
//! clamp, the surrogate wirelength and the statistics. A [`NetKernel`]
//! supplies only its length parameter, its initial line-search step and
//! the value and gradient of one net. Unlike the quadratic models these
//! objectives need no per-iteration linearization.
//!
//! Outputs are bit-exact functions of the operation order: the skeleton
//! visits nets in design order, hands each kernel its pins in net order,
//! and adds the anchor term after every net; each kernel keeps its own
//! accumulation order into `total` and `grad` (DESIGN.md §20).

use complx_netlist::{Design, Placement};

use crate::anchors::Anchors;
use crate::model::{clamp_to_core, InterconnectModel, MinimizeStats};
use crate::nlcg::{self, NlcgStats, SmoothObjective};
use crate::system::VarIndex;

/// NLCG iteration cap per axis per minimize call.
const MAX_ITERATIONS: usize = 150;
/// Relative gradient-norm stopping tolerance.
const TOLERANCE: f64 = 1e-4;

/// One net on one axis, as the skeleton hands it to a [`NetKernel`].
#[derive(Debug, Clone, Copy)]
pub struct Net<'a> {
    /// Pin coordinates on this axis (cell position + pin offset).
    pub coords: &'a [f64],
    /// Pin variables, parallel to `coords`; [`Net::FIXED`] marks a pin on
    /// a fixed cell, which takes no gradient.
    pub vars: &'a [usize],
    /// Net weight.
    pub weight: f64,
}

impl Net<'_> {
    /// Variable of a pin on a fixed cell.
    pub const FIXED: usize = usize::MAX;
}

/// The per-net part of a smooth wirelength `Φ`: the only thing that
/// differs between the Section S1 models.
pub trait NetKernel {
    /// Model name (for reports).
    const NAME: &'static str;

    /// The kernel's length parameter in design units (γ, β or ε).
    fn param(&self, design: &Design) -> f64;

    /// NLCG's initial line-search step for parameter `param`: the largest
    /// component of the first trial step moves by about this much.
    fn step_scale(&self, param: f64) -> f64;

    /// Adds the net's weighted value to `total` and its gradient to
    /// `grad[net.vars[k]]` for every movable pin `k`. `scratch` is a buffer
    /// the kernel may use freely; it is reused across nets.
    fn add_net(
        &self,
        param: f64,
        net: Net<'_>,
        scratch: &mut Vec<f64>,
        total: &mut f64,
        grad: &mut [f64],
    );
}

/// A smooth interconnect model: the [`NetKernel`] `K` summed over nets,
/// plus the smoothed anchor penalty, minimized per axis by NLCG.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SmoothModel<K> {
    kernel: K,
}

/// Log-sum-exp wirelength model.
pub type LseModel = SmoothModel<Lse>;
/// β-regularized linear-wirelength model.
pub type BetaRegModel = SmoothModel<BetaReg>;
/// p,β-regularized max-term smoothing of HPWL.
pub type PNormModel = SmoothModel<PNorm>;

impl<K: NetKernel + Default> SmoothModel<K> {
    /// Creates the model with the kernel's default parameter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LseModel {
    /// Sets the smoothing parameter γ as a multiple of row height. Smaller
    /// is closer to true HPWL but harder to optimize.
    ///
    /// # Panics
    ///
    /// Panics unless `gamma_rows` is positive and finite.
    #[must_use]
    pub fn with_gamma_rows(mut self, gamma_rows: f64) -> Self {
        assert!(gamma_rows > 0.0 && gamma_rows.is_finite());
        self.kernel.gamma_rows = gamma_rows;
        self
    }
}

impl BetaRegModel {
    /// Sets β as a multiple of the squared row height.
    ///
    /// # Panics
    ///
    /// Panics unless `beta_rows2` is positive and finite.
    #[must_use]
    pub fn with_beta_rows2(mut self, beta_rows2: f64) -> Self {
        assert!(beta_rows2 > 0.0 && beta_rows2.is_finite());
        self.kernel.beta_rows2 = beta_rows2;
        self
    }
}

impl PNormModel {
    /// Sets the exponent `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is finite and at least 2.
    #[must_use]
    pub fn with_p(mut self, p: f64) -> Self {
        assert!(p >= 2.0 && p.is_finite(), "p must be finite and at least 2");
        self.kernel.p = p;
        self
    }
}

/// One axis of the problem: pins flattened for fast evaluation.
struct Axis<'a, K> {
    kernel: &'a K,
    param: f64,
    index: &'a VarIndex,
    anchors: Option<&'a Anchors>,
    is_x: bool,
    /// Constant coordinate (fixed pin) or pin offset (movable pin), per pin.
    pin_const: Vec<f64>,
    /// Variable per pin ([`Net::FIXED`] for fixed pins).
    pin_var: Vec<usize>,
    /// Net boundaries into the pin arrays.
    net_ptr: Vec<usize>,
    /// Net weights.
    net_w: Vec<f64>,
    /// The current net's pin coordinates, reused across nets and evals.
    coords: Vec<f64>,
    /// Kernel scratch, reused across nets and evals.
    scratch: Vec<f64>,
}

fn axis_of(placement: &Placement, is_x: bool) -> &[f64] {
    if is_x {
        placement.xs()
    } else {
        placement.ys()
    }
}

impl<'a, K: NetKernel> Axis<'a, K> {
    /// Flattens `design`'s pins on one axis and returns the problem with
    /// its starting variable vector, read from `placement`.
    fn new(
        kernel: &'a K,
        design: &Design,
        index: &'a VarIndex,
        placement: &Placement,
        anchors: Option<&'a Anchors>,
        is_x: bool,
    ) -> (Self, Vec<f64>) {
        let at = axis_of(placement, is_x);
        let mut pin_const = Vec::with_capacity(design.num_pins());
        let mut pin_var = Vec::with_capacity(design.num_pins());
        let mut net_ptr = vec![0usize];
        let mut net_w = Vec::with_capacity(design.num_nets());
        for nid in design.net_ids() {
            for pin in design.net_pins(nid) {
                let off = if is_x { pin.dx } else { pin.dy };
                match index.var(pin.cell) {
                    Some(v) => {
                        pin_var.push(v);
                        pin_const.push(off);
                    }
                    None => {
                        pin_var.push(Net::FIXED);
                        pin_const.push(at[pin.cell.index()] + off);
                    }
                }
            }
            net_ptr.push(pin_const.len());
            net_w.push(design.net(nid).weight());
        }
        let z = (0..index.num_vars())
            .map(|v| at[index.cell(v).index()])
            .collect();
        let axis = Self {
            kernel,
            param: kernel.param(design),
            index,
            anchors,
            is_x,
            pin_const,
            pin_var,
            net_ptr,
            net_w,
            coords: Vec::new(),
            scratch: Vec::new(),
        };
        (axis, z)
    }
}

impl<K: NetKernel> SmoothObjective for Axis<'_, K> {
    fn eval(&mut self, z: &[f64], grad: &mut [f64]) -> f64 {
        grad.fill(0.0);
        let mut total = 0.0;
        for (ni, &weight) in self.net_w.iter().enumerate() {
            let pins = self.net_ptr[ni]..self.net_ptr[ni + 1];
            self.coords.clear();
            for k in pins.clone() {
                let v = self.pin_var[k];
                self.coords.push(if v == Net::FIXED {
                    self.pin_const[k]
                } else {
                    z[v] + self.pin_const[k]
                });
            }
            let net = Net {
                coords: &self.coords,
                vars: &self.pin_var[pins],
                weight,
            };
            self.kernel
                .add_net(self.param, net, &mut self.scratch, &mut total, grad);
        }
        if let Some(a) = self.anchors {
            let eps = a.epsilon();
            let targets = axis_of(a.targets(), self.is_x);
            for (v, &zv) in z.iter().enumerate() {
                let cell = self.index.cell(v);
                let lam = a.lambda(cell);
                // lint:allow(no-float-eq): exact 0.0 marks "no anchor on
                // this cell"; tiny positive weights are real anchors.
                if lam == 0.0 {
                    continue;
                }
                let d = zv - targets[cell.index()];
                let smooth = (d * d + eps * eps).sqrt();
                total += lam * smooth;
                grad[v] += lam * d / smooth;
            }
        }
        total
    }

    fn step_scale(&self) -> f64 {
        self.kernel.step_scale(self.param)
    }
}

impl<K: NetKernel> InterconnectModel for SmoothModel<K> {
    fn name(&self) -> &'static str {
        K::NAME
    }

    fn wirelength(&self, design: &Design, placement: &Placement) -> f64 {
        let index = VarIndex::new(design);
        let mut value = 0.0;
        for is_x in [true, false] {
            let (mut axis, z) = Axis::new(&self.kernel, design, &index, placement, None, is_x);
            let mut grad = vec![0.0; z.len()];
            value += axis.eval(&z, &mut grad);
        }
        value
    }

    /// Minimizes each axis in turn (x first), writes the result back and
    /// clamps it into the core. `converged` holds when both axes end with
    /// gradient norm ≤ tolerance × initial gradient norm; the cancel token
    /// is polled once per NLCG iteration.
    fn minimize(
        &self,
        design: &Design,
        placement: &mut Placement,
        anchors: Option<&Anchors>,
        cancel: Option<&complx_par::CancelToken>,
    ) -> MinimizeStats {
        let index = VarIndex::new(design);
        let mut stats = [NlcgStats::default(); 2];
        for (k, is_x) in [true, false].into_iter().enumerate() {
            let (mut axis, mut z) =
                Axis::new(&self.kernel, design, &index, placement, anchors, is_x);
            stats[k] = nlcg::minimize(&mut axis, &mut z, MAX_ITERATIONS, TOLERANCE, cancel);
            let at = if is_x {
                placement.xs_mut()
            } else {
                placement.ys_mut()
            };
            for (v, &zi) in z.iter().enumerate() {
                at[index.cell(v).index()] = zi;
            }
        }
        for &id in design.movable_cells() {
            placement.set_position(id, clamp_to_core(design, id, placement.position(id)));
        }
        let relative_residual = stats[0].relative_residual.max(stats[1].relative_residual);
        MinimizeStats {
            iterations_x: stats[0].iterations,
            iterations_y: stats[1].iterations,
            converged: relative_residual <= TOLERANCE,
            breakdown: false,
            relative_residual,
            clamped_diagonals: 0,
        }
    }
}

/// Log-sum-exp (paper Section S1): for smoothing parameter γ → 0 the
/// per-net, per-axis expression
/// `γ·(log Σ_k exp(x_k/γ) + log Σ_k exp(−x_k/γ))` approaches the net's
/// span `max x − min x`, so the sum over nets approaches HPWL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lse {
    /// γ as a multiple of the row height.
    gamma_rows: f64,
}

impl Default for Lse {
    fn default() -> Self {
        Self { gamma_rows: 4.0 }
    }
}

impl NetKernel for Lse {
    const NAME: &'static str = "log-sum-exp";

    fn param(&self, design: &Design) -> f64 {
        self.gamma_rows * design.row_height()
    }

    fn step_scale(&self, gamma: f64) -> f64 {
        gamma
    }

    fn add_net(
        &self,
        g: f64,
        net: Net<'_>,
        exps: &mut Vec<f64>,
        total: &mut f64,
        grad: &mut [f64],
    ) {
        // Stable log-sum-exp for +x and −x; each exp is computed once and
        // reused for the softmax gradient.
        let cmax = net.coords.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let cmin = net.coords.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut s_pos = 0.0;
        let mut s_neg = 0.0;
        exps.clear();
        for &c in net.coords {
            let (e_pos, e_neg) = (((c - cmax) / g).exp(), ((cmin - c) / g).exp());
            s_pos += e_pos;
            s_neg += e_neg;
            exps.extend([e_pos, e_neg]);
        }
        let w = net.weight;
        *total += w * (g * s_pos.ln() + cmax + g * s_neg.ln() - cmin);
        // Gradient: w·(softmax⁺_k − softmax⁻_k).
        for (&v, e) in net.vars.iter().zip(exps.chunks_exact(2)) {
            if v != Net::FIXED {
                grad[v] += w * (e[0] / s_pos - e[1] / s_neg);
            }
        }
    }
}

/// β-regularization (paper Section S1, citing Alpert et al. \[4\]): each
/// clique pair `i < j` of a net contributes the smoothed absolute distance
/// `w/(p−1)·√((x_i − x_j)² + β)`, which approaches `|x_i − x_j|` as β → 0
/// — a smooth form of *linear* (GORDIAN-L) wirelength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaReg {
    /// β as a multiple of the squared row height.
    beta_rows2: f64,
}

impl Default for BetaReg {
    fn default() -> Self {
        Self { beta_rows2: 1.0 }
    }
}

impl NetKernel for BetaReg {
    const NAME: &'static str = "beta-regularization";

    fn param(&self, design: &Design) -> f64 {
        self.beta_rows2 * design.row_height() * design.row_height()
    }

    fn step_scale(&self, beta: f64) -> f64 {
        beta.sqrt()
    }

    fn add_net(
        &self,
        beta: f64,
        net: Net<'_>,
        _scratch: &mut Vec<f64>,
        total: &mut f64,
        grad: &mut [f64],
    ) {
        let np = net.coords.len();
        let w = net.weight / (np as f64 - 1.0);
        for i in 0..np {
            for j in i + 1..np {
                let (vi, vj) = (net.vars[i], net.vars[j]);
                // Both fixed, or one cell on both pins: no free distance.
                if vi == vj {
                    continue;
                }
                let d = net.coords[i] - net.coords[j];
                let smooth = (d * d + beta).sqrt();
                *total += w * smooth;
                let g = w * d / smooth;
                if vi != Net::FIXED {
                    grad[vi] += g;
                }
                if vj != Net::FIXED {
                    grad[vj] -= g;
                }
            }
        }
    }
}

/// p,β-regularization (paper Section S1, citing Kennings & Markov \[21\]):
/// per net and axis `(Σ_{i<j} |x_i − x_j|^p)^{1/p} → max |x_i − x_j|` as
/// `p → ∞` — a smooth overestimate of the span that tightens with larger
/// `p`. The absolute values are ε-smoothed with ε = one row height.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PNorm {
    /// The exponent `p`; larger is closer to the true max (and stiffer).
    p: f64,
}

impl Default for PNorm {
    fn default() -> Self {
        Self { p: 8.0 }
    }
}

impl NetKernel for PNorm {
    const NAME: &'static str = "p-beta-regularization";

    fn param(&self, design: &Design) -> f64 {
        design.row_height()
    }

    fn step_scale(&self, eps: f64) -> f64 {
        eps
    }

    fn add_net(
        &self,
        eps: f64,
        net: Net<'_>,
        _scratch: &mut Vec<f64>,
        total: &mut f64,
        grad: &mut [f64],
    ) {
        let (p, coords, np) = (self.p, net.coords, net.coords.len());
        // s = Σ_{i<j} m_ij^p with m_ij = √((c_i−c_j)² + ε²) / scale, where
        // scaling by the span estimate keeps large p stable; value =
        // scale·s^(1/p).
        let scale = {
            let mx = coords.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mn = coords.iter().cloned().fold(f64::INFINITY, f64::min);
            (mx - mn).max(eps)
        };
        let mut s = 0.0;
        for i in 0..np {
            for j in i + 1..np {
                let d = coords[i] - coords[j];
                let m = (d * d + eps * eps).sqrt() / scale;
                s += m.powf(p);
            }
        }
        let w = net.weight;
        *total += w * (scale * s.powf(1.0 / p));
        // dvalue/dd_ij = s^{1/p − 1} · m^{p−1} · (d/m̂) with m̂ = m·scale.
        if s > 0.0 {
            let s_pow = s.powf(1.0 / p - 1.0);
            for i in 0..np {
                for j in i + 1..np {
                    let d = coords[i] - coords[j];
                    let m_hat = (d * d + eps * eps).sqrt();
                    let m = m_hat / scale;
                    let dv_dd = s_pow * m.powf(p - 1.0) * (d / m_hat);
                    let (vi, vj) = (net.vars[i], net.vars[j]);
                    if vi != Net::FIXED {
                        grad[vi] += w * dv_dd;
                    }
                    if vj != Net::FIXED {
                        grad[vj] -= w * dv_dd;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::{generator::GeneratorConfig, hpwl};

    fn design(name: &str, seed: u64, cells: usize) -> Design {
        let mut cfg = GeneratorConfig::small(name, seed);
        cfg.num_std_cells = cells;
        cfg.num_pads = 6;
        cfg.generate()
    }

    #[test]
    fn lse_upper_bounds_hpwl_and_tightens_with_gamma() {
        let d = GeneratorConfig::small("lse", 1).generate();
        let p = d.initial_placement();
        let real = hpwl::weighted_hpwl(&d, &p);
        let loose = LseModel::new().with_gamma_rows(8.0).wirelength(&d, &p);
        let tight = LseModel::new().with_gamma_rows(0.5).wirelength(&d, &p);
        assert!(loose >= real - 1e-6);
        assert!(tight >= real - 1e-6);
        assert!((tight - real).abs() < (loose - real).abs());
    }

    #[test]
    fn beta_value_tightens_with_beta() {
        // The clique over-counts multi-pin nets relative to HPWL, but both
        // smoothing levels upper-bound it and tighten as β shrinks.
        let d = GeneratorConfig::small("br", 1).generate();
        let p = d.initial_placement();
        let tight = BetaRegModel::new().with_beta_rows2(1e-6).wirelength(&d, &p);
        let loose = BetaRegModel::new()
            .with_beta_rows2(100.0)
            .wirelength(&d, &p);
        assert!(tight >= hpwl::weighted_hpwl(&d, &p) - 1e-6);
        assert!(loose > tight);
    }

    #[test]
    fn pnorm_upper_bounds_hpwl_and_tightens_with_p() {
        let d = design("pn", 1, 80);
        let mut p = d.initial_placement();
        for (i, v) in p.xs_mut().iter_mut().enumerate() {
            *v += ((i * 29) % 41) as f64;
        }
        let real = hpwl::weighted_hpwl(&d, &p);
        let loose = PNormModel::new().with_p(2.0).wirelength(&d, &p);
        let tight = PNormModel::new().with_p(16.0).wirelength(&d, &p);
        assert!(loose >= real * 0.99, "p=2: {loose} vs {real}");
        assert!(tight >= real * 0.99, "p=16: {tight} vs {real}");
        assert!(tight < loose, "larger p must tighten: {tight} vs {loose}");
    }

    /// Central check of a kernel's analytic gradient against forward
    /// differences of its own value, on the x axis with anchors.
    fn gradient_matches_finite_differences<K: NetKernel>(kernel: &K, tol: f64) {
        let d = design("grad", 2, 30);
        let p = d.initial_placement();
        let index = VarIndex::new(&d);
        let anchors = Anchors::uniform(&d, p.clone(), 3.0);
        let (mut axis, mut z) = Axis::new(kernel, &d, &index, &p, Some(&anchors), true);
        for (v, zv) in z.iter_mut().enumerate() {
            *zv += (v as f64 * 0.73) % 7.0;
        }
        let mut grad = vec![0.0; z.len()];
        let f0 = axis.eval(&z, &mut grad);
        let mut tmp = vec![0.0; z.len()];
        let h = 1e-5;
        for v in (0..z.len()).step_by(z.len() / 8 + 1) {
            let orig = z[v];
            z[v] = orig + h;
            let fd = (axis.eval(&z, &mut tmp) - f0) / h;
            z[v] = orig;
            assert!(
                (fd - grad[v]).abs() < tol * (1.0 + grad[v].abs()),
                "{} var {v}: fd {fd} vs analytic {}",
                K::NAME,
                grad[v]
            );
        }
    }

    #[test]
    fn every_kernel_gradient_matches_finite_differences() {
        gradient_matches_finite_differences(&Lse { gamma_rows: 2.5 }, 1e-3);
        gradient_matches_finite_differences(&BetaReg { beta_rows2: 0.25 }, 1e-3);
        gradient_matches_finite_differences(&PNorm { p: 8.0 }, 2e-3);
    }

    fn minimize_reduces_hpwl_inside_core(model: &dyn InterconnectModel) {
        let d = design("min", 3, 60);
        let mut p = d.initial_placement();
        for (i, v) in p.xs_mut().iter_mut().enumerate() {
            *v += ((i * 17) % 31) as f64 - 15.0;
        }
        let before = hpwl::hpwl(&d, &p);
        let stats = model.minimize(&d, &mut p, None, None);
        let after = hpwl::hpwl(&d, &p);
        assert!(after < before, "{}: {before} -> {after}", model.name());
        for &id in d.movable_cells() {
            assert!(d.core().contains(p.position(id)), "{}", model.name());
        }
        assert!(stats.iterations_x > 0 && stats.iterations_y > 0);
        assert!(!stats.breakdown);
        assert_eq!(
            stats.converged,
            stats.relative_residual <= TOLERANCE,
            "{}: {stats:?}",
            model.name()
        );
    }

    #[test]
    fn every_model_minimizes_inside_core_and_reports_convergence() {
        minimize_reduces_hpwl_inside_core(&LseModel::new());
        minimize_reduces_hpwl_inside_core(&BetaRegModel::new());
        minimize_reduces_hpwl_inside_core(&PNormModel::new());
    }

    #[test]
    fn tripped_cancel_reports_unconverged() {
        let d = design("cx", 4, 30);
        let token = complx_par::CancelToken::new();
        token.cancel();
        let mut p = d.initial_placement();
        let stats = LseModel::new().minimize(&d, &mut p, None, Some(&token));
        assert_eq!((stats.iterations_x, stats.iterations_y), (0, 0));
        assert!(!stats.converged && stats.relative_residual > TOLERANCE);
    }
}
