//! The pluggable interconnect-model trait.

use complx_netlist::{CellId, Design, Placement, Point};

use crate::anchors::Anchors;

/// Report from one [`InterconnectModel::minimize`] call.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MinimizeStats {
    /// Solver iterations spent on the x axis.
    pub iterations_x: usize,
    /// Solver iterations spent on the y axis.
    pub iterations_y: usize,
    /// Whether both axis solves converged to tolerance.
    pub converged: bool,
    /// Whether either axis solve suffered a numerical breakdown (indefinite
    /// direction or non-finite residual). The written placement is still the
    /// solver's last finite iterate, but callers should treat the step as
    /// failed and engage recovery.
    pub breakdown: bool,
    /// The worse (larger) of the two axes' final relative residuals.
    pub relative_residual: f64,
    /// Jacobi diagonal clamps across both axis solves (0 for an SPD system).
    pub clamped_diagonals: usize,
}

/// A convex, differentiable approximation `Φ` of weighted HPWL that can be
/// minimized together with the anchor penalty term of the simplified
/// Lagrangian `L°(x, y, λ) = Φ(x, y) + λ‖(x, y) − (x°, y°)‖₁` (Formula 10).
///
/// Implementations linearize against the incoming `placement` (the last
/// iterate) and overwrite it with the new minimizer; fixed cells never move.
/// Passing `anchors: None` minimizes plain `Φ` — the λ = 0 bootstrap
/// iteration of ComPLx.
pub trait InterconnectModel {
    /// Short human-readable model name (for reports).
    fn name(&self) -> &'static str;

    /// The model's surrogate wirelength at `placement` (same length units
    /// as HPWL, but generally an approximation of it).
    fn wirelength(&self, design: &Design, placement: &Placement) -> f64;

    /// Minimizes `Φ + penalty(anchors)` starting from (and linearizing at)
    /// `placement`, writing the minimizer back into `placement`.
    ///
    /// `cancel` is a cooperative cancellation point in the model's inner
    /// solver loop: when it trips mid-solve, the model stops early and
    /// writes back its last consistent (finite) iterate. With `None` or an
    /// untripped token the result is bit-identical.
    fn minimize(
        &self,
        design: &Design,
        placement: &mut Placement,
        anchors: Option<&Anchors>,
        cancel: Option<&complx_par::CancelToken>,
    ) -> MinimizeStats;
}

/// `p` moved so that cell `id`, centered there, lies inside the core (the
/// center is pinned to the core's middle on an axis where the cell is
/// wider than the core). Every model writes its minimizer back through this.
pub(crate) fn clamp_to_core(design: &Design, id: CellId, p: Point) -> Point {
    let core = design.core();
    let c = design.cell(id);
    let hw = (0.5 * c.width()).min(0.5 * core.width());
    let hh = (0.5 * c.height()).min(0.5 * core.height());
    Point::new(
        p.x.clamp(core.lx + hw, core.hx - hw),
        p.y.clamp(core.ly + hh, core.hy - hh),
    )
}
