//! Invariant checks over solutions, traces and run reports.
//!
//! Every check returns [`Violation`]s instead of panicking, so callers (the
//! `complx-verify` CLI, the golden harness, tests) can collect and present
//! all failures at once. The trace checks encode the paper's convergence
//! contract:
//!
//! * **Duality gap** (Formula 8): `Φ(x,y) ≤ Φ(x°,y°)` up to a slack — the
//!   lower-bound iterate can never cost more than the feasible one.
//! * **Lagrangian consistency** (Formula 4): the recorded merit must equal
//!   `Φ + λ·Π` recomputed from the same row.
//! * **λ schedule** (Formula 12): `λ_{k+1} ≤ min(2λ_k, λ_k + (Π_{k+1}/Π_k)·h)`.
//!   The `h` term is config-dependent, but the `2λ_k` cap binds
//!   unconditionally for the ComPLx schedule, and λ must grow monotonically
//!   for any schedule unless the run recovered from divergence (recovery
//!   deliberately halves λ).
//! * **Π trend** (Formula 3): the feasibility distance must not end
//!   materially above where the constrained phase started.
//! * **Anchor weights**: `w_i = λ / (|x_i − x_i°| + ε)` with
//!   `ε = 1.5 · row height` — exposed as a reference formula for
//!   differential tests against the solver's anchor builder.

use complx_netlist::{Design, Placement};

use crate::constraints::{alignment_spread, region_breach};
use crate::overlap::{audit_with_tol, PlacementAudit};
use crate::trace::TraceRecord;

/// One violated invariant: a stable machine-readable code plus a human
/// explanation with the offending values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable identifier, e.g. `lambda-growth` or `solution-overlap`.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl Violation {
    fn new(code: &'static str, message: String) -> Self {
        Self { code, message }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "violation[{}]: {}", self.code, self.message)
    }
}

/// Which λ-schedule law a trace is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LambdaRule {
    /// ComPLx Formula 12: monotone growth capped at doubling per step.
    Complx,
    /// Monotone growth only (SimPL-style arithmetic/geometric schedules
    /// may legally exceed the doubling cap).
    Monotone,
    /// No schedule law enforced (unknown configuration).
    Unchecked,
}

impl LambdaRule {
    /// Infers the rule from a report's `config.lambda_mode` string
    /// (`"complx(h=…)"`, `"arithmetic(step=…)"`, `"geometric(ratio=…)"`).
    pub fn from_lambda_mode(mode: &str) -> Self {
        if mode.starts_with("complx") {
            Self::Complx
        } else if mode.starts_with("arithmetic") || mode.starts_with("geometric") {
            Self::Monotone
        } else {
            Self::Unchecked
        }
    }
}

/// Tolerances and mode switches for [`check_trace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceChecks {
    /// λ law to enforce.
    pub lambda_rule: LambdaRule,
    /// Allow λ to decrease between records (set when the run reports
    /// divergence recoveries, which halve λ and roll back).
    pub allow_lambda_drops: bool,
    /// Relative slack on the duality-gap sign: flag when
    /// `Φ_lower > Φ_upper · (1 + gap_slack)`.
    pub gap_slack: f64,
    /// Relative tolerance for arithmetic cross-checks (Lagrangian
    /// recomputation, λ-cap comparisons). Must be at least the trace
    /// file's format precision.
    pub value_rel_tol: f64,
    /// Flag when the minimum Π over the trailing quarter of the trace
    /// exceeds `pi_trend_factor ×` the first constrained Π.
    pub pi_trend_factor: f64,
}

impl Default for TraceChecks {
    fn default() -> Self {
        Self {
            lambda_rule: LambdaRule::Complx,
            allow_lambda_drops: false,
            gap_slack: 0.02,
            value_rel_tol: 5e-6,
            pi_trend_factor: 1.05,
        }
    }
}

fn rel_close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Checks a convergence trace against the paper's invariants. Returns every
/// violation found (empty = clean).
pub fn check_trace(records: &[TraceRecord], checks: &TraceChecks) -> Vec<Violation> {
    let mut out = Vec::new();

    // Structural sanity: finite values, non-negative λ/Π/overflow, strictly
    // increasing iteration indices (recovered iterations may skip indices).
    for r in records {
        let vals = [
            r.lambda,
            r.phi_lower,
            r.phi_upper,
            r.pi,
            r.lagrangian,
            r.overflow,
        ];
        if vals.iter().any(|v| !v.is_finite()) {
            out.push(Violation::new(
                "trace-finite",
                format!("iteration {}: non-finite value in {vals:?}", r.iteration),
            ));
        }
        if r.lambda < 0.0 || r.pi < 0.0 || r.overflow < 0.0 || r.phi_lower < 0.0 {
            out.push(Violation::new(
                "trace-negative",
                format!(
                    "iteration {}: negative λ/Π/overflow/Φ (λ={}, Π={}, ovf={}, Φ={})",
                    r.iteration, r.lambda, r.pi, r.overflow, r.phi_lower
                ),
            ));
        }
    }
    for w in records.windows(2) {
        if w[1].iteration <= w[0].iteration {
            out.push(Violation::new(
                "trace-order",
                format!(
                    "iteration index not increasing: {} then {}",
                    w[0].iteration, w[1].iteration
                ),
            ));
        }
    }

    // Duality gap sign (Formula 8): the lower bound must stay below the
    // feasible cost, within slack.
    for r in records {
        if r.phi_lower > r.phi_upper * (1.0 + checks.gap_slack) {
            out.push(Violation::new(
                "duality-gap",
                format!(
                    "iteration {}: Φ_lower = {} exceeds Φ_upper = {} beyond {:.1}% slack \
                     (gap Δ_Φ must be ≥ 0, Formula 8)",
                    r.iteration,
                    r.phi_lower,
                    r.phi_upper,
                    100.0 * checks.gap_slack
                ),
            ));
        }
    }

    // Lagrangian consistency (Formula 4): L = Φ + λ·Π from the same row.
    for r in records {
        let expect = r.phi_lower + r.lambda * r.pi;
        if !rel_close(r.lagrangian, expect, checks.value_rel_tol) {
            out.push(Violation::new(
                "lagrangian",
                format!(
                    "iteration {}: recorded L = {} but Φ + λ·Π = {} (Formula 4)",
                    r.iteration, r.lagrangian, expect
                ),
            ));
        }
    }

    // λ schedule (Formula 12). The bound is per successful step; recovered
    // runs legitimately halve λ, so drops are only flagged when the caller
    // says the run had no recoveries.
    let constrained: Vec<&TraceRecord> = records.iter().filter(|r| r.lambda > 0.0).collect();
    for w in constrained.windows(2) {
        let (a, b) = (w[0], w[1]);
        if !checks.allow_lambda_drops && b.lambda < a.lambda * (1.0 - checks.value_rel_tol) {
            out.push(Violation::new(
                "lambda-monotone",
                format!(
                    "iteration {}: λ fell from {} to {} in a run reporting no recoveries",
                    b.iteration, a.lambda, b.lambda
                ),
            ));
        }
        if checks.lambda_rule == LambdaRule::Complx
            && b.lambda > 2.0 * a.lambda * (1.0 + checks.value_rel_tol)
        {
            out.push(Violation::new(
                "lambda-growth",
                format!(
                    "iteration {}: λ grew from {} to {}, above the 2λ cap of \
                     λ_k+1 ≤ min(2λ_k, λ_k + (Π_k+1/Π_k)·h) (Formula 12)",
                    b.iteration, a.lambda, b.lambda
                ),
            ));
        }
    }

    // Π trend (Formula 3): over a long enough constrained phase the
    // feasibility distance must come down, not up.
    if constrained.len() >= 5 {
        let first_pi = constrained[0].pi;
        let tail = &constrained[constrained.len() - constrained.len() / 4 - 1..];
        let tail_min = tail.iter().map(|r| r.pi).fold(f64::INFINITY, f64::min);
        if first_pi > 0.0 && tail_min > first_pi * checks.pi_trend_factor {
            out.push(Violation::new(
                "pi-trend",
                format!(
                    "Π never improved: started at {} and the best trailing value is {} \
                     (feasibility distance must trend to 0)",
                    first_pi, tail_min
                ),
            ));
        }
    }

    out
}

/// Audits a solution placement — legality plus the design's region and
/// alignment constraints — and converts out-of-tolerance findings into
/// violations. Returns the legality audit alongside so callers can print a
/// summary.
pub fn check_solution(
    design: &Design,
    placement: &Placement,
    tol: f64,
) -> (PlacementAudit, Vec<Violation>) {
    let audit = audit_with_tol(design, placement, tol);
    let mut out = Vec::new();
    if audit.nonfinite_cells > 0 {
        out.push(Violation::new(
            "solution-finite",
            format!(
                "{} cells have non-finite coordinates",
                audit.nonfinite_cells
            ),
        ));
    }
    if audit.overlap_area > tol {
        out.push(Violation::new(
            "solution-overlap",
            format!(
                "total overlap area {} exceeds tolerance {} ({} pairs, worst {})",
                audit.overlap_area, tol, audit.overlap_pairs, audit.worst_overlap
            ),
        ));
    }
    if audit.max_core_breach > tol {
        out.push(Violation::new(
            "solution-core",
            format!(
                "{} cells breach the core, worst by {} length units (tol {})",
                audit.out_of_core, audit.max_core_breach, tol
            ),
        ));
    }
    if audit.max_row_misalign > tol {
        out.push(Violation::new(
            "solution-row",
            format!(
                "{} cells off row, worst misalignment {} length units (tol {})",
                audit.off_row_cells, audit.max_row_misalign, tol
            ),
        ));
    }
    for region in design.regions() {
        let breaches: Vec<f64> = region
            .cells()
            .iter()
            .map(|&id| region_breach(design, placement, id, region.rect()))
            .filter(|&b| b > tol)
            .collect();
        if let Some(worst) = breaches.iter().copied().reduce(f64::max) {
            out.push(Violation::new(
                "solution-region",
                format!(
                    "{} cells stick out of region `{}`, worst by {worst} length units (tol {tol})",
                    breaches.len(),
                    region.name()
                ),
            ));
        }
    }
    for a in design.alignments() {
        let spread = alignment_spread(placement, a);
        if spread > tol {
            out.push(Violation::new(
                "solution-alignment",
                format!(
                    "cells of alignment `{}` spread {spread} length units along their \
                     shared coordinate (tol {tol})",
                    a.name()
                ),
            ));
        }
    }
    (audit, out)
}

/// Reference anchor ε: 1.5 × row height (paper §4's pseudo-pin stiffness
/// floor).
pub fn anchor_epsilon(row_height: f64) -> f64 {
    1.5 * row_height
}

/// Reference anchor weight `w_i = λ / (|x_i − x_i°| + ε)` — the pull of the
/// feasible iterate on the lower-bound iterate. The solver's anchor builder
/// is checked against this formula in the differential suite.
pub fn anchor_weight(lambda: f64, current: f64, target: f64, epsilon: f64) -> f64 {
    lambda / ((current - target).abs() + epsilon)
}
