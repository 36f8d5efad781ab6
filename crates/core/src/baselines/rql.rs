//! An RQL-style baseline: relaxed quadratic spreading with ad-hoc force
//! modulation (Viswanathan et al., DAC 2007).
//!
//! RQL is the strongest published competitor in the paper's tables. Its
//! placement engine is, like SimPL/ComPLx, a sequence of quadratic solves
//! against spreading targets; what distinguishes it is *force modulation*:
//! the spreading force applied to each cell is capped by an ad-hoc
//! threshold instead of being derived from a Lagrangian (the critique in
//! paper Section 3). We reproduce that structure: spreading targets come
//! from the same look-ahead projection, but each cell's per-iteration
//! target displacement is clamped to a fixed number of bin widths, and the
//! multiplier grows on a fixed (non-adaptive) schedule.

use std::time::Instant;

use complx_legalize::{DetailedPlacer, Legalizer};
use complx_netlist::{hpwl, Design, Placement, Point};
use complx_sparse::CgSolver;
use complx_spread::FeasibilityProjection;
use complx_wirelength::{Anchors, InterconnectModel, NetModel, QuadraticModel};

use complx_obs as obs;

use crate::metrics::PlacementMetrics;
use crate::placer::PlacementOutcome;
use crate::solves::SolveRecord;
use crate::trace::{IterationRecord, Trace};

/// Configuration of the RQL-like baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RqlLike {
    /// Maximum spreading iterations.
    pub max_iterations: usize,
    /// Stop when overflow drops below this ratio.
    pub overflow_tolerance: f64,
    /// Stop when the relative gap between bounds drops below this.
    pub gap_tolerance: f64,
    /// Fixed multiplier growth per iteration (non-adaptive — RQL does not
    /// track a dual variable).
    pub lambda_step: f64,
    /// Per-iteration anchor displacement cap, in bin widths (the ad-hoc
    /// force-modulation threshold).
    pub displacement_cap_bins: f64,
}

impl Default for RqlLike {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            overflow_tolerance: 0.05,
            gap_tolerance: 0.1,
            lambda_step: 40.0,
            displacement_cap_bins: 4.0,
        }
    }
}

impl RqlLike {
    /// Runs the baseline.
    pub fn place(&self, design: &Design) -> PlacementOutcome {
        let _place_span = obs::span("place");
        let t_global = Instant::now(); // lint:allow(nondet-taint): phase timer; elapsed seconds feed the report only, never a coordinate
        let model = QuadraticModel::new(NetModel::Bound2Bound)
            .with_solver(CgSolver::new().with_tolerance(1e-5));
        let projection = FeasibilityProjection::default();
        let bins = projection.adaptive_bins(design);
        let cap = self.displacement_cap_bins * design.core().width() / bins as f64;

        let mut solves: Vec<SolveRecord> = Vec::new();
        let mut lower = design.initial_placement();
        {
            let _bootstrap_span = obs::span("bootstrap");
            for _ in 0..3 {
                let stats = model.minimize(design, &mut lower, None, None);
                solves.push(SolveRecord::from_stats(0, &stats));
            }
        }

        let mut trace = Trace::new();
        let mut proj = projection.project_with_bins(design, &lower, bins);
        let phi0 = hpwl::weighted_hpwl(design, &lower);
        let pi0 = proj.distance_l1.max(1e-12);
        let lambda_1 = phi0 / (100.0 * pi0);
        trace.push(IterationRecord {
            iteration: 0,
            lambda: 0.0,
            phi_lower: phi0,
            phi_upper: hpwl::weighted_hpwl(design, &proj.placement),
            pi: pi0,
            lagrangian: phi0,
            overflow: proj.overflow_before,
            bins,
        });

        let mut best_upper = proj.placement.clone();
        let mut best_phi_upper = hpwl::weighted_hpwl(design, &best_upper);
        let mut targets = proj.placement.clone();
        clamp_displacement(design, &lower, &mut targets, cap);

        let mut lambda = 0.0f64;
        let mut converged = false;
        let mut iterations = 0;
        for k in 1..=self.max_iterations {
            let _iter_span = obs::span("iteration");
            obs::add("place.iterations", 1);
            iterations = k;
            // lint:allow(no-float-eq): exact 0.0 is the "first iteration"
            // sentinel; the variable is never computed, only assigned.
            lambda = if lambda == 0.0 {
                lambda_1
            } else {
                lambda + self.lambda_step * lambda_1
            };
            let anchors = Anchors::uniform(design, targets.clone(), lambda);
            let stats = model.minimize(design, &mut lower, Some(&anchors), None);
            solves.push(SolveRecord::from_stats(k, &stats));

            proj = projection.project_with_bins(design, &lower, bins);
            let upper = proj.placement.clone();
            let phi_lower = hpwl::weighted_hpwl(design, &lower);
            let phi_upper = hpwl::weighted_hpwl(design, &upper);
            let pi = lower.l1_distance(&upper);
            if phi_upper < best_phi_upper && proj.overflow_after < 0.25 {
                best_phi_upper = phi_upper;
                best_upper = upper.clone();
            }
            trace.push(IterationRecord {
                iteration: k,
                lambda,
                phi_lower,
                phi_upper,
                pi,
                lagrangian: phi_lower + lambda * pi,
                overflow: proj.overflow_before,
                bins,
            });
            // Force modulation: clamp the next anchors' displacement.
            targets = upper;
            clamp_displacement(design, &lower, &mut targets, cap);

            let rel_gap = if phi_upper > 0.0 {
                (phi_upper - phi_lower) / phi_upper
            } else {
                0.0
            };
            if proj.overflow_before < self.overflow_tolerance
                || (k >= 3 && rel_gap < self.gap_tolerance)
            {
                converged = true;
                break;
            }
        }
        let global_seconds = t_global.elapsed().as_secs_f64();

        let t_detail = Instant::now(); // lint:allow(nondet-taint): phase timer; elapsed seconds feed the report only, never a coordinate
        let legalized = Legalizer::default().legalize(design, &best_upper);
        let legal = DetailedPlacer::default()
            .improve(design, legalized.placement, None)
            .placement;
        let detail_seconds = t_detail.elapsed().as_secs_f64();

        let metrics = PlacementMetrics::measure(design, &legal);
        PlacementOutcome {
            upper: best_upper,
            lower,
            hpwl_legal: metrics.hpwl,
            metrics,
            legal,
            final_lambda: lambda,
            trace,
            iterations,
            converged,
            stop_reason: if converged {
                crate::StopReason::Converged
            } else {
                crate::StopReason::IterationCap
            },
            recoveries: 0,
            global_seconds,
            detail_seconds,
            solves,
        }
    }
}

/// Clamps each cell's move from `from` to at most `cap` per axis — the
/// ad-hoc force-modulation threshold.
fn clamp_displacement(design: &Design, from: &Placement, to: &mut Placement, cap: f64) {
    for &id in design.movable_cells() {
        let a = from.position(id);
        let b = to.position(id);
        let nx = a.x + (b.x - a.x).clamp(-cap, cap);
        let ny = a.y + (b.y - a.y).clamp(-cap, cap);
        to.set_position(id, Point::new(nx, ny));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_legalize::is_legal;
    use complx_netlist::generator::GeneratorConfig;

    #[test]
    fn rql_like_produces_legal_placement() {
        let d = GeneratorConfig::small("rq", 71).generate();
        let cfg = RqlLike {
            max_iterations: 50,
            ..RqlLike::default()
        };
        let out = cfg.place(&d);
        assert!(is_legal(&d, &out.legal, 1e-6));
        assert!(out.hpwl_legal > 0.0);
    }

    #[test]
    fn displacement_cap_enforced() {
        let d = GeneratorConfig::small("rc", 72).generate();
        let from = d.initial_placement();
        let mut to = from.clone();
        for v in to.xs_mut() {
            *v += 100.0;
        }
        clamp_displacement(&d, &from, &mut to, 5.0);
        for &id in d.movable_cells() {
            let delta = (to.position(id).x - from.position(id).x).abs();
            assert!(delta <= 5.0 + 1e-9);
        }
    }
}
