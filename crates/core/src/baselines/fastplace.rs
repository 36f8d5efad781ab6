//! A FastPlace-3.0-style baseline: quadratic placement + local cell
//! shifting (diffusion) + iterative local refinement.
//!
//! FastPlace spreads cells with *local* density information: each
//! overfilled bin pushes its cells toward less-utilized neighbors, and the
//! shifted locations become anchor targets for the next quadratic solve.
//! This is precisely the "local subgradient information" approach the paper
//! contrasts with ComPLx's global feasibility projection (Section 3), and
//! its weaker spreading signal is why it needs more iterations.

use std::time::Instant;

use complx_legalize::{DetailedPlacer, Legalizer};
use complx_netlist::{density::DensityGrid, hpwl, Design, Placement, Point};
use complx_sparse::CgSolver;
use complx_wirelength::{Anchors, InterconnectModel, NetModel, QuadraticModel};

use complx_obs as obs;

use crate::metrics::PlacementMetrics;
use crate::placer::PlacementOutcome;
use crate::solves::SolveRecord;
use crate::trace::{IterationRecord, Trace};

/// Configuration of the FastPlace-like baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct FastPlaceLike {
    /// Maximum spreading iterations.
    pub max_iterations: usize,
    /// Stop when overflow drops below this ratio.
    pub overflow_tolerance: f64,
    /// Anchor strength growth per iteration (dimensionless).
    pub anchor_growth: f64,
    /// Diffusion step size (fraction of a bin per unit normalized density
    /// gradient).
    pub diffusion_step: f64,
    /// Number of diffusion sub-steps per iteration.
    pub diffusion_substeps: usize,
}

impl Default for FastPlaceLike {
    fn default() -> Self {
        Self {
            max_iterations: 120,
            overflow_tolerance: 0.04,
            anchor_growth: 1.3,
            diffusion_step: 0.6,
            diffusion_substeps: 10,
        }
    }
}

impl FastPlaceLike {
    /// Runs the baseline; the outcome mirrors [`crate::ComplxPlacer`] so the
    /// benchmark harness can tabulate both uniformly.
    pub fn place(&self, design: &Design) -> PlacementOutcome {
        let _place_span = obs::span("place");
        let t_global = Instant::now(); // lint:allow(nondet-taint): phase timer; elapsed seconds feed the report only, never a coordinate
        let model = QuadraticModel::new(NetModel::HybridCliqueStar)
            .with_solver(CgSolver::new().with_tolerance(1e-5));

        let mut solves: Vec<SolveRecord> = Vec::new();
        let mut lower = design.initial_placement();
        {
            let _bootstrap_span = obs::span("bootstrap");
            for _ in 0..3 {
                let stats = model.minimize(design, &mut lower, None, None);
                solves.push(SolveRecord::from_stats(0, &stats));
            }
        }

        let bins = grid_bins(design);
        let mut trace = Trace::new();
        let mut anchor_lambda = 0.0f64;
        let mut converged = false;
        let mut iterations = 0;

        // Initial anchor strength comparable to ComPLx's λ₁ heuristic.
        let g0 = DensityGrid::build(design, &lower, bins, bins);
        let phi0 = hpwl::weighted_hpwl(design, &lower);
        let mut shifted = lower.clone();
        diffuse(
            design,
            &mut shifted,
            bins,
            self.diffusion_step,
            self.diffusion_substeps,
        );
        let pi0 = lower.l1_distance(&shifted).max(1e-12);
        let lambda_1 = phi0 / (100.0 * pi0);
        trace.push(IterationRecord {
            iteration: 0,
            lambda: 0.0,
            phi_lower: phi0,
            phi_upper: hpwl::weighted_hpwl(design, &shifted),
            pi: pi0,
            lagrangian: phi0,
            overflow: g0.overflow_ratio(design.target_density()),
            bins,
        });

        let mut targets = shifted;
        for k in 1..=self.max_iterations {
            let _iter_span = obs::span("iteration");
            obs::add("place.iterations", 1);
            iterations = k;
            // lint:allow(no-float-eq): exact 0.0 is the "first iteration"
            // sentinel; the variable is never computed, only assigned.
            anchor_lambda = if anchor_lambda == 0.0 {
                lambda_1
            } else {
                anchor_lambda * self.anchor_growth
            };
            let anchors = Anchors::uniform(design, targets.clone(), anchor_lambda);
            let stats = model.minimize(design, &mut lower, Some(&anchors), None);
            solves.push(SolveRecord::from_stats(k, &stats));

            // Local diffusion toward less dense areas.
            let mut next = lower.clone();
            diffuse(
                design,
                &mut next,
                bins,
                self.diffusion_step,
                self.diffusion_substeps,
            );

            let grid = DensityGrid::build(design, &lower, bins, bins);
            let overflow = grid.overflow_ratio(design.target_density());
            let phi_lower = hpwl::weighted_hpwl(design, &lower);
            let pi = lower.l1_distance(&next);
            trace.push(IterationRecord {
                iteration: k,
                lambda: anchor_lambda,
                phi_lower,
                phi_upper: hpwl::weighted_hpwl(design, &next),
                pi,
                lagrangian: phi_lower + anchor_lambda * pi,
                overflow,
                bins,
            });
            targets = next;
            if overflow < self.overflow_tolerance {
                converged = true;
                break;
            }
        }
        let global_seconds = t_global.elapsed().as_secs_f64();

        let t_detail = Instant::now(); // lint:allow(nondet-taint): phase timer; elapsed seconds feed the report only, never a coordinate
        let legalized = Legalizer::default().legalize(design, &lower);
        let legal = DetailedPlacer::default()
            .improve(design, legalized.placement, None)
            .placement;
        let detail_seconds = t_detail.elapsed().as_secs_f64();

        let metrics = PlacementMetrics::measure(design, &legal);
        PlacementOutcome {
            upper: targets,
            lower,
            hpwl_legal: metrics.hpwl,
            metrics,
            legal,
            final_lambda: anchor_lambda,
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

/// Number of bins per side for the diffusion grid.
pub(crate) fn grid_bins(design: &Design) -> usize {
    // Coarser than ComPLx's projection grid: local diffusion needs several
    // cells per bin to produce a stable gradient signal.
    let n = design.movable_cells().len().max(1) as f64;
    ((n / 16.0).sqrt().ceil() as usize).clamp(4, 256)
}

/// One local density-diffusion move: every movable cell drifts down the
/// (bin-smoothed) density gradient, scaled by how overfilled its bin is.
pub(crate) fn diffuse(
    design: &Design,
    placement: &mut Placement,
    bins: usize,
    step: f64,
    substeps: usize,
) {
    let gamma = design.target_density();
    let core = design.core();
    for _ in 0..substeps {
        let grid = DensityGrid::build(design, placement, bins, bins);
        let bw = grid.bin_width();
        let bh = grid.bin_height();
        let util = |ix: isize, iy: isize| -> f64 {
            if ix < 0 || iy < 0 || ix >= bins as isize || iy >= bins as isize {
                // Walls behave like fully-utilized bins so cells drift
                // inward, not off the edge.
                return 2.0;
            }
            let (ix, iy) = (ix as usize, iy as usize);
            let cap = grid.capacity(ix, iy);
            if cap <= 1e-9 {
                2.0
            } else {
                grid.usage(ix, iy) / cap
            }
        };
        for &id in design.movable_cells() {
            let p = placement.position(id);
            let ix = (((p.x - core.lx) / bw).floor() as isize).clamp(0, bins as isize - 1);
            let iy = (((p.y - core.ly) / bh).floor() as isize).clamp(0, bins as isize - 1);
            let here = util(ix, iy);
            let excess = (here - gamma).max(0.0);
            if excess <= 0.0 {
                continue;
            }
            let mut gx = util(ix + 1, iy) - util(ix - 1, iy);
            let mut gy = util(ix, iy + 1) - util(ix, iy - 1);
            if gx.abs() + gy.abs() < 1e-9 {
                // Perfectly symmetric pile-ups have zero central-difference
                // gradient; break the tie with a deterministic per-cell
                // direction so diffusion cannot stall.
                let theta = id.index() as f64 * 2.399963229728653; // golden angle
                gx = -theta.cos();
                gy = -theta.sin();
            }
            let scale = step * excess.min(2.0);
            let cell = design.cell(id);
            let hw = (0.5 * cell.width()).min(0.5 * core.width());
            let hh = (0.5 * cell.height()).min(0.5 * core.height());
            let nx = (p.x - scale * gx * bw * 0.5).clamp(core.lx + hw, core.hx - hw);
            let ny = (p.y - scale * gy * bh * 0.5).clamp(core.ly + hh, core.hy - hh);
            placement.set_position(id, Point::new(nx, ny));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_legalize::is_legal;
    use complx_netlist::generator::GeneratorConfig;

    #[test]
    fn fastplace_like_produces_legal_placement() {
        let d = GeneratorConfig::small("fp", 61).generate();
        let cfg = FastPlaceLike {
            max_iterations: 40,
            ..FastPlaceLike::default()
        };
        let out = cfg.place(&d);
        assert!(is_legal(&d, &out.legal, 1e-6));
        assert!(out.hpwl_legal > 0.0);
    }

    #[test]
    fn diffusion_reduces_overflow() {
        let d = GeneratorConfig::small("df", 62).generate();
        let mut p = d.initial_placement();
        let bins = grid_bins(&d);
        let before = DensityGrid::build(&d, &p, bins, bins).overflow_ratio(1.0);
        diffuse(&d, &mut p, bins, 0.45, 10);
        let after = DensityGrid::build(&d, &p, bins, bins).overflow_ratio(1.0);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn diffusion_keeps_cells_in_core() {
        let d = GeneratorConfig::small("dc", 63).generate();
        let mut p = d.initial_placement();
        diffuse(&d, &mut p, grid_bins(&d), 1.0, 20);
        for &id in d.movable_cells() {
            assert!(d.core().contains(p.position(id)));
        }
    }
}
