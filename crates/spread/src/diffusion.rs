//! A FastPlace-3.0-style `P_C`: local bin-based cell shifting (diffusion).
//!
//! Every cell in an overfilled bin drifts down the local utilization
//! gradient toward less-utilized neighbors. This is the "local subgradient
//! information" the paper contrasts with ComPLx's global feasibility
//! projection (Section 3): the output is only less overfilled than the
//! input, not feasible, so a placer driving it needs many more iterations.

use complx_netlist::{density::DensityGrid, Design, Placement, Point};

use crate::projection::{Projection, ProjectionResult};

/// Diffusion step size: the fraction of half a bin a cell moves per unit
/// utilization gradient (scaled by its bin's excess utilization).
const DIFFUSION_STEP: f64 = 0.6;

/// Diffusion sub-steps per projection call; each rebuilds the density grid.
const DIFFUSION_SUBSTEPS: usize = 10;

/// The diffusion backend of `P_C`: ten local shifting moves on a square
/// grid. Per-cell inflation factors are ignored — the shifting reads the
/// plain density grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffusionProjection;

impl Projection for DiffusionProjection {
    fn name(&self) -> &'static str {
        "diffusion"
    }

    /// Coarser than the geometric grid: local diffusion needs several
    /// cells per bin (about 16) to produce a stable gradient signal.
    fn adaptive_bins(&self, design: &Design) -> usize {
        let n = design.movable_cells().len().max(1) as f64;
        ((n / 16.0).sqrt().ceil() as usize).clamp(4, 256)
    }

    fn project_with_bins_inflated(
        &self,
        design: &Design,
        placement: &Placement,
        bins: usize,
        _inflation: Option<&[f64]>,
    ) -> ProjectionResult {
        let _span = complx_obs::span("projection");
        let gamma = design.target_density();
        let overflow_at =
            |p: &Placement| DensityGrid::build(design, p, bins, bins).overflow_ratio(gamma);
        let mut out = placement.clone();
        diffuse(design, &mut out, bins, DIFFUSION_STEP, DIFFUSION_SUBSTEPS);
        ProjectionResult {
            distance_l1: placement.l1_distance(&out),
            overflow_before: overflow_at(placement),
            overflow_after: overflow_at(&out),
            num_regions: 0,
            bins_used: bins,
            placement: out,
        }
    }
}

/// `substeps` local density-diffusion moves: every movable cell drifts
/// down the (bin-smoothed) density gradient, scaled by how overfilled its
/// bin is.
fn diffuse(design: &Design, placement: &mut Placement, bins: usize, step: f64, substeps: usize) {
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
    use complx_netlist::generator::GeneratorConfig;

    #[test]
    fn diffusion_reduces_overflow() {
        let d = GeneratorConfig::small("df", 62).generate();
        let mut p = d.initial_placement();
        let bins = DiffusionProjection.adaptive_bins(&d);
        let before = DensityGrid::build(&d, &p, bins, bins).overflow_ratio(1.0);
        diffuse(&d, &mut p, bins, 0.45, 10);
        let after = DensityGrid::build(&d, &p, bins, bins).overflow_ratio(1.0);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn diffusion_keeps_cells_in_core() {
        let d = GeneratorConfig::small("dc", 63).generate();
        let mut p = d.initial_placement();
        diffuse(&d, &mut p, DiffusionProjection.adaptive_bins(&d), 1.0, 20);
        for &id in d.movable_cells() {
            assert!(d.core().contains(p.position(id)));
        }
    }
}
