//! The center-of-gravity (CoG) constraint set of GORDIAN-style placement as
//! a `P_C` — the §S4 comparison point.
//!
//! Paper Section S4: "Primal-dual optimization was used once in global
//! placement [Alpert et al., 1998], where it was limited to explicit
//! center-of-gravity 'spreading' constraints. These constraints appear in
//! GORDIAN and GORDIAN-L … being convex and linear, they are insufficient
//! to handle modern IC layouts."
//!
//! The movable standard cells are assigned to the regions of a
//! `side × side` grid by order-preserving median bisection (GORDIAN's
//! partitioning, simplified to geometric cuts), and each region's CoG must
//! sit on the region's center. For a fixed assignment that set is affine,
//! and shifting every cell of region `r` by `center_r − mean_r` is the exact
//! Euclidean projection onto it. What it cannot express — per-bin density,
//! obstacles, macros — is why ComPLx needs its nonconvex projection.

use complx_netlist::{density::DensityGrid, CellId, CellKind, Design, Placement, Point};

use crate::projection::{Projection, ProjectionResult};

/// The finest region grid, in regions per side: four levels of
/// GORDIAN-style quadrisection.
const COG_ADAPTIVE_BINS: usize = 16;

/// The CoG backend of `P_C`: region assignment by median bisection, then a
/// rigid shift of each region onto its center, clamped to the core. The
/// requested bins are the regions per side. Per-cell inflation factors are
/// ignored, and movable macros are not constrained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CogProjection;

impl Projection for CogProjection {
    fn name(&self) -> &'static str {
        "cog"
    }

    fn adaptive_bins(&self, _design: &Design) -> usize {
        COG_ADAPTIVE_BINS
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
        let sites = assign_regions(design, placement, bins);
        let mut out = placement.clone();
        shift_to_centers(design, &mut out, &sites, bins);
        ProjectionResult {
            distance_l1: placement.l1_distance(&out),
            overflow_before: overflow_at(placement),
            overflow_after: overflow_at(&out),
            num_regions: bins * bins,
            bins_used: bins,
            placement: out,
        }
    }
}

/// A movable standard cell and the region `iy·side + ix` it is assigned to.
#[derive(Debug, Clone, Copy)]
struct Site {
    id: CellId,
    x: f64,
    y: f64,
    region: usize,
}

/// Assigns every [`CellKind::Movable`] cell to a region of the
/// `side × side` grid.
fn assign_regions(design: &Design, placement: &Placement, side: usize) -> Vec<Site> {
    let mut sites: Vec<Site> = design
        .movable_cells()
        .iter()
        .filter(|&&id| design.cell(id).kind() == CellKind::Movable)
        .map(|&id| {
            let p = placement.position(id);
            Site {
                id,
                x: p.x,
                y: p.y,
                region: 0,
            }
        })
        .collect();
    bisect(&mut sites, 0, 0, side, side, side, true);
    sites
}

/// Splits `sites` over the `w × h` block of regions at `(x0, y0)`,
/// alternating cut axes: a stable sort along the cut axis, then each half of
/// the block takes the share of the cells its share of the regions is, so
/// the relative order of the cells is kept and counts stay balanced on
/// any side.
fn bisect(sites: &mut [Site], x0: usize, y0: usize, w: usize, h: usize, side: usize, cut_x: bool) {
    if w == 1 && h == 1 {
        let region = y0 * side + x0;
        sites.iter_mut().for_each(|s| s.region = region);
        return;
    }
    let cut_x = w > 1 && (cut_x || h == 1);
    let span = if cut_x {
        sites.sort_by(|a, b| a.x.total_cmp(&b.x));
        w
    } else {
        sites.sort_by(|a, b| a.y.total_cmp(&b.y));
        h
    };
    let mid = sites.len() * (span / 2) / span;
    let (lo, hi) = sites.split_at_mut(mid);
    if cut_x {
        bisect(lo, x0, y0, w / 2, h, side, false);
        bisect(hi, x0 + w / 2, y0, w - w / 2, h, side, false);
    } else {
        bisect(lo, x0, y0, w, h / 2, side, true);
        bisect(hi, x0, y0 + h / 2, w, h - h / 2, side, true);
    }
}

/// Each region's `mean − center`, indexed by region id; zero for an empty
/// region.
fn residuals_of(design: &Design, sites: &[Site], side: usize) -> Vec<Point> {
    let mut sum = vec![(0.0f64, 0.0f64, 0usize); side * side];
    for s in sites {
        let r = &mut sum[s.region];
        r.0 += s.x;
        r.1 += s.y;
        r.2 += 1;
    }
    let core = design.core();
    sum.iter()
        .enumerate()
        .map(|(r, &(sx, sy, n))| {
            if n == 0 {
                return Point::new(0.0, 0.0);
            }
            let (ix, iy) = ((r % side) as f64, (r / side) as f64);
            Point::new(
                sx / n as f64 - (core.lx + (ix + 0.5) / side as f64 * core.width()),
                sy / n as f64 - (core.ly + (iy + 0.5) / side as f64 * core.height()),
            )
        })
        .collect()
}

/// Moves every site's cell by its region's `center − mean`, then clamps it
/// to the core.
fn shift_to_centers(design: &Design, out: &mut Placement, sites: &[Site], side: usize) {
    let residuals = residuals_of(design, sites, side);
    let core = design.core();
    let clamp = |v: f64, lo: f64, hi: f64| v.clamp(lo.min(hi), hi.max(lo));
    for s in sites {
        let res = residuals[s.region];
        let cell = design.cell(s.id);
        let (hw, hh) = (0.5 * cell.width(), 0.5 * cell.height());
        out.set_position(
            s.id,
            Point::new(
                clamp(s.x - res.x, core.lx + hw, core.hx - hw),
                clamp(s.y - res.y, core.ly + hh, core.hy - hh),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::generator::GeneratorConfig;

    /// Cells per region, indexed by region id.
    fn counts(sites: &[Site], side: usize) -> Vec<usize> {
        let mut counts = vec![0usize; side * side];
        for s in sites {
            counts[s.region] += 1;
        }
        counts
    }

    #[test]
    fn region_assignment_is_balanced() {
        let d = GeneratorConfig::small("cogr", 94).generate();
        let sites = assign_regions(&d, &d.initial_placement(), 4);
        let counts = counts(&sites, 4);
        let max = *counts.iter().max().expect("non-empty");
        let min = *counts.iter().min().expect("non-empty");
        assert!(max <= min + min / 2 + 2, "unbalanced regions: {counts:?}");
    }

    #[test]
    fn region_ids_are_unique_and_balanced_on_every_side() {
        // Two sites per region on a scattered (not sorted) layout: every id
        // in range and every region holding one to three sites means each
        // of the side² regions got its own id.
        for side in 2..=128usize {
            let n = 2 * side * side;
            let mut sites: Vec<Site> = (0..n)
                .map(|i| Site {
                    id: CellId::from_index(i),
                    x: ((i * 7919) % n) as f64,
                    y: ((i * 104_729) % 65_537) as f64,
                    region: usize::MAX,
                })
                .collect();
            bisect(&mut sites, 0, 0, side, side, side, true);
            assert!(sites.iter().all(|s| s.region < side * side), "side {side}");
            let counts = counts(&sites, side);
            let (min, max) = (
                *counts.iter().min().expect("non-empty"),
                *counts.iter().max().expect("non-empty"),
            );
            assert!(min >= 1 && max <= 3, "side {side}: counts in {min}..={max}");
        }
    }

    #[test]
    fn projection_centers_every_region_and_is_idempotent() {
        let d = GeneratorConfig::small("cogp", 95).generate();
        let core = d.core();
        // A scatter over the middle of the core.
        let mut p = d.initial_placement();
        for (i, &id) in d.movable_cells().iter().enumerate() {
            let (u, v) = (
                ((i * 7919) % 997) as f64 / 997.0,
                ((i * 104_729) % 991) as f64 / 991.0,
            );
            let at = Point::new(
                core.lx + (0.2 + 0.6 * u * u) * core.width(),
                core.ly + (0.2 + 0.6 * v) * core.height(),
            );
            p.set_position(id, at);
        }
        let side = 8;
        let once = CogProjection.project_with_bins(&d, &p, side);
        assert!(once.distance_l1 > 0.0);
        // With the assignment fixed, project the projection once more.
        // (Re-bisecting the projected placement may reassign cells whose
        // regions shifted past each other, so only the fixed-assignment
        // projection is idempotent.)
        let sites = assign_regions(&d, &p, side);
        let mut again: Vec<Site> = sites.clone();
        for s in &mut again {
            let at = once.placement.position(s.id);
            (s.x, s.y) = (at.x, at.y);
        }
        let mut twice = once.placement.clone();
        shift_to_centers(&d, &mut twice, &again, side);
        // A region whose cells all moved by one vector had none clamped:
        // its CoG sits on its center, and the second projection leaves it.
        let mut shift: Vec<Option<(f64, f64)>> = vec![None; side * side];
        let mut rigid = vec![true; side * side];
        for (s, t) in sites.iter().zip(&again) {
            let (dx, dy) = *shift[s.region].get_or_insert((t.x - s.x, t.y - s.y));
            rigid[s.region] &= (t.x - s.x - dx).abs() < 1e-9 && (t.y - s.y - dy).abs() < 1e-9;
        }
        let residuals = residuals_of(&d, &again, side);
        for r in (0..side * side).filter(|&r| rigid[r]) {
            assert!(
                residuals[r].l1_distance(Point::new(0.0, 0.0)) < 1e-9,
                "region {r}"
            );
        }
        let checked = rigid.iter().filter(|&&r| r).count();
        assert!(
            checked > side * side / 2,
            "only {checked} regions unclamped"
        );
        for s in again.iter().filter(|s| rigid[s.region]) {
            let moved = twice.position(s.id).l1_distance(Point::new(s.x, s.y));
            assert!(moved < 1e-9, "second projection moved {} by {moved}", s.id);
        }
    }
}
