//! Structure-preserving design transformations.
//!
//! These rebuild a [`Design`] under a geometric or weight transformation
//! while keeping cell/net identifiers stable (cells and nets are re-added
//! in id order, so `CellId`/`NetId` values carry over; a weight change
//! starts from [`DesignBuilder::from_design`]). They exist for the
//! metamorphic test suite — a placer must commute with translation and
//! mirroring up to tolerance, and must be *exactly* invariant under
//! uniform net-weight scaling by powers of two — but are general-purpose
//! netlist surgery.

use crate::design::{Design, DesignBuilder};
use crate::error::DesignError;
use crate::geom::{Point, Rect};
use crate::placement::Placement;
use crate::region::RegionConstraint;

/// Rebuilds `design` with every cell, net, region and the core itself
/// copied through the fixed-position / pin-offset / region geometric hooks.
fn rebuild(
    design: &Design,
    core: Rect,
    map_fixed: impl Fn(Point) -> Point,
    map_pin: impl Fn(f64, f64) -> (f64, f64),
    map_region: impl Fn(Rect) -> Rect,
) -> Result<Design, DesignError> {
    let mut b = DesignBuilder::new(design.name(), core, design.row_height());
    b.set_target_density(design.target_density())?;
    for id in design.cell_ids() {
        let cell = design.cell(id);
        if cell.kind().is_movable() {
            b.add_cell(cell.name(), cell.width(), cell.height(), cell.kind())?;
        } else {
            b.add_fixed_cell(
                cell.name(),
                cell.width(),
                cell.height(),
                cell.kind(),
                map_fixed(design.fixed_positions().position(id)),
            )?;
        }
    }
    for nid in design.net_ids() {
        let net = design.net(nid);
        let pins: Vec<_> = design
            .net_pins(nid)
            .iter()
            .map(|p| {
                let (dx, dy) = map_pin(p.dx, p.dy);
                (p.cell, dx, dy)
            })
            .collect();
        b.add_net(net.name(), net.weight(), pins)?;
    }
    for region in design.regions() {
        b.add_region(RegionConstraint::new(
            region.name(),
            map_region(region.rect()),
            region.cells().to_vec(),
        ));
    }
    for alignment in design.alignments() {
        b.add_alignment(alignment.clone());
    }
    b.build()
}

/// Translates the whole design — core, fixed cells, regions — by
/// `(dx, dy)`. Cell and net ids are preserved.
///
/// # Errors
///
/// Propagates [`DesignError`] if the shifted geometry fails validation
/// (e.g. a non-finite offset).
pub fn translate(design: &Design, dx: f64, dy: f64) -> Result<Design, DesignError> {
    let core = design.core();
    let shifted = Rect::new(core.lx + dx, core.ly + dy, core.hx + dx, core.hy + dy);
    rebuild(
        design,
        shifted,
        |p| Point::new(p.x + dx, p.y + dy),
        |px, py| (px, py),
        |r| Rect::new(r.lx + dx, r.ly + dy, r.hx + dx, r.hy + dy),
    )
}

/// Translates every position of a placement by `(dx, dy)` (the expected
/// image of a placement under [`translate`]).
pub fn translate_placement(placement: &Placement, dx: f64, dy: f64) -> Placement {
    let xs = placement.xs().iter().map(|&x| x + dx).collect();
    let ys = placement.ys().iter().map(|&y| y + dy).collect();
    Placement::from_coords(xs, ys)
}

/// Mirrors the design about the core's vertical centerline: fixed-cell
/// x-coordinates and pin x-offsets are negated around `lx + hx`. The core
/// rectangle itself is unchanged (it maps onto itself), so a mirrored
/// design is directly comparable to the original.
///
/// # Errors
///
/// Propagates [`DesignError`] from revalidation of the mirrored geometry.
pub fn mirror_x(design: &Design) -> Result<Design, DesignError> {
    let core = design.core();
    let s = core.lx + core.hx;
    rebuild(
        design,
        core,
        |p| Point::new(s - p.x, p.y),
        |px, py| (-px, py),
        |r| Rect::new(s - r.hx, r.ly, s - r.lx, r.hy),
    )
}

/// Mirrors every position of a placement about the core's vertical
/// centerline (the expected image of a placement under [`mirror_x`]).
pub fn mirror_x_placement(design: &Design, placement: &Placement) -> Placement {
    let core = design.core();
    let s = core.lx + core.hx;
    let xs = placement.xs().iter().map(|&x| s - x).collect();
    Placement::from_coords(xs, placement.ys().to_vec())
}

/// Scales every net weight by `factor`, leaving geometry untouched. For a
/// power-of-two factor the placer's entire trajectory is bit-identical
/// (every intermediate quantity scales exactly), which the metamorphic
/// suite asserts.
///
/// # Errors
///
/// Propagates [`DesignError`] if `factor` makes a weight non-positive or
/// non-finite.
pub fn scale_net_weights(design: &Design, factor: f64) -> Result<Design, DesignError> {
    let mut b = DesignBuilder::from_design(design);
    for nid in design.net_ids() {
        b.set_net_weight(nid, design.net(nid).weight() * factor)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorConfig;
    use crate::hpwl;

    fn small() -> Design {
        let mut cfg = GeneratorConfig::small("tr", 3);
        cfg.num_std_cells = 60;
        cfg.num_pads = 8;
        cfg.generate()
    }

    #[test]
    fn translate_preserves_structure_and_shifts_geometry() {
        let d = small();
        let t = translate(&d, 13.0, -5.0).unwrap();
        assert_eq!(t.num_cells(), d.num_cells());
        assert_eq!(t.num_nets(), d.num_nets());
        assert_eq!(t.num_pins(), d.num_pins());
        assert!((t.core().lx - (d.core().lx + 13.0)).abs() < 1e-12);
        // HPWL is translation-invariant when the placement moves along.
        let p = d.initial_placement();
        let tp = translate_placement(&p, 13.0, -5.0);
        let a = hpwl::weighted_hpwl(&d, &p);
        let b = hpwl::weighted_hpwl(&t, &tp);
        assert!((a - b).abs() <= 1e-9 * a.max(1.0), "{a} vs {b}");
    }

    #[test]
    fn mirror_is_an_involution_on_hpwl() {
        let d = small();
        let m = mirror_x(&d).unwrap();
        let p = d.initial_placement();
        let mp = mirror_x_placement(&d, &p);
        let a = hpwl::weighted_hpwl(&d, &p);
        let b = hpwl::weighted_hpwl(&m, &mp);
        assert!((a - b).abs() <= 1e-9 * a.max(1.0), "{a} vs {b}");
        // Mirroring twice restores the original pin geometry.
        let mm = mirror_x(&m).unwrap();
        for nid in d.net_ids() {
            for (p0, p1) in d.net_pins(nid).iter().zip(mm.net_pins(nid)) {
                assert_eq!(p0.dx.to_bits(), p1.dx.to_bits());
            }
        }
    }

    #[test]
    fn weight_scaling_scales_hpwl_exactly() {
        let d = small();
        let s = scale_net_weights(&d, 2.0).unwrap();
        let p = d.initial_placement();
        let a = hpwl::weighted_hpwl(&d, &p);
        let b = hpwl::weighted_hpwl(&s, &p);
        assert_eq!((2.0 * a).to_bits(), b.to_bits(), "doubling is exact");
    }

    #[test]
    fn non_finite_weight_factor_is_an_error() {
        let d = small();
        for factor in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            assert!(
                matches!(
                    scale_net_weights(&d, factor),
                    Err(DesignError::InvalidWeight { .. })
                ),
                "factor {factor} accepted"
            );
        }
    }
}
