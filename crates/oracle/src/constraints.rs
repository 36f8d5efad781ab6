//! Independent region and alignment audit (paper §S5).
//!
//! Re-derives constraint satisfaction without `complx_spread::regions`.
//! That module clamps each cell's *center* into its region shrunk by half
//! the cell's size; this one measures how far each cell's *rectangle*
//! crosses a region edge, less the overhang a cell larger than its region
//! cannot avoid. For alignments it measures the spread of the shared
//! coordinate directly. A disagreement between the two on any placement is
//! a bug in one of them (`tests/constraints.rs` compares them).

use complx_netlist::{AlignmentAxis, AlignmentConstraint, CellId, Design, Placement, Rect};

/// Distance, in length units, by which `cell`'s rectangle sticks out of
/// `region`: the worst edge crossing on either axis, less half the amount
/// by which the cell is wider (taller) than the region. Zero when the cell
/// fits; infinite for a non-finite position.
pub fn region_breach(design: &Design, placement: &Placement, cell: CellId, region: Rect) -> f64 {
    let c = design.cell(cell);
    let p = placement.position(cell);
    if !(p.x.is_finite() && p.y.is_finite()) {
        return f64::INFINITY;
    }
    let axis = |center: f64, size: f64, lo: f64, hi: f64| {
        let crossing = (lo - (center - 0.5 * size)).max(center + 0.5 * size - hi);
        crossing - 0.5 * (size - (hi - lo)).max(0.0)
    };
    let bx = axis(p.x, c.width(), region.lx, region.hx);
    let by = axis(p.y, c.height(), region.ly, region.hy);
    bx.max(by).max(0.0)
}

/// Spread (max − min), in length units, of the coordinate an alignment's
/// cells must share: the center y for a horizontal alignment, the center
/// x for a vertical one. Zero for an empty or single-cell group; infinite
/// when a position is non-finite.
pub fn alignment_spread(placement: &Placement, a: &AlignmentConstraint) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &id in a.cells() {
        let p = placement.position(id);
        let v = match a.axis() {
            AlignmentAxis::Horizontal => p.y,
            AlignmentAxis::Vertical => p.x,
        };
        if !v.is_finite() {
            return f64::INFINITY;
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if a.cells().is_empty() {
        0.0
    } else {
        hi - lo
    }
}
