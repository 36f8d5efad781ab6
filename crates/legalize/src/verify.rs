//! Legality checking.

use complx_netlist::{CellKind, Design, Placement, Rect};

/// Default counting tolerance (length units) used by [`legality_report`]
/// for the `off_row_cells` / `out_of_core` counters.
pub const DEFAULT_TOL: f64 = 1e-6;

/// Detailed legality diagnostics for a placement.
///
/// The counters depend on the counting tolerance the report was built with
/// (see [`legality_report_with_tol`]); the `max_*` fields record the exact
/// worst-case deviations so [`LegalityReport::is_legal`] can apply a
/// caller-chosen tolerance uniformly to every violation class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LegalityReport {
    /// Total pairwise overlap area among movable cells (and against fixed
    /// obstacles).
    pub overlap_area: f64,
    /// Number of standard cells not aligned to a row center (beyond the
    /// counting tolerance).
    pub off_row_cells: usize,
    /// Number of movable cells extending outside the core (beyond the
    /// counting tolerance).
    pub out_of_core: usize,
    /// Worst core-boundary breach in length units (0 when contained).
    pub max_core_breach: f64,
    /// Worst row misalignment in length units (0 when aligned).
    pub max_row_misalign: f64,
}

impl LegalityReport {
    /// Whether the report indicates a legal placement under tolerance `tol`
    /// (area units for overlap, length units for core containment and row
    /// alignment).
    ///
    /// All three violation classes are compared against `tol`: a cell off
    /// by one ULP after a parallel reduction no longer flags as illegal
    /// just because the containment/alignment checks used to ignore the
    /// tolerance.
    pub fn is_legal(&self, tol: f64) -> bool {
        self.overlap_area <= tol && self.max_core_breach <= tol && self.max_row_misalign <= tol
    }
}

/// Computes a [`LegalityReport`] with the default counting tolerance
/// ([`DEFAULT_TOL`]).
pub fn legality_report(design: &Design, placement: &Placement) -> LegalityReport {
    legality_report_with_tol(design, placement, DEFAULT_TOL)
}

/// Computes a [`LegalityReport`] with a sweep over a uniform hash grid
/// (O(n·k) for k local neighbors rather than O(n²)). Cells deviating by
/// more than `tol` length units are counted in `off_row_cells` /
/// `out_of_core`; the `max_*` fields are exact regardless of `tol`.
pub fn legality_report_with_tol(
    design: &Design,
    placement: &Placement,
    tol: f64,
) -> LegalityReport {
    let core = design.core();
    let rh = design.row_height();

    // Gather movable rects and fixed obstacle rects.
    let mut rects: Vec<(usize, Rect, bool)> = Vec::new(); // (cell, rect, movable)
    for id in design.cell_ids() {
        let cell = design.cell(id);
        match cell.kind() {
            CellKind::Movable | CellKind::MovableMacro => {
                let r = placement.cell_rect(id, cell.width(), cell.height());
                rects.push((id.index(), r, true));
            }
            CellKind::Fixed => {
                let r = design
                    .fixed_positions()
                    .cell_rect(id, cell.width(), cell.height());
                rects.push((id.index(), r, false));
            }
            CellKind::Terminal => {}
        }
    }

    let mut report = LegalityReport::default();

    // Row alignment + core containment for movables, measured as
    // deviation distances so the tolerance applies symmetrically.
    for &(idx, r, movable) in &rects {
        if !movable {
            continue;
        }
        let id = complx_netlist::CellId::from_index(idx);
        let cell = design.cell(id);
        let breach = (core.lx - r.lx)
            .max(r.hx - core.hx)
            .max(core.ly - r.ly)
            .max(r.hy - core.hy)
            .max(0.0);
        if breach > tol {
            report.out_of_core += 1;
        }
        if breach > report.max_core_breach {
            report.max_core_breach = breach;
        }
        if cell.kind() == CellKind::Movable && rh > 0.0 {
            // Bottom edge must sit on a row boundary; the deviation is
            // reported in length units, not row fractions.
            let offset = (r.ly - core.ly) / rh;
            let misalign = (offset - offset.round()).abs() * rh;
            if misalign > tol {
                report.off_row_cells += 1;
            }
            if misalign > report.max_row_misalign {
                report.max_row_misalign = misalign;
            }
        }
    }

    // Pairwise overlap via a uniform grid of buckets.
    let cell_count = rects.len().max(1);
    let buckets = ((cell_count as f64).sqrt().ceil() as usize).clamp(1, 1024);
    let bw = core.width() / buckets as f64;
    let bh = core.height() / buckets as f64;
    let mut grid: Vec<Vec<u32>> = vec![Vec::new(); buckets * buckets];
    let clamp_bin = |v: f64, lo: f64, extent: f64| -> usize {
        (((v - lo) / extent).floor() as isize).clamp(0, buckets as isize - 1) as usize
    };
    for (k, &(_, r, _)) in rects.iter().enumerate() {
        let x0 = clamp_bin(r.lx, core.lx, bw);
        let x1 = clamp_bin(r.hx, core.lx, bw);
        let y0 = clamp_bin(r.ly, core.ly, bh);
        let y1 = clamp_bin(r.hy, core.ly, bh);
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                grid[iy * buckets + ix].push(k as u32);
            }
        }
    }
    // BTreeSet, not HashSet: verify runs inside determinism tests, and the
    // determinism contract bans unordered containers crate-wide (the
    // crate's clippy.toml disallowed-types list).
    let mut seen: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    for bucket in &grid {
        for i in 0..bucket.len() {
            for j in i + 1..bucket.len() {
                let (a, b) = (bucket[i].min(bucket[j]), bucket[i].max(bucket[j]));
                if !seen.insert((a, b)) {
                    continue;
                }
                let (_, ra, ma) = rects[a as usize];
                let (_, rb, mb) = rects[b as usize];
                if !ma && !mb {
                    continue; // fixed-fixed overlap is the design's business
                }
                report.overlap_area += ra.overlap_area(&rb);
            }
        }
    }
    report
}

/// Convenience wrapper: `true` when the placement is overlap-free (within
/// `tol` area units), row-aligned and inside the core (both within `tol`
/// length units).
pub fn is_legal(design: &Design, placement: &Placement, tol: f64) -> bool {
    legality_report_with_tol(design, placement, tol).is_legal(tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::{CellKind, DesignBuilder, Point};

    fn design() -> Design {
        let mut b = DesignBuilder::new("v", Rect::new(0.0, 0.0, 10.0, 4.0), 1.0);
        let a = b.add_cell("a", 2.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("b", 2.0, 1.0, CellKind::Movable).unwrap();
        b.add_net("n", 1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn legal_placement_passes() {
        let d = design();
        let mut p = d.initial_placement();
        p.set_position(d.find_cell("a").unwrap(), Point::new(1.0, 0.5));
        p.set_position(d.find_cell("b").unwrap(), Point::new(4.0, 1.5));
        assert!(is_legal(&d, &p, 1e-9));
    }

    #[test]
    fn overlap_detected() {
        let d = design();
        let mut p = d.initial_placement();
        p.set_position(d.find_cell("a").unwrap(), Point::new(1.0, 0.5));
        p.set_position(d.find_cell("b").unwrap(), Point::new(2.0, 0.5));
        let rep = legality_report(&d, &p);
        assert!((rep.overlap_area - 1.0).abs() < 1e-9);
        assert!(!rep.is_legal(1e-9));
    }

    #[test]
    fn off_row_detected() {
        let d = design();
        let mut p = d.initial_placement();
        p.set_position(d.find_cell("a").unwrap(), Point::new(1.0, 0.75));
        p.set_position(d.find_cell("b").unwrap(), Point::new(5.0, 1.5));
        let rep = legality_report(&d, &p);
        assert_eq!(rep.off_row_cells, 1);
        assert!((rep.max_row_misalign - 0.25).abs() < 1e-12);
        assert!(!rep.is_legal(1e-6));
    }

    #[test]
    fn out_of_core_detected() {
        let d = design();
        let mut p = d.initial_placement();
        p.set_position(d.find_cell("a").unwrap(), Point::new(-1.0, 0.5));
        p.set_position(d.find_cell("b").unwrap(), Point::new(5.0, 1.5));
        let rep = legality_report(&d, &p);
        assert_eq!(rep.out_of_core, 1);
        assert!((rep.max_core_breach - 2.0).abs() < 1e-12);
        assert!(!rep.is_legal(1e-6));
    }

    #[test]
    fn ulp_scale_deviations_respect_the_tolerance() {
        // A cell off the row / core edge by 1e-9 used to flag as illegal
        // under any tolerance because the counters ignored `tol`; now the
        // same tolerance governs every violation class.
        let d = design();
        let mut p = d.initial_placement();
        p.set_position(
            d.find_cell("a").unwrap(),
            Point::new(1.0 - 1e-9, 0.5 + 1e-9),
        );
        p.set_position(d.find_cell("b").unwrap(), Point::new(5.0, 1.5));
        let rep = legality_report(&d, &p);
        assert_eq!(rep.off_row_cells, 0);
        assert_eq!(rep.out_of_core, 0);
        assert!(rep.is_legal(1e-6));
        assert!(!rep.is_legal(1e-12), "an exact check still sees the drift");
        // A stricter counting tolerance surfaces the same drift as counts.
        let strict = legality_report_with_tol(&d, &p, 1e-12);
        assert_eq!(strict.off_row_cells, 1);
    }
}
