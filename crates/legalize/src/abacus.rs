//! Abacus row-based least-displacement legalization
//! (Spindler et al., "Abacus: fast legalization of standard cell circuits
//! with minimal movement").
//!
//! A trial insertion is read-only: it walks the segment's cluster stack
//! with the merge arithmetic of the real insertion, so no trial clones or
//! allocates, and each segment keeps its placed width as a running sum.

use complx_netlist::{CellKind, Design, Placement, Point};

use crate::rows::RowLayout;

#[cfg(test)]
mod reference;

/// One placed cell inside a segment, in packing order.
#[derive(Debug, Clone, Copy)]
struct SegCell {
    id: u32,
    width: f64,
}

/// A cluster of abutting cells with the classic Abacus aggregates.
#[derive(Debug, Clone, Copy)]
struct Cluster {
    /// First cell index (into the segment's cell list).
    first: usize,
    /// One-past-last cell index.
    last: usize,
    /// Total weight (one per cell here).
    e: f64,
    /// Weighted optimal-position numerator.
    q: f64,
    /// Total width.
    w: f64,
    /// Current left edge.
    x: f64,
}

/// The state of one segment: cells in packing order plus the cluster stack.
#[derive(Debug, Clone, Default)]
struct SegmentState {
    cells: Vec<SegCell>,
    clusters: Vec<Cluster>,
    /// Total width placed, summed in placing order.
    used: f64,
}

impl SegmentState {
    /// The cluster a cell wanting left edge `want_lx` would end in if
    /// appended: clamped into the segment, then merged with its
    /// predecessors while they overlap. Returns it and the number of
    /// clusters below it that stay.
    fn collapse(&self, want_lx: f64, width: f64, seg_lx: f64, seg_hx: f64) -> (Cluster, usize) {
        let idx = self.cells.len();
        let mut c = Cluster {
            first: idx,
            last: idx + 1,
            e: 1.0,
            q: want_lx,
            w: width,
            x: 0.0,
        };
        let mut keep = self.clusters.len();
        loop {
            c.x = (c.q / c.e).clamp(seg_lx, (seg_hx - c.w).max(seg_lx));
            match keep.checked_sub(1).map(|k| self.clusters[k]) {
                Some(prev) if prev.x + prev.w > c.x + 1e-12 => {
                    // Merge prev ++ c.
                    c = Cluster {
                        first: prev.first,
                        last: c.last,
                        e: prev.e + c.e,
                        q: prev.q + (c.q - c.e * prev.w),
                        w: prev.w + c.w,
                        x: 0.0,
                    };
                    keep -= 1;
                }
                _ => break,
            }
        }
        (c, keep)
    }

    /// The final left edge an appended cell would get, leaving the segment
    /// as it is: the cluster start plus the widths of the cells packed
    /// before it (the new cell is always its cluster's last).
    fn trial(&self, want_lx: f64, width: f64, seg_lx: f64, seg_hx: f64) -> f64 {
        let (c, _) = self.collapse(want_lx, width, seg_lx, seg_hx);
        c.x + self.cells[c.first..].iter().map(|k| k.width).sum::<f64>()
    }

    /// Appends a cell and re-clusters.
    fn place(&mut self, cell: SegCell, want_lx: f64, seg_lx: f64, seg_hx: f64) {
        let (c, keep) = self.collapse(want_lx, cell.width, seg_lx, seg_hx);
        self.clusters.truncate(keep);
        self.clusters.push(c);
        self.cells.push(cell);
        self.used += cell.width;
    }
}

/// Legalizes movable standard cells with the Abacus algorithm: cells are
/// processed in x order; each is trial-inserted into nearby rows and
/// committed to the row minimizing its resulting displacement. Cluster
/// merging shifts earlier cells as needed, which is what gives Abacus its
/// least-squares-displacement behavior.
///
/// Returns the number of unplaceable cells (0 on success).
pub fn abacus_legalize(design: &Design, rows: &RowLayout, placement: &mut Placement) -> usize {
    let num_rows = rows.num_rows();
    let mut states: Vec<Vec<SegmentState>> = (0..num_rows)
        .map(|r| vec![SegmentState::default(); rows.segments(r).len()])
        .collect();

    let mut order: Vec<_> = design
        .movable_cells()
        .iter()
        .copied()
        .filter(|&id| design.cell(id).kind() == CellKind::Movable)
        .collect();
    order.sort_by(|&a, &b| {
        let la = placement.position(a).x - 0.5 * design.cell(a).width();
        let lb = placement.position(b).x - 0.5 * design.cell(b).width();
        la.total_cmp(&lb)
    });

    let mut failures = 0;
    for id in order {
        let cell = design.cell(id);
        let w = cell.width();
        let p = placement.position(id);
        let want_lx = p.x - 0.5 * w;
        let pref_row = rows.nearest_row(p.y);

        let mut best: Option<(f64, usize, usize)> = None; // (cost, row, seg)
        for d in 0..num_rows as isize {
            // Row distance only grows with `d` on either side, so once no
            // row at this distance can beat the best, none further can.
            let mut open = false;
            for sign in [1isize, -1] {
                if d == 0 && sign < 0 {
                    continue;
                }
                let r = pref_row as isize + sign * d;
                if r < 0 || r >= num_rows as isize {
                    continue;
                }
                let r = r as usize;
                let dy = (rows.row_center(r) - p.y).abs();
                if let Some((cost, ..)) = best {
                    if dy >= cost {
                        continue;
                    }
                }
                open = true;
                for (si, seg) in rows.segments(r).iter().enumerate() {
                    let st = &states[r][si];
                    if st.used + w > seg.width() + 1e-9 {
                        continue;
                    }
                    let lx = st.trial(want_lx, w, seg.lx, seg.hx);
                    let cost = (lx - want_lx).abs() + dy;
                    if best.is_none_or(|(best_cost, ..)| cost < best_cost) {
                        best = Some((cost, r, si));
                    }
                }
            }
            if !open {
                break;
            }
        }

        match best {
            Some((_, r, si)) => {
                let seg = rows.segments(r)[si];
                let cell = SegCell {
                    id: id.index() as u32,
                    width: w,
                };
                states[r][si].place(cell, want_lx, seg.lx, seg.hx);
            }
            None => failures += 1,
        }
    }

    // Write back final positions.
    for (r, row_states) in states.iter().enumerate() {
        let yc = rows.row_center(r);
        for st in row_states {
            for c in &st.clusters {
                let mut x = c.x;
                for k in &st.cells[c.first..c.last] {
                    let id = complx_netlist::CellId::from_index(k.id as usize);
                    placement.set_position(id, Point::new(x + 0.5 * k.width, yc));
                    x += k.width;
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_legal;
    use complx_netlist::generator::GeneratorConfig;

    #[test]
    fn abacus_produces_legal_placement() {
        let d = GeneratorConfig::small("a", 21).generate();
        let rows = RowLayout::new(&d, &[]);
        let mut p = d.initial_placement();
        let failures = abacus_legalize(&d, &rows, &mut p);
        assert_eq!(failures, 0);
        assert!(is_legal(&d, &p, 1e-6));
    }

    #[test]
    fn cluster_merging_resolves_collisions() {
        // Two cells wanting the same spot must end up abutting, centered
        // around the contested position.
        use complx_netlist::{CellKind, DesignBuilder, Rect};
        let mut b = DesignBuilder::new("c", Rect::new(0.0, 0.0, 20.0, 1.0), 1.0);
        let c1 = b.add_cell("c1", 4.0, 1.0, CellKind::Movable).unwrap();
        let c2 = b.add_cell("c2", 4.0, 1.0, CellKind::Movable).unwrap();
        b.add_net("n", 1.0, vec![(c1, 0.0, 0.0), (c2, 0.0, 0.0)])
            .unwrap();
        let d = b.build().unwrap();
        let mut p = d.initial_placement();
        p.set_position(c1, Point::new(10.0, 0.5));
        p.set_position(c2, Point::new(10.0, 0.5));
        let rows = RowLayout::new(&d, &[]);
        let failures = abacus_legalize(&d, &rows, &mut p);
        assert_eq!(failures, 0);
        let x1 = p.position(c1).x;
        let x2 = p.position(c2).x;
        assert!((x1 - x2).abs() >= 4.0 - 1e-9, "cells overlap: {x1} {x2}");
        // Centered: mean of centers ≈ contested position.
        assert!((0.5 * (x1 + x2) - 10.0).abs() < 1.0);
    }

    /// Abacus's read-only trials against the cloning reference: the same
    /// placement bits and the same failure count, on std-cell designs with
    /// fixed macros (rows of several segments), mixed-size designs with
    /// legalized movable macros as blockages, and an over-full design that
    /// leaves cells unplaced.
    #[test]
    fn read_only_trials_match_the_cloning_reference() {
        use crate::macros::legalize_macros;
        let mut cases = Vec::new();
        for seed in 70..73 {
            cases.push(GeneratorConfig::small("ad", seed).generate());
            cases.push(GeneratorConfig::ispd2005_like("a5", seed, 1200).generate());
            cases.push(GeneratorConfig::ispd2006_like("a6", seed, 900, 0.8).generate());
        }
        let mut full = GeneratorConfig::small("af", 74);
        full.utilization = 0.95;
        cases.push(full.generate());
        let mut failing = 0;
        for (i, d) in cases.iter().enumerate() {
            let core = d.core();
            let mut spread = d.initial_placement();
            for (k, &id) in d.movable_cells().iter().enumerate() {
                let fx = (k as f64 * 0.618_034 + i as f64 * 0.1) % 1.0;
                let fy = (k as f64 * 0.314_159) % 1.0;
                let at = Point::new(core.lx + fx * core.width(), core.ly + fy * core.height());
                spread.set_position(id, at);
            }
            for start in [d.initial_placement(), spread] {
                let mut base = start.clone();
                let (macro_rects, _) = legalize_macros(d, &mut base);
                let rows = RowLayout::new(d, &macro_rects);
                let (mut new, mut old) = (base.clone(), base);
                let f_new = abacus_legalize(d, &rows, &mut new);
                let f_old = reference::abacus_legalize(d, &rows, &mut old);
                assert_eq!(f_new, f_old, "case {i}");
                failing += usize::from(f_new > 0);
                let bits = |p: &Placement| {
                    (p.xs().iter().chain(p.ys()))
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                };
                assert!(bits(&new) == bits(&old), "case {i}");
            }
        }
        assert!(failing > 0, "no case exercised unplaceable cells");
    }

    #[test]
    fn full_segment_rejects_cells() {
        use complx_netlist::{CellKind, DesignBuilder, Rect};
        let mut b = DesignBuilder::new("f", Rect::new(0.0, 0.0, 4.0, 1.0), 1.0);
        let c1 = b.add_cell("c1", 3.0, 1.0, CellKind::Movable).unwrap();
        let c2 = b.add_cell("c2", 3.0, 1.0, CellKind::Movable).unwrap();
        b.add_net("n", 1.0, vec![(c1, 0.0, 0.0), (c2, 0.0, 0.0)])
            .unwrap();
        let d = b.build().unwrap();
        let rows = RowLayout::new(&d, &[]);
        let mut p = d.initial_placement();
        let failures = abacus_legalize(&d, &rows, &mut p);
        assert_eq!(failures, 1, "only one 3-wide cell fits in a 4-wide row");
    }
}
