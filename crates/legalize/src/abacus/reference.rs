//! Abacus in its straightforward form: each trial inserts into a clone of
//! the segment's state, and the placed width is summed per trial. Kept
//! only as the differential reference the read-only trials must match bit
//! for bit.

use complx_netlist::{CellKind, Design, Placement, Point};

use crate::rows::RowLayout;

/// One placed cell inside a segment, in packing order.
#[derive(Debug, Clone, Copy)]
struct SegCell {
    id: u32,
    /// Desired left edge.
    want_lx: f64,
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
}

impl SegmentState {
    /// Appends a cell and re-clusters; returns the cell's final left edge.
    fn place(&mut self, cell: SegCell, seg_lx: f64, seg_hx: f64) -> f64 {
        let idx = self.cells.len();
        self.cells.push(cell);
        let mut c = Cluster {
            first: idx,
            last: idx + 1,
            e: 1.0,
            q: cell.want_lx,
            w: cell.width,
            x: 0.0,
        };
        // Collapse: clamp into segment, then merge with predecessor while
        // overlapping.
        loop {
            c.x = (c.q / c.e).clamp(seg_lx, (seg_hx - c.w).max(seg_lx));
            match self.clusters.pop() {
                Some(prev) if prev.x + prev.w > c.x + 1e-12 => {
                    // Merge prev ++ c.
                    let merged = Cluster {
                        first: prev.first,
                        last: c.last,
                        e: prev.e + c.e,
                        q: prev.q + (c.q - c.e * prev.w),
                        w: prev.w + c.w,
                        x: 0.0,
                    };
                    c = merged;
                }
                Some(prev) => {
                    self.clusters.push(prev);
                    break;
                }
                None => break,
            }
        }
        // Final left edge of the appended cell: the cluster start plus the
        // widths of the cells packed before it (idx is always inside `c`,
        // whose range ends at idx + 1 through every merge).
        let x = c.x + (c.first..idx).map(|k| self.cells[k].width).sum::<f64>();
        self.clusters.push(c);
        x
    }

    /// Total width currently placed.
    fn used(&self) -> f64 {
        self.cells.iter().map(|c| c.width).sum()
    }

    /// Final left edges of all cells.
    fn positions(&self) -> Vec<(u32, f64)> {
        let mut out = Vec::with_capacity(self.cells.len());
        for c in &self.clusters {
            let mut x = c.x;
            for k in c.first..c.last {
                out.push((self.cells[k].id, x));
                x += self.cells[k].width;
            }
        }
        out
    }
}

/// Legalizes movable standard cells with the Abacus algorithm: cells are
/// processed in x order; each is trial-inserted into nearby rows and
/// committed to the row minimizing its resulting displacement. Cluster
/// merging shifts earlier cells as needed, which is what gives Abacus its
/// least-squares-displacement behavior.
///
/// Returns the number of unplaceable cells (0 on success).
pub(super) fn abacus_legalize(
    design: &Design,
    rows: &RowLayout,
    placement: &mut Placement,
) -> usize {
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
                for (si, seg) in rows.segments(r).iter().enumerate() {
                    let st = &mut states[r][si];
                    if st.used() + w > seg.width() + 1e-9 {
                        continue;
                    }
                    // Trial insert on a clone of the cluster stack.
                    let mut trial = st.clone();
                    let lx = trial.place(
                        SegCell {
                            id: id.index() as u32,
                            want_lx,
                            width: w,
                        },
                        seg.lx,
                        seg.hx,
                    );
                    let cost = (lx - want_lx).abs() + dy;
                    if best.is_none_or(|(best_cost, ..)| cost < best_cost) {
                        best = Some((cost, r, si));
                    }
                }
            }
        }

        match best {
            Some((_, r, si)) => {
                let seg = rows.segments(r)[si];
                states[r][si].place(
                    SegCell {
                        id: id.index() as u32,
                        want_lx,
                        width: w,
                    },
                    seg.lx,
                    seg.hx,
                );
            }
            None => failures += 1,
        }
    }

    // Write back final positions.
    for (r, row_states) in states.iter().enumerate() {
        let yc = rows.row_center(r);
        for st in row_states {
            for (raw, lx) in st.positions() {
                let id = complx_netlist::CellId::from_index(raw as usize);
                let w = design.cell(id).width();
                placement.set_position(id, Point::new(lx + 0.5 * w, yc));
            }
        }
    }
    failures
}
