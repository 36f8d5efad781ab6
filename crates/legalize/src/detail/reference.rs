//! The detailed placer's passes in their straightforward form: every query
//! rescans a row or a net and every trial runs through the tracker. Kept
//! only as the differential reference the indexed passes must match bit
//! for bit (placement and [`DetailStats`]) on legal inputs.

use complx_netlist::{hpwl, CellId, CellKind, Design, HpwlTracker, Placement, Point};

use super::{DetailResult, DetailStats, DetailedPlacer};
use crate::rows::RowLayout;

pub(super) fn improve(
    placer: &DetailedPlacer,
    design: &Design,
    placement: Placement,
) -> DetailResult {
    let before = hpwl::weighted_hpwl(design, &placement);
    let mut state = RowState::new(design, &placement);
    let mut tracker = HpwlTracker::new(design, placement);
    let mut total_moves = 0usize;
    let mut passes = 0usize;
    let mut last = before;
    for _ in 0..placer.max_passes {
        passes += 1;
        let mut moves = 0usize;
        moves += global_swap_pass(&mut state, &mut tracker);
        moves += vertical_swap_pass(&mut state, &mut tracker);
        moves += local_reorder_pass(&mut state, &mut tracker);
        total_moves += moves;
        let now = tracker.total();
        let improved = (last - now) / last.max(1e-30);
        last = now;
        if moves == 0 || improved < placer.min_improvement {
            break;
        }
    }
    DetailResult {
        placement: tracker.into_placement(),
        stats: DetailStats {
            hpwl_before: before,
            hpwl_after: last,
            passes,
            moves: total_moves,
        },
    }
}

/// Internal mutable state: per-row cell lists sorted by x.
pub(super) struct RowState<'a> {
    design: &'a Design,
    rows: RowLayout,
    /// Sorted (by left edge) cells per row.
    cells: Vec<Vec<CellId>>,
    /// Current row of each std cell (usize::MAX when not row-bound).
    row_of: Vec<usize>,
}

impl<'a> RowState<'a> {
    pub(super) fn new(design: &'a Design, placement: &Placement) -> Self {
        // Macro footprints become blockages.
        let blockages: Vec<_> = design
            .movable_cells()
            .iter()
            .filter(|&&id| design.cell(id).kind() == CellKind::MovableMacro)
            .map(|&id| {
                let c = design.cell(id);
                placement.cell_rect(id, c.width(), c.height())
            })
            .collect();
        let rows = RowLayout::new(design, &blockages);
        let mut cells: Vec<Vec<CellId>> = vec![Vec::new(); rows.num_rows()];
        let mut row_of = vec![usize::MAX; design.num_cells()];
        for &id in design.movable_cells() {
            if design.cell(id).kind() != CellKind::Movable {
                continue;
            }
            let r = rows.nearest_row(placement.position(id).y);
            cells[r].push(id);
            row_of[id.index()] = r;
        }
        for row in &mut cells {
            row.sort_by(|&a, &b| placement.position(a).x.total_cmp(&placement.position(b).x));
        }
        Self {
            design,
            rows,
            cells,
            row_of,
        }
    }

    /// The free interval around the cell at `pos` in row `r` — from the
    /// right edge of its left neighbor to the left edge of its right
    /// neighbor, clipped to the containing segment.
    fn slot(&self, placement: &Placement, r: usize, pos: usize) -> (f64, f64) {
        let id = self.cells[r][pos];
        let x = placement.position(id).x;
        let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
        if pos > 0 {
            let n = self.cells[r][pos - 1];
            lo = placement.position(n).x + 0.5 * self.design.cell(n).width();
        }
        if pos + 1 < self.cells[r].len() {
            let n = self.cells[r][pos + 1];
            hi = placement.position(n).x - 0.5 * self.design.cell(n).width();
        }
        // Clip to the segment containing the cell.
        for seg in self.rows.segments(r) {
            if x >= seg.lx - 1e-9 && x <= seg.hx + 1e-9 {
                lo = lo.max(seg.lx);
                hi = hi.min(seg.hx);
                break;
            }
        }
        (lo, hi)
    }
}

/// The x/y position minimizing total incident-net HPWL for a single cell is
/// the median of the other-pin bounding intervals; we approximate with the
/// median of the incident nets' bbox centers (cheap, standard practice).
pub(super) fn optimal_position(design: &Design, placement: &Placement, id: CellId) -> Point {
    let nets = design.cell_nets(id);
    let mut xs: Vec<f64> = Vec::with_capacity(nets.len());
    let mut ys: Vec<f64> = Vec::with_capacity(nets.len());
    for &n in nets {
        let (lx, ly, hx, hy) = hpwl::net_bbox(design, placement, n);
        xs.push(0.5 * (lx + hx));
        ys.push(0.5 * (ly + hy));
    }
    if xs.is_empty() {
        return placement.position(id);
    }
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    Point::new(xs[xs.len() / 2], ys[ys.len() / 2])
}

/// Global swap: move each cell toward its optimal position by swapping with
/// a cell already there, accepting only HPWL gains.
fn global_swap_pass(state: &mut RowState<'_>, tracker: &mut HpwlTracker<'_>) -> usize {
    let design = state.design;
    let mut accepted = 0;
    for idx in 0..design.movable_cells().len() {
        let a = design.movable_cells()[idx];
        if design.cell(a).kind() != CellKind::Movable {
            continue;
        }
        let ra = state.row_of[a.index()];
        if ra == usize::MAX {
            continue;
        }
        let opt = optimal_position(design, tracker.placement(), a);
        let target_row = state.rows.nearest_row(opt.y);
        if state.cells[target_row].is_empty() {
            continue;
        }
        // Nearest cell in the target row by x.
        let row = &state.cells[target_row];
        let bpos =
            match row.binary_search_by(|&c| tracker.placement().position(c).x.total_cmp(&opt.x)) {
                Ok(k) => k,
                Err(k) => k.min(row.len() - 1),
            };
        let b = row[bpos];
        if b == a {
            continue;
        }
        let rb = state.row_of[b.index()];
        let Some(apos) = state.cells[ra].iter().position(|&c| c == a) else {
            debug_assert!(false, "cell must be tracked in its row");
            continue;
        };
        if ra == rb && (apos as isize - bpos as isize).abs() <= 1 {
            continue; // adjacent same-row cells: handled by reordering
        }

        // Feasibility: each cell must fit the other's slot.
        let (alo, ahi) = state.slot(tracker.placement(), ra, apos);
        let (blo, bhi) = state.slot(tracker.placement(), rb, bpos);
        let wa = design.cell(a).width();
        let wb = design.cell(b).width();
        if wb > ahi - alo - 1e-9 || wa > bhi - blo - 1e-9 {
            continue;
        }

        let pa = tracker.placement().position(a);
        let pb = tracker.placement().position(b);
        let before = tracker.total();
        // Trial: put each at the center of the other's slot, clamped.
        let na = Point::new(
            pb.x.clamp(blo + 0.5 * wa, (bhi - 0.5 * wa).max(blo + 0.5 * wa)),
            pb.y,
        );
        let nb = Point::new(
            pa.x.clamp(alo + 0.5 * wb, (ahi - 0.5 * wb).max(alo + 0.5 * wb)),
            pa.y,
        );
        tracker.begin();
        tracker.move_cell(a, na);
        tracker.move_cell(b, nb);
        if tracker.total() < before - 1e-12 {
            tracker.commit();
            // Update row bookkeeping.
            state.cells[ra][apos] = b;
            state.cells[rb][bpos] = a;
            state.row_of[a.index()] = rb;
            state.row_of[b.index()] = ra;
            let placement = tracker.placement();
            state.cells[ra]
                .sort_by(|&p, &q| placement.position(p).x.total_cmp(&placement.position(q).x));
            if ra != rb {
                state.cells[rb]
                    .sort_by(|&p, &q| placement.position(p).x.total_cmp(&placement.position(q).x));
            }
            accepted += 1;
        } else {
            tracker.rollback();
        }
    }
    accepted
}

/// Vertical swap: move a cell into a free gap in the row nearest its
/// optimal y, accepting only HPWL gains.
fn vertical_swap_pass(state: &mut RowState<'_>, tracker: &mut HpwlTracker<'_>) -> usize {
    let design = state.design;
    let mut accepted = 0;
    for idx in 0..design.movable_cells().len() {
        let a = design.movable_cells()[idx];
        if design.cell(a).kind() != CellKind::Movable {
            continue;
        }
        let ra = state.row_of[a.index()];
        if ra == usize::MAX {
            continue;
        }
        let opt = optimal_position(design, tracker.placement(), a);
        let target_row = state.rows.nearest_row(opt.y);
        if target_row == ra {
            continue;
        }
        let w = design.cell(a).width();

        // Find a gap in the target row around opt.x.
        let Some((gap_lo, gap_hi, insert_at)) =
            find_gap(state, tracker.placement(), target_row, opt.x, w)
        else {
            continue;
        };

        let before = tracker.total();
        let nx = opt
            .x
            .clamp(gap_lo + 0.5 * w, (gap_hi - 0.5 * w).max(gap_lo + 0.5 * w));
        tracker.begin();
        tracker.move_cell(a, Point::new(nx, state.rows.row_center(target_row)));
        if tracker.total() < before - 1e-12 {
            tracker.commit();
            let Some(apos) = state.cells[ra].iter().position(|&c| c == a) else {
                debug_assert!(false, "cell must be tracked in its row");
                continue;
            };
            state.cells[ra].remove(apos);
            state.cells[target_row].insert(insert_at, a);
            state.row_of[a.index()] = target_row;
            accepted += 1;
        } else {
            tracker.rollback();
        }
    }
    accepted
}

/// Finds a free gap of width ≥ `w` in `row` near `x`; returns the gap
/// bounds and the index at which the cell would be inserted.
pub(super) fn find_gap(
    state: &RowState<'_>,
    placement: &Placement,
    row: usize,
    x: f64,
    w: f64,
) -> Option<(f64, f64, usize)> {
    let cells = &state.cells[row];
    for seg in state.rows.segments(row) {
        if x < seg.lx || x > seg.hx || seg.width() < w {
            continue;
        }
        // Cells inside this segment.
        let mut edges: Vec<(f64, f64)> = Vec::new(); // occupied intervals
        let mut first_idx = None;
        for (k, &c) in cells.iter().enumerate() {
            let p = placement.position(c).x;
            if p >= seg.lx && p <= seg.hx {
                let hw = 0.5 * state.design.cell(c).width();
                edges.push((p - hw, p + hw));
                first_idx.get_or_insert(k);
            }
        }
        // An empty segment inserts after the cells left of it, so the row
        // stays x-sorted.
        let first_idx = first_idx
            .unwrap_or_else(|| cells.partition_point(|&c| placement.position(c).x < seg.lx));
        let mut best: Option<(f64, f64, usize)> = None;
        let mut best_dist = f64::INFINITY;
        let mut cursor = seg.lx;
        for (g, &(lo, hi)) in edges.iter().enumerate() {
            if lo - cursor >= w {
                let cand = (cursor, lo, first_idx + g);
                let dist = distance_to_interval(x, cand.0, cand.1);
                if dist < best_dist {
                    best_dist = dist;
                    best = Some(cand);
                }
            }
            cursor = cursor.max(hi);
        }
        if seg.hx - cursor >= w {
            let cand = (cursor, seg.hx, first_idx + edges.len());
            if distance_to_interval(x, cand.0, cand.1) < best_dist {
                best = Some(cand);
            }
        }
        if best.is_some() {
            return best;
        }
    }
    None
}

fn distance_to_interval(x: f64, lo: f64, hi: f64) -> f64 {
    if x < lo {
        lo - x
    } else if x > hi {
        x - hi
    } else {
        0.0
    }
}

/// Local reordering: sliding windows of three cells within a row; tries all
/// permutations, re-packing the window span evenly, and keeps the best.
fn local_reorder_pass(state: &mut RowState<'_>, tracker: &mut HpwlTracker<'_>) -> usize {
    const PERMS: [[usize; 3]; 5] = [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let design = state.design;
    let mut accepted = 0;
    for r in 0..state.cells.len() {
        if state.cells[r].len() < 3 {
            continue;
        }
        for start in 0..state.cells[r].len() - 2 {
            let trio = [
                state.cells[r][start],
                state.cells[r][start + 1],
                state.cells[r][start + 2],
            ];
            // The window span: left edge of the first, right edge of the
            // last (cells must share a segment).
            let placement = tracker.placement();
            let left = placement.position(trio[0]).x - 0.5 * design.cell(trio[0]).width();
            let right = placement.position(trio[2]).x + 0.5 * design.cell(trio[2]).width();
            let same_segment = state
                .rows
                .segments(r)
                .iter()
                .any(|s| left >= s.lx - 1e-9 && right <= s.hx + 1e-9);
            if !same_segment {
                continue;
            }
            let widths: f64 = trio.iter().map(|&c| design.cell(c).width()).sum();
            let space = right - left - widths;
            if space < -1e-9 {
                continue; // overlapping input; skip
            }
            let originals: Vec<Point> = trio.iter().map(|&c| placement.position(c)).collect();
            let base = tracker.total();
            let gap = space / 2.0;
            let mut best: Option<(f64, [usize; 3])> = None;
            for perm in PERMS.iter() {
                tracker.begin();
                let mut cursor = left;
                for &pi in perm {
                    let c = trio[pi];
                    let w = design.cell(c).width();
                    tracker.move_cell(c, Point::new(cursor + 0.5 * w, originals[pi].y));
                    cursor += w + gap;
                }
                let cost = tracker.total();
                if cost < base - 1e-12 && best.as_ref().is_none_or(|(b, _)| cost < *b) {
                    best = Some((cost, *perm));
                }
                tracker.rollback();
            }
            if let Some((_, perm)) = best {
                tracker.begin();
                let mut cursor = left;
                for &pi in &perm {
                    let c = trio[pi];
                    let w = design.cell(c).width();
                    tracker.move_cell(c, Point::new(cursor + 0.5 * w, originals[pi].y));
                    cursor += w + gap;
                }
                tracker.commit();
                // Update order bookkeeping.
                state.cells[r][start] = trio[perm[0]];
                state.cells[r][start + 1] = trio[perm[1]];
                state.cells[r][start + 2] = trio[perm[2]];
                accepted += 1;
            }
        }
    }
    accepted
}
