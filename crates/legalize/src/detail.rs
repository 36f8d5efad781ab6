//! Detailed placement: global swap, vertical swap, and local reordering —
//! the three moves of FastPlace-DP (Pan, Viswanathan, Chu, ICCAD 2005).
//!
//! The input must be a legal placement (see [`crate::Legalizer`]); every
//! accepted move preserves legality, so the output is legal too, and HPWL
//! never increases — the property ComPLx's convergence argument relies on
//! (paper Section 4: "performing detailed placement on a feasible solution
//! should not increase costs").
//!
//! Candidate moves are evaluated through [`HpwlTracker`]'s transactional
//! protocol, so each trial costs only the moved cells' incident nets. Every
//! query is indexed: each row's cells stay sorted by x (no move ever takes
//! a cell past a neighbor), each cell knows its slot in its row, each row
//! keeps a per-block bound on its widest gap, and a reorder window replays
//! the tracker's arithmetic over its nets' gathered extents instead of
//! moving cells through the tracker.

use complx_netlist::{hpwl, CellId, CellKind, Design, HpwlTracker, NetId, Placement, Point};

use crate::rows::{RowLayout, Segment};

#[cfg(test)]
mod reference;

/// Outcome of a [`DetailedPlacer::improve`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailStats {
    /// HPWL before refinement.
    pub hpwl_before: f64,
    /// HPWL after refinement.
    pub hpwl_after: f64,
    /// Number of full passes executed.
    pub passes: usize,
    /// Number of accepted moves.
    pub moves: usize,
}

/// Result wrapper: refined placement plus statistics.
#[derive(Debug, Clone)]
pub struct DetailResult {
    /// The refined legal placement.
    pub placement: Placement,
    /// Run statistics.
    pub stats: DetailStats,
}

/// The iterative detailed placer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedPlacer {
    /// Maximum number of full passes.
    pub max_passes: usize,
    /// Stop when a pass improves HPWL by less than this fraction.
    pub min_improvement: f64,
}

impl Default for DetailedPlacer {
    fn default() -> Self {
        Self {
            max_passes: 4,
            min_improvement: 5e-4,
        }
    }
}

/// Slots per block of a row's gap summary.
const BLOCK: usize = 16;

/// A row-bound cell as its row holds it: the center x is kept equal to the
/// working placement's, so row queries read one contiguous array.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowCell {
    id: CellId,
    x: f64,
    w: f64,
}

impl RowCell {
    fn lo(&self) -> f64 {
        self.x - 0.5 * self.w
    }

    fn hi(&self) -> f64 {
        self.x + 0.5 * self.w
    }
}

/// Internal mutable state: per-row cell lists sorted by x, and their
/// indexes.
struct RowState<'a> {
    design: &'a Design,
    rows: RowLayout,
    /// Cells per row, sorted by center x.
    cells: Vec<Vec<RowCell>>,
    /// Current row of each std cell (usize::MAX when not row-bound).
    row_of: Vec<usize>,
    /// Index of each row-bound cell in its row's list.
    slot_of: Vec<usize>,
    /// Per row and block of [`BLOCK`] slots: the widest distance from a
    /// cell's left edge back to its left neighbor's right edge. No gap that
    /// [`RowState::find_gap`] opens at one of those slots is wider.
    widest: Vec<Vec<f64>>,
    /// Half the widest row-bound cell: no cell's right edge lies further
    /// right of its center.
    half_wmax: f64,
}

impl<'a> RowState<'a> {
    fn new(design: &'a Design, placement: &Placement) -> Self {
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
        let mut cells: Vec<Vec<RowCell>> = vec![Vec::new(); rows.num_rows()];
        let mut row_of = vec![usize::MAX; design.num_cells()];
        let mut wmax = 0.0f64;
        for &id in design.movable_cells() {
            if design.cell(id).kind() != CellKind::Movable {
                continue;
            }
            let p = placement.position(id);
            let r = rows.nearest_row(p.y);
            let w = design.cell(id).width();
            cells[r].push(RowCell { id, x: p.x, w });
            row_of[id.index()] = r;
            wmax = wmax.max(w);
        }
        for row in &mut cells {
            row.sort_by(|a, b| a.x.total_cmp(&b.x));
        }
        let mut state = Self {
            design,
            rows,
            widest: vec![Vec::new(); cells.len()],
            cells,
            row_of,
            slot_of: vec![usize::MAX; design.num_cells()],
            half_wmax: 0.5 * wmax,
        };
        for r in 0..state.cells.len() {
            state.refresh_from(r, 0);
        }
        state
    }

    /// Recomputes the gap bound of block `b` of row `r`.
    fn refresh_block(&mut self, r: usize, b: usize) {
        let row = &self.cells[r];
        let end = ((b + 1) * BLOCK).min(row.len());
        let mut widest = f64::NEG_INFINITY;
        for k in (b * BLOCK).max(1)..end {
            widest = widest.max(row[k].lo() - row[k - 1].hi());
        }
        self.widest[r][b] = widest;
    }

    /// Refreshes the gap bounds after the cells in slots `lo..=hi` of row
    /// `r` moved: a slot's bound reads the slot and its left neighbor.
    fn touch(&mut self, r: usize, lo: usize, hi: usize) {
        let last = (hi + 1).min(self.cells[r].len().saturating_sub(1));
        for b in lo / BLOCK..=last / BLOCK {
            self.refresh_block(r, b);
        }
    }

    /// Re-indexes row `r` from slot `from` on, after an insert or a removal
    /// there shifted every later slot.
    fn refresh_from(&mut self, r: usize, from: usize) {
        for k in from..self.cells[r].len() {
            self.slot_of[self.cells[r][k].id.index()] = k;
        }
        let blocks = self.cells[r].len().div_ceil(BLOCK);
        self.widest[r].resize(blocks, f64::NEG_INFINITY);
        for b in from / BLOCK..blocks {
            self.refresh_block(r, b);
        }
    }

    /// The free interval around the cell at `pos` in row `r` — from the
    /// right edge of its left neighbor to the left edge of its right
    /// neighbor, clipped to the containing segment.
    fn slot(&self, r: usize, pos: usize) -> (f64, f64) {
        let row = &self.cells[r];
        let x = row[pos].x;
        let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
        if pos > 0 {
            lo = row[pos - 1].hi();
        }
        if pos + 1 < row.len() {
            hi = row[pos + 1].lo();
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

    /// Whether the cell in slot `k` of row `r` lies, by center x, between
    /// its neighbors.
    fn in_order(&self, r: usize, k: usize) -> bool {
        let row = &self.cells[r];
        (k == 0 || row[k - 1].x <= row[k].x) && (k + 1 >= row.len() || row[k].x <= row[k + 1].x)
    }

    /// Finds a free gap of width ≥ `w` in `row` near `x`: in the first
    /// segment that contains `x` and has one, the gap nearest `x`, the
    /// leftmost on ties. Returns the gap bounds and the index at which the
    /// cell would be inserted.
    fn find_gap(&self, row: usize, x: f64, w: f64) -> Option<(f64, f64, usize)> {
        let cells = &self.cells[row];
        for seg in self.rows.segments(row) {
            if x < seg.lx || x > seg.hx || seg.width() < w {
                continue;
            }
            // The segment's cells, by center, are one run of the sorted row
            // (most often all of it).
            let s = match cells.first() {
                Some(c) if c.x < seg.lx => cells.partition_point(|c| c.x < seg.lx),
                _ => 0,
            };
            let e = match cells.last() {
                Some(c) if c.x > seg.hx => s + cells[s..].partition_point(|c| c.x <= seg.hx),
                _ => cells.len(),
            };
            if let Some((lo, hi, g)) = self.nearest_gap(row, seg, s..e, x, w) {
                return Some((lo, hi, s + g));
            }
        }
        None
    }

    /// The gaps of a segment holding the cells in slots `run` are numbered
    /// `g = 0..=n`: gap `g` ends at the left edge of the run's `g`-th cell
    /// (the segment end for `g = n`) and starts at the rightmost right edge
    /// of the cells before it (the segment start for `g = 0`). Returns the
    /// nearest gap of width ≥ `w` to `x`, the lowest `g` on ties, as its
    /// bounds and `g`.
    ///
    /// The walk starts at the gap holding `x` and goes outward, so it stops
    /// at the first fitting gap on the right and as soon as no gap further
    /// left can tie on the left; blocks whose gap bound is below `w` are
    /// skipped whole.
    fn nearest_gap(
        &self,
        row: usize,
        seg: &Segment,
        run: std::ops::Range<usize>,
        x: f64,
        w: f64,
    ) -> Option<(f64, f64, usize)> {
        let cells = &self.cells[row];
        let (s, e) = (run.start, run.end);
        let n = e - s;
        // Exact start of the gap whose right neighbor is slot `k`: the
        // running max of right edges from the segment start. Walking back,
        // once a center plus the widest half-width cannot pass the max, no
        // cell further left can either.
        let cursor = |k: usize| {
            let mut cur = seg.lx;
            for c in cells[s..k].iter().rev() {
                if c.x + self.half_wmax <= cur {
                    break;
                }
                cur = cur.max(c.hi());
            }
            cur
        };
        let gap_end = |g: usize| if g < n { cells[s + g].lo() } else { seg.hx };
        // A gap `0 < g < n` is no wider than its slot's bound, so a cheap
        // test rejects most gaps before `cursor` runs.
        let may_fit = |g: usize| g == 0 || g == n || cells[s + g].lo() - cells[s + g - 1].hi() >= w;
        let offer = |best: &mut Option<(f64, usize, f64, f64)>, g: usize| {
            let (lo, hi) = (if g == 0 { seg.lx } else { cursor(s + g) }, gap_end(g));
            if hi - lo >= w {
                let dist = distance_to_interval(x, lo, hi);
                if best.is_none_or(|(d, bg, ..)| (dist, g) < (d, bg)) {
                    *best = Some((dist, g, lo, hi));
                    return true;
                }
            }
            false
        };
        let skippable = |k: usize| self.widest[row][k / BLOCK] < w;
        let mut best: Option<(f64, usize, f64, f64)> = None; // (dist, g, lo, hi)

        // The gap holding `x`: its right neighbor is the first cell
        // centered right of `x`.
        let mid = cells[s..e].partition_point(|c| c.x <= x);
        if may_fit(mid) {
            offer(&mut best, mid);
        }
        // Left of it: gap `g < mid` is at least `x − center(s + g)` away,
        // and so is every gap further left.
        let mut g = mid;
        while g > 0 {
            g -= 1;
            let k = s + g;
            if best.is_some_and(|(d, ..)| x - cells[k].x > d) {
                break;
            }
            if g > 0 && skippable(k) {
                // Every gap at this block's slots is too narrow.
                g = (k - k % BLOCK).max(s + 1) - s;
                continue;
            }
            if may_fit(g) {
                offer(&mut best, g);
            }
        }
        // Right of it: gap `g > mid` starts at or right of the right edge
        // of slot `s + g − 1`, and so does every gap further right; the
        // first that fits is the nearest of them.
        let mut g = mid + 1;
        while g <= n {
            let k = s + g;
            if best.is_some_and(|(d, ..)| cells[k - 1].hi() - x >= d) {
                break;
            }
            if g < n && skippable(k) {
                g = (k - k % BLOCK + BLOCK).min(e) - s;
                continue;
            }
            if may_fit(g) && offer(&mut best, g) {
                break;
            }
            g += 1;
        }
        best.map(|(_, g, lo, hi)| (lo, hi, g))
    }
}

/// Reused buffers of one [`DetailedPlacer::improve`] run, so no trial
/// allocates.
struct Scratch {
    /// Incident-net box centers, for [`optimal_position`].
    xs: Vec<f64>,
    ys: Vec<f64>,
    window: WindowNets,
}

impl DetailedPlacer {
    /// Refines a legal placement; never increases HPWL.
    ///
    /// The input is assumed legal (row-aligned, overlap-free); illegal
    /// inputs are refined on a best-effort basis but legality is only
    /// preserved, not established.
    ///
    /// `cancel` is a cooperative cancellation point between passes: when it
    /// trips, no further pass starts and the result is whatever the
    /// completed passes produced — still legal, and HPWL never worse than
    /// the input. `None` and an untripped token give identical bits.
    pub fn improve(
        &self,
        design: &Design,
        placement: Placement,
        cancel: Option<&complx_par::CancelToken>,
    ) -> DetailResult {
        let _span = complx_obs::span("detail");
        let before = hpwl::weighted_hpwl(design, &placement);
        let mut state = RowState::new(design, &placement);
        let mut tracker = HpwlTracker::new(design, placement);
        let mut scratch = Scratch {
            xs: Vec::new(),
            ys: Vec::new(),
            window: WindowNets::new(design),
        };
        let mut total_moves = 0usize;
        let mut passes = 0usize;
        let mut last = before;
        for _ in 0..self.max_passes {
            if cancel.is_some_and(complx_par::CancelToken::is_cancelled) {
                break;
            }
            passes += 1;
            let mut moves = 0usize;
            moves += global_swap_pass(&mut state, &mut tracker, &mut scratch);
            moves += vertical_swap_pass(&mut state, &mut tracker, &mut scratch);
            moves += local_reorder_pass(&mut state, &mut tracker, &mut scratch.window);
            total_moves += moves;
            let now = tracker.total();
            let improved = (last - now) / last.max(1e-30);
            last = now;
            if moves == 0 || improved < self.min_improvement {
                break;
            }
        }
        complx_obs::add("detail.passes", passes as u64);
        complx_obs::add("detail.moves", total_moves as u64);
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
}

/// The x/y position minimizing total incident-net HPWL for a single cell is
/// the median of the other-pin bounding intervals; we approximate with the
/// median of the incident nets' bbox centers (cheap, standard practice).
/// The boxes are the tracker's cached ones.
fn optimal_position(
    design: &Design,
    tracker: &HpwlTracker<'_>,
    id: CellId,
    scratch: &mut Scratch,
) -> Point {
    let nets = design.cell_nets(id);
    if nets.is_empty() {
        return tracker.placement().position(id);
    }
    let (xs, ys) = (&mut scratch.xs, &mut scratch.ys);
    xs.clear();
    ys.clear();
    for &n in nets {
        let (lx, ly, hx, hy) = tracker.net_box(n);
        xs.push(0.5 * (lx + hx));
        ys.push(0.5 * (ly + hy));
    }
    // Under `total_cmp`, equal elements are equal bits, so the selected
    // element is the sorted middle one.
    let mid = xs.len() / 2;
    let x = *xs.select_nth_unstable_by(mid, f64::total_cmp).1;
    let y = *ys.select_nth_unstable_by(mid, f64::total_cmp).1;
    Point::new(x, y)
}

/// Global swap: move each cell toward its optimal position by swapping with
/// a cell already there, accepting only HPWL gains.
fn global_swap_pass(
    state: &mut RowState<'_>,
    tracker: &mut HpwlTracker<'_>,
    scratch: &mut Scratch,
) -> usize {
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
        let opt = optimal_position(design, tracker, a, scratch);
        let target_row = state.rows.nearest_row(opt.y);
        if state.cells[target_row].is_empty() {
            continue;
        }
        // Nearest cell in the target row by x.
        let row = &state.cells[target_row];
        let bpos = match row.binary_search_by(|c| c.x.total_cmp(&opt.x)) {
            Ok(k) => k,
            Err(k) => k.min(row.len() - 1),
        };
        let b = row[bpos].id;
        if b == a {
            continue;
        }
        let rb = state.row_of[b.index()];
        let apos = state.slot_of[a.index()];
        if ra == rb && (apos as isize - bpos as isize).abs() <= 1 {
            continue; // adjacent same-row cells: handled by reordering
        }

        // Feasibility: each cell must fit the other's slot.
        let (alo, ahi) = state.slot(ra, apos);
        let (blo, bhi) = state.slot(rb, bpos);
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
            // Each cell lands inside the other's slot, between the other's
            // neighbors, so both rows stay sorted without a re-sort.
            state.cells[ra][apos] = RowCell {
                id: b,
                x: nb.x,
                w: wb,
            };
            state.cells[rb][bpos] = RowCell {
                id: a,
                x: na.x,
                w: wa,
            };
            state.row_of[a.index()] = rb;
            state.row_of[b.index()] = ra;
            state.slot_of[a.index()] = bpos;
            state.slot_of[b.index()] = apos;
            debug_assert!(state.in_order(ra, apos) && state.in_order(rb, bpos));
            state.touch(ra, apos, apos);
            state.touch(rb, bpos, bpos);
            accepted += 1;
        } else {
            tracker.rollback();
        }
    }
    accepted
}

/// Vertical swap: move a cell into a free gap in the row nearest its
/// optimal y, accepting only HPWL gains.
fn vertical_swap_pass(
    state: &mut RowState<'_>,
    tracker: &mut HpwlTracker<'_>,
    scratch: &mut Scratch,
) -> usize {
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
        let opt = optimal_position(design, tracker, a, scratch);
        let target_row = state.rows.nearest_row(opt.y);
        if target_row == ra {
            continue;
        }
        let w = design.cell(a).width();

        // Find a gap in the target row around opt.x.
        let Some((gap_lo, gap_hi, insert_at)) = state.find_gap(target_row, opt.x, w) else {
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
            let apos = state.slot_of[a.index()];
            state.cells[ra].remove(apos);
            state.cells[target_row].insert(insert_at, RowCell { id: a, x: nx, w });
            state.row_of[a.index()] = target_row;
            state.refresh_from(ra, apos);
            state.refresh_from(target_row, insert_at);
            accepted += 1;
        } else {
            tracker.rollback();
        }
    }
    accepted
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

/// One net of a window cell, as loaded from the design and the tracker.
#[derive(Debug, Clone, Copy)]
struct CellNet {
    id: NetId,
    weight: f64,
    bbox: (f64, f64, f64, f64),
    /// x-extent of the net's pins on other cells.
    others: (f64, f64),
    /// Smallest and largest x offset of the cell's own pins on the net.
    offsets: (f64, f64),
}

/// A window cell and its nets.
#[derive(Debug, Clone, Default)]
struct LoadedCell {
    id: Option<CellId>,
    nets: Vec<CellNet>,
}

impl LoadedCell {
    fn load(&mut self, design: &Design, tracker: &HpwlTracker<'_>, c: CellId) {
        let xs = tracker.placement().xs();
        self.id = Some(c);
        self.nets.clear();
        for &n in design.cell_nets(c) {
            let mut others = (f64::INFINITY, f64::NEG_INFINITY);
            let mut offsets = (f64::INFINITY, f64::NEG_INFINITY);
            for pin in design.net_pins(n) {
                if pin.cell == c {
                    offsets = (offsets.0.min(pin.dx), offsets.1.max(pin.dx));
                } else {
                    let px = xs[pin.cell.index()] + pin.dx;
                    others = (others.0.min(px), others.1.max(px));
                }
            }
            self.nets.push(CellNet {
                id: n,
                weight: design.net(n).weight(),
                bbox: tracker.net_box(n),
                others,
                offsets,
            });
        }
    }
}

/// One distinct net of a reorder window.
#[derive(Debug, Clone, Copy)]
struct WindowNet {
    weight: f64,
    /// x-extent of the net's pins off the window.
    off: (f64, f64),
    /// The cached box: its x-extent before the window moves, and its
    /// y-extent, which a reorder never changes.
    bbox: (f64, f64, f64, f64),
    /// For a net on one window cell: the smallest and largest x offset of
    /// its pins there. Rounding is monotone, so at any x those two pins are
    /// the cell's extreme pins on the net.
    offsets: (f64, f64),
    /// For a net on several window cells: (window position, x offset) of
    /// each window pin, as a range of [`WindowNets::pins`].
    shared: Option<(usize, usize)>,
}

/// A reorder window's nets, gathered once so its permutations are priced
/// without the tracker.
///
/// Consecutive windows of a row share two cells, so each cell's nets are
/// loaded once while it slides through the window; an accepted move moves
/// pins and boxes, so it drops every loaded cell. A net on one window cell
/// only — the common case — needs no pin scan per window: its pins off the
/// window are the pins off that cell. A per-net stamp finds the nets that
/// several window cells share.
struct WindowNets {
    loaded: [LoadedCell; 3],
    stamp: u64,
    /// Per net: the stamp of the window that holds it and its index into
    /// `nets`.
    net_mark: Vec<(u64, usize)>,
    nets: Vec<WindowNet>,
    pins: Vec<(usize, f64)>,
    /// Indexes into `nets` of each window cell's nets, in
    /// [`Design::cell_nets`] order, and each cell's range of them.
    cell_nets: Vec<usize>,
    cell_ranges: [(usize, usize); 3],
    /// Per-permutation x-extent of each net, as the tracker would hold it.
    extent: Vec<(f64, f64)>,
}

impl WindowNets {
    fn new(design: &Design) -> Self {
        Self {
            loaded: Default::default(),
            stamp: 0,
            net_mark: vec![(0, 0); design.num_nets()],
            nets: Vec::new(),
            pins: Vec::new(),
            cell_nets: Vec::new(),
            cell_ranges: [(0, 0); 3],
            extent: Vec::new(),
        }
    }

    /// Drops the loaded cells: an accepted move changed pins and boxes.
    fn forget(&mut self) {
        for cell in &mut self.loaded {
            cell.id = None;
        }
    }

    /// Gathers the distinct nets of `trio`, each once.
    fn gather(&mut self, design: &Design, tracker: &HpwlTracker<'_>, trio: &[CellId; 3]) {
        if self.loaded[1].id == Some(trio[0]) && self.loaded[2].id == Some(trio[1]) {
            self.loaded.rotate_left(1);
        }
        for (cell, &c) in self.loaded.iter_mut().zip(trio) {
            if cell.id != Some(c) {
                cell.load(design, tracker, c);
            }
        }
        self.stamp += 1;
        self.nets.clear();
        self.pins.clear();
        self.cell_nets.clear();
        for k in 0..3 {
            let first = self.cell_nets.len();
            for j in 0..self.loaded[k].nets.len() {
                let net = self.loaded[k].nets[j];
                let (mark, at) = self.net_mark[net.id.index()];
                if mark == self.stamp {
                    self.cell_nets.push(at);
                    if self.nets[at].shared.is_none() {
                        self.split_shared(design, tracker, trio, net.id, at);
                    }
                    continue;
                }
                self.net_mark[net.id.index()] = (self.stamp, self.nets.len());
                self.cell_nets.push(self.nets.len());
                self.nets.push(WindowNet {
                    weight: net.weight,
                    off: net.others,
                    bbox: net.bbox,
                    offsets: net.offsets,
                    shared: None,
                });
            }
            self.cell_ranges[k] = (first, self.cell_nets.len());
        }
    }

    /// Splits net `id` (entry `at`), found on a second window cell, into
    /// its pins off the window and its window pins, afresh.
    fn split_shared(
        &mut self,
        design: &Design,
        tracker: &HpwlTracker<'_>,
        trio: &[CellId; 3],
        id: NetId,
        at: usize,
    ) {
        let xs = tracker.placement().xs();
        let start = self.pins.len();
        let mut off = (f64::INFINITY, f64::NEG_INFINITY);
        for pin in design.net_pins(id) {
            if let Some(k) = trio.iter().position(|&t| t == pin.cell) {
                self.pins.push((k, pin.dx));
            } else {
                let px = xs[pin.cell.index()] + pin.dx;
                off = (off.0.min(px), off.1.max(px));
            }
        }
        let net = &mut self.nets[at];
        (net.off, net.shared) = (off, Some((start, self.pins.len())));
    }

    /// The tracker total after moving the window's cells, in `order`, to
    /// x `to[k]` (cell `k` of the window, from `from[k]`), starting from
    /// `base`: the same updates in the same order as
    /// [`HpwlTracker::move_cell`], so the same bits. A cell that does not
    /// move updates nothing.
    fn price(&mut self, order: &[usize; 3], from: &[Point; 3], to: &[f64; 3], base: f64) -> f64 {
        self.extent.clear();
        self.extent
            .extend(self.nets.iter().map(|net| (net.bbox.0, net.bbox.2)));
        let mut now = [from[0].x, from[1].x, from[2].x];
        let mut total = base;
        for &k in order {
            if Point::new(to[k], from[k].y) == from[k] {
                continue;
            }
            now[k] = to[k];
            let (first, last) = self.cell_ranges[k];
            for &i in &self.cell_nets[first..last] {
                let net = &self.nets[i];
                let (mut lo, mut hi) = net.off;
                // A net on one window cell moves once per permutation, from
                // its cached box.
                let old = match net.shared {
                    None => {
                        lo = lo.min(to[k] + net.offsets.0);
                        hi = hi.max(to[k] + net.offsets.1);
                        (net.bbox.0, net.bbox.2)
                    }
                    Some((start, end)) => {
                        for &(at, dx) in &self.pins[start..end] {
                            let px = now[at] + dx;
                            lo = lo.min(px);
                            hi = hi.max(px);
                        }
                        std::mem::replace(&mut self.extent[i], (lo, hi))
                    }
                };
                let (ly, hy) = (net.bbox.1, net.bbox.3);
                total += net.weight * (((hi - lo) + (hy - ly)) - ((old.1 - old.0) + (hy - ly)));
            }
        }
        total
    }
}

/// Local reordering: sliding windows of three cells within a row; tries all
/// permutations, re-packing the window span evenly, and keeps the best.
fn local_reorder_pass(
    state: &mut RowState<'_>,
    tracker: &mut HpwlTracker<'_>,
    nets: &mut WindowNets,
) -> usize {
    const PERMS: [[usize; 3]; 5] = [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let design = state.design;
    let mut accepted = 0;
    nets.forget();
    for r in 0..state.cells.len() {
        if state.cells[r].len() < 3 {
            continue;
        }
        for start in 0..state.cells[r].len() - 2 {
            let window = [
                state.cells[r][start],
                state.cells[r][start + 1],
                state.cells[r][start + 2],
            ];
            let trio = window.map(|c| c.id);
            // The window span: left edge of the first, right edge of the
            // last (cells must share a segment).
            let (left, right) = (window[0].lo(), window[2].hi());
            let same_segment = state
                .rows
                .segments(r)
                .iter()
                .any(|s| left >= s.lx - 1e-9 && right <= s.hx + 1e-9);
            if !same_segment {
                continue;
            }
            let widths: f64 = window.iter().map(|c| c.w).sum();
            let space = right - left - widths;
            if space < -1e-9 {
                continue; // overlapping input; skip
            }
            let originals = trio.map(|c| tracker.placement().position(c));
            let base = tracker.total();
            let gap = space / 2.0;
            // Each window cell's x when packed from `left` in `perm` order.
            let packed = |perm: &[usize; 3]| {
                let mut to = [0.0; 3];
                let mut cursor = left;
                for &pi in perm {
                    let w = window[pi].w;
                    to[pi] = cursor + 0.5 * w;
                    cursor += w + gap;
                }
                to
            };
            nets.gather(design, tracker, &trio);
            let mut best: Option<(f64, [usize; 3])> = None;
            for perm in PERMS.iter() {
                let cost = nets.price(perm, &originals, &packed(perm), base);
                if cost < base - 1e-12 && best.as_ref().is_none_or(|(b, _)| cost < *b) {
                    best = Some((cost, *perm));
                }
            }
            if let Some((cost, perm)) = best {
                let to = packed(&perm);
                tracker.begin();
                for &pi in &perm {
                    tracker.move_cell(trio[pi], Point::new(to[pi], originals[pi].y));
                }
                tracker.commit();
                nets.forget();
                debug_assert_eq!(tracker.total().to_bits(), cost.to_bits());
                // Update order bookkeeping.
                for (k, &pi) in perm.iter().enumerate() {
                    state.cells[r][start + k] = RowCell {
                        x: to[pi],
                        ..window[pi]
                    };
                    state.slot_of[trio[pi].index()] = start + k;
                }
                state.touch(r, start, start + 2);
                accepted += 1;
            }
        }
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legalizer::Legalizer;
    use crate::verify::is_legal;
    use complx_netlist::generator::GeneratorConfig;

    fn legal_start(seed: u64) -> (complx_netlist::Design, Placement) {
        let d = GeneratorConfig::small("dp", seed).generate();
        let legal = Legalizer::default().legalize(&d, &d.initial_placement());
        (d, legal.placement)
    }

    #[test]
    fn improve_never_increases_hpwl() {
        let (d, p) = legal_start(41);
        let res = DetailedPlacer::default().improve(&d, p, None);
        assert!(res.stats.hpwl_after <= res.stats.hpwl_before + 1e-6);
    }

    #[test]
    fn improve_preserves_legality() {
        let (d, p) = legal_start(42);
        let res = DetailedPlacer::default().improve(&d, p, None);
        assert!(is_legal(&d, &res.placement, 1e-6));
    }

    #[test]
    fn improve_actually_improves_poor_placements() {
        let (d, p) = legal_start(43);
        let res = DetailedPlacer::default().improve(&d, p, None);
        assert!(
            res.stats.hpwl_after < res.stats.hpwl_before,
            "no improvement found: {:?}",
            res.stats
        );
        assert!(res.stats.moves > 0);
    }

    #[test]
    fn improve_is_deterministic() {
        let (d, p) = legal_start(44);
        let a = DetailedPlacer::default().improve(&d, p.clone(), None);
        // An untripped token changes nothing, bit for bit.
        let token = complx_par::CancelToken::new();
        let b = DetailedPlacer::default().improve(&d, p, Some(&token));
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.stats.hpwl_after.to_bits(), b.stats.hpwl_after.to_bits());
    }

    #[test]
    fn reported_hpwl_matches_batch_recompute() {
        let (d, p) = legal_start(46);
        let res = DetailedPlacer::default().improve(&d, p, None);
        let batch = hpwl::weighted_hpwl(&d, &res.placement);
        assert!(
            (res.stats.hpwl_after - batch).abs() < 1e-6 * batch.max(1.0),
            "incremental {} vs batch {batch}",
            res.stats.hpwl_after
        );
    }

    #[test]
    fn vertical_move_into_an_empty_segment_keeps_the_row_sorted() {
        use complx_netlist::{DesignBuilder, Rect};
        // Row 0 is split by an obstacle into [0, 10] (empty) and [14, 40]
        // (holding `b`); `a` sits in row 1 and is pulled into row 0's left
        // segment by a terminal at (2, 0).
        let mut bld = DesignBuilder::new("gap", Rect::new(0.0, 0.0, 40.0, 2.0), 1.0);
        let a = bld.add_cell("a", 2.0, 1.0, CellKind::Movable).unwrap();
        let b = bld.add_cell("b", 2.0, 1.0, CellKind::Movable).unwrap();
        bld.add_fixed_cell("f", 4.0, 1.0, CellKind::Fixed, Point::new(12.0, 0.5))
            .unwrap();
        let t = bld
            .add_fixed_cell("t", 0.0, 0.0, CellKind::Terminal, Point::new(2.0, 0.0))
            .unwrap();
        bld.add_net("na", 1.0, vec![(a, 0.0, 0.0), (t, 0.0, 0.0)])
            .unwrap();
        bld.add_net("nb", 1.0, vec![(b, 0.0, 0.0), (t, 0.0, 0.0)])
            .unwrap();
        let d = bld.build().unwrap();
        let mut p = d.initial_placement();
        p.set_position(a, Point::new(6.0, 1.5));
        p.set_position(b, Point::new(20.0, 0.5));
        assert!(is_legal(&d, &p, 1e-6));

        let mut state = RowState::new(&d, &p);
        let mut scratch = scratch(&d);
        let mut tracker = HpwlTracker::new(&d, p);
        assert_eq!(state.rows.segments(0).len(), 2);
        assert_eq!(
            vertical_swap_pass(&mut state, &mut tracker, &mut scratch),
            1
        );
        assert_eq!(state.row_of[a.index()], 0);
        let ids: Vec<_> = state.cells[0].iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![a, b], "row 0 must stay x-sorted");
        assert!(is_legal(&d, tracker.placement(), 1e-6));
    }

    #[test]
    fn optimal_position_is_median() {
        let (d, p) = legal_start(45);
        let tracker = HpwlTracker::new(&d, p.clone());
        let mut scratch = scratch(&d);
        for &id in d.movable_cells().iter().take(50) {
            let opt = optimal_position(&d, &tracker, id, &mut scratch);
            assert_eq!(opt, reference::optimal_position(&d, &p, id));
        }
    }

    fn scratch(d: &Design) -> Scratch {
        Scratch {
            xs: Vec::new(),
            ys: Vec::new(),
            window: WindowNets::new(d),
        }
    }

    /// Legal starts from scattered placements: std-cell designs with fixed
    /// macros (rows of several segments) and mixed-size designs with
    /// movable macros.
    fn differential_designs() -> Vec<Design> {
        let mut designs: Vec<Design> = (60..63)
            .map(|seed| GeneratorConfig::small("dd", seed).generate())
            .collect();
        designs.push(GeneratorConfig::ispd2005_like("d5", 64, 900).generate());
        designs.push(GeneratorConfig::ispd2005_like("d5", 65, 1500).generate());
        designs.push(GeneratorConfig::ispd2006_like("d6", 66, 900, 0.8).generate());
        // Cells with several pins on one net, at different offsets.
        let base = GeneratorConfig::small("dm", 67).generate();
        let mut b = complx_netlist::DesignBuilder::from_design(&base);
        let cells = base.movable_cells();
        for (k, pair) in cells.windows(2).step_by(3).enumerate() {
            let w = base.cell(pair[0]).width();
            let pins = vec![
                (pair[0], -0.4 * w, 0.0),
                (pair[0], 0.3 * w, 1.0),
                (pair[1], 0.0, 0.0),
            ];
            b.add_net(format!("multi{k}"), 1.0, pins).unwrap();
        }
        designs.push(b.build().unwrap());
        designs
    }

    fn scatter(d: &Design, salt: u64) -> Placement {
        let core = d.core();
        let mut p = d.initial_placement();
        for (i, &id) in d.movable_cells().iter().enumerate() {
            let k = i as u64 + salt;
            let fx = (k.wrapping_mul(2654435761) % 1000) as f64 / 1000.0;
            let fy = (k.wrapping_mul(40503) % 1000) as f64 / 1000.0;
            p.set_position(
                id,
                Point::new(core.lx + fx * core.width(), core.ly + fy * core.height()),
            );
        }
        p
    }

    fn same_bits(a: &Placement, b: &Placement) -> bool {
        let bits = |p: &Placement| {
            (p.xs().iter().chain(p.ys()))
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        bits(a) == bits(b)
    }

    #[test]
    fn indexed_passes_match_the_rescanning_reference() {
        for (i, d) in differential_designs().iter().enumerate() {
            for start in [d.initial_placement(), scatter(d, i as u64)] {
                let legal = Legalizer::default().legalize(d, &start);
                assert_eq!(legal.failures, 0);
                for placer in [
                    DetailedPlacer::default(),
                    DetailedPlacer {
                        max_passes: 8,
                        min_improvement: 0.0,
                    },
                ] {
                    let new = placer.improve(d, legal.placement.clone(), None);
                    let old = reference::improve(&placer, d, legal.placement.clone());
                    assert!(new.stats.moves > 0, "design {i}: nothing to compare");
                    assert!(same_bits(&new.placement, &old.placement), "design {i}");
                    assert_eq!(new.stats.passes, old.stats.passes, "design {i}");
                    assert_eq!(new.stats.moves, old.stats.moves, "design {i}");
                    assert_eq!(
                        new.stats.hpwl_after.to_bits(),
                        old.stats.hpwl_after.to_bits(),
                        "design {i}"
                    );
                    assert_eq!(
                        new.stats.hpwl_before.to_bits(),
                        old.stats.hpwl_before.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn find_gap_matches_the_scanning_reference() {
        for (i, d) in differential_designs().iter().enumerate() {
            let legal = Legalizer::default()
                .legalize(d, &scatter(d, i as u64))
                .placement;
            let state = RowState::new(d, &legal);
            let old = reference::RowState::new(d, &legal);
            let core = d.core();
            for r in 0..state.cells.len() {
                // Query points on a grid, at cell edges and centers (exact
                // ties between gaps), and widths from a sliver to wider than
                // most gaps.
                let grid = (0..=40).map(|k| core.lx + core.width() * f64::from(k) / 40.0);
                let edges = state.cells[r].iter().flat_map(|c| [c.lo(), c.x, c.hi()]);
                for x in grid.chain(edges) {
                    for w in [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0] {
                        assert_eq!(
                            state.find_gap(r, x, w),
                            reference::find_gap(&old, &legal, r, x, w),
                            "design {i}, row {r}, x {x}, w {w}"
                        );
                    }
                }
            }
        }
    }

    /// The indexes agree with a rebuild from scratch: rows sorted by x and
    /// holding the placement's x, every slot index, and every block's gap
    /// bound.
    fn assert_indexes_current(state: &RowState<'_>, placement: &Placement, when: &str) {
        let fresh = RowState::new(state.design, placement);
        for (r, row) in state.cells.iter().enumerate() {
            assert!(
                row.windows(2).all(|w| w[0].x <= w[1].x),
                "row {r} unsorted {when}"
            );
            for (k, c) in row.iter().enumerate() {
                assert_eq!(
                    c.x.to_bits(),
                    placement.position(c.id).x.to_bits(),
                    "{when}"
                );
                assert_eq!(c.w, state.design.cell(c.id).width(), "{when}");
                assert_eq!(state.slot_of[c.id.index()], k, "{when}");
                assert_eq!(state.row_of[c.id.index()], r, "{when}");
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&state.widest[r]),
                bits(&fresh.widest[r]),
                "row {r} {when}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Every pass keeps every row x-sorted and every index current.
        #[test]
        fn rows_stay_sorted_after_each_pass(seed in 0u64..1000, mixed in 0u8..2) {
            let d = if mixed == 1 {
                GeneratorConfig::ispd2006_like("ps", seed, 400, 0.8).generate()
            } else {
                GeneratorConfig::ispd2005_like("ps", seed, 400).generate()
            };
            let legal = Legalizer::default().legalize(&d, &scatter(&d, seed)).placement;
            let mut state = RowState::new(&d, &legal);
            let mut scratch = scratch(&d);
            let mut tracker = HpwlTracker::new(&d, legal);
            for pass in 0..3 {
                global_swap_pass(&mut state, &mut tracker, &mut scratch);
                assert_indexes_current(&state, tracker.placement(), &format!("after global swap {pass}"));
                vertical_swap_pass(&mut state, &mut tracker, &mut scratch);
                assert_indexes_current(&state, tracker.placement(), &format!("after vertical swap {pass}"));
                local_reorder_pass(&mut state, &mut tracker, &mut scratch.window);
                assert_indexes_current(&state, tracker.placement(), &format!("after reorder {pass}"));
            }
        }
    }
}
