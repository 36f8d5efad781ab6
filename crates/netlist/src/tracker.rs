//! Incremental HPWL tracking with transactional moves.
//!
//! Detailed placement and annealing-style refiners evaluate millions of
//! candidate moves; recomputing whole-design HPWL per candidate is
//! prohibitive, and even recomputing all incident nets twice (before/after)
//! doubles the work. [`HpwlTracker`] owns a working placement, caches every
//! net's bounding box and the weighted total, and exposes a
//! begin/move/commit-or-rollback protocol so a candidate's cost delta is
//! obtained by updating only the nets the moved cells touch.

use crate::cell::CellId;
use crate::design::Design;
use crate::geom::Point;
use crate::hpwl;
use crate::net::NetId;
use crate::placement::Placement;

type Bbox = (f64, f64, f64, f64);

/// Incremental weighted-HPWL evaluator over an owned working placement.
///
/// # Example
///
/// ```
/// use complx_netlist::{generator::GeneratorConfig, HpwlTracker, Point};
///
/// let design = GeneratorConfig::small("t", 1).generate();
/// let mut tracker = HpwlTracker::new(&design, design.initial_placement());
/// let before = tracker.total();
/// let cell = design.movable_cells()[0];
///
/// tracker.begin();
/// tracker.move_cell(cell, Point::new(1.0, 1.0));
/// if tracker.total() < before {
///     tracker.commit();
/// } else {
///     tracker.rollback();
///     assert_eq!(tracker.total(), before);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct HpwlTracker<'a> {
    design: &'a Design,
    placement: Placement,
    boxes: Vec<Bbox>,
    total: f64,
    /// Open-transaction log: original cell positions (first write wins).
    txn_cells: Vec<(CellId, Point)>,
    /// Open-transaction log: original net boxes (first write wins).
    txn_boxes: Vec<(NetId, Bbox)>,
    txn_total: f64,
    in_txn: bool,
}

impl<'a> HpwlTracker<'a> {
    /// Builds the tracker, computing all net boxes once.
    pub fn new(design: &'a Design, placement: Placement) -> Self {
        assert_eq!(placement.len(), design.num_cells());
        let mut boxes = Vec::with_capacity(design.num_nets());
        let mut total = 0.0;
        for nid in design.net_ids() {
            let b = hpwl::net_bbox(design, &placement, nid);
            total += design.net(nid).weight() * ((b.2 - b.0) + (b.3 - b.1));
            boxes.push(b);
        }
        Self {
            design,
            placement,
            boxes,
            total,
            txn_cells: Vec::new(),
            txn_boxes: Vec::new(),
            txn_total: 0.0,
            in_txn: false,
        }
    }

    /// The current weighted HPWL (reflects uncommitted moves).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The current working placement (reflects uncommitted moves).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The cached bounding box `(lx, ly, hx, hy)` of `net`'s pins — equal
    /// to [`hpwl::net_bbox`] at the working placement (so it reflects
    /// uncommitted moves), read in O(1).
    pub fn net_box(&self, net: NetId) -> (f64, f64, f64, f64) {
        self.boxes[net.index()]
    }

    /// Consumes the tracker, returning the working placement.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is open.
    pub fn into_placement(self) -> Placement {
        assert!(!self.in_txn, "finish the open transaction first");
        self.placement
    }

    /// Opens a transaction; subsequent moves can be undone with
    /// [`HpwlTracker::rollback`].
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin(&mut self) {
        assert!(!self.in_txn, "transactions do not nest");
        self.in_txn = true;
        self.txn_total = self.total;
        self.txn_cells.clear();
        self.txn_boxes.clear();
    }

    /// Moves a cell and incrementally updates the boxes/total of its
    /// incident nets (exact recomputation per net, O(pins of the net)).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn move_cell(&mut self, cell: CellId, to: Point) {
        assert!(self.in_txn, "move_cell requires an open transaction");
        let from = self.placement.position(cell);
        if from == to {
            return;
        }
        if !self.txn_cells.iter().any(|(c, _)| *c == cell) {
            self.txn_cells.push((cell, from));
        }
        self.placement.set_position(cell, to);
        for &nid in self.design.cell_nets(cell) {
            if !self.txn_boxes.iter().any(|(n, _)| *n == nid) {
                self.txn_boxes.push((nid, self.boxes[nid.index()]));
            }
            let old = self.boxes[nid.index()];
            let new = hpwl::net_bbox(self.design, &self.placement, nid);
            let w = self.design.net(nid).weight();
            self.total +=
                w * (((new.2 - new.0) + (new.3 - new.1)) - ((old.2 - old.0) + (old.3 - old.1)));
            self.boxes[nid.index()] = new;
        }
    }

    /// Swaps two cells' positions inside the open transaction.
    pub fn swap_cells(&mut self, a: CellId, b: CellId) {
        let pa = self.placement.position(a);
        let pb = self.placement.position(b);
        self.move_cell(a, pb);
        self.move_cell(b, pa);
    }

    /// Keeps the transaction's moves.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit(&mut self) {
        assert!(self.in_txn, "no open transaction");
        self.in_txn = false;
    }

    /// Reverts every move of the open transaction.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn rollback(&mut self) {
        assert!(self.in_txn, "no open transaction");
        for &(cell, from) in self.txn_cells.iter().rev() {
            self.placement.set_position(cell, from);
        }
        for &(nid, b) in self.txn_boxes.iter().rev() {
            self.boxes[nid.index()] = b;
        }
        self.total = self.txn_total;
        self.in_txn = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorConfig;

    fn setup() -> (Design, Placement) {
        let d = GeneratorConfig::small("trk", 9).generate();
        let p = d.initial_placement();
        (d, p)
    }

    #[test]
    fn initial_total_matches_batch_hpwl() {
        let (d, p) = setup();
        let t = HpwlTracker::new(&d, p.clone());
        let expect = hpwl::weighted_hpwl(&d, &p);
        assert!((t.total() - expect).abs() < 1e-9 * expect.max(1.0));
    }

    #[test]
    fn moves_track_exactly() {
        let (d, p) = setup();
        let mut t = HpwlTracker::new(&d, p);
        let cells: Vec<_> = d.movable_cells().iter().copied().take(20).collect();
        t.begin();
        for (k, &c) in cells.iter().enumerate() {
            t.move_cell(c, Point::new(5.0 + k as f64, 7.0 + (k % 5) as f64));
        }
        t.commit();
        let expect = hpwl::weighted_hpwl(&d, t.placement());
        assert!(
            (t.total() - expect).abs() < 1e-6 * expect.max(1.0),
            "incremental {} vs batch {expect}",
            t.total()
        );
    }

    #[test]
    fn rollback_restores_everything() {
        let (d, p) = setup();
        let mut t = HpwlTracker::new(&d, p.clone());
        let before = t.total();
        t.begin();
        for &c in d.movable_cells().iter().take(10) {
            t.move_cell(c, Point::new(1.0, 1.0));
        }
        assert!(t.total() != before);
        t.rollback();
        assert_eq!(t.total(), before);
        assert_eq!(t.placement(), &p);
        // Boxes are restored too: a fresh move reproduces batch HPWL.
        t.begin();
        let c0 = d.movable_cells()[0];
        t.move_cell(c0, Point::new(2.0, 2.0));
        t.commit();
        let expect = hpwl::weighted_hpwl(&d, t.placement());
        assert!((t.total() - expect).abs() < 1e-6 * expect.max(1.0));
    }

    #[test]
    fn net_boxes_match_batch_boxes_through_moves_commits_and_rollbacks() {
        let (d, p) = setup();
        let mut t = HpwlTracker::new(&d, p);
        let same = |t: &HpwlTracker<'_>| {
            d.net_ids().all(|n| {
                let (a, b) = (t.net_box(n), hpwl::net_bbox(&d, t.placement(), n));
                [a.0, a.1, a.2, a.3].map(f64::to_bits) == [b.0, b.1, b.2, b.3].map(f64::to_bits)
            })
        };
        assert!(same(&t));
        let cells: Vec<_> = d.movable_cells().iter().copied().take(12).collect();
        for (k, &c) in cells.iter().enumerate() {
            t.begin();
            t.move_cell(c, Point::new(3.0 + k as f64, 2.0 + (k % 4) as f64));
            t.swap_cells(c, cells[(k + 5) % cells.len()]);
            assert!(same(&t), "open transaction, step {k}");
            if k % 3 == 0 {
                t.rollback();
            } else {
                t.commit();
            }
            assert!(same(&t), "after step {k}");
        }
    }

    #[test]
    fn swap_is_two_moves() {
        let (d, p) = setup();
        let mut t = HpwlTracker::new(&d, p);
        let a = d.movable_cells()[0];
        let b = d.movable_cells()[1];
        let pa = t.placement().position(a);
        let pb = t.placement().position(b);
        t.begin();
        t.swap_cells(a, b);
        t.commit();
        assert_eq!(t.placement().position(a), pb);
        assert_eq!(t.placement().position(b), pa);
    }

    #[test]
    #[should_panic(expected = "open transaction")]
    fn move_without_txn_panics() {
        let (d, p) = setup();
        let mut t = HpwlTracker::new(&d, p);
        t.move_cell(d.movable_cells()[0], Point::new(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn nested_txn_panics() {
        let (d, p) = setup();
        let mut t = HpwlTracker::new(&d, p);
        t.begin();
        t.begin();
    }

    #[test]
    fn into_placement_returns_working_state() {
        let (d, p) = setup();
        let mut t = HpwlTracker::new(&d, p);
        let c = d.movable_cells()[0];
        t.begin();
        t.move_cell(c, Point::new(3.0, 4.0));
        t.commit();
        let out = t.into_placement();
        assert_eq!(out.position(c), Point::new(3.0, 4.0));
    }
}
