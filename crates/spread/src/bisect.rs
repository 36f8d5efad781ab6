//! Top-down geometric partitioning with order-preserving 1-D spreading —
//! the inner loop of `P_C` (paper Sections 5 and S2).
//!
//! A region is recursively cut perpendicular to its longer side at a
//! *capacity median* (the bin boundary where free capacity halves, so fixed
//! obstacles shift the cut). Items, in order along the cut axis, are
//! assigned to the two sides in order, splitting their total area in
//! proportion to the sides' free capacities — this preserves the relative
//! order of cells, which Section S2 uses to argue convexity of the
//! per-pass subproblem. Small leaves finish with cumulative-area 1-D
//! spreading in x and y.
//!
//! # Orders without per-level sorts
//!
//! Only leaves move items, so every order the recursion uses is an order
//! of the original coordinates. Ties on the cut axis go to the axis an
//! ancestor cut on (the order a stable sort at every level would leave),
//! then to the original index. A node cutting in x therefore reads its
//! items by `(x, i)`, or by `(x, y, i)` once an ancestor has cut in y; in
//! y likewise. [`spread_in_rect`] sorts the four orders `(x, i)`,
//! `(y, i)`, `(x, y, i)` and `(y, x, i)` once, and every cut partitions
//! each order its subtree still reads stably into the two halves, in
//! O(items) per level.

use complx_netlist::Rect;

use crate::capacity::CapacityMap;
use crate::items::Item;

/// A cut whose halves both hold at least this many items spreads them
/// concurrently: the left half on the pool, the right half on the caller.
/// The halves own disjoint items and run the same arithmetic in the same
/// order either way, so the gate (problem size only) is purely a
/// dispatch-overhead cutoff.
const PAR_MIN_ITEMS: usize = 512;

/// Deeper nodes spread as leaves.
const MAX_DEPTH: usize = 64;

/// Nodes with at most this many items spread as leaves.
const LEAF_ITEMS: usize = 4;

/// The presorted item orders, by their lexicographic keys (`i` is the
/// item's index in the input slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// `(x, i)`.
    X = 0,
    /// `(y, i)`.
    Y = 1,
    /// `(x, y, i)`.
    Xy = 2,
    /// `(y, x, i)`.
    Yx = 3,
}

/// The axes some ancestor of a node cut on.
#[derive(Debug, Clone, Copy, Default)]
struct Cuts {
    x: bool,
    y: bool,
}

impl Cuts {
    /// The order of a node's items along an axis: ties go to the other
    /// axis once an ancestor has cut on it.
    fn along(self, x_axis: bool) -> Order {
        match (x_axis, x_axis && self.y || !x_axis && self.x) {
            (true, false) => Order::X,
            (true, true) => Order::Xy,
            (false, false) => Order::Y,
            (false, true) => Order::Yx,
        }
    }

    /// Whether a subtree under these cuts still reads `order`.
    fn reads(self, order: Order) -> bool {
        match order {
            Order::X => !self.y,
            Order::Y => !self.x,
            Order::Xy | Order::Yx => true,
        }
    }
}

/// Where a node spreads and how its items arrive.
#[derive(Debug, Clone, Copy)]
struct Frame {
    rect: Rect,
    /// The free capacity of `rect`.
    cap: f64,
    depth: usize,
    cuts: Cuts,
    /// The order the node's items arrived in: its parent's cut order, or
    /// the input order at the root (`None`).
    incoming: Option<Order>,
}

impl Frame {
    /// A child of a node that cut along `by` under `cuts`.
    fn child(self, rect: Rect, cap: f64, cuts: Cuts, by: Order) -> Self {
        Self {
            rect,
            cap,
            depth: self.depth + 1,
            cuts,
            incoming: Some(by),
        }
    }
}

/// What every node reads: the items as given and each order's ranks.
struct Ctx<'a> {
    caps: &'a CapacityMap,
    items: &'a [Item],
    /// `rank[o][i]` is item `i`'s position in order `o`.
    rank: [Vec<u32>; 4],
}

impl Ctx<'_> {
    fn area(&self, i: u32) -> f64 {
        self.items[i as usize].area()
    }
}

/// A node's items: the same index range of each order, and the leaf
/// outputs for that range.
struct Node<'a> {
    orders: [&'a mut [u32]; 4],
    /// `(item, new x)` per item, written by the leaf.
    out_x: &'a mut [(u32, f64)],
    /// `(item, new y)` per item, written by the leaf.
    out_y: &'a mut [(u32, f64)],
}

impl<'a> Node<'a> {
    /// The first `k` positions and the rest.
    fn split_at(self, k: usize) -> (Node<'a>, Node<'a>) {
        let [a, b, c, d] = self.orders.map(|o| o.split_at_mut(k));
        let (xl, xr) = self.out_x.split_at_mut(k);
        let (yl, yr) = self.out_y.split_at_mut(k);
        (
            Node {
                orders: [a.0, b.0, c.0, d.0],
                out_x: xl,
                out_y: yl,
            },
            Node {
                orders: [a.1, b.1, c.1, d.1],
                out_x: xr,
                out_y: yr,
            },
        )
    }
}

/// Per-thread buffers, reused across the nodes one thread spreads.
#[derive(Default)]
struct Scratch {
    /// Partition spill.
    tmp: Vec<u32>,
    /// Running row sums of a y-cut's rect.
    rows: Vec<f64>,
    /// A leaf's slice boundaries and cumulative capacities.
    bounds: Vec<f64>,
    cum: Vec<f64>,
}

/// Spreads `items` inside `rect` so that density is (approximately) evened
/// out, preserving per-axis relative order. Positions are updated in place.
///
/// `rect` should have enough free capacity for the items (the region
/// expansion in [`crate::cluster`] guarantees this); if it does not, items
/// are still spread as evenly as the space allows.
pub fn spread_in_rect(caps: &CapacityMap, items: &mut [Item], rect: Rect) {
    if items.is_empty() {
        return;
    }
    let n = items.len();
    let (x, xy) = sorted_orders(items, |it| it.x, |it| it.y);
    let (y, yx) = sorted_orders(items, |it| it.y, |it| it.x);
    let mut orders = [x, y, xy, yx];
    let rank = orders.each_ref().map(|order| {
        let mut rank = vec![0u32; n];
        for (p, &i) in order.iter().enumerate() {
            rank[i as usize] = p as u32;
        }
        rank
    });
    let mut out_x = vec![(0u32, 0.0f64); n];
    let mut out_y = vec![(0u32, 0.0f64); n];
    let ctx = Ctx { caps, items, rank };
    let [a, b, c, d] = &mut orders;
    let node = Node {
        orders: [a, b, c, d],
        out_x: &mut out_x,
        out_y: &mut out_y,
    };
    let root = Frame {
        rect,
        cap: caps.free_in_rect(&rect),
        depth: 0,
        cuts: Cuts::default(),
        incoming: None,
    };
    recurse(&ctx, node, root, &mut Scratch::default());
    for (i, x) in out_x {
        items[i as usize].x = x;
    }
    for (i, y) in out_y {
        items[i as usize].y = y;
    }
}

/// `f64::total_cmp`'s order as an integer key.
fn total_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ ((((bits >> 63) as u64) >> 1) as i64)
}

/// The orders `(a, i)` and `(a, b, i)` of `items` for the coordinates `a`
/// and `b`, under `f64::total_cmp`. Coordinates rarely tie, so the second
/// order re-sorts only the runs of equal `a` of the first.
fn sorted_orders(
    items: &[Item],
    a: impl Fn(&Item) -> f64,
    b: impl Fn(&Item) -> f64,
) -> (Vec<u32>, Vec<u32>) {
    let mut keyed: Vec<(i64, u32)> = items
        .iter()
        .zip(0..)
        .map(|(it, i)| (total_key(a(it)), i))
        .collect();
    keyed.sort_unstable();
    let first = keyed.iter().map(|&(_, i)| i).collect();
    let mut second = Vec::with_capacity(items.len());
    let mut run = Vec::new();
    for ties in keyed.chunk_by(|p, q| p.0 == q.0) {
        if let [(_, i)] = ties {
            second.push(*i);
            continue;
        }
        run.clear();
        run.extend(
            ties.iter()
                .map(|&(_, i)| (total_key(b(&items[i as usize])), i)),
        );
        run.sort_unstable();
        second.extend(run.iter().map(|&(_, i)| i));
    }
    (first, second)
}

/// Spreads one node's items inside `frame.rect`.
fn recurse(ctx: &Ctx<'_>, node: Node<'_>, frame: Frame, scratch: &mut Scratch) {
    let caps = ctx.caps;
    let Frame {
        rect, cap, cuts, ..
    } = frame;
    let n = node.out_x.len();
    if n <= LEAF_ITEMS
        || frame.depth >= MAX_DEPTH
        || (rect.width() <= caps.bin_width() * 1.001 && rect.height() <= caps.bin_height() * 1.001)
    {
        leaf_spread(ctx, node, frame, scratch);
        return;
    }

    // Cut perpendicular to the longer side.
    let cut_x = rect.width() >= rect.height();
    let Some((left_rect, right_rect, cap_left)) =
        median_cut(caps, rect, cap, cut_x, &mut scratch.rows)
    else {
        leaf_spread(ctx, node, frame, scratch);
        return;
    };
    let cap_right = caps.free_in_rect(&right_rect);
    let cap_total = cap_left + cap_right;
    if cap_total <= 0.0 {
        leaf_spread(ctx, node, frame, scratch);
        return;
    }

    // The items along the cut axis.
    let by = cuts.along(cut_x);
    let cuts = Cuts {
        x: cuts.x || cut_x,
        y: cuts.y || !cut_x,
    };
    let sorted: &[u32] = node.orders[by as usize];

    // Split the sorted items so area proportion matches capacity proportion.
    let total_area: f64 = sorted.iter().map(|&i| ctx.area(i)).sum();
    let target_left = total_area * cap_left / cap_total;
    let mut acc = 0.0;
    let mut k = 0;
    while k < n {
        let a = ctx.area(sorted[k]);
        if acc + 0.5 * a > target_left {
            break;
        }
        acc += a;
        k += 1;
    }
    // Keep both sides non-empty when possible so recursion always shrinks.
    if k == 0 && cap_left > 0.0 && n > 1 {
        k = 1;
    }
    if k == n && cap_right > 0.0 && n > 1 {
        k = n - 1;
    }
    if k == 0 || k == n {
        // One side has no capacity at all: shrink the rect to the side
        // with capacity and try again.
        let (target, cap) = if k == 0 {
            (right_rect, cap_right)
        } else {
            (left_rect, cap_left)
        };
        recurse(ctx, node, frame.child(target, cap, cuts, by), scratch);
        return;
    }

    // The first `k` items of the cut order go left; every other order the
    // subtrees read is partitioned stably to match.
    let rank = &ctx.rank[by as usize];
    let pivot = rank[sorted[k] as usize];
    for o in [Order::X, Order::Y, Order::Xy, Order::Yx] {
        if o != by && cuts.reads(o) {
            partition(
                node.orders[o as usize],
                |i| rank[i as usize] < pivot,
                &mut scratch.tmp,
            );
        }
    }
    let (left, right) = node.split_at(k);
    let left_frame = frame.child(left_rect, cap_left, cuts, by);
    let right_frame = frame.child(right_rect, cap_right, cuts, by);
    if k >= PAR_MIN_ITEMS && n - k >= PAR_MIN_ITEMS && complx_par::threads() > 1 {
        let car = complx_obs::carrier();
        complx_par::scope(|s| {
            s.spawn(|| {
                let _attached = car.attach();
                let _sp = complx_obs::span("chunks");
                let mut scratch = Scratch::default();
                recurse(ctx, left, left_frame, &mut scratch);
            });
            recurse(ctx, right, right_frame, scratch);
        });
    } else {
        recurse(ctx, left, left_frame, scratch);
        recurse(ctx, right, right_frame, scratch);
    }
}

/// Moves the entries of `order` that satisfy `left` to its front, keeping
/// the relative order on both sides.
fn partition(order: &mut [u32], left: impl Fn(u32) -> bool, tmp: &mut Vec<u32>) {
    tmp.clear();
    let mut w = 0;
    for r in 0..order.len() {
        let i = order[r];
        if left(i) {
            order[w] = i;
            w += 1;
        } else {
            tmp.push(i);
        }
    }
    order[w..].copy_from_slice(tmp);
}

/// Cuts `rect` (free capacity `total`) at the bin boundary where free
/// capacity is halved; falls back to the geometric middle when the rect
/// spans fewer than two bins on the cut axis. Returns the two sides and
/// the left side's free capacity, or `None` for degenerate rects.
///
/// In y, every candidate left side's row-major sum is a prefix of the
/// rect's own, so one pass over the rect evaluates them all.
fn median_cut(
    caps: &CapacityMap,
    rect: Rect,
    total: f64,
    cut_x: bool,
    rows: &mut Vec<f64>,
) -> Option<(Rect, Rect, f64)> {
    let (lo, hi) = if cut_x {
        (rect.lx, rect.hx)
    } else {
        (rect.ly, rect.hy)
    };
    if hi - lo <= 0.0 {
        return None;
    }
    let bin = if cut_x {
        caps.bin_width()
    } else {
        caps.bin_height()
    };
    let origin = if cut_x {
        caps.core().lx
    } else {
        caps.core().ly
    };
    let sides = |c: f64| {
        if cut_x {
            (
                Rect::new(rect.lx, rect.ly, c, rect.hy),
                Rect::new(c, rect.ly, rect.hx, rect.hy),
            )
        } else {
            (
                Rect::new(rect.lx, rect.ly, rect.hx, c),
                Rect::new(rect.lx, c, rect.hx, rect.hy),
            )
        }
    };

    // Candidate bin boundaries strictly inside (lo, hi). The coordinate
    // never decreases in `b`, so the candidates are one index range.
    let coord = |b: i64| origin + b as f64 * bin;
    let first = ((lo - origin) / bin).floor() as i64 + 1;
    let last = ((hi - origin) / bin).ceil() as i64 - 1;
    let first = lower_bound(first, last + 1, |b| coord(b) <= lo + 1e-9);
    let end = lower_bound(first, last + 1, |b| coord(b) < hi - 1e-9);
    let (cut, cap_left) = if first < end {
        let mut row0 = 0;
        if !cut_x {
            rows.clear();
            caps.free_in_rect_by_rows(&rect, |iy, running| {
                row0 = iy - rows.len();
                rows.push(running);
            });
        }
        // Free capacity left of boundary `b`: in y, the rows below `b`
        // (none for a rect outside the core).
        let left_free = |b: i64| match usize::try_from(b - row0 as i64) {
            _ if cut_x => caps.free_in_rect(&sides(coord(b)).0),
            Ok(k) if k > 0 && !rows.is_empty() => rows[k.min(rows.len()) - 1],
            _ => 0.0,
        };
        let excess = |b: i64| left_free(b) - 0.5 * total;
        // Bin capacities are ≥ 0 and rounding is monotone, so `excess`
        // never decreases in `b`: the imbalance |excess| falls, then rises.
        // The cut is the first boundary of least imbalance — the last
        // deficit's first occurrence or the first surplus, whichever is
        // smaller (ties go to the earlier one).
        let surplus = lower_bound(first, end, |b| excess(b) < 0.0);
        let deficit = (surplus > first).then(|| {
            let e = excess(surplus - 1);
            (lower_bound(first, surplus, |b| excess(b) < e), e.abs())
        });
        let best = match deficit {
            Some((b, imbalance)) if surplus == end || imbalance <= excess(surplus).abs() => b,
            _ => surplus,
        };
        (coord(best), left_free(best))
    } else {
        let c = 0.5 * (lo + hi);
        (c, caps.free_in_rect(&sides(c).0))
    };
    let (left, right) = sides(cut);
    debug_assert_eq!(cap_left.to_bits(), caps.free_in_rect(&left).to_bits());
    Some((left, right, cap_left))
}

/// The first `b` in `lo..hi` for which `pred` is false, or `hi`; `pred`
/// must hold on a prefix of the range.
fn lower_bound(mut lo: i64, mut hi: i64, pred: impl Fn(i64) -> bool) -> i64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Order-preserving, capacity-weighted 1-D spreading of a leaf: along each
/// axis independently, items keep their sorted order and receive positions
/// such that cumulative item area tracks cumulative *free capacity* -- so
/// blocked slices of the leaf receive no items. This is the piecewise-linear
/// scaling of SimPL's one-dimensional spreading (paper Section S2).
///
/// Item area is totalled in the order the items arrived in.
fn leaf_spread(ctx: &Ctx<'_>, node: Node<'_>, frame: Frame, scratch: &mut Scratch) {
    let caps = ctx.caps;
    let Frame {
        rect,
        cap,
        mut cuts,
        incoming,
        ..
    } = frame;
    let Node {
        orders,
        out_x,
        out_y,
    } = node;
    if out_x.is_empty() {
        return;
    }
    let total_area: f64 = match incoming {
        Some(o) => orders[o as usize].iter().map(|&i| ctx.area(i)).sum(),
        None => (0..out_x.len() as u32).map(|i| ctx.area(i)).sum(),
    };
    if total_area <= 0.0 || cap <= 0.0 {
        let center = (0.5 * (rect.lx + rect.hx), 0.5 * (rect.ly + rect.hy));
        for ((ox, oy), &i) in out_x
            .iter_mut()
            .zip(out_y.iter_mut())
            .zip(&*orders[Order::Xy as usize])
        {
            *ox = (i, center.0);
            *oy = (i, center.1);
        }
        return;
    }
    for pass_x in [true, false] {
        let order: &[u32] = orders[cuts.along(pass_x) as usize];
        let out = if pass_x { &mut *out_x } else { &mut *out_y };
        let coord = |i: u32| {
            let it = &ctx.items[i as usize];
            if pass_x {
                it.x
            } else {
                it.y
            }
        };
        // Slice boundaries: bin grid lines intersected with the rect.
        let (lo, hi, bin, origin) = if pass_x {
            (rect.lx, rect.hx, caps.bin_width(), caps.core().lx)
        } else {
            (rect.ly, rect.hy, caps.bin_height(), caps.core().ly)
        };
        let Scratch { bounds, cum, .. } = &mut *scratch;
        bounds.clear();
        bounds.push(lo);
        let first = ((lo - origin) / bin).floor() as i64 + 1;
        let last = ((hi - origin) / bin).ceil() as i64 - 1;
        for b in first..=last {
            let c = origin + b as f64 * bin;
            if c > lo + 1e-12 && c < hi - 1e-12 {
                bounds.push(c);
            }
        }
        bounds.push(hi);
        // Cumulative free capacity over the slices.
        cum.clear();
        cum.push(0.0);
        let mut running = 0.0f64;
        for w in bounds.windows(2) {
            let slice = if pass_x {
                Rect::new(w[0], rect.ly, w[1], rect.hy)
            } else {
                Rect::new(rect.lx, w[0], rect.hx, w[1])
            };
            running += caps.free_in_rect(&slice);
            cum.push(running);
        }
        let total_cap = running;
        if total_cap <= 0.0 {
            for (o, &i) in out.iter_mut().zip(order) {
                *o = (i, coord(i));
            }
            continue;
        }
        // Once the x pass has ordered the items, y ties go to x.
        cuts.x |= pass_x;
        let mut acc = 0.0;
        for (o, &i) in out.iter_mut().zip(order) {
            let a = ctx.area(i);
            let target_cap = (acc + 0.5 * a) / total_area * total_cap;
            acc += a;
            // Invert the piecewise-linear cumulative capacity.
            let k = cum
                .windows(2)
                .position(|w| target_cap <= w[1] + 1e-12)
                .unwrap_or(bounds.len() - 2);
            let seg_cap = cum[k + 1] - cum[k];
            let frac = if seg_cap > 0.0 {
                ((target_cap - cum[k]) / seg_cap).clamp(0.0, 1.0)
            } else {
                0.5
            };
            *o = (i, bounds[k] + frac * (bounds[k + 1] - bounds[k]));
        }
    }
}

#[cfg(test)]
fn capacity_median_cut(caps: &CapacityMap, rect: Rect, cut_x: bool) -> Option<(Rect, Rect)> {
    let total = caps.free_in_rect(&rect);
    median_cut(caps, rect, total, cut_x, &mut Vec::new()).map(|(left, right, _)| (left, right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::{CellKind, DesignBuilder, Point};

    fn open_caps(side: f64, bins: usize) -> CapacityMap {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, side, side), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("b", 1.0, 1.0, CellKind::Movable).unwrap();
        b.add_net("n", 1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .unwrap();
        CapacityMap::new(&b.build().unwrap(), bins, bins)
    }

    fn stacked_items(n: usize, at: (f64, f64), area: f64) -> Vec<Item> {
        (0..n)
            .map(|i| Item {
                x: at.0 + (i as f64) * 1e-7, // deterministic tie-break order
                y: at.1 + (i as f64) * 1e-7,
                width: area.sqrt(),
                height: area.sqrt(),
                owner: i as u32,
            })
            .collect()
    }

    #[test]
    fn spreading_reduces_max_bin_density() {
        let caps = open_caps(32.0, 16);
        let mut items = stacked_items(64, (16.0, 16.0), 2.0);
        let rect = caps.core();
        spread_in_rect(&caps, &mut items, rect);
        // Count usage per bin.
        let mut usage = vec![0.0; 16 * 16];
        for it in &items {
            let (ix, iy) = caps.bin_of(it.x, it.y);
            usage[iy * 16 + ix] += it.area();
        }
        let max = usage.iter().cloned().fold(0.0f64, f64::max);
        let bin_area = caps.bin_width() * caps.bin_height();
        assert!(
            max <= 2.5 * bin_area,
            "max bin usage {max} vs bin area {bin_area}"
        );
    }

    #[test]
    fn items_stay_in_rect() {
        let caps = open_caps(20.0, 10);
        let mut items = stacked_items(30, (3.0, 17.0), 1.0);
        let rect = Rect::new(0.0, 10.0, 10.0, 20.0);
        spread_in_rect(&caps, &mut items, rect);
        for it in &items {
            assert!(rect.contains(Point::new(it.x, it.y)), "{it:?}");
        }
    }

    #[test]
    fn order_preserved_in_leaf() {
        let caps = open_caps(8.0, 2);
        let mut items: Vec<Item> = (0..4)
            .map(|i| Item {
                x: i as f64,
                y: 3.0 - i as f64,
                width: 1.0,
                height: 1.0,
                owner: i,
            })
            .collect();
        let rect = caps.core();
        spread_in_rect(&caps, &mut items, rect);
        // x order must still be 0 < 1 < 2 < 3; y order reversed.
        for i in 0..3 {
            assert!(items[i].x < items[i + 1].x);
            assert!(items[i].y > items[i + 1].y);
        }
    }

    #[test]
    fn obstacle_shifts_cut() {
        // Left half fully blocked: all items must end up on the right.
        let mut b = DesignBuilder::new("o", Rect::new(0.0, 0.0, 10.0, 10.0), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let f = b
            .add_fixed_cell("f", 5.0, 10.0, CellKind::Fixed, Point::new(2.5, 5.0))
            .unwrap();
        b.add_net("n", 1.0, vec![(a, 0.0, 0.0), (f, 0.0, 0.0)])
            .unwrap();
        let caps = CapacityMap::new(&b.build().unwrap(), 10, 10);
        let mut items = stacked_items(10, (1.0, 5.0), 2.0);
        spread_in_rect(&caps, &mut items, caps.core());
        for it in &items {
            assert!(it.x > 5.0, "item in blocked half: {it:?}");
        }
    }

    #[test]
    fn empty_and_single_item_cases() {
        let caps = open_caps(4.0, 2);
        let mut none: Vec<Item> = vec![];
        spread_in_rect(&caps, &mut none, caps.core());
        let mut one = stacked_items(1, (1.0, 1.0), 1.0);
        spread_in_rect(&caps, &mut one, caps.core());
        assert!(caps.core().contains(Point::new(one[0].x, one[0].y)));
    }

    /// The linear scan the bisection replaced, kept as the reference: one
    /// `free_in_rect` per candidate boundary, first least imbalance wins.
    fn scan_median_cut(caps: &CapacityMap, rect: Rect, cut_x: bool) -> Option<Rect> {
        let (lo, hi, bin, origin) = if cut_x {
            (rect.lx, rect.hx, caps.bin_width(), caps.core().lx)
        } else {
            (rect.ly, rect.hy, caps.bin_height(), caps.core().ly)
        };
        if hi - lo <= 0.0 {
            return None;
        }
        let first = ((lo - origin) / bin).floor() as i64 + 1;
        let last = ((hi - origin) / bin).ceil() as i64 - 1;
        let total = caps.free_in_rect(&rect);
        let mut best: Option<(f64, f64)> = None;
        for b in first..=last {
            let c = origin + b as f64 * bin;
            if c <= lo + 1e-9 || c >= hi - 1e-9 {
                continue;
            }
            let left = if cut_x {
                Rect::new(rect.lx, rect.ly, c, rect.hy)
            } else {
                Rect::new(rect.lx, rect.ly, rect.hx, c)
            };
            let imbalance = (caps.free_in_rect(&left) - 0.5 * total).abs();
            if best.is_none_or(|(bi, _)| imbalance < bi) {
                best = Some((imbalance, c));
            }
        }
        let cut = best.map(|(_, c)| c).unwrap_or(0.5 * (lo + hi));
        Some(if cut_x {
            Rect::new(rect.lx, rect.ly, cut, rect.hy)
        } else {
            Rect::new(rect.lx, rect.ly, rect.hx, cut)
        })
    }

    /// A 40 × 40 core on a `bins`² grid (fractional bin edges unless
    /// `bins` divides 40) with random obstacles plus whole blocked columns
    /// and rows, whose zero capacity makes plateaus in the cut's excess.
    fn obstacle_caps(
        bins: usize,
        obstacles: &[(f64, f64, f64, f64)],
        blocked_cols: &[usize],
        blocked_rows: &[usize],
    ) -> CapacityMap {
        let side = 40.0;
        let pitch = side / bins as f64;
        let mut b = DesignBuilder::new("cut", Rect::new(0.0, 0.0, side, side), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("b", 1.0, 1.0, CellKind::Movable).unwrap();
        b.add_net("n", 1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .unwrap();
        let mut fixed = Vec::new();
        for &(x, y, w, h) in obstacles {
            fixed.push((w, h, Point::new(x, y)));
        }
        for &j in blocked_cols {
            let x = (j % bins) as f64 * pitch + 0.5 * pitch;
            fixed.push((pitch, side, Point::new(x, 0.5 * side)));
        }
        for &j in blocked_rows {
            let y = (j % bins) as f64 * pitch + 0.5 * pitch;
            fixed.push((side, pitch, Point::new(0.5 * side, y)));
        }
        for (k, (w, h, at)) in fixed.into_iter().enumerate() {
            b.add_fixed_cell(format!("f{k}"), w, h, CellKind::Fixed, at)
                .unwrap();
        }
        CapacityMap::new(&b.build().unwrap(), bins, bins)
    }

    proptest::proptest! {
        #[test]
        fn median_cut_matches_the_linear_scan(
            bins in 1usize..24,
            obstacles in proptest::collection::vec(
                (0.0f64..40.0, 0.0f64..40.0, 0.3f64..18.0, 0.3f64..18.0), 0..5),
            blocked_cols in proptest::collection::vec(0usize..24, 0..8),
            blocked_rows in proptest::collection::vec(0usize..24, 0..8),
            (x0, x1, y0, y1) in (-2.0f64..42.0, -2.0f64..42.0, -2.0f64..42.0, -2.0f64..42.0),
            snap in 0u8..2,
            cut_x in 0u8..2,
        ) {
            let (snap, cut_x) = (snap == 1, cut_x == 1);
            let caps = obstacle_caps(bins, &obstacles, &blocked_cols, &blocked_rows);
            // Half the cases use bin-aligned edges, the rest fractional ones.
            let pitch = 40.0 / bins as f64;
            let edge = |v: f64| if snap { (v / pitch).round() * pitch } else { v };
            let rect = Rect::new(
                edge(x0.min(x1)),
                edge(y0.min(y1)),
                edge(x0.max(x1)),
                edge(y0.max(y1)),
            );
            let got = capacity_median_cut(&caps, rect, cut_x).map(|(left, _)| left);
            let want = scan_median_cut(&caps, rect, cut_x);
            proptest::prop_assert_eq!(got, want);
        }
    }

    /// The index-based recursion the work-slice one replaced, kept as the
    /// reference: it sorts an index array into the shared `items` and
    /// spreads the halves one after the other.
    fn reference_spread(caps: &CapacityMap, items: &mut [Item], rect: Rect) {
        if items.is_empty() {
            return;
        }
        let mut idx: Vec<u32> = (0..items.len() as u32).collect();
        reference_recurse(caps, items, &mut idx, rect, 0);
    }

    fn reference_recurse(
        caps: &CapacityMap,
        items: &mut [Item],
        idx: &mut [u32],
        rect: Rect,
        depth: usize,
    ) {
        if idx.len() <= 4
            || depth >= 64
            || (rect.width() <= caps.bin_width() * 1.001
                && rect.height() <= caps.bin_height() * 1.001)
        {
            reference_leaf(caps, items, idx, rect);
            return;
        }
        let cut_x = rect.width() >= rect.height();
        let Some((left_rect, right_rect)) = capacity_median_cut(caps, rect, cut_x) else {
            reference_leaf(caps, items, idx, rect);
            return;
        };
        let cap_left = caps.free_in_rect(&left_rect);
        let cap_right = caps.free_in_rect(&right_rect);
        let cap_total = cap_left + cap_right;
        if cap_total <= 0.0 {
            reference_leaf(caps, items, idx, rect);
            return;
        }
        if cut_x {
            idx.sort_by(|&a, &b| items[a as usize].x.total_cmp(&items[b as usize].x));
        } else {
            idx.sort_by(|&a, &b| items[a as usize].y.total_cmp(&items[b as usize].y));
        }
        let total_area: f64 = idx.iter().map(|&i| items[i as usize].area()).sum();
        let target_left = total_area * cap_left / cap_total;
        let mut acc = 0.0;
        let mut k = 0;
        while k < idx.len() {
            let a = items[idx[k] as usize].area();
            if acc + 0.5 * a > target_left {
                break;
            }
            acc += a;
            k += 1;
        }
        if k == 0 && cap_left > 0.0 && idx.len() > 1 {
            k = 1;
        }
        if k == idx.len() && cap_right > 0.0 && idx.len() > 1 {
            k = idx.len() - 1;
        }
        if k == 0 || k == idx.len() {
            let target = if k == 0 { right_rect } else { left_rect };
            reference_recurse(caps, items, idx, target, depth + 1);
            return;
        }
        let (left_idx, right_idx) = idx.split_at_mut(k);
        reference_recurse(caps, items, left_idx, left_rect, depth + 1);
        reference_recurse(caps, items, right_idx, right_rect, depth + 1);
    }

    fn reference_leaf(caps: &CapacityMap, items: &mut [Item], idx: &mut [u32], rect: Rect) {
        if idx.is_empty() {
            return;
        }
        let total_area: f64 = idx.iter().map(|&i| items[i as usize].area()).sum();
        if total_area <= 0.0 || caps.free_in_rect(&rect) <= 0.0 {
            for &i in idx.iter() {
                let it = &mut items[i as usize];
                it.x = 0.5 * (rect.lx + rect.hx);
                it.y = 0.5 * (rect.ly + rect.hy);
            }
            return;
        }
        for pass_x in [true, false] {
            let (lo, hi, bin, origin) = if pass_x {
                (rect.lx, rect.hx, caps.bin_width(), caps.core().lx)
            } else {
                (rect.ly, rect.hy, caps.bin_height(), caps.core().ly)
            };
            let mut bounds = vec![lo];
            let first = ((lo - origin) / bin).floor() as i64 + 1;
            let last = ((hi - origin) / bin).ceil() as i64 - 1;
            for b in first..=last {
                let c = origin + b as f64 * bin;
                if c > lo + 1e-12 && c < hi - 1e-12 {
                    bounds.push(c);
                }
            }
            bounds.push(hi);
            let mut cum = vec![0.0f64];
            let mut running = 0.0f64;
            for w in bounds.windows(2) {
                let slice = if pass_x {
                    Rect::new(w[0], rect.ly, w[1], rect.hy)
                } else {
                    Rect::new(rect.lx, w[0], rect.hx, w[1])
                };
                running += caps.free_in_rect(&slice);
                cum.push(running);
            }
            let total_cap = running;
            if total_cap <= 0.0 {
                continue;
            }
            idx.sort_by(|&a, &b| {
                let (ca, cb) = if pass_x {
                    (items[a as usize].x, items[b as usize].x)
                } else {
                    (items[a as usize].y, items[b as usize].y)
                };
                ca.total_cmp(&cb)
            });
            let mut acc = 0.0;
            for &i in idx.iter() {
                let it = &mut items[i as usize];
                let a = it.area();
                let target_cap = (acc + 0.5 * a) / total_area * total_cap;
                acc += a;
                let k = cum
                    .windows(2)
                    .position(|w| target_cap <= w[1] + 1e-12)
                    .unwrap_or(bounds.len() - 2);
                let seg_cap = cum[k + 1] - cum[k];
                let frac = if seg_cap > 0.0 {
                    ((target_cap - cum[k]) / seg_cap).clamp(0.0, 1.0)
                } else {
                    0.5
                };
                let pos = bounds[k] + frac * (bounds[k + 1] - bounds[k]);
                if pass_x {
                    it.x = pos;
                } else {
                    it.y = pos;
                }
            }
        }
    }

    /// Items on a `grid`-pitch lattice (coarse pitches give duplicate
    /// coordinates, so stable-sort ties decide the order), with assorted
    /// areas, inside a rect of the 40 × 40 core.
    fn lattice_items(seeds: &[(u16, u16, u8)], grid: f64, rect: Rect) -> Vec<Item> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &(px, py, size))| {
                let fx = f64::from(px) / f64::from(u16::MAX);
                let fy = f64::from(py) / f64::from(u16::MAX);
                let snap = |v: f64| (v / grid).floor() * grid;
                let side = 0.1 + 0.05 * f64::from(size % 8);
                Item {
                    x: snap(rect.lx + fx * rect.width()),
                    y: snap(rect.ly + fy * rect.height()),
                    width: side,
                    height: side * (1.0 + f64::from(size / 8) * 0.25),
                    owner: i as u32,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn spread_matches_the_index_reference_at_any_thread_count(
            bins in 2usize..24,
            obstacles in proptest::collection::vec(
                (0.0f64..40.0, 0.0f64..40.0, 0.3f64..12.0, 0.3f64..12.0), 0..4),
            seeds in proptest::collection::vec((0u16..=u16::MAX, 0u16..=u16::MAX, 0u8..32), 0..2600),
            grid in 0usize..3,
            (x0, x1, y0, y1) in (0.0f64..12.0, 28.0f64..40.0, 0.0f64..12.0, 28.0f64..40.0),
        ) {
            let caps = obstacle_caps(bins, &obstacles, &[], &[]);
            let rect = Rect::new(x0, y0, x1, y1);
            let items = lattice_items(&seeds, [0.001, 0.5, 4.0][grid], rect);
            let mut want = items.clone();
            reference_spread(&caps, &mut want, rect);
            for t in [1, 2, 8] {
                let _g = complx_par::with_threads(t);
                let mut got = items.clone();
                spread_in_rect(&caps, &mut got, rect);
                for (g, w) in got.iter().zip(&want) {
                    proptest::prop_assert_eq!(g.x.to_bits(), w.x.to_bits(), "x at {} threads", t);
                    proptest::prop_assert_eq!(g.y.to_bits(), w.y.to_bits(), "y at {} threads", t);
                    proptest::prop_assert_eq!(g.owner, w.owner);
                }
            }
        }
    }

    #[test]
    fn items_on_one_point_match_the_index_reference_at_any_thread_count() {
        // Every item shares one x and one y, so each cut and each leaf
        // orders them by index alone, through all four presorted orders.
        // 1,500 items fork the first cuts at 2 and 8 threads.
        let caps = obstacle_caps(16, &[(10.0, 30.0, 6.0, 4.0)], &[], &[]);
        let rect = Rect::new(2.0, 3.0, 38.0, 37.0);
        let items: Vec<Item> = (0..1500)
            .map(|i| Item {
                x: 21.0,
                y: 17.5,
                width: 0.2 + 0.05 * (i % 7) as f64,
                height: 0.3 + 0.1 * (i % 3) as f64,
                owner: i as u32,
            })
            .collect();
        let mut want = items.clone();
        reference_spread(&caps, &mut want, rect);
        for t in [1, 2, 8] {
            let _g = complx_par::with_threads(t);
            let mut got = items.clone();
            spread_in_rect(&caps, &mut got, rect);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    g.x.to_bits(),
                    w.x.to_bits(),
                    "x of {} at {t} threads",
                    w.owner
                );
                assert_eq!(
                    g.y.to_bits(),
                    w.y.to_bits(),
                    "y of {} at {t} threads",
                    w.owner
                );
            }
        }
    }

    #[test]
    fn forked_halves_report_under_the_spawning_region() {
        // Two regions as pool jobs, each large enough for its bisection to
        // fork: the forked halves are jobs spawned by jobs.
        let caps = open_caps(64.0, 32);
        let run = || {
            complx_obs::install(Vec::new());
            {
                let _g = complx_par::with_threads(4);
                let _p = complx_obs::span("projection");
                let car = complx_obs::carrier();
                complx_par::par_map(2, |r| {
                    let _attached = car.attach();
                    let _sp = complx_obs::span("chunks");
                    let x0 = 32.0 * r as f64;
                    let mut items = stacked_items(1500, (x0 + 16.0, 32.0), 0.5);
                    spread_in_rect(&caps, &mut items, Rect::new(x0, 0.0, x0 + 32.0, 64.0));
                });
            }
            complx_obs::harvest().expect("installed")
        };
        let h = run();
        assert_eq!(h.phase("projection/chunks").map(|p| p.count), Some(2));
        let forks: Vec<(String, u64)> = h
            .phases
            .iter()
            .filter(|p| p.path.starts_with("projection/chunks/"))
            .map(|p| (p.path.clone(), p.count))
            .collect();
        assert!(forks
            .iter()
            .any(|(path, n)| path == "projection/chunks/chunks" && *n >= 2));
        for (path, _) in &forks {
            assert!(path.split('/').skip(1).all(|s| s == "chunks"), "{path}");
        }
        // Which thread runs a half never moves it in the phase tree.
        let again = run();
        let forks_again: Vec<(String, u64)> = again
            .phases
            .iter()
            .filter(|p| p.path.starts_with("projection/chunks/"))
            .map(|p| (p.path.clone(), p.count))
            .collect();
        assert_eq!(forks, forks_again);
    }

    #[test]
    fn spread_is_deterministic() {
        let caps = open_caps(32.0, 16);
        let mut a = stacked_items(50, (16.0, 16.0), 1.5);
        let mut b = a.clone();
        spread_in_rect(&caps, &mut a, caps.core());
        spread_in_rect(&caps, &mut b, caps.core());
        assert_eq!(a, b);
    }
}
