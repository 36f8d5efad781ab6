//! Top-down geometric partitioning with order-preserving 1-D spreading —
//! the inner loop of `P_C` (paper Sections 5 and S2).
//!
//! A region is recursively cut perpendicular to its longer side at a
//! *capacity median* (the bin boundary where free capacity halves, so fixed
//! obstacles shift the cut). Items, sorted along the cut axis, are assigned
//! to the two sides in order, splitting their total area in proportion to
//! the sides' free capacities — this preserves the relative order of cells,
//! which Section S2 uses to argue convexity of the per-pass subproblem.
//! Small leaves finish with cumulative-area 1-D spreading in x and y.

use complx_netlist::Rect;

use crate::capacity::CapacityMap;
use crate::items::Item;

/// A cut whose halves both hold at least this many items spreads them
/// concurrently: the left half on the pool, the right half on the caller.
/// The halves own disjoint items and run the same arithmetic in the same
/// order either way, so the gate (problem size only) is purely a
/// dispatch-overhead cutoff.
const PAR_MIN_ITEMS: usize = 512;

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
    // The recursion sorts and splits one slice of items tagged with their
    // original index; the tags put every item back in its slot at the end.
    let mut work: Vec<(Item, u32)> = items.iter().copied().zip(0..).collect();
    recurse(caps, &mut work, rect, 0);
    for (it, i) in work {
        items[i as usize] = it;
    }
}

fn recurse(caps: &CapacityMap, work: &mut [(Item, u32)], rect: Rect, depth: usize) {
    const MAX_DEPTH: usize = 64;
    const LEAF_ITEMS: usize = 4;
    if work.len() <= LEAF_ITEMS
        || depth >= MAX_DEPTH
        || (rect.width() <= caps.bin_width() * 1.001 && rect.height() <= caps.bin_height() * 1.001)
    {
        leaf_spread(caps, work, rect);
        return;
    }

    // Cut perpendicular to the longer side.
    let cut_x = rect.width() >= rect.height();
    let Some((left_rect, right_rect)) = capacity_median_cut(caps, rect, cut_x) else {
        leaf_spread(caps, work, rect);
        return;
    };
    let cap_left = caps.free_in_rect(&left_rect);
    let cap_right = caps.free_in_rect(&right_rect);
    let cap_total = cap_left + cap_right;
    if cap_total <= 0.0 {
        leaf_spread(caps, work, rect);
        return;
    }

    // Sort along the cut axis (stable to keep determinism on ties).
    if cut_x {
        work.sort_by(|a, b| a.0.x.total_cmp(&b.0.x));
    } else {
        work.sort_by(|a, b| a.0.y.total_cmp(&b.0.y));
    }

    // Split the sorted items so area proportion matches capacity proportion.
    let total_area: f64 = work.iter().map(|(it, _)| it.area()).sum();
    let target_left = total_area * cap_left / cap_total;
    let mut acc = 0.0;
    let mut k = 0;
    while k < work.len() {
        let a = work[k].0.area();
        if acc + 0.5 * a > target_left {
            break;
        }
        acc += a;
        k += 1;
    }
    // Keep both sides non-empty when possible so recursion always shrinks.
    if k == 0 && cap_left > 0.0 && work.len() > 1 {
        k = 1;
    }
    if k == work.len() && cap_right > 0.0 && work.len() > 1 {
        k = work.len() - 1;
    }
    if k == 0 || k == work.len() {
        // One side has no capacity at all: shrink the rect to the side
        // with capacity and try again.
        let target = if k == 0 { right_rect } else { left_rect };
        recurse(caps, work, target, depth + 1);
        return;
    }

    let (left, right) = work.split_at_mut(k);
    if left.len() >= PAR_MIN_ITEMS && right.len() >= PAR_MIN_ITEMS && complx_par::threads() > 1 {
        let car = complx_obs::carrier();
        complx_par::scope(|s| {
            s.spawn(|| {
                let _attached = car.attach();
                let _sp = complx_obs::span("chunks");
                recurse(caps, left, left_rect, depth + 1);
            });
            recurse(caps, right, right_rect, depth + 1);
        });
    } else {
        recurse(caps, left, left_rect, depth + 1);
        recurse(caps, right, right_rect, depth + 1);
    }
}

/// Cuts `rect` at the bin boundary where free capacity is halved; falls back
/// to the geometric middle when the rect spans fewer than two bins on the
/// cut axis. Returns `None` for degenerate rects.
fn capacity_median_cut(caps: &CapacityMap, rect: Rect, cut_x: bool) -> Option<(Rect, Rect)> {
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

    // Candidate bin boundaries strictly inside (lo, hi). The coordinate
    // never decreases in `b`, so the candidates are one index range.
    let coord = |b: i64| origin + b as f64 * bin;
    let first = ((lo - origin) / bin).floor() as i64 + 1;
    let last = ((hi - origin) / bin).ceil() as i64 - 1;
    let first = lower_bound(first, last + 1, |b| coord(b) <= lo + 1e-9);
    let end = lower_bound(first, last + 1, |b| coord(b) < hi - 1e-9);
    let total = caps.free_in_rect(&rect);
    let excess = |b: i64| {
        let c = coord(b);
        let left = if cut_x {
            Rect::new(rect.lx, rect.ly, c, rect.hy)
        } else {
            Rect::new(rect.lx, rect.ly, rect.hx, c)
        };
        caps.free_in_rect(&left) - 0.5 * total
    };
    // Bin capacities are ≥ 0 and rounding is monotone, so `excess` never
    // decreases in `b`: the imbalance |excess| falls, then rises. The cut
    // is the first boundary of least imbalance — the last deficit's first
    // occurrence or the first surplus, whichever is smaller (ties go to
    // the earlier one).
    let cut = if first < end {
        let surplus = lower_bound(first, end, |b| excess(b) < 0.0);
        let deficit = (surplus > first).then(|| {
            let e = excess(surplus - 1);
            (lower_bound(first, surplus, |b| excess(b) < e), e.abs())
        });
        let best = match deficit {
            Some((b, imbalance)) if surplus == end || imbalance <= excess(surplus).abs() => b,
            _ => surplus,
        };
        coord(best)
    } else {
        0.5 * (lo + hi)
    };
    Some(if cut_x {
        (
            Rect::new(rect.lx, rect.ly, cut, rect.hy),
            Rect::new(cut, rect.ly, rect.hx, rect.hy),
        )
    } else {
        (
            Rect::new(rect.lx, rect.ly, rect.hx, cut),
            Rect::new(rect.lx, cut, rect.hx, rect.hy),
        )
    })
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
fn leaf_spread(caps: &CapacityMap, work: &mut [(Item, u32)], rect: Rect) {
    if work.is_empty() {
        return;
    }
    let total_area: f64 = work.iter().map(|(it, _)| it.area()).sum();
    if total_area <= 0.0 || caps.free_in_rect(&rect) <= 0.0 {
        for (it, _) in work.iter_mut() {
            it.x = 0.5 * (rect.lx + rect.hx);
            it.y = 0.5 * (rect.ly + rect.hy);
        }
        return;
    }
    for pass_x in [true, false] {
        // Slice boundaries: bin grid lines intersected with the rect.
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
        // Cumulative free capacity over the slices.
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
        if pass_x {
            work.sort_by(|a, b| a.0.x.total_cmp(&b.0.x));
        } else {
            work.sort_by(|a, b| a.0.y.total_cmp(&b.0.y));
        }
        let mut acc = 0.0;
        for (it, _) in work.iter_mut() {
            let a = it.area();
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
            let pos = bounds[k] + frac * (bounds[k + 1] - bounds[k]);
            if pass_x {
                it.x = pos;
            } else {
                it.y = pos;
            }
        }
    }
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
