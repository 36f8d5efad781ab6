//! Overfilled-bin clustering and minimal region expansion.
//!
//! SimPL's look-ahead legalization "first localizes the changes to the
//! smallest rectangular grid-cell sub-arrays that satisfy a given target
//! utilization/density limit" (paper Section 5). This module finds connected
//! clusters of overfilled bins and grows each cluster's bounding box one bin
//! row/column at a time — in the direction that adds the most spare
//! capacity — until the region's contents fit under the density target.

use complx_netlist::Rect;

use crate::capacity::CapacityMap;
use crate::items::Item;

/// A rectangular spreading region in bin indices (`[x0, x1) × [y0, y1)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpreadRegion {
    /// First bin column.
    pub x0: usize,
    /// First bin row.
    pub y0: usize,
    /// One-past-last bin column.
    pub x1: usize,
    /// One-past-last bin row.
    pub y1: usize,
}

impl SpreadRegion {
    fn intersects(&self, o: &SpreadRegion) -> bool {
        self.x0 < o.x1 && o.x0 < self.x1 && self.y0 < o.y1 && o.y0 < self.y1
    }

    fn union(&self, o: &SpreadRegion) -> SpreadRegion {
        SpreadRegion {
            x0: self.x0.min(o.x0),
            y0: self.y0.min(o.y0),
            x1: self.x1.max(o.x1),
            y1: self.y1.max(o.y1),
        }
    }

    /// The geometric rectangle of this region under a capacity map.
    pub fn rect(&self, caps: &CapacityMap) -> Rect {
        caps.bins_rect(self.x0, self.y0, self.x1, self.y1)
    }
}

/// Per-bin item-usage accumulated by item centers.
fn bin_usage(caps: &CapacityMap, items: &[Item]) -> Vec<f64> {
    let mut usage = vec![0.0; caps.nx() * caps.ny()];
    for it in items {
        let (ix, iy) = caps.bin_of(it.x, it.y);
        usage[iy * caps.nx() + ix] += it.area();
    }
    usage
}

/// Finds the overfilled-bin clusters of `items` under density target
/// `gamma` and expands each to the smallest rectangle with enough free
/// capacity. Overlapping regions are merged (and re-expanded if needed).
///
/// Returns regions sorted by descending overflow severity.
pub fn cluster(caps: &CapacityMap, items: &[Item], gamma: f64) -> Vec<SpreadRegion> {
    let nx = caps.nx();
    let ny = caps.ny();
    let usage = bin_usage(caps, items);
    let over = |ix: usize, iy: usize| -> bool {
        usage[iy * nx + ix] > gamma * caps.bin_free(ix, iy) + 1e-9
    };

    // BFS over overfilled bins.
    let mut visited = vec![false; nx * ny];
    let mut regions: Vec<SpreadRegion> = Vec::new();
    for iy in 0..ny {
        for ix in 0..nx {
            if visited[iy * nx + ix] || !over(ix, iy) {
                continue;
            }
            let mut stack = vec![(ix, iy)];
            visited[iy * nx + ix] = true;
            let mut r = SpreadRegion {
                x0: ix,
                y0: iy,
                x1: ix + 1,
                y1: iy + 1,
            };
            while let Some((cx, cy)) = stack.pop() {
                r.x0 = r.x0.min(cx);
                r.y0 = r.y0.min(cy);
                r.x1 = r.x1.max(cx + 1);
                r.y1 = r.y1.max(cy + 1);
                let neighbors = [
                    (cx.wrapping_sub(1), cy),
                    (cx + 1, cy),
                    (cx, cy.wrapping_sub(1)),
                    (cx, cy + 1),
                ];
                for (qx, qy) in neighbors {
                    if qx < nx && qy < ny && !visited[qy * nx + qx] && over(qx, qy) {
                        visited[qy * nx + qx] = true;
                        stack.push((qx, qy));
                    }
                }
            }
            regions.push(r);
        }
    }

    // Expand each region until its usage fits, merging as boxes collide.
    let region_usage = |r: &SpreadRegion| -> f64 {
        let mut u = 0.0;
        for iy in r.y0..r.y1 {
            for ix in r.x0..r.x1 {
                u += usage[iy * nx + ix];
            }
        }
        u
    };
    let fits = |r: &SpreadRegion| -> bool {
        region_usage(r) <= gamma * caps.free_in_bins(r.x0, r.y0, r.x1, r.y1) + 1e-9
    };

    for r in &mut regions {
        let mut guard = nx + ny + 2;
        while !fits(r) && guard > 0 {
            guard -= 1;
            // Candidate expansions with their added spare capacity.
            let mut best: Option<(f64, SpreadRegion)> = None;
            let candidates = [
                (r.x0 > 0).then(|| SpreadRegion { x0: r.x0 - 1, ..*r }),
                (r.x1 < nx).then(|| SpreadRegion { x1: r.x1 + 1, ..*r }),
                (r.y0 > 0).then(|| SpreadRegion { y0: r.y0 - 1, ..*r }),
                (r.y1 < ny).then(|| SpreadRegion { y1: r.y1 + 1, ..*r }),
            ];
            for cand in candidates.into_iter().flatten() {
                let spare = gamma * caps.free_in_bins(cand.x0, cand.y0, cand.x1, cand.y1)
                    - region_usage(&cand);
                if best.as_ref().is_none_or(|(s, _)| spare > *s) {
                    best = Some((spare, cand));
                }
            }
            match best {
                Some((_, cand)) => *r = cand,
                None => break, // grid exhausted
            }
        }
    }

    // Merge intersecting regions (repeat until fixpoint), re-expanding the
    // merged boxes if their union no longer fits.
    let mut merged = true;
    while merged {
        merged = false;
        'outer: for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                if regions[i].intersects(&regions[j]) {
                    let u = regions[i].union(&regions[j]);
                    regions.swap_remove(j);
                    regions[i] = u;
                    merged = true;
                    break 'outer;
                }
            }
        }
    }

    // Sort by overflow severity (most overfilled first).
    regions.sort_by(|a, b| {
        let oa = region_usage(a) - gamma * caps.free_in_bins(a.x0, a.y0, a.x1, a.y1);
        let ob = region_usage(b) - gamma * caps.free_in_bins(b.x0, b.y0, b.x1, b.y1);
        ob.total_cmp(&oa)
    });
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::{CellKind, DesignBuilder, Point, Rect};

    fn empty_design(side: f64) -> complx_netlist::Design {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, side, side), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("b", 1.0, 1.0, CellKind::Movable).unwrap();
        b.add_net("n", 1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .unwrap();
        b.build().unwrap()
    }

    fn item(x: f64, y: f64, a: f64, owner: u32) -> Item {
        Item {
            x,
            y,
            width: a.sqrt(),
            height: a.sqrt(),
            owner,
        }
    }

    #[test]
    fn no_overflow_no_regions() {
        let d = empty_design(10.0);
        let caps = CapacityMap::new(&d, 5, 5);
        let items = vec![item(1.0, 1.0, 0.5, 0), item(9.0, 9.0, 0.5, 1)];
        assert!(cluster(&caps, &items, 1.0).is_empty());
    }

    #[test]
    fn stacked_items_make_one_region_that_fits() {
        let d = empty_design(10.0);
        let caps = CapacityMap::new(&d, 5, 5);
        // 30 area units piled on one bin (bin capacity = 4).
        let items: Vec<Item> = (0..30).map(|i| item(5.0, 5.0, 1.0, i)).collect();
        let regions = cluster(&caps, &items, 1.0);
        assert_eq!(regions.len(), 1);
        let r = regions[0];
        let free = caps.free_in_bins(r.x0, r.y0, r.x1, r.y1);
        assert!(free >= 30.0, "free {free}");
    }

    #[test]
    fn two_far_piles_make_two_regions() {
        let d = empty_design(40.0);
        let caps = CapacityMap::new(&d, 20, 20);
        let mut items: Vec<Item> = (0..4).map(|i| item(3.0, 3.0, 2.0, i)).collect();
        items.extend((0..4).map(|i| item(37.0, 37.0, 2.0, 10 + i)));
        let regions = cluster(&caps, &items, 1.0);
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn gamma_tightens_regions() {
        let d = empty_design(10.0);
        let caps = CapacityMap::new(&d, 5, 5);
        let items: Vec<Item> = (0..8).map(|i| item(5.0, 5.0, 1.0, i)).collect();
        let loose = cluster(&caps, &items, 1.0);
        let tight = cluster(&caps, &items, 0.5);
        let area = |rs: &[SpreadRegion]| -> usize {
            rs.iter().map(|r| (r.x1 - r.x0) * (r.y1 - r.y0)).sum()
        };
        assert!(area(&tight) >= area(&loose), "γ=0.5 must need ≥ bins");
    }

    #[test]
    fn obstacle_forces_wider_region() {
        // An obstacle next to the pile leaves no capacity there, so the
        // region must grow around it.
        let mut b = DesignBuilder::new("o", Rect::new(0.0, 0.0, 10.0, 10.0), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let f = b
            .add_fixed_cell("f", 4.0, 10.0, CellKind::Fixed, Point::new(4.0, 5.0))
            .unwrap();
        b.add_net("n", 1.0, vec![(a, 0.0, 0.0), (f, 0.0, 0.0)])
            .unwrap();
        let d = b.build().unwrap();
        let caps = CapacityMap::new(&d, 5, 5);
        let items: Vec<Item> = (0..6).map(|i| item(1.0, 5.0, 1.5, i)).collect();
        let regions = cluster(&caps, &items, 1.0);
        assert_eq!(regions.len(), 1);
        let r = regions[0];
        let free = caps.free_in_bins(r.x0, r.y0, r.x1, r.y1);
        assert!(free >= 9.0, "free {free} for region {r:?}");
    }
}
