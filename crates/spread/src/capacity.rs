//! Obstacle-aware free-capacity map: O(1) bin-aligned queries, and
//! fractional queries over arbitrary rectangles.

use complx_netlist::{CellKind, Design, Rect};

/// A uniform grid over the core storing free placement area per bin
/// (bin area minus fixed-obstacle overlap), with 2-D prefix sums so the
/// free capacity of any bin-aligned sub-rectangle is an O(1) query
/// ([`Self::free_in_bins`]). [`Self::free_in_rect`] takes any rectangle
/// and costs O(bins it covers).
#[derive(Debug, Clone)]
pub struct CapacityMap {
    core: Rect,
    nx: usize,
    ny: usize,
    bin_w: f64,
    bin_h: f64,
    /// Free area per bin, row-major.
    free: Vec<f64>,
    /// Inclusive 2-D prefix sums of `free`, dimension (nx+1)×(ny+1).
    prefix: Vec<f64>,
}

impl CapacityMap {
    /// Builds an `nx × ny` capacity map for a design.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero.
    pub fn new(design: &Design, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0);
        let core = design.core();
        let bin_w = core.width() / nx as f64;
        let bin_h = core.height() / ny as f64;
        let mut free = vec![bin_w * bin_h; nx * ny];
        for id in design.cell_ids() {
            let cell = design.cell(id);
            if cell.kind() != CellKind::Fixed {
                continue;
            }
            let r = design
                .fixed_positions()
                .cell_rect(id, cell.width(), cell.height());
            let x0 = (((r.lx - core.lx) / bin_w).floor().max(0.0)) as usize;
            let y0 = (((r.ly - core.ly) / bin_h).floor().max(0.0)) as usize;
            let x1 = ((((r.hx - core.lx) / bin_w).ceil()) as usize).min(nx);
            let y1 = ((((r.hy - core.ly) / bin_h).ceil()) as usize).min(ny);
            for iy in y0..y1 {
                for ix in x0..x1 {
                    let bin = Rect::new(
                        core.lx + ix as f64 * bin_w,
                        core.ly + iy as f64 * bin_h,
                        core.lx + (ix + 1) as f64 * bin_w,
                        core.ly + (iy + 1) as f64 * bin_h,
                    );
                    let slot = &mut free[iy * nx + ix];
                    *slot = (*slot - bin.overlap_area(&r)).max(0.0);
                }
            }
        }
        let mut prefix = vec![0.0; (nx + 1) * (ny + 1)];
        for iy in 0..ny {
            for ix in 0..nx {
                prefix[(iy + 1) * (nx + 1) + (ix + 1)] = free[iy * nx + ix]
                    + prefix[iy * (nx + 1) + (ix + 1)]
                    + prefix[(iy + 1) * (nx + 1) + ix]
                    - prefix[iy * (nx + 1) + ix];
            }
        }
        Self {
            core,
            nx,
            ny,
            bin_w,
            bin_h,
            free,
            prefix,
        }
    }

    /// Grid width in bins.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in bins.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        self.bin_w
    }

    /// Bin height.
    pub fn bin_height(&self) -> f64 {
        self.bin_h
    }

    /// The core rectangle the map covers.
    pub fn core(&self) -> Rect {
        self.core
    }

    /// Free capacity of a single bin.
    pub fn bin_free(&self, ix: usize, iy: usize) -> f64 {
        self.free[iy * self.nx + ix]
    }

    /// Free capacity of the bin-index rectangle `[x0, x1) × [y0, y1)`.
    ///
    /// # Panics
    ///
    /// Panics if indices exceed the grid.
    pub fn free_in_bins(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        assert!(x1 <= self.nx && y1 <= self.ny && x0 <= x1 && y0 <= y1);
        let np = self.nx + 1;
        self.prefix[y1 * np + x1] - self.prefix[y0 * np + x1] - self.prefix[y1 * np + x0]
            + self.prefix[y0 * np + x0]
    }

    /// Approximate free capacity of an arbitrary rectangle, computed by
    /// scaling boundary bins fractionally. Costs O(bins in the rectangle).
    pub fn free_in_rect(&self, r: &Rect) -> f64 {
        self.free_in_rect_by_rows(r, |_, _| {})
    }

    /// [`Self::free_in_rect`], also calling `row_done(iy, running)` after
    /// each bin row `iy` of the rectangle's row range, in increasing `iy`,
    /// with the sum so far. The bins are summed row-major from `0.0`, so
    /// the running sum after row `iy` is bit for bit the free capacity of
    /// the rectangle cut at that row's top edge.
    pub(crate) fn free_in_rect_by_rows(
        &self,
        r: &Rect,
        mut row_done: impl FnMut(usize, f64),
    ) -> f64 {
        let r = Rect::new(
            r.lx.max(self.core.lx),
            r.ly.max(self.core.ly),
            r.hx.min(self.core.hx).max(r.lx.max(self.core.lx)),
            r.hy.min(self.core.hy).max(r.ly.max(self.core.ly)),
        );
        if r.width() <= 0.0 || r.height() <= 0.0 {
            return 0.0;
        }
        let fx0 = (r.lx - self.core.lx) / self.bin_w;
        let fy0 = (r.ly - self.core.ly) / self.bin_h;
        let fx1 = (r.hx - self.core.lx) / self.bin_w;
        let fy1 = (r.hy - self.core.ly) / self.bin_h;
        let x0 = fx0.floor() as usize;
        let y0 = fy0.floor() as usize;
        let x1 = (fx1.ceil() as usize).min(self.nx);
        let y1 = (fy1.ceil() as usize).min(self.ny);
        let mut total = 0.0;
        for iy in y0..y1 {
            for ix in x0..x1 {
                let bin = Rect::new(
                    self.core.lx + ix as f64 * self.bin_w,
                    self.core.ly + iy as f64 * self.bin_h,
                    self.core.lx + (ix + 1) as f64 * self.bin_w,
                    self.core.ly + (iy + 1) as f64 * self.bin_h,
                );
                let ov = bin.overlap_area(&r);
                if ov > 0.0 {
                    total += self.bin_free(ix, iy) * ov / bin.area();
                }
            }
            row_done(iy, total);
        }
        total
    }

    /// The bin containing a point (clamped to the grid).
    pub fn bin_of(&self, x: f64, y: f64) -> (usize, usize) {
        let ix = (((x - self.core.lx) / self.bin_w).floor() as isize).clamp(0, self.nx as isize - 1)
            as usize;
        let iy = (((y - self.core.ly) / self.bin_h).floor() as isize).clamp(0, self.ny as isize - 1)
            as usize;
        (ix, iy)
    }

    /// The rectangle of the bin-index range `[x0, x1) × [y0, y1)`.
    pub fn bins_rect(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> Rect {
        Rect::new(
            self.core.lx + x0 as f64 * self.bin_w,
            self.core.ly + y0 as f64 * self.bin_h,
            self.core.lx + x1 as f64 * self.bin_w,
            self.core.ly + y1 as f64 * self.bin_h,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::{CellKind, DesignBuilder, Point};

    fn design_with_obstacle() -> Design {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let f = b
            .add_fixed_cell("f", 4.0, 4.0, CellKind::Fixed, Point::new(2.0, 2.0))
            .unwrap();
        b.add_net("n", 1.0, vec![(a, 0.0, 0.0), (f, 0.0, 0.0)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn prefix_sums_match_direct_sum() {
        let d = design_with_obstacle();
        let m = CapacityMap::new(&d, 5, 5);
        let direct: f64 = (1..4)
            .flat_map(|iy| (0..3).map(move |ix| (ix, iy)))
            .map(|(ix, iy)| m.bin_free(ix, iy))
            .sum();
        assert!((m.free_in_bins(0, 1, 3, 4) - direct).abs() < 1e-9);
    }

    #[test]
    fn obstacle_removes_capacity() {
        let d = design_with_obstacle();
        let m = CapacityMap::new(&d, 10, 10);
        // Obstacle covers [0,4]x[0,4] → those 16 bins have zero capacity.
        assert_eq!(m.free_in_bins(0, 0, 4, 4), 0.0);
        // Whole-core free area = 100 − 16.
        assert!((m.free_in_bins(0, 0, 10, 10) - 84.0).abs() < 1e-9);
    }

    #[test]
    fn rect_query_fractional_bins() {
        let d = design_with_obstacle();
        let m = CapacityMap::new(&d, 10, 10);
        // A clear rectangle far from the obstacle.
        let r = Rect::new(5.25, 5.25, 7.75, 6.75);
        assert!((m.free_in_rect(&r) - r.area()).abs() < 1e-9);
    }

    #[test]
    fn bin_of_clamps() {
        let d = design_with_obstacle();
        let m = CapacityMap::new(&d, 4, 4);
        assert_eq!(m.bin_of(-5.0, -5.0), (0, 0));
        assert_eq!(m.bin_of(50.0, 50.0), (3, 3));
        assert_eq!(m.bin_of(5.0, 2.6), (2, 1));
    }

    #[test]
    fn bins_rect_round_trip() {
        let d = design_with_obstacle();
        let m = CapacityMap::new(&d, 4, 4);
        let r = m.bins_rect(1, 1, 3, 4);
        assert_eq!(r, Rect::new(2.5, 2.5, 7.5, 10.0));
    }
}
