//! The complete feasibility projection `P_C`.

use complx_netlist::{density::DensityGrid, Design, Placement};

use crate::bisect::spread_in_rect;
use crate::capacity::CapacityMap;
use crate::cluster::{cluster, SpreadRegion};
use crate::items::Item;
use crate::regions::{snap_to_alignments, snap_to_regions};
use crate::shred::{apply_items, build_items_inflated};

/// A pluggable feasibility-projection backend — the `P_C` the primal-dual
/// loop calls once per iteration (paper Section 4 treats it as a black
/// box, and Section 5 derives rival placers by swapping it).
///
/// The trait is object-safe so the placer can select a backend at runtime
/// from configuration: the geometric engine ([`FeasibilityProjection`],
/// SimPL-style look-ahead legalization) and the electrostatic engine
/// ([`crate::ElectroProjection`], FFT Poisson density equalization) both
/// implement it. Implementations must be deterministic for any thread
/// count and honor their cancel token cooperatively.
pub trait Projection: std::fmt::Debug + Send + Sync {
    /// A short stable backend name (reports and diagnostics).
    fn name(&self) -> &'static str;

    /// The adaptive square-grid resolution for a design.
    fn adaptive_bins(&self, design: &Design) -> usize;

    /// Projects with an explicit square grid resolution and optional
    /// per-cell width-inflation factors (indexed by cell id; SimPLR's
    /// routability preprocessing).
    fn project_with_bins_inflated(
        &self,
        design: &Design,
        placement: &Placement,
        bins: usize,
        inflation: Option<&[f64]>,
    ) -> ProjectionResult;

    /// Projects with an explicit square grid resolution.
    fn project_with_bins(
        &self,
        design: &Design,
        placement: &Placement,
        bins: usize,
    ) -> ProjectionResult {
        self.project_with_bins_inflated(design, placement, bins, None)
    }

    /// Projects at the backend's adaptive resolution.
    fn project(&self, design: &Design, placement: &Placement) -> ProjectionResult {
        self.project_with_bins(design, placement, self.adaptive_bins(design))
    }
}

/// Configuration and entry point for the feasibility projection.
///
/// The default configuration shreds macros, enforces region constraints and
/// picks the grid resolution adaptively (about [`Self::cells_per_bin`]
/// movable items per bin). ComPLx coarsens the grid in early iterations and
/// refines later; the placer drives that schedule through
/// [`FeasibilityProjection::project_with_bins`].
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityProjection {
    /// Overrides the design's target density γ when set.
    pub target_density: Option<f64>,
    /// Explicit square grid resolution; `None` selects adaptively.
    pub bins: Option<usize>,
    /// Adaptive resolution target: average movable items per bin.
    pub cells_per_bin: f64,
    /// Shred movable macros (Section 5). Disable only for ablation.
    pub shred_macros: bool,
    /// Snap region-constrained cells after density spreading (Section S5).
    pub enforce_regions: bool,
    /// Cooperative cancellation: when the token trips, regions that have not
    /// started spreading yet are left at their pre-spread coordinates (still
    /// a finite, consistent placement). An untripped token changes nothing.
    pub cancel: Option<complx_par::CancelToken>,
}

impl Default for FeasibilityProjection {
    fn default() -> Self {
        Self {
            target_density: None,
            bins: None,
            cells_per_bin: 3.0,
            shred_macros: true,
            enforce_regions: true,
            cancel: None,
        }
    }
}

/// Output of one projection: the pseudo-legal placement plus diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionResult {
    /// The `C`-feasible (approximately) placement `(x°, y°)`.
    pub placement: Placement,
    /// `Π = ‖(x,y) − (x°,y°)‖₁` over movable cells — the penalty value the
    /// Lagrangian uses (Formula 3).
    pub distance_l1: f64,
    /// Bin-overflow ratio of the *input* placement at the grid used.
    pub overflow_before: f64,
    /// Bin-overflow ratio of the output placement at the same grid.
    pub overflow_after: f64,
    /// Number of spreading regions processed.
    pub num_regions: usize,
    /// Grid resolution used (square grid side, in bins).
    pub bins_used: usize,
}

impl FeasibilityProjection {
    /// Creates the default projection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Projects `placement` onto (an approximation of) the feasible set.
    pub fn project(&self, design: &Design, placement: &Placement) -> ProjectionResult {
        let bins = self.bins.unwrap_or_else(|| self.adaptive_bins(design));
        self.project_with_bins(design, placement, bins)
    }

    /// Projects with an explicit square grid resolution (the placer uses
    /// this to coarsen early iterations and refine late ones).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the placement length mismatches the design.
    pub fn project_with_bins(
        &self,
        design: &Design,
        placement: &Placement,
        bins: usize,
    ) -> ProjectionResult {
        self.project_with_bins_inflated(design, placement, bins, None)
    }

    /// Projects with explicit grid resolution and optional per-cell width
    /// inflation factors (SimPLR's routability preprocessing; see
    /// [`crate::rudy::CongestionMap::inflation_factors`]).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, the placement length mismatches the design,
    /// or the inflation vector has the wrong length.
    pub fn project_with_bins_inflated(
        &self,
        design: &Design,
        placement: &Placement,
        bins: usize,
        inflation: Option<&[f64]>,
    ) -> ProjectionResult {
        assert!(bins > 0, "grid must have at least one bin");
        assert_eq!(placement.len(), design.num_cells());
        let _span = complx_obs::span("projection");
        let gamma = self
            .target_density
            .unwrap_or_else(|| design.target_density());

        let mut items = build_items_inflated(design, placement, self.shred_macros, inflation);
        let caps = CapacityMap::new(design, bins, bins);
        let regions = cluster(&caps, &items, gamma);

        // Spread each region's items independently, one region per job.
        // `cluster` merges regions until pairwise disjoint, so every item
        // belongs to at most one region and all regions can gather from the
        // same pre-spread snapshot; results are written back in region
        // order. The merge order makes the outcome identical for any
        // thread count (with one thread the jobs run inline, in order).
        let members = region_members(&caps, &regions, &items);
        let items_ref = &items;
        let car = complx_obs::carrier();
        let spread = || {
            complx_par::par_map(regions.len(), |ri| {
                let _attached = car.attach();
                let _sp = complx_obs::span("chunks");
                if self
                    .cancel
                    .as_ref()
                    .is_some_and(complx_par::CancelToken::is_cancelled)
                {
                    return Vec::new();
                }
                let mut local: Vec<Item> =
                    members[ri].iter().map(|&i| items_ref[i as usize]).collect();
                spread_in_rect(&caps, &mut local, regions[ri].rect(&caps));
                local
            })
        };
        // The `overflow_before` diagnostic reads only the input placement,
        // so with a second thread it is measured while the regions spread.
        let before = || DensityGrid::build(design, placement, bins, bins).overflow_ratio(gamma);
        let (spread_results, overflow_before): (Vec<Vec<Item>>, f64) = if complx_par::threads() > 1
        {
            let mut overflow_before = 0.0;
            let spread_results = complx_par::scope(|s| {
                s.spawn(|| {
                    let _attached = car.attach();
                    let _sp = complx_obs::span("chunks");
                    overflow_before = before();
                });
                spread()
            });
            (spread_results, overflow_before)
        } else {
            (spread(), before())
        };
        for (ids, moved) in members.iter().zip(&spread_results) {
            for (&i, it) in ids.iter().zip(moved) {
                items[i as usize] = *it;
            }
        }

        let mut out = placement.clone();
        apply_items(design, placement, &items, &mut out);
        if self.enforce_regions {
            snap_to_regions(design, &mut out);
            snap_to_alignments(design, &mut out);
        }

        // Diagnostics at the same grid resolution.
        let overflow_after = DensityGrid::build(design, &out, bins, bins).overflow_ratio(gamma);
        let distance_l1 = placement.l1_distance(&out);

        complx_obs::add("projection.calls", 1);
        complx_obs::add("projection.regions", regions.len() as u64);
        complx_obs::add("projection.bins_rebuilt", (bins * bins) as u64);
        ProjectionResult {
            placement: out,
            distance_l1,
            overflow_before,
            overflow_after,
            num_regions: regions.len(),
            bins_used: bins,
        }
    }

    /// The adaptive square-grid resolution for a design.
    pub fn adaptive_bins(&self, design: &Design) -> usize {
        let n = design.movable_cells().len().max(1) as f64;
        ((n / self.cells_per_bin).sqrt().ceil() as usize).clamp(2, 1024)
    }
}

/// The items whose centers lie in each region's rect (half-open), in
/// ascending index order, gathered in one pass over the items.
///
/// An item's bin, rounded from its center, can sit one bin off a region
/// edge, so the regions of the 3 × 3 bins around it are candidates and the
/// rect test decides. The regions are disjoint, so at most one holds it.
fn region_members(caps: &CapacityMap, regions: &[SpreadRegion], items: &[Item]) -> Vec<Vec<u32>> {
    const NONE: u32 = u32::MAX;
    let (nx, ny) = (caps.nx(), caps.ny());
    let mut region_of_bin = vec![NONE; nx * ny];
    for (ri, r) in regions.iter().enumerate() {
        for iy in r.y0..r.y1 {
            region_of_bin[iy * nx + r.x0..iy * nx + r.x1].fill(ri as u32);
        }
    }
    let rects: Vec<_> = regions.iter().map(|r| r.rect(caps)).collect();
    let mut members = vec![Vec::new(); regions.len()];
    for (i, it) in items.iter().enumerate() {
        let (ix, iy) = caps.bin_of(it.x, it.y);
        let holder = (iy.saturating_sub(1)..(iy + 2).min(ny))
            .flat_map(|qy| (ix.saturating_sub(1)..(ix + 2).min(nx)).map(move |qx| qy * nx + qx))
            .map(|b| region_of_bin[b])
            .find(|&ri| {
                ri != NONE && {
                    let rect = &rects[ri as usize];
                    it.x >= rect.lx && it.x < rect.hx && it.y >= rect.ly && it.y < rect.hy
                }
            });
        if let Some(ri) = holder {
            members[ri as usize].push(i as u32);
        }
    }
    members
}

impl Projection for FeasibilityProjection {
    fn name(&self) -> &'static str {
        "geometric"
    }

    fn adaptive_bins(&self, design: &Design) -> usize {
        FeasibilityProjection::adaptive_bins(self, design)
    }

    fn project_with_bins_inflated(
        &self,
        design: &Design,
        placement: &Placement,
        bins: usize,
        inflation: Option<&[f64]>,
    ) -> ProjectionResult {
        FeasibilityProjection::project_with_bins_inflated(self, design, placement, bins, inflation)
    }

    fn project(&self, design: &Design, placement: &Placement) -> ProjectionResult {
        // Honor the inherent behavior: an explicit `bins` override wins
        // over the adaptive choice.
        FeasibilityProjection::project(self, design, placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::generator::GeneratorConfig;

    #[test]
    fn projection_reduces_overflow_dramatically() {
        let d = GeneratorConfig::small("p", 1).generate();
        let p = d.initial_placement(); // everything at the center
        let proj = FeasibilityProjection::default();
        let r = proj.project(&d, &p);
        assert!(r.overflow_before > 0.5, "stacked start should overflow");
        assert!(
            r.overflow_after < 0.25 * r.overflow_before,
            "overflow {} -> {}",
            r.overflow_before,
            r.overflow_after
        );
        assert!(r.num_regions >= 1);
        assert!(r.distance_l1 > 0.0);
    }

    #[test]
    fn projection_is_idempotent_when_feasible() {
        let d = GeneratorConfig::small("idem", 3).generate();
        let p = d.initial_placement();
        let proj = FeasibilityProjection::default();
        let once = proj.project(&d, &p);
        let twice = proj.project(&d, &once.placement);
        // A feasible input should barely move: P_C(P_C(x)) ≈ P_C(x).
        assert!(
            twice.distance_l1 < 0.1 * once.distance_l1 + 1e-9,
            "second projection moved {} vs first {}",
            twice.distance_l1,
            once.distance_l1
        );
    }

    #[test]
    fn feasible_input_returns_nearly_unchanged() {
        // "P_C should return its input when the input is C-feasible" (§4).
        let d = GeneratorConfig::small("f", 3).generate();
        let p = d.initial_placement();
        let proj = FeasibilityProjection::default();
        let spread = proj.project(&d, &p).placement;
        let again = proj.project(&d, &spread);
        let per_cell = again.distance_l1 / d.movable_cells().len() as f64;
        assert!(
            per_cell < 0.5 * d.row_height(),
            "per-cell displacement {per_cell}"
        );
    }

    #[test]
    fn coarse_and_fine_grids_both_work() {
        let d = GeneratorConfig::small("g", 4).generate();
        let p = d.initial_placement();
        let proj = FeasibilityProjection::default();
        for bins in [4, 8, 16, 32] {
            let r = proj.project_with_bins(&d, &p, bins);
            assert!(
                r.overflow_after < r.overflow_before,
                "bins {bins}: {} -> {}",
                r.overflow_before,
                r.overflow_after
            );
        }
    }

    #[test]
    fn density_target_respected_on_mixed_design() {
        // Section 5: mixed-size P_C "may leave small overlaps between
        // macros. Rather than force complete legalization, we let multiple
        // global placement iterations (including P_C) gradually decrease
        // these overlaps." Iterating the projection must therefore drive
        // overflow down monotonically and substantially.
        let d = GeneratorConfig::ispd2006_like("m", 5, 600, 0.6).generate();
        let proj = FeasibilityProjection::default();
        let mut p = d.initial_placement();
        let initial = proj.project(&d, &p).overflow_before;
        let mut last = initial;
        for _ in 0..3 {
            let r = proj.project(&d, &p);
            assert!(
                r.overflow_after < last + 1e-9,
                "overflow went up: {last} -> {}",
                r.overflow_after
            );
            last = r.overflow_after;
            p = r.placement;
        }
        assert!(
            last < 0.3 * initial.max(1e-9),
            "after 3 projections: {initial} -> {last}"
        );
    }

    #[test]
    fn projection_deterministic() {
        let d = GeneratorConfig::small("det", 6).generate();
        let p = d.initial_placement();
        let proj = FeasibilityProjection::default();
        let a = proj.project(&d, &p);
        let b = proj.project(&d, &p);
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn projection_bit_identical_across_thread_counts() {
        let d = GeneratorConfig::ispd2005_like("par-det", 9, 3000).generate();
        let p = d.initial_placement();
        let proj = FeasibilityProjection::default();
        let reference = {
            let _g = complx_par::with_threads(1);
            proj.project(&d, &p).placement
        };
        for t in [2, 8] {
            let _g = complx_par::with_threads(t);
            let got = proj.project(&d, &p).placement;
            assert_eq!(got.len(), reference.len());
            for i in 0..got.len() {
                assert_eq!(
                    got.xs()[i].to_bits(),
                    reference.xs()[i].to_bits(),
                    "x[{i}] differs at {t} threads"
                );
                assert_eq!(
                    got.ys()[i].to_bits(),
                    reference.ys()[i].to_bits(),
                    "y[{i}] differs at {t} threads"
                );
            }
        }
    }

    #[test]
    fn region_members_match_a_scan_of_every_region() {
        let d = GeneratorConfig::ispd2006_like("members", 3, 800, 0.7).generate();
        let caps = CapacityMap::new(&d, 13, 13);
        let mut items = build_items_inflated(&d, &d.initial_placement(), true, None);
        // Four hot spots, one per quadrant.
        let core = d.core();
        for (i, it) in items.iter_mut().enumerate() {
            it.x = core.lx + core.width() * [0.2, 0.8][i % 2];
            it.y = core.ly + core.height() * [0.2, 0.8][i / 2 % 2];
        }
        let regions = cluster(&caps, &items, 0.7);
        assert!(regions.len() > 1);
        // Items on, just inside and just outside every region edge.
        for r in &regions {
            let rect = r.rect(&caps);
            for x in [rect.lx, rect.hx, rect.lx.next_down(), rect.hx.next_down()] {
                for y in [rect.ly, rect.hy, rect.ly.next_up(), rect.hy.next_down()] {
                    items.push(Item {
                        x,
                        y,
                        width: 1.0,
                        height: 1.0,
                        owner: 0,
                    });
                }
            }
        }
        let members = region_members(&caps, &regions, &items);
        for (r, got) in regions.iter().zip(&members) {
            let rect = r.rect(&caps);
            let want: Vec<u32> = (0..items.len() as u32)
                .filter(|&i| {
                    let it = &items[i as usize];
                    it.x >= rect.lx && it.x < rect.hx && it.y >= rect.ly && it.y < rect.hy
                })
                .collect();
            assert_eq!(got, &want, "{r:?}");
        }
    }

    #[test]
    fn adaptive_bins_scale_with_size() {
        let small = GeneratorConfig::small("s1", 7).generate();
        let proj = FeasibilityProjection::default();
        let b_small = proj.adaptive_bins(&small);
        let mut cfg = GeneratorConfig::small("s2", 7);
        cfg.num_std_cells = 5000;
        let large = cfg.generate();
        assert!(proj.adaptive_bins(&large) > b_small);
    }
}
