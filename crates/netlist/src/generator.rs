//! Deterministic synthetic ISPD-like benchmark generation.
//!
//! The original ISPD 2005/2006 contest benchmarks are distributed as large
//! Bookshelf bundles that are not available offline. This module generates
//! structurally similar instances — peripheral I/O pads, fixed macro
//! obstacles, optionally movable macros, a realistic net-degree distribution
//! (dominated by 2–4-pin nets with a heavy tail), and *spatial locality*:
//! nets prefer cells that are close in a hidden "intended" placement, so a
//! good placer can do far better than a random one, just like on real
//! circuits. Everything is seeded and deterministic.
//!
//! [`suite`] provides named scaled-down counterparts of the 16 paper
//! benchmarks (`adaptec1-s` … `bigblue4-s`, `adaptec5-s`, `newblue1-s` …
//! `newblue7-s`) with the paper's per-instance target densities.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::cell::{CellId, CellKind};
use crate::design::{Design, DesignBuilder};
use crate::error::DesignError;
use crate::geom::{Point, Rect};

/// Parameters for one synthetic instance.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Design name (also used for Bookshelf file names).
    pub name: String,
    /// RNG seed; equal configs generate identical designs.
    pub seed: u64,
    /// Number of movable standard cells.
    pub num_std_cells: usize,
    /// Number of movable macros (ISPD-2006 style mixed-size instances).
    pub num_movable_macros: usize,
    /// Number of fixed macro obstacles (ISPD-2005 style).
    pub num_fixed_macros: usize,
    /// Number of peripheral I/O pads.
    pub num_pads: usize,
    /// Design utilization: movable area / free core area.
    pub utilization: f64,
    /// Target placement density γ ∈ (0, 1].
    pub target_density: f64,
    /// Nets per movable cell (≈1.0–1.3 for real netlists).
    pub nets_per_cell: f64,
    /// Standard-cell row height.
    pub row_height: f64,
    /// Probability that a net pin is drawn from the local neighborhood of
    /// the net's seed cell in the hidden intended placement (vs uniformly).
    pub locality: f64,
}

impl GeneratorConfig {
    /// A small quickstart-scale instance (~600 movable cells).
    pub fn small(name: impl Into<String>, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            num_std_cells: 600,
            num_movable_macros: 0,
            num_fixed_macros: 4,
            num_pads: 64,
            utilization: 0.7,
            target_density: 1.0,
            nets_per_cell: 1.1,
            row_height: 8.0,
            locality: 0.85,
        }
    }

    /// An ISPD-2005-style instance: fixed macro obstacles, no density target.
    pub fn ispd2005_like(name: impl Into<String>, seed: u64, num_std_cells: usize) -> Self {
        Self {
            name: name.into(),
            seed,
            num_std_cells,
            num_movable_macros: 0,
            num_fixed_macros: (num_std_cells / 1200).clamp(4, 48),
            num_pads: (num_std_cells / 40).clamp(64, 1024),
            utilization: 0.75,
            target_density: 1.0,
            nets_per_cell: 1.15,
            row_height: 8.0,
            locality: 0.85,
        }
    }

    /// An ISPD-2006-style instance: movable macros and a density target γ.
    pub fn ispd2006_like(
        name: impl Into<String>,
        seed: u64,
        num_std_cells: usize,
        target_density: f64,
    ) -> Self {
        Self {
            name: name.into(),
            seed,
            num_std_cells,
            num_movable_macros: (num_std_cells / 900).clamp(6, 64),
            num_fixed_macros: (num_std_cells / 2500).clamp(2, 24),
            num_pads: (num_std_cells / 40).clamp(64, 1024),
            utilization: (0.9 * target_density).min(0.8),
            target_density,
            nets_per_cell: 1.15,
            row_height: 8.0,
            locality: 0.85,
        }
    }

    /// Generates the design.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no cells, utilization
    /// outside `(0, 1)`, density outside `(0, 1]`).
    pub fn generate(&self) -> Design {
        assert!(self.num_std_cells + self.num_movable_macros > 0);
        assert!(self.utilization > 0.0 && self.utilization < 1.0);
        assert!(self.target_density > 0.0 && self.target_density <= 1.0);
        #[expect(
            clippy::expect_used,
            reason = "every builder call takes generator-controlled inputs: unique names, positive dimensions, nets over two or more live cells, the density asserted above"
        )]
        let design = self
            .try_generate()
            .expect("generator produces valid designs");
        design
    }

    /// The body of [`Self::generate`], whose builder calls cannot fail.
    fn try_generate(&self) -> Result<Design, DesignError> {
        let mut rng = StdRng::seed_from_u64(self.seed);

        // --- cell dimensions -------------------------------------------------
        let rh = self.row_height;
        let std_dims: Vec<(f64, f64)> = (0..self.num_std_cells)
            .map(|_| {
                let w_sites: u32 = rng.random_range(3..=14);
                (w_sites as f64, rh)
            })
            .collect();
        // Movable-macro dimensions are capped against a preliminary core
        // estimate below (after std-cell dims are known) so small test
        // designs stay feasible.
        let mov_macro_dims_raw: Vec<(f64, f64)> = (0..self.num_movable_macros)
            .map(|_| {
                let w = rng.random_range(6.0..30.0) * rh / 2.0;
                let h = (rng.random_range(4u32..16) as f64) * rh;
                (w, h)
            })
            .collect();
        let prelim_std: f64 = std_dims.iter().map(|(w, h)| w * h).sum();
        let std_side = (prelim_std / self.utilization).sqrt();
        let mov_cap = (0.3 * std_side).max(2.0 * rh);
        let mov_macro_dims: Vec<(f64, f64)> = mov_macro_dims_raw
            .into_iter()
            .map(|(w, h)| (w.min(mov_cap), h.min(mov_cap)))
            .collect();
        // Cap obstacle dimensions at a quarter of a preliminary core-side
        // estimate so they always fit (and utilization comes out on target).
        let prelim_movable: f64 = std_dims.iter().map(|(w, h)| w * h).sum::<f64>()
            + mov_macro_dims.iter().map(|(w, h)| w * h).sum::<f64>();
        let prelim_side = (prelim_movable / self.utilization).sqrt();
        let dim_cap = (0.25 * prelim_side).max(2.0 * rh);
        let fix_macro_dims: Vec<(f64, f64)> = (0..self.num_fixed_macros)
            .map(|_| {
                let w = (rng.random_range(8.0f64..40.0) * rh / 2.0).min(dim_cap);
                let h = ((rng.random_range(6u32..24) as f64) * rh).min(dim_cap);
                (w, h)
            })
            .collect();

        let movable_area: f64 = std_dims.iter().map(|(w, h)| w * h).sum::<f64>()
            + mov_macro_dims.iter().map(|(w, h)| w * h).sum::<f64>();
        let obstacle_area: f64 = fix_macro_dims.iter().map(|(w, h)| w * h).sum();

        // Core sized so that movable area / free area == utilization, with
        // the height a whole number of rows.
        let free_area = movable_area / self.utilization;
        let core_area = free_area + obstacle_area;
        let side = core_area.sqrt();
        let num_rows = (side / rh).ceil().max(4.0);
        let core_h = num_rows * rh;
        let core_w = (core_area / core_h).ceil().max(4.0 * rh);
        let core = Rect::new(0.0, 0.0, core_w, core_h);

        let mut b = DesignBuilder::new(self.name.clone(), core, rh);
        b.set_target_density(self.target_density)?;

        // --- fixed macro obstacles (rejection-sampled, non-overlapping) ------
        let mut obstacles: Vec<Rect> = Vec::new();
        let mut fixed_ids: Vec<CellId> = Vec::new();
        for (i, &(w, h)) in fix_macro_dims.iter().enumerate() {
            if w >= 0.5 * core.width() || h >= 0.5 * core.height() {
                // Macro too large for this core; drop it (tiny test designs).
                continue;
            }
            let mut placed = None;
            for _ in 0..200 {
                let cx = rng.random_range(core.lx + w / 2.0..core.hx - w / 2.0);
                let cy = rng.random_range(core.ly + h / 2.0..core.hy - h / 2.0);
                let r = Rect::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0);
                // overlap_area returns exactly 0.0 for disjoint rectangles;
                // any positive value is an overlap.
                if obstacles.iter().all(|o| o.overlap_area(&r) == 0.0) {
                    placed = Some((cx, cy, r));
                    break;
                }
            }
            if let Some((cx, cy, r)) = placed {
                obstacles.push(r);
                let id =
                    b.add_fixed_cell(format!("fm{i}"), w, h, CellKind::Fixed, Point::new(cx, cy))?;
                fixed_ids.push(id);
            }
            // Unplaceable obstacles are silently dropped (core nearly full).
        }

        // --- pads on the periphery -------------------------------------------
        let mut pad_ids: Vec<CellId> = Vec::new();
        for i in 0..self.num_pads {
            let t = i as f64 / self.num_pads.max(1) as f64;
            let perim = 2.0 * (core.width() + core.height());
            let s = t * perim;
            let (x, y) = if s < core.width() {
                (core.lx + s, core.ly)
            } else if s < core.width() + core.height() {
                (core.hx, core.ly + (s - core.width()))
            } else if s < 2.0 * core.width() + core.height() {
                (core.hx - (s - core.width() - core.height()), core.hy)
            } else {
                (core.lx, core.hy - (s - 2.0 * core.width() - core.height()))
            };
            let id = b.add_fixed_cell(
                format!("pad{i}"),
                1.0,
                1.0,
                CellKind::Terminal,
                Point::new(x, y),
            )?;
            pad_ids.push(id);
        }

        // --- movable cells, with a hidden intended placement ------------------
        // Cells get "home" locations laid out in index order along a coarse
        // serpentine over the core; nets drawn from nearby homes create the
        // locality real netlists have.
        let mut movable_ids: Vec<CellId> = Vec::new();
        let mut homes: Vec<Point> = Vec::new();
        let n_mov = self.num_std_cells + self.num_movable_macros;
        let cols = (n_mov as f64).sqrt().ceil() as usize;
        for (i, &(w, h)) in std_dims.iter().chain(mov_macro_dims.iter()).enumerate() {
            let kind = if i < self.num_std_cells {
                CellKind::Movable
            } else {
                CellKind::MovableMacro
            };
            let name = if kind == CellKind::Movable {
                format!("c{i}")
            } else {
                format!("mm{}", i - self.num_std_cells)
            };
            let id = b.add_cell(name, w, h, kind)?;
            movable_ids.push(id);
            let col = i % cols;
            let row = i / cols;
            // Serpentine: odd rows run right-to-left.
            let col = if row % 2 == 1 { cols - 1 - col } else { col };
            let hx = core.lx + (col as f64 + 0.5) / cols as f64 * core.width();
            let hy = core.ly + (row as f64 + 0.5) / cols as f64 * core.height();
            homes.push(Point::new(hx.min(core.hx), hy.min(core.hy)));
        }

        // --- nets --------------------------------------------------------------
        let num_nets = ((n_mov as f64) * self.nets_per_cell).round() as usize;
        let window = (n_mov / 50).max(8);
        let mut connected = vec![false; n_mov];
        let movable_index: std::collections::HashMap<usize, usize> = movable_ids
            .iter()
            .enumerate()
            .map(|(k, id)| (id.index(), k))
            .collect();
        for ni in 0..num_nets {
            let degree = sample_degree(&mut rng);
            let seed_idx = rng.random_range(0..n_mov);
            let mut pins: Vec<(CellId, f64, f64)> = Vec::with_capacity(degree);
            let mut used = vec![seed_idx];
            pins.push(pin_on(
                &mut rng,
                movable_ids[seed_idx],
                cell_dims(i_dims(&std_dims, &mov_macro_dims, seed_idx)),
            ));
            while pins.len() < degree {
                // A small fraction of pins go to pads (boundary connections).
                if !pad_ids.is_empty() && rng.random_bool(0.03) {
                    let p = pad_ids[rng.random_range(0..pad_ids.len())];
                    pins.push((p, 0.0, 0.0));
                    continue;
                }
                let idx = if rng.random_bool(self.locality) {
                    // Nearby in the hidden intended placement (index window).
                    let lo = seed_idx.saturating_sub(window);
                    let hi = (seed_idx + window).min(n_mov - 1);
                    rng.random_range(lo..=hi)
                } else {
                    rng.random_range(0..n_mov)
                };
                if used.contains(&idx) {
                    continue;
                }
                used.push(idx);
                pins.push(pin_on(
                    &mut rng,
                    movable_ids[idx],
                    cell_dims(i_dims(&std_dims, &mov_macro_dims, idx)),
                ));
            }
            if pins.len() >= 2 {
                for &(cell, _, _) in &pins {
                    // movable_ids are contiguous and ordered after the fixed
                    // cells, so recover the movable index from the id.
                    if let Some(k) = movable_index.get(&cell.index()) {
                        connected[*k] = true;
                    }
                }
                b.add_net(format!("n{ni}"), 1.0, pins)?;
            }
        }

        // Real netlists have no floating cells: tie any cell the random
        // process missed to its serpentine neighbor (spatially local).
        for i in 0..n_mov {
            if connected[i] && n_mov > 1 {
                continue;
            }
            let j = if i + 1 < n_mov {
                i + 1
            } else {
                i.wrapping_sub(1)
            };
            if n_mov > 1 {
                b.add_net(
                    format!("nc{i}"),
                    1.0,
                    vec![(movable_ids[i], 0.0, 0.0), (movable_ids[j], 0.0, 0.0)],
                )?;
                connected[i] = true;
                connected[j] = true;
            }
        }

        // A few nets tie fixed macros into the netlist so they attract logic.
        for (i, &fid) in fixed_ids.iter().enumerate() {
            if n_mov == 0 {
                break;
            }
            let target = movable_ids[(i * 7919) % n_mov];
            b.add_net(
                format!("nf{i}"),
                1.0,
                vec![(fid, 0.0, 0.0), (target, 0.0, 0.0)],
            )?;
        }

        let _ = homes; // homes only shape net selection; placement is the placer's job
        b.build()
    }
}

fn i_dims<'a>(std_dims: &'a [(f64, f64)], mac_dims: &'a [(f64, f64)], i: usize) -> (f64, f64) {
    if i < std_dims.len() {
        std_dims[i]
    } else {
        mac_dims[i - std_dims.len()]
    }
}

fn cell_dims(d: (f64, f64)) -> (f64, f64) {
    d
}

fn pin_on(rng: &mut StdRng, id: CellId, (w, h): (f64, f64)) -> (CellId, f64, f64) {
    // Pin offsets inside the cell, from its center.
    let dx = rng.random_range(-0.4..0.4) * w;
    let dy = rng.random_range(-0.4..0.4) * h;
    (id, dx, dy)
}

/// Net degree distribution modeled on ISPD suites: most nets are 2–4 pins,
/// with a heavy tail up to ~32 pins.
fn sample_degree(rng: &mut StdRng) -> usize {
    let r: f64 = rng.random();
    if r < 0.55 {
        2
    } else if r < 0.75 {
        3
    } else if r < 0.87 {
        4
    } else if r < 0.95 {
        rng.random_range(5..=8)
    } else if r < 0.99 {
        rng.random_range(9..=16)
    } else {
        rng.random_range(17..=32)
    }
}

/// Named scaled-down counterparts of the paper's benchmark suites.
pub mod suite {
    use super::GeneratorConfig;

    /// The scale factor from the original instance sizes (the originals are
    /// 211K–2.18M cells; the synthetic counterparts divide by ~40).
    pub const SCALE_DIVISOR: usize = 40;

    /// ISPD-2005-like suite for Table 1: `(config, original module count)`.
    pub fn ispd2005() -> Vec<(GeneratorConfig, usize)> {
        let spec: [(&str, usize); 8] = [
            ("adaptec1-s", 211_447),
            ("adaptec2-s", 255_023),
            ("adaptec3-s", 451_650),
            ("adaptec4-s", 496_045),
            ("bigblue1-s", 278_164),
            ("bigblue2-s", 557_866),
            ("bigblue3-s", 1_096_812),
            ("bigblue4-s", 2_177_353),
        ];
        spec.iter()
            .enumerate()
            .map(|(i, &(name, orig))| {
                (
                    GeneratorConfig::ispd2005_like(name, 1000 + i as u64, orig / SCALE_DIVISOR),
                    orig,
                )
            })
            .collect()
    }

    /// ISPD-2006-like suite for Table 2 with the paper's target densities:
    /// `(config, original module count)`.
    pub fn ispd2006() -> Vec<(GeneratorConfig, usize)> {
        let spec: [(&str, usize, f64); 8] = [
            ("adaptec5-s", 843_128, 0.50),
            ("newblue1-s", 330_474, 0.80),
            ("newblue2-s", 441_516, 0.90),
            ("newblue3-s", 494_011, 0.80),
            ("newblue4-s", 646_139, 0.50),
            ("newblue5-s", 1_233_058, 0.50),
            ("newblue6-s", 1_255_039, 0.80),
            ("newblue7-s", 2_507_954, 0.80),
        ];
        spec.iter()
            .enumerate()
            .map(|(i, &(name, orig, gamma))| {
                (
                    GeneratorConfig::ispd2006_like(
                        name,
                        2000 + i as u64,
                        orig / (2 * SCALE_DIVISOR),
                        gamma,
                    ),
                    orig,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DesignStats;

    #[test]
    fn generation_is_deterministic() {
        let a = GeneratorConfig::small("d", 5).generate();
        let b = GeneratorConfig::small("d", 5).generate();
        assert_eq!(a.num_cells(), b.num_cells());
        assert_eq!(a.num_nets(), b.num_nets());
        assert_eq!(a.num_pins(), b.num_pins());
        // Spot-check a net's pins are identical.
        let n = a.net_ids().next().unwrap();
        assert_eq!(a.net_pins(n), b.net_pins(n));
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratorConfig::small("d", 5).generate();
        let b = GeneratorConfig::small("d", 6).generate();
        let na = a.net_ids().next().unwrap();
        assert!(a.net_pins(na) != b.net_pins(na) || a.num_nets() != b.num_nets());
    }

    #[test]
    fn utilization_close_to_requested() {
        let cfg = GeneratorConfig::small("u", 1);
        let d = cfg.generate();
        let s = DesignStats::for_design(&d);
        assert!(
            (s.utilization - cfg.utilization).abs() < 0.1,
            "utilization {} vs requested {}",
            s.utilization,
            cfg.utilization
        );
    }

    #[test]
    fn pads_on_periphery() {
        let d = GeneratorConfig::small("p", 2).generate();
        let core = d.core();
        for id in d.cell_ids() {
            if d.cell(id).kind() == CellKind::Terminal {
                let p = d.fixed_positions().position(id);
                let on_edge = (p.x - core.lx).abs() < 1e-9
                    || (p.x - core.hx).abs() < 1e-9
                    || (p.y - core.ly).abs() < 1e-9
                    || (p.y - core.hy).abs() < 1e-9;
                assert!(on_edge, "pad {id} at {p:?} not on core edge");
            }
        }
    }

    #[test]
    fn fixed_macros_disjoint() {
        let d = GeneratorConfig::small("f", 3).generate();
        let obstacles: Vec<_> = d
            .cell_ids()
            .filter(|&id| d.cell(id).kind() == CellKind::Fixed)
            .map(|id| {
                let c = d.cell(id);
                d.fixed_positions().cell_rect(id, c.width(), c.height())
            })
            .collect();
        for i in 0..obstacles.len() {
            for j in i + 1..obstacles.len() {
                assert_eq!(obstacles[i].overlap_area(&obstacles[j]), 0.0);
            }
        }
    }

    #[test]
    fn ispd2006_instances_have_movable_macros() {
        let cfg = GeneratorConfig::ispd2006_like("nb", 9, 3000, 0.8);
        let d = cfg.generate();
        let s = DesignStats::for_design(&d);
        assert!(s.num_movable_macros >= 6);
        assert_eq!(d.target_density(), 0.8);
    }

    #[test]
    fn suites_have_eight_instances_each() {
        assert_eq!(suite::ispd2005().len(), 8);
        assert_eq!(suite::ispd2006().len(), 8);
        // Densities match Table 2.
        let gammas: Vec<f64> = suite::ispd2006()
            .iter()
            .map(|(c, _)| c.target_density)
            .collect();
        assert_eq!(gammas, vec![0.5, 0.8, 0.9, 0.8, 0.5, 0.5, 0.8, 0.8]);
    }

    #[test]
    fn net_degrees_within_bounds() {
        let d = GeneratorConfig::small("deg", 11).generate();
        for n in d.net_ids() {
            let deg = d.net(n).degree();
            assert!((2..=32).contains(&deg), "degree {deg}");
        }
    }
}
