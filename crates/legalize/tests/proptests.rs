//! Property-based tests for legalization and detailed placement.

use complx_legalize::{
    is_legal, legality_report, legalize_macros, DetailedPlacer, Legalizer, RowLayout,
};
use complx_netlist::{generator::GeneratorConfig, hpwl, Placement, Point};
use proptest::prelude::*;

/// A deterministic pseudo-random spread of movable cells across the core.
fn scatter(design: &complx_netlist::Design, salt: u64) -> Placement {
    let core = design.core();
    let mut p = design.initial_placement();
    for (i, &id) in design.movable_cells().iter().enumerate() {
        let k = i as u64 + salt;
        let fx = ((k.wrapping_mul(2654435761)) % 1000) as f64 / 1000.0;
        let fy = ((k.wrapping_mul(40503)) % 1000) as f64 / 1000.0;
        p.set_position(
            id,
            Point::new(core.lx + fx * core.width(), core.ly + fy * core.height()),
        );
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The legalizer always produces a legal placement from any scattered
    /// start on std-cell designs.
    #[test]
    fn legalizer_always_produces_legal_output(seed in 0u64..40, salt in 0u64..1000) {
        let mut cfg = GeneratorConfig::small("lp", seed);
        cfg.num_std_cells = 150;
        cfg.num_pads = 8;
        let d = cfg.generate();
        let start = scatter(&d, salt);
        let res = Legalizer::default().legalize(&d, &start);
        prop_assert_eq!(res.failures, 0);
        let rep = legality_report(&d, &res.placement);
        prop_assert!(rep.is_legal(1e-6), "{rep:?}");
    }

    /// Legalization displacement is bounded: no cell teleports across the
    /// whole chip when the start is already spread out.
    #[test]
    fn legalization_displacement_reasonable(seed in 0u64..25) {
        let mut cfg = GeneratorConfig::small("ld", seed);
        cfg.num_std_cells = 150;
        cfg.num_pads = 8;
        let d = cfg.generate();
        let start = scatter(&d, seed);
        let res = Legalizer::default().legalize(&d, &start);
        let per_cell = res.displacement / d.movable_cells().len() as f64;
        let diag = d.core().width() + d.core().height();
        prop_assert!(per_cell < 0.35 * diag, "avg displacement {per_cell} vs diag {diag}");
    }

    /// The detailed placer never increases HPWL and preserves legality.
    #[test]
    fn detail_is_monotone_and_legal(seed in 0u64..25) {
        let mut cfg = GeneratorConfig::small("dm", seed);
        cfg.num_std_cells = 120;
        cfg.num_pads = 8;
        let d = cfg.generate();
        let legal = Legalizer::default().legalize(&d, &scatter(&d, seed)).placement;
        let before = hpwl::weighted_hpwl(&d, &legal);
        let res = DetailedPlacer::default().improve(&d, legal, None);
        prop_assert!(res.stats.hpwl_after <= before + 1e-6);
        prop_assert!(is_legal(&d, &res.placement, 1e-6));
    }

    /// Macro legalization makes mixed-size placements overlap-free.
    #[test]
    fn macro_legalization_resolves_overlaps(seed in 0u64..25) {
        let d = GeneratorConfig::ispd2006_like("ml", seed, 500, 0.7).generate();
        let mut p = d.initial_placement();
        let (rects, unplaced) = legalize_macros(&d, &mut p);
        prop_assert_eq!(unplaced, 0);
        for i in 0..rects.len() {
            for j in i + 1..rects.len() {
                prop_assert!(rects[i].overlap_area(&rects[j]) < 1e-6);
            }
        }
    }

    /// Rows never overlap obstacles: every segment of every row is disjoint
    /// from every fixed cell's footprint.
    #[test]
    fn row_segments_avoid_obstacles(seed in 0u64..25) {
        let mut cfg = GeneratorConfig::small("ro", seed);
        cfg.num_std_cells = 80;
        let d = cfg.generate();
        let rows = RowLayout::new(&d, &[]);
        let obstacles: Vec<_> = d
            .cell_ids()
            .filter(|&id| d.cell(id).kind() == complx_netlist::CellKind::Fixed)
            .map(|id| {
                let c = d.cell(id);
                d.fixed_positions().cell_rect(id, c.width(), c.height())
            })
            .collect();
        for r in 0..rows.num_rows() {
            let y0 = rows.row_bottom(r);
            let y1 = y0 + rows.row_height();
            for seg in rows.segments(r) {
                let seg_rect = complx_netlist::Rect::new(seg.lx, y0, seg.hx, y1);
                for o in &obstacles {
                    prop_assert!(
                        seg_rect.overlap_area(o) < 1e-6,
                        "segment {seg:?} in row {r} overlaps obstacle {o:?}"
                    );
                }
            }
        }
    }
}
