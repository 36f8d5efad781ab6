//! Regenerates **Figure 4** (Section S5): a hard region constraint imposed
//! on 50 cells that were initially placed unconstrained. The resulting
//! ComPLx placement satisfies the constraint, and — the paper's surprising
//! observation — HPWL does not degrade (143.55 → 142.70 in the paper's
//! units; we report the analogous before/after pair).
//!
//! Usage: `cargo run --release -p complx-bench --bin fig4_regions`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::artifact_dir;
use complx_bench::svg::placement_snapshot;
use complx_netlist::{
    generator::GeneratorConfig, hpwl, CellKind, DesignBuilder, Rect, RegionConstraint,
};
use complx_place::{ComplxPlacer, PlacerConfig};

fn main() {
    let mut gen_cfg = GeneratorConfig::small("fig4", 404);
    gen_cfg.num_std_cells = 1500;
    let base = gen_cfg.generate();

    // Unconstrained placement first. Compare like with like: both runs
    // are read off the upper-bound (feasible) iterate, since region
    // enforcement lives in the projection and the detail pass is not
    // region-aware.
    let uncon_cfg = PlacerConfig {
        final_detail: false,
        ..PlacerConfig::default()
    };
    let unconstrained = ComplxPlacer::new(uncon_cfg)
        .place(&base)
        .expect("placement failed");
    let hpwl_before = hpwl::hpwl(&base, &unconstrained.upper);

    // Pick 50 cells currently scattered around the middle of the layout
    // and constrain them to a rectangle in the lower-left quadrant.
    let core = base.core();
    let region_rect = Rect::new(
        core.lx + 0.05 * core.width(),
        core.ly + 0.05 * core.height(),
        core.lx + 0.35 * core.width(),
        core.ly + 0.35 * core.height(),
    );
    // The paper's figure constrains a logically related group; the closest
    // analogue in a synthetic netlist is the 50 cells that the
    // unconstrained placement already put nearest the region (a cluster
    // that belongs together spatially).
    let center = region_rect.center();
    let mut by_distance: Vec<_> = base
        .movable_cells()
        .iter()
        .copied()
        .filter(|&id| base.cell(id).kind() == CellKind::Movable)
        .collect();
    by_distance.sort_by(|&a, &b| {
        let da = unconstrained.upper.position(a).l1_distance(center);
        let db = unconstrained.upper.position(b).l1_distance(center);
        da.partial_cmp(&db).expect("finite distances")
    });
    let chosen: Vec<_> = by_distance.into_iter().take(50).collect();

    // Derive the design with the region attached.
    let mut b = DesignBuilder::from_design(&base);
    b.add_region(RegionConstraint::new("fig4", region_rect, chosen.clone()));
    let constrained_design = b.build().expect("valid design");

    let cfg = PlacerConfig {
        final_detail: false, // detail moves are not region-aware
        ..PlacerConfig::default()
    };
    let constrained = ComplxPlacer::new(cfg)
        .place(&constrained_design)
        .expect("placement failed");
    let hpwl_after = hpwl::hpwl(&constrained_design, &constrained.upper);
    // The independent oracle's region audit, not the projection's own
    // predicate, decides whether the constraint holds.
    let (_, violations) =
        complx_oracle::check_solution(&constrained_design, &constrained.upper, 1e-6);
    let satisfied = !violations.iter().any(|v| v.code == "solution-region");

    println!("Figure 4 — hard region constraint on 50 cells");
    println!("constraint satisfied: {satisfied}");
    println!("HPWL unconstrained (upper bound): {hpwl_before:.2}");
    println!("HPWL with region (upper bound): {hpwl_after:.2}");
    println!(
        "ratio: {:.4} (paper observes the constrained HPWL can even improve)",
        hpwl_after / hpwl_before
    );
    assert!(satisfied, "region constraint must be satisfied");

    // Render before/after with the region rectangle and constrained cells
    // highlighted.
    let dir = artifact_dir();
    for (tag, design, placement) in [
        ("before", &base, &unconstrained.upper),
        ("after", &constrained_design, &constrained.upper),
    ] {
        let mut svg = placement_snapshot(design, placement, None, 600.0);
        // Inject the region rectangle and the constrained cells' positions.
        let mut extra = String::new();
        let sx = |x: f64| (x - core.lx) / core.width() * 600.0;
        let sy = |y: f64| {
            600.0 * core.height() / core.width()
                - (y - core.ly) / core.height() * (600.0 * core.height() / core.width())
        };
        extra.push_str(&format!(
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="none" stroke="#dd8800" stroke-width="2"/>"##,
            sx(region_rect.lx),
            sy(region_rect.hy),
            sx(region_rect.hx) - sx(region_rect.lx),
            sy(region_rect.ly) - sy(region_rect.hy)
        ));
        for &id in &chosen {
            let p = placement.position(id);
            extra.push_str(&format!(
                r##"<circle cx="{:.1}" cy="{:.1}" r="2.5" fill="#dd8800"/>"##,
                sx(p.x),
                sy(p.y)
            ));
        }
        svg = svg.replace("</svg>", &format!("{extra}</svg>"));
        let path = dir.join(format!("fig4_regions_{tag}.svg"));
        std::fs::write(&path, svg).expect("artifact write");
        eprintln!("[fig4] wrote {}", path.display());
    }
}
