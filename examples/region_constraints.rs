//! Hard region constraints (paper Section S5): a subset of cells is
//! confined to a rectangle by snapping inside the feasibility projection at
//! every iteration; the snapped locations anchor the next analytic solve.
//!
//! ```text
//! cargo run --release --example region_constraints
//! ```

use complx_netlist::{generator::GeneratorConfig, CellKind, DesignBuilder, Rect, RegionConstraint};
use complx_place::{ComplxPlacer, PlacerConfig};
use complx_spread::regions::regions_satisfied;

fn main() {
    // Build a design, then derive one with a clock-domain-style region
    // holding 40 cells in the top-right quadrant.
    let base = GeneratorConfig::small("regions", 21).generate();
    let core = base.core();
    let region_rect = Rect::new(
        core.lx + 0.6 * core.width(),
        core.ly + 0.6 * core.height(),
        core.hx,
        core.hy,
    );
    let constrained_cells: Vec<_> = base
        .movable_cells()
        .iter()
        .copied()
        .filter(|&id| base.cell(id).kind() == CellKind::Movable)
        .take(40)
        .collect();

    let mut b = DesignBuilder::from_design(&base);
    b.add_region(RegionConstraint::new(
        "clk_domain",
        region_rect,
        constrained_cells.clone(),
    ));
    let design = b.build().expect("valid design");

    let cfg = PlacerConfig {
        final_detail: false, // the detail pass is not region-aware
        ..PlacerConfig::default()
    };
    let outcome = ComplxPlacer::new(cfg)
        .place(&design)
        .expect("placement failed");

    println!(
        "region `clk_domain` covers {:.0}% of the core and holds {} cells",
        100.0 * region_rect.area() / core.area(),
        constrained_cells.len()
    );
    println!(
        "constraint satisfied: {}",
        regions_satisfied(&design, &outcome.upper)
    );
    for &id in constrained_cells.iter().take(5) {
        let p = outcome.upper.position(id);
        println!(
            "  {} at ({:.1}, {:.1}) — inside: {}",
            design.cell(id).name(),
            p.x,
            p.y,
            region_rect.contains(p)
        );
    }
    println!("legal {}", outcome.metrics);
    assert!(regions_satisfied(&design, &outcome.upper));
}
