//! Regenerates **Figure 2**: macro shredding for the feasibility projection
//! `P_C` on NEWBLUE1 (synthetic counterpart `newblue1-s`) at an
//! intermediate placement — macro outlines (red) at the centers of gravity
//! of constituent shreds (green dots), standard cells as blue dots.
//!
//! Usage: `cargo run --release -p complx-bench --bin fig2_shredding
//! [--scale N]`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::svg::placement_snapshot;
use complx_bench::{artifact_dir, scale_arg};
use complx_place::{ComplxPlacer, PlacerConfig};
use complx_spread::shred::build_items;

fn main() {
    let scale = scale_arg();
    let mut cfg = complx_netlist::generator::suite::ispd2006()
        .into_iter()
        .nth(1)
        .expect("suite has 8 entries")
        .0;
    cfg.num_std_cells = (cfg.num_std_cells / scale.max(1)).max(400);
    let design = cfg.generate();
    eprintln!(
        "[fig2] placing {} ({} cells, {} movable macros)",
        design.name(),
        design.num_cells(),
        design
            .movable_cells()
            .iter()
            .filter(|&&id| design.cell(id).kind() == complx_netlist::CellKind::MovableMacro)
            .count()
    );

    // Stop mid-run for an intermediate placement, as in the paper's figure.
    let placer_cfg = PlacerConfig {
        max_iterations: 12,
        gap_tolerance: 0.0,
        overflow_tolerance: 0.0,
        stagnation_window: usize::MAX,
        final_detail: false,
        ..PlacerConfig::default()
    };
    let outcome = ComplxPlacer::new(placer_cfg)
        .place(&design)
        .expect("placement failed");

    let shreds = build_items(&design, &outcome.upper, true);
    let svg = placement_snapshot(&design, &outcome.upper, Some(&shreds), 800.0);
    let dir = artifact_dir().expect("artifact directory must be creatable");
    let path = dir.join("fig2_shredding.svg");
    std::fs::write(&path, svg).expect("artifact write");
    println!(
        "Figure 2 — intermediate mixed-size placement of {} after {} iterations",
        design.name(),
        outcome.iterations
    );
    println!(
        "macros are drawn as red outlines, their shreds as green dots, std cells blue; wrote {}",
        path.display()
    );
}
