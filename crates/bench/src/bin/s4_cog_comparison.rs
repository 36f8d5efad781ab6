//! §S4 comparison: ComPLx's approximate-projection primal-dual vs. the
//! GORDIAN-style center-of-gravity (CoG) constrained primal-dual of Alpert
//! et al. — "being convex and linear, [CoG constraints] are insufficient to
//! handle modern IC layouts."
//!
//! The CoG placer is [`PlacerConfig::cog_constrained`]: the same λ loop
//! with the CoG constraint set as `P_C`.
//!
//! The point is not only HPWL: on a design with fixed obstacles, CoG
//! constraints cannot express "do not place on the obstacle", so the CoG
//! placer's iterates leave cell area on blockages that legalization must
//! then clear at a displacement/HPWL cost, while ComPLx's projection
//! handles the obstacles natively. The table reports that area on both
//! iterates: the last analytic (lower-bound) one and the best feasible
//! one, which legalization starts from.
//!
//! Exits 1 unless ComPLx's legal HPWL is below the CoG placer's on every
//! design.
//!
//! Usage: `cargo run --release -p complx-bench --bin s4_cog_comparison
//! [--scale N]`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::report::{fmt_hpwl_millions, fmt_seconds, Table};
use complx_bench::runs::{run, suite_2005};
use complx_bench::{artifact_dir, scale_arg};
use complx_netlist::{CellKind, Design, Placement};
use complx_place::PlacerConfig;

/// Movable-cell area overlapping fixed obstacles (what CoG cannot avoid).
fn area_on_obstacles(design: &Design, placement: &Placement) -> f64 {
    let obstacles: Vec<_> = design
        .cell_ids()
        .filter(|&id| design.cell(id).kind() == CellKind::Fixed)
        .map(|id| {
            let c = design.cell(id);
            design
                .fixed_positions()
                .cell_rect(id, c.width(), c.height())
        })
        .collect();
    design
        .movable_cells()
        .iter()
        .map(|&id| {
            let c = design.cell(id);
            let r = placement.cell_rect(id, c.width(), c.height());
            obstacles.iter().map(|o| o.overlap_area(&r)).sum::<f64>()
        })
        .sum()
}

fn main() {
    let scale = scale_arg();
    let designs: Vec<_> = suite_2005(scale).into_iter().take(3).collect();
    let mut table = Table::new(vec![
        "benchmark",
        "placer",
        "legal HPWL x1e6",
        "seconds",
        "analytic iterate area on obstacles",
        "feasible iterate area on obstacles",
    ]);
    let mut losses = Vec::new();
    for design in &designs {
        eprintln!("[s4] {}", design.name());
        let place = |cfg: PlacerConfig| {
            let (summary, arts) = run(design, &cfg).expect("placement failed");
            (summary, arts.outcome)
        };
        let (cx, cx_out) = place(PlacerConfig::default());
        let (cog, cog_out) = place(PlacerConfig::cog_constrained());
        if cx.hpwl >= cog.hpwl {
            losses.push(format!("{}: {} vs {}", design.name(), cx.hpwl, cog.hpwl));
        }
        table.add_row(vec![
            design.name().to_string(),
            "ComPLx".to_string(),
            fmt_hpwl_millions(cx.hpwl),
            fmt_seconds(cx.seconds),
            format!("{:.0}", area_on_obstacles(design, &cx_out.lower)),
            format!("{:.0}", area_on_obstacles(design, &cx_out.upper)),
        ]);
        table.add_row(vec![
            String::new(),
            "CoG-constrained (GORDIAN-style)".to_string(),
            fmt_hpwl_millions(cog.hpwl),
            fmt_seconds(cog.seconds),
            format!("{:.0}", area_on_obstacles(design, &cog_out.lower)),
            format!("{:.0}", area_on_obstacles(design, &cog_out.upper)),
        ]);
    }
    let rendered = table.render();
    println!("§S4 — ComPLx vs. CoG-constrained primal-dual (GORDIAN-style)");
    println!("{rendered}");
    println!(
        "CoG constraints are linear equalities: they spread globally but are blind to\n\
         obstacles and density, which shows up as movable area left on blockages."
    );
    let path = artifact_dir()
        .expect("artifact directory must be creatable")
        .join("s4_cog_comparison.txt");
    std::fs::write(&path, rendered).expect("artifact write");
    eprintln!("[s4] wrote {}", path.display());
    if !losses.is_empty() {
        eprintln!("[s4] ComPLx does not beat CoG on {}", losses.join("; "));
        std::process::exit(1);
    }
}
