//! Grid-resolution ablation (paper Section 6): "coarsening the grid speeds
//! up `P_C` without undermining solution quality. Thus, no interconnect
//! optimization during `P_C` is required." We sweep fixed grid fractions
//! and the default coarse-to-fine schedule on `adaptec1-s`.
//!
//! Usage: `cargo run --release -p complx-bench --bin ablation_grid
//! [--scale N]`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::report::{fmt_hpwl_millions, fmt_seconds, Table};
use complx_bench::runs::{suite_2005, timed_run};
use complx_bench::{artifact_dir, scale_arg};
use complx_place::{ComplxPlacer, GridSchedule, PlacerConfig};

fn main() {
    let scale = scale_arg();
    let design = suite_2005(scale)
        .into_iter()
        .next()
        .expect("suite non-empty");
    eprintln!(
        "[ablation_grid] {} ({} cells)",
        design.name(),
        design.num_cells()
    );

    let mut table = Table::new(vec!["grid schedule", "HPWL x1e6", "seconds", "iterations"]);
    let configs: Vec<(String, GridSchedule)> = vec![
        (
            "coarse-to-fine (default)".into(),
            GridSchedule::CoarseToFine {
                start_fraction: 0.25,
                growth: 1.2,
            },
        ),
        ("fixed 25%".into(), GridSchedule::Fixed { fraction: 0.25 }),
        ("fixed 50%".into(), GridSchedule::Fixed { fraction: 0.5 }),
        (
            "fixed 100% (finest)".into(),
            GridSchedule::Fixed { fraction: 1.0 },
        ),
    ];
    for (name, grid) in configs {
        let (summary, _) = timed_run(&design, |d| {
            ComplxPlacer::new(PlacerConfig {
                grid,
                ..PlacerConfig::default()
            })
            .place(d)
            .expect("placement failed")
        });
        table.add_row(vec![
            name,
            fmt_hpwl_millions(summary.hpwl),
            fmt_seconds(summary.seconds),
            format!("{}", summary.iterations),
        ]);
    }

    let rendered = table.render();
    println!(
        "Grid ablation on {} — coarse grids should not hurt quality",
        design.name()
    );
    println!("{rendered}");
    let path = artifact_dir()
        .expect("artifact directory must be creatable")
        .join("ablation_grid.txt");
    std::fs::write(&path, rendered).expect("artifact write");
    eprintln!("[ablation_grid] wrote {}", path.display());
}
