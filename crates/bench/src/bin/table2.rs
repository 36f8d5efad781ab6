//! Regenerates **Table 2** of the ComPLx paper: scaled HPWL (×10e6) with
//! density-overflow penalties (in parentheses) on the ISPD-2006-like suite
//! (movable macros + per-instance target densities).
//!
//! Column mapping (see DESIGN.md §3): the paper compares NTUPlace3, mPL6
//! and RQL; this reproduction fields its FastPlace-like baseline in the
//! weaker-reference role (NTUPlace3/mPL6 column), plus the SimPL
//! configuration and the RQL-like baseline.
//!
//! Usage: `cargo run --release -p complx-bench --bin table2 [--scale N]`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::report::{fmt_hpwl_millions, Table};
use complx_bench::runs::{suite_2006, timed_run};
use complx_bench::{artifact_dir, geomean, scale_arg};
use complx_place::{ComplxPlacer, PlacerConfig};

fn main() {
    let scale = scale_arg();
    let designs = suite_2006(scale);
    let mut table = Table::new(vec![
        "benchmark (γ)",
        "cells",
        "FastPlace-like",
        "SimPL-cfg",
        "RQL-like",
        "ComPLx",
        "ComPLx time s",
    ]);

    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut penalties: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut seconds = Vec::new();
    for design in &designs {
        eprintln!(
            "[table2] placing {} ({} cells, γ={})",
            design.name(),
            design.num_cells(),
            design.target_density()
        );
        let run = |cfg: PlacerConfig| {
            timed_run(design, |d| {
                ComplxPlacer::new(cfg).place(d).expect("placement failed")
            })
            .0
        };
        let fp = run(PlacerConfig::fastplace_like());
        let sp = run(PlacerConfig::simpl());
        let rq = run(PlacerConfig::rql_like());
        let cx = run(PlacerConfig::default());
        for (i, s) in [&fp, &sp, &rq, &cx].iter().enumerate() {
            scaled[i].push(s.scaled_hpwl);
            penalties[i].push(s.overflow_percent);
        }
        seconds.push(cx.seconds);
        let fmt = |s: &complx_bench::runs::RunSummary| {
            format!(
                "{} ({:.2})",
                fmt_hpwl_millions(s.scaled_hpwl),
                s.overflow_percent
            )
        };
        table.add_row(vec![
            format!("{} ({})", design.name(), design.target_density()),
            format!("{}", design.num_cells()),
            fmt(&fp),
            fmt(&sp),
            fmt(&rq),
            fmt(&cx),
            format!("{:.2}", cx.seconds),
        ]);
    }

    let base = geomean(&scaled[3]);
    let mean_pen = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    table.add_row(vec![
        "geomean".to_string(),
        String::new(),
        format!(
            "{:.3}x ({:.2})",
            geomean(&scaled[0]) / base,
            mean_pen(&penalties[0])
        ),
        format!(
            "{:.3}x ({:.2})",
            geomean(&scaled[1]) / base,
            mean_pen(&penalties[1])
        ),
        format!(
            "{:.3}x ({:.2})",
            geomean(&scaled[2]) / base,
            mean_pen(&penalties[2])
        ),
        format!("1.000x ({:.2})", mean_pen(&penalties[3])),
        format!("{:.2}", geomean(&seconds)),
    ]);

    let rendered = table.render();
    println!(
        "Table 2 — ISPD-2006-like suite, scaled HPWL with overflow penalty (scale divisor {})",
        80 * scale
    );
    println!("{rendered}");
    let path = artifact_dir()
        .expect("artifact directory must be creatable")
        .join("table2.txt");
    std::fs::write(&path, &rendered).expect("artifact write");
    eprintln!("[table2] wrote {}", path.display());
}
