//! Regenerates **Table 1** of the ComPLx paper: legal HPWL (×10e6) and
//! total runtime (minutes in the paper; seconds here) on the ISPD-2005-like
//! suite, for three ComPLx configurations — *Finest Grid*,
//! *`P_C` += FastPlace-DP*, and *Default Config.* — against the
//! best-published stand-in (the better of the SimPL and RQL baselines per
//! instance, as in the paper's "Best published" column).
//!
//! Usage: `cargo run --release -p complx-bench --bin table1 [--scale N]`
//! (instance sizes are divided by 40·N; N=1 reproduces the full synthetic
//! suite).

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::report::{fmt_hpwl_millions, fmt_seconds, Table};
use complx_bench::runs::{reported_run, suite_2005, timed_run};
use complx_bench::{artifact_dir, geomean, scale_arg};
use complx_place::{ComplxPlacer, PlacerConfig};

fn main() {
    let scale = scale_arg();
    let designs = suite_2005(scale);
    let mut table = Table::new(vec![
        "benchmark",
        "cells",
        "best-publ HPWL",
        "(placer)",
        "finest HPWL",
        "finest s",
        "Pc+DP HPWL",
        "Pc+DP s",
        "default HPWL",
        "default s",
    ]);

    let mut gm: Vec<Vec<f64>> = vec![Vec::new(); 8]; // per numeric column
    for design in &designs {
        eprintln!(
            "[table1] placing {} ({} cells)",
            design.name(),
            design.num_cells()
        );
        let (simpl, _) = timed_run(design, |d| {
            ComplxPlacer::new(PlacerConfig::simpl())
                .place(d)
                .expect("placement failed")
        });
        let (rql, _) = timed_run(design, |d| {
            ComplxPlacer::new(PlacerConfig::rql_like())
                .place(d)
                .expect("placement failed")
        });
        let (best_hpwl, best_name) = if simpl.hpwl <= rql.hpwl {
            (simpl.hpwl, "SimPL")
        } else {
            (rql.hpwl, "RQL")
        };

        // The three ComPLx columns take their runtimes from the RunReport's
        // instrumented `place` phase, not a re-measured wall clock.
        let finest_cfg = PlacerConfig::finest_grid();
        let (finest, _, _) = reported_run(design, Some(&finest_cfg), |d| {
            ComplxPlacer::new(finest_cfg.clone())
                .place(d)
                .expect("placement failed")
        });
        let pcdp_cfg = PlacerConfig::projection_with_detail();
        let (pcdp, _, _) = reported_run(design, Some(&pcdp_cfg), |d| {
            ComplxPlacer::new(pcdp_cfg.clone())
                .place(d)
                .expect("placement failed")
        });
        let default_cfg = PlacerConfig::default();
        let (default, _, _) = reported_run(design, Some(&default_cfg), |d| {
            ComplxPlacer::new(default_cfg.clone())
                .place(d)
                .expect("placement failed")
        });

        let cols = [
            best_hpwl,
            finest.hpwl,
            finest.seconds,
            pcdp.hpwl,
            pcdp.seconds,
            default.hpwl,
            default.seconds,
        ];
        for (i, &v) in cols.iter().enumerate() {
            gm[i].push(v);
        }
        table.add_row(vec![
            design.name().to_string(),
            format!("{}", design.num_cells()),
            fmt_hpwl_millions(best_hpwl),
            format!("({best_name})"),
            fmt_hpwl_millions(finest.hpwl),
            fmt_seconds(finest.seconds),
            fmt_hpwl_millions(pcdp.hpwl),
            fmt_seconds(pcdp.seconds),
            fmt_hpwl_millions(default.hpwl),
            fmt_seconds(default.seconds),
        ]);
    }

    // Geomean row, normalized to the default config as 1.00× (the paper
    // normalizes each column to its own geomean base).
    let base_hpwl = geomean(&gm[5]);
    let base_time = geomean(&gm[6]);
    table.add_row(vec![
        "geomean".to_string(),
        String::new(),
        format!("{:.3}x", geomean(&gm[0]) / base_hpwl),
        String::new(),
        format!("{:.3}x", geomean(&gm[1]) / base_hpwl),
        format!("{:.2}x", geomean(&gm[2]) / base_time),
        format!("{:.3}x", geomean(&gm[3]) / base_hpwl),
        format!("{:.2}x", geomean(&gm[4]) / base_time),
        "1.000x".to_string(),
        "1.00x".to_string(),
    ]);

    let rendered = table.render();
    println!(
        "Table 1 — ISPD-2005-like suite (scale divisor {})",
        40 * scale
    );
    println!("{rendered}");
    let path = artifact_dir()
        .expect("artifact directory must be creatable")
        .join("table1.txt");
    std::fs::write(&path, &rendered).expect("artifact write");
    eprintln!("[table1] wrote {}", path.display());
}
