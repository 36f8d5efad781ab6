//! λ-schedule ablation (paper Section 6: "the improvements are due to the
//! refined convergence criterion and improved scheduling of λ"). Compares
//! Formula 12 (both Π-ratio readings) against SimPL's arithmetic growth and
//! plain geometric growth on the first half of the ISPD-2005-like suite.
//!
//! Usage: `cargo run --release -p complx-bench --bin ablation_lambda
//! [--scale N]`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::report::{fmt_hpwl_millions, fmt_seconds, Table};
use complx_bench::runs::{suite_2005, timed_run};
use complx_bench::{artifact_dir, geomean, scale_arg};
use complx_place::{ComplxPlacer, LambdaMode, PlacerConfig};

fn main() {
    let scale = scale_arg();
    let designs: Vec<_> = suite_2005(scale).into_iter().take(4).collect();

    let schedules: Vec<(&str, LambdaMode, bool)> = vec![
        (
            "Formula 12 (accelerating, default)",
            LambdaMode::Complx { h_factor: 20.0 },
            true,
        ),
        (
            "Formula 12 (literal Π ratio)",
            LambdaMode::Complx { h_factor: 20.0 },
            false,
        ),
        (
            "arithmetic (SimPL)",
            LambdaMode::Arithmetic { step: 50.0 },
            false,
        ),
        (
            "geometric 1.3x",
            LambdaMode::Geometric { ratio: 1.3 },
            false,
        ),
        (
            "geometric 2.0x",
            LambdaMode::Geometric { ratio: 2.0 },
            false,
        ),
    ];

    let mut table = Table::new(vec![
        "schedule",
        "geomean HPWL x1e6",
        "geomean s",
        "avg iters",
    ]);
    for (name, mode, inverse) in schedules {
        let mut hpwls = Vec::new();
        let mut secs = Vec::new();
        let mut iters = 0usize;
        for design in &designs {
            eprintln!("[ablation_lambda] {name} on {}", design.name());
            let (summary, _) = timed_run(design, |d| {
                ComplxPlacer::new(PlacerConfig {
                    lambda_mode: mode,
                    lambda_inverse_ratio: inverse,
                    ..PlacerConfig::default()
                })
                .place(d)
                .expect("placement failed")
            });
            hpwls.push(summary.hpwl);
            secs.push(summary.seconds);
            iters += summary.iterations;
        }
        table.add_row(vec![
            name.to_string(),
            fmt_hpwl_millions(geomean(&hpwls)),
            fmt_seconds(geomean(&secs)),
            format!("{:.1}", iters as f64 / designs.len() as f64),
        ]);
    }

    let rendered = table.render();
    println!("λ-schedule ablation over {} benchmarks", designs.len());
    println!("{rendered}");
    let path = artifact_dir()
        .expect("artifact directory must be creatable")
        .join("ablation_lambda.txt");
    std::fs::write(&path, rendered).expect("artifact write");
    eprintln!("[ablation_lambda] wrote {}", path.display());
}
