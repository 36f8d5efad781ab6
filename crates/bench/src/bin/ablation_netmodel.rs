//! Interconnect-model ablation (paper Section S1: "any one of these
//! approximations can be used in ComPLx"): runs the same placer with the
//! Bound2Bound, clique, hybrid clique/star quadratic decompositions and the
//! log-sum-exp model, on two benchmarks.
//!
//! Usage: `cargo run --release -p complx-bench --bin ablation_netmodel
//! [--scale N]`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::report::{fmt_hpwl_millions, fmt_seconds, Table};
use complx_bench::runs::{run, suite_2005};
use complx_bench::{artifact_dir, scale_arg};
use complx_place::{Interconnect, PlacerConfig};
use complx_wirelength::NetModel;

fn main() {
    let scale = scale_arg();
    let designs: Vec<_> = suite_2005(scale).into_iter().take(2).collect();

    let models: Vec<(&str, Interconnect)> = vec![
        (
            "quadratic B2B (default)",
            Interconnect::Quadratic(NetModel::Bound2Bound),
        ),
        (
            "quadratic clique",
            Interconnect::Quadratic(NetModel::Clique),
        ),
        (
            "quadratic hybrid",
            Interconnect::Quadratic(NetModel::HybridCliqueStar),
        ),
        (
            "log-sum-exp γ=4 rows",
            Interconnect::LogSumExp { gamma_rows: 4.0 },
        ),
        (
            "β-regularized β=1 row²",
            Interconnect::BetaRegularized { beta_rows2: 1.0 },
        ),
        ("p,β-regularized p=8", Interconnect::PNorm { p: 8.0 }),
    ];

    let mut table = Table::new(vec!["model", "benchmark", "HPWL x1e6", "seconds", "iters"]);
    for design in &designs {
        for (name, interconnect) in &models {
            eprintln!("[ablation_netmodel] {name} on {}", design.name());
            let cfg = PlacerConfig {
                interconnect: *interconnect,
                ..PlacerConfig::default()
            };
            let (summary, _) = run(design, &cfg).expect("placement failed");
            table.add_row(vec![
                name.to_string(),
                design.name().to_string(),
                fmt_hpwl_millions(summary.hpwl),
                fmt_seconds(summary.seconds),
                format!("{}", summary.iterations),
            ]);
        }
    }

    let rendered = table.render();
    println!("Interconnect-model ablation (§S1)");
    println!("{rendered}");
    let path = artifact_dir()
        .expect("artifact directory must be creatable")
        .join("ablation_netmodel.txt");
    std::fs::write(&path, rendered).expect("artifact write");
    eprintln!("[ablation_netmodel] wrote {}", path.display());
}
