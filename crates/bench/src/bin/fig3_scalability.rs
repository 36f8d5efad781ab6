//! Regenerates **Figure 3** (and the Section S3 discussion): the final λ
//! and the total number of ComPLx iterations against the number of nets,
//! over all 16 benchmarks of both suites. The paper's claims: both stay
//! bounded — no systematic growth with instance size — and per-iteration
//! runtime is near-linear.
//!
//! Usage: `cargo run --release -p complx-bench --bin fig3_scalability
//! [--scale N]`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::report::Table;
use complx_bench::runs::{run, suite_2005, suite_2006};
use complx_bench::svg::xy_plot;
use complx_bench::{artifact_dir, scale_arg};
use complx_place::{PlacerConfig, SolveArtifacts};

fn main() {
    let scale = scale_arg();
    let mut designs = suite_2005(scale);
    designs.extend(suite_2006(scale));

    let mut table = Table::new(vec![
        "benchmark",
        "nets",
        "iterations",
        "final lambda",
        "global s",
        "s per iter per knet",
    ]);
    let mut lambda_pts = Vec::new();
    let mut iter_pts = Vec::new();
    let mut secs_pts: Vec<(f64, f64)> = Vec::new();
    let mut csv = String::from("benchmark,nets,iterations,final_lambda,global_seconds\n");
    for design in &designs {
        eprintln!(
            "[fig3] placing {} ({} nets)",
            design.name(),
            design.num_nets()
        );
        let (summary, SolveArtifacts { outcome, report }) =
            run(design, &PlacerConfig::default()).expect("placement failed");
        let nets = design.num_nets() as f64;
        // Global-placement time from the instrumented phase breakdown:
        // the bootstrap solves plus every λ iteration, excluding the final
        // legalization and detailed placement.
        let global_secs = {
            let s =
                report.phase_seconds("place/bootstrap") + report.phase_seconds("place/iteration");
            if s > 0.0 {
                s
            } else {
                outcome.global_seconds
            }
        };
        lambda_pts.push((nets, summary.final_lambda.max(1e-6)));
        iter_pts.push((nets, summary.iterations as f64));
        secs_pts.push((nets, global_secs));
        let per_unit = report.phase_seconds("place/iteration").max(1e-9)
            / summary.iterations.max(1) as f64
            / (nets / 1000.0);
        table.add_row(vec![
            summary.name.clone(),
            format!("{}", design.num_nets()),
            format!("{}", summary.iterations),
            format!("{:.3}", summary.final_lambda),
            format!("{global_secs:.2}"),
            format!("{per_unit:.4}"),
        ]);
        csv.push_str(&format!(
            "{},{},{},{:.6},{:.3}\n",
            summary.name,
            design.num_nets(),
            summary.iterations,
            summary.final_lambda,
            global_secs
        ));
    }

    let rendered = table.render();
    println!("Figure 3 / §S3 — final λ and iteration counts vs number of nets");
    println!("{rendered}");
    // Runtime exponent: least-squares slope of log(seconds) vs log(nets).
    // The paper estimates FastPlace at Θ(n^1.38) and ComPLx as near-linear.
    let pts: Vec<(f64, f64)> = iter_pts
        .iter()
        .zip(&secs_pts)
        .map(|(&(n, _), &(_, s))| (n.ln(), s.max(1e-6).ln()))
        .collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    println!(
        "runtime scaling exponent (log-log fit): n^{slope:.2}          (paper: near-linear for ComPLx; FastPlace ~n^1.38)"
    );
    // Bounded-growth check: iterations of the largest instance within 3x of
    // the smallest's.
    let min_it = iter_pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let max_it = iter_pts.iter().map(|p| p.1).fold(0.0f64, f64::max);
    println!("iteration range {min_it:.0}..{max_it:.0} (paper: no systematic growth with size)");

    // Thread-scaling spot check on the largest instance: global-placement
    // wall clock at 1 vs 4 worker threads (identical results by the
    // complx-par determinism contract; on a single-core host this simply
    // reports the parallel runtime's overhead).
    if let Some(largest) = designs.iter().max_by_key(|d| d.num_nets()) {
        let global_at = |threads: usize| {
            let _g = complx_par::with_threads(threads);
            let (_, SolveArtifacts { outcome, report }) =
                run(largest, &PlacerConfig::default()).expect("placement failed");
            let s =
                report.phase_seconds("place/bootstrap") + report.phase_seconds("place/iteration");
            let secs = if s > 0.0 { s } else { outcome.global_seconds };
            (secs, outcome.metrics.hpwl)
        };
        let (secs1, hpwl1) = global_at(1);
        let (secs4, hpwl4) = global_at(4);
        assert_eq!(
            hpwl1.to_bits(),
            hpwl4.to_bits(),
            "thread count changed the result"
        );
        println!(
            "thread scaling on {}: {secs1:.2}s at 1 thread, {secs4:.2}s at 4 threads ({:.2}x, {} cores available)",
            largest.name(),
            secs1 / secs4.max(1e-9),
            complx_par::available()
        );
    }

    let dir = artifact_dir().expect("artifact directory must be creatable");
    std::fs::write(dir.join("fig3_scalability.csv"), csv).expect("artifact write");
    lambda_pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    iter_pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let svg = xy_plot(
        &[
            ("final lambda", "#cc3333", &lambda_pts),
            ("iterations", "#3355cc", &iter_pts),
        ],
        "number of nets",
        "value",
        true,
    );
    std::fs::write(dir.join("fig3_scalability.svg"), svg).expect("artifact write");
    eprintln!(
        "[fig3] wrote fig3_scalability.{{csv,svg}} in {}",
        dir.display()
    );
}
