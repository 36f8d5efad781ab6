//! Regenerates **Figure 1**: progressions of `L` (total Lagrangian),
//! `Φ` (netlist interconnect) and `Π` (L1 distance to legal) over ComPLx
//! iterations on BIGBLUE4 (synthetic counterpart `bigblue4-s`).
//!
//! Expected shape (paper Section 4): `L` rises steeply in early iterations
//! as λ grows; `Π` decreases while `Φ` gradually increases.
//!
//! Usage: `cargo run --release -p complx-bench --bin fig1_convergence
//! [--scale N]`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::plot::ascii_chart;
use complx_bench::svg::xy_plot;
use complx_bench::{artifact_dir, scale_arg};
use complx_place::{ComplxPlacer, PlacerConfig};

fn main() {
    let scale = scale_arg();
    let mut cfg = complx_netlist::generator::suite::ispd2005()
        .pop()
        .expect("suite has 8 entries")
        .0;
    cfg.num_std_cells = (cfg.num_std_cells / scale.max(1)).max(500);
    let design = cfg.generate();
    eprintln!(
        "[fig1] placing {} ({} cells, {} nets)",
        design.name(),
        design.num_cells(),
        design.num_nets()
    );

    // Disable stagnation stopping so the full progression is recorded.
    let placer_cfg = PlacerConfig {
        stagnation_window: usize::MAX,
        gap_tolerance: 0.05,
        ..PlacerConfig::default()
    };
    let outcome = ComplxPlacer::new(placer_cfg)
        .place(&design)
        .expect("placement failed");

    let recs = outcome.trace.records();
    let lagrangian: Vec<f64> = recs.iter().map(|r| r.lagrangian).collect();
    let phi: Vec<f64> = recs.iter().map(|r| r.phi_lower).collect();
    let pi: Vec<f64> = recs.iter().map(|r| r.pi).collect();

    println!(
        "Figure 1 — L, Φ, Π over {} ComPLx iterations on {}",
        recs.len(),
        design.name()
    );
    println!(
        "{}",
        ascii_chart(
            &[
                ("L = Φ + λΠ", &lagrangian),
                ("Φ (interconnect)", &phi),
                ("Π (dist to legal)", &pi)
            ],
            18,
            true,
        )
    );

    let dir = artifact_dir().expect("artifact directory must be creatable");
    std::fs::write(dir.join("fig1_trace.csv"), outcome.trace.to_csv()).expect("artifact write");
    let mk = |v: &[f64]| -> Vec<(f64, f64)> {
        v.iter()
            .enumerate()
            .map(|(i, &y)| (i as f64, y.max(1e-9)))
            .collect()
    };
    let l_pts = mk(&lagrangian);
    let p_pts = mk(&phi);
    let pi_pts = mk(&pi);
    let svg = xy_plot(
        &[
            ("L", "#cc3333", &l_pts),
            ("Phi", "#3355cc", &p_pts),
            ("Pi", "#22aa44", &pi_pts),
        ],
        "iteration",
        "value",
        true,
    );
    std::fs::write(dir.join("fig1_convergence.svg"), svg).expect("artifact write");
    eprintln!(
        "[fig1] wrote {} and fig1_convergence.svg",
        dir.join("fig1_trace.csv").display()
    );

    // Validate the paper's qualitative claims and report.
    let first_real = 1.min(recs.len() - 1);
    let pi_drop = recs[first_real].pi / recs.last().expect("non-empty").pi.max(1e-12);
    let phi_rise = recs.last().expect("non-empty").phi_lower / recs[first_real].phi_lower;
    println!(
        "Π decreased by {pi_drop:.1}x; Φ increased by {phi_rise:.2}x; final λ = {:.3}",
        outcome.final_lambda
    );
}
