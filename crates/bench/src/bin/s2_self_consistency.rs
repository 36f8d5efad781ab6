//! Regenerates the **Section S2** measurement: empirical self-consistency
//! of the approximate feasibility projection `P_C` (Formula 11), checked
//! between every two consecutive ComPLx iterations across the
//! ISPD-2005-like suite.
//!
//! Paper numbers: self-consistent 96.0%, inconsistent 0.6%, premise
//! unsatisfied 3.3% (inconsistencies mostly in the first < 5 iterations).
//!
//! This binary re-runs the primal-dual loop out of the public crate APIs so
//! that each iterate and its projection are observable.
//!
//! Usage: `cargo run --release -p complx-bench --bin s2_self_consistency
//! [--scale N]`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::report::Table;
use complx_bench::runs::suite_2005;
use complx_bench::{artifact_dir, scale_arg};
use complx_netlist::hpwl;
use complx_place::{LambdaSchedule, PlacerConfig};
use complx_spread::self_consistency::{check_consistency, ConsistencyStats};
use complx_spread::FeasibilityProjection;
use complx_wirelength::{Anchors, InterconnectModel, QuadraticModel};

fn main() {
    let scale = scale_arg();
    let designs = suite_2005(scale * 2); // half-size: this doubles the work per design
    let cfg = PlacerConfig::default();
    let mut table = Table::new(vec![
        "benchmark",
        "checks",
        "consistent %",
        "inconsistent %",
        "premise unsat %",
        "early inconsistencies (<5)",
    ]);
    let mut total = ConsistencyStats::default();

    for design in &designs {
        eprintln!("[s2] running {}", design.name());
        let model = QuadraticModel::default();
        let projection = FeasibilityProjection::default();
        let bins = projection.adaptive_bins(design);

        let mut stats = ConsistencyStats::default();
        let mut early_inconsistent = 0usize;

        let mut lower = design.initial_placement();
        for _ in 0..3 {
            model.minimize(design, &mut lower, None, None);
        }
        let mut proj = projection.project_with_bins(design, &lower, bins);
        let phi0 = hpwl::weighted_hpwl(design, &lower);
        let mut pi_prev = proj.distance_l1;
        if pi_prev <= 0.0 || phi0 <= 0.0 {
            continue;
        }
        let mut schedule =
            LambdaSchedule::new(cfg.lambda_mode, cfg.lambda_init_divisor, phi0, pi_prev)
                .with_inverse_ratio(true);

        let mut prev_iterate = lower.clone();
        let mut prev_projection = proj.placement.clone();
        for k in 1..=40usize {
            let anchors = Anchors::uniform(design, proj.placement.clone(), schedule.lambda());
            model.minimize(design, &mut lower, Some(&anchors), None);
            proj = projection.project_with_bins(design, &lower, bins);

            let check = check_consistency(&prev_iterate, &prev_projection, &lower, &proj.placement);
            stats.record(check);
            if k < 5 && check == complx_spread::self_consistency::ConsistencyCheck::Inconsistent {
                early_inconsistent += 1;
            }

            prev_iterate = lower.clone();
            prev_projection = proj.placement.clone();
            let pi = proj.distance_l1;
            schedule.advance(pi_prev, pi);
            pi_prev = pi;
            if proj.overflow_before < cfg.overflow_tolerance {
                break;
            }
        }

        table.add_row(vec![
            design.name().to_string(),
            format!("{}", stats.total()),
            format!("{:.1}", 100.0 * stats.consistent_ratio()),
            format!("{:.1}", 100.0 * stats.inconsistent_ratio()),
            format!(
                "{:.1}",
                100.0 * stats.premise_unsatisfied as f64 / stats.total().max(1) as f64
            ),
            format!("{early_inconsistent}"),
        ]);
        total.consistent += stats.consistent;
        total.inconsistent += stats.inconsistent;
        total.premise_unsatisfied += stats.premise_unsatisfied;
    }

    table.add_row(vec![
        "ALL".to_string(),
        format!("{}", total.total()),
        format!("{:.1}", 100.0 * total.consistent_ratio()),
        format!("{:.1}", 100.0 * total.inconsistent_ratio()),
        format!(
            "{:.1}",
            100.0 * total.premise_unsatisfied as f64 / total.total().max(1) as f64
        ),
        String::new(),
    ]);

    let rendered = table.render();
    println!("§S2 — self-consistency of P_C (paper: 96.0% / 0.6% / 3.3%)");
    println!("{rendered}");
    let path = artifact_dir()
        .expect("artifact directory must be creatable")
        .join("s2_self_consistency.txt");
    std::fs::write(&path, rendered).expect("artifact write");
    eprintln!("[s2] wrote {}", path.display());
}
