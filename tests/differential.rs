//! Differential testing: two independent implementations of the same
//! quantity must agree.
//!
//! * The placer's self-reported metrics vs `complx-oracle`'s
//!   from-first-principles recomputation (HPWL to 1e-9 relative, overflow
//!   to 1e-6 absolute) — a bug that corrupts both the placement and its
//!   reported quality cannot hide.
//! * The baseline presets (SimPL, RQL-, FastPlace-like and CoG-constrained):
//!   their traces must satisfy the paper's invariants under the λ rule of
//!   their schedule, the RQL-, FastPlace-like and CoG-constrained legal
//!   outputs must pass the oracle's legality audit with self-reported
//!   metrics matching the oracle's, and the force-directed ones must land
//!   in the same quality ballpark as ComPLx on the same instance.
//! * Real ComPLx traces must satisfy the paper's invariants (Formula 12
//!   included) as enforced by `oracle::check_trace`.
//! * `legalize::legality_report` vs `oracle::audit`: independent overlap
//!   sweeps (bucket grid vs row-band sweep) agree on legal and on
//!   deliberately corrupted placements.

use complx_repro::legalize;
use complx_repro::netlist::{generator::GeneratorConfig, Design, Point};
use complx_repro::oracle::{self, LambdaRule, TraceChecks};
use complx_repro::place::{ComplxPlacer, PlacementOutcome, PlacerConfig};

fn design_600(seed: u64) -> Design {
    GeneratorConfig::small("diff600", seed).generate()
}

/// Internal metrics and oracle recomputation must agree tightly.
fn assert_metrics_match(design: &Design, out: &PlacementOutcome, ctx: &str) {
    let hpwl = oracle::hpwl(design, &out.legal);
    assert!(
        (out.metrics.hpwl - hpwl).abs() <= 1e-9 * hpwl.max(1.0),
        "{ctx}: internal HPWL {} vs oracle {hpwl}",
        out.metrics.hpwl
    );
    let scaled = oracle::scaled_hpwl(design, &out.legal);
    assert!(
        (out.metrics.scaled_hpwl - scaled).abs() <= 1e-9 * scaled.max(1.0),
        "{ctx}: internal scaled HPWL {} vs oracle {scaled}",
        out.metrics.scaled_hpwl
    );
    let overflow = oracle::overflow_percent(design, &out.legal);
    assert!(
        (out.metrics.overflow_percent - overflow).abs() <= 1e-6,
        "{ctx}: internal overflow {}% vs oracle {overflow}%",
        out.metrics.overflow_percent
    );
}

#[test]
fn oracle_matches_internal_metrics_complx() {
    let design = design_600(17);
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .unwrap();
    assert_metrics_match(&design, &out, "complx/fast");
}

#[test]
fn oracle_matches_internal_metrics_simpl() {
    let design = design_600(17);
    let out = ComplxPlacer::new(PlacerConfig::simpl())
        .place(&design)
        .unwrap();
    assert_metrics_match(&design, &out, "simpl");
}

#[test]
fn oracle_matches_internal_metrics_on_macro_design() {
    // γ < 1 with movable macros: the overflow computation actually has
    // blockage and target-density terms to disagree about.
    let design = GeneratorConfig::ispd2006_like("diffmac", 29, 700, 0.8).generate();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .unwrap();
    assert_metrics_match(&design, &out, "complx/macros");
}

#[test]
fn placers_land_in_the_same_quality_ballpark() {
    // Identical seed, four placers. They optimize the same objective, so
    // oracle HPWL must agree within a wide factor — a placer 3× off is
    // broken, not "different".
    let design = design_600(3);
    let complx = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .unwrap();
    let reference = oracle::hpwl(&design, &complx.legal);
    for (name, cfg) in [
        ("simpl", PlacerConfig::simpl()),
        ("fastplace", PlacerConfig::fastplace_like()),
        ("rql", PlacerConfig::rql_like()),
    ] {
        let legal = ComplxPlacer::new(cfg).place(&design).unwrap().legal;
        let h = oracle::hpwl(&design, &legal);
        assert!(
            h <= 3.0 * reference && reference <= 3.0 * h,
            "{name}: HPWL {h} vs complx {reference} — outside the 3x band"
        );
    }
}

fn assert_trace_clean(out: &PlacementOutcome, rule: LambdaRule, ctx: &str) {
    let parsed = oracle::parse_trace(&out.trace.to_csv()).expect("trace CSV round-trip");
    let checks = TraceChecks {
        lambda_rule: rule,
        allow_lambda_drops: out.recoveries > 0,
        ..TraceChecks::default()
    };
    let violations = oracle::check_trace(&parsed.records, &checks);
    assert!(
        violations.is_empty(),
        "{ctx}: real trace violates paper invariants:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn real_complx_trace_satisfies_paper_invariants() {
    let design = design_600(11);
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .unwrap();
    assert_trace_clean(&out, LambdaRule::Complx, "complx/fast");
}

#[test]
fn real_simpl_trace_satisfies_monotone_invariants() {
    // The arithmetic schedule legally exceeds the 2λ Formula-12 cap, so it
    // is checked under the weaker monotone rule — exactly what the CLI
    // infers from `lambda_mode = "arithmetic(...)"`.
    let design = design_600(11);
    let out = ComplxPlacer::new(PlacerConfig::simpl())
        .place(&design)
        .unwrap();
    assert_trace_clean(&out, LambdaRule::Monotone, "simpl");
}

/// A baseline preset's legal output passes the oracle's audit, its
/// self-reported metrics match the oracle's, and its trace satisfies the
/// paper's invariants under `rule` (an arithmetic or geometric schedule,
/// like SimPL's, may legally exceed the Formula-12 cap, so it is checked
/// under the monotone rule).
fn assert_preset_audit_legal(cfg: PlacerConfig, rule: LambdaRule, seed: u64, ctx: &str) {
    let design = design_600(seed);
    let out = ComplxPlacer::new(cfg).place(&design).unwrap();
    assert_metrics_match(&design, &out, ctx);
    let audit = oracle::audit(&design, &out.legal);
    assert!(audit.is_legal(1e-6), "{ctx}: {audit:?}");
    assert_trace_clean(&out, rule, ctx);
}

#[test]
fn fastplace_baseline_output_is_audit_legal() {
    assert_preset_audit_legal(
        PlacerConfig::fastplace_like(),
        LambdaRule::Monotone,
        7,
        "fastplace",
    );
}

#[test]
fn rql_baseline_output_is_audit_legal() {
    assert_preset_audit_legal(PlacerConfig::rql_like(), LambdaRule::Monotone, 7, "rql");
}

#[test]
fn cog_baseline_output_is_audit_legal() {
    // The CoG preset keeps ComPLx's schedule, so Formula 12 holds.
    assert_preset_audit_legal(
        PlacerConfig::cog_constrained(),
        LambdaRule::Complx,
        7,
        "cog",
    );
}

#[test]
fn oracle_density_matches_netlist_grid_at_all_resolutions() {
    // The solver's `DensityGrid` and the oracle's interval-arithmetic
    // recount implement the same ISPD-2006 metric independently; they
    // must agree at every grid resolution, not just the reporting one.
    use complx_repro::netlist::density::overflow_penalty_percent;
    let design = GeneratorConfig::ispd2006_like("diffres", 41, 600, 0.8).generate();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .unwrap();
    for bins in [8, 16, 32, 64] {
        let grid = overflow_penalty_percent(&design, &out.legal, bins);
        let audit = oracle::density_audit(&design, &out.legal, bins);
        assert!(
            (grid - audit.overflow_percent).abs() <= 1e-6,
            "bins={bins}: grid {grid}% vs oracle {}%",
            audit.overflow_percent
        );
    }
}

#[test]
fn oracle_audit_agrees_with_legalize_report() {
    let design = design_600(23);
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .unwrap();

    // Both independent sweeps call the legalized output legal...
    let report = legalize::legality_report(&design, &out.legal);
    let audit = oracle::audit(&design, &out.legal);
    assert!(report.is_legal(1e-6), "{report:?}");
    assert!(audit.is_legal(1e-6), "{audit:?}");
    assert!(
        (report.overlap_area - audit.overlap_area).abs() <= 1e-9,
        "overlap area: legalize {} vs oracle {}",
        report.overlap_area,
        audit.overlap_area
    );

    // ...and agree on a deliberately corrupted placement too.
    let mut bad = out.legal.clone();
    let movers = design.movable_cells();
    let target = bad.position(movers[1]);
    bad.set_position(movers[0], Point::new(target.x, target.y));
    let report = legalize::legality_report(&design, &bad);
    let audit = oracle::audit(&design, &bad);
    assert!(!report.is_legal(1e-6));
    assert!(!audit.is_legal(1e-6));
    assert!(
        (report.overlap_area - audit.overlap_area).abs() <= 1e-9 * report.overlap_area.max(1.0),
        "overlap area on corrupted placement: legalize {} vs oracle {}",
        report.overlap_area,
        audit.overlap_area
    );
}
