//! Integration tests encoding the paper's qualitative claims: the
//! Lagrangian trends of Figure 1, weak duality (Formula 7), the λ/iteration
//! boundedness of Figure 3/§S3, and the self-consistency statistics of §S2.

use complx_repro::netlist::generator::GeneratorConfig;
use complx_repro::place::{ComplxPlacer, LambdaSchedule, PlacerConfig};
use complx_repro::spread::self_consistency::{check_consistency, ConsistencyStats};
use complx_repro::spread::FeasibilityProjection;
use complx_repro::wirelength::{Anchors, InterconnectModel, QuadraticModel};

#[test]
fn figure1_trends_hold() {
    let design = GeneratorConfig::small("fig1t", 2).generate();
    let cfg = PlacerConfig {
        stagnation_window: usize::MAX, // record the full progression
        ..PlacerConfig::default()
    };
    let out = ComplxPlacer::new(cfg)
        .place(&design)
        .expect("placement failed");
    let recs = out.trace.records();
    assert!(recs.len() >= 5);

    // Π decreases substantially over the run.
    let pi_first = recs[1].pi;
    let pi_last = recs.last().unwrap().pi;
    assert!(pi_last < 0.5 * pi_first, "Π {pi_first} -> {pi_last}");

    // Φ (lower bound) increases as constraints bite (Formula 6 discussion).
    let phi_first = recs[1].phi_lower;
    let phi_last = recs.last().unwrap().phi_lower;
    assert!(phi_last > phi_first, "Φ {phi_first} -> {phi_last}");

    // λ is non-decreasing and the Lagrangian rises in early iterations.
    for w in recs.windows(2) {
        assert!(w[1].lambda >= w[0].lambda);
    }
    let mid = recs.len() / 2;
    assert!(recs[mid].lagrangian > recs[1].lagrangian);
}

#[test]
fn weak_duality_bounds_hold_each_iteration() {
    // Formula 7: Φ(lower) ≤ L ≤ Φ(upper) for every iterate after the
    // primal step (small tolerance: the projection is approximate).
    let design = GeneratorConfig::small("dual", 3).generate();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .expect("placement failed");
    for r in &out.trace.records()[1..] {
        assert!(
            r.phi_lower <= r.phi_upper * 1.02,
            "iter {}: lower {} > upper {}",
            r.iteration,
            r.phi_lower,
            r.phi_upper
        );
        assert!(
            r.lagrangian >= r.phi_lower - 1e-9,
            "iter {}: L {} < Φ {}",
            r.iteration,
            r.lagrangian,
            r.phi_lower
        );
    }
}

#[test]
fn lambda_and_iterations_bounded_across_sizes() {
    // Figure 3 / §S3: no systematic growth of iteration count or final λ
    // with instance size.
    let mut iters = Vec::new();
    let mut lambdas = Vec::new();
    for (i, n) in [400usize, 900, 1800].iter().enumerate() {
        let design = GeneratorConfig::ispd2005_like("scale", 50 + i as u64, *n).generate();
        let out = ComplxPlacer::new(PlacerConfig::default())
            .place(&design)
            .expect("placement failed");
        iters.push(out.iterations as f64);
        lambdas.push(out.final_lambda);
    }
    let max_it = iters.iter().cloned().fold(0.0f64, f64::max);
    let min_it = iters.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max_it <= 3.0 * min_it,
        "iterations grew with size: {iters:?}"
    );
    for l in &lambdas {
        assert!(*l > 0.0 && *l < 100.0, "λ out of range: {lambdas:?}");
    }
}

#[test]
fn lambda_schedule_matches_formula_12_algebra() {
    // λ1 = Φ/(100Π); growth capped at 2× per iteration.
    let s = LambdaSchedule::new(
        complx_repro::place::LambdaMode::Complx { h_factor: 20.0 },
        100.0,
        1000.0,
        5.0,
    );
    assert!((s.lambda() - 2.0).abs() < 1e-12);
    let mut s2 = s;
    for _ in 0..5 {
        let before = s2.lambda();
        s2.advance(1.0, 1.0);
        assert!(s2.lambda() <= 2.0 * before + 1e-12);
        assert!(s2.lambda() > before);
    }
}

#[test]
fn projection_self_consistency_is_high() {
    // §S2: the approximate P_C should be overwhelmingly self-consistent.
    let design = GeneratorConfig::small("s2t", 4).generate();
    let model = QuadraticModel::default();
    let projection = FeasibilityProjection::default();
    let bins = projection.adaptive_bins(&design);

    let mut lower = design.initial_placement();
    for _ in 0..3 {
        model.minimize(&design, &mut lower, None, None);
    }
    let mut proj = projection.project_with_bins(&design, &lower, bins);
    let mut stats = ConsistencyStats::default();
    let mut lambda = 0.01;
    let mut prev = (lower.clone(), proj.placement.clone());
    for _ in 0..25 {
        let anchors = Anchors::uniform(&design, proj.placement.clone(), lambda);
        model.minimize(&design, &mut lower, Some(&anchors), None);
        proj = projection.project_with_bins(&design, &lower, bins);
        stats.record(check_consistency(&prev.0, &prev.1, &lower, &proj.placement));
        prev = (lower.clone(), proj.placement.clone());
        lambda *= 1.4;
    }
    assert!(stats.total() == 25);
    // This hand-rolled loop uses a crude geometric λ (not Formula 12), so
    // the bar is lower than the ~96% the s2_self_consistency harness
    // measures with the real schedule across the whole suite.
    assert!(
        stats.consistent_ratio() > 0.6,
        "self-consistency too low: {stats:?}"
    );
    assert!(
        stats.inconsistent_ratio() < 0.3,
        "too many inconsistencies: {stats:?}"
    );
}

#[test]
fn coarse_grids_do_not_hurt_quality_much() {
    // Section 6: "coarsening the grid speeds up P_C without undermining
    // solution quality".
    let design = GeneratorConfig::small("grid6", 6).generate();
    let fine = ComplxPlacer::new(PlacerConfig::finest_grid())
        .place(&design)
        .expect("placement failed");
    let coarse = ComplxPlacer::new(PlacerConfig {
        grid: complx_repro::place::GridSchedule::Fixed { fraction: 0.35 },
        ..PlacerConfig::default()
    })
    .place(&design)
    .expect("placement failed");
    assert!(
        coarse.hpwl_legal < 1.15 * fine.hpwl_legal,
        "coarse {} vs fine {}",
        coarse.hpwl_legal,
        fine.hpwl_legal
    );
}
