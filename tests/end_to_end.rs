//! Cross-crate integration tests: the full pipeline
//! generate → place → project → legalize → detail, plus placer-vs-baseline
//! quality gates.

use complx_repro::legalize::{is_legal, legality_report};
use complx_repro::netlist::{generator::GeneratorConfig, hpwl};
use complx_repro::place::{ComplxPlacer, PlacerConfig};

#[test]
fn full_pipeline_produces_legal_quality_placement() {
    let design = GeneratorConfig::small("e2e", 1).generate();
    let outcome = ComplxPlacer::new(PlacerConfig::default())
        .place(&design)
        .expect("placement failed");

    // Legal output.
    let report = legality_report(&design, &outcome.legal);
    assert!(report.is_legal(1e-6), "{report:?}");

    // Quality gate: clearly better than projecting the stacked start once.
    let naive = {
        let proj = complx_repro::spread::FeasibilityProjection::default()
            .project(&design, &design.initial_placement());
        let legal = complx_repro::legalize::Legalizer::default()
            .legalize(&design, &proj.placement)
            .placement;
        hpwl::hpwl(&design, &legal)
    };
    assert!(
        outcome.hpwl_legal < 0.8 * naive,
        "placer {} vs naive {naive}",
        outcome.hpwl_legal
    );

    // Final density is acceptable.
    assert!(
        outcome.metrics.overflow_percent < 10.0,
        "overflow {}%",
        outcome.metrics.overflow_percent
    );
}

#[test]
fn complx_beats_or_matches_every_baseline() {
    let design = GeneratorConfig::ispd2005_like("cmp", 3, 2000).generate();
    let cx = ComplxPlacer::new(PlacerConfig::default())
        .place(&design)
        .expect("placement failed");
    // The paper's headline: ComPLx outperforms SimPL (by ~1%; allow a
    // small tolerance for suite noise) and the force-directed placers.
    for (name, cfg, slack) in [
        ("simpl", PlacerConfig::simpl(), 1.03),
        ("rql-like", PlacerConfig::rql_like(), 1.0),
        ("fastplace-like", PlacerConfig::fastplace_like(), 1.0),
    ] {
        let baseline = ComplxPlacer::new(cfg)
            .place(&design)
            .expect("placement failed");
        assert!(
            cx.hpwl_legal < baseline.hpwl_legal * slack,
            "complx {} vs {name} {}",
            cx.hpwl_legal,
            baseline.hpwl_legal
        );
    }
}

#[test]
fn all_placers_produce_legal_placements_on_mixed_design() {
    let design = GeneratorConfig::ispd2006_like("legal6", 5, 900, 0.7).generate();
    let configs = [
        PlacerConfig::fast(),
        PlacerConfig::simpl(),
        PlacerConfig {
            max_iterations: 30,
            ..PlacerConfig::fastplace_like()
        },
        PlacerConfig {
            max_iterations: 30,
            ..PlacerConfig::rql_like()
        },
    ];
    for (i, cfg) in configs.into_iter().enumerate() {
        let out = ComplxPlacer::new(cfg)
            .place(&design)
            .expect("placement failed");
        assert!(is_legal(&design, &out.legal, 1e-6), "placer #{i} illegal");
    }
}

#[test]
fn placement_quality_is_stable_across_seeds() {
    // The placer should never catastrophically regress on any seed.
    let mut ratios = Vec::new();
    for seed in [11u64, 22, 33] {
        let design = GeneratorConfig::small("seed", seed).generate();
        let out = ComplxPlacer::new(PlacerConfig::fast())
            .place(&design)
            .expect("placement failed");
        let naive = {
            let proj = complx_repro::spread::FeasibilityProjection::default()
                .project(&design, &design.initial_placement());
            let legal = complx_repro::legalize::Legalizer::default()
                .legalize(&design, &proj.placement)
                .placement;
            hpwl::hpwl(&design, &legal)
        };
        ratios.push(out.hpwl_legal / naive);
    }
    for r in &ratios {
        assert!(*r < 0.85, "ratios {ratios:?}");
    }
}

#[test]
fn three_table1_configurations_all_work() {
    let design = GeneratorConfig::small("cfg3", 8).generate();
    for cfg in [
        PlacerConfig::default(),
        PlacerConfig::finest_grid(),
        PlacerConfig::projection_with_detail(),
    ] {
        let out = ComplxPlacer::new(cfg)
            .place(&design)
            .expect("placement failed");
        assert!(is_legal(&design, &out.legal, 1e-6));
        assert!(out.hpwl_legal > 0.0);
    }
}
