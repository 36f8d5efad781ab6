//! API-contract tests: thread-safety markers, determinism of the whole
//! pipeline, and trait-object usability of the interconnect models.

use complx_repro::netlist::generator::GeneratorConfig;
use complx_repro::place::{ComplxPlacer, Interconnect, PlacerConfig};
use complx_repro::wirelength::{
    BetaRegModel, InterconnectModel, LseModel, NetModel, PNormModel, QuadraticModel,
};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send_sync::<complx_repro::netlist::Design>();
    assert_send_sync::<complx_repro::netlist::Placement>();
    assert_send_sync::<complx_repro::sparse::CsrMatrix>();
    assert_send_sync::<complx_repro::spread::FeasibilityProjection>();
    assert_send_sync::<complx_repro::legalize::Legalizer>();
    assert_send_sync::<ComplxPlacer>();
    assert_send_sync::<PlacerConfig>();
}

#[test]
fn error_types_implement_std_error() {
    fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<complx_repro::netlist::DesignError>();
    assert_error::<complx_repro::netlist::BookshelfError>();
}

#[test]
fn interconnect_models_work_as_trait_objects() {
    let design = GeneratorConfig::small("obj", 1).generate();
    let models: Vec<Box<dyn InterconnectModel>> = vec![
        Box::new(QuadraticModel::new(NetModel::Bound2Bound)),
        Box::new(QuadraticModel::new(NetModel::Clique)),
        Box::new(LseModel::new()),
        Box::new(BetaRegModel::new()),
        Box::new(PNormModel::new()),
    ];
    for m in &models {
        let mut p = design.initial_placement();
        let stats = m.minimize(&design, &mut p, None, None);
        assert!(stats.converged || stats.iterations_x > 0, "{}", m.name());
        assert!(m.wirelength(&design, &p).is_finite());
    }
}

#[test]
fn whole_pipeline_is_deterministic_across_processes_inputs() {
    // Same seed → byte-identical placements, twice in the same process
    // (cross-process determinism follows from no global RNG or time use in
    // library code paths that affect results).
    let d1 = GeneratorConfig::small("det", 99).generate();
    let d2 = GeneratorConfig::small("det", 99).generate();
    let o1 = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d1)
        .expect("placement failed");
    let o2 = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d2)
        .expect("placement failed");
    assert_eq!(o1.legal, o2.legal);
    assert_eq!(o1.trace.records().len(), o2.trace.records().len());
    assert_eq!(o1.final_lambda, o2.final_lambda);
}

#[test]
fn placer_runs_with_every_interconnect_choice() {
    let design = GeneratorConfig::small("ic", 2).generate();
    for ic in [
        Interconnect::Quadratic(NetModel::Bound2Bound),
        Interconnect::Quadratic(NetModel::HybridCliqueStar),
        Interconnect::LogSumExp { gamma_rows: 4.0 },
        Interconnect::BetaRegularized { beta_rows2: 1.0 },
        Interconnect::PNorm { p: 8.0 },
    ] {
        let out = ComplxPlacer::new(PlacerConfig {
            interconnect: ic,
            max_iterations: 10,
            ..PlacerConfig::fast()
        })
        .place(&design)
        .expect("placement failed");
        assert!(out.hpwl_legal > 0.0, "{ic:?}");
        assert!(
            complx_repro::legalize::is_legal(&design, &out.legal, 1e-6),
            "{ic:?}"
        );
    }
}
