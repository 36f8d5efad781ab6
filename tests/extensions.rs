//! Integration tests for the paper's extensions: region constraints (§S5),
//! timing-driven net weighting (§S6), mixed-size placement (Section 5),
//! and Bookshelf interoperability.

use complx_repro::netlist::{
    bookshelf, generator::GeneratorConfig, hpwl, CellKind, DesignBuilder, Rect, RegionConstraint,
};
use complx_repro::place::timing_driven::TimingDrivenPlacer;
use complx_repro::place::{ComplxPlacer, PlacerConfig};
use complx_repro::spread::regions::regions_satisfied;
use complx_repro::timing::{reweight_nets, DelayModel, TimingGraph};

#[test]
fn region_constraints_enforced_without_large_hpwl_cost() {
    // §S5: region constraints are enforced by the projection, and HPWL
    // stays in the same ballpark (the paper even observes improvements).
    let base = GeneratorConfig::small("s5", 31).generate();
    let core = base.core();
    let rect = Rect::new(
        core.lx,
        core.ly,
        core.lx + 0.45 * core.width(),
        core.ly + 0.45 * core.height(),
    );
    let cells: Vec<_> = base
        .movable_cells()
        .iter()
        .copied()
        .filter(|&id| base.cell(id).kind() == CellKind::Movable)
        .take(50)
        .collect();
    let mut b = DesignBuilder::from_design(&base);
    b.add_region(RegionConstraint::new("r", rect, cells));
    let design = b.build().unwrap();

    let cfg = PlacerConfig {
        final_detail: false,
        ..PlacerConfig::default()
    };
    let constrained = ComplxPlacer::new(cfg.clone())
        .place(&design)
        .expect("placement failed");
    assert!(regions_satisfied(&design, &constrained.upper));

    let unconstrained = ComplxPlacer::new(cfg)
        .place(&base)
        .expect("placement failed");
    let h_c = hpwl::hpwl(&design, &constrained.upper);
    let h_u = hpwl::hpwl(&base, &unconstrained.upper);
    assert!(
        h_c < 1.3 * h_u,
        "region constraint cost too high: {h_c} vs {h_u}"
    );
}

#[test]
fn s6_net_weighting_shrinks_paths_without_hpwl_blowup() {
    let design = GeneratorConfig::ispd2005_like("s6", 77, 1200).generate();
    let base = ComplxPlacer::new(PlacerConfig::default())
        .place(&design)
        .expect("placement failed");
    let graph = TimingGraph::new(&design);
    let model = DelayModel::default();
    let path = graph.critical_path(&design, &base.legal, &model);
    let nets = graph.path_nets(&path);
    assert!(!nets.is_empty(), "no critical path found");

    let path_len = |p: &complx_repro::netlist::Placement| -> f64 {
        nets.iter().map(|&n| hpwl::net_hpwl(&design, p, n)).sum()
    };
    let before = path_len(&base.legal);
    let boosted = reweight_nets(&design, &nets, 20.0).expect("finite boosted weights");
    let after_out = ComplxPlacer::new(PlacerConfig::default())
        .place(&boosted)
        .expect("placement failed");
    let after = path_len(&after_out.legal);

    // The boosted path shrinks; total HPWL stays within a few percent.
    assert!(after < before, "path {before} -> {after}");
    let h0 = hpwl::hpwl(&design, &base.legal);
    let h1 = hpwl::hpwl(&design, &after_out.legal);
    assert!(h1 < 1.05 * h0, "total HPWL blew up: {h0} -> {h1}");
}

#[test]
fn timing_driven_flow_reduces_or_holds_critical_delay() {
    let design = GeneratorConfig::small("tdf", 13).generate();
    // Use a delay model where wire delay actually matters (with the default
    // 0.01/unit, unit cell delays dominate and the critical path is purely
    // topological — placement cannot improve it).
    let delay = DelayModel {
        cell_delay: 0.2,
        wire_delay_per_unit: 0.1,
    };
    let flow = TimingDrivenPlacer {
        placer: PlacerConfig::fast(),
        delay,
        rounds: 2,
        net_weight_boost: 4.0,
        ..TimingDrivenPlacer::default()
    };
    let result = flow.place(&design).expect("placement failed");
    // The flow returns its best round, so the returned outcome can never be
    // slower than the initial placement.
    let first = result.critical_delays[0];
    assert!(
        result.best_delay <= first + 1e-9,
        "returned outcome slower than round 0: {} vs {first} ({:?})",
        result.best_delay,
        result.critical_delays
    );
    assert!(complx_repro::legalize::is_legal(
        &design,
        &result.outcome.legal,
        1e-6
    ));
}

#[test]
fn mixed_size_shredding_beats_treating_macros_as_cells() {
    let design = GeneratorConfig::ispd2006_like("shd", 17, 1200, 0.7).generate();
    let with = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .expect("placement failed");
    let without = ComplxPlacer::new(PlacerConfig {
        shred_macros: false,
        per_macro_lambda: false,
        ..PlacerConfig::fast()
    })
    .place(&design)
    .expect("placement failed");
    // Shredding should not lose; usually it wins on scaled HPWL.
    assert!(
        with.metrics.scaled_hpwl < 1.1 * without.metrics.scaled_hpwl,
        "with {} vs without {}",
        with.metrics.scaled_hpwl,
        without.metrics.scaled_hpwl
    );
}

#[test]
fn alignment_constraints_enforced_through_the_placer() {
    // §S5 names alignment among the constraint types P_C absorbs: a row of
    // datapath cells must share a y coordinate in the feasible iterate.
    use complx_repro::netlist::{AlignmentAxis, AlignmentConstraint};
    use complx_repro::spread::regions::alignments_satisfied;
    let base = GeneratorConfig::small("al", 41).generate();
    let cells: Vec<_> = base
        .movable_cells()
        .iter()
        .copied()
        .filter(|&id| base.cell(id).kind() == CellKind::Movable)
        .take(12)
        .collect();
    let mut b = DesignBuilder::from_design(&base);
    b.add_alignment(AlignmentConstraint::new(
        "datapath",
        AlignmentAxis::Horizontal,
        cells.clone(),
    ));
    let design = b.build().unwrap();
    let cfg = PlacerConfig {
        final_detail: false, // the detail pass is not alignment-aware
        ..PlacerConfig::fast()
    };
    let out = ComplxPlacer::new(cfg)
        .place(&design)
        .expect("placement failed");
    assert!(alignments_satisfied(&design, &out.upper, 1e-6));
}

#[test]
fn routability_inflation_separates_congested_cells() {
    // SimPLR-lite (paper §5): RUDY-driven inflation pulls cell area out of
    // congested bins at bounded HPWL cost.
    use complx_repro::place::RoutabilityConfig;
    use complx_repro::spread::rudy::CongestionMap;
    let mut gen_cfg = GeneratorConfig::small("rt", 38);
    gen_cfg.num_std_cells = 1000;
    gen_cfg.utilization = 0.8;
    let design = gen_cfg.generate();
    let wl = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .expect("placement failed");
    let bins = 16;
    let probe = CongestionMap::build(&design, &wl.legal, bins, bins, 1.0);
    let supply = probe.max_congestion() / 1.3;
    let routed = ComplxPlacer::new(PlacerConfig {
        routability: Some(RoutabilityConfig {
            supply,
            alpha: 0.6,
            max_inflation: 2.0,
            grid_bins: bins,
        }),
        ..PlacerConfig::fast()
    })
    .place(&design)
    .expect("placement failed");
    let reference = CongestionMap::build(&design, &wl.legal, bins, bins, supply);
    let hot_area = |p: &complx_repro::netlist::Placement| -> f64 {
        design
            .movable_cells()
            .iter()
            .filter(|&&id| {
                let pos = p.position(id);
                reference.congestion_at(pos.x, pos.y) > 1.0
            })
            .map(|&id| design.cell(id).area())
            .sum()
    };
    assert!(hot_area(&routed.legal) < hot_area(&wl.legal));
    assert!(routed.hpwl_legal < 1.15 * wl.hpwl_legal);
    assert!(complx_repro::legalize::is_legal(
        &design,
        &routed.legal,
        1e-6
    ));
}

#[test]
fn bookshelf_export_place_import_cycle() {
    let dir = std::env::temp_dir().join(format!("complx_it_{}", std::process::id()));
    let design = GeneratorConfig::small("bsio", 19).generate();
    let aux = bookshelf::write_bundle(&design, &design.initial_placement(), &dir).unwrap();
    let bundle = bookshelf::read_aux(&aux).unwrap();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&bundle.design)
        .expect("placement failed");
    let sol = bookshelf::write_bundle(&bundle.design, &out.legal, &dir).unwrap();
    let check = bookshelf::read_aux(&sol).unwrap();
    let h = hpwl::hpwl(&check.design, &check.placement);
    assert!((h - out.hpwl_legal).abs() < 1e-6 * out.hpwl_legal);
    std::fs::remove_dir_all(&dir).unwrap();
}
