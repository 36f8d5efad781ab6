//! Integration tests for the fault-injection harness: every fault class
//! must be detected, recovered, and reported — never panicked on — and the
//! run must still deliver a finite, legal placement.

use complx_netlist::generator::GeneratorConfig;
use complx_netlist::Design;
use complx_place::{ComplxPlacer, FaultKind, FaultPlan, PlaceError, PlacerConfig, StopReason};

fn small(seed: u64) -> Design {
    GeneratorConfig::small("flt", seed).generate()
}

fn placement_is_finite(design: &Design, p: &complx_netlist::Placement) -> bool {
    design.cell_ids().all(|id| {
        let pt = p.position(id);
        pt.x.is_finite() && pt.y.is_finite()
    })
}

fn run_with_plan(plan: FaultPlan, max_recoveries: usize) -> PlacerConfig {
    PlacerConfig {
        faults: Some(plan),
        max_recoveries,
        ..PlacerConfig::fast()
    }
}

#[test]
fn nan_gradient_fault_recovers_to_finite_placement() {
    let d = small(1);
    let cfg = run_with_plan(FaultPlan::new().inject(2, FaultKind::NanGradient), 3);
    let out = ComplxPlacer::new(cfg).place(&d).expect("must recover");
    // Recoveries are a count, not a stop reason: the loop still reports
    // the criterion that actually ended it.
    assert_eq!(out.stop_reason, StopReason::IterationCap);
    assert_eq!(out.recoveries, 1);
    assert!(
        placement_is_finite(&d, &out.legal),
        "legal placement finite"
    );
    assert!(placement_is_finite(&d, &out.upper));
    assert!(out.hpwl_legal.is_finite() && out.hpwl_legal > 0.0);
}

#[test]
fn cg_stall_fault_recovers_to_finite_placement() {
    let d = small(2);
    let cfg = run_with_plan(FaultPlan::new().inject(3, FaultKind::CgStall), 3);
    let out = ComplxPlacer::new(cfg).place(&d).expect("must recover");
    assert_eq!(out.stop_reason, StopReason::Stagnated);
    assert_eq!(out.recoveries, 1);
    assert!(placement_is_finite(&d, &out.legal));
    assert!(out.hpwl_legal.is_finite() && out.hpwl_legal > 0.0);
}

#[test]
fn projection_stall_fault_recovers_to_finite_placement() {
    let d = small(3);
    let cfg = run_with_plan(FaultPlan::new().inject(2, FaultKind::ProjectionStall), 3);
    let out = ComplxPlacer::new(cfg).place(&d).expect("must recover");
    assert_eq!(out.stop_reason, StopReason::Stagnated);
    assert_eq!(out.recoveries, 1);
    assert!(placement_is_finite(&d, &out.legal));
    assert!(out.hpwl_legal.is_finite() && out.hpwl_legal > 0.0);
}

#[test]
fn multiple_fault_classes_in_one_run_all_recover() {
    let d = small(4);
    let plan = FaultPlan::new()
        .inject(2, FaultKind::NanGradient)
        .inject(4, FaultKind::CgStall)
        .inject(6, FaultKind::ProjectionStall);
    let cfg = run_with_plan(plan, 5);
    let out = ComplxPlacer::new(cfg).place(&d).expect("must recover");
    assert_eq!(out.stop_reason, StopReason::IterationCap);
    assert_eq!(out.recoveries, 3);
    assert!(placement_is_finite(&d, &out.legal));
}

#[test]
fn recovery_quality_stays_close_to_clean_run() {
    // A single injected fault must not wreck result quality: the recovery
    // restores the best feasible iterate and re-converges.
    let d = small(5);
    let clean = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("clean run");
    let cfg = run_with_plan(FaultPlan::new().inject(2, FaultKind::NanGradient), 3);
    let faulted = ComplxPlacer::new(cfg).place(&d).expect("must recover");
    assert!(
        faulted.hpwl_legal < clean.hpwl_legal * 1.25,
        "faulted {} vs clean {}",
        faulted.hpwl_legal,
        clean.hpwl_legal
    );
}

#[test]
fn exhausted_recovery_budget_reports_diverged_with_best_placement() {
    let d = small(6);
    // More faults than the recovery budget allows.
    let plan = FaultPlan::new()
        .inject(1, FaultKind::NanGradient)
        .inject(2, FaultKind::NanGradient)
        .inject(3, FaultKind::NanGradient);
    let cfg = run_with_plan(plan, 2);
    let err = ComplxPlacer::new(cfg).place(&d).expect_err("must diverge");
    match &err {
        PlaceError::Diverged {
            recoveries, best, ..
        } => {
            assert_eq!(*recoveries, 2);
            let best = best.as_deref().expect("best feasible iterate attached");
            assert!(placement_is_finite(&d, best));
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
    assert_eq!(err.kind(), "diverged");
    assert_eq!(err.exit_code(), 5);
    assert!(err.best_placement().is_some());
    // One-line structured message, no panic, no backtrace.
    assert!(!err.to_string().contains('\n'));
}

#[test]
fn zero_recovery_budget_fails_on_first_fault() {
    let d = small(7);
    let cfg = run_with_plan(FaultPlan::new().inject(1, FaultKind::CgStall), 0);
    let err = ComplxPlacer::new(cfg).place(&d).expect_err("must diverge");
    assert!(matches!(err, PlaceError::Diverged { recoveries: 0, .. }));
}

#[test]
fn fault_free_plan_changes_nothing() {
    let d = small(8);
    let clean = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("clean");
    let with_empty_plan = ComplxPlacer::new(PlacerConfig {
        faults: Some(FaultPlan::new()),
        ..PlacerConfig::fast()
    })
    .place(&d)
    .expect("empty plan");
    assert_eq!(clean.legal, with_empty_plan.legal);
    assert_eq!(clean.recoveries, 0);
}

#[test]
fn time_budget_zero_times_out_with_structured_error() {
    let d = small(9);
    let cfg = PlacerConfig {
        time_budget: Some(0.0),
        ..PlacerConfig::fast()
    };
    let err = ComplxPlacer::new(cfg).place(&d).expect_err("must time out");
    assert!(matches!(err, PlaceError::TimedOut { .. }));
    assert_eq!(err.exit_code(), 6);
}

#[test]
fn generous_time_budget_does_not_interfere() {
    let d = small(10);
    let cfg = PlacerConfig {
        time_budget: Some(3600.0),
        ..PlacerConfig::fast()
    };
    let out = ComplxPlacer::new(cfg).place(&d).expect("plenty of time");
    assert_ne!(out.stop_reason, StopReason::TimeBudget);
    assert!(out.hpwl_legal > 0.0);
}

#[test]
fn criticality_length_mismatch_is_invalid_design_not_panic() {
    let d = small(11);
    let err = ComplxPlacer::new(PlacerConfig::fast())
        .place_with_criticality(&d, Some(&[1.0, 2.0]))
        .expect_err("wrong length");
    assert!(matches!(err, PlaceError::InvalidDesign { .. }));
    assert_eq!(err.exit_code(), 3);
}

#[test]
fn nan_criticality_is_invalid_design() {
    let d = small(12);
    let crit = vec![f64::NAN; d.num_cells()];
    let err = ComplxPlacer::new(PlacerConfig::fast())
        .place_with_criticality(&d, Some(&crit))
        .expect_err("NaN criticality");
    assert!(matches!(err, PlaceError::InvalidDesign { .. }));
}

#[test]
fn bad_smooth_model_parameters_are_invalid_design_not_panic() {
    use complx_place::Interconnect;
    let d = small(13);
    for ic in [
        Interconnect::PNorm { p: 1.0 },
        Interconnect::PNorm { p: f64::INFINITY },
        Interconnect::LogSumExp {
            gamma_rows: f64::NAN,
        },
        Interconnect::LogSumExp { gamma_rows: -1.0 },
        Interconnect::BetaRegularized { beta_rows2: 0.0 },
        Interconnect::BetaRegularized {
            beta_rows2: f64::INFINITY,
        },
    ] {
        let err = ComplxPlacer::new(PlacerConfig {
            interconnect: ic,
            ..PlacerConfig::fast()
        })
        .place(&d)
        .expect_err("bad smooth-model parameter");
        assert!(
            matches!(err, PlaceError::InvalidDesign { .. }),
            "{ic:?}: {err}"
        );
        assert_eq!(err.exit_code(), 3, "{ic:?}");
    }
}

#[test]
fn design_with_no_movable_cells_places_trivially_without_panic() {
    use complx_netlist::{CellKind, DesignBuilder, Point, Rect};
    let mut b = DesignBuilder::new("allfixed", Rect::new(0.0, 0.0, 10.0, 10.0), 1.0);
    let f1 = b
        .add_fixed_cell("a", 1.0, 1.0, CellKind::Fixed, Point::new(1.0, 1.0))
        .expect("fixed cell");
    let f2 = b
        .add_fixed_cell("b", 1.0, 1.0, CellKind::Fixed, Point::new(5.0, 5.0))
        .expect("fixed cell");
    b.add_net("n", 1.0, vec![(f1, 0.0, 0.0), (f2, 0.0, 0.0)])
        .expect("net");
    let d = b.build().expect("all-fixed design builds");
    // Nothing to move is not an error: the run converges immediately on the
    // fixed positions with a finite HPWL.
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("trivial placement");
    assert_eq!(out.iterations, 0);
    assert!(out.hpwl_legal.is_finite());
    assert!(placement_is_finite(&d, &out.legal));
}

#[test]
fn kill_fault_aborts_with_exit_code_10_before_iteration_work() {
    let d = small(13);
    let cfg = run_with_plan(FaultPlan::new().inject(3, FaultKind::Kill), 3);
    let err = ComplxPlacer::new(cfg)
        .place(&d)
        .expect_err("must be killed");
    assert!(matches!(err, PlaceError::Killed { iteration: 3 }), "{err}");
    assert_eq!(err.exit_code(), 10);
    assert_eq!(err.kind(), "killed");
}

#[test]
fn checkpoint_short_write_is_caught_at_load_and_prev_generation_survives() {
    use complx_place::{ckpt, CheckpointConfig};
    let dir = std::env::temp_dir().join(format!("complx-faults-short-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("c.ckpt");

    let d = small(14);
    let cfg = PlacerConfig {
        max_iterations: 20,
        checkpoint: Some(CheckpointConfig::new(&path, 2)),
        // The short write lands on the generation written at iteration 6,
        // leaving a truncated primary; the kill right after stops any later
        // good generation from papering over it, so the iteration-4
        // generation in `.prev` must carry the load.
        faults: Some(
            FaultPlan::new()
                .inject(6, FaultKind::CkptShortWrite)
                .inject(7, FaultKind::Kill),
        ),
        ..PlacerConfig::fast()
    };
    let err = ComplxPlacer::new(cfg)
        .place(&d)
        .expect_err("killed after the short write");
    assert!(matches!(err, PlaceError::Killed { iteration: 7 }), "{err}");

    assert!(ckpt::decode(&std::fs::read(&path).expect("primary exists")).is_err());
    let (state, used_prev) = complx_place::load_checkpoint(&path).expect(".prev fallback");
    assert!(
        used_prev,
        "loader must fall back to the previous generation"
    );
    assert_eq!(state.state.iteration, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_write_error_only_counts_and_run_completes() {
    use complx_place::CheckpointConfig;
    let dir = std::env::temp_dir().join(format!("complx-faults-werr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("c.ckpt");

    let d = small(15);
    let cfg = PlacerConfig {
        max_iterations: 20,
        checkpoint: Some(CheckpointConfig::new(&path, 2)),
        faults: Some(FaultPlan::new().inject(4, FaultKind::CkptWriteError)),
        ..PlacerConfig::fast()
    };
    let out = ComplxPlacer::new(cfg)
        .place(&d)
        .expect("write error must not abort the run");
    assert!(out.hpwl_legal.is_finite());
    // The failed generation was never committed; an earlier or later good
    // generation is still loadable.
    let (state, _) = complx_place::load_checkpoint(&path).expect("a good generation loads");
    assert!(state.state.iteration >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_a_recovery_reproduces_the_faulted_run() {
    // The recovery at iteration 3 halves λ, tightens the CG tolerance and
    // bumps the recovery count; the checkpoint at iteration 6 must carry
    // all three so the resumed run continues exactly as the uninterrupted
    // faulted one did.
    use complx_place::CheckpointConfig;
    let dir = std::env::temp_dir().join(format!("complx-faults-rec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let d = small(16);
    let with = |path: &std::path::Path, plan: FaultPlan| PlacerConfig {
        max_iterations: 20,
        checkpoint: Some(CheckpointConfig::new(path, 2)),
        faults: Some(plan),
        ..PlacerConfig::fast()
    };
    let nan_at_3 = FaultPlan::new().inject(3, FaultKind::NanGradient);

    let reference = ComplxPlacer::new(with(&dir.join("ref.ckpt"), nan_at_3.clone()))
        .place(&d)
        .expect("faulted run recovers");
    assert_eq!(reference.recoveries, 1);
    assert!(
        reference.iterations > 7,
        "test design must outlive the kill"
    );

    let path = dir.join("run.ckpt");
    let err = ComplxPlacer::new(with(&path, nan_at_3.inject(7, FaultKind::Kill)))
        .place(&d)
        .expect_err("killed at 7");
    assert!(matches!(err, PlaceError::Killed { iteration: 7 }), "{err}");

    let (checkpoint, used_prev) = complx_place::load_checkpoint(&path).expect("loads");
    assert!(!used_prev);
    assert_eq!(checkpoint.state.iteration, 6);
    assert_eq!(checkpoint.state.recoveries, 1);
    assert!(checkpoint.state.cg_tol < PlacerConfig::fast().cg_tolerance);
    // A restart does not re-specify the fault plan.
    let resumed = ComplxPlacer::new(with(&path, FaultPlan::new()))
        .resume(&d, checkpoint)
        .expect("resumed run");

    assert_eq!(reference.legal, resumed.legal, "final placement");
    assert_eq!(reference.trace, resumed.trace);
    assert_eq!(
        reference.final_lambda.to_bits(),
        resumed.final_lambda.to_bits()
    );
    assert_eq!(reference.recoveries, resumed.recoveries);
    assert_eq!(reference.stop_reason, resumed.stop_reason);
    let _ = std::fs::remove_dir_all(&dir);
}
