//! Robustness tests: degenerate and extreme designs must not panic and
//! must produce sensible results.

use complx_repro::legalize::is_legal;
use complx_repro::netlist::{generator::GeneratorConfig, CellKind, DesignBuilder, Point, Rect};
use complx_repro::place::{ComplxPlacer, PlacerConfig};

#[test]
fn single_movable_cell() {
    let mut b = DesignBuilder::new("one", Rect::new(0.0, 0.0, 20.0, 20.0), 1.0);
    let a = b.add_cell("a", 2.0, 1.0, CellKind::Movable).unwrap();
    let p = b
        .add_fixed_cell("p", 1.0, 1.0, CellKind::Terminal, Point::new(0.0, 10.0))
        .unwrap();
    b.add_net("n", 1.0, vec![(a, 0.0, 0.0), (p, 0.0, 0.0)])
        .unwrap();
    let d = b.build().unwrap();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("placement failed");
    assert!(is_legal(&d, &out.legal, 1e-6));
    // The cell should gravitate toward the pad.
    assert!(out.legal.position(a).x < 10.0);
}

#[test]
fn all_cells_fixed() {
    let mut b = DesignBuilder::new("fixed", Rect::new(0.0, 0.0, 20.0, 20.0), 1.0);
    let f1 = b
        .add_fixed_cell("f1", 2.0, 2.0, CellKind::Fixed, Point::new(5.0, 5.0))
        .unwrap();
    let f2 = b
        .add_fixed_cell("f2", 2.0, 2.0, CellKind::Fixed, Point::new(15.0, 15.0))
        .unwrap();
    b.add_net("n", 1.0, vec![(f1, 0.0, 0.0), (f2, 0.0, 0.0)])
        .unwrap();
    let d = b.build().unwrap();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("placement failed");
    // Nothing to move; HPWL is the fixed-net length.
    assert!((out.hpwl_legal - 20.0).abs() < 1e-9);
    assert_eq!(out.iterations, 0);
}

#[test]
fn net_with_repeated_cell_pins() {
    // Two pins of the same net on one cell (common in real netlists).
    let mut b = DesignBuilder::new("rep", Rect::new(0.0, 0.0, 20.0, 20.0), 1.0);
    let a = b.add_cell("a", 2.0, 1.0, CellKind::Movable).unwrap();
    let c = b.add_cell("b", 2.0, 1.0, CellKind::Movable).unwrap();
    b.add_net("n", 1.0, vec![(a, -0.5, 0.0), (a, 0.5, 0.0), (c, 0.0, 0.0)])
        .unwrap();
    let d = b.build().unwrap();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("placement failed");
    assert!(is_legal(&d, &out.legal, 1e-6));
}

#[test]
fn already_feasible_design_converges_immediately() {
    // A tiny utilization design whose cells are pre-spread: the bootstrap
    // projection should find no overflow and skip the λ loop entirely.
    let mut cfg = GeneratorConfig::small("feas", 3);
    cfg.num_std_cells = 40;
    cfg.utilization = 0.05;
    let d = cfg.generate();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("placement failed");
    assert!(out.converged);
    assert!(is_legal(&d, &out.legal, 1e-6));
}

#[test]
fn very_tight_utilization_still_legalizes() {
    let mut cfg = GeneratorConfig::small("tight", 4);
    cfg.num_std_cells = 400;
    cfg.utilization = 0.93;
    cfg.num_fixed_macros = 0;
    let d = cfg.generate();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("placement failed");
    assert!(
        is_legal(&d, &out.legal, 1e-6),
        "93% utilization must legalize"
    );
}

#[test]
fn huge_net_degree_handled() {
    // One net touching a third of the design (clock-like).
    let mut b = DesignBuilder::new("clk", Rect::new(0.0, 0.0, 100.0, 100.0), 1.0);
    let ids: Vec<_> = (0..90)
        .map(|i| {
            b.add_cell(format!("c{i}"), 2.0, 1.0, CellKind::Movable)
                .unwrap()
        })
        .collect();
    for w in ids.windows(2) {
        b.add_net(
            format!("n{}", w[0]),
            1.0,
            vec![(w[0], 0.0, 0.0), (w[1], 0.0, 0.0)],
        )
        .unwrap();
    }
    b.add_net(
        "clk",
        1.0,
        ids.iter().take(30).map(|&c| (c, 0.0, 0.0)).collect(),
    )
    .unwrap();
    let d = b.build().unwrap();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("placement failed");
    assert!(is_legal(&d, &out.legal, 1e-6));
}

#[test]
fn zero_weight_free_design_is_rejected_cleanly() {
    // Nets must have positive weight — the builder, not the placer,
    // enforces this.
    let mut b = DesignBuilder::new("w", Rect::new(0.0, 0.0, 10.0, 10.0), 1.0);
    let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
    let c = b.add_cell("b", 1.0, 1.0, CellKind::Movable).unwrap();
    assert!(b
        .add_net("n", 0.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
        .is_err());
    assert!(b
        .add_net("n", -1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
        .is_err());
}

#[test]
fn long_thin_core_aspect_ratio() {
    // 20:1 aspect ratio core; everything must still work.
    let mut b = DesignBuilder::new("thin", Rect::new(0.0, 0.0, 400.0, 20.0), 1.0);
    let ids: Vec<_> = (0..120)
        .map(|i| {
            b.add_cell(format!("c{i}"), 2.0, 1.0, CellKind::Movable)
                .unwrap()
        })
        .collect();
    for w in ids.windows(3) {
        b.add_net(
            format!("n{}", w[0]),
            1.0,
            vec![(w[0], 0.0, 0.0), (w[1], 0.0, 0.0), (w[2], 0.0, 0.0)],
        )
        .unwrap();
    }
    let d = b.build().unwrap();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("placement failed");
    assert!(is_legal(&d, &out.legal, 1e-6));
}

#[test]
fn macro_only_design() {
    // Movable macros with no standard cells at all.
    let mut b = DesignBuilder::new("mac", Rect::new(0.0, 0.0, 200.0, 200.0), 8.0);
    let ids: Vec<_> = (0..5)
        .map(|i| {
            b.add_cell(format!("m{i}"), 40.0, 40.0, CellKind::MovableMacro)
                .unwrap()
        })
        .collect();
    for w in ids.windows(2) {
        b.add_net(
            format!("n{}", w[0]),
            1.0,
            vec![(w[0], 0.0, 0.0), (w[1], 0.0, 0.0)],
        )
        .unwrap();
    }
    let d = b.build().unwrap();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&d)
        .expect("placement failed");
    // Macros must end up pairwise disjoint.
    for i in 0..ids.len() {
        for j in i + 1..ids.len() {
            let a = out.legal.cell_rect(ids[i], 40.0, 40.0);
            let c = out.legal.cell_rect(ids[j], 40.0, 40.0);
            assert!(a.overlap_area(&c) < 1e-6, "macros {i}/{j} overlap");
        }
    }
}

// ---------------------------------------------------------------------------
// Crash-safety: the checkpoint codec and kill → resume reproducibility.

mod ckpt_robustness {
    use complx_repro::netlist::{generator::GeneratorConfig, Placement};
    use complx_repro::par;
    use complx_repro::place::ckpt;
    use complx_repro::place::{
        CheckpointConfig, CheckpointState, ComplxPlacer, FaultKind, FaultPlan, IterationRecord,
        LambdaSchedule, LoopState, PlaceError, PlacerConfig, SolveRecord, Trace,
    };
    use proptest::prelude::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("complx-robustness-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// Any f64 bit pattern — the codec stores raw bits, so NaNs and
    /// infinities must round-trip too.
    fn arb_f64() -> impl Strategy<Value = f64> {
        (0u64..=u64::MAX).prop_map(f64::from_bits)
    }

    fn arb_bool() -> impl Strategy<Value = bool> {
        (0u8..2).prop_map(|b| b == 1)
    }

    fn arb_placement(n: usize) -> impl Strategy<Value = Placement> {
        (collection::vec(arb_f64(), n), collection::vec(arb_f64(), n))
            .prop_map(|(xs, ys)| Placement::from_coords(xs, ys))
    }

    fn arb_record() -> impl Strategy<Value = IterationRecord> {
        (
            (0usize..10_000, arb_f64(), arb_f64(), arb_f64()),
            (arb_f64(), arb_f64(), arb_f64(), 0usize..4096),
        )
            .prop_map(
                |((iteration, lambda, phi_lower, phi_upper), (pi, lagrangian, overflow, bins))| {
                    IterationRecord {
                        iteration,
                        lambda,
                        phi_lower,
                        phi_upper,
                        pi,
                        lagrangian,
                        overflow,
                        bins,
                    }
                },
            )
    }

    fn arb_solve() -> impl Strategy<Value = SolveRecord> {
        (
            (0usize..10_000, 0usize..10_000, 0usize..10_000, arb_f64()),
            (0usize..100, arb_bool(), arb_bool()),
        )
            .prop_map(
                |(
                    (iteration, iterations_x, iterations_y, relative_residual),
                    (clamped_diagonals, converged, breakdown),
                )| SolveRecord {
                    iteration,
                    iterations_x,
                    iterations_y,
                    relative_residual,
                    clamped_diagonals,
                    converged,
                    breakdown,
                },
            )
    }

    fn arb_state() -> impl Strategy<Value = CheckpointState> {
        (0usize..24).prop_flat_map(|n| {
            (
                (
                    0u64..=u64::MAX,
                    0u64..=u64::MAX,
                    0u64..=u64::MAX,
                    0usize..100_000,
                    arb_f64(),
                    arb_f64(),
                ),
                (
                    arb_f64(),
                    arb_f64(),
                    0usize..100,
                    0usize..100,
                    arb_f64(),
                    arb_f64(),
                ),
                (arb_placement(n), arb_placement(n), arb_placement(n)),
                (
                    collection::vec(arb_record(), 0..12),
                    collection::vec(arb_solve(), 0..12),
                ),
            )
                .prop_map(
                    |(
                        (design_hash, config_hash, generation, iteration, lambda, lambda_1),
                        (h, pi_prev, recoveries, stale, cg_tol, best_phi_upper),
                        (lower, upper, best_upper),
                        (records, solves),
                    )| {
                        let mut trace = Trace::new();
                        for r in records {
                            trace.push(r);
                        }
                        CheckpointState {
                            design_hash,
                            config_hash,
                            generation,
                            state: LoopState {
                                iteration,
                                schedule: LambdaSchedule::restore(lambda, lambda_1, h),
                                pi_prev,
                                cg_tol,
                                recoveries,
                                stale,
                                best_phi_upper,
                                final_lambda: lambda,
                                lower,
                                upper,
                                best_upper,
                                trace,
                                solves,
                            },
                        }
                    },
                )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// encode ∘ decode ∘ encode is the identity on the wire format —
        /// re-encoding the decoded state reproduces the original bytes
        /// bit-for-bit (which proves field-level identity without tripping
        /// over NaN != NaN).
        #[test]
        fn codec_round_trips_any_state(state in arb_state()) {
            let bytes = ckpt::encode(&state);
            let decoded = ckpt::decode(&bytes).expect("well-formed bytes decode");
            prop_assert_eq!(ckpt::encode(&decoded), bytes);
        }

        /// Every proper prefix of a valid checkpoint is rejected — a torn
        /// write can never be mistaken for a complete one.
        #[test]
        fn codec_rejects_any_truncation(state in arb_state(), frac in 0.0f64..1.0) {
            let bytes = ckpt::encode(&state);
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let cut = ((bytes.len() as f64) * frac) as usize;
            prop_assert!(cut < bytes.len());
            prop_assert!(ckpt::decode(&bytes[..cut]).is_err());
        }

        /// Any single flipped bit is caught — by the checksum, or earlier
        /// by structural validation.
        #[test]
        fn codec_rejects_any_bit_flip(state in arb_state(), frac in 0.0f64..1.0, bit in 0u8..8) {
            let mut bytes = ckpt::encode(&state);
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let i = (((bytes.len() - 1) as f64) * frac) as usize;
            bytes[i] ^= 1 << bit;
            prop_assert!(ckpt::decode(&bytes).is_err());
        }
    }

    /// The headline crash-safety contract, at both thread counts: a run
    /// killed mid-flight and resumed from its last checkpoint produces a
    /// final placement byte-identical to the uninterrupted run.
    #[test]
    fn kill_and_resume_is_byte_identical_at_1_and_4_threads() {
        for threads in [1usize, 4] {
            let _g = par::with_threads(threads);
            let dir = scratch_dir(&format!("resume-t{threads}"));
            let d = GeneratorConfig::small("rsm", 11).generate();
            let base = PlacerConfig {
                max_iterations: 20,
                ..PlacerConfig::fast()
            };

            let ref_ckpt = dir.join("ref.ckpt");
            let reference = ComplxPlacer::new(PlacerConfig {
                checkpoint: Some(CheckpointConfig::new(&ref_ckpt, 2)),
                ..base.clone()
            })
            .place(&d)
            .expect("reference run");
            assert!(
                reference.iterations >= 6,
                "test design must run long enough to kill at iteration 6"
            );

            let kill_ckpt = dir.join("kill.ckpt");
            let err = ComplxPlacer::new(PlacerConfig {
                checkpoint: Some(CheckpointConfig::new(&kill_ckpt, 2)),
                faults: Some(FaultPlan::new().inject(6, FaultKind::Kill)),
                ..base.clone()
            })
            .place(&d)
            .expect_err("killed run must error");
            assert!(matches!(err, PlaceError::Killed { iteration: 6 }));

            let (state, used_prev) =
                complx_repro::place::load_checkpoint(&kill_ckpt).expect("checkpoint loads");
            assert!(!used_prev, "primary checkpoint generation must be intact");
            let resumed = ComplxPlacer::new(base.clone())
                .resume(&d, state)
                .expect("resumed run");

            assert_eq!(
                reference.legal, resumed.legal,
                "threads={threads}: resumed final placement must be byte-identical"
            );
            assert_eq!(reference.trace, resumed.trace);
            assert_eq!(reference.iterations, resumed.iterations);

            // The resumed trace must satisfy the paper's invariants just
            // like an uninterrupted one.
            let parsed = complx_repro::oracle::parse_trace(&resumed.trace.to_csv())
                .expect("trace CSV round-trip");
            let violations = complx_repro::oracle::check_trace(
                &parsed.records,
                &complx_repro::oracle::TraceChecks::default(),
            );
            assert!(
                violations.is_empty(),
                "resumed trace violates invariants: {violations:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// IO faults on checkpoint writes never abort the run; the loader
    /// always hands back a state with a valid checksum (falling back to
    /// the `.prev` generation past a corrupt primary).
    #[test]
    fn checkpoint_io_faults_degrade_gracefully() {
        let dir = scratch_dir("iofault");
        let d = GeneratorConfig::small("iof", 12).generate();
        let path = dir.join("c.ckpt");
        let out = ComplxPlacer::new(PlacerConfig {
            max_iterations: 20,
            checkpoint: Some(CheckpointConfig::new(&path, 2)),
            faults: Some(
                FaultPlan::new()
                    .inject(4, FaultKind::CkptCorrupt)
                    .inject(6, FaultKind::CkptWriteError),
            ),
            ..PlacerConfig::fast()
        })
        .place(&d)
        .expect("checkpoint faults must not abort the run");
        assert!(out.hpwl_legal.is_finite());

        let (state, _) =
            complx_repro::place::load_checkpoint(&path).expect("some generation loads");
        assert!(state.state.iteration >= 2);
        assert!(ckpt::decode(&ckpt::encode(&state)).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
