//! The ComPLx primal-dual placement loop.
//!
//! A run has three parts: bootstrap at λ = 0 (or restore a checkpoint)
//! into a [`LoopState`], advance it one `step` — primal step, projection
//! `P_C`, λ update — until the loop stops, then finish by legalizing and
//! detail-placing the best feasible iterate.

use std::time::{Duration, Instant};

use complx_legalize::{DetailedPlacer, Legalizer};
use complx_netlist::{hpwl, CellKind, Design, Placement, Point};
use complx_par::CancelToken;
use complx_sparse::CgSolver;
use complx_spread::rudy::CongestionMap;
use complx_spread::{
    CogProjection, DiffusionProjection, ElectroProjection, FeasibilityProjection, Projection,
    ProjectionResult,
};
use complx_wirelength::{
    Anchors, BetaRegModel, InterconnectModel, LseModel, PNormModel, QuadraticModel,
};

use complx_obs::{self as obs, JsonValue};

use crate::budget::Budget;
use crate::ckpt::{self, CheckpointState, CheckpointWriter};
use crate::config::{Interconnect, PlacerConfig, ProjectionBackend};
use crate::error::{PlaceError, StopReason};
use crate::faults::{FaultArming, FaultKind};
use crate::lambda::LambdaSchedule;
use crate::metrics::PlacementMetrics;
use crate::solves::{SolveRecord, SolverTotals};
use crate::trace::{IterationRecord, Trace};

/// Everything a placement run produces.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    /// The last lower-bound iterate `(x, y)` (analytic minimizer).
    pub lower: Placement,
    /// The last feasible iterate `(x°, y°)` (projection output) — per
    /// Section 4, detailed placement starts here.
    pub upper: Placement,
    /// The final legal placement (equal to `upper` when
    /// [`PlacerConfig::final_detail`] is off).
    pub legal: Placement,
    /// Quality metrics of `legal`.
    pub metrics: PlacementMetrics,
    /// HPWL of `legal` (convenience copy of `metrics.hpwl`).
    pub hpwl_legal: f64,
    /// Per-iteration convergence trace (Figures 1 and 3).
    pub trace: Trace,
    /// Number of global placement iterations executed.
    pub iterations: usize,
    /// Final λ value (Figure 3 / Section S3).
    pub final_lambda: f64,
    /// Whether the loop stopped on a convergence criterion
    /// ([`StopReason::Converged`] or [`StopReason::Stagnated`]).
    pub converged: bool,
    /// Why the primal-dual loop stopped iterating.
    pub stop_reason: StopReason,
    /// Number of divergence recoveries executed during the run (`0` for a
    /// clean run). A count, not a stop reason: [`Self::stop_reason`] still
    /// says why the loop ended.
    pub recoveries: usize,
    /// Wall-clock seconds in global placement.
    pub global_seconds: f64,
    /// Wall-clock seconds in legalization + detailed placement.
    pub detail_seconds: f64,
    /// Per-iteration linear-solver statistics (bootstrap solves at
    /// iteration 0, then one record per λ-loop primal step).
    pub solves: Vec<SolveRecord>,
}

impl PlacementOutcome {
    /// Run-level totals over [`Self::solves`].
    pub fn solver_totals(&self) -> SolverTotals {
        SolverTotals::from_records(&self.solves)
    }
}

/// Everything the λ loop carries from one iteration to the next: the whole
/// mutable state of a run and, as is, the checkpoint payload (see
/// [`crate::ckpt`]). The λ = 0 bootstrap builds it for a fresh run and
/// checkpoint decoding for a resumed one; each loop step advances it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopState {
    /// The last λ-loop iteration started (`0` after the bootstrap); the
    /// next step runs `iteration + 1`.
    pub iteration: usize,
    /// The λ schedule (λ, λ₁, h), already advanced for the next iteration.
    /// A decoded schedule carries the default update rule until
    /// [`ComplxPlacer::resume`] rebinds it to the configuration.
    pub schedule: LambdaSchedule,
    /// The penalty `Π_k` the next advance compares against.
    pub pi_prev: f64,
    /// Current CG tolerance (tightened by each divergence recovery).
    pub cg_tol: f64,
    /// Divergence recoveries executed so far.
    pub recoveries: usize,
    /// Iterations since the best feasible iterate last improved.
    pub stale: usize,
    /// HPWL of the best feasible iterate.
    pub best_phi_upper: f64,
    /// λ used by the last iteration started (for reporting).
    pub final_lambda: f64,
    /// The lower-bound (analytic) iterate.
    pub lower: Placement,
    /// The upper-bound (feasible) iterate — next iteration's anchors.
    pub upper: Placement,
    /// The best feasible iterate seen so far (SimPL's "upper-bound
    /// placement"; Section 4 reads the result off a feasible iterate, so
    /// keeping the best one means extra iterations never hurt).
    pub best_upper: Placement,
    /// The convergence trace accumulated so far.
    pub trace: Trace,
    /// The solver records accumulated so far.
    pub solves: Vec<SolveRecord>,
}

/// What one loop step tells the driver.
enum Step {
    /// Run the next iteration.
    Continue,
    /// The loop is done.
    Stop(StopReason),
}

/// The ComPLx global placer. See the crate docs for the algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplxPlacer {
    config: PlacerConfig,
    cancel: Option<CancelToken>,
}

impl Default for ComplxPlacer {
    fn default() -> Self {
        Self::new(PlacerConfig::default())
    }
}

impl ComplxPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: PlacerConfig) -> Self {
        Self {
            config,
            cancel: None,
        }
    }

    /// Attaches an external cancel token. When it trips, the run winds
    /// down cooperatively: the inner kernels (CG, NLCG, projection,
    /// detailed placement) stop at their next safe point and the loop
    /// exits through the best-iterate path with
    /// [`StopReason::Cancelled`] — or [`PlaceError::Cancelled`] when no
    /// feasible iterate exists yet. An untripped token changes nothing:
    /// the run is bit-identical to one without a token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Places a design.
    ///
    /// # Errors
    ///
    /// Returns a [`PlaceError`] when the design is unplaceable or a smooth
    /// interconnect parameter is out of range (both
    /// [`PlaceError::InvalidDesign`]), the solver breaks down before a
    /// feasible iterate exists, the run diverges past the recovery budget,
    /// or the time budget expires before any feasible iterate was
    /// produced. See [`PlaceError`] for the variants.
    pub fn place(&self, design: &Design) -> Result<PlacementOutcome, PlaceError> {
        self.run(design, None, None)
    }

    /// Resumes a run from a checkpoint captured by a previous (killed or
    /// cancelled) run with the same design and configuration, continuing
    /// at `checkpoint.state.iteration + 1`. The final placement is
    /// byte-identical to the uninterrupted run's, for any thread count.
    ///
    /// Criticality-weighted runs are not resumable: the checkpoint does
    /// not capture the criticality factors (see
    /// [`Self::place_with_criticality`]).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::CheckpointMismatch`] when the checkpoint was
    /// taken on a different design or a configuration whose
    /// determinism-relevant fields differ (see [`ckpt::config_hash`]),
    /// plus every failure mode of [`Self::place`].
    pub fn resume(
        &self,
        design: &Design,
        checkpoint: CheckpointState,
    ) -> Result<PlacementOutcome, PlaceError> {
        let mismatch = |reason: String| Err(PlaceError::CheckpointMismatch { reason });
        let dh = ckpt::design_hash(design);
        if dh != checkpoint.design_hash {
            return mismatch(format!(
                "design hash {dh:#018x} does not match checkpoint {:#018x}",
                checkpoint.design_hash
            ));
        }
        let ch = ckpt::config_hash(&self.config);
        if ch != checkpoint.config_hash {
            return mismatch(format!(
                "config hash {ch:#018x} does not match checkpoint {:#018x}",
                checkpoint.config_hash
            ));
        }
        let cells = checkpoint.state.lower.len();
        if cells != design.num_cells() {
            return mismatch(format!(
                "checkpoint holds {cells} cells for a {}-cell design",
                design.num_cells()
            ));
        }
        self.run(design, None, Some(checkpoint))
    }

    /// Places a design with per-cell criticality factors `γ_i` weighing the
    /// penalty term (Formula 13). `criticality[i]` multiplies cell `i`'s
    /// λ; pass `None` (or all-ones) for wirelength-driven placement.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::InvalidDesign`] when `criticality` has the
    /// wrong length or contains non-finite/negative entries, plus every
    /// failure mode of [`Self::place`].
    pub fn place_with_criticality(
        &self,
        design: &Design,
        criticality: Option<&[f64]>,
    ) -> Result<PlacementOutcome, PlaceError> {
        self.run(design, criticality, None)
    }

    /// The shared engine behind [`Self::place`],
    /// [`Self::place_with_criticality`], and [`Self::resume`]: validate
    /// and set up, bootstrap or restore the loop state, step it until it
    /// stops, then finish.
    fn run(
        &self,
        design: &Design,
        criticality: Option<&[f64]>,
        resume: Option<CheckpointState>,
    ) -> Result<PlacementOutcome, PlaceError> {
        if let Some(c) = criticality {
            if c.len() != design.num_cells() {
                return Err(PlaceError::InvalidDesign {
                    reason: format!(
                        "criticality has {} entries for {} cells",
                        c.len(),
                        design.num_cells()
                    ),
                });
            }
            if c.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(PlaceError::InvalidDesign {
                    reason: "criticality contains non-finite or negative factors".into(),
                });
            }
        }
        if let Some(reason) = self.config.interconnect.parameter_error() {
            return Err(PlaceError::InvalidDesign { reason });
        }
        validate_design(design)?;
        let _place_span = obs::span("place");
        let cfg = &self.config;
        #[expect(
            clippy::disallowed_methods,
            reason = "phase timer; elapsed seconds feed the report only, never a coordinate"
        )]
        let t_global = Instant::now();
        let deadline = match cfg.time_budget {
            Some(s) if s <= 0.0 => {
                return Err(PlaceError::TimedOut { budget_seconds: s });
            }
            Some(s) => Some(t_global + Duration::from_secs_f64(s)),
            None => None,
        };
        // Periodic crash-safe checkpointing. Disabled for
        // criticality-weighted runs: the checkpoint does not capture the
        // criticality factors, so a resume could not reproduce them.
        let writer = match (&cfg.checkpoint, criticality) {
            (Some(c), None) => Some(CheckpointWriter::new(
                c,
                resume.as_ref().map_or(0, |r| r.generation),
                ckpt::design_hash(design),
                ckpt::config_hash(cfg),
            )),
            _ => None,
        };
        let mut run = Run::new(self, design, criticality, deadline, writer);

        let (mut st, mut next) = match resume {
            Some(checkpoint) => (run.restore(checkpoint), Step::Continue),
            None => run.bootstrap()?,
        };
        let stop_reason = loop {
            match next {
                Step::Continue => next = run.step(&mut st)?,
                Step::Stop(reason) => break reason,
            }
        };

        let global_seconds = t_global.elapsed().as_secs_f64();
        Ok(run.finalize(st, stop_reason, global_seconds))
    }
}

/// A run's fixed context around the [`LoopState`] it advances: inputs,
/// stop budget, projection backend, interconnect model, fault arming and
/// checkpoint writer. None of it is checkpointed — a resumed run rebuilds
/// it from the same inputs.
struct Run<'a> {
    design: &'a Design,
    cfg: &'a PlacerConfig,
    criticality: Option<&'a [f64]>,
    /// Deadline ∪ external cancellation, polled at every safe point; the
    /// token additionally reaches the cancellable kernels.
    budget: Budget,
    /// The paper treats `P_C` as a black box; the backend is picked at
    /// runtime behind the object-safe `Projection` trait.
    projection: Box<dyn Projection>,
    /// The projection's finest useful grid resolution.
    adaptive: usize,
    model: Box<dyn InterconnectModel>,
    armed: FaultArming,
    writer: Option<CheckpointWriter>,
    /// Per-cell λ factor: the per-macro scale of Section 5 for movable
    /// cells, 0 for fixed ones.
    lambda_scale: Vec<f64>,
}

impl<'a> Run<'a> {
    fn new(
        placer: &'a ComplxPlacer,
        design: &'a Design,
        criticality: Option<&'a [f64]>,
        deadline: Option<Instant>,
        writer: Option<CheckpointWriter>,
    ) -> Self {
        let cfg = &placer.config;
        let projection: Box<dyn Projection> = match cfg.projection {
            ProjectionBackend::Geometric => Box::new(FeasibilityProjection {
                shred_macros: cfg.shred_macros,
                cells_per_bin: cfg.cells_per_bin,
                cancel: placer.cancel.clone(),
                ..FeasibilityProjection::default()
            }),
            ProjectionBackend::Electro => Box::new(ElectroProjection {
                cells_per_bin: cfg.cells_per_bin,
                cancel: placer.cancel.clone(),
                ..ElectroProjection::default()
            }),
            ProjectionBackend::Diffusion => Box::new(DiffusionProjection),
            ProjectionBackend::CenterOfGravity => Box::new(CogProjection),
        };
        let mean_std = design.mean_std_cell_area().max(f64::MIN_POSITIVE);
        let lambda_scale = design
            .cell_ids()
            .map(|id| {
                let cell = design.cell(id);
                if !cell.is_movable() {
                    0.0
                } else if cfg.per_macro_lambda && cell.kind() == CellKind::MovableMacro {
                    (cell.area() / mean_std).max(1.0)
                } else {
                    1.0
                }
            })
            .collect();
        Self {
            design,
            cfg,
            criticality,
            budget: Budget::new(deadline, placer.cancel.clone()),
            adaptive: projection.adaptive_bins(design),
            projection,
            model: interconnect_model(cfg, cfg.cg_tolerance),
            armed: FaultArming::new(cfg.faults.as_ref()),
            writer,
            lambda_scale,
        }
    }

    /// The λ = 0 bootstrap: unconstrained quadratic placement — a few
    /// passes let the B2B linearization settle — then the first
    /// projection. A breakdown here is fatal: no feasible iterate exists
    /// yet to degrade to. The loop stops before it starts when the design
    /// is already feasible or the projection left nothing to optimize.
    fn bootstrap(&mut self) -> Result<(LoopState, Step), PlaceError> {
        let (design, cfg) = (self.design, self.cfg);
        let _bootstrap_span = obs::span("bootstrap");
        let mut solves = Vec::new();
        let mut lower = design.initial_placement();
        for _ in 0..3 {
            let stats = self
                .model
                .minimize(design, &mut lower, None, self.budget.cancel_token());
            solves.push(SolveRecord::from_stats(0, &stats));
            if stats.breakdown {
                return Err(PlaceError::SolverBreakdown {
                    iteration: 0,
                    detail: "CG breakdown in the λ = 0 bootstrap solve".into(),
                });
            }
            if !placement_is_finite(design, &lower) {
                return Err(PlaceError::SolverBreakdown {
                    iteration: 0,
                    detail: "non-finite iterate out of the λ = 0 bootstrap solve".into(),
                });
            }
            if let Some(reason) = self.budget.stop() {
                // No projection has run yet, so there is no feasible
                // placement to exit gracefully with.
                return Err(match reason {
                    StopReason::Cancelled => PlaceError::Cancelled,
                    _ => PlaceError::TimedOut {
                        budget_seconds: cfg.time_budget.unwrap_or(0.0),
                    },
                });
            }
        }

        let boot =
            self.projection
                .project_with_bins(design, &lower, cfg.grid.bins_at(0, self.adaptive));
        let phi0 = hpwl::weighted_hpwl(design, &lower);
        let phi_upper = hpwl::weighted_hpwl(design, &boot.placement);
        let pi = boot.distance_l1;
        let mut trace = Trace::new();
        trace.push(IterationRecord {
            iteration: 0,
            lambda: 0.0,
            phi_lower: phi0,
            phi_upper,
            pi,
            lagrangian: phi0,
            overflow: boot.overflow_before,
            bins: boot.bins_used,
        });
        let feasible = boot.overflow_before < cfg.overflow_tolerance;
        let (schedule, next) = if !feasible && pi > 0.0 && phi0 > 0.0 {
            let schedule = LambdaSchedule::new(cfg.lambda_mode, cfg.lambda_init_divisor, phi0, pi)
                .with_inverse_ratio(cfg.lambda_inverse_ratio);
            (schedule, Step::Continue)
        } else {
            // λ stays 0: the loop never runs.
            let zero = LambdaSchedule::restore(0.0, 0.0, 0.0);
            (zero, Step::Stop(StopReason::Converged))
        };
        let st = LoopState {
            iteration: 0,
            schedule,
            pi_prev: pi,
            cg_tol: cfg.cg_tolerance,
            recoveries: 0,
            stale: 0,
            best_phi_upper: phi_upper,
            final_lambda: 0.0,
            lower,
            upper: boot.placement.clone(),
            best_upper: boot.placement,
            trace,
            solves,
        };
        Ok((st, next))
    }

    /// Rebinds a decoded checkpoint to this run: the schedule takes the
    /// configured update rule, the model the checkpointed CG tolerance,
    /// and faults scheduled inside the killed run's lifetime — which
    /// already fired or died with it — are disarmed.
    fn restore(&mut self, checkpoint: CheckpointState) -> LoopState {
        let mut st = checkpoint.state;
        st.schedule = st
            .schedule
            .with_mode(self.cfg.lambda_mode)
            .with_inverse_ratio(self.cfg.lambda_inverse_ratio);
        self.model = interconnect_model(self.cfg, st.cg_tol);
        self.armed.discard_through(st.iteration);
        obs::add("ckpt.resumes", 1);
        obs::event(
            "resume",
            JsonValue::object(vec![
                ("iteration", st.iteration.into()),
                ("generation", checkpoint.generation.into()),
            ]),
        );
        st
    }

    /// One λ-loop iteration (Formulas 4, 8 and 12): the primal step, the
    /// projection `P_C`, the convergence tests, the λ update and the
    /// periodic checkpoint. A faulted iteration goes to [`Self::recover`].
    fn step(&mut self, st: &mut LoopState) -> Result<Step, PlaceError> {
        let (design, cfg) = (self.design, self.cfg);
        let k = st.iteration + 1;
        if k > cfg.max_iterations {
            return Ok(Step::Stop(StopReason::IterationCap));
        }
        if let Some(reason) = self.budget.stop() {
            return Ok(Step::Stop(reason));
        }
        if self.armed.take(k, FaultKind::Kill) {
            // Simulated crash: surface exactly what an external SIGKILL
            // would leave behind — committed checkpoints on disk, nothing
            // else.
            return Err(PlaceError::Killed { iteration: k });
        }
        let _iter_span = obs::span("iteration");
        obs::add("place.iterations", 1);
        st.iteration = k;
        let lambda = st.schedule.lambda();
        st.final_lambda = lambda;

        // Snapshot for rollback: if this iteration faults, the recovery
        // policy restores the last good iterates.
        let lower_prev = st.lower.clone();

        // Primal step: minimize Φ + λ‖·−(x°,y°)‖₁ (linearized), anchored
        // at the feasible iterate — or, under RQL-style force modulation,
        // at it clamped to a few bins from each cell.
        let targets = match cfg.anchor_cap_bins {
            Some(cap_bins) => clamp_moves(
                design,
                &st.lower,
                st.upper.clone(),
                cap_bins * design.core().width() / self.adaptive as f64,
            ),
            None => st.upper.clone(),
        };
        let lambdas: Vec<f64> = self
            .lambda_scale
            .iter()
            .enumerate()
            .map(|(i, scale)| lambda * scale * self.criticality.map_or(1.0, |c| c[i]))
            .collect();
        let anchors = Anchors::per_cell(design, targets, lambdas, 1.5 * design.row_height());
        let stats = self.model.minimize(
            design,
            &mut st.lower,
            Some(&anchors),
            self.budget.cancel_token(),
        );
        let solve = SolveRecord::from_stats(k, &stats);
        st.solves.push(solve);

        // A cancel (or deadline) that tripped inside the solve left a
        // half-converged iterate; discard it and exit with the snapshot so
        // the reported lower bound stays meaningful.
        if let Some(reason) = self.budget.stop() {
            st.lower = lower_prev;
            return Ok(Step::Stop(reason));
        }

        let proj = match self.dual_step(st, stats.breakdown) {
            Ok(proj) => proj,
            Err(detail) => return self.recover(st, lower_prev, detail),
        };

        let phi_lower = hpwl::weighted_hpwl(design, &st.lower);
        let phi_upper = hpwl::weighted_hpwl(design, &st.upper);
        let pi = st.lower.l1_distance(&st.upper);
        if phi_upper < st.best_phi_upper && proj.overflow_after < 0.25 {
            st.best_phi_upper = phi_upper;
            st.best_upper = st.upper.clone();
            st.stale = 0;
        } else {
            st.stale += 1;
        }

        let rec = IterationRecord {
            iteration: k,
            lambda,
            phi_lower,
            phi_upper,
            pi,
            lagrangian: phi_lower + lambda * pi,
            overflow: proj.overflow_before,
            // The grid the projection actually used (the electro backend
            // rounds the request to a power of two).
            bins: proj.bins_used,
        };
        st.trace.push(rec);
        if obs::enabled() {
            obs::event(
                "iteration",
                rec.to_json_with(vec![
                    ("cg_iterations_x", solve.iterations_x.into()),
                    ("cg_iterations_y", solve.iterations_y.into()),
                    ("relative_residual", solve.relative_residual.into()),
                ]),
            );
        }

        // Convergence (Section 4): the relative duality gap or the overflow
        // of the analytic iterate; additionally stop when the best feasible
        // iterate has stagnated — more iterations cannot improve the result
        // that detailed placement uses.
        if proj.overflow_before < cfg.overflow_tolerance
            || (k >= 3 && rec.relative_gap() < cfg.gap_tolerance)
        {
            return Ok(Step::Stop(StopReason::Converged));
        }
        if k >= 10 && st.stale >= cfg.stagnation_window {
            return Ok(Step::Stop(StopReason::Stagnated));
        }

        st.schedule.advance(st.pi_prev, pi);
        st.pi_prev = pi;
        self.checkpoint(st);
        Ok(Step::Continue)
    }

    /// The dual step: screen the primal iterate for faults, project it
    /// with `P_C` — with routability-driven inflation when configured
    /// (SimPLR-lite) — and optionally refine with the detailed placer (the
    /// "P_C += FastPlace-DP" configuration). Injected faults flow through
    /// the same checks as real numerical failures; `Err` describes the
    /// fault.
    fn dual_step(
        &mut self,
        st: &mut LoopState,
        breakdown: bool,
    ) -> Result<ProjectionResult, String> {
        let (design, cfg, k) = (self.design, self.cfg, st.iteration);
        if self.armed.take(k, FaultKind::NanGradient) {
            poison(&mut st.lower, design);
        }
        if self.armed.take(k, FaultKind::CgStall) {
            return Err(FaultKind::CgStall.describe().into());
        }
        if breakdown {
            return Err("CG breakdown in primal solve".into());
        }
        if !placement_is_finite(design, &st.lower) {
            return Err("non-finite lower-bound iterate after primal step".into());
        }

        let bins = cfg.grid.bins_at(k, self.adaptive);
        let proj = match &cfg.routability {
            Some(r) => {
                let cbins = if r.grid_bins == 0 { bins } else { r.grid_bins };
                let map = CongestionMap::build(design, &st.lower, cbins, cbins, r.supply);
                let factors = map.inflation_factors(design, &st.lower, r.alpha, r.max_inflation);
                self.projection
                    .project_with_bins_inflated(design, &st.lower, bins, Some(&factors))
            }
            None => self.projection.project_with_bins(design, &st.lower, bins),
        };
        st.upper = proj.placement.clone();
        if self.armed.take(k, FaultKind::ProjectionStall) {
            poison(&mut st.upper, design);
        }
        if !placement_is_finite(design, &st.upper) {
            return Err("non-finite feasible iterate after projection".into());
        }
        if cfg.detail_each_iteration {
            let legalized = Legalizer::default().legalize(design, &st.upper);
            st.upper = DetailedPlacer {
                max_passes: 1,
                ..DetailedPlacer::default()
            }
            .improve(design, legalized.placement, None)
            .placement;
        }
        Ok(proj)
    }

    /// The recovery policy for a faulted iteration: restore the last good
    /// iterates, back λ off (an overgrown penalty is the usual culprit),
    /// tighten the CG tolerance, and go on with the next iteration — or
    /// give up with [`PlaceError::Diverged`] once the budget is spent.
    fn recover(
        &mut self,
        st: &mut LoopState,
        lower_prev: Placement,
        detail: String,
    ) -> Result<Step, PlaceError> {
        st.recoveries += 1;
        obs::add("place.recoveries", 1);
        obs::event(
            "recovery",
            JsonValue::object(vec![
                ("iteration", st.iteration.into()),
                ("recoveries", st.recoveries.into()),
                ("detail", detail.as_str().into()),
            ]),
        );
        if st.recoveries > self.cfg.max_recoveries {
            return Err(PlaceError::Diverged {
                iteration: st.iteration,
                recoveries: st.recoveries - 1,
                best: Some(Box::new(std::mem::take(&mut st.best_upper))),
                detail,
            });
        }
        st.lower = lower_prev;
        st.upper = st.best_upper.clone();
        st.schedule.scale(0.5);
        st.cg_tol = (st.cg_tol * 0.1).max(1e-12);
        self.model = interconnect_model(self.cfg, st.cg_tol);
        Ok(Step::Continue)
    }

    /// Periodic checkpoint at the loop bottom, where the state is exactly
    /// "iteration k done, schedule advanced" — the precondition
    /// [`ComplxPlacer::resume`] restores. Best effort: an I/O failure is
    /// counted, not fatal.
    fn checkpoint(&mut self, st: &LoopState) {
        let k = st.iteration;
        let Some(w) = self.writer.as_mut().filter(|w| w.due(k)) else {
            return;
        };
        let _ckpt_span = obs::span("checkpoint");
        match w.write(st, self.armed.take_io_fault(k)) {
            Ok(bytes) => {
                obs::add("ckpt.writes", 1);
                obs::add("ckpt.bytes", bytes);
                obs::event(
                    "checkpoint",
                    JsonValue::object(vec![
                        ("iteration", k.into()),
                        ("bytes", bytes.into()),
                        ("generation", w.generation().into()),
                    ]),
                );
            }
            Err(e) => {
                obs::add("ckpt.errors", 1);
                obs::event(
                    "checkpoint_error",
                    JsonValue::object(vec![
                        ("iteration", k.into()),
                        ("error", e.to_string().into()),
                    ]),
                );
            }
        }
    }

    /// Final legalization + detailed placement on the best feasible
    /// iterate (Section 4). Legalization always runs — the contract is a
    /// legal result even on a time-budget exit — but the detailed
    /// placement polish is skipped when the budget is already spent.
    fn finalize(
        &self,
        st: LoopState,
        stop_reason: StopReason,
        global_seconds: f64,
    ) -> PlacementOutcome {
        let (design, upper) = (self.design, st.best_upper);
        #[expect(
            clippy::disallowed_methods,
            reason = "phase timer; elapsed seconds feed the report only, never a coordinate"
        )]
        let t_detail = Instant::now();
        let legal = if self.cfg.final_detail {
            let legalized = Legalizer::default().legalize(design, &upper);
            if self.budget.stop().is_some() {
                legalized.placement
            } else {
                DetailedPlacer::default()
                    .improve(design, legalized.placement, self.budget.cancel_token())
                    .placement
            }
        } else {
            upper.clone()
        };
        let detail_seconds = t_detail.elapsed().as_secs_f64();

        let metrics = PlacementMetrics::measure(design, &legal);
        PlacementOutcome {
            lower: st.lower,
            upper,
            hpwl_legal: metrics.hpwl,
            metrics,
            legal,
            trace: st.trace,
            iterations: st.iteration,
            final_lambda: st.final_lambda,
            converged: matches!(stop_reason, StopReason::Converged | StopReason::Stagnated),
            stop_reason,
            recoveries: st.recoveries,
            global_seconds,
            detail_seconds,
            solves: st.solves,
        }
    }
}

/// The configured interconnect model. The CG tolerance is recovery state:
/// each divergence recovery tightens it (sloppier solves are a prime source
/// of breakdowns), so the model is rebuilt from the current value.
fn interconnect_model(cfg: &PlacerConfig, cg_tol: f64) -> Box<dyn InterconnectModel> {
    match cfg.interconnect {
        Interconnect::Quadratic(net_model) => Box::new(
            QuadraticModel::new(net_model).with_solver(
                CgSolver::new()
                    .with_tolerance(cg_tol)
                    .with_max_iterations(cfg.cg_max_iterations),
            ),
        ),
        Interconnect::LogSumExp { gamma_rows } => {
            Box::new(LseModel::new().with_gamma_rows(gamma_rows))
        }
        Interconnect::BetaRegularized { beta_rows2 } => {
            Box::new(BetaRegModel::new().with_beta_rows2(beta_rows2))
        }
        Interconnect::PNorm { p } => Box::new(PNormModel::new().with_p(p)),
    }
}

/// Cheap structural validation: geometry must be finite and the design
/// physically placeable. Runs once per [`ComplxPlacer::place`] call.
fn validate_design(design: &Design) -> Result<(), PlaceError> {
    let fail = |reason: String| Err(PlaceError::InvalidDesign { reason });
    let core = design.core();
    if ![core.lx, core.ly, core.hx, core.hy]
        .iter()
        .all(|v| v.is_finite())
    {
        return fail("core rectangle has non-finite coordinates".into());
    }
    if core.width() <= 0.0 || core.height() <= 0.0 {
        return fail(format!(
            "core rectangle is degenerate ({} × {})",
            core.width(),
            core.height()
        ));
    }
    if !design.row_height().is_finite() || design.row_height() <= 0.0 {
        return fail(format!(
            "row height {} is not positive and finite",
            design.row_height()
        ));
    }
    let mut movable_area = 0.0;
    for id in design.cell_ids() {
        let c = design.cell(id);
        if ![c.width(), c.height()].iter().all(|v| v.is_finite())
            || c.width() < 0.0
            || c.height() < 0.0
        {
            return fail(format!(
                "cell `{}` has invalid dimensions {} × {}",
                c.name(),
                c.width(),
                c.height()
            ));
        }
        if c.is_movable() {
            movable_area += c.area();
        } else {
            let p = design.fixed_positions().position(id);
            if !p.x.is_finite() || !p.y.is_finite() {
                return fail(format!(
                    "fixed cell `{}` has a non-finite position",
                    c.name()
                ));
            }
        }
    }
    let capacity = core.width() * core.height();
    if movable_area > capacity {
        return fail(format!(
            "movable area {movable_area:.1} exceeds core capacity {capacity:.1}"
        ));
    }
    Ok(())
}

/// Moves each movable cell of `to` back to within `cap` of its position in
/// `from`, per axis.
fn clamp_moves(design: &Design, from: &Placement, mut to: Placement, cap: f64) -> Placement {
    for &id in design.movable_cells() {
        let (a, b) = (from.position(id), to.position(id));
        let nx = a.x + (b.x - a.x).clamp(-cap, cap);
        let ny = a.y + (b.y - a.y).clamp(-cap, cap);
        to.set_position(id, Point::new(nx, ny));
    }
    to
}

/// Whether every movable cell sits at finite coordinates.
fn placement_is_finite(design: &Design, p: &Placement) -> bool {
    design.movable_cells().iter().all(|&id| {
        let pt = p.position(id);
        pt.x.is_finite() && pt.y.is_finite()
    })
}

/// Poisons one movable coordinate with NaN (fault injection only).
fn poison(placement: &mut Placement, design: &Design) {
    if let Some(&id) = design.movable_cells().first() {
        placement.set_position(id, Point::new(f64::NAN, f64::NAN));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GridSchedule, LambdaMode};
    use complx_legalize::is_legal;
    use complx_netlist::generator::GeneratorConfig;

    fn small(seed: u64) -> Design {
        GeneratorConfig::small("pl", seed).generate()
    }

    #[test]
    fn placement_converges_and_is_legal() {
        let d = small(1);
        let out = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        assert!(
            out.converged,
            "did not converge in {} iters",
            out.iterations
        );
        assert!(is_legal(&d, &out.legal, 1e-6));
        assert!(out.hpwl_legal > 0.0);
    }

    #[test]
    fn trace_shows_paper_trends() {
        // Figure 1: Π decreases, Φ (lower) increases, bounds stay ordered.
        let d = small(2);
        let out = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        let recs = out.trace.records();
        assert!(recs.len() >= 3);
        let first = recs[1]; // skip the λ=0 bootstrap record
        let last = *recs.last().unwrap();
        assert!(
            last.pi < first.pi,
            "Π must decrease: {} -> {}",
            first.pi,
            last.pi
        );
        assert!(
            last.phi_lower > first.phi_lower * 0.95,
            "Φ should (weakly) increase: {} -> {}",
            first.phi_lower,
            last.phi_lower
        );
        for r in &recs[1..] {
            assert!(
                r.phi_lower <= r.phi_upper * 1.02,
                "weak duality violated at iter {}: {} vs {}",
                r.iteration,
                r.phi_lower,
                r.phi_upper
            );
        }
    }

    #[test]
    fn lambda_increases_monotonically() {
        let d = small(3);
        let out = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        let recs = out.trace.records();
        for w in recs.windows(2) {
            assert!(w[1].lambda >= w[0].lambda);
        }
        assert!(out.final_lambda > 0.0);
        // Section S3: the final λ is bounded (its absolute magnitude is
        // design- and unit-dependent; the scale-independence claim is
        // checked across the whole suite by the fig3 harness).
        assert!(out.final_lambda.is_finite() && out.final_lambda < 1e3);
    }

    #[test]
    fn placer_is_deterministic() {
        let d = small(4);
        let a = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        let b = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        assert_eq!(a.legal, b.legal);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn placement_beats_projection_of_center_start() {
        // The full loop must clearly beat "project once and legalize".
        let d = small(5);
        let naive = {
            let p = d.initial_placement();
            let proj = complx_spread::FeasibilityProjection::default().project(&d, &p);
            let legal = complx_legalize::Legalizer::default()
                .legalize(&d, &proj.placement)
                .placement;
            complx_netlist::hpwl::hpwl(&d, &legal)
        };
        let out = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        assert!(
            out.hpwl_legal < naive,
            "placer {} vs naive {naive}",
            out.hpwl_legal
        );
    }

    #[test]
    fn mixed_size_designs_place_and_legalize() {
        let d = GeneratorConfig::ispd2006_like("pm", 6, 600, 0.7).generate();
        let out = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        assert!(is_legal(&d, &out.legal, 1e-6));
        // Movable macros actually moved away from the center pile.
        let c = d.core().center();
        let spread_out = d
            .movable_cells()
            .iter()
            .filter(|&&id| d.cell(id).kind() == CellKind::MovableMacro)
            .filter(|&&id| out.legal.position(id).l1_distance(c) > d.row_height())
            .count();
        assert!(spread_out > 0);
    }

    #[test]
    fn region_constraints_satisfied_after_placement() {
        use complx_netlist::{Rect, RegionConstraint};
        let mut cfg = GeneratorConfig::small("rg", 7);
        cfg.num_std_cells = 300;
        // Build design, then derive one with a region over the first 20 cells.
        let d0 = cfg.generate();
        let core = d0.core();
        let region_rect = Rect::new(
            core.lx,
            core.ly,
            core.lx + 0.4 * core.width(),
            core.ly + 0.4 * core.height(),
        );
        let cells: Vec<_> = d0.movable_cells().iter().copied().take(20).collect();
        let mut b = complx_netlist::DesignBuilder::from_design(&d0);
        b.add_region(RegionConstraint::new("r0", region_rect, cells));
        let d = b.build().unwrap();
        let mut fast = PlacerConfig::fast();
        fast.final_detail = false; // detail moves are not region-aware yet
        let out = ComplxPlacer::new(fast).place(&d).unwrap();
        assert!(complx_spread::regions::regions_satisfied(&d, &out.upper));
    }

    #[test]
    fn log_sum_exp_interconnect_places_legally() {
        // §S1: any smoothing of HPWL can drive the primal step.
        let d = small(9);
        let cfg = PlacerConfig {
            interconnect: crate::config::Interconnect::LogSumExp { gamma_rows: 4.0 },
            max_iterations: 15,
            ..PlacerConfig::fast()
        };
        let out = ComplxPlacer::new(cfg).place(&d).unwrap();
        assert!(is_legal(&d, &out.legal, 1e-6));
        // Must be in the same ballpark as the quadratic default (LSE with
        // few NLCG iterations is weaker; allow 2x).
        let quad = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        assert!(
            out.hpwl_legal < 2.0 * quad.hpwl_legal,
            "lse {} vs quadratic {}",
            out.hpwl_legal,
            quad.hpwl_legal
        );
    }

    #[test]
    fn grid_and_lambda_ablation_configs_run() {
        let d = small(8);
        for cfg in [
            PlacerConfig {
                grid: GridSchedule::Fixed { fraction: 1.0 },
                max_iterations: 12,
                ..PlacerConfig::fast()
            },
            PlacerConfig {
                lambda_mode: LambdaMode::Geometric { ratio: 1.3 },
                max_iterations: 12,
                ..PlacerConfig::fast()
            },
            PlacerConfig {
                lambda_mode: LambdaMode::Arithmetic { step: 1.0 },
                max_iterations: 12,
                ..PlacerConfig::fast()
            },
        ] {
            let out = ComplxPlacer::new(cfg).place(&d).unwrap();
            assert!(out.hpwl_legal > 0.0);
        }
    }

    #[test]
    fn cog_constraints_are_approached() {
        let d = GeneratorConfig::small("cog", 91).generate();
        let out = ComplxPlacer::new(PlacerConfig::cog_constrained())
            .place(&d)
            .unwrap();
        // The CoG violation of the last lower-bound iterate at the final
        // region grid — its L1 distance to `C`, Σ_r n_r(|res_x| + |res_y|)
        // over the regions' CoG residuals, at least Σ_r(|res_x| + |res_y|)
        // while every region holds a cell — must be small relative to the
        // core dimensions.
        let side = out.trace.records().last().unwrap().bins;
        let violation = complx_spread::CogProjection
            .project_with_bins(&d, &out.lower, side)
            .distance_l1;
        let scale = d.core().width() + d.core().height();
        assert!(
            violation < 0.5 * scale,
            "CoG violation {violation} vs core scale {scale}"
        );
    }

    #[test]
    fn cog_baseline_produces_legal_placement() {
        let d = GeneratorConfig::small("cogl", 92).generate();
        let out = ComplxPlacer::new(PlacerConfig::cog_constrained())
            .place(&d)
            .unwrap();
        assert!(is_legal(&d, &out.legal, 1e-6));
        assert!(out.hpwl_legal > 0.0);
    }

    #[test]
    fn cog_spreads_cells_from_center() {
        let d = GeneratorConfig::small("cogs", 93).generate();
        let out = ComplxPlacer::new(PlacerConfig::cog_constrained())
            .place(&d)
            .unwrap();
        // Mean distance from the core center must be well above zero —
        // the CoG constraints force occupation of all quadrants.
        let c = d.core().center();
        let mean_dist: f64 = d
            .movable_cells()
            .iter()
            .map(|&id| out.lower.position(id).l1_distance(c))
            .sum::<f64>()
            / d.movable_cells().len() as f64;
        assert!(
            mean_dist > 0.2 * (d.core().width() + d.core().height()) / 4.0,
            "cells still clumped: mean distance {mean_dist}"
        );
    }

    #[test]
    fn clamp_moves_caps_each_axis() {
        let d = small(72);
        let from = d.initial_placement();
        let mut to = from.clone();
        for v in to.xs_mut() {
            *v += 100.0;
        }
        let to = clamp_moves(&d, &from, to, 5.0);
        for &id in d.movable_cells() {
            let delta = (to.position(id).x - from.position(id).x).abs();
            assert!(delta <= 5.0 + 1e-9);
        }
    }

    #[test]
    fn pre_tripped_cancel_errors_before_feasible_iterate() {
        let d = small(1);
        for cfg in [
            PlacerConfig::fast(),
            PlacerConfig::fastplace_like(),
            PlacerConfig::cog_constrained(),
        ] {
            let token = CancelToken::new();
            token.cancel();
            let err = ComplxPlacer::new(cfg)
                .with_cancel(token)
                .place(&d)
                .unwrap_err();
            assert!(matches!(err, PlaceError::Cancelled), "got {err}");
            assert_eq!(err.exit_code(), 8);
        }
    }

    #[test]
    fn untripped_token_is_bit_identical_to_no_token() {
        let d = small(4);
        let plain = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        let tokened = ComplxPlacer::new(PlacerConfig::fast())
            .with_cancel(CancelToken::new())
            .place(&d)
            .unwrap();
        assert_eq!(plain.legal, tokened.legal);
        assert_eq!(plain.trace, tokened.trace);
        assert_eq!(plain.iterations, tokened.iterations);
    }

    #[test]
    fn kill_then_resume_reproduces_uninterrupted_run() {
        let fast = PlacerConfig {
            max_iterations: 20,
            ..PlacerConfig::fast()
        };
        assert_kill_then_resume_is_identical(fast, "fast");
        assert_kill_then_resume_is_identical(PlacerConfig::rql_like(), "rql");
        assert_kill_then_resume_is_identical(PlacerConfig::cog_constrained(), "cog");
    }

    /// Kills a checkpointed `base` run at iteration 5, resumes it, and
    /// asserts the result is byte-identical to the uninterrupted run.
    fn assert_kill_then_resume_is_identical(base: PlacerConfig, tag: &str) {
        use crate::config::CheckpointConfig;
        use crate::faults::FaultPlan;

        let d = small(6);
        let dir =
            std::env::temp_dir().join(format!("complx-placer-resume-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt_a = dir.join("a.ckpt");
        let ckpt_b = dir.join("b.ckpt");

        // Reference: uninterrupted checkpointed run.
        let cfg_a = PlacerConfig {
            checkpoint: Some(CheckpointConfig::new(&ckpt_a, 2)),
            ..base.clone()
        };
        let reference = ComplxPlacer::new(cfg_a).place(&d).unwrap();
        assert!(
            reference.iterations >= 5,
            "design converged too fast to test resume"
        );

        // Crash: kill at iteration 5 (checkpoints at 2 and 4 committed).
        let cfg_b = PlacerConfig {
            checkpoint: Some(CheckpointConfig::new(&ckpt_b, 2)),
            faults: Some(FaultPlan::new().inject(5, FaultKind::Kill)),
            ..base.clone()
        };
        let err = ComplxPlacer::new(cfg_b).place(&d).unwrap_err();
        assert!(
            matches!(err, PlaceError::Killed { iteration: 5 }),
            "got {err}"
        );
        assert_eq!(err.exit_code(), 10);

        // Resume from the killed run's checkpoint; the fault plan is gone
        // (a real restart would not re-specify it).
        let cfg_r = PlacerConfig {
            checkpoint: Some(CheckpointConfig::new(&ckpt_b, 2)),
            ..base.clone()
        };
        let (state, used_prev) = ckpt::load_checkpoint(&ckpt_b).unwrap();
        assert!(!used_prev);
        assert_eq!(state.state.iteration, 4);
        let resumed = ComplxPlacer::new(cfg_r).resume(&d, state).unwrap();

        assert_eq!(
            reference.legal, resumed.legal,
            "resume must be byte-identical"
        );
        assert_eq!(reference.upper, resumed.upper);
        assert_eq!(reference.lower, resumed.lower);
        assert_eq!(reference.trace, resumed.trace);
        assert_eq!(reference.iterations, resumed.iterations);
        assert_eq!(
            reference.final_lambda.to_bits(),
            resumed.final_lambda.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_design_and_config() {
        use crate::config::CheckpointConfig;

        let d = small(6);
        let other = small(7);
        let dir = std::env::temp_dir().join(format!("complx-placer-mm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt");
        let cfg = PlacerConfig {
            max_iterations: 20,
            checkpoint: Some(CheckpointConfig::new(&path, 2)),
            ..PlacerConfig::fast()
        };
        ComplxPlacer::new(cfg.clone()).place(&d).unwrap();
        let (state, _) = ckpt::load_checkpoint(&path).unwrap();

        let err = ComplxPlacer::new(cfg.clone())
            .resume(&other, state.clone())
            .unwrap_err();
        assert!(
            matches!(err, PlaceError::CheckpointMismatch { .. }),
            "got {err}"
        );
        assert_eq!(err.exit_code(), 9);

        for other_cfg in [
            PlacerConfig {
                max_iterations: 25,
                ..cfg.clone()
            },
            PlacerConfig {
                anchor_cap_bins: Some(4.0),
                ..cfg.clone()
            },
        ] {
            let err = ComplxPlacer::new(other_cfg)
                .resume(&d, state.clone())
                .unwrap_err();
            assert!(
                matches!(err, PlaceError::CheckpointMismatch { .. }),
                "got {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
