//! Placer configuration.

use complx_wirelength::NetModel;

/// Which interconnect model `Φ` the placer minimizes (paper §S1: "any one
/// of these approximations can be used in ComPLx").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Interconnect {
    /// Linearized quadratic with the given net decomposition (the SimPL /
    /// ComPLx default is Bound2Bound).
    Quadratic(NetModel),
    /// Log-sum-exp smoothing minimized by nonlinear Conjugate Gradient.
    LogSumExp {
        /// Smoothing parameter as a multiple of the row height.
        gamma_rows: f64,
    },
    /// β-regularized linear wirelength (§S1, Alpert et al., reference \[4\]) minimized
    /// by nonlinear Conjugate Gradient.
    BetaRegularized {
        /// β as a multiple of the squared row height.
        beta_rows2: f64,
    },
    /// p,β-regularization of the max terms (§S1, Kennings & Markov,
    /// reference \[21\]) minimized by nonlinear Conjugate Gradient.
    PNorm {
        /// The exponent `p ≥ 2`; larger is closer to true HPWL.
        p: f64,
    },
}

impl Interconnect {
    /// Why this choice's smoothing parameter is unusable, if it is: γ and β
    /// must be positive and finite, `p` finite and at least 2.
    pub(crate) fn parameter_error(&self) -> Option<String> {
        let usable = match *self {
            Interconnect::Quadratic(_) => true,
            Interconnect::LogSumExp { gamma_rows: v }
            | Interconnect::BetaRegularized { beta_rows2: v } => v > 0.0 && v.is_finite(),
            Interconnect::PNorm { p } => p >= 2.0 && p.is_finite(),
        };
        (!usable).then(|| format!("interconnect parameter out of range: {self:?}"))
    }
}

impl Default for Interconnect {
    fn default() -> Self {
        Interconnect::Quadratic(NetModel::Bound2Bound)
    }
}

/// How λ evolves between iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LambdaMode {
    /// ComPLx's Formula 12: `λ_{k+1} = min(2λ_k, λ_k + (Π_{k+1}/Π_k)·h)`.
    Complx {
        /// The scaling constant `h`, as a multiple of `λ_1`.
        h_factor: f64,
    },
    /// SimPL's fixed arithmetic pseudonet-weight growth
    /// (`λ_{k+1} = λ_k + step·λ_1`) — the special case of Section 5.
    Arithmetic {
        /// Step size as a multiple of `λ_1`.
        step: f64,
    },
    /// Plain geometric growth (for ablation).
    Geometric {
        /// Per-iteration multiplier.
        ratio: f64,
    },
}

impl Default for LambdaMode {
    fn default() -> Self {
        // h must be large enough that the 2λ cap of Formula 12 binds during
        // the early iterations ("a maximum increase in λ can be imposed,
        // say 100% per iteration") — λ then doubles until it engages, after
        // which growth is additive and modulated by the Π ratio. h = 20·λ₁
        // was calibrated on the synthetic suite (see DESIGN.md §6).
        LambdaMode::Complx { h_factor: 20.0 }
    }
}

/// How the `P_C` grid resolution evolves over iterations.
///
/// ComPLx "gradually increases the accuracy of `P_C` as the grid-cell size
/// decreases" and Section 6 shows coarse grids lose nothing; the *finest
/// grid* configuration of Table 1 is the `Fixed` variant at the finest
/// resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GridSchedule {
    /// Start coarse and refine geometrically to the adaptive resolution
    /// (the default configuration of Table 1).
    CoarseToFine {
        /// Initial resolution as a fraction of the adaptive resolution.
        start_fraction: f64,
        /// Per-iteration growth of the bin count.
        growth: f64,
    },
    /// Use one fixed fraction of the adaptive resolution for all
    /// iterations (`1.0` = "Finest Grid" of Table 1).
    Fixed {
        /// Resolution as a fraction of the adaptive resolution.
        fraction: f64,
    },
}

impl Default for GridSchedule {
    fn default() -> Self {
        GridSchedule::CoarseToFine {
            start_fraction: 0.25,
            growth: 1.2,
        }
    }
}

impl GridSchedule {
    /// The square-grid resolution for iteration `k` given the adaptive
    /// (finest useful) resolution.
    pub fn bins_at(&self, k: usize, adaptive: usize) -> usize {
        let bins = match *self {
            GridSchedule::CoarseToFine {
                start_fraction,
                growth,
            } => {
                let start = (adaptive as f64 * start_fraction).max(2.0);
                (start * growth.powi(k as i32)).min(adaptive as f64)
            }
            GridSchedule::Fixed { fraction } => (adaptive as f64 * fraction).max(2.0),
        };
        (bins.round() as usize).clamp(2, 2048)
    }
}

/// Which feasibility-projection backend implements `P_C`.
///
/// The paper treats `P_C` as a black box (Section 4); the repo ships four
/// interchangeable implementations behind `complx_spread::Projection`:
/// the geometric SimPL-style engine, the FFT electrostatic engine
/// (FFTPL-style Poisson density equalization), FastPlace-style local
/// diffusion and the center-of-gravity constraint set. Only the first two
/// are user-selectable by name; the others exist for the
/// [`PlacerConfig::fastplace_like`] and [`PlacerConfig::cog_constrained`]
/// baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProjectionBackend {
    /// Geometric look-ahead legalization (clustering + bisection
    /// spreading) — the paper's reference implementation.
    #[default]
    Geometric,
    /// Electrostatic density equalization: charge density on a
    /// power-of-two grid, spectral Poisson solve, field-driven drift.
    Electro,
    /// FastPlace-style local cell shifting down the bin-utilization
    /// gradient — the "local subgradient" spreading of paper Section 3.
    Diffusion,
    /// GORDIAN-style center-of-gravity constraints: each region of a
    /// median-bisection grid is shifted so its CoG sits on its center — the
    /// convex, linear constraint set of paper Section S4.
    CenterOfGravity,
}

impl std::fmt::Display for ProjectionBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProjectionBackend::Geometric => "geometric",
            ProjectionBackend::Electro => "electro",
            ProjectionBackend::Diffusion => "diffusion",
            ProjectionBackend::CenterOfGravity => "cog",
        })
    }
}

impl std::str::FromStr for ProjectionBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "geometric" => Ok(ProjectionBackend::Geometric),
            "electro" => Ok(ProjectionBackend::Electro),
            other => Err(format!(
                "unknown projection backend '{other}' (expected geometric|electro)"
            )),
        }
    }
}

/// Routability-driven extension (SimPLR-lite, paper Section 5): estimate
/// congestion with a RUDY map each iteration and inflate cells in
/// congested bins before the feasibility projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutabilityConfig {
    /// Routing supply per unit area (demand/supply > 1 ⇒ congested).
    pub supply: f64,
    /// Inflation aggressiveness: width factor = 1 + alpha·(congestion − 1).
    pub alpha: f64,
    /// Inflation cap.
    pub max_inflation: f64,
    /// Congestion grid resolution (square); 0 selects the projection grid.
    pub grid_bins: usize,
}

impl Default for RoutabilityConfig {
    fn default() -> Self {
        Self {
            supply: 1.0,
            alpha: 0.5,
            max_inflation: 2.0,
            grid_bins: 0,
        }
    }
}

/// Periodic crash-safe checkpointing of the λ-loop state.
///
/// Every `every` iterations the placer serializes its complete loop state
/// (iterates, λ schedule, recovery state, trace) to `path` with an atomic
/// tmp-file + rename protocol, rotating the previous file to
/// `<path>.prev`. A run killed between checkpoints can then be resumed
/// with [`crate::ComplxPlacer::resume`] and produces a final placement
/// byte-identical to the uninterrupted run. Checkpoint writes are
/// best-effort: an I/O failure is counted and logged but never fails the
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Destination file; the previous generation rotates to `<path>.prev`.
    pub path: std::path::PathBuf,
    /// Checkpoint every `every` global-placement iterations (≥ 1).
    pub every: usize,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every `every` iterations.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(path: impl Into<std::path::PathBuf>, every: usize) -> Self {
        assert!(every >= 1, "checkpoint interval must be at least 1");
        Self {
            path: path.into(),
            every,
        }
    }
}

/// Full placer configuration. Start from [`PlacerConfig::default`] (the
/// paper's "Default Config."), [`PlacerConfig::finest_grid`], or
/// [`PlacerConfig::fast`] for tests.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerConfig {
    /// Interconnect model for `Φ`.
    pub interconnect: Interconnect,
    /// Maximum global placement iterations.
    pub max_iterations: usize,
    /// Stop when the relative duality gap `Δ_Φ/Φ(x°,y°)` falls below this.
    pub gap_tolerance: f64,
    /// Stop when the overflow ratio falls below this.
    pub overflow_tolerance: f64,
    /// λ scheduling mode.
    pub lambda_mode: LambdaMode,
    /// The divisor in `λ_1 = Φ/(divisor·Π)`; the paper uses 100.
    pub lambda_init_divisor: f64,
    /// Interpret Formula 12's Π ratio as `Π_k/Π_{k+1}` (accelerate while Π
    /// falls) instead of `Π_{k+1}/Π_k`.
    pub lambda_inverse_ratio: bool,
    /// Which `P_C` implementation to call each iteration.
    pub projection: ProjectionBackend,
    /// Grid-resolution schedule for `P_C`.
    pub grid: GridSchedule,
    /// Adaptive-resolution target (movable items per bin at the finest
    /// grid).
    pub cells_per_bin: f64,
    /// Scale λ per macro by `area(macro)/mean std-cell area` (Section 5).
    pub per_macro_lambda: bool,
    /// Shred macros inside `P_C` (Section 5).
    pub shred_macros: bool,
    /// Run `P_C` result through the detailed placer *every iteration*
    /// (the expensive `P_C += FastPlace-DP` configuration of Table 1).
    pub detail_each_iteration: bool,
    /// Run legalization + detailed placement after global placement.
    pub final_detail: bool,
    /// CG relative tolerance for the quadratic solves.
    pub cg_tolerance: f64,
    /// CG iteration cap per axis solve (`0` = automatic). Warm starts make
    /// modest caps nearly free in quality while keeping per-iteration cost
    /// linear — the approximate solves the paper's convergence theory
    /// allows ("it is sufficient for P_C to find a solution that is
    /// reasonably close", §4; the same holds for the primal step).
    pub cg_max_iterations: usize,
    /// Stop after this many iterations without an improvement of the best
    /// feasible iterate (Section 4 reads the result off a feasible iterate,
    /// so further iterations cannot help).
    pub stagnation_window: usize,
    /// RQL's force modulation (the ad-hoc thresholding paper Section 3
    /// criticizes): each movable cell's anchor target may sit at most this
    /// many bin widths from its current lower-bound position, per axis. A
    /// bin width is the core width over the adaptive grid resolution, on
    /// both axes. `None` anchors at the feasible iterate itself.
    pub anchor_cap_bins: Option<f64>,
    /// Routability-driven cell inflation (SimPLR-lite); `None` disables it.
    pub routability: Option<RoutabilityConfig>,
    /// How many divergence recoveries (roll back to the best feasible
    /// iterate, halve λ, tighten the CG tolerance, retry) the placer may
    /// attempt before giving up with [`crate::PlaceError::Diverged`].
    pub max_recoveries: usize,
    /// Wall-clock budget in seconds for the whole run; when it expires the
    /// placer exits gracefully through the best-iterate path with
    /// [`crate::StopReason::TimeBudget`]. `None` = unlimited.
    pub time_budget: Option<f64>,
    /// Fault-injection plan exercising the recovery machinery (testing
    /// only); `None` injects nothing.
    pub faults: Option<crate::faults::FaultPlan>,
    /// Periodic crash-safe checkpointing; `None` disables it. Excluded
    /// (like `time_budget` and `faults`) from the config hash a resume
    /// validates against, so a killed run and its resume match.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            interconnect: Interconnect::default(),
            max_iterations: 100,
            gap_tolerance: 0.1,
            overflow_tolerance: 0.05,
            lambda_mode: LambdaMode::default(),
            lambda_init_divisor: 100.0,
            // "λ increases proportionally to Π changes": calibration found
            // the accelerate-while-Π-falls reading (Π_k/Π_{k+1}) gives
            // better quality on the synthetic suite; see DESIGN.md §6.
            lambda_inverse_ratio: true,
            projection: ProjectionBackend::default(),
            grid: GridSchedule::default(),
            cells_per_bin: 3.0,
            per_macro_lambda: true,
            shred_macros: true,
            detail_each_iteration: false,
            final_detail: true,
            cg_tolerance: 1e-5,
            cg_max_iterations: 50,
            stagnation_window: 12,
            anchor_cap_bins: None,
            routability: None,
            max_recoveries: 3,
            time_budget: None,
            faults: None,
            checkpoint: None,
        }
    }
}

impl PlacerConfig {
    /// Looks a configuration up by the preset name that the `complx` CLI's
    /// preset flags and `complx-serve`'s `preset=` parameter use:
    /// `default`, `fast`, `simpl`, `finest-grid`, `detail`
    /// ([`Self::projection_with_detail`]) or `stress`.
    ///
    /// `stress` is the default configuration with no convergence criterion
    /// that can fire, so a solve runs to its iteration cap (or its cancel
    /// token). Load tests use it to hold scheduler slots for a
    /// deterministic amount of work.
    ///
    /// # Errors
    ///
    /// An unknown name; the message lists the known ones.
    pub fn preset(name: &str) -> Result<Self, String> {
        Ok(match name {
            "default" => Self::default(),
            "fast" => Self::fast(),
            "simpl" => Self::simpl(),
            "finest-grid" => Self::finest_grid(),
            "detail" => Self::projection_with_detail(),
            "stress" => Self {
                gap_tolerance: f64::NEG_INFINITY,
                overflow_tolerance: f64::NEG_INFINITY,
                stagnation_window: usize::MAX,
                ..Self::default()
            },
            other => {
                return Err(format!(
                    "unknown preset `{other}` (default|fast|simpl|finest-grid|detail|stress)"
                ))
            }
        })
    }

    /// The "Finest Grid" configuration of Table 1: the finest grid in all
    /// iterations.
    pub fn finest_grid() -> Self {
        Self {
            grid: GridSchedule::Fixed { fraction: 1.0 },
            ..Self::default()
        }
    }

    /// The "`P_C` += FastPlace-DP" configuration of Table 1: post-process
    /// every projection with the detailed placer.
    pub fn projection_with_detail() -> Self {
        Self {
            detail_each_iteration: true,
            ..Self::default()
        }
    }

    /// A cheap configuration for unit tests: fewer iterations, looser
    /// tolerances.
    pub fn fast() -> Self {
        Self {
            max_iterations: 60,
            gap_tolerance: 0.1,
            overflow_tolerance: 0.08,
            ..Self::default()
        }
    }

    /// The electrostatic-projection configuration: identical to the
    /// default except `P_C` runs the FFT Poisson backend.
    pub fn electro() -> Self {
        Self {
            projection: ProjectionBackend::Electro,
            ..Self::default()
        }
    }

    /// The SimPL special case (Section 5): arithmetic pseudonet-weight
    /// growth and a coarser convergence test.
    pub fn simpl() -> Self {
        Self {
            lambda_mode: LambdaMode::Arithmetic { step: 50.0 },
            lambda_inverse_ratio: false,
            gap_tolerance: 0.1,
            overflow_tolerance: 0.05,
            ..Self::default()
        }
    }

    /// An RQL-style baseline (Viswanathan et al., DAC 2007): SimPL-like
    /// spreading on the finest grid with a fixed arithmetic multiplier
    /// schedule and force modulation — anchor targets clamped to four bin
    /// widths from each cell ([`Self::anchor_cap_bins`]). The stagnation
    /// test never fires.
    pub fn rql_like() -> Self {
        Self {
            lambda_mode: LambdaMode::Arithmetic { step: 40.0 },
            lambda_inverse_ratio: false,
            grid: GridSchedule::Fixed { fraction: 1.0 },
            per_macro_lambda: false,
            cg_max_iterations: 0,
            stagnation_window: usize::MAX,
            anchor_cap_bins: Some(4.0),
            ..Self::default()
        }
    }

    /// A FastPlace-3.0-style baseline: the hybrid clique/star net model,
    /// local diffusion as `P_C` ([`ProjectionBackend::Diffusion`]) and
    /// geometric anchor-weight growth. It stops only on overflow or the
    /// iteration cap; the gap and stagnation tests never fire.
    pub fn fastplace_like() -> Self {
        Self {
            interconnect: Interconnect::Quadratic(NetModel::HybridCliqueStar),
            max_iterations: 120,
            gap_tolerance: f64::NEG_INFINITY,
            overflow_tolerance: 0.04,
            lambda_mode: LambdaMode::Geometric { ratio: 1.3 },
            lambda_inverse_ratio: false,
            projection: ProjectionBackend::Diffusion,
            grid: GridSchedule::Fixed { fraction: 1.0 },
            per_macro_lambda: false,
            cg_max_iterations: 0,
            stagnation_window: usize::MAX,
            ..Self::default()
        }
    }

    /// A GORDIAN-style center-of-gravity constrained primal-dual placer
    /// (Alpert et al., 1998), the comparison point of paper Section S4:
    /// `P_C` is the CoG constraint set ([`ProjectionBackend::CenterOfGravity`])
    /// on a region grid refined from 2 to 16 regions per side, doubling
    /// every 8 iterations, for 32 iterations. GORDIAN solves its quadratic
    /// program subject to the CoG constraints, so the analytic iterate must
    /// end on `C`: Formula 12's `h` is 2000·λ₁ instead of 20·λ₁, which
    /// keeps λ doubling for about the first dozen iterations and ends it
    /// about 100× higher. The gap, overflow and stagnation tests never fire: the
    /// density overflow at 2 × 2 regions can read zero, which would stop
    /// the run at the bootstrap, and the best feasible iterate keeps
    /// improving as the regions refine. Macros get the plain λ of standard
    /// cells.
    pub fn cog_constrained() -> Self {
        Self {
            max_iterations: 32,
            gap_tolerance: f64::NEG_INFINITY,
            overflow_tolerance: f64::NEG_INFINITY,
            lambda_mode: LambdaMode::Complx { h_factor: 2000.0 },
            projection: ProjectionBackend::CenterOfGravity,
            grid: GridSchedule::CoarseToFine {
                start_fraction: 0.125,
                growth: 2f64.powf(1.0 / 8.0),
            },
            per_macro_lambda: false,
            stagnation_window: usize::MAX,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_to_fine_is_monotone_and_capped() {
        let g = GridSchedule::default();
        let adaptive = 64;
        let mut prev = 0;
        for k in 0..40 {
            let b = g.bins_at(k, adaptive);
            assert!(b >= prev);
            assert!(b <= adaptive);
            prev = b;
        }
        assert_eq!(g.bins_at(39, adaptive), adaptive);
    }

    #[test]
    fn fixed_grid_is_constant() {
        let g = GridSchedule::Fixed { fraction: 0.5 };
        assert_eq!(g.bins_at(0, 64), g.bins_at(30, 64));
        assert_eq!(g.bins_at(0, 64), 32);
    }

    #[test]
    fn presets_differ_in_the_right_ways() {
        let d = PlacerConfig::default();
        assert!(!d.detail_each_iteration);
        assert!(PlacerConfig::projection_with_detail().detail_each_iteration);
        assert_eq!(
            PlacerConfig::finest_grid().grid,
            GridSchedule::Fixed { fraction: 1.0 }
        );
        assert!(matches!(
            PlacerConfig::simpl().lambda_mode,
            LambdaMode::Arithmetic { .. }
        ));
        assert_eq!(d.anchor_cap_bins, None);
        assert_eq!(PlacerConfig::rql_like().anchor_cap_bins, Some(4.0));
        assert_eq!(
            PlacerConfig::fastplace_like().projection,
            ProjectionBackend::Diffusion
        );
        let cog = PlacerConfig::cog_constrained();
        assert_eq!(cog.projection, ProjectionBackend::CenterOfGravity);
        assert_eq!(cog.lambda_mode, LambdaMode::Complx { h_factor: 2000.0 });
        assert_eq!((cog.grid.bins_at(0, 16), cog.grid.bins_at(8, 16)), (2, 4));
        assert_eq!(
            (cog.grid.bins_at(24, 16), cog.grid.bins_at(31, 16)),
            (16, 16)
        );
        assert_eq!(
            PlacerConfig {
                max_iterations: d.max_iterations,
                gap_tolerance: d.gap_tolerance,
                overflow_tolerance: d.overflow_tolerance,
                lambda_mode: d.lambda_mode,
                projection: d.projection,
                grid: d.grid,
                per_macro_lambda: d.per_macro_lambda,
                stagnation_window: d.stagnation_window,
                ..cog
            },
            d
        );
    }

    #[test]
    fn preset_names_map_to_their_constructors() {
        let stress = PlacerConfig {
            gap_tolerance: f64::NEG_INFINITY,
            overflow_tolerance: f64::NEG_INFINITY,
            stagnation_window: usize::MAX,
            ..PlacerConfig::default()
        };
        let expected = [
            ("default", PlacerConfig::default()),
            ("fast", PlacerConfig::fast()),
            ("simpl", PlacerConfig::simpl()),
            ("finest-grid", PlacerConfig::finest_grid()),
            ("detail", PlacerConfig::projection_with_detail()),
            ("stress", stress),
        ];
        for (name, cfg) in &expected {
            let preset = PlacerConfig::preset(name).expect("known preset");
            assert_eq!(
                crate::idhash::config_hash(&preset),
                crate::idhash::config_hash(cfg),
                "{name}"
            );
        }
        let err = PlacerConfig::preset("turbo").expect_err("unknown preset");
        assert!(err.contains("`turbo`"), "{err}");
        for (name, _) in &expected {
            assert!(err.contains(name), "{err} lacks {name}");
        }
    }

    #[test]
    fn diffusion_is_not_a_parsable_backend_name() {
        assert_eq!("electro".parse(), Ok(ProjectionBackend::Electro));
        assert!("diffusion".parse::<ProjectionBackend>().is_err());
        assert!("cog".parse::<ProjectionBackend>().is_err());
    }
}
