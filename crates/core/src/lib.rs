//! ComPLx: a competitive primal-dual Lagrange optimization for global
//! placement (Kim & Markov, DAC 2012) — the core placer of this
//! reproduction.
//!
//! The algorithm alternates two steps until the duality gap closes
//! (paper Sections 3–4):
//!
//! 1. **Primal step** — minimize the simplified Lagrangian
//!    `L°(x, y, λ) = Φ(x, y) + λ‖(x, y) − (x°, y°)‖₁` (Formula 10) with a
//!    pluggable interconnect model (linearized-quadratic Bound2Bound by
//!    default, log-sum-exp optional). This produces the *lower-bound*
//!    placement.
//! 2. **Dual step** — project onto the feasible set with `P_C`
//!    (look-ahead legalization) to obtain the anchors `(x°, y°)` — the
//!    *upper-bound* placement — and raise λ per Formula 12:
//!    `λ_{k+1} = min(2λ_k, λ_k + (Π_{k+1}/Π_k)·h)`, starting from
//!    `λ_1 = Φ/(100·Π)`.
//!
//! Per Section 4, iterations stop on the relative duality gap
//! `Δ_Φ = Φ(x°, y°) − Φ(x, y)`, and detailed placement runs on the last
//! *feasible* iterate. Mixed-size designs get per-macro λ scaling and
//! macro shredding inside `P_C` (Section 5); timing-driven placement
//! weighs the penalty by cell criticality (Formula 13, Section S6).
//!
//! # Quickstart
//!
//! ```
//! use complx_netlist::generator::GeneratorConfig;
//! use complx_place::{ComplxPlacer, PlacerConfig};
//!
//! let design = GeneratorConfig::small("quick", 1).generate();
//! let outcome = ComplxPlacer::new(PlacerConfig::fast())
//!     .place(&design)
//!     .expect("placement failed");
//! assert!(outcome.hpwl_legal > 0.0);
//! assert!(outcome.trace.len() >= 2);
//! ```
//!
//! The paper's SimPL, RQL- and FastPlace-style comparison points are
//! [`PlacerConfig`] presets of the same loop (Section 5's "special
//! cases"); [`baselines`] holds the one that is not, the §S4 CoG placer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    forbid(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    ),
    deny(clippy::float_cmp, clippy::float_cmp_const)
)]

pub mod baselines;
mod budget;
pub mod ckpt;
mod config;
mod error;
pub mod faults;
pub mod idhash;
mod lambda;
mod metrics;
mod placer;
pub mod report;
pub mod service;
mod solves;
pub mod timing_driven;
mod trace;

pub use budget::Budget;
pub use ckpt::{load_checkpoint, CheckpointState, CkptError};
pub use config::{
    CheckpointConfig, GridSchedule, Interconnect, LambdaMode, PlacerConfig, ProjectionBackend,
    RoutabilityConfig,
};
pub use error::{PlaceError, StopReason};
pub use faults::{FaultInjection, FaultKind, FaultPlan};
pub use idhash::{config_hash, design_hash};
pub use lambda::LambdaSchedule;
pub use metrics::PlacementMetrics;
pub use placer::{ComplxPlacer, LoopState, PlacementOutcome};
pub use report::{attach_extra, run_report};
pub use service::{solve, SolveArtifacts, SolveRequest};
pub use solves::{SolveRecord, SolverTotals};
pub use trace::{IterationRecord, Trace};
