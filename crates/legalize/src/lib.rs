//! Legalization and detailed placement — the FastPlace-DP stand-in.
//!
//! ComPLx's evaluation (paper Section 6) runs FastPlace-DP (reference \[28\]) after global
//! placement; convergence analysis (Section 4) only requires a detailed
//! placer that "should not increase costs" when started from a feasible
//! placement. This crate implements the same three techniques the
//! FastPlace-DP paper describes, plus the legalizers they rely on:
//!
//! * [`RowLayout`] — standard-cell rows carved into segments around fixed
//!   obstacles (and legalized macros),
//! * [`legalize_macros`] — spiral-search legalization of movable macros,
//!   whose footprints then become row blockages,
//! * [`abacus_legalize`] — row-based least-displacement legalization of
//!   the standard cells, with cluster merging,
//! * [`DetailedPlacer`] — iterative *global swap*, *vertical swap* and
//!   *local reordering* passes until improvement stalls.
//!
//! # Example
//!
//! ```
//! use complx_netlist::generator::GeneratorConfig;
//! use complx_legalize::{DetailedPlacer, Legalizer};
//!
//! let design = GeneratorConfig::small("demo", 9).generate();
//! let global = design.initial_placement();
//! let legal = Legalizer::default().legalize(&design, &global);
//! assert!(complx_legalize::is_legal(&design, &legal.placement, 1e-6));
//! let refined = DetailedPlacer::default().improve(&design, legal.placement, None);
//! assert!(complx_legalize::is_legal(&design, &refined.placement, 1e-6));
//! ```

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

mod abacus;
mod detail;
mod legalizer;
mod macros;
pub mod mirror;
mod rows;
mod verify;

pub use abacus::abacus_legalize;
pub use detail::{DetailResult, DetailStats, DetailedPlacer};
pub use legalizer::{LegalPlacement, Legalizer};
pub use macros::legalize_macros;
pub use rows::{RowLayout, Segment};
pub use verify::{is_legal, legality_report, legality_report_with_tol, LegalityReport};
