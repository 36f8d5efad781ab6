//! Independent verification oracle for the ComPLx reproduction.
//!
//! Everything in this crate re-derives ground truth **independently of the
//! solver crates**: it depends only on `complx-netlist` (the immutable data
//! model and Bookshelf I/O) and `complx-obs` (the hand-rolled JSON parser)
//! — never on `wirelength`, `spread`, `legalize`, `sparse` or `core`. A
//! disagreement between the oracle and the solver on any quantity is a bug
//! in one of them, which is the point: a defect in the hot path can no
//! longer silently corrupt both the answer and the metric that claims the
//! answer is correct.
//!
//! The pieces:
//!
//! * [`hpwl`] — naive O(pins) HPWL (paper Formula 1) with compensated
//!   summation; no B2B structures.
//! * [`overlap`] — row-band plane-sweep legality audit, algorithmically
//!   disjoint from `legalize::verify`'s bucket grid.
//! * [`density`] — first-principles bin overflow and ISPD-2006 scaled
//!   HPWL.
//! * [`constraints`] — region and alignment audit (paper §S5), disjoint
//!   from `spread::regions`' snapping predicates.
//! * [`trace`] / [`invariants`] — convergence-trace parsing and checks of
//!   the paper's Formulas 4, 8 and 12 plus the Π trend and anchor-weight
//!   formula.
//! * [`golden`] — committed quality snapshots with tolerance bands.
//!
//! The `complx-verify` binary packages all of it as a CLI that exits
//! nonzero when a solution, trace or report violates an invariant; see
//! DESIGN.md §13.

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

pub mod constraints;
pub mod density;
pub mod golden;
pub mod hpwl;
pub mod invariants;
pub mod kahan;
pub mod overlap;
pub mod trace;

pub use constraints::{alignment_spread, region_breach};
pub use density::{density_audit, overflow_percent, scaled_hpwl, DensityAudit, METRIC_BINS};
pub use golden::{GoldenSnapshot, GoldenTolerances};
pub use hpwl::{hpwl, net_span, weighted_hpwl};
pub use invariants::{
    anchor_epsilon, anchor_weight, check_solution, check_trace, LambdaRule, TraceChecks, Violation,
};
pub use kahan::{kahan_sum, KahanSum};
pub use overlap::{audit, audit_with_tol, PlacementAudit};
pub use trace::{parse_trace, TraceFile, TraceRecord};
