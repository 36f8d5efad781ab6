//! The feasibility projection `P_C` of ComPLx (paper Sections 3–5, S2).
//!
//! `P_C(x, y)` maps a placement to a nearby *constraint-feasible* placement:
//! one where every bin of a uniform grid respects the target density γ, and
//! (optionally) every region-constrained cell sits inside its region. ComPLx
//! uses the projected placement both as the penalty anchor `(x°, y°)` of the
//! simplified Lagrangian (Formula 10) and as the upper-bound placement that
//! detailed placement starts from (Section 4).
//!
//! The implementation follows SimPL's look-ahead legalization, restructured
//! per paper Section S2:
//!
//! 1. build a [`CapacityMap`] (free area per bin, obstacles subtracted),
//! 2. find overfilled bins and grow each cluster to the smallest rectangular
//!    bin sub-array with enough free capacity ([`cluster`]),
//! 3. inside each region, run top-down geometric partitioning with
//!    order-preserving one-dimensional spreading ([`spread_in_rect`]),
//! 4. optionally shred movable macros into 2×2-row-height cells first and
//!    interpolate their displacement afterwards ([`shred`], Section 5),
//! 5. optionally snap region-constrained cells into their regions
//!    (Section S5).
//!
//! The projection is *approximate* — the paper proves (citing Kiwiel et al.)
//! that primal-dual convergence only needs a feasible point that does not
//! increase the distance to `C`, and Section 6 shows coarse grids work fine.
//!
//! # Example
//!
//! ```
//! use complx_netlist::generator::GeneratorConfig;
//! use complx_spread::FeasibilityProjection;
//!
//! let design = GeneratorConfig::small("demo", 3).generate();
//! let placement = design.initial_placement(); // everything stacked at center
//! let projection = FeasibilityProjection::default();
//! let result = projection.project(&design, &placement);
//! assert!(result.overflow_after < result.overflow_before);
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

mod bisect;
mod capacity;
mod cluster;
mod cog;
mod diffusion;
mod electro;
mod items;
mod projection;
pub mod regions;
pub mod rudy;
pub mod self_consistency;
pub mod shred;

pub use bisect::spread_in_rect;
pub use capacity::CapacityMap;
pub use cluster::{cluster, SpreadRegion};
pub use cog::CogProjection;
pub use diffusion::DiffusionProjection;
pub use electro::{ElectroField, ElectroProjection};
pub use items::Item;
pub use projection::{FeasibilityProjection, Projection, ProjectionResult};
