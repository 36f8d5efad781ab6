//! Netlist model, metrics, Bookshelf I/O and synthetic benchmark generation
//! for the ComPLx global-placement reproduction.
//!
//! The central type is [`Design`] — an immutable netlist with cells, weighted
//! multi-pin nets, pin offsets, a core region, row geometry, a density target
//! and optional hard region constraints. A [`Placement`] assigns center
//! coordinates to every cell. [`hpwl`] implements the weighted
//! half-perimeter wirelength objective (paper Formula 1), and [`density`]
//! provides bin-grid utilization metrics including the ISPD-2006 style
//! scaled HPWL.
//!
//! Designs come from three places:
//!
//! 1. [`DesignBuilder`] — programmatic construction,
//! 2. [`bookshelf`] — the ISPD contest exchange format (`.aux` bundles),
//! 3. [`generator`] — deterministic synthetic ISPD-like instances used by
//!    the benchmark harness (see DESIGN.md for the substitution rationale).
//!
//! # Example
//!
//! ```
//! use complx_netlist::{generator, hpwl};
//!
//! let design = generator::GeneratorConfig::small("demo", 42).generate();
//! let placement = design.initial_placement();
//! let wl = hpwl::hpwl(&design, &placement);
//! assert!(wl > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `expect_used` is denied, not forbidden, for the one waiver in
// `GeneratorConfig::generate`, whose signature promises a design.
#![cfg_attr(
    not(test),
    forbid(
        clippy::unwrap_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    ),
    deny(clippy::expect_used, clippy::float_cmp, clippy::float_cmp_const)
)]

pub mod bookshelf;
mod cell;
pub mod density;
mod design;
mod error;
pub mod generator;
mod geom;
pub mod hpwl;
mod net;
mod placement;
mod region;
mod stats;
mod tracker;
pub mod transform;
pub mod validate;

pub use cell::{Cell, CellId, CellKind};
pub use design::{Design, DesignBuilder};
pub use error::{BookshelfError, DesignError};
pub use geom::{Point, Rect};
pub use net::{Net, NetId, Pin};
pub use placement::Placement;
pub use region::{AlignmentAxis, AlignmentConstraint, RegionConstraint};
pub use stats::DesignStats;
pub use tracker::HpwlTracker;
