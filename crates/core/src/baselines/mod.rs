//! The one baseline that is not a ComPLx configuration.
//!
//! The force-directed baselines of the paper's comparisons (Tables 1 and
//! 2) are [`PlacerConfig`] presets run by the same λ loop, just as paper
//! Section 5 casts SimPL as a special case of ComPLx:
//!
//! * [`PlacerConfig::simpl`] — SimPL: arithmetic pseudonet-weight growth
//!   and a coarser convergence test.
//! * [`PlacerConfig::rql_like`] — RQL: the same spreading with a fixed
//!   arithmetic schedule and ad-hoc force modulation (anchor targets
//!   clamped to a few bins), the foil of paper Section 3.
//! * [`PlacerConfig::fastplace_like`] — FastPlace 3.0: the hybrid net
//!   model and *local* bin-based cell shifting (diffusion) instead of a
//!   global feasibility projection.
//!
//! [`CogConstrained`] — a GORDIAN-style center-of-gravity constrained
//! primal-dual placer, the §S4 comparison point — uses explicit CoG
//! constraints, a different formulation, so it keeps its own loop.
//!
//! [`PlacerConfig`]: crate::PlacerConfig
//! [`PlacerConfig::simpl`]: crate::PlacerConfig::simpl
//! [`PlacerConfig::rql_like`]: crate::PlacerConfig::rql_like
//! [`PlacerConfig::fastplace_like`]: crate::PlacerConfig::fastplace_like

mod cog;

pub use cog::CogConstrained;
