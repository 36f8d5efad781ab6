//! Interconnect models for analytic placement.
//!
//! The ComPLx framework is "compatible with a variety of interconnect
//! models, including linearized quadratic, log-sum-exp, etc." (paper
//! Section 1). This crate provides those models behind one trait:
//!
//! * [`InterconnectModel`] — minimize `Φ(x, y) + anchor penalty` given the
//!   previous iterate and an optional set of anchor pseudonets.
//! * [`QuadraticModel`] — linearized quadratic Φ with a pluggable
//!   [`NetModel`] (Bound2Bound of Kraftwerk2, clique, star, or a hybrid),
//!   solved by Jacobi-preconditioned Conjugate Gradient (paper Sections 2, 5).
//! * [`SmoothModel`] — the smooth Φ of paper Section S1 minimized by
//!   nonlinear Conjugate Gradient: one skeleton over a per-net
//!   [`NetKernel`], with the log-sum-exp ([`LseModel`]), β-regularization
//!   ([`BetaRegModel`]) and p,β-regularization ([`PNormModel`]) kernels.
//! * [`Anchors`] — the linearized `L1` penalty term of the simplified
//!   Lagrangian (Formula 10): each movable cell is pulled toward its anchor
//!   `(x°, y°)` with weight `λ_i / (|x_i − x_i°| + ε)`.
//!
//! # Example
//!
//! ```
//! use complx_netlist::generator::GeneratorConfig;
//! use complx_wirelength::{InterconnectModel, QuadraticModel};
//!
//! let design = GeneratorConfig::small("demo", 1).generate();
//! let mut placement = design.initial_placement();
//! let model = QuadraticModel::default();
//! // Unconstrained quadratic optimum (the first ComPLx iterate, λ = 0):
//! model.minimize(&design, &mut placement, None, None);
//! assert!(complx_netlist::hpwl::hpwl(&design, &placement) > 0.0);
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

mod anchors;
mod b2b;
mod model;
mod nlcg;
mod smooth;
mod system;

pub use anchors::Anchors;
pub use b2b::{decompose as decompose_net, NetModel};
pub use model::{InterconnectModel, MinimizeStats};
pub use smooth::{
    BetaReg, BetaRegModel, Lse, LseModel, Net, NetKernel, PNorm, PNormModel, SmoothModel,
};
pub use system::QuadraticModel;
