//! Sparse symmetric linear algebra for quadratic placement.
//!
//! Global placers that minimize a quadratic interconnect objective
//! `Φ_Q(x) = xᵀQx + fᵀx` need to repeatedly solve `Qx = −f` where `Q` is a
//! sparse, symmetric, positive-definite Laplacian-like matrix derived from
//! the netlist (see the ComPLx paper, Section 2). This crate provides the
//! minimal, dependency-free substrate for that:
//!
//! * [`TripletMatrix`] — a coordinate-format accumulator that nets and anchor
//!   pseudonets are stamped into,
//! * [`CsrMatrix`] — sliced ELLPACK (SELL-8-σ) storage whose
//!   matrix–vector product sums eight rows in lockstep, bit-identical to a
//!   row-at-a-time loop,
//! * [`CsrWorkspace`] — reusable buffers that build a [`CsrMatrix`] from
//!   several triplet buffers in one pass,
//! * [`CgSolver`] — a Jacobi-preconditioned Conjugate Gradient solver with
//!   configurable tolerance and iteration limits,
//! * small dense-vector helpers in [`vector`].
//!
//! # Example
//!
//! Solve a 2×2 SPD system:
//!
//! ```
//! use complx_sparse::{CgSolver, TripletMatrix};
//!
//! let mut t = TripletMatrix::new(2);
//! t.add(0, 0, 4.0);
//! t.add(0, 1, 1.0);
//! t.add(1, 0, 1.0);
//! t.add(1, 1, 3.0);
//! let a = t.to_csr();
//!
//! let b = [1.0, 2.0];
//! let mut x = vec![0.0; 2];
//! let stats = CgSolver::new().solve(&a, &b, &mut x, None);
//! assert!(stats.converged);
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-8);
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

mod cg;
mod csr;
mod triplet;
pub mod vector;

pub use cg::{CgBreakdown, CgSolver, SolveStats};
pub use csr::{CsrMatrix, CsrWorkspace, PAR_MIN_MERGE_NNZ};
pub use triplet::TripletMatrix;
