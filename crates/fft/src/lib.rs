//! Hand-rolled spectral kernels for the electrostatic feasibility
//! projection (FFTPL-style density equalization; ROADMAP item 2).
//!
//! The crate is deliberately self-contained — no external FFT library, only
//! `complx-par` for deterministic parallelism — and exposes four layers:
//!
//! 1. [`FftPlan`] — an in-place iterative radix-2 complex FFT over
//!    power-of-two lengths with precomputed twiddle/bit-reversal tables.
//!    Butterfly stages parallelize over fixed-size element chunks, so the
//!    result is bit-identical for any thread count.
//! 2. [`RealPlan`] — DCT-II/DST-II style forward transforms and the
//!    matching cosine/sine series evaluations, each reduced to one
//!    `2n`-point complex FFT via the classical phase-twist identity.
//! 3. [`Spectral2d`] — separable 2-D transforms over row-major grids,
//!    parallelized over row blocks.
//! 4. [`PoissonSolver`] — the electrostatic step itself: given a charge
//!    density on a bin grid, solve `∇²ψ = ρ̃` under Neumann boundaries and
//!    differentiate spectrally to get the equalizing field `E = ∇ψ`.

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

mod complex;
mod plan;
mod poisson;
mod real;
mod spectral;

pub use complex::Complex;
pub use plan::FftPlan;
pub use poisson::{FieldSolution, PoissonSolver};
pub use real::RealPlan;
pub use spectral::Spectral2d;
