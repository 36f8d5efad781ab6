//! Deterministic parallel execution runtime for the placer hot paths.
//!
//! This crate is std-only (like `complx-obs`, it has an empty dependency
//! list) and provides three layers:
//!
//! 1. **Thread-count policy** ([`threads`], [`set_threads`],
//!    [`with_threads`]): how many runners a parallel call may use. The
//!    default is the machine's available parallelism; `COMPLX_THREADS`
//!    overrides it process-wide, [`set_threads`] overrides the environment
//!    (the CLI's `--threads N`), and [`with_threads`] installs a
//!    thread-local override for race-free tests.
//! 2. **A persistent pool with scoped fork-join** ([`scope`]): worker
//!    threads are spawned once, on demand, and reused for the whole
//!    process; [`scope`] lends borrowed closures to them and never returns
//!    until every spawned job has finished (worker panics are captured and
//!    re-thrown on the caller).
//! 3. **Chunked helpers** ([`par_for`], [`par_map`]) that claim indices
//!    dynamically but return results *in index order*, and the size-only
//!    chunk geometry ([`chunk_count`], [`chunk_range`]) kernels split by.
//!
//! It also hosts the [`CancelToken`] cooperative-cancellation primitive the
//! solve pipeline polls at safe points — it lives here (rather than in the
//! placer) so every kernel crate can accept one without new dependencies.
//!
//! # Determinism contract
//!
//! Every helper here guarantees **bit-identical results for any thread
//! count**, including 1, because:
//!
//! * chunk boundaries are a function of the problem size only — never of
//!   the thread count — whenever the merge is order-sensitive (floating
//!   point reductions);
//! * per-chunk partial results are combined sequentially in ascending
//!   chunk order on the calling thread, so an f64 reduction performs the
//!   exact same sequence of additions no matter which worker computed
//!   which partial;
//! * at `threads() == 1` the same chunks run inline on the caller, in
//!   order, with no pool dispatch at all — the sequential code path *is*
//!   the chunked algorithm executed in order.
//!
//! Kernels whose merge is order-*preserving* (per-row SpMV output slots,
//! triplet buffers concatenated in net order, sparse `+=` update lists
//! applied in element order) are free to pick thread-dependent partitions:
//! the result is bitwise independent of the partitioning by construction.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
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

mod cancel;
mod ops;
mod pool;
mod scope;

pub use cancel::CancelToken;
pub use ops::{chunk_count, chunk_range, par_for, par_map};
pub use scope::{scope, Scope};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard upper bound on the number of runners (and pooled worker threads).
pub const MAX_THREADS: usize = 256;

/// Process-wide thread-count override; `0` means "not set".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local override installed by [`with_threads`]; `0` = none.
    static TL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The machine's available parallelism (`1` when it cannot be queried).
pub fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `COMPLX_THREADS` environment override, read once; `0` when unset
/// or unparsable.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("COMPLX_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// Sets the process-wide thread count (the CLI's `--threads N`).
///
/// `0` restores the automatic default (`COMPLX_THREADS`, then available
/// parallelism). Values are clamped to `1..=`[`MAX_THREADS`] at use time.
/// Thanks to the determinism contract this only affects speed, never
/// results.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The effective thread count for parallel calls issued by this thread.
///
/// Resolution order: [`with_threads`] override on this thread, then
/// [`set_threads`], then `COMPLX_THREADS`, then [`available`]. Always at
/// least 1 and at most [`MAX_THREADS`].
pub fn threads() -> usize {
    let tl = TL_THREADS.with(Cell::get);
    let n = if tl != 0 {
        tl
    } else {
        let g = GLOBAL_THREADS.load(Ordering::Relaxed);
        if g != 0 {
            g
        } else {
            let e = env_threads();
            if e != 0 {
                e
            } else {
                available()
            }
        }
    };
    n.clamp(1, MAX_THREADS)
}

/// Restores the previous thread-local override when dropped.
#[must_use = "dropping the guard immediately restores the previous thread count"]
#[derive(Debug)]
pub struct ThreadsGuard {
    prev: usize,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        TL_THREADS.with(|c| c.set(self.prev));
    }
}

/// Overrides [`threads`] for the current thread until the guard drops.
///
/// Tests use this instead of [`set_threads`] so concurrently running tests
/// cannot race on the process-wide setting (results would be identical
/// either way — this keeps the *coverage* deterministic too).
pub fn with_threads(n: usize) -> ThreadsGuard {
    let prev = TL_THREADS.with(|c| c.replace(n.clamp(1, MAX_THREADS)));
    ThreadsGuard { prev }
}

/// Spawns the worker threads a run at `n` threads will use, ahead of the
/// first parallel call.
///
/// [`scope`] sizes the pool lazily, so without prewarming the first
/// parallel region of a process pays thread creation — and its
/// allocations are charged to whatever profiling span happens to be
/// active. Benchmarks call this before the measured window so thread
/// startup cost lands outside it; results are bit-identical either way.
pub fn prewarm(n: usize) {
    pool::Pool::global().ensure_workers(n.clamp(1, MAX_THREADS).saturating_sub(1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_resolution_and_override() {
        assert!(threads() >= 1);
        {
            let _g = with_threads(3);
            assert_eq!(threads(), 3);
            {
                let _inner = with_threads(7);
                assert_eq!(threads(), 7);
            }
            assert_eq!(threads(), 3);
        }
        assert!(threads() >= 1);
    }

    #[test]
    fn with_threads_clamps_to_valid_range() {
        let _g = with_threads(0);
        assert_eq!(threads(), 1);
        let _g2 = with_threads(usize::MAX);
        assert_eq!(threads(), MAX_THREADS);
    }

    #[test]
    fn available_is_positive() {
        assert!(available() >= 1);
    }
}
