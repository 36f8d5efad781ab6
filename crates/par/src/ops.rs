//! Chunked parallel iteration with deterministic, order-stable merges.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::scope;

/// Number of chunks of size `chunk` covering `len` elements. Depends only
/// on `(len, chunk)` — never on the thread count — so results merged in
/// chunk order are bit-stable across thread counts.
pub fn chunk_count(len: usize, chunk: usize) -> usize {
    len.div_ceil(chunk.max(1))
}

/// The half-open element range of chunk `i` (see [`chunk_count`]).
pub fn chunk_range(len: usize, chunk: usize, i: usize) -> Range<usize> {
    let chunk = chunk.max(1);
    let lo = i * chunk;
    lo..(lo + chunk).min(len)
}

fn claim(next: &AtomicUsize, n: usize) -> Option<usize> {
    let i = next.fetch_add(1, Ordering::Relaxed);
    (i < n).then_some(i)
}

/// Runs `f(i)` for every `i in 0..n`, using at most [`crate::threads`]
/// concurrent runners (the calling thread is one of them).
///
/// Index-to-runner assignment is dynamic (load-balanced) and therefore
/// *not* deterministic; `f` must only perform work whose combined effect
/// is independent of that assignment — disjoint writes, atomics, or
/// side-effect-free work captured per index.
pub fn par_for(n: usize, f: impl Fn(usize) + Sync) {
    let t = crate::threads().min(n);
    if t <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    scope(|s| {
        let run = || {
            while let Some(i) = claim(&next, n) {
                f(i)
            }
        };
        for _ in 1..t {
            s.spawn(run);
        }
        run();
    });
}

/// Maps `f` over `0..n` in parallel and returns the results **in index
/// order**, regardless of which runner computed which index.
///
/// With `threads() == 1` (or `n <= 1`) this is a plain in-order loop with
/// no pool dispatch. Because the output ordering is by index, any merge
/// the caller performs over the returned vector is bit-identical for
/// every thread count.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let t = crate::threads().min(n);
    if t <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    scope(|s| {
        let run = || {
            while let Some(i) = claim(&next, n) {
                let value = f(i); // computed outside the lock
                collected
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push((i, value));
            }
        };
        for _ in 1..t {
            s.spawn(run);
        }
        run();
    });
    let mut pairs = collected
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    debug_assert_eq!(pairs.len(), n);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunk_geometry() {
        assert_eq!(chunk_count(0, 16), 0);
        assert_eq!(chunk_count(1, 16), 1);
        assert_eq!(chunk_count(16, 16), 1);
        assert_eq!(chunk_count(17, 16), 2);
        assert_eq!(chunk_range(17, 16, 0), 0..16);
        assert_eq!(chunk_range(17, 16, 1), 16..17);
        // Degenerate chunk size is clamped to 1 instead of dividing by zero.
        assert_eq!(chunk_count(3, 0), 3);
        assert_eq!(chunk_range(3, 0, 2), 2..3);
    }

    #[test]
    fn par_for_covers_every_index_exactly_once() {
        let _g = crate::with_threads(4);
        let n = 1000;
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_for(n, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_preserves_index_order() {
        for t in [1, 2, 8] {
            let _g = crate::with_threads(t);
            let out = par_map(257, |i| i * i);
            assert_eq!(out.len(), 257);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let _g = crate::with_threads(8);
        assert_eq!(par_map(0, |i| i), vec![]);
        par_for(0, |_| unreachable!());
        // A single element never reaches the pool.
        assert_eq!(par_map(1, |i| i + 10), vec![10]);
    }
}
