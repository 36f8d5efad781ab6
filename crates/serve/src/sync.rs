//! Shared locking primitives for the daemon.
//!
//! Every mutex in `complx-serve` is a [`RankedMutex`] taken through
//! [`lock_or_recover`] — never a raw `.lock()`, which the crate's
//! `clippy.toml` bans. Two reasons:
//!
//! 1. **Poison recovery.** A panicking holder only means one update was
//!    interrupted; the protected state (job table, queue, cache, stats,
//!    event buffers) is either structurally intact or about to be
//!    overwritten by a terminal transition, so serving it beats taking
//!    the whole daemon down.
//! 2. **Lock ranks.** Each mutex has a [`Rank`], and a thread may take a
//!    mutex only if its rank is above every rank the thread already
//!    holds. Two threads that both obey the ranks cannot wait on each
//!    other in a cycle, so the daemon cannot deadlock on its own locks.
//!    In debug builds `lock_or_recover` asserts the rule against a
//!    thread-local set of held ranks *before* it blocks, so an
//!    out-of-order acquisition — or re-entry on one lock — panics in the
//!    first test that runs it instead of hanging. Release builds keep no
//!    set and check nothing.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The lock ranks, lowest first. The order follows the nesting in the
/// code: admission and cancel take the job table, then the queue; a
/// terminal transition closes the job's event buffer under the table
/// lock. The cache and the stats are only ever taken alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// The job table (`Shared::jobs` in `server.rs`).
    Jobs,
    /// The admission queue (`Shared::queue`).
    Queue,
    /// One job's event buffer (`EventBuf::state` in `events.rs`).
    Events,
    /// The result cache (`Shared::cache`).
    Cache,
    /// The daemon counters (`Shared::stats`).
    Stats,
}

/// A mutex with a lock rank; take it with [`lock_or_recover`].
#[derive(Debug)]
pub struct RankedMutex<T> {
    rank: Rank,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// A mutex of rank `rank` holding `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        Self {
            rank,
            inner: Mutex::new(value),
        }
    }
}

/// Acquires `m`, recovering the guard when the mutex is poisoned. In
/// debug builds, panics if the calling thread already holds a lock of the
/// same or a higher rank.
pub fn lock_or_recover<T>(m: &RankedMutex<T>) -> Guard<'_, T> {
    let held = Held::take(m.rank);
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place serve locks a mutex: the rank is checked above"
    )]
    let guard = m.inner.lock().unwrap_or_else(PoisonError::into_inner);
    Guard { guard, held }
}

/// A locked [`RankedMutex`]. Dropping it unlocks the mutex and gives the
/// rank back.
#[derive(Debug)]
pub struct Guard<'a, T> {
    guard: MutexGuard<'a, T>,
    held: Held,
}

impl<T> Guard<'_, T> {
    /// Blocks on `cv` with the mutex unlocked, as [`Condvar::wait`], and
    /// recovers a poisoned guard on wake-up. The thread keeps the rank
    /// while it waits: it takes nothing else until it wakes.
    pub fn wait(self, cv: &Condvar) -> Self {
        let Self { guard, held } = self;
        let guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        Self { guard, held }
    }

    /// As [`Self::wait`], for at most `timeout`; also returns whether the
    /// wait timed out.
    pub fn wait_timeout(self, cv: &Condvar, timeout: Duration) -> (Self, bool) {
        let Self { guard, held } = self;
        let (guard, result) = cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (Self { guard, held }, result.timed_out())
    }
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// The rank a [`Guard`] holds. In release builds it is empty and taking
/// or dropping it does nothing.
#[derive(Debug)]
struct Held {
    #[cfg(debug_assertions)]
    rank: Rank,
}

#[cfg(debug_assertions)]
thread_local! {
    /// The ranks this thread holds, one bit per [`Rank`].
    static HELD: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

impl Held {
    #[cfg(debug_assertions)]
    fn take(rank: Rank) -> Self {
        let bit = 1u8 << rank as u8;
        HELD.with(|held| {
            let mask = held.get();
            // Every rank at or above `rank`: a held one would be taken
            // out of order, or twice.
            let conflict = mask & !(bit - 1);
            debug_assert!(
                conflict == 0,
                "lock rank violation: taking {rank:?} while holding ranks {mask:#07b} (bit 0 = Jobs)"
            );
            held.set(mask | bit);
        });
        Self { rank }
    }

    #[cfg(not(debug_assertions))]
    fn take(_rank: Rank) -> Self {
        Self {}
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // `try_with`: a guard can outlive this thread's locals during
        // thread teardown; there is then no set left to update.
        let _ = HELD.try_with(|held| held.set(held.get() & !(1u8 << self.rank as u8)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_locks_in_rank_order_pass() {
        let jobs = RankedMutex::new(Rank::Jobs, 1);
        let queue = RankedMutex::new(Rank::Queue, 2);
        let events = RankedMutex::new(Rank::Events, 3);
        let j = lock_or_recover(&jobs);
        let q = lock_or_recover(&queue);
        let e = lock_or_recover(&events);
        assert_eq!(*j + *q + *e, 6);
        drop((e, q, j));
        // Every rank was given back: the lowest one can be taken again,
        // and then the others under it.
        let stats = RankedMutex::new(Rank::Stats, ());
        let j = lock_or_recover(&jobs);
        let _q = lock_or_recover(&queue);
        drop(j);
        let _s = lock_or_recover(&stats);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock rank violation: taking Jobs")]
    fn out_of_order_locks_panic() {
        let jobs = RankedMutex::new(Rank::Jobs, ());
        let queue = RankedMutex::new(Rank::Queue, ());
        let _q = lock_or_recover(&queue);
        let _j = lock_or_recover(&jobs);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock rank violation: taking Stats")]
    fn taking_one_lock_twice_panics() {
        let stats = RankedMutex::new(Rank::Stats, ());
        let _first = lock_or_recover(&stats);
        // Without the check this would block forever on its own lock.
        let _second = lock_or_recover(&stats);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let m = std::sync::Arc::new(RankedMutex::new(Rank::Cache, 7));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock_or_recover(&m2);
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*lock_or_recover(&m), 7);
    }
}
