//! Scoped fork-join on the persistent pool.
//!
//! [`scope`] is the only place in the workspace that touches `unsafe`: it
//! erases the `'scope` lifetime of spawned closures so they can sit in the
//! `'static` pool queue. Soundness rests on one invariant — **`scope` does
//! not return (or unwind) until every spawned job has completed** — which
//! is enforced by a completion counter waited on in a drop guard, so it
//! holds even when the scope body itself panics.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::pool::{Job, Pool};

/// Shared between a scope, its spawned jobs, and the wait guard.
struct ScopeState {
    /// Jobs spawned but not yet completed.
    pending: AtomicUsize,
    /// Lock + condvar pair for the completion wait. The lock is held
    /// around the decrement so a waiter cannot observe `pending > 0` and
    /// then sleep through the corresponding notification.
    lock: Mutex<()>,
    done: Condvar,
    /// First captured worker panic, re-thrown on the scope's caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

fn plain<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Handle for spawning borrowed jobs onto the pool; see [`scope`].
pub struct Scope<'scope> {
    pool: &'static Pool,
    state: Arc<ScopeState>,
    /// Invariance over `'scope` (the same trick as `std::thread::scope`):
    /// prevents the borrow checker from shrinking `'scope` to something
    /// that ends before the scope waits.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns `f` onto the pool. The closure may borrow anything that
    /// outlives the [`scope`] call, and runs under the spawning thread's
    /// [`crate::threads`]. A panicking job does not abort the others; the
    /// first panic payload is re-thrown when the scope closes.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let budget = crate::threads();
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            // The job runs under its spawner's thread budget, whichever
            // thread picks it up, so nested parallel calls decide alike.
            let _budget = crate::with_threads(budget);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                plain(&state.panic).get_or_insert(payload);
            }
            // Publish completion: the lock pairs with the waiter's
            // check-then-wait, and the Release ordering (via SeqCst) makes
            // the job's writes visible to whoever sees the decrement.
            let guard = plain(&state.lock);
            state.pending.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
            state.done.notify_all();
        });
        // SAFETY: the job only borrows data that lives for `'scope`, and
        // `scope` (via `WaitGuard`, which runs even on unwind) blocks
        // until `pending` returns to zero — i.e. until this job has fully
        // executed — before `'scope` can end. The transmute only erases
        // the lifetime; the vtable and layout are unchanged.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.submit(job);
    }
}

/// Blocks until the scope's `pending` count reaches zero, helping to
/// drain the pool queue while waiting (so progress is guaranteed even
/// with zero pooled workers, and the caller's core is never idle).
struct WaitGuard<'a> {
    state: &'a ScopeState,
    pool: &'static Pool,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        while self.state.pending.load(Ordering::SeqCst) != 0 {
            if self.pool.try_run_one() {
                continue;
            }
            let guard = plain(&self.state.lock);
            if self.state.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            // Bounded wait: a job submitted by a still-running sibling
            // (nested scopes) may be worth helping with, so wake up
            // periodically to poll the queue again.
            let _ = self
                .state
                .done
                .wait_timeout(guard, Duration::from_micros(200));
        }
    }
}

/// Runs `body` with a [`Scope`] whose spawned jobs may borrow local data;
/// returns only after every spawned job has completed.
///
/// The pool is sized to `threads() - 1` workers on entry (the caller is
/// the remaining runner: it executes the scope body, then helps drain the
/// queue while waiting). If a job panics, the first panic payload is
/// re-thrown here after all jobs have finished; if `body` itself panics,
/// the scope still waits for every job before unwinding.
pub fn scope<'env, R>(body: impl FnOnce(&Scope<'env>) -> R) -> R {
    let pool = Pool::global();
    pool.ensure_workers(crate::threads().saturating_sub(1));
    let s = Scope {
        pool,
        state: Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }),
        _marker: PhantomData,
    };
    let result = {
        let _wait = WaitGuard {
            state: &s.state,
            pool,
        };
        body(&s)
        // `_wait` drops here: blocks until all spawned jobs are done,
        // even if `body` panicked.
    };
    if let Some(payload) = plain(&s.state.panic).take() {
        resume_unwind(payload);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn jobs_borrow_and_mutate_local_data() {
        let _g = crate::with_threads(4);
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let total = AtomicU64::new(0);
        scope(|s| {
            for chunk in data.chunks(3) {
                s.spawn(|| {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.into_inner(), 36);
    }

    #[test]
    fn pool_is_reused_across_scopes() {
        let _g = crate::with_threads(3);
        let hits = AtomicU64::new(0);
        for _ in 0..10 {
            scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(hits.into_inner(), 40);
        // Worker count stays bounded by the requested parallelism: reuse,
        // not respawn (other tests may have grown the pool further, so
        // only the global cap can be asserted exactly).
        assert!(Pool::global().workers() <= crate::MAX_THREADS);
    }

    #[test]
    fn worker_panic_propagates_to_caller_and_pool_survives() {
        let _g = crate::with_threads(4);
        let finished = AtomicU64::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("deliberate test panic"));
                s.spawn(|| {
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        let payload = caught.expect_err("worker panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("(non-str payload)");
        assert!(msg.contains("deliberate"), "payload: {msg}");
        // Sibling jobs still ran; the scope waited for them.
        assert_eq!(finished.load(Ordering::Relaxed), 1);
        // The pool remains usable afterwards.
        let ok = AtomicU64::new(0);
        scope(|s| {
            s.spawn(|| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.into_inner(), 1);
    }

    #[test]
    fn nested_spawns_complete_before_scope_returns() {
        let _g = crate::with_threads(4);
        let hits = AtomicU64::new(0);
        scope(|s| {
            s.spawn(|| {
                hits.fetch_add(1, Ordering::Relaxed);
                // A job may open its own (nested) scope.
                scope(|inner| {
                    inner.spawn(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
        });
        assert_eq!(hits.into_inner(), 2);
    }

    #[test]
    fn jobs_inherit_the_spawners_thread_budget() {
        let _g = crate::with_threads(3);
        let seen = Mutex::new(Vec::new());
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let inner = crate::threads();
                    let _nested = crate::with_threads(5);
                    scope(|s| {
                        s.spawn(|| {
                            plain(&seen).push((inner, crate::threads()));
                        });
                    });
                });
            }
        });
        assert_eq!(plain(&seen).as_slice(), &[(3, 5); 4]);
        assert_eq!(crate::threads(), 3);
    }

    #[test]
    fn empty_scope_returns_body_value() {
        assert_eq!(scope(|_| 42), 42);
    }
}
