//! The thread-local instrumentation pipeline.
//!
//! Instrumented code calls [`span`], [`add`], [`observe`] and [`event`]
//! unconditionally; when no pipeline is installed (the default) every call
//! is a branch on a thread-local flag and nothing else, so instrumentation
//! costs nothing in benchmark kernels. [`install`] arms the current thread
//! with a set of [`Sink`]s plus an always-on aggregator; [`harvest`]
//! disarms it and returns the aggregated phase times, counters and
//! histograms.
//!
//! The pipeline is deliberately thread-local rather than global: the
//! placer's control flow is single-threaded, and per-thread state keeps
//! parallel test runs and multi-design batch drivers from contending or
//! cross-contaminating.
//!
//! Parallel kernels still get observed through a **[`carrier`]**: the
//! armed thread captures a handle to a mutex-protected side aggregate
//! (plus its current span path as a prefix), worker threads [`Carrier::attach`]
//! it for the duration of one job, and their spans/counters/histograms are
//! folded back into the main [`Harvest`] — instead of being silently
//! dropped on threads that never called [`install`]. Only timings and
//! totals cross threads this way; they are merged at harvest time, so
//! worker scheduling never changes any *placement* result, only the
//! attribution of seconds in the report.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::{Histogram, HistogramSummary};
use crate::json::JsonValue;
use crate::prof::MemMark;
use crate::report::{MemPhaseStat, PhaseStat};
use crate::sink::Sink;

thread_local! {
    /// Mirror of `COLLECTOR.is_some()`: the span/counter fast path reads
    /// this single `Cell<bool>` and returns immediately when disarmed.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    /// Mirror of `WORKER.is_some()`, same trick as `ACTIVE`.
    static WORKER_ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Worker-side pipeline installed by [`Carrier::attach`] for the
    /// duration of one pool job.
    static WORKER: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

struct PhaseAgg {
    path: String,
    depth: usize,
    count: u64,
    total: f64,
    min: f64,
    max: f64,
    /// Whether any span charged memory here (memory profiling armed).
    mem_armed: bool,
    allocs: u64,
    alloc_bytes: u64,
    peak_bytes: i64,
}

/// Folds one span sample into a phase aggregate list. `mem` is the span's
/// allocation delta `(allocs, bytes, peak)` when memory profiling was
/// armed for it.
fn merge_phase(
    phases: &mut Vec<PhaseAgg>,
    path: &str,
    depth: usize,
    seconds: f64,
    mem: Option<(u64, u64, i64)>,
) {
    match phases.iter_mut().find(|p| p.path == path) {
        Some(p) => {
            p.count += 1;
            p.total += seconds;
            p.min = p.min.min(seconds);
            p.max = p.max.max(seconds);
            if let Some((allocs, bytes, peak)) = mem {
                p.mem_armed = true;
                p.allocs += allocs;
                p.alloc_bytes += bytes;
                p.peak_bytes = p.peak_bytes.max(peak);
            }
        }
        None => phases.push(PhaseAgg {
            path: path.to_string(),
            depth,
            count: 1,
            total: seconds,
            min: seconds,
            max: seconds,
            mem_armed: mem.is_some(),
            allocs: mem.map_or(0, |m| m.0),
            alloc_bytes: mem.map_or(0, |m| m.1),
            peak_bytes: mem.map_or(0, |m| m.2),
        }),
    }
}

/// Aggregates contributed by worker threads, merged into the main
/// pipeline's data at [`harvest`] time.
#[derive(Default)]
struct SharedState {
    phases: Vec<PhaseAgg>,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

impl SharedState {
    fn absorb(&mut self, other: SharedState) {
        for p in other.phases {
            match self.phases.iter_mut().find(|q| q.path == p.path) {
                Some(q) => {
                    q.count += p.count;
                    q.total += p.total;
                    q.min = q.min.min(p.min);
                    q.max = q.max.max(p.max);
                    q.mem_armed |= p.mem_armed;
                    q.allocs += p.allocs;
                    q.alloc_bytes += p.alloc_bytes;
                    q.peak_bytes = q.peak_bytes.max(p.peak_bytes);
                }
                None => self.phases.push(p),
            }
        }
        for (name, delta) in other.counters {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => *t += delta,
                None => self.counters.push((name, delta)),
            }
        }
        for (name, hist) in other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| *n == name) {
                Some((_, h)) => h.merge(&hist),
                None => self.histograms.push((name, hist)),
            }
        }
    }
}

fn shared_lock(m: &Mutex<SharedState>) -> std::sync::MutexGuard<'_, SharedState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Per-worker-thread pipeline state, live while a [`CarrierGuard`] is held.
/// Data accumulates locally (no locking on the span/counter hot path) and
/// is flushed into the shared aggregate once, when the guard drops.
struct WorkerCtx {
    shared: Arc<Mutex<SharedState>>,
    /// `/`-joined span path that was open on the armed thread when the
    /// carrier was captured; worker span paths are appended below it.
    prefix: String,
    /// Depth of the deepest open span behind `prefix`.
    base_depth: usize,
    /// Open worker-side spans: `(name, start, memory mark)`, innermost
    /// last.
    stack: Vec<(&'static str, Instant, MemMark)>,
    local: SharedState,
}

struct Collector {
    sinks: Vec<Box<dyn Sink>>,
    /// Open spans: `(name, start, memory mark)`, innermost last.
    stack: Vec<(&'static str, Instant, MemMark)>,
    phases: Vec<PhaseAgg>,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
    /// Worker-thread contributions (see [`carrier`]).
    shared: Arc<Mutex<SharedState>>,
    seq: u64,
}

/// Everything the aggregator accumulated over one armed period.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Harvest {
    /// Per-span-path wall-clock accounting, sorted by path (so parents
    /// precede their children).
    pub phases: Vec<PhaseStat>,
    /// Monotonic counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-span-path memory attribution, sorted by path. Empty unless
    /// memory profiling ([`crate::prof::set_mem_profiling`]) was armed
    /// while spans ran.
    pub memory: Vec<MemPhaseStat>,
}

impl Harvest {
    /// The counter total by name (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The phase stats for an exact span path.
    pub fn phase(&self, path: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.path == path)
    }
}

/// Arms the current thread with the given sinks (replacing any previous
/// pipeline and discarding its data). The aggregator behind [`harvest`]
/// always runs; an empty sink list collects silently.
pub fn install(sinks: Vec<Box<dyn Sink>>) {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            sinks,
            stack: Vec::new(),
            phases: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
            shared: Arc::new(Mutex::new(SharedState::default())),
            seq: 0,
        });
    });
    ACTIVE.with(|a| a.set(true));
}

/// Whether an instrumentation pipeline is armed on this thread.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Disarms the pipeline, closes the sinks (flushing buffered output) and
/// returns the aggregated data; `None` when nothing was installed.
pub fn harvest() -> Option<Harvest> {
    ACTIVE.with(|a| a.set(false));
    let collector = COLLECTOR.with(|c| c.borrow_mut().take())?;
    let Collector {
        mut sinks,
        phases,
        counters,
        histograms,
        shared,
        ..
    } = collector;
    for sink in &mut sinks {
        sink.on_close();
    }
    // Fold in everything worker threads contributed via carriers.
    let worker = std::mem::take(&mut *shared_lock(&shared));
    let mut main = SharedState {
        phases,
        counters,
        histograms,
    };
    main.absorb(worker);
    let SharedState {
        phases,
        mut counters,
        mut histograms,
    } = main;
    let mut memory: Vec<MemPhaseStat> = phases
        .iter()
        .filter(|p| p.mem_armed)
        .map(|p| MemPhaseStat {
            path: p.path.clone(),
            depth: p.depth,
            allocs: p.allocs,
            alloc_bytes: p.alloc_bytes,
            peak_bytes: p.peak_bytes,
        })
        .collect();
    memory.sort_by(|a, b| a.path.cmp(&b.path));
    let mut phases: Vec<PhaseStat> = phases
        .into_iter()
        .map(|p| PhaseStat {
            path: p.path,
            depth: p.depth,
            count: p.count,
            total_seconds: p.total,
            min_seconds: p.min,
            max_seconds: p.max,
        })
        .collect();
    phases.sort_by(|a, b| a.path.cmp(&b.path));
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    Some(Harvest {
        phases,
        counters,
        histograms: histograms
            .into_iter()
            .map(|(n, h)| (n, h.summary()))
            .collect(),
        memory,
    })
}

/// Where an open [`SpanGuard`] records its duration on drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanMode {
    /// Pipeline disarmed at open time: the drop does nothing.
    Off,
    /// This thread's own [`install`]ed pipeline.
    Local,
    /// A worker-side carrier context (see [`Carrier::attach`]).
    Worker,
}

/// An open span; records its duration into the pipeline when dropped.
///
/// Spans must be dropped in LIFO order (the natural result of binding the
/// guard to a scope), or path attribution becomes nonsense.
#[must_use = "a span measures the scope holding its guard"]
#[derive(Debug)]
pub struct SpanGuard {
    mode: SpanMode,
}

/// Opens a span. Returns an inert guard when the pipeline is disarmed.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                col.stack.push((name, Instant::now(), MemMark::take()));
            }
        });
        return SpanGuard {
            mode: SpanMode::Local,
        };
    }
    if worker_enabled() {
        WORKER.with(|w| {
            if let Some(ctx) = w.borrow_mut().as_mut() {
                ctx.stack.push((name, Instant::now(), MemMark::take()));
            }
        });
        return SpanGuard {
            mode: SpanMode::Worker,
        };
    }
    SpanGuard {
        mode: SpanMode::Off,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match self.mode {
            SpanMode::Off => {}
            SpanMode::Local => COLLECTOR.with(|c| {
                let mut borrow = c.borrow_mut();
                let Some(col) = borrow.as_mut() else {
                    // Harvested while the span was open (for example on an
                    // early-return error path): nothing left to record into.
                    return;
                };
                let Some((name, start, mark)) = col.stack.pop() else {
                    return;
                };
                let seconds = start.elapsed().as_secs_f64();
                let depth = col.stack.len();
                let mut path = String::with_capacity(16 * (depth + 1));
                for (ancestor, _, _) in &col.stack {
                    path.push_str(ancestor);
                    path.push('/');
                }
                path.push_str(name);
                merge_phase(&mut col.phases, &path, depth, seconds, mark.delta());
                let seq = col.seq;
                col.seq += 1;
                for sink in &mut col.sinks {
                    sink.on_span_exit(&path, depth, seconds, seq);
                }
            }),
            SpanMode::Worker => WORKER.with(|w| {
                let mut borrow = w.borrow_mut();
                let Some(ctx) = borrow.as_mut() else {
                    return;
                };
                let Some((name, start, mark)) = ctx.stack.pop() else {
                    return;
                };
                let seconds = start.elapsed().as_secs_f64();
                let depth = ctx.base_depth + ctx.stack.len();
                let mut path = String::with_capacity(ctx.prefix.len() + 16);
                path.push_str(&ctx.prefix);
                if !path.is_empty() {
                    path.push('/');
                }
                for (ancestor, _, _) in &ctx.stack {
                    path.push_str(ancestor);
                    path.push('/');
                }
                path.push_str(name);
                merge_phase(&mut ctx.local.phases, &path, depth, seconds, mark.delta());
                // No sink notifications from workers: sinks are owned by
                // the armed thread and are not thread-safe.
            }),
        }
    }
}

/// Whether a worker-side carrier context is armed on this thread.
#[inline]
fn worker_enabled() -> bool {
    WORKER_ACTIVE.with(|a| a.get())
}

/// Increments a monotonic counter. No-op when disarmed.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if delta == 0 {
        return;
    }
    if enabled() {
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                let total = match col.counters.iter_mut().find(|(n, _)| n == name) {
                    Some((_, t)) => {
                        *t += delta;
                        *t
                    }
                    None => {
                        col.counters.push((name.to_string(), delta));
                        delta
                    }
                };
                for sink in &mut col.sinks {
                    sink.on_counter(name, delta, total);
                }
            }
        });
        return;
    }
    if worker_enabled() {
        WORKER.with(|w| {
            if let Some(ctx) = w.borrow_mut().as_mut() {
                match ctx.local.counters.iter_mut().find(|(n, _)| n == name) {
                    Some((_, t)) => *t += delta,
                    None => ctx.local.counters.push((name.to_string(), delta)),
                }
            }
        });
    }
}

/// Records one histogram sample. No-op when disarmed.
#[inline]
pub fn observe(name: &'static str, value: f64) {
    if enabled() {
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                match col.histograms.iter_mut().find(|(n, _)| n == name) {
                    Some((_, h)) => h.record(value),
                    None => {
                        let mut h = Histogram::new();
                        h.record(value);
                        col.histograms.push((name.to_string(), h));
                    }
                }
            }
        });
        return;
    }
    if worker_enabled() {
        WORKER.with(|w| {
            if let Some(ctx) = w.borrow_mut().as_mut() {
                match ctx.local.histograms.iter_mut().find(|(n, _)| n == name) {
                    Some((_, h)) => h.record(value),
                    None => {
                        let mut h = Histogram::new();
                        h.record(value);
                        ctx.local.histograms.push((name.to_string(), h));
                    }
                }
            }
        });
    }
}

/// Emits a structured event to the sinks. No-op when disarmed; callers
/// building a non-trivial `data` value should guard with [`enabled`] to
/// skip the allocation.
pub fn event(kind: &str, data: JsonValue) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            for sink in &mut col.sinks {
                sink.on_event(kind, &data);
            }
        }
    });
}

/// A handle that lets worker threads contribute spans, counters and
/// histogram samples to the pipeline the creating thread records into.
///
/// Captured with [`carrier`] on an armed thread or an attached worker
/// (usually right before a parallel region), sent to workers by shared
/// reference, and activated per job with [`Carrier::attach`]. Inert when
/// the thread recorded nowhere at capture time, so parallel kernels can
/// call this unconditionally.
#[derive(Debug, Clone)]
pub struct Carrier {
    inner: Option<CarrierInner>,
}

#[derive(Debug, Clone)]
struct CarrierInner {
    shared: Arc<Mutex<SharedState>>,
    prefix: String,
    base_depth: usize,
}

impl std::fmt::Debug for SharedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedState")
            .field("phases", &self.phases.len())
            .field("counters", &self.counters.len())
            .field("histograms", &self.histograms.len())
            .finish()
    }
}

/// Captures a [`Carrier`] for the pipeline this thread records into;
/// inert when disarmed. The currently open span path becomes the prefix
/// under which all worker-side spans are filed. On a worker armed by
/// [`Carrier::attach`] that path is the worker's prefix plus its own open
/// spans, so a job spawned from inside another job files its probes below
/// the spawning job's.
pub fn carrier() -> Carrier {
    if enabled() {
        return COLLECTOR.with(|c| Carrier {
            inner: c.borrow().as_ref().map(|col| CarrierInner {
                shared: Arc::clone(&col.shared),
                prefix: join_path("", &col.stack),
                base_depth: col.stack.len(),
            }),
        });
    }
    if worker_enabled() {
        return WORKER.with(|w| Carrier {
            inner: w.borrow().as_ref().map(|ctx| CarrierInner {
                shared: Arc::clone(&ctx.shared),
                prefix: join_path(&ctx.prefix, &ctx.stack),
                base_depth: ctx.base_depth + ctx.stack.len(),
            }),
        });
    }
    Carrier { inner: None }
}

/// `prefix` extended by the names of `stack`, `/`-joined.
fn join_path(prefix: &str, stack: &[(&'static str, Instant, MemMark)]) -> String {
    let mut path = String::from(prefix);
    for (name, _, _) in stack {
        if !path.is_empty() {
            path.push('/');
        }
        path.push_str(name);
    }
    path
}

/// Whether `join_path(prefix, stack)` equals `want`, without allocating.
fn path_is(prefix: &str, stack: &[(&'static str, Instant, MemMark)], want: &str) -> bool {
    let Some(mut rest) = want.strip_prefix(prefix) else {
        return false;
    };
    let mut empty = prefix.is_empty();
    for (name, _, _) in stack {
        if !empty {
            let Some(r) = rest.strip_prefix('/') else {
                return false;
            };
            rest = r;
        }
        let Some(r) = rest.strip_prefix(name) else {
            return false;
        };
        rest = r;
        empty = false;
    }
    rest.is_empty()
}

/// Whether this thread already records into `inner`'s accumulator at
/// `inner`'s span path.
fn records_at(inner: &CarrierInner) -> bool {
    if enabled() {
        return COLLECTOR.with(|c| {
            c.borrow().as_ref().is_some_and(|col| {
                Arc::ptr_eq(&col.shared, &inner.shared) && path_is("", &col.stack, &inner.prefix)
            })
        });
    }
    if worker_enabled() {
        return WORKER.with(|w| {
            w.borrow().as_ref().is_some_and(|ctx| {
                Arc::ptr_eq(&ctx.shared, &inner.shared)
                    && path_is(&ctx.prefix, &ctx.stack, &inner.prefix)
            })
        });
    }
    false
}

impl Carrier {
    /// Arms the current thread as a worker for the carrier's pipeline
    /// until the guard drops (typically the duration of one pool job).
    ///
    /// Returns an inert guard when this thread already records into the
    /// carrier's pipeline at the carrier's span path (the scope caller
    /// running its own job inline, or a worker draining a job it spawned
    /// itself), or when neither the carrier nor the thread records. A
    /// thread recording anywhere else — its own [`install`]ed pipeline at
    /// another path, a job of another pipeline — is suspended until the
    /// guard drops, so a job's probes land under the path it was spawned
    /// from whichever thread runs it; a job spawned where nothing
    /// recorded records nothing.
    pub fn attach(&self) -> CarrierGuard {
        let Some(inner) = &self.inner else {
            if !enabled() && !worker_enabled() {
                return CarrierGuard::default();
            }
            let resume_local = enabled();
            ACTIVE.with(|a| a.set(false));
            WORKER_ACTIVE.with(|a| a.set(false));
            let outer = WORKER.with(|w| w.borrow_mut().take());
            return CarrierGuard {
                armed: true,
                resume_local,
                outer,
            };
        };
        if records_at(inner) {
            return CarrierGuard::default();
        }
        let resume_local = enabled();
        ACTIVE.with(|a| a.set(false));
        let outer = WORKER.with(|w| {
            w.borrow_mut().replace(WorkerCtx {
                shared: Arc::clone(&inner.shared),
                prefix: inner.prefix.clone(),
                base_depth: inner.base_depth,
                stack: Vec::new(),
                local: SharedState::default(),
            })
        });
        WORKER_ACTIVE.with(|a| a.set(true));
        CarrierGuard {
            armed: true,
            resume_local,
            outer,
        }
    }
}

/// Disarms the worker-side pipeline and flushes its aggregates into the
/// shared state when dropped, then resumes whatever pipeline the thread
/// recorded into before the attach.
#[must_use = "dropping the guard immediately detaches the worker pipeline"]
#[derive(Default)]
pub struct CarrierGuard {
    armed: bool,
    /// The thread's own pipeline was armed before the attach.
    resume_local: bool,
    /// The worker context the attach displaced.
    outer: Option<WorkerCtx>,
}

impl std::fmt::Debug for CarrierGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CarrierGuard")
            .field("armed", &self.armed)
            .field("resume_local", &self.resume_local)
            .field("nested", &self.outer.is_some())
            .finish()
    }
}

impl Drop for CarrierGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let outer = self.outer.take();
        WORKER_ACTIVE.with(|a| a.set(outer.is_some()));
        let ctx = WORKER.with(|w| std::mem::replace(&mut *w.borrow_mut(), outer));
        ACTIVE.with(|a| a.set(self.resume_local));
        let Some(ctx) = ctx else {
            return;
        };
        // One lock per job, not per span: the whole local aggregate is
        // flushed at once.
        shared_lock(&ctx.shared).absorb(ctx.local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_pipeline_is_inert() {
        assert!(!enabled());
        let _s = span("never");
        add("never", 3);
        observe("never", 1.0);
        event("never", JsonValue::Null);
        assert!(harvest().is_none());
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        install(Vec::new());
        add("a.count", 2);
        add("a.count", 3);
        add("b.count", 1);
        add("zero", 0); // dropped: zero deltas don't materialize counters
        observe("h", 1.0);
        observe("h", 3.0);
        let h = harvest().expect("installed");
        assert_eq!(h.counter("a.count"), 5);
        assert_eq!(h.counter("b.count"), 1);
        assert_eq!(h.counter("missing"), 0);
        assert_eq!(h.counters.len(), 2);
        let (name, hist) = &h.histograms[0];
        assert_eq!(name, "h");
        assert_eq!(hist.count, 2);
        assert!((hist.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_build_paths_and_child_time_fits_in_parent() {
        install(Vec::new());
        {
            let _root = span("root");
            for _ in 0..3 {
                let _child = span("child");
                {
                    let _grand = span("grand");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
        let h = harvest().expect("installed");
        let root = h.phase("root").expect("root recorded");
        let child = h.phase("root/child").expect("child recorded");
        let grand = h.phase("root/child/grand").expect("grandchild recorded");
        assert_eq!(root.count, 1);
        assert_eq!(child.count, 3);
        assert_eq!(grand.count, 3);
        assert_eq!((root.depth, child.depth, grand.depth), (0, 1, 2));
        // A child's total time is always contained in its parent's.
        assert!(grand.total_seconds <= child.total_seconds + 1e-9);
        assert!(child.total_seconds <= root.total_seconds + 1e-9);
        assert!(grand.total_seconds >= 0.006, "3 × 2 ms slept");
        assert!(child.min_seconds <= child.max_seconds);
        // Sorted output: parents precede children.
        let paths: Vec<&str> = h.phases.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(paths, vec!["root", "root/child", "root/child/grand"]);
    }

    #[test]
    fn install_resets_previous_state() {
        install(Vec::new());
        add("x", 1);
        install(Vec::new());
        add("y", 1);
        let h = harvest().expect("installed");
        assert_eq!(h.counter("x"), 0);
        assert_eq!(h.counter("y"), 1);
        assert!(harvest().is_none(), "second harvest finds nothing");
    }

    #[test]
    fn guard_survives_harvest_while_open() {
        install(Vec::new());
        let s = span("open");
        let h = harvest().expect("installed");
        drop(s); // must not panic or poison anything
        assert!(h.phases.is_empty());
    }

    struct CountingSink {
        exits: std::rc::Rc<std::cell::Cell<u64>>,
        closed: std::rc::Rc<std::cell::Cell<bool>>,
    }
    impl Sink for CountingSink {
        fn on_span_exit(&mut self, _p: &str, _d: usize, _s: f64, seq: u64) {
            self.exits.set(seq + 1);
        }
        fn on_close(&mut self) {
            self.closed.set(true);
        }
    }

    #[test]
    fn carrier_routes_worker_probes_into_the_harvest() {
        install(Vec::new());
        let handles: Vec<_> = {
            let _outer = span("solve");
            let car = carrier();
            (0..4)
                .map(|_| {
                    let car = car.clone();
                    std::thread::spawn(move || {
                        let _attached = car.attach();
                        {
                            let _s = span("chunks");
                            add("worker.items", 10);
                            observe("worker.len", 2.0);
                        }
                    })
                })
                .collect()
        };
        for h in handles {
            h.join().expect("worker finishes");
        }
        let h = harvest().expect("installed");
        let chunks = h.phase("solve/chunks").expect("worker spans recorded");
        assert_eq!(chunks.count, 4);
        assert_eq!(chunks.depth, 1, "nested one level under `solve`");
        assert_eq!(h.counter("worker.items"), 40);
        let (name, hist) = h
            .histograms
            .iter()
            .find(|(n, _)| n == "worker.len")
            .expect("worker histogram recorded");
        assert_eq!(name, "worker.len");
        assert_eq!(hist.count, 4);
        // The parent span itself was recorded by the armed thread.
        assert!(h.phase("solve").is_some());
    }

    #[test]
    fn carrier_is_inert_when_disarmed_or_already_armed() {
        // Disarmed: carrier captures nothing, attach/probes are no-ops.
        assert!(!enabled());
        let car = carrier();
        {
            let _g = car.attach();
            let _s = span("nope");
            add("nope", 1);
        }
        assert!(harvest().is_none());

        // Armed thread attaching a carrier: its own collector wins.
        install(Vec::new());
        let car = carrier();
        {
            let _g = car.attach();
            let _s = span("mine");
            add("mine", 1);
        }
        let h = harvest().expect("installed");
        assert!(
            h.phase("mine").is_some(),
            "recorded locally, not via carrier"
        );
        assert_eq!(h.counter("mine"), 1);
    }

    #[test]
    fn armed_thread_records_nothing_of_a_disarmed_job() {
        // A carrier captured where nothing records, attached on a thread
        // that records (an armed caller draining the pool's queue): the
        // job's probes go nowhere, and the thread's own recording resumes.
        let car = carrier();
        install(Vec::new());
        {
            let _outer = span("mine");
            {
                let _g = car.attach();
                let _s = span("foreign");
                add("foreign", 1);
                assert!(!enabled());
            }
            assert!(enabled());
            let _inner = span("after");
        }
        let h = harvest().expect("installed");
        assert!(h.phases.iter().all(|p| !p.path.contains("foreign")));
        assert_eq!(h.counter("foreign"), 0);
        assert!(h.phase("mine/after").is_some());
    }

    #[test]
    fn nested_carriers_file_under_the_spawning_job() {
        install(Vec::new());
        {
            let _solve = span("solve");
            let car = carrier();
            // Four threads: this one, a job, and two jobs the job spawns.
            let nested = std::thread::scope(|s| {
                s.spawn(|| {
                    let _attached = car.attach();
                    let _region = span("region");
                    let nested = carrier();
                    std::thread::scope(|s| {
                        for _ in 0..2 {
                            s.spawn(|| {
                                let _attached = nested.attach();
                                let _half = span("half");
                                add("nested.items", 1);
                            });
                        }
                    });
                    nested
                })
                .join()
                .expect("job finishes")
            });
            // The armed thread running a nested job (a scope caller that
            // drains the queue) files it under the job's path, not its own.
            let _attached = nested.attach();
            let _half = span("half");
            add("nested.items", 1);
        }
        add("after", 1);
        let h = harvest().expect("installed");
        let region = h.phase("solve/region").expect("job span recorded");
        assert_eq!((region.count, region.depth), (1, 1));
        let half = h.phase("solve/region/half").expect("nested spans recorded");
        assert_eq!((half.count, half.depth), (3, 2));
        assert!(h.phase("solve/half").is_none(), "{:?}", h.phases);
        assert_eq!(h.counter("nested.items"), 3);
        assert_eq!(h.counter("after"), 1, "the armed thread resumed");
    }

    #[test]
    fn nested_carriers_on_one_thread_record_locally() {
        let exits = std::rc::Rc::new(std::cell::Cell::new(0));
        install(vec![Box::new(CountingSink {
            exits: exits.clone(),
            closed: std::rc::Rc::new(std::cell::Cell::new(false)),
        })]);
        {
            let _solve = span("solve");
            let car = carrier();
            let _attached = car.attach();
            let _region = span("region");
            let nested = carrier();
            let _inner = nested.attach();
            let _half = span("half");
            add("nested.items", 1);
        }
        let h = harvest().expect("installed");
        // Every span reached the sink: nothing took the carrier route.
        assert_eq!(exits.get(), 3);
        assert_eq!(h.phase("solve/region/half").map(|p| p.count), Some(1));
        assert_eq!(h.counter("nested.items"), 1);
    }

    #[test]
    fn worker_counters_merge_with_local_counters() {
        install(Vec::new());
        add("x", 5);
        let car = carrier();
        std::thread::spawn(move || {
            let _g = car.attach();
            add("x", 7);
        })
        .join()
        .expect("worker finishes");
        let h = harvest().expect("installed");
        assert_eq!(h.counter("x"), 12);
    }

    #[test]
    fn sinks_see_exits_and_close() {
        let exits = std::rc::Rc::new(std::cell::Cell::new(0));
        let closed = std::rc::Rc::new(std::cell::Cell::new(false));
        install(vec![Box::new(CountingSink {
            exits: exits.clone(),
            closed: closed.clone(),
        })]);
        {
            let _a = span("a");
            let _b = span("b");
        }
        assert!(harvest().is_some());
        assert_eq!(exits.get(), 2, "two span exits observed");
        assert!(closed.get(), "sink closed at harvest");
    }
}
