//! Deep-profiling layer: memory attribution and span timelines.
//!
//! Two independent instruments, both strictly *observational* — engaging
//! either must never change a placement result, only describe it:
//!
//! 1. **Memory attribution.** [`CountingAlloc`] is a zero-dependency
//!    `#[global_allocator]` wrapper around [`std::alloc::System`] that
//!    binaries opt into (the `complx` CLI and the bench-snapshot tools
//!    install it; libraries never do). Until [`set_mem_profiling`]`(true)`
//!    arms it, every allocation pays a single relaxed atomic load and
//!    nothing else. Armed, it maintains process-wide totals (allocation
//!    count, bytes, live-byte balance and its high-water mark) plus
//!    per-thread counters that the span machinery in
//!    [`crate::collector`] reads to charge allocations to the active span
//!    path — so `place/iteration/cg_solve_x` reports not just seconds but
//!    the allocations it performed. Deallocations are charged to the
//!    *global* balance only: freeing on a different thread (or in a
//!    different span) than the allocating one must not underflow any
//!    span's attribution, so spans account for allocation pressure while
//!    the live/peak pair accounts for residency.
//!
//! 2. **Timeline profiling.** [`TimelineSink`] buckets span exits,
//!    counter deltas and per-iteration events into a bounded ring of
//!    per-iteration records (iteration index → phase durations, CG
//!    iterations, λ, HPWL), read back through a shared [`TimelineHandle`]
//!    after harvest. [`collapsed_stacks`] renders span phases in the
//!    standard collapsed-stack ("folded") format — one line per span
//!    path, `place;iteration;cg_solve_x <self-µs>` — consumable by any
//!    flamegraph tool.

// The allocator wrapper is the one place in the workspace that must
// implement `GlobalAlloc`; every unsafe block carries its SAFETY
// contract and the rest of the crate stays `deny(unsafe_code)`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use crate::collector::Harvest;
use crate::json::JsonValue;
use crate::report::{MemPhaseStat, PhaseStat};
use crate::sink::Sink;

// ---------------------------------------------------------------------------
// Memory attribution
// ---------------------------------------------------------------------------

/// Set by the first allocation routed through [`CountingAlloc`]: tells
/// reports whether memory numbers can exist at all in this binary.
static INSTALLED: AtomicBool = AtomicBool::new(false);
/// Master switch ([`set_mem_profiling`]); the allocator fast path reads
/// only this when disarmed.
static ENABLED: AtomicBool = AtomicBool::new(false);

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREES: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Net allocated-minus-freed bytes since arming. Signed: frees of memory
/// allocated *before* arming legitimately drive it negative.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE_BYTES`].
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Per-thread allocation count/bytes, read by span attribution.
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A tracking allocator that forwards to [`System`] and, when armed via
/// [`set_mem_profiling`], counts every allocation. Install it per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: complx_obs::prof::CountingAlloc = complx_obs::prof::CountingAlloc;
/// ```
pub struct CountingAlloc;

#[inline]
fn record_alloc(size: usize) {
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    if ENABLED.load(Ordering::Relaxed) {
        count_alloc(size);
    }
}

/// The armed half of [`record_alloc`].
#[inline]
fn count_alloc(size: usize) {
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL_ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    // `try_with`: allocations can fire during thread teardown after this
    // thread's TLS slots were destroyed; dropping the sample is correct
    // (the global totals above already counted it).
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = TL_ALLOC_BYTES.try_with(|c| c.set(c.get() + size as u64));
}

#[inline]
fn record_dealloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        count_dealloc(size);
    }
}

/// The armed half of [`record_dealloc`].
#[inline]
fn count_dealloc(size: usize) {
    TOTAL_FREES.fetch_add(1, Ordering::Relaxed);
    TOTAL_FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping around the forwarding calls
// touches only atomics and destructor-free `Cell` thread-locals, so it
// never allocates (no reentrancy) and never unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is forwarded unchanged; the caller upholds the
        // non-zero-size contract required by `GlobalAlloc::alloc`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`; `layout` forwarded unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_dealloc(layout.size());
        // SAFETY: `ptr` was allocated by this allocator (which forwards to
        // `System`) with this `layout`, per the `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: contract forwarded unchanged from the caller: `ptr`
        // came from this allocator with `layout`, `new_size` is non-zero.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Model a realloc as free(old) + alloc(new) so the live-byte
            // balance stays exact.
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

/// Arms or disarms memory profiling (the CLI's `--profile-mem`).
///
/// Arming resets all counters so totals describe exactly the armed
/// window. Without [`CountingAlloc`] installed in the running binary this
/// is a no-op that leaves every total at zero.
pub fn set_mem_profiling(on: bool) {
    if on {
        reset_mem_counters();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether memory profiling is currently armed.
#[inline]
pub fn mem_profiling() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether [`CountingAlloc`] is the running binary's global allocator
/// (detected from the first tracked allocation).
pub fn allocator_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Zeroes all process-wide and this thread's attribution counters.
/// Benchmark harnesses call this between cases so each case's totals
/// stand alone.
pub fn reset_mem_counters() {
    TOTAL_ALLOCS.store(0, Ordering::Relaxed);
    TOTAL_ALLOC_BYTES.store(0, Ordering::Relaxed);
    TOTAL_FREES.store(0, Ordering::Relaxed);
    TOTAL_FREED_BYTES.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    TL_ALLOCS.with(|c| c.set(0));
    TL_ALLOC_BYTES.with(|c| c.set(0));
}

/// Process-wide allocation totals since memory profiling was armed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTotals {
    /// Number of allocations (incl. the alloc half of reallocs).
    pub allocs: u64,
    /// Bytes requested across all allocations.
    pub alloc_bytes: u64,
    /// Number of deallocations (incl. the free half of reallocs).
    pub frees: u64,
    /// Bytes released across all deallocations.
    pub freed_bytes: u64,
    /// Net live bytes (allocated − freed since arming; may be negative
    /// when memory allocated before arming is freed after).
    pub live_bytes: i64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: i64,
}

impl MemTotals {
    /// The totals as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("allocs", self.allocs.into()),
            ("alloc_bytes", self.alloc_bytes.into()),
            ("frees", self.frees.into()),
            ("freed_bytes", self.freed_bytes.into()),
            ("live_bytes", self.live_bytes.into()),
            ("peak_bytes", self.peak_bytes.into()),
        ])
    }
}

/// Reads the process-wide totals.
pub fn mem_totals() -> MemTotals {
    MemTotals {
        allocs: TOTAL_ALLOCS.load(Ordering::Relaxed),
        alloc_bytes: TOTAL_ALLOC_BYTES.load(Ordering::Relaxed),
        frees: TOTAL_FREES.load(Ordering::Relaxed),
        freed_bytes: TOTAL_FREED_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// A snapshot of this thread's allocation counters plus the global
/// live/peak state, taken at span entry; the span-exit delta against it is
/// what gets charged to the span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemMark {
    /// Whether profiling was armed at entry (disarmed marks charge
    /// nothing, even if profiling is armed by exit time).
    pub armed: bool,
    allocs: u64,
    bytes: u64,
    live0: i64,
    peak0: i64,
}

impl MemMark {
    /// Snapshot for the current thread; inert when profiling is disarmed.
    #[inline]
    pub fn take() -> Self {
        if !mem_profiling() {
            return Self {
                armed: false,
                allocs: 0,
                bytes: 0,
                live0: 0,
                peak0: 0,
            };
        }
        Self {
            armed: true,
            allocs: TL_ALLOCS.with(Cell::get),
            bytes: TL_ALLOC_BYTES.with(Cell::get),
            live0: LIVE_BYTES.load(Ordering::Relaxed),
            peak0: PEAK_BYTES.load(Ordering::Relaxed),
        }
    }

    /// The allocation delta since the mark: `(allocs, bytes, peak)`.
    ///
    /// `peak` is the high-water mark of global live bytes over the span:
    /// exact when a new global peak was set during it, otherwise the live
    /// balance bracketing the span (a tight lower bound).
    #[inline]
    pub fn delta(&self) -> Option<(u64, u64, i64)> {
        if !self.armed || !mem_profiling() {
            return None;
        }
        let allocs = TL_ALLOCS.with(Cell::get).saturating_sub(self.allocs);
        let bytes = TL_ALLOC_BYTES.with(Cell::get).saturating_sub(self.bytes);
        let peak1 = PEAK_BYTES.load(Ordering::Relaxed);
        let peak = if peak1 > self.peak0 {
            peak1
        } else {
            self.live0.max(LIVE_BYTES.load(Ordering::Relaxed))
        };
        Some((allocs, bytes, peak))
    }
}

/// Builds the report's `extra.memory` section: whether a tracking
/// allocator is present, the process-wide totals, and the per-span-path
/// attribution from `harvest` (empty when no spans charged memory).
pub fn memory_json(harvest: Option<&Harvest>) -> JsonValue {
    JsonValue::object(vec![
        ("tracked", allocator_installed().into()),
        ("totals", mem_totals().to_json()),
        (
            "phases",
            JsonValue::Arr(
                harvest
                    .map(|h| h.memory.iter().map(MemPhaseStat::to_json).collect())
                    .unwrap_or_default(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Collapsed stacks
// ---------------------------------------------------------------------------

/// Renders span phases (a [`Harvest`]'s or a report's) in collapsed-stack
/// ("folded") format: one line per
/// span path with `/` separators rewritten to `;`, followed by the path's
/// *self* time in integer microseconds (total minus direct children —
/// the convention flamegraph tools expect, so stack totals are not
/// double-counted). Lines are sorted by path; the output is terminated by
/// a newline when non-empty.
pub fn collapsed_stacks(phases: &[PhaseStat]) -> String {
    let mut out = String::new();
    for p in phases {
        let child_prefix = format!("{}/", p.path);
        let children: f64 = phases
            .iter()
            .filter(|c| c.depth == p.depth + 1 && c.path.starts_with(&child_prefix))
            .map(|c| c.total_seconds)
            .sum();
        let self_us = ((p.total_seconds - children).max(0.0) * 1e6).round() as u64;
        out.push_str(&p.path.replace('/', ";"));
        out.push(' ');
        out.push_str(&self_us.to_string());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Timeline profiling
// ---------------------------------------------------------------------------

/// Default ring capacity of [`TimelineSink`]: enough for any realistic
/// λ-loop while bounding memory on runaway iteration counts.
pub const TIMELINE_CAPACITY: usize = 4096;

/// One per-iteration timeline record: the placer's published iteration
/// metrics plus every span that exited while the iteration ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationProfile {
    /// Iteration index (1-based; 0 for spans recorded before the first
    /// iteration event, i.e. bootstrap).
    pub iteration: i64,
    /// λ at this iteration.
    pub lambda: f64,
    /// Lower-bound interconnect cost Φ(x,y).
    pub phi_lower: f64,
    /// Upper-bound (feasible) interconnect cost Φ(x°,y°).
    pub phi_upper: f64,
    /// Density overflow before projection.
    pub overflow: f64,
    /// `P_C` grid resolution.
    pub bins: i64,
    /// CG iterations spent in this bucket.
    pub cg_iterations: u64,
    /// Span path → (exit count, total seconds) accumulated in this
    /// bucket, in first-exit order.
    pub phases: Vec<(String, u64, f64)>,
}

impl IterationProfile {
    fn charge(&mut self, path: &str, seconds: f64) {
        match self.phases.iter_mut().find(|(p, _, _)| p == path) {
            Some((_, count, total)) => {
                *count += 1;
                *total += seconds;
            }
            None => self.phases.push((path.to_string(), 1, seconds)),
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("iteration", self.iteration.into()),
            ("lambda", self.lambda.into()),
            ("phi_lower", self.phi_lower.into()),
            ("phi_upper", self.phi_upper.into()),
            ("overflow", self.overflow.into()),
            ("bins", self.bins.into()),
            ("cg_iterations", self.cg_iterations.into()),
            (
                "phases",
                JsonValue::Arr(
                    self.phases
                        .iter()
                        .map(|(path, count, seconds)| {
                            JsonValue::object(vec![
                                ("path", path.as_str().into()),
                                ("count", (*count).into()),
                                ("seconds", (*seconds).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[derive(Debug, Default)]
struct TimelineBuf {
    capacity: usize,
    /// Closed iteration buckets, oldest first; bounded at `capacity`.
    done: VecDeque<IterationProfile>,
    /// Buckets evicted from the ring (a run longer than `capacity`).
    dropped: u64,
    /// The bucket currently accumulating span exits.
    current: IterationProfile,
    /// Whether `current` has accumulated anything worth keeping.
    current_dirty: bool,
}

impl TimelineBuf {
    fn close_current(&mut self) {
        if !self.current_dirty {
            return;
        }
        let bucket = std::mem::take(&mut self.current);
        if self.done.len() == self.capacity {
            self.done.pop_front();
            self.dropped += 1;
        }
        self.done.push_back(bucket);
        self.current_dirty = false;
    }
}

/// A [`Sink`] that builds the per-iteration timeline (see the module
/// docs). Create with [`TimelineSink::new`], install alongside the other
/// sinks, and read the result from the paired [`TimelineHandle`] after
/// [`crate::harvest`].
#[derive(Debug)]
pub struct TimelineSink {
    shared: Rc<RefCell<TimelineBuf>>,
}

/// Read side of a [`TimelineSink`], valid on the installing thread.
#[derive(Debug, Clone)]
pub struct TimelineHandle {
    shared: Rc<RefCell<TimelineBuf>>,
}

impl TimelineSink {
    /// A sink/handle pair with the default ring capacity
    /// ([`TIMELINE_CAPACITY`]).
    pub fn new() -> (Self, TimelineHandle) {
        Self::with_capacity(TIMELINE_CAPACITY)
    }

    /// A sink/handle pair keeping at most `capacity` iteration buckets
    /// (oldest evicted first).
    pub fn with_capacity(capacity: usize) -> (Self, TimelineHandle) {
        let shared = Rc::new(RefCell::new(TimelineBuf {
            capacity: capacity.max(1),
            ..TimelineBuf::default()
        }));
        (
            Self {
                shared: Rc::clone(&shared),
            },
            TimelineHandle { shared },
        )
    }
}

impl Sink for TimelineSink {
    fn on_span_exit(&mut self, path: &str, _depth: usize, seconds: f64, _seq: u64) {
        let mut buf = self.shared.borrow_mut();
        buf.current.charge(path, seconds);
        buf.current_dirty = true;
    }

    fn on_counter(&mut self, name: &str, delta: u64, _total: u64) {
        if name == "cg.iterations" {
            let mut buf = self.shared.borrow_mut();
            buf.current.cg_iterations += delta;
            buf.current_dirty = true;
        }
    }

    fn on_event(&mut self, kind: &str, data: &JsonValue) {
        if kind != "iteration" {
            return;
        }
        let field = |k: &str| data.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let mut buf = self.shared.borrow_mut();
        buf.current.iteration = data
            .get("iteration")
            .and_then(JsonValue::as_i64)
            .unwrap_or(0);
        buf.current.lambda = field("lambda");
        buf.current.phi_lower = field("phi_lower");
        buf.current.phi_upper = field("phi_upper");
        buf.current.overflow = field("overflow");
        buf.current.bins = data.get("bins").and_then(JsonValue::as_i64).unwrap_or(0);
        buf.current_dirty = true;
        buf.close_current();
    }

    fn on_close(&mut self) {
        // Keep trailing spans (legalization, detail placement) that ran
        // after the last iteration event: they close as a final bucket
        // with iteration 0 metrics.
        self.shared.borrow_mut().close_current();
    }
}

impl TimelineHandle {
    /// The closed iteration buckets, oldest first.
    pub fn iterations(&self) -> Vec<IterationProfile> {
        self.shared.borrow().done.iter().cloned().collect()
    }

    /// How many buckets were evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.shared.borrow().dropped
    }

    /// The timeline as the report's `extra.timeline` JSON section.
    pub fn to_json(&self) -> JsonValue {
        let buf = self.shared.borrow();
        JsonValue::object(vec![
            ("capacity", buf.capacity.into()),
            ("dropped", buf.dropped.into()),
            (
                "iterations",
                JsonValue::Arr(buf.done.iter().map(IterationProfile::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(path: &str, depth: usize, total: f64) -> PhaseStat {
        PhaseStat {
            path: path.to_string(),
            depth,
            count: 1,
            total_seconds: total,
            min_seconds: total,
            max_seconds: total,
        }
    }

    #[test]
    fn collapsed_stacks_fold_self_time() {
        let h = Harvest {
            phases: vec![
                phase("place", 0, 1.0),
                phase("place/iteration", 1, 0.75),
                phase("place/iteration/cg_solve_x", 2, 0.5),
            ],
            ..Harvest::default()
        };
        let folded = collapsed_stacks(&h.phases);
        assert_eq!(
            folded,
            "place 250000\nplace;iteration 250000\nplace;iteration;cg_solve_x 500000\n"
        );
    }

    #[test]
    fn collapsed_stacks_clamp_negative_self_time() {
        // Worker busy time can exceed the parent's wall clock; the folded
        // output must clamp at zero rather than underflow.
        let h = Harvest {
            phases: vec![phase("k", 0, 0.1), phase("k/chunks", 1, 0.4)],
            ..Harvest::default()
        };
        assert_eq!(collapsed_stacks(&h.phases), "k 0\nk;chunks 400000\n");
    }

    #[test]
    fn timeline_sink_buckets_by_iteration_event() {
        let (mut sink, handle) = TimelineSink::new();
        sink.on_span_exit("place/bootstrap", 1, 0.2, 0);
        sink.on_event(
            "iteration",
            &JsonValue::object(vec![
                ("iteration", 1i64.into()),
                ("lambda", 0.5.into()),
                ("phi_lower", 10.0.into()),
                ("phi_upper", 12.0.into()),
                ("overflow", 0.3.into()),
                ("bins", 16i64.into()),
            ]),
        );
        sink.on_span_exit("place/iteration/cg_solve_x", 2, 0.1, 1);
        sink.on_span_exit("place/iteration/cg_solve_x", 2, 0.05, 2);
        sink.on_counter("cg.iterations", 7, 7);
        sink.on_counter("unrelated", 3, 3);
        sink.on_event(
            "iteration",
            &JsonValue::object(vec![("iteration", 2i64.into()), ("lambda", 1.0.into())]),
        );
        sink.on_span_exit("legalize", 0, 0.4, 3);
        sink.on_close();

        let iters = handle.iterations();
        assert_eq!(iters.len(), 3);
        // Bucket 1: bootstrap spans, closed by the iteration-1 event.
        assert_eq!(iters[0].iteration, 1);
        assert_eq!(iters[0].phases, vec![("place/bootstrap".into(), 1, 0.2)]);
        assert!((iters[0].lambda - 0.5).abs() < 1e-12);
        assert_eq!(iters[0].bins, 16);
        // Bucket 2: two cg exits merged, counter filtered.
        assert_eq!(iters[1].iteration, 2);
        assert_eq!(iters[1].cg_iterations, 7);
        assert_eq!(
            iters[1].phases,
            vec![("place/iteration/cg_solve_x".into(), 2, 0.15000000000000002)]
        );
        // Trailing bucket: the post-loop legalize span.
        assert_eq!(iters[2].iteration, 0);
        assert_eq!(iters[2].phases, vec![("legalize".into(), 1, 0.4)]);
        assert_eq!(handle.dropped(), 0);

        let json = handle.to_json();
        assert_eq!(json.get("dropped").and_then(JsonValue::as_i64), Some(0));
        assert_eq!(
            json.get("iterations")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(3)
        );
    }

    #[test]
    fn timeline_ring_evicts_oldest() {
        let (mut sink, handle) = TimelineSink::with_capacity(2);
        for k in 1..=4i64 {
            sink.on_span_exit("place/iteration", 1, 0.1, k as u64);
            sink.on_event(
                "iteration",
                &JsonValue::object(vec![("iteration", k.into())]),
            );
        }
        sink.on_close();
        let iters = handle.iterations();
        assert_eq!(iters.len(), 2);
        assert_eq!(iters[0].iteration, 3);
        assert_eq!(iters[1].iteration, 4);
        assert_eq!(handle.dropped(), 2);
    }

    /// Drives the counters directly: this test binary installs no
    /// [`CountingAlloc`] and never arms the profiler, so no other thread
    /// allocates or frees into them while the test runs.
    #[test]
    fn high_water_mark_survives_the_free() {
        reset_mem_counters();
        count_alloc(4 << 20);
        count_dealloc(4 << 20);
        let t = mem_totals();
        assert_eq!(t.peak_bytes, 4 << 20, "peak must remember the 4 MiB spike");
        assert_eq!(t.live_bytes, 0, "live fell back after the free");
        assert_eq!((t.allocs, t.frees), (1, 1));
    }

    #[test]
    fn mem_mark_is_inert_when_disarmed() {
        assert!(!mem_profiling());
        let mark = MemMark::take();
        assert!(!mark.armed);
        let _v: Vec<u8> = vec![0; 4096];
        assert_eq!(mark.delta(), None);
    }

    #[test]
    fn totals_json_shape() {
        let t = MemTotals {
            allocs: 3,
            alloc_bytes: 100,
            frees: 2,
            freed_bytes: 80,
            live_bytes: 20,
            peak_bytes: 90,
        };
        let j = t.to_json();
        assert_eq!(j.get("allocs").and_then(JsonValue::as_i64), Some(3));
        assert_eq!(j.get("peak_bytes").and_then(JsonValue::as_i64), Some(90));
    }
}
