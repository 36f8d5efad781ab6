//! Integration tests for the deep-profiling layer: the tracking global
//! allocator (installed for this whole test binary, exactly as the
//! `complx` CLI installs it), span-path memory attribution, and the
//! collapsed-stack renderer against a golden fixture.
//!
//! Memory profiling is process-global state, so every test that arms it
//! serializes through [`mem_lock`].

use std::sync::{Mutex, MutexGuard, OnceLock};

use complx_obs::prof::{
    self, collapsed_stacks, mem_profiling, mem_totals, reset_mem_counters, set_mem_profiling,
};
use complx_obs::{harvest, install, span, Harvest, PhaseStat};

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

/// Serializes tests that arm the (process-global) memory profiler and
/// disarms it again when dropped, so a panicking test cannot leak an
/// armed profiler into its neighbours.
struct MemSession(#[allow(dead_code)] MutexGuard<'static, ()>);

fn mem_lock() -> MemSession {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_mem_profiling(true);
    MemSession(guard)
}

impl Drop for MemSession {
    fn drop(&mut self) {
        set_mem_profiling(false);
    }
}

#[test]
fn allocator_is_detected_and_counts_when_armed() {
    let _session = mem_lock();
    assert!(
        prof::allocator_installed(),
        "CountingAlloc routed allocations before main"
    );
    let before = mem_totals();
    let v: Vec<u8> = vec![7; 1 << 16];
    let after = mem_totals();
    drop(v);
    let end = mem_totals();
    assert!(after.allocs > before.allocs);
    assert!(after.alloc_bytes >= before.alloc_bytes + (1 << 16));
    assert!(after.live_bytes >= before.live_bytes + (1 << 16));
    assert!(after.peak_bytes >= after.live_bytes);
    assert!(end.frees > after.frees);
    assert!(end.live_bytes <= after.live_bytes - (1 << 16));
}

#[test]
fn spans_attribute_allocations_to_nested_paths() {
    let _session = mem_lock();
    install(Vec::new());
    let (outer_only, inner) = {
        let _outer = span("outer");
        let outer_buf: Vec<u8> = vec![3; 10_000];
        let inner = {
            let _inner = span("inner");
            let inner_buf: Vec<u8> = vec![4; 50_000];
            inner_buf.len()
        };
        (outer_buf.len(), inner)
    };
    let h = harvest().expect("armed");
    let mem_of = |path: &str| {
        h.memory
            .iter()
            .find(|m| m.path == path)
            .unwrap_or_else(|| panic!("memory attribution for `{path}` missing"))
            .clone()
    };
    let outer_mem = mem_of("outer");
    let inner_mem = mem_of("outer/inner");
    // The inner span's allocation is charged to the inner path…
    assert!(inner_mem.alloc_bytes >= inner as u64);
    assert!(inner_mem.allocs >= 1);
    assert_eq!(inner_mem.depth, 1);
    // …and to the outer span, which contains it.
    assert!(outer_mem.alloc_bytes >= (outer_only + inner) as u64);
    assert!(outer_mem.allocs >= 2);
    assert!(outer_mem.peak_bytes >= inner_mem.peak_bytes.min(outer_mem.peak_bytes));
}

#[test]
fn dealloc_on_another_thread_never_underflows_span_attribution() {
    let _session = mem_lock();
    reset_mem_counters();
    install(Vec::new());
    // Allocate outside any span, free inside a span on another thread:
    // the span must charge only its own allocations, and the global
    // balance must absorb the cross-thread free without underflow.
    let buf: Vec<u8> = vec![9; 1 << 20];
    {
        let _s = span("freeer");
        std::thread::spawn(move || drop(buf))
            .join()
            .expect("free thread");
    }
    let h = harvest().expect("armed");
    let m = h
        .memory
        .iter()
        .find(|m| m.path == "freeer")
        .expect("span recorded memory");
    assert!(
        m.alloc_bytes < 1 << 20,
        "the cross-thread free must not be charged as span allocation (got {} B)",
        m.alloc_bytes
    );
    let t = mem_totals();
    assert!(t.frees >= 1);
    assert!(
        t.freed_bytes >= 1 << 20,
        "global accounting saw the free ({} B freed)",
        t.freed_bytes
    );
    assert!(t.live_bytes < t.peak_bytes);
}

#[test]
fn disarmed_profiler_charges_nothing() {
    // No mem_lock: this test asserts about the *disarmed* state, so take
    // the lock only to exclude armed tests, then disarm.
    let session = mem_lock();
    drop(session); // lock released with profiling off again
    assert!(!mem_profiling());
    install(Vec::new());
    {
        let _s = span("quiet");
        let _buf: Vec<u8> = vec![1; 10_000];
    }
    let h = harvest().expect("armed pipeline, disarmed memory");
    assert!(
        h.memory.is_empty(),
        "no memory attribution without --profile-mem"
    );
}

fn golden_phase(path: &str, depth: usize, total: f64) -> PhaseStat {
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
fn collapsed_stacks_match_golden_fixture() {
    // A hand-built harvest with known self-times; the fixture is the
    // exact folded output a flamegraph tool would consume.
    let h = Harvest {
        phases: vec![
            golden_phase("place", 0, 4.65),
            golden_phase("place/bootstrap", 1, 0.2),
            golden_phase("place/iteration", 1, 4.35),
            golden_phase("place/iteration/b2b_rebuild", 2, 0.75),
            golden_phase("place/iteration/b2b_rebuild/chunks", 3, 0.35),
            golden_phase("place/iteration/cg_solve_x", 2, 1.2),
            golden_phase("place/iteration/cg_solve_y", 2, 0.85),
            golden_phase("place/iteration/projection", 2, 0.0),
        ],
        ..Harvest::default()
    };
    let folded = collapsed_stacks(&h.phases);
    let golden = include_str!("fixtures/collapsed_golden.txt");
    assert_eq!(folded, golden);
}

#[test]
fn collapsed_stacks_from_a_live_harvest_parse_as_folded_lines() {
    install(Vec::new());
    {
        let _a = span("a");
        {
            let _b = span("b");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    let h = harvest().expect("armed");
    let folded = collapsed_stacks(&h.phases);
    for line in folded.lines() {
        let (stack, us) = line.rsplit_once(' ').expect("`<stack> <us>` shape");
        assert!(!stack.is_empty());
        assert!(!stack.contains('/'), "separators rewritten to `;`");
        us.parse::<u64>().expect("integer microseconds");
    }
    assert!(folded.contains("a;b "));
}
