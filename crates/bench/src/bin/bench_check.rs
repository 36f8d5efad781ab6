//! `bench_check` — the perf-trajectory regression gate.
//!
//! Two modes:
//!
//! * `bench_check --schema-only FILE...` — validates each file as a
//!   `complx-bench/v1` snapshot (structure and types only, no
//!   measurement). Used by `check.sh` on every `results/BENCH_*.json`.
//! * `bench_check --against SNAPSHOT.json` — re-runs the placer benchmark
//!   matrix fresh (same code path as `complx-bench-snapshot`) and compares
//!   the measurements against the committed snapshot under the default
//!   tolerance bands: iterations, scaled HPWL and kernel invocation counts
//!   exact; allocation totals tight; wall-clock generous.
//!
//! Exit 0 on pass, 1 on violations or invalid input.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use std::process::ExitCode;

use complx_bench::snapshot::{compare, measure_placer_suite, BenchSnapshot, Tolerances};
use complx_obs::prof;

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

fn load(path: &str) -> Result<BenchSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = complx_obs::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    BenchSnapshot::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

fn schema_only(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("bench_check --schema-only: no snapshot files given");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in paths {
        match load(path) {
            Ok(snap) => println!(
                "bench_check: {path}: valid complx-bench/v1 ({} suite, {} cases)",
                snap.suite,
                snap.cases.len()
            ),
            Err(e) => {
                eprintln!("bench_check: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn gate(path: &str) -> ExitCode {
    let committed = match load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fresh = measure_placer_suite(|spec| {
        eprintln!(
            "[gate] {}: {} cells @ {} threads",
            spec.name, spec.cells, spec.threads
        );
    });
    let violations = compare(&committed, &fresh, &Tolerances::default());
    if violations.is_empty() {
        println!(
            "bench_check: {} cases within tolerance of {path}",
            committed.cases.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_check: {} violation(s) against {path}:",
            violations.len()
        );
        for v in &violations {
            eprintln!("  - {v}");
        }
        eprintln!(
            "If this perf change is intentional, re-bless with \
             `cargo run --release -p complx-bench --bin complx-bench-snapshot` \
             and commit the refreshed {path}."
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((flag, rest)) if flag == "--schema-only" => schema_only(rest),
        Some((flag, [path])) if flag == "--against" => gate(path),
        _ => {
            eprintln!(
                "usage: bench_check --schema-only FILE...\n       bench_check --against SNAPSHOT.json"
            );
            ExitCode::FAILURE
        }
    }
}
