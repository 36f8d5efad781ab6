//! `complx-bench-snapshot` — (re)generates the committed perf trajectory.
//!
//! Runs the placer benchmark matrix (three generated scales × three thread
//! counts) with the tracking allocator installed and memory profiling
//! armed, and writes the measurements as a `complx-bench/v1` snapshot.
//!
//! Usage: `complx-bench-snapshot [OUT.json]` (default
//! `results/BENCH_placer.json`). Commit the refreshed file to re-bless the
//! trajectory after an intentional performance change; `bench_check`
//! gates `scripts/check.sh` against it.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use std::path::PathBuf;
use std::process::ExitCode;

use complx_bench::snapshot::{measure_placer_suite, summary_table};
use complx_obs::prof;

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

fn main() -> ExitCode {
    let out: PathBuf = std::env::args_os()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/BENCH_placer.json"));
    let snap = match measure_placer_suite(|spec| {
        eprintln!(
            "[bench] {}: {} cells @ {} threads",
            spec.name, spec.cells, spec.threads
        );
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("complx-bench-snapshot: a bench case failed to place: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = snap.to_json().to_json_pretty();
    if let Err(e) = complx_obs::write_atomic(&out, text.as_bytes()) {
        eprintln!("complx-bench-snapshot: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    print!("{}", summary_table(&snap));
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}
