//! CI gate: validates a run-report manifest (and optionally a JSONL event
//! stream) produced by the placer.
//!
//! ```text
//! report_check <report.json> [--jsonl <events.jsonl>] [--threads <n>]
//!              [--memory] [--timeline]
//! ```
//!
//! Exits 0 when the report parses against the `complx-run-report/v1`
//! schema and at least one phase recorded non-zero time; exits 1 with a
//! diagnostic otherwise. Unknown schema versions are rejected outright
//! (inside [`RunReport::from_json`]) — a report this binary does not
//! understand must fail CI, not slide through with its sections ignored.
//! With `--threads <n>`, additionally requires the report's
//! `extra.parallel` section to record exactly `n` worker threads. The
//! profiling sections `extra.memory` and `extra.timeline` are validated
//! whenever present; `--memory` / `--timeline` additionally require them
//! to exist (for runs invoked with `--profile-mem` / `--profile`). Each
//! timeline bucket of a λ-loop iteration must agree with the report's
//! `iterations` row for that iteration on `bins` and `lambda`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use std::process::ExitCode;

use complx_obs::{parse, JsonValue, RunReport};

fn fail(msg: &str) -> ExitCode {
    eprintln!("report_check: {msg}");
    ExitCode::FAILURE
}

/// Validates `extra.memory` (the `--profile-mem` section): the totals
/// object must carry every counter as a number, and each phase row must be
/// a well-formed span-path attribution.
fn check_memory_section(path: &str, mem: &JsonValue) -> Result<(), String> {
    let err = |msg: &str| Err(format!("{path}: extra.memory: {msg}"));
    if mem.get("tracked").and_then(JsonValue::as_bool).is_none() {
        return err("`tracked` must be a boolean");
    }
    let Some(totals) = mem.get("totals") else {
        return err("missing `totals`");
    };
    for key in [
        "allocs",
        "alloc_bytes",
        "frees",
        "freed_bytes",
        "live_bytes",
        "peak_bytes",
    ] {
        if totals.get(key).and_then(JsonValue::as_f64).is_none() {
            return err(&format!("totals.{key} must be a number"));
        }
    }
    let Some(phases) = mem.get("phases").and_then(JsonValue::as_array) else {
        return err("`phases` must be an array");
    };
    for p in phases {
        let ok = p
            .get("path")
            .and_then(JsonValue::as_str)
            .is_some_and(|s| !s.is_empty())
            && p.get("depth")
                .and_then(JsonValue::as_i64)
                .is_some_and(|d| d >= 0)
            && p.get("allocs")
                .and_then(JsonValue::as_i64)
                .is_some_and(|n| n >= 0)
            && p.get("alloc_bytes")
                .and_then(JsonValue::as_i64)
                .is_some_and(|n| n >= 0)
            && p.get("peak_bytes").and_then(JsonValue::as_i64).is_some();
        if !ok {
            return err("malformed phase attribution row");
        }
    }
    Ok(())
}

/// Validates `extra.timeline` (the `--profile` section): ring-buffer
/// bookkeeping plus one bucket per iteration, each with per-phase
/// durations.
fn check_timeline_section(path: &str, tl: &JsonValue) -> Result<(), String> {
    let err = |msg: String| Err(format!("{path}: extra.timeline: {msg}"));
    if tl
        .get("capacity")
        .and_then(JsonValue::as_i64)
        .is_none_or(|c| c <= 0)
    {
        return err("`capacity` must be a positive integer".to_string());
    }
    if tl
        .get("dropped")
        .and_then(JsonValue::as_i64)
        .is_none_or(|d| d < 0)
    {
        return err("`dropped` must be a non-negative integer".to_string());
    }
    let Some(iterations) = tl.get("iterations").and_then(JsonValue::as_array) else {
        return err("`iterations` must be an array".to_string());
    };
    for (i, it) in iterations.iter().enumerate() {
        let bad = |what: &str| err(format!("bucket {i}: {what}"));
        if it.get("iteration").and_then(JsonValue::as_i64).is_none() {
            return bad("`iteration` must be an integer");
        }
        for key in ["lambda", "phi_lower", "phi_upper", "overflow"] {
            if it.get(key).and_then(JsonValue::as_f64).is_none() {
                return bad(&format!("`{key}` must be a number"));
            }
        }
        if it
            .get("cg_iterations")
            .and_then(JsonValue::as_i64)
            .is_none()
        {
            return bad("`cg_iterations` must be an integer");
        }
        let Some(phases) = it.get("phases").and_then(JsonValue::as_array) else {
            return bad("`phases` must be an array");
        };
        for p in phases {
            let ok = p
                .get("path")
                .and_then(JsonValue::as_str)
                .is_some_and(|s| !s.is_empty())
                && p.get("count")
                    .and_then(JsonValue::as_i64)
                    .is_some_and(|n| n >= 1)
                && p.get("seconds")
                    .and_then(JsonValue::as_f64)
                    .is_some_and(|s| s >= 0.0);
            if !ok {
                return bad("malformed phase duration row");
            }
        }
    }
    Ok(())
}

/// Cross-checks every timeline bucket closed by an `iteration` event
/// (iteration ≥ 1; bucket 0 holds spans outside the λ loop) against the
/// report's `iterations` row for the same iteration. Both are rendered
/// from one iteration record, so `bins` and `lambda` must be equal.
fn check_timeline_matches_iterations(
    path: &str,
    tl: &JsonValue,
    rows: &JsonValue,
) -> Result<(), String> {
    let rows = rows.as_array().unwrap_or(&[]);
    let buckets = tl
        .get("iterations")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let bins = |v: &JsonValue| v.get("bins").and_then(JsonValue::as_i64);
    let lambda = |v: &JsonValue| {
        v.get("lambda")
            .and_then(JsonValue::as_f64)
            .map(f64::to_bits)
    };
    for bucket in buckets {
        let Some(k) = bucket
            .get("iteration")
            .and_then(JsonValue::as_i64)
            .filter(|&k| k >= 1)
        else {
            continue;
        };
        let Some(row) = rows
            .iter()
            .find(|r| r.get("iteration").and_then(JsonValue::as_i64) == Some(k))
        else {
            return Err(format!(
                "{path}: extra.timeline: iteration {k} has no `iterations` row"
            ));
        };
        if bins(bucket) != bins(row) || lambda(bucket) != lambda(row) {
            return Err(format!(
                "{path}: extra.timeline: iteration {k} disagrees with its `iterations` row \
                 (bins {:?} vs {:?}, lambda {:?} vs {:?})",
                bins(bucket),
                bins(row),
                bucket.get("lambda").and_then(JsonValue::as_f64),
                row.get("lambda").and_then(JsonValue::as_f64),
            ));
        }
    }
    Ok(())
}

fn check_report(
    path: &str,
    expect_threads: Option<i64>,
    require_memory: bool,
    require_timeline: bool,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let report = RunReport::from_json(&doc).map_err(|e| format!("{path}: bad report: {e}"))?;
    match report.extra.get("memory") {
        Some(mem) => check_memory_section(path, mem)?,
        None if require_memory => {
            return Err(format!(
                "{path}: extra.memory missing (was the run invoked with --profile-mem?)"
            ))
        }
        None => {}
    }
    match report.extra.get("timeline") {
        Some(tl) => {
            check_timeline_section(path, tl)?;
            check_timeline_matches_iterations(path, tl, &report.iterations)?;
        }
        None if require_timeline => {
            return Err(format!(
                "{path}: extra.timeline missing (was the run invoked with --profile?)"
            ))
        }
        None => {}
    }
    if let Some(want) = expect_threads {
        let got = report
            .extra
            .get("parallel")
            .and_then(|p| p.get("threads"))
            .and_then(JsonValue::as_i64);
        if got != Some(want) {
            return Err(format!(
                "{path}: extra.parallel.threads is {got:?}, expected {want}"
            ));
        }
    }
    if report.phases.is_empty() {
        return Err(format!("{path}: no phases recorded"));
    }
    if !report.phases.iter().any(|p| p.total_seconds > 0.0) {
        return Err(format!("{path}: all phase timings are zero"));
    }
    if report.total_seconds <= 0.0 {
        return Err(format!("{path}: total_seconds is not positive"));
    }
    let instrumented = report.instrumented_seconds();
    if instrumented > report.total_seconds * 1.05 {
        return Err(format!(
            "{path}: instrumented time {instrumented:.6}s exceeds wall clock {:.6}s",
            report.total_seconds
        ));
    }
    println!(
        "report_check: {path}: {} phases, {} counters, {:.3}s instrumented of {:.3}s wall",
        report.phases.len(),
        report.counters.len(),
        instrumented,
        report.total_seconds
    );
    Ok(())
}

fn check_jsonl(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut spans = 0u64;
    let mut iterations = 0u64;
    let mut total = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| format!("{path}:{}: invalid JSON line: {e}", i + 1))?;
        match doc.get("type").and_then(JsonValue::as_str) {
            Some("span") => spans += 1,
            Some("iteration") => iterations += 1,
            Some(_) => {}
            None => return Err(format!("{path}:{}: line has no `type` field", i + 1)),
        }
        total += 1;
    }
    if spans == 0 {
        return Err(format!("{path}: no span lines in event stream"));
    }
    println!("report_check: {path}: {total} lines ({spans} spans, {iterations} iterations)");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut report_path: Option<&str> = None;
    let mut jsonl_path: Option<&str> = None;
    let mut expect_threads: Option<i64> = None;
    let mut require_memory = false;
    let mut require_timeline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--memory" => require_memory = true,
            "--timeline" => require_timeline = true,
            "--jsonl" => {
                i += 1;
                match args.get(i) {
                    Some(p) => jsonl_path = Some(p),
                    None => return fail("--jsonl requires a path"),
                }
            }
            "--threads" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<i64>().ok()) {
                    Some(n) if n >= 1 => expect_threads = Some(n),
                    _ => return fail("--threads requires a positive integer"),
                }
            }
            p if report_path.is_none() => report_path = Some(p),
            p => return fail(&format!("unexpected argument `{p}`")),
        }
        i += 1;
    }
    let Some(report_path) = report_path else {
        return fail(
            "usage: report_check <report.json> [--jsonl <events.jsonl>] [--threads <n>] \
             [--memory] [--timeline]",
        );
    };
    if let Err(msg) = check_report(
        report_path,
        expect_threads,
        require_memory,
        require_timeline,
    ) {
        return fail(&msg);
    }
    if let Some(jsonl_path) = jsonl_path {
        if let Err(msg) = check_jsonl(jsonl_path) {
            return fail(&msg);
        }
    }
    ExitCode::SUCCESS
}
