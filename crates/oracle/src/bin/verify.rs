//! `complx-verify` — independent verification of placement artifacts.
//!
//! ```text
//! complx-verify [<design.aux>] [options]
//!
//! options:
//!   --solution <sol.aux>    solution bundle: oracle legality audit + HPWL
//!   --trace <file>          convergence trace (CSV or JSON): invariant
//!                           checks (Formulas 4, 8, 12; Π trend)
//!   --report <file.json>    run report: cross-checked against the oracle's
//!                           own measurements and the trace file
//!   --tol <t>               legality tolerance in length/area units
//!                           (default 1e-6)
//!   --gap-slack <s>         duality-gap relative slack (default 0.02)
//!   --lambda-rule <rule>    auto | complx | monotone | none (default auto:
//!                           inferred from the report's lambda_mode, or
//!                           complx when no report is given)
//!   --allow-lambda-drops    accept decreasing λ between iterations (set
//!                           automatically when the report shows recoveries)
//!   -q, --quiet             suppress the summary (violations still print)
//! ```
//!
//! Exit codes: `0` all checks clean, `1` at least one violated invariant,
//! `2` usage / I/O / parse errors. Every violation prints one line
//! (`complx-verify: violation[<code>]: <detail>`), so CI logs show the full
//! set at once. All metrics are recomputed by `complx-oracle`, which shares
//! no code with the solver crates — see DESIGN.md §13.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use complx_netlist::bookshelf;
use complx_obs::RunReport;
use complx_oracle::invariants::{check_solution, check_trace, LambdaRule, TraceChecks, Violation};
use complx_oracle::trace::{parse_trace, record_from_json, TraceFile, TraceRecord};

struct Options {
    design: Option<PathBuf>,
    solution: Option<PathBuf>,
    trace: Option<PathBuf>,
    report: Option<PathBuf>,
    tol: f64,
    gap_slack: f64,
    lambda_rule: Option<LambdaRule>,
    allow_lambda_drops: bool,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: complx-verify [<design.aux>] [--solution SOL.aux] [--trace FILE]\n\
     [--report FILE.json] [--tol T] [--gap-slack S]\n\
     [--lambda-rule auto|complx|monotone|none] [--allow-lambda-drops] [-q]"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        design: None,
        solution: None,
        trace: None,
        report: None,
        tol: 1e-6,
        gap_slack: 0.02,
        lambda_rule: None,
        allow_lambda_drops: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    let mut positional = Vec::new();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("missing value for {flag}"));
        match a.as_str() {
            "--solution" => opts.solution = Some(PathBuf::from(value("--solution")?)),
            "--trace" => opts.trace = Some(PathBuf::from(value("--trace")?)),
            "--report" => opts.report = Some(PathBuf::from(value("--report")?)),
            "--tol" => opts.tol = value("--tol")?.parse().map_err(|e| format!("--tol: {e}"))?,
            "--gap-slack" => {
                opts.gap_slack = value("--gap-slack")?
                    .parse()
                    .map_err(|e| format!("--gap-slack: {e}"))?
            }
            "--lambda-rule" => {
                opts.lambda_rule = match value("--lambda-rule")?.as_str() {
                    "auto" => None,
                    "complx" => Some(LambdaRule::Complx),
                    "monotone" => Some(LambdaRule::Monotone),
                    "none" => Some(LambdaRule::Unchecked),
                    other => return Err(format!("unknown --lambda-rule {other:?}")),
                }
            }
            "--allow-lambda-drops" => opts.allow_lambda_drops = true,
            "-q" | "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => positional.push(PathBuf::from(other)),
        }
    }
    if positional.len() > 1 {
        return Err("at most one positional design.aux is accepted".into());
    }
    opts.design = positional.pop();
    if opts.design.is_none()
        && opts.solution.is_none()
        && opts.trace.is_none()
        && opts.report.is_none()
    {
        return Err("nothing to verify: give a design, --solution, --trace or --report".into());
    }
    Ok(opts)
}

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("complx-verify: error: {message}");
    ExitCode::from(2)
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn rel_close(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= abs + rel * a.abs().max(b.abs())
}

/// Numeric fields of the run report's `metrics` section that the oracle
/// cross-checks.
struct ReportMetrics {
    hpwl: Option<f64>,
    overflow_percent: Option<f64>,
    iterations: Option<f64>,
    recoveries: Option<f64>,
    lambda_mode: Option<String>,
}

fn report_metrics(report: &RunReport) -> ReportMetrics {
    let m = |key: &str| report.metrics.get(key).and_then(|v| v.as_f64());
    ReportMetrics {
        hpwl: m("hpwl"),
        overflow_percent: m("overflow_percent"),
        iterations: m("iterations"),
        recoveries: m("recoveries"),
        lambda_mode: report
            .config
            .get("lambda_mode")
            .and_then(|v| v.as_str())
            .map(str::to_owned),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) if e.is_empty() => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("complx-verify: error: {e}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let mut violations: Vec<Violation> = Vec::new();
    let mut summary: Vec<String> = Vec::new();

    // Design (geometry reference, optional).
    let design = match &opts.design {
        Some(path) => match bookshelf::read_aux(path) {
            Ok(b) => Some(b.design),
            Err(e) => return fail(format_args!("{}: {e}", path.display())),
        },
        None => None,
    };

    // Solution bundle: audit with the oracle's own legality sweep and HPWL.
    let mut oracle_hpwl = None;
    let mut oracle_overflow = None;
    if let Some(path) = &opts.solution {
        let bundle = match bookshelf::read_aux(path) {
            Ok(b) => b,
            Err(e) => return fail(format_args!("{}: {e}", path.display())),
        };
        if let Some(d) = &design {
            for (what, got, want) in [
                ("cells", bundle.design.num_cells(), d.num_cells()),
                ("nets", bundle.design.num_nets(), d.num_nets()),
                ("pins", bundle.design.num_pins(), d.num_pins()),
            ] {
                if got != want {
                    violations.push(Violation {
                        code: "solution-shape",
                        message: format!("solution has {got} {what} but the design has {want}"),
                    });
                }
            }
        }
        let (audit, mut sol_violations) =
            check_solution(&bundle.design, &bundle.placement, opts.tol);
        violations.append(&mut sol_violations);
        let wl = complx_oracle::hpwl(&bundle.design, &bundle.placement);
        let ovf = complx_oracle::overflow_percent(&bundle.design, &bundle.placement);
        oracle_hpwl = Some(wl);
        oracle_overflow = Some(ovf);
        summary.push(format!(
            "solution: {} movable cells, oracle hpwl {wl:.6e}, overflow {ovf:.3}%, \
             overlap {:.3e}, worst core breach {:.3e}, worst row misalign {:.3e}",
            audit.movable_cells, audit.overlap_area, audit.max_core_breach, audit.max_row_misalign
        ));
    }

    // Run report: parse, then cross-check against oracle measurements.
    let mut report_trace: Option<Vec<TraceRecord>> = None;
    let mut metrics = None;
    if let Some(path) = &opts.report {
        let text = match read_text(path) {
            Ok(t) => t,
            Err(e) => return fail(e),
        };
        let json = match complx_obs::parse(&text) {
            Ok(v) => v,
            Err(e) => return fail(format_args!("{}: {e}", path.display())),
        };
        let report = match RunReport::from_json(&json) {
            Ok(r) => r,
            Err(e) => return fail(format_args!("{}: {e}", path.display())),
        };
        let m = report_metrics(&report);
        if let (Some(reported), Some(measured)) = (m.hpwl, oracle_hpwl) {
            // The report's HPWL was measured in-memory; the solution came
            // back through a Bookshelf round-trip (center ↔ corner), so a
            // few ULPs of drift are legitimate.
            if !rel_close(reported, measured, 1e-9, 0.0) {
                violations.push(Violation {
                    code: "report-hpwl",
                    message: format!(
                        "report hpwl {reported} disagrees with oracle hpwl {measured}"
                    ),
                });
            }
        }
        if let (Some(reported), Some(measured)) = (m.overflow_percent, oracle_overflow) {
            if !rel_close(reported, measured, 1e-6, 1e-6) {
                violations.push(Violation {
                    code: "report-overflow",
                    message: format!(
                        "report overflow {reported}% disagrees with oracle {measured}%"
                    ),
                });
            }
        }
        let rows: Vec<TraceRecord> = match report
            .iterations
            .as_array()
            .unwrap_or(&[])
            .iter()
            .map(record_from_json)
            .collect()
        {
            Ok(rows) => rows,
            Err(e) => return fail(format_args!("{}: iterations: {e}", path.display())),
        };
        if let (Some(reported), Some(last)) = (m.iterations, rows.last()) {
            if reported as u64 != last.iteration {
                violations.push(Violation {
                    code: "report-iterations",
                    message: format!(
                        "report claims {} iterations but its trace ends at iteration {}",
                        reported, last.iteration
                    ),
                });
            }
        }
        summary.push(format!(
            "report: stop_reason {:?}, {} trace rows, lambda_mode {}",
            report.stop_reason,
            rows.len(),
            m.lambda_mode.as_deref().unwrap_or("unknown")
        ));
        report_trace = Some(rows);
        metrics = Some(m);
    }

    // Resolve the λ rule and drop policy: explicit flags win, then the
    // report's config/recovery count, then the ComPLx default.
    let inferred_rule = metrics
        .as_ref()
        .and_then(|m| m.lambda_mode.as_deref().map(LambdaRule::from_lambda_mode));
    let lambda_rule = opts
        .lambda_rule
        .or(inferred_rule)
        .unwrap_or(LambdaRule::Complx);
    let recovered = metrics
        .as_ref()
        .and_then(|m| m.recoveries)
        .is_some_and(|r| r > 0.0);
    let allow_drops = opts.allow_lambda_drops || recovered;

    // Trace file: parse and run the invariant battery.
    if let Some(path) = &opts.trace {
        let text = match read_text(path) {
            Ok(t) => t,
            Err(e) => return fail(e),
        };
        let trace: TraceFile = match parse_trace(&text) {
            Ok(t) => t,
            Err(e) => return fail(format_args!("{}: {e}", path.display())),
        };
        let checks = TraceChecks {
            lambda_rule,
            allow_lambda_drops: allow_drops,
            gap_slack: opts.gap_slack,
            value_rel_tol: trace.value_tolerance(),
            ..TraceChecks::default()
        };
        violations.extend(check_trace(&trace.records, &checks));
        summary.push(format!(
            "trace: {} rows ({}), rule {:?}{}",
            trace.records.len(),
            if trace.from_csv { "csv" } else { "json" },
            lambda_rule,
            if allow_drops {
                ", λ drops allowed"
            } else {
                ""
            }
        ));

        // Cross-check the trace file against the report's embedded copy.
        if let Some(rows) = &report_trace {
            if rows.len() != trace.records.len() {
                violations.push(Violation {
                    code: "report-trace",
                    message: format!(
                        "trace file has {} rows but the report has {}",
                        trace.records.len(),
                        rows.len()
                    ),
                });
            }
            let tol = trace.value_tolerance();
            for (a, b) in trace.records.iter().zip(rows) {
                let fields = [
                    ("lambda", a.lambda, b.lambda),
                    ("phi_lower", a.phi_lower, b.phi_lower),
                    ("phi_upper", a.phi_upper, b.phi_upper),
                    ("pi", a.pi, b.pi),
                    ("lagrangian", a.lagrangian, b.lagrangian),
                    ("overflow", a.overflow, b.overflow),
                ];
                let bad: Vec<&str> = fields
                    .iter()
                    .filter(|(_, x, y)| !rel_close(*x, *y, tol, 0.0))
                    .map(|(name, _, _)| *name)
                    .collect();
                if a.iteration != b.iteration || !bad.is_empty() {
                    violations.push(Violation {
                        code: "report-trace",
                        message: format!(
                            "iteration {} disagrees between trace file and report ({})",
                            a.iteration,
                            if bad.is_empty() {
                                "index".to_owned()
                            } else {
                                bad.join(", ")
                            }
                        ),
                    });
                }
            }
        }
    } else if let Some(rows) = &report_trace {
        // No separate trace file: still check the report's embedded trace.
        let checks = TraceChecks {
            lambda_rule,
            allow_lambda_drops: allow_drops,
            gap_slack: opts.gap_slack,
            value_rel_tol: 1e-12,
            ..TraceChecks::default()
        };
        violations.extend(check_trace(rows, &checks));
    }

    for v in &violations {
        println!("complx-verify: {v}");
    }
    if !opts.quiet {
        for line in &summary {
            println!("complx-verify: {line}");
        }
        println!(
            "complx-verify: {} violation{}",
            violations.len(),
            if violations.len() == 1 { "" } else { "s" }
        );
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
