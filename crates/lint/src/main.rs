//! CLI for `complx-lint`: scans the workspace against `lint.toml` and
//! prints findings as `file:line:col: rule: message`.
//!
//! Beyond the scan itself the CLI surfaces the interprocedural machinery:
//! `--json PATH` writes the `complx-lint-report/v1` artifact,
//! `--check-report PATH` re-validates one (the CI round-trip gate),
//! `--graph` dumps the workspace call graph, and `--waivers` inventories
//! every active waiver with per-rule counts.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/configuration error.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp,
        clippy::float_cmp_const
    )
)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use complx_lint::report;
use complx_lint::scan::analyze_workspace;
use complx_lint::{find_root, parse_config};

const USAGE: &str = "usage: complx-lint [--root DIR] [--config FILE] [-q]
                    [--json PATH] [--graph] [--waivers]
                    [--check-report PATH]
  --root DIR          workspace root (default: nearest ancestor with lint.toml)
  --config FILE       policy file (default: <root>/lint.toml)
  -q                  print findings only, no summary line
  --json PATH         also write the complx-lint-report/v1 JSON artifact
  --graph             dump the workspace call graph (caller -> callee)
  --waivers           list active waivers with per-rule counts, then exit
  --check-report PATH validate an existing report artifact, then exit";

fn fail(msg: &str) -> ExitCode {
    eprintln!("complx-lint: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut config: Option<PathBuf> = None;
    let mut quiet = false;
    let mut json: Option<PathBuf> = None;
    let mut graph_dump = false;
    let mut waivers_only = false;
    let mut check_report: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return fail(USAGE),
            },
            "--config" => match args.next() {
                Some(v) => config = Some(PathBuf::from(v)),
                None => return fail(USAGE),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return fail(USAGE),
            },
            "--check-report" => match args.next() {
                Some(v) => check_report = Some(PathBuf::from(v)),
                None => return fail(USAGE),
            },
            "--graph" => graph_dump = true,
            "--waivers" => waivers_only = true,
            "-q" | "--quiet" => quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    // Report validation is standalone: no workspace scan.
    if let Some(path) = check_report {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("read {}: {e}", path.display())),
        };
        return match report::validate(&text) {
            Ok((findings, waivers)) => {
                if !quiet {
                    eprintln!(
                        "complx-lint: {} is a valid {} ({} finding(s), {} waiver(s))",
                        path.display(),
                        report::SCHEMA,
                        findings,
                        waivers
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("{}: {e}", path.display())),
        };
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => return fail(&format!("cannot determine cwd: {e}")),
            };
            match find_root(&cwd) {
                Some(r) => r,
                None => return fail("no lint.toml found in any ancestor directory"),
            }
        }
    };
    let config_path = config.unwrap_or_else(|| root.join("lint.toml"));
    let text = match std::fs::read_to_string(&config_path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("read {}: {e}", config_path.display())),
    };
    let cfg = match parse_config(&text) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    let run = match analyze_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };

    if waivers_only {
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for w in &run.waivers {
            *by_rule.entry(&w.rule).or_default() += 1;
            let status = if w.used { "used" } else { "idle" };
            println!("{}:{}: {} [{status}] {}", w.file, w.line, w.rule, w.reason);
        }
        if !quiet {
            let counts: Vec<String> = by_rule
                .iter()
                .map(|(rule, n)| format!("{rule}={n}"))
                .collect();
            eprintln!(
                "complx-lint: {} waiver(s) ({})",
                run.waivers.len(),
                counts.join(", ")
            );
        }
        return ExitCode::SUCCESS;
    }

    if graph_dump {
        let mut printed = 0usize;
        for (idx, node) in run.graph.nodes.iter().enumerate() {
            let mut callees: Vec<&str> = run.graph.edges[idx]
                .iter()
                .map(|e| run.graph.nodes[e.callee].path.as_str())
                .collect();
            callees.dedup();
            for callee in callees {
                println!("{} -> {}", node.path, callee);
                printed += 1;
            }
        }
        if !quiet {
            eprintln!(
                "complx-lint: {} function(s), {} edge(s)",
                run.graph.nodes.len(),
                printed
            );
        }
    }

    if let Some(path) = json {
        let doc = report::render(&run, &cfg);
        if let Err(e) = std::fs::write(&path, &doc) {
            return fail(&format!("write {}: {e}", path.display()));
        }
        if !quiet {
            eprintln!("complx-lint: report written to {}", path.display());
        }
    }

    for d in &run.diagnostics {
        println!("{d}");
    }
    if run.diagnostics.is_empty() {
        if !quiet {
            eprintln!(
                "complx-lint: clean ({} crates, {} analyses, {} fns / {} edges)",
                cfg.scan_crates.len(),
                cfg.analyses.len(),
                run.graph.nodes.len(),
                run.graph.edge_count()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !quiet {
            eprintln!("complx-lint: {} finding(s)", run.diagnostics.len());
        }
        ExitCode::FAILURE
    }
}
