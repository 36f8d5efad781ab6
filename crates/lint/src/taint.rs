//! Interprocedural nondeterminism-taint and panic-reachability analyses.
//!
//! Both analyses share one shape: collect *source sites* per function
//! (token patterns inside the body range), BFS the call graph from the
//! configured entry points, and report every source sitting in a reachable
//! function, annotated with the call chain that makes it reachable.
//!
//! * `nondet-taint` — sources are observable nondeterminism: `HashMap`/
//!   `HashSet` (iteration order varies run to run), wall-clock reads
//!   (`Instant::now`, `SystemTime`), `ThreadId`, and pointer-to-integer
//!   casts (`as_ptr() as usize`). A deterministic entry point reaching one
//!   of these can produce run-to-run output drift.
//! * `panic-path` — sources are `.unwrap()`, `.expect(…)`, and the
//!   `panic!`/`unreachable!`/`todo!`/`unimplemented!` macros. The no-panic
//!   contract on solver entry points extends through helpers: wrapping an
//!   unwrap in a function no longer evades it. `assert!`/`debug_assert!`
//!   stay allowed — they are the designated loud-invariant mechanism.
//!
//! A site is exempted only by a reasoned waiver naming the analysis itself
//! (`lint:allow(nondet-taint)` / `lint:allow(panic-path)`); a clippy
//! `#[expect]` on the same line does not silence it, because a token may
//! be fine locally and still unacceptable on a solve path.

use crate::config::Config;
use crate::lexer::{Tok, TokKind};
use crate::resolve::CallGraph;
use crate::scan::{Diagnostic, FileUnit, ScanError};

/// One banned pattern found inside a function body.
struct Source {
    line: u32,
    col: u32,
    /// What was found, e.g. "`HashMap` (iteration order varies run to run)".
    desc: String,
}

fn ident(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

fn punct(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Punct && t.text == text
}

/// Scans `toks[lo..hi]` for nondeterminism sources.
fn nondet_sources(toks: &[Tok], lo: usize, hi: usize) -> Vec<Source> {
    let mut out = Vec::new();
    let hi = hi.min(toks.len());
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "HashMap" | "HashSet" => out.push(Source {
                    line: t.line,
                    col: t.col,
                    desc: format!("`{}` (iteration order varies run to run)", t.text),
                }),
                "Instant"
                    if toks.get(i + 1).is_some_and(|n| punct(n, "::"))
                        && toks.get(i + 2).is_some_and(|n| ident(n, "now")) =>
                {
                    out.push(Source {
                        line: t.line,
                        col: t.col,
                        desc: "`Instant::now()` (wall-clock read)".to_string(),
                    });
                    i += 2;
                }
                "SystemTime" => out.push(Source {
                    line: t.line,
                    col: t.col,
                    desc: "`SystemTime` (wall-clock read)".to_string(),
                }),
                "ThreadId" => out.push(Source {
                    line: t.line,
                    col: t.col,
                    desc: "`ThreadId` (scheduler-dependent value)".to_string(),
                }),
                "as_ptr" | "as_mut_ptr"
                    if toks.get(i + 1).is_some_and(|n| punct(n, "("))
                        && toks.get(i + 2).is_some_and(|n| punct(n, ")"))
                        && toks.get(i + 3).is_some_and(|n| ident(n, "as"))
                        && toks.get(i + 4).is_some_and(|n| {
                            n.kind == TokKind::Ident
                                && matches!(
                                    n.text.as_str(),
                                    "usize" | "isize" | "u64" | "u32" | "u128" | "i64"
                                )
                        }) =>
                {
                    out.push(Source {
                        line: t.line,
                        col: t.col,
                        desc: "pointer-to-integer cast (address-dependent value)".to_string(),
                    });
                    i += 4;
                }
                _ => {}
            }
        }
        i += 1;
    }
    out
}

/// Scans `toks[lo..hi]` for panic sources.
fn panic_sources(toks: &[Tok], lo: usize, hi: usize) -> Vec<Source> {
    let mut out = Vec::new();
    let hi = hi.min(toks.len());
    for i in lo..hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let method_call =
            i > 0 && punct(&toks[i - 1], ".") && toks.get(i + 1).is_some_and(|n| punct(n, "("));
        match t.text.as_str() {
            "unwrap" if method_call => out.push(Source {
                line: t.line,
                col: t.col,
                desc: "`.unwrap()` may panic".to_string(),
            }),
            "expect" if method_call => out.push(Source {
                line: t.line,
                col: t.col,
                desc: "`.expect(…)` may panic".to_string(),
            }),
            "panic" | "unreachable" | "todo" | "unimplemented"
                if toks.get(i + 1).is_some_and(|n| punct(n, "!")) =>
            {
                out.push(Source {
                    line: t.line,
                    col: t.col,
                    desc: format!("`{}!` panics", t.text),
                });
            }
            _ => {}
        }
    }
    out
}

/// Resolves the configured entry-point patterns to node indices; a pattern
/// matching nothing is a configuration error (a silently-missing entry
/// point would disable the whole analysis).
fn entry_nodes(graph: &CallGraph, id: &str, patterns: &[String]) -> Result<Vec<usize>, ScanError> {
    let mut starts = Vec::new();
    for pat in patterns {
        let hits = graph.find(pat);
        if hits.is_empty() {
            return Err(ScanError(format!(
                "[analysis.{id}] entry point `{pat}` matches no function in the call graph"
            )));
        }
        starts.extend(hits);
    }
    Ok(starts)
}

/// Runs one reachability analysis and reports sources in reachable
/// functions. `collect` extracts the analysis' source sites from a body
/// token range.
fn reachability_findings(
    rule: &'static str,
    graph: &CallGraph,
    units: &mut [FileUnit],
    cfg: &Config,
    collect: fn(&[Tok], usize, usize) -> Vec<Source>,
) -> Result<Vec<Diagnostic>, ScanError> {
    let Some(policy) = cfg.analyses.get(rule) else {
        return Ok(Vec::new());
    };
    let starts = entry_nodes(graph, rule, &policy.entry_points)?;
    let parents = graph.bfs_parents(&starts);
    let mut out = Vec::new();
    for (idx, node) in graph.nodes.iter().enumerate() {
        if parents[idx].is_none() {
            continue;
        }
        if policy.exempt_crates.iter().any(|c| *c == node.krate) {
            continue;
        }
        let (lo, hi) = node.body;
        let unit = &mut units[node.file];
        for src in collect(&unit.lexed.toks, lo, hi) {
            if unit.waived(rule, src.line) {
                continue;
            }
            let chain = graph.chain(&parents, idx).join(" -> ");
            out.push(Diagnostic {
                file: unit.label.clone(),
                line: src.line,
                col: src.col,
                rule: rule.to_string(),
                message: format!(
                    "{} in `{}`, reachable from entry point (call chain: {}) — \
                     fix the site or waive with `// lint:allow({rule}): <reason>`",
                    src.desc, node.path, chain
                ),
            });
        }
    }
    Ok(out)
}

/// The `nondet-taint` analysis: nondeterminism sources reachable from the
/// deterministic-kernel entry points.
pub(crate) fn nondet_findings(
    graph: &CallGraph,
    units: &mut [FileUnit],
    cfg: &Config,
) -> Result<Vec<Diagnostic>, ScanError> {
    reachability_findings("nondet-taint", graph, units, cfg, nondet_sources)
}

/// The `panic-path` analysis: panic sources reachable from the no-panic
/// solver entry points.
pub(crate) fn panic_findings(
    graph: &CallGraph,
    units: &mut [FileUnit],
    cfg: &Config,
) -> Result<Vec<Diagnostic>, ScanError> {
    reachability_findings("panic-path", graph, units, cfg, panic_sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn nondet_source_patterns() {
        let lexed = lex(
            "fn f() { let m: HashMap<u32, u32> = make(); let t = Instant::now(); \
             let p = v.as_ptr() as usize; let id: ThreadId = x; let s = SystemTime::now(); }",
        );
        let descs: Vec<String> = nondet_sources(&lexed.toks, 0, lexed.toks.len())
            .into_iter()
            .map(|s| s.desc)
            .collect();
        assert_eq!(descs.len(), 5, "all five source kinds found: {descs:?}");
        assert!(descs[0].contains("HashMap"));
        assert!(descs[1].contains("Instant::now"));
        assert!(descs[2].contains("pointer-to-integer"));
        assert!(descs[3].contains("ThreadId"));
        assert!(descs[4].contains("SystemTime"));
    }

    #[test]
    fn panic_source_patterns_skip_asserts() {
        let lexed = lex(
            "fn f(x: Option<u32>) { x.unwrap(); x.expect(\"msg\"); panic!(\"boom\"); \
             unreachable!(); assert!(true); debug_assert_eq!(1, 1); let unwrap = 3; }",
        );
        let descs: Vec<String> = panic_sources(&lexed.toks, 0, lexed.toks.len())
            .into_iter()
            .map(|s| s.desc)
            .collect();
        assert_eq!(descs.len(), 4, "{descs:?}");
        assert!(descs[0].contains("unwrap"));
        assert!(descs[1].contains("expect"));
        assert!(descs[2].contains("panic!"));
        assert!(descs[3].contains("unreachable!"));
    }
}
