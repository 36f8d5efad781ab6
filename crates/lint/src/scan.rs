//! Orchestration: which files are scanned, which findings survive inline
//! waivers, and how a whole workspace run is assembled.
//!
//! A workspace run proceeds in two passes:
//!
//! 1. every file of every configured crate (including `src/bin/`) is
//!    lexed, item-parsed, and its waivers extracted into a [`FileUnit`];
//! 2. the interprocedural analyses ([`crate::taint`], [`crate::locks`])
//!    run over the workspace call graph built by [`crate::resolve`].
//!
//! Waiver hygiene runs last so analysis waivers count as used. The
//! per-token contracts (no `unwrap`, no float `==`, …) are clippy lints,
//! not passes of this crate (DESIGN.md §12).

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::config::{Config, ANALYSES};
use crate::lexer::{lex, Lexed};
use crate::parser::{module_path, parse_file, ParsedFile};
use crate::resolve::{build_graph, CallGraph, FileInput};

/// Rule id used for waiver-hygiene findings (always enabled).
pub const WAIVER_RULE: &str = "waiver";

/// A finalized diagnostic, printable as `file:line:col: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Rule id (or `waiver` for waiver-hygiene findings).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// One parsed `// lint:allow(<rule>): <reason>` directive.
#[derive(Debug)]
pub(crate) struct Waiver {
    pub(crate) rule: String,
    pub(crate) reason: String,
    pub(crate) line: u32,
    pub(crate) col: u32,
    /// The single source line whose findings this waiver covers.
    pub(crate) target: u32,
    pub(crate) used: bool,
}

/// Extracts waivers from comments. A trailing waiver covers its own line;
/// a full-line waiver covers the next line that holds a code token.
fn waivers(lexed: &Lexed) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        // A directive must lead the comment (after `//`/`///`/`//!` and
        // whitespace); prose that merely *mentions* the syntax mid-sentence
        // is not a waiver.
        let body = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        let Some(rest) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let (rule, after) = match rest.split_once(')') {
            Some(pair) => pair,
            None => (rest, ""),
        };
        let reason = after
            .trim_start()
            .strip_prefix(':')
            .map_or("", str::trim)
            .to_string();
        let trailing = lexed.toks.iter().any(|t| t.line == c.line && t.col < c.col);
        let target = if trailing {
            c.line
        } else {
            lexed
                .toks
                .iter()
                .find(|t| t.line > c.line_end)
                .map_or(c.line_end + 1, |t| t.line)
        };
        out.push(Waiver {
            rule: rule.trim().to_string(),
            reason,
            line: c.line,
            col: c.col,
            target,
            used: false,
        });
    }
    out
}

/// One scanned source file with everything the passes need.
pub(crate) struct FileUnit {
    /// Crate directory name.
    pub(crate) krate: String,
    /// Workspace-relative path, used in diagnostics.
    pub(crate) label: String,
    /// Whether the file lives under `src/bin/`.
    pub(crate) is_bin: bool,
    /// Lexer output.
    pub(crate) lexed: Lexed,
    /// Item-parser output.
    pub(crate) parsed: ParsedFile,
    waivers: Vec<Waiver>,
}

impl FileUnit {
    pub(crate) fn new(krate: &str, label: &str, rel: &str, source: &str) -> Self {
        let lexed = lex(source);
        let module = module_path(krate, rel);
        let parsed = parse_file(&lexed, &module);
        let ws = waivers(&lexed);
        FileUnit {
            krate: krate.to_string(),
            label: label.to_string(),
            is_bin: rel.starts_with("bin/"),
            lexed,
            parsed,
            waivers: ws,
        }
    }

    /// Consumes a reasoned waiver naming `rule` that targets `line`,
    /// marking it used. Returns true when one exists.
    pub(crate) fn waived(&mut self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for w in &mut self.waivers {
            if w.rule == rule && w.target == line && !w.reason.is_empty() {
                w.used = true;
                hit = true;
            }
        }
        hit
    }
}

/// Waiver hygiene: unknown rules, missing reasons, and waivers that
/// suppress nothing are findings themselves, so the escape hatch cannot
/// quietly rot.
fn hygiene_findings(unit: &FileUnit, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for w in &unit.waivers {
        let diag = |message: String| Diagnostic {
            file: unit.label.clone(),
            line: w.line,
            col: w.col,
            rule: WAIVER_RULE.to_string(),
            message,
        };
        if !ANALYSES.contains(&w.rule.as_str()) {
            out.push(diag(format!("waiver names unknown rule `{}`", w.rule)));
        } else if w.reason.is_empty() {
            out.push(diag(format!(
                "waiver for `{}` is missing its reason — write \
                 `// lint:allow({}): <why this site is exempt>`",
                w.rule, w.rule
            )));
        } else if !w.used && cfg.analysis_applies(&w.rule, &unit.krate) {
            out.push(diag(format!(
                "waiver for `{}` suppresses nothing on line {} — remove it",
                w.rule, w.target
            )));
        }
    }
    out
}

/// Workspace-run error (I/O or config trouble).
#[derive(Debug)]
pub struct ScanError(pub String);

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ScanError {}

/// Collects the `.rs` files of one crate's `src/` tree, including
/// `src/bin/` (bin files are flagged so the call-graph resolver can keep
/// their `main`s apart). Integration tests, benches, and examples live
/// outside `src/` and are never scanned.
fn crate_files(src_dir: &Path) -> Result<Vec<PathBuf>, ScanError> {
    let mut out = Vec::new();
    let mut stack = vec![src_dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| ScanError(format!("read_dir {}: {e}", dir.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| ScanError(format!("read_dir entry: {e}")))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Maps crate *code* names (`complx_place`) to crate directory names
/// (`core`) by reading each `crates/<dir>/Cargo.toml` `[package] name`.
/// The resolver uses this to normalize cross-crate paths.
fn extern_name_map(root: &Path) -> Result<BTreeMap<String, String>, ScanError> {
    let crates_dir = root.join("crates");
    let mut map = BTreeMap::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| ScanError(format!("read_dir {}: {e}", crates_dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| ScanError(format!("read_dir entry: {e}")))?;
        let dir = entry.path();
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| ScanError(format!("read {}: {e}", manifest.display())))?;
        let Some(dir_name) = dir.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    let value = value.trim().trim_matches('"');
                    map.insert(value.replace('-', "_"), dir_name.to_string());
                    break;
                }
            }
        }
    }
    Ok(map)
}

/// One waiver with its location and liveness, for the `--waivers`
/// inventory and the JSON report.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// Rule the waiver names.
    pub rule: String,
    /// The stated reason (may be empty for malformed waivers).
    pub reason: String,
    /// Whether the waiver suppressed at least one finding this run.
    pub used: bool,
}

/// The full result of a workspace run: diagnostics plus the call graph
/// and waiver inventory the CLI surfaces (`--graph`, `--waivers`, `--json`).
pub struct WorkspaceRun {
    /// All findings, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// The interprocedural call graph.
    pub graph: CallGraph,
    /// Every waiver encountered, in file order.
    pub waivers: Vec<WaiverRecord>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Scans every configured crate, runs the interprocedural analyses, and
/// returns the assembled [`WorkspaceRun`].
pub fn analyze_workspace(root: &Path, cfg: &Config) -> Result<WorkspaceRun, ScanError> {
    let mut units: Vec<FileUnit> = Vec::new();
    for krate in &cfg.scan_crates {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            return Err(ScanError(format!(
                "configured crate `{krate}` has no src dir at {}",
                src.display()
            )));
        }
        for path in crate_files(&src)? {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| ScanError(format!("read {}: {e}", path.display())))?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            let rel = path
                .strip_prefix(&src)
                .unwrap_or(&path)
                .display()
                .to_string();
            units.push(FileUnit::new(krate, &label, &rel, &source));
        }
    }

    // Pass 2: the interprocedural analyses over the workspace call graph.
    let mut diagnostics = Vec::new();
    let extern_map = extern_name_map(root)?;
    let inputs: Vec<FileInput<'_>> = units
        .iter()
        .map(|u| FileInput {
            krate: &u.krate,
            is_bin: u.is_bin,
            lexed: &u.lexed,
            parsed: &u.parsed,
        })
        .collect();
    let graph = build_graph(&inputs, &extern_map);
    diagnostics.extend(crate::taint::nondet_findings(&graph, &mut units, cfg)?);
    diagnostics.extend(crate::taint::panic_findings(&graph, &mut units, cfg)?);
    diagnostics.extend(crate::locks::lock_order_findings(&graph, &mut units, cfg));

    // Hygiene last, so analysis waivers count as used.
    for unit in &units {
        diagnostics.extend(hygiene_findings(unit, cfg));
    }
    diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));

    let waivers = units
        .iter()
        .flat_map(|u| {
            u.waivers.iter().map(|w| WaiverRecord {
                file: u.label.clone(),
                line: w.line,
                rule: w.rule.clone(),
                reason: w.reason.clone(),
                used: w.used,
            })
        })
        .collect();
    Ok(WorkspaceRun {
        diagnostics,
        graph,
        waivers,
        files_scanned: units.len(),
    })
}

/// Lints every configured crate under `root/crates/`, returning the full
/// diagnostic list sorted by (file, line, col).
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, ScanError> {
    analyze_workspace(root, cfg).map(|run| run.diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;

    #[test]
    fn waiver_hygiene_flags_malformed_unknown_and_idle_waivers() {
        let cfg = config::parse(
            "[scan]\ncrates = [\"demo\"]\n\
             [analysis.panic-path]\nentry-points = [\"demo::a\"]\n",
        )
        .expect("test config parses");
        let src = "\
// lint:allow(panic-path): startup path, config verified above
pub fn a(x: Option<u32>) -> u32 { x.unwrap() }
// lint:allow(panic-path)
pub fn b(x: Option<u32>) -> u32 { x.unwrap() }
// lint:allow(not-an-analysis): token rules are clippy lints now
// lint:allow(panic-path): suppresses nothing here
pub fn d() {}
";
        let mut unit = FileUnit::new("demo", "demo.rs", "lib.rs", src);
        // A reasoned waiver targets the next code line; a reason-less one
        // never suppresses.
        assert!(unit.waived("panic-path", 2));
        assert!(!unit.waived("panic-path", 4));
        let got: Vec<(String, u32)> = hygiene_findings(&unit, &cfg)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect();
        // line 3: missing reason; line 5: unknown rule; line 6: unused.
        let want: Vec<(String, u32)> = [3, 5, 6]
            .into_iter()
            .map(|l| (WAIVER_RULE.to_string(), l))
            .collect();
        assert_eq!(got, want);
    }
}
