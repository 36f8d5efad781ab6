//! Hand-parsed `lint.toml` policy file.
//!
//! The parser accepts the TOML subset the policy actually needs — `[a.b]`
//! section headers, `key = "string"` and `key = ["a", "b"]` arrays, with
//! `#` comments — and rejects everything else loudly. Keeping the parser
//! ~100 lines is the point: the linter must not need third-party crates to
//! read its own policy.

use std::collections::BTreeMap;
use std::fmt;

/// The interprocedural analyses, in diagnostic-stable order. These are
/// also the only rule ids a `// lint:allow(<rule>)` waiver may name.
pub const ANALYSES: &[&str] = &["nondet-taint", "panic-path", "lock-order"];

/// A parsed policy: which crates are scanned and how each interprocedural
/// analysis is configured.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Crate directory names under `crates/` to scan.
    pub scan_crates: Vec<String>,
    /// Interprocedural analysis id (`nondet-taint`, `panic-path`,
    /// `lock-order`) -> its configuration. Analyses absent from the file
    /// do not run.
    pub analyses: BTreeMap<String, AnalysisPolicy>,
}

/// Configuration for one interprocedural analysis ([analysis.<id>]).
#[derive(Debug, Clone, Default)]
pub struct AnalysisPolicy {
    /// Call-graph entry points, as node paths (`core::service::solve`) or
    /// unique path suffixes (`ComplxPlacer::place`). Used by
    /// `nondet-taint` and `panic-path`.
    pub entry_points: Vec<String>,
    /// Crates whose functions are never treated as source sites even when
    /// reachable (e.g. `obs`, whose determinism is enforced end-to-end by
    /// the trace-comparison gate). Used by `nondet-taint`.
    pub exempt_crates: Vec<String>,
    /// Crates the analysis is scoped to. Used by `lock-order`.
    pub crates: Vec<String>,
    /// The lock-acquisition choke-point function name. Used by
    /// `lock-order`.
    pub helper: String,
}

impl Config {
    /// True when the interprocedural analysis `id` could anchor findings
    /// in `krate` — used by waiver hygiene to decide whether an unused
    /// analysis waiver is a finding.
    pub fn analysis_applies(&self, id: &str, krate: &str) -> bool {
        self.analyses.get(id).is_some_and(|a| match id {
            "lock-order" => a.crates.iter().any(|c| c == krate),
            _ => !a.exempt_crates.iter().any(|c| c == krate),
        })
    }
}

/// Config-file error with a line number for the offending input.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in lint.toml (0 for file-level errors).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parses the policy text. Unknown sections or keys are errors so typos
/// cannot silently disable an analysis.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "unterminated section header"))?;
            section = name.trim().to_string();
            if section != "scan" && !section.starts_with("analysis.") {
                return Err(err(lineno, format!("unknown section [{section}]")));
            }
            if let Some(id) = section.strip_prefix("analysis.") {
                if !ANALYSES.contains(&id) {
                    return Err(err(lineno, format!("unknown analysis `{id}`")));
                }
                cfg.analyses.entry(id.to_string()).or_default();
            }
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, "expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        match (section.as_str(), key) {
            ("scan", "crates") => cfg.scan_crates = parse_array(value, lineno)?,
            (s, k) if s.starts_with("analysis.") => {
                let id = s.trim_start_matches("analysis.").to_string();
                let policy = cfg.analyses.entry(id).or_default();
                match k {
                    "entry-points" => policy.entry_points = parse_array(value, lineno)?,
                    "exempt-crates" => policy.exempt_crates = parse_array(value, lineno)?,
                    "crates" => policy.crates = parse_array(value, lineno)?,
                    "helper" => policy.helper = parse_string(value, lineno)?,
                    other => return Err(err(lineno, format!("unknown analysis key `{other}`"))),
                }
            }
            (s, k) => {
                return Err(err(lineno, format!("unknown key `{k}` in section [{s}]")));
            }
        }
    }
    if cfg.scan_crates.is_empty() {
        return Err(err(0, "missing [scan] crates = [...]"));
    }
    Ok(cfg)
}

/// Drops a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, ConfigError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| err(lineno, format!("expected quoted string, got `{value}`")))
}

fn parse_array(value: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| err(lineno, "expected `[\"a\", \"b\"]` array"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // permits a trailing comma
        }
        let s = item
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| err(lineno, format!("expected quoted string, got `{item}`")))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shipped_shape() {
        let cfg = parse(
            r#"
# policy
[scan]
crates = ["serve", "core", "obs"]  # trailing comment

[analysis.nondet-taint]
entry-points = ["ComplxPlacer::place", "core::service::solve"]
exempt-crates = ["obs"]

[analysis.lock-order]
crates = ["serve"]
helper = "lock_or_recover"
"#,
        )
        .expect("parses");
        assert_eq!(cfg.scan_crates, vec!["serve", "core", "obs"]);
        let taint = &cfg.analyses["nondet-taint"];
        assert_eq!(taint.entry_points.len(), 2);
        assert_eq!(taint.exempt_crates, vec!["obs"]);
        assert_eq!(cfg.analyses["lock-order"].helper, "lock_or_recover");
        assert!(cfg.analysis_applies("nondet-taint", "core"));
        assert!(!cfg.analysis_applies("nondet-taint", "obs"));
        assert!(cfg.analysis_applies("lock-order", "serve"));
        assert!(!cfg.analysis_applies("lock-order", "core"));
        assert!(!cfg.analysis_applies("panic-path", "core"));
    }

    #[test]
    fn rejects_typos() {
        assert!(parse("[scan]\ncrate = [\"a\"]").is_err());
        assert!(parse("[scan]\ncrates = \"*\"").is_err());
        assert!(parse("[unknown]\nx = 1").is_err());
        assert!(parse("").is_err());
        assert!(parse("[scan]\ncrates = [\"a\"]\n[analysis.bogus]\n").is_err());
        assert!(parse("[scan]\ncrates = [\"a\"]\n[analysis.lock-order]\nhelpers = \"x\"").is_err());
        // The token rules moved to clippy; their old sections are typos now.
        assert!(parse("[scan]\ncrates = [\"a\"]\n[rules.no-unwrap]\ncrates = [\"*\"]").is_err());
    }
}
