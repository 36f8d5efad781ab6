//! The machine-readable `complx-lint-report/v1` artifact.
//!
//! CI (scripts/check.sh) archives one JSON document per lint run so
//! downstream tooling can diff findings and waiver inventories across
//! commits without re-parsing human-oriented terminal output. It is
//! written and read with `complx-json`, the workspace's one JSON codec, a
//! leaf crate with no dependencies of its own (so the linter still builds
//! before anything it lints).
//!
//! Schema (all keys required):
//!
//! ```json
//! {
//!   "schema": "complx-lint-report/v1",
//!   "crates": ["par", …],
//!   "files_scanned": 93,
//!   "graph": {"functions": 1200, "edges": 3400},
//!   "findings": [
//!     {"file": "crates/x/src/a.rs", "line": 3, "col": 9,
//!      "rule": "panic-path", "message": "…"}
//!   ],
//!   "waivers": [
//!     {"file": "crates/x/src/a.rs", "line": 2, "rule": "panic-path",
//!      "reason": "…", "used": true}
//!   ],
//!   "summary": {"findings": 1, "waivers": 1, "by_rule": {"panic-path": 1}}
//! }
//! ```

use std::collections::BTreeMap;

use complx_json::{parse, JsonValue};

use crate::config::Config;
use crate::scan::WorkspaceRun;

/// The schema identifier embedded in, and required of, every report.
pub const SCHEMA: &str = "complx-lint-report/v1";

/// Serializes a workspace run to the `complx-lint-report/v1` document.
pub fn render(run: &WorkspaceRun, cfg: &Config) -> String {
    let findings = run
        .diagnostics
        .iter()
        .map(|d| {
            JsonValue::object(vec![
                ("file", d.file.as_str().into()),
                ("line", u64::from(d.line).into()),
                ("col", u64::from(d.col).into()),
                ("rule", d.rule.as_str().into()),
                ("message", d.message.as_str().into()),
            ])
        })
        .collect();
    let waivers = run
        .waivers
        .iter()
        .map(|w| {
            JsonValue::object(vec![
                ("file", w.file.as_str().into()),
                ("line", u64::from(w.line).into()),
                ("rule", w.rule.as_str().into()),
                ("reason", w.reason.as_str().into()),
                ("used", w.used.into()),
            ])
        })
        .collect();
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &run.diagnostics {
        *by_rule.entry(&d.rule).or_default() += 1;
    }
    let doc = JsonValue::object(vec![
        ("schema", SCHEMA.into()),
        (
            "crates",
            JsonValue::Arr(cfg.scan_crates.iter().map(|c| c.as_str().into()).collect()),
        ),
        ("files_scanned", run.files_scanned.into()),
        (
            "graph",
            JsonValue::object(vec![
                ("functions", run.graph.nodes.len().into()),
                ("edges", run.graph.edge_count().into()),
            ]),
        ),
        ("findings", JsonValue::Arr(findings)),
        ("waivers", JsonValue::Arr(waivers)),
        (
            "summary",
            JsonValue::object(vec![
                ("findings", run.diagnostics.len().into()),
                ("waivers", run.waivers.len().into()),
                (
                    "by_rule",
                    JsonValue::Obj(
                        by_rule
                            .into_iter()
                            .map(|(rule, n)| (rule.to_string(), n.into()))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    let mut text = doc.to_json_pretty();
    text.push('\n');
    text
}

fn require<'v>(v: &'v JsonValue, key: &str, what: &str) -> Result<&'v JsonValue, String> {
    v.get(key)
        .ok_or_else(|| format!("{what}: missing key `{key}`"))
}

fn require_u64(v: &JsonValue, key: &str, what: &str) -> Result<u64, String> {
    require(v, key, what)?
        .as_i64()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| format!("{what}: `{key}` must be a non-negative integer"))
}

fn require_str<'v>(v: &'v JsonValue, key: &str, what: &str) -> Result<&'v str, String> {
    require(v, key, what)?
        .as_str()
        .ok_or_else(|| format!("{what}: `{key}` must be a string"))
}

fn require_array<'v>(v: &'v JsonValue, key: &str, what: &str) -> Result<&'v [JsonValue], String> {
    require(v, key, what)?
        .as_array()
        .ok_or_else(|| format!("{what}: `{key}` must be an array"))
}

/// Validates that `text` is a well-formed `complx-lint-report/v1`
/// document and returns its (findings, waivers) counts.
pub fn validate(text: &str) -> Result<(usize, usize), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let schema = require_str(&doc, "schema", "report")?;
    if schema != SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{SCHEMA}`"));
    }
    if !require_array(&doc, "crates", "report")?
        .iter()
        .all(|c| c.as_str().is_some())
    {
        return Err("report: `crates` must be an array of strings".to_string());
    }
    require_u64(&doc, "files_scanned", "report")?;
    let graph = require(&doc, "graph", "report")?;
    require_u64(graph, "functions", "graph")?;
    require_u64(graph, "edges", "graph")?;
    let findings = require_array(&doc, "findings", "report")?;
    for (i, item) in findings.iter().enumerate() {
        let what = format!("findings[{i}]");
        require_str(item, "file", &what)?;
        require_u64(item, "line", &what)?;
        require_u64(item, "col", &what)?;
        require_str(item, "rule", &what)?;
        require_str(item, "message", &what)?;
    }
    let waivers = require_array(&doc, "waivers", "report")?;
    for (i, item) in waivers.iter().enumerate() {
        let what = format!("waivers[{i}]");
        require_str(item, "file", &what)?;
        require_u64(item, "line", &what)?;
        require_str(item, "rule", &what)?;
        require_str(item, "reason", &what)?;
        if require(item, "used", &what)?.as_bool().is_none() {
            return Err(format!("{what}: `used` must be a bool"));
        }
    }
    let (findings, waivers) = (findings.len(), waivers.len());
    let summary = require(&doc, "summary", "report")?;
    let n = require_u64(summary, "findings", "summary")? as usize;
    let m = require_u64(summary, "waivers", "summary")? as usize;
    if n != findings {
        return Err(format!(
            "summary.findings is {n} but the findings array has {findings} entries"
        ));
    }
    if m != waivers {
        return Err(format!(
            "summary.waivers is {m} but the waivers array has {waivers} entries"
        ));
    }
    match require(summary, "by_rule", "summary")? {
        JsonValue::Obj(counts) => {
            let total: f64 = counts
                .iter()
                .map(|(_, v)| v.as_f64().unwrap_or(f64::NAN))
                .sum();
            if total.fract() != 0.0 || total as usize != findings {
                return Err("summary.by_rule counts do not sum to summary.findings".to_string());
            }
        }
        _ => return Err("summary: `by_rule` must be an object".to_string()),
    }
    Ok((findings, waivers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::CallGraph;
    use crate::scan::{Diagnostic, WaiverRecord, WorkspaceRun};

    fn sample_run() -> WorkspaceRun {
        WorkspaceRun {
            diagnostics: vec![Diagnostic {
                file: "crates/x/src/a.rs".to_string(),
                line: 3,
                col: 9,
                rule: "panic-path".to_string(),
                message: "quote \" and\nnewline".to_string(),
            }],
            graph: CallGraph::default(),
            waivers: vec![WaiverRecord {
                file: "crates/x/src/a.rs".to_string(),
                line: 2,
                rule: "panic-path".to_string(),
                reason: "startup".to_string(),
                used: true,
            }],
            files_scanned: 1,
        }
    }

    #[test]
    fn render_roundtrips_through_validate() {
        let cfg = crate::config::parse("[scan]\ncrates = [\"x\"]\n").expect("cfg");
        let text = render(&sample_run(), &cfg);
        let (findings, waivers) = validate(&text).expect("valid report");
        assert_eq!((findings, waivers), (1, 1));
        let doc = parse(&text).expect("parses");
        let message = doc
            .get("findings")
            .and_then(JsonValue::as_array)
            .and_then(|f| f[0].get("message"))
            .and_then(JsonValue::as_str);
        assert_eq!(message, Some("quote \" and\nnewline"));
    }

    #[test]
    fn validate_rejects_mutations() {
        let cfg = crate::config::parse("[scan]\ncrates = [\"x\"]\n").expect("cfg");
        let good = render(&sample_run(), &cfg);
        assert!(validate(&good.replace(SCHEMA, "other/v9")).is_err());
        assert!(validate(&good.replace("\"findings\": 1", "\"findings\": 2")).is_err());
        assert!(validate(&good.replace("\"line\": 3", "\"line\": -3")).is_err());
        assert!(validate(&good.replace("\"line\": 3", "\"line\": 3.5")).is_err());
        assert!(validate(&good.replace("\"used\": true", "\"used\": 1")).is_err());
        assert!(validate(&good.replace("\"panic-path\": 1", "\"panic-path\": 2")).is_err());
        assert!(validate("{").is_err());
        assert!(validate("not json").is_err());
        assert!(validate(&format!("{good}x")).is_err());
        assert!(validate(&"[".repeat(100_000)).is_err());
    }
}
