//! Integration tests for the interprocedural analyses: a fixture
//! mini-workspace (tests/fixtures/interproc/) seeds one defect of each
//! class — a cross-crate nondeterminism leak, a helper-hidden unwrap, and
//! a two-mutex ABBA deadlock — and the assertions pin the exact
//! `file:line:col` each analysis reports. A property test drives the item
//! parser with arbitrary token soup to prove it is total, and the
//! committed `lint.toml` policy is replayed over the real workspace
//! (which must be clean).

use std::path::{Path, PathBuf};

use complx_lint::parser::{module_path, parse_file};
use complx_lint::scan::analyze_workspace;
use complx_lint::{lint_workspace, parse_config};
use proptest::prelude::*;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("interproc")
}

const POLICY: &str = r#"
[scan]
crates = ["app", "helper"]

[analysis.nondet-taint]
entry-points = ["app::entry"]

[analysis.panic-path]
entry-points = ["app::entry"]

[analysis.lock-order]
crates = ["app"]
helper = "lock_or_recover"
"#;

#[test]
fn seeded_defects_are_reported_at_exact_positions() {
    let cfg = parse_config(POLICY).expect("fixture policy parses");
    let run = analyze_workspace(&fixture_root(), &cfg).expect("fixture workspace scans");
    let got: Vec<(String, u32, u32, String)> = run
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.line, d.col, d.rule.clone()))
        .collect();
    let app = "crates/app/src/lib.rs".to_string();
    let helper = "crates/helper/src/lib.rs".to_string();
    assert_eq!(
        got,
        vec![
            // ABBA cycle alpha -> beta -> alpha, anchored at the
            // acquisition of beta while alpha is held (fn first).
            (app.clone(), 24, 14, "lock-order".to_string()),
            // The unwrap hidden two calls below entry (fn hidden).
            (app.clone(), 42, 7, "panic-path".to_string()),
            // Raw .lock() bypassing the choke point (fn bypass).
            (app.clone(), 48, 14, "lock-order".to_string()),
            // The HashMap in fix_helper::leak, reached cross-crate.
            (helper.clone(), 4, 31, "nondet-taint".to_string()),
        ],
        "diagnostics: {:#?}",
        run.diagnostics
    );
    // The unreachable HashMap (helper::unreachable_nondet) is absent.
    assert!(
        !run.diagnostics
            .iter()
            .any(|d| d.line == 10 && d.file == helper),
        "unreachable function must not be tainted"
    );
    // Witness chains name the full call path.
    let panic_diag = &run.diagnostics[1];
    assert!(
        panic_diag
            .message
            .contains("app::entry -> app::deep -> app::hidden"),
        "chain in: {}",
        panic_diag.message
    );
    let taint_diag = &run.diagnostics[3];
    assert!(
        taint_diag.message.contains("app::entry -> helper::leak"),
        "chain in: {}",
        taint_diag.message
    );
    // The fixture graph spans both crates.
    assert!(
        run.graph.nodes.iter().any(|n| n.krate == "app")
            && run.graph.nodes.iter().any(|n| n.krate == "helper"),
        "graph covers both fixture crates"
    );
}

#[test]
fn fixture_inventory_is_waiver_free() {
    let cfg = parse_config(POLICY).expect("fixture policy parses");
    let run = analyze_workspace(&fixture_root(), &cfg).expect("fixture workspace scans");
    assert!(run.waivers.is_empty());
    assert_eq!(run.files_scanned, 2);
}

#[test]
fn reasoned_analysis_waivers_silence_the_findings_and_read_as_used() {
    // Copy the fixture workspace into a temp dir with a reasoned waiver
    // on each seeded defect; the scan must come back clean and the
    // inventory must show every waiver as used.
    let src_root = fixture_root();
    let dst_root = std::env::temp_dir().join(format!(
        "complx-lint-interproc-waived-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dst_root);
    for krate in ["app", "helper"] {
        let dir = dst_root.join("crates").join(krate).join("src");
        std::fs::create_dir_all(&dir).expect("mkdir fixture copy");
        std::fs::copy(
            src_root.join("crates").join(krate).join("Cargo.toml"),
            dst_root.join("crates").join(krate).join("Cargo.toml"),
        )
        .expect("copy manifest");
        let text = std::fs::read_to_string(
            src_root
                .join("crates")
                .join(krate)
                .join("src")
                .join("lib.rs"),
        )
        .expect("read fixture lib.rs");
        let text = text
            .replace(
                // The cycle anchors at fn first's beta acquisition (the
                // alpha -> beta witness), not at fn second's.
                "    let gb = lock_or_recover(&s.beta);\n    *ga + *gb",
                "    // lint:allow(lock-order): seeded, waived for this test\n    \
                 let gb = lock_or_recover(&s.beta);\n    *ga + *gb",
            )
            .replace(
                "    x.unwrap()",
                "    x.unwrap() // lint:allow(panic-path): seeded, waived for this test",
            )
            .replace(
                "    *s.alpha.lock()",
                "    // lint:allow(lock-order): seeded, waived for this test\n    \
                 *s.alpha.lock()",
            )
            .replace(
                "    let m = std::collections::HashMap::<u32, u32>::new();\n    m.get",
                "    // lint:allow(nondet-taint): seeded, waived for this test\n    \
                 let m = std::collections::HashMap::<u32, u32>::new();\n    m.get",
            );
        std::fs::write(dir.join("lib.rs"), text).expect("write fixture copy");
    }
    let cfg = parse_config(POLICY).expect("fixture policy parses");
    let run = analyze_workspace(&dst_root, &cfg).expect("waived workspace scans");
    assert!(
        run.diagnostics.is_empty(),
        "waived workspace is clean, got: {:#?}",
        run.diagnostics
    );
    assert_eq!(run.waivers.len(), 4);
    assert!(
        run.waivers.iter().all(|w| w.used),
        "all waivers used: {:#?}",
        run.waivers
    );
    let _ = std::fs::remove_dir_all(&dst_root);
}

#[test]
fn workspace_is_clean_under_the_committed_policy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    let policy =
        std::fs::read_to_string(root.join("lint.toml")).expect("committed lint.toml readable");
    let cfg = parse_config(&policy).expect("committed policy parses");
    let diags = lint_workspace(&root, &cfg).expect("workspace scan succeeds");
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        diags.is_empty(),
        "workspace must lint clean:\n{}",
        rendered.join("\n")
    );
}

/// Fragments that exercise every parser path: item keywords, nesting,
/// paths, attributes, and stray punctuation that must not confuse the
/// bracket matching.
const FRAGMENTS: &[&str] = &[
    "fn",
    "impl",
    "mod",
    "use",
    "pub",
    "struct",
    "trait",
    "where",
    "unsafe",
    "dyn",
    "self",
    "Self",
    "super",
    "crate",
    "as",
    "in",
    "for",
    "f",
    "g",
    "Type",
    "x",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "<",
    ">",
    "::",
    ":",
    ";",
    ",",
    ".",
    "#",
    "!",
    "=",
    "=>",
    "->",
    "&",
    "*",
    "'a",
    "1",
    "2.5",
    "\"str\"",
    "'c'",
    "// comment\n",
    "/* block */",
    "#[cfg(test)]",
    "#[inline]",
    "r#\"raw\"#",
];

proptest! {
    #[test]
    fn item_parser_never_panics_on_token_soup(
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..=120),
        spaces in proptest::collection::vec(0..2usize, 0..=120),
    ) {
        let mut src = String::new();
        for (k, &p) in picks.iter().enumerate() {
            src.push_str(FRAGMENTS[p]);
            if spaces.get(k).copied().unwrap_or(0) == 1 {
                src.push(' ');
            }
        }
        let lexed = complx_lint::lexer::lex(&src);
        let module = module_path("fuzz", "lib.rs");
        let parsed = parse_file(&lexed, &module);
        // Token-total: every parsed item's body range stays in bounds.
        for f in &parsed.fns {
            prop_assert!(f.body.0 <= f.body.1);
            prop_assert!(f.body.1 <= lexed.toks.len());
        }
    }

    #[test]
    fn item_parser_never_panics_on_raw_bytes(
        bytes in proptest::collection::vec(0..=255u8, 0..=200),
    ) {
        let src = String::from_utf8_lossy(&bytes).to_string();
        let lexed = complx_lint::lexer::lex(&src);
        let parsed = parse_file(&lexed, &["fuzz".to_string()]);
        prop_assert!(parsed.fns.iter().all(|f| f.body.1 <= lexed.toks.len()));
    }
}
