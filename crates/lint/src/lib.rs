//! `complx-lint` — a call-graph static-analysis pass that enforces the
//! repo's determinism, no-panic and lock-order contracts through helper
//! functions.
//!
//! PR 3's parallel runtime guarantees bit-identical `f64` results for any
//! thread count, PR 1 promised panic-free solver code, and the job server
//! must not deadlock. Per-token checks of those contracts (no `unwrap`, no
//! `HashMap` in a kernel crate, …) are clippy lints configured in the
//! workspace manifest, each crate's `lib.rs` and per-crate `clippy.toml`
//! files (DESIGN.md §12). What clippy cannot see is *reachability*: an
//! `unwrap` wrapped in a helper, a wall-clock read two crates below a
//! solve entry point, an acquisition-order cycle across functions. So, in
//! the spirit of ComPLx's own analyzability argument (transparent,
//! self-contained algorithms over black boxes), the workspace checks those
//! mechanically here. The checker is hand-rolled on a small Rust lexer and
//! item parser (no `syn`), reads its policy from `lint.toml` at the
//! workspace root, and prints findings as `file:line:col: rule: message`.
//!
//! # Analyses
//!
//! | analysis | contract |
//! |----------|----------|
//! | `nondet-taint` | no nondeterminism source reachable from a solve entry point |
//! | `panic-path` | no `unwrap`/`expect`/`panic!` family reachable from a solve entry point |
//! | `lock-order` | job-server locks go through one helper and form no acquisition cycle |
//!
//! Per-site escapes are spelled `// lint:allow(<analysis>): <reason>` on
//! (or directly above) the offending line; a waiver without a reason,
//! naming an unknown analysis, or suppressing nothing is itself a finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

pub mod config;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod report;
pub mod resolve;
pub mod scan;
pub mod taint;

pub use config::{parse as parse_config, Config, ANALYSES};
pub use scan::{lint_workspace, Diagnostic};

use std::path::{Path, PathBuf};

/// Walks upward from `start` to the first directory holding a `lint.toml`
/// (the workspace root). Returns `None` when no ancestor has one.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
