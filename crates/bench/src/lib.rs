//! Benchmark harness utilities: tables, geometric means, ASCII plots and
//! SVG rendering for regenerating every table and figure of the ComPLx
//! paper. The binaries in `src/bin/` produce the actual artifacts; see
//! EXPERIMENTS.md at the workspace root for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    forbid(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    ),
    deny(clippy::float_cmp, clippy::float_cmp_const)
)]

pub mod plot;
pub mod report;
pub mod runs;
pub mod snapshot;
pub mod svg;

/// Geometric mean of positive values; `0.0` for an empty slice.
///
/// The paper normalizes Tables 1 and 2 by geometric means across the
/// benchmark suites.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Output directory for benchmark artifacts (`target/paper`), created on
/// demand.
///
/// # Errors
///
/// Returns the error of creating the directory.
pub fn artifact_dir() -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::PathBuf::from("target/paper");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Reads the `--scale N` CLI argument (default 1): benchmark instance sizes
/// are divided by `40·N`, so `--scale 4` runs a fast smoke version of every
/// experiment.
pub fn scale_arg() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }
}
