//! Shared run helpers for the table/figure binaries.

use complx_netlist::{generator, Design};
use complx_place::{PlaceError, PlacementOutcome, PlacerConfig, SolveArtifacts, SolveRequest};

/// One benchmark run's summary row.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Instance name.
    pub name: String,
    /// Number of cells (modules).
    pub num_cells: usize,
    /// Number of nets.
    pub num_nets: usize,
    /// Legal HPWL.
    pub hpwl: f64,
    /// Scaled HPWL (ISPD-2006 metric).
    pub scaled_hpwl: f64,
    /// Overflow penalty percent.
    pub overflow_percent: f64,
    /// Total wall-clock seconds (global + legalization/detail).
    pub seconds: f64,
    /// Global placement iterations.
    pub iterations: usize,
    /// Final λ.
    pub final_lambda: f64,
    /// Whether the run converged (vs. hit its iteration cap).
    pub converged: bool,
}

impl RunSummary {
    /// Builds a summary from a placement outcome.
    pub fn from_outcome(design: &Design, outcome: &PlacementOutcome, seconds: f64) -> Self {
        Self {
            name: design.name().to_string(),
            num_cells: design.num_cells(),
            num_nets: design.num_nets(),
            hpwl: outcome.metrics.hpwl,
            scaled_hpwl: outcome.metrics.scaled_hpwl,
            overflow_percent: outcome.metrics.overflow_percent,
            seconds,
            iterations: outcome.iterations,
            final_lambda: outcome.final_lambda,
            converged: outcome.converged,
        }
    }
}

/// Places `design` with `config` through [`complx_place::solve`] and
/// returns the summary row plus the outcome and its [`RunReport`].
///
/// The summary's `seconds` comes from the report's `place` phase — the
/// instrumented root span, measured once where the work happens — with
/// the report's `total_seconds` as the fallback for a run that never
/// opened the root span.
///
/// # Errors
///
/// The placer's error.
///
/// [`RunReport`]: complx_obs::RunReport
pub fn run(
    design: &Design,
    config: &PlacerConfig,
) -> Result<(RunSummary, SolveArtifacts), PlaceError> {
    let arts = complx_place::solve(design, SolveRequest::new(config.clone()))?;
    let place_secs = arts.report.phase_seconds("place");
    let secs = if place_secs > 0.0 {
        place_secs
    } else {
        arts.report.total_seconds
    };
    Ok((RunSummary::from_outcome(design, &arts.outcome, secs), arts))
}

/// Generates the ISPD-2005-like suite at `scale` (sizes divided by
/// `40·scale`).
pub fn suite_2005(scale: usize) -> Vec<Design> {
    generator::suite::ispd2005()
        .into_iter()
        .map(|(mut cfg, _orig)| {
            cfg.num_std_cells = (cfg.num_std_cells / scale.max(1)).max(200);
            cfg.generate()
        })
        .collect()
}

/// Generates the ISPD-2006-like suite at `scale`.
pub fn suite_2006(scale: usize) -> Vec<Design> {
    generator::suite::ispd2006()
        .into_iter()
        .map(|(mut cfg, _orig)| {
            cfg.num_std_cells = (cfg.num_std_cells / scale.max(1)).max(200);
            cfg.generate()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_scale_down() {
        let full = suite_2005(8);
        let tiny = suite_2005(64);
        assert_eq!(full.len(), 8);
        assert_eq!(tiny.len(), 8);
        assert!(tiny[0].num_cells() < full[0].num_cells());
    }

    #[test]
    fn run_takes_seconds_from_the_place_phase() {
        let d = complx_netlist::generator::GeneratorConfig::small("rr", 2).generate();
        let (summary, arts) = run(&d, &PlacerConfig::fast()).expect("placement failed");
        assert!(summary.seconds > 0.0);
        assert!(summary.hpwl > 0.0);
        assert_eq!(summary.name, "rr");
        let place = arts.report.phase_seconds("place");
        assert!(place > 0.0, "instrumented root phase present");
        assert_eq!(summary.seconds, place);
        // The instrumented time is bounded by the solve's wall clock.
        assert!(place <= arts.report.total_seconds * 1.05);
        assert_eq!(
            arts.report.counter("place.iterations") as usize,
            arts.outcome.iterations
        );
    }
}
