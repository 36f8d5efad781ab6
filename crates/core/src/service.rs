//! The one entry point that runs an instrumented placement.
//!
//! [`solve`] arms the observability pipeline with the caller's sinks,
//! applies the thread budget, places (or resumes from a checkpoint) under
//! the cancel token, times the run, harvests the pipeline and assembles
//! the `complx-run-report/v1` manifest. Every consumer places through it:
//! the `complx` CLI (which adds its own sinks and writes the artifacts),
//! the `complx-serve` daemon (one call per job, on its own worker thread)
//! and the bench harness that times the paper's tables and figures. So
//! the wall time a report explains is measured in one place, and clippy
//! (`crates/core/clippy.toml`) keeps it that way: `complx_obs::install`
//! is a disallowed method everywhere else.
//!
//! The observability pipeline is thread-local, so concurrent
//! [`solve`] calls on different threads keep fully independent event
//! streams and harvests — the property that lets a job server run K
//! placements at once with one JSONL stream per job.

use complx_netlist::Design;
use complx_obs::{RunReport, Sink};
use complx_par::CancelToken;

use crate::ckpt::CheckpointState;
use crate::config::PlacerConfig;
use crate::error::PlaceError;
use crate::placer::{ComplxPlacer, PlacementOutcome};
use crate::report::run_report;

/// Everything one solve needs beyond the design itself.
pub struct SolveRequest {
    /// Placer configuration (hashed by [`crate::idhash::config_hash`]
    /// for result-cache identity).
    pub config: PlacerConfig,
    /// Worker-thread budget for this solve's parallel kernels, applied as
    /// a thread-local override for the duration of the call (`None` =
    /// process default). Budgets only change speed, never results.
    pub threads: Option<usize>,
    /// Cooperative cancellation; an untripped token changes nothing.
    pub cancel: Option<CancelToken>,
    /// Event sinks for this solve (for example a line-buffered JSONL
    /// stream). The aggregator behind the report always runs.
    pub sinks: Vec<Box<dyn Sink>>,
    /// Continue a checkpointed run instead of starting a fresh one (see
    /// [`ComplxPlacer::resume`]); the design and configuration must match
    /// the checkpointed run's.
    pub resume: Option<CheckpointState>,
}

impl SolveRequest {
    /// A request with the given configuration and all extras defaulted.
    pub fn new(config: PlacerConfig) -> Self {
        Self {
            config,
            threads: None,
            cancel: None,
            sinks: Vec::new(),
            resume: None,
        }
    }
}

/// A completed solve: the placement outcome plus its run manifest.
pub struct SolveArtifacts {
    /// The placer's structured result (placements, trace, metrics).
    pub outcome: PlacementOutcome,
    /// The `complx-run-report/v1` manifest, phase timings included.
    pub report: RunReport,
}

/// Runs one fully instrumented placement: installs the request's sinks on
/// this thread, applies the thread budget, places (or resumes) under the
/// cancel token, then harvests and assembles the report manifest.
///
/// # Errors
///
/// Every failure mode of [`ComplxPlacer::place`] and
/// [`ComplxPlacer::resume`], plus [`PlaceError::Cancelled`] when the token
/// trips before a feasible iterate exists. The pipeline is harvested
/// (sinks flushed and closed) on the error path too, so a failed or
/// cancelled run still leaves a complete event stream.
pub fn solve(design: &Design, request: SolveRequest) -> Result<SolveArtifacts, PlaceError> {
    let SolveRequest {
        config,
        threads,
        cancel,
        sinks,
        resume,
    } = request;
    // Guard-scoped: the budget must cover the report assembly too, so
    // `extra.parallel.threads` records the thread count the job ran at.
    let _budget = threads.map(complx_par::with_threads);
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place that arms the pipeline"
    )]
    complx_obs::install(sinks);
    let mut placer = ComplxPlacer::new(config.clone());
    if let Some(token) = cancel {
        placer = placer.with_cancel(token);
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "total solve timer; feeds the report's wall-clock field only"
    )]
    let started = std::time::Instant::now();
    let placed = match resume {
        Some(checkpoint) => placer.resume(design, checkpoint),
        None => placer.place(design),
    };
    let total_seconds = started.elapsed().as_secs_f64();
    let harvest = complx_obs::harvest();
    let outcome = placed?;
    let report = run_report(design, &config, &outcome, harvest, total_seconds);
    Ok(SolveArtifacts { outcome, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::generator::GeneratorConfig;

    #[test]
    fn solve_produces_outcome_and_report() {
        let design = GeneratorConfig::small("svc", 3).generate();
        let mut req = SolveRequest::new(PlacerConfig::fast());
        req.threads = Some(2);
        let arts = solve(&design, req).expect("solve succeeds");
        assert!(arts.outcome.hpwl_legal > 0.0);
        assert_eq!(arts.report.tool, "complx");
        let threads = arts
            .report
            .extra
            .get("parallel")
            .and_then(|p| p.get("threads"))
            .and_then(complx_obs::JsonValue::as_i64);
        assert_eq!(threads, Some(2), "report records the per-job budget");
    }

    #[test]
    fn solve_matches_direct_place_bit_for_bit() {
        let design = GeneratorConfig::small("svc_eq", 5).generate();
        let direct = ComplxPlacer::new(PlacerConfig::fast())
            .place(&design)
            .expect("direct place");
        let served =
            solve(&design, SolveRequest::new(PlacerConfig::fast())).expect("service solve");
        assert_eq!(
            direct.legal.xs(),
            served.outcome.legal.xs(),
            "instrumentation observes, never perturbs"
        );
        assert_eq!(direct.legal.ys(), served.outcome.legal.ys());
    }

    #[test]
    fn resume_continues_a_killed_run_bit_for_bit() {
        use crate::config::CheckpointConfig;
        use crate::faults::{FaultKind, FaultPlan};

        let design = GeneratorConfig::small("svc_rsm", 6).generate();
        let ckpt = std::env::temp_dir().join(format!("complx-svc-rsm-{}.ckpt", std::process::id()));
        let config = PlacerConfig {
            checkpoint: Some(CheckpointConfig::new(&ckpt, 2)),
            ..PlacerConfig::fast()
        };
        let reference = solve(&design, SolveRequest::new(config.clone())).expect("reference");
        let killed = SolveRequest::new(PlacerConfig {
            faults: Some(FaultPlan::new().inject(3, FaultKind::Kill)),
            ..config.clone()
        });
        assert!(matches!(
            solve(&design, killed),
            Err(PlaceError::Killed { iteration: 3 })
        ));
        let (state, _) = crate::ckpt::load_checkpoint(&ckpt).expect("checkpoint");
        let mut request = SolveRequest::new(config);
        request.resume = Some(state);
        let resumed = solve(&design, request).expect("resume");
        assert_eq!(reference.outcome.legal, resumed.outcome.legal);
        assert_eq!(
            reference.report.counter("place.iterations"),
            resumed.report.counter("place.iterations") + 2,
            "the resumed run starts after the checkpointed iteration 2"
        );
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(crate::ckpt::prev_path(&ckpt));
    }

    #[test]
    fn pre_tripped_token_cancels() {
        let design = GeneratorConfig::small("svc_cancel", 7).generate();
        let token = CancelToken::new();
        token.cancel();
        let mut req = SolveRequest::new(PlacerConfig::fast());
        req.cancel = Some(token);
        match solve(&design, req) {
            Err(PlaceError::Cancelled) => {}
            Err(other) => panic!("expected Cancelled, got {other}"),
            Ok(arts) => assert_eq!(
                arts.outcome.stop_reason,
                crate::error::StopReason::Cancelled,
                "a feasible iterate may exist before the first poll"
            ),
        }
    }
}
