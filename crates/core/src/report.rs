//! Assembly of the end-of-run [`RunReport`] manifest from placer types.
//!
//! The `complx-obs` crate defines the report container and its JSON schema
//! but knows nothing about designs or placements; this module fills the
//! generic sections (design stats, configuration, metrics, iteration trace,
//! solver records) from a [`PlacementOutcome`].

use complx_netlist::Design;
use complx_obs::{Harvest, JsonValue, RunReport};

use crate::config::{GridSchedule, Interconnect, LambdaMode, PlacerConfig};
use crate::placer::PlacementOutcome;

/// Design statistics as a JSON object (the report's `design` section).
pub fn design_json(design: &Design) -> JsonValue {
    let core = design.core();
    JsonValue::object(vec![
        ("name", design.name().into()),
        ("cells", design.num_cells().into()),
        ("movable_cells", design.movable_cells().len().into()),
        ("nets", design.num_nets().into()),
        ("pins", design.num_pins().into()),
        ("core_width", core.width().into()),
        ("core_height", core.height().into()),
        ("row_height", design.row_height().into()),
        ("target_density", design.target_density().into()),
    ])
}

/// Configuration summary as a JSON object (the report's `config` section).
pub fn config_json(cfg: &PlacerConfig) -> JsonValue {
    let interconnect = match cfg.interconnect {
        Interconnect::Quadratic(m) => format!("quadratic({m:?})"),
        Interconnect::LogSumExp { gamma_rows } => format!("log-sum-exp(gamma_rows={gamma_rows})"),
        Interconnect::BetaRegularized { beta_rows2 } => {
            format!("beta-regularized(beta_rows2={beta_rows2})")
        }
        Interconnect::PNorm { p } => format!("p-norm(p={p})"),
    };
    let lambda_mode = match cfg.lambda_mode {
        LambdaMode::Complx { h_factor } => format!("complx(h={h_factor})"),
        LambdaMode::Arithmetic { step } => format!("arithmetic(step={step})"),
        LambdaMode::Geometric { ratio } => format!("geometric(ratio={ratio})"),
    };
    let grid = match cfg.grid {
        GridSchedule::CoarseToFine {
            start_fraction,
            growth,
        } => format!("coarse-to-fine(start={start_fraction},growth={growth})"),
        GridSchedule::Fixed { fraction } => format!("fixed(fraction={fraction})"),
    };
    JsonValue::object(vec![
        ("interconnect", interconnect.into()),
        ("lambda_mode", lambda_mode.into()),
        ("lambda_inverse_ratio", cfg.lambda_inverse_ratio.into()),
        ("projection", cfg.projection.to_string().into()),
        ("grid", grid.into()),
        ("max_iterations", cfg.max_iterations.into()),
        ("gap_tolerance", cfg.gap_tolerance.into()),
        ("overflow_tolerance", cfg.overflow_tolerance.into()),
        ("cg_tolerance", cfg.cg_tolerance.into()),
        ("cg_max_iterations", cfg.cg_max_iterations.into()),
        ("per_macro_lambda", cfg.per_macro_lambda.into()),
        ("shred_macros", cfg.shred_macros.into()),
        ("detail_each_iteration", cfg.detail_each_iteration.into()),
        ("final_detail", cfg.final_detail.into()),
        ("stagnation_window", cfg.stagnation_window.into()),
        (
            "anchor_cap_bins",
            cfg.anchor_cap_bins.map_or(JsonValue::Null, JsonValue::from),
        ),
        ("routability", cfg.routability.is_some().into()),
        ("max_recoveries", cfg.max_recoveries.into()),
        (
            "time_budget",
            cfg.time_budget.map_or(JsonValue::Null, JsonValue::from),
        ),
    ])
}

/// Parallel-runtime accounting as a JSON object (the report's
/// `extra.parallel` section): configured thread count, detected hardware
/// parallelism, and per-kernel speedup estimates.
///
/// Parallel kernels time their worker jobs under a `chunks` span via the
/// observability carrier, so for each harvested `<parent>/chunks` path the
/// ratio of summed worker-busy seconds to the parent's wall-clock seconds
/// estimates the achieved parallelism of that kernel (≈1.0 when running
/// on one thread).
pub fn parallel_json(harvest: Option<&Harvest>) -> JsonValue {
    let mut phases = Vec::new();
    if let Some(h) = harvest {
        for p in &h.phases {
            if let Some(parent) = p.path.strip_suffix("/chunks") {
                let wall = h.phase(parent).map_or(0.0, |pp| pp.total_seconds);
                let parallelism = if wall > 0.0 {
                    p.total_seconds / wall
                } else {
                    0.0
                };
                phases.push(JsonValue::object(vec![
                    ("path", parent.into()),
                    ("busy_seconds", p.total_seconds.into()),
                    ("wall_seconds", wall.into()),
                    ("parallelism", parallelism.into()),
                ]));
            }
        }
    }
    JsonValue::object(vec![
        ("threads", complx_par::threads().into()),
        ("available", complx_par::available().into()),
        ("phases", JsonValue::Arr(phases)),
    ])
}

/// Builds the full run manifest for one placement outcome; called by
/// [`crate::solve`], which owns the pipeline and the clock.
///
/// `harvest` is `None` when no observability pipeline was armed (the
/// report then carries metrics and the iteration trace but no phase
/// timings); `total_seconds` is the wall clock of the placement.
pub fn run_report(
    design: &Design,
    config: &PlacerConfig,
    outcome: &PlacementOutcome,
    harvest: Option<Harvest>,
    total_seconds: f64,
) -> RunReport {
    let mut report = RunReport::new("complx");
    report.total_seconds = total_seconds;
    report.stop_reason = outcome.stop_reason.to_string();
    report.design = design_json(design);
    report.config = config_json(config);
    report.metrics = JsonValue::object(vec![
        ("hpwl", outcome.metrics.hpwl.into()),
        ("weighted_hpwl", outcome.metrics.weighted_hpwl.into()),
        ("scaled_hpwl", outcome.metrics.scaled_hpwl.into()),
        ("overflow_percent", outcome.metrics.overflow_percent.into()),
        ("iterations", outcome.iterations.into()),
        ("final_lambda", outcome.final_lambda.into()),
        ("converged", outcome.converged.into()),
        ("recoveries", outcome.recoveries.into()),
        ("global_seconds", outcome.global_seconds.into()),
        ("detail_seconds", outcome.detail_seconds.into()),
    ]);
    report.iterations = outcome.trace.to_json_value();
    let totals = outcome.solver_totals();
    let mut extra = vec![("parallel", parallel_json(harvest.as_ref()))];
    // Memory attribution only exists while `--profile-mem` keeps the
    // tracking allocator armed; reports from unprofiled runs stay free of
    // a section that would be all zeros.
    if complx_obs::prof::mem_profiling() {
        extra.push(("memory", complx_obs::prof::memory_json(harvest.as_ref())));
    }
    extra.extend(vec![
        (
            "solver",
            JsonValue::object(vec![
                ("solves", totals.solves.into()),
                ("cg_iterations", totals.cg_iterations.into()),
                ("clamped_diagonals", totals.clamped_diagonals.into()),
                ("breakdowns", totals.breakdowns.into()),
                ("unconverged", totals.unconverged.into()),
                (
                    "worst_relative_residual",
                    totals.worst_relative_residual.into(),
                ),
            ]),
        ),
        (
            "solves",
            JsonValue::Arr(
                outcome
                    .solves
                    .iter()
                    .map(|s| {
                        JsonValue::object(vec![
                            ("iteration", s.iteration.into()),
                            ("iterations_x", s.iterations_x.into()),
                            ("iterations_y", s.iterations_y.into()),
                            ("relative_residual", s.relative_residual.into()),
                            ("clamped_diagonals", s.clamped_diagonals.into()),
                            ("converged", s.converged.into()),
                            ("breakdown", s.breakdown.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    report.extra = JsonValue::object(extra);
    if let Some(h) = harvest {
        report = report.with_harvest(h);
    }
    report
}

/// Appends a section to the report's `extra` object (used by the CLI for
/// the `--profile` timeline, which only the caller holds).
pub fn attach_extra(report: &mut RunReport, key: &str, value: JsonValue) {
    if let JsonValue::Obj(fields) = &mut report.extra {
        fields.push((key.to_string(), value));
    } else {
        report.extra = JsonValue::object(vec![(key, value)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacerConfig;
    use crate::placer::ComplxPlacer;
    use complx_netlist::generator::GeneratorConfig;
    use complx_obs::parse;

    #[test]
    fn report_covers_run_and_round_trips() {
        let d = GeneratorConfig::small("rep", 11).generate();
        let cfg = PlacerConfig {
            anchor_cap_bins: Some(4.0),
            ..PlacerConfig::fast()
        };
        let crate::SolveArtifacts { outcome, report } =
            crate::solve(&d, crate::SolveRequest::new(cfg.clone())).expect("places");
        let total = report.total_seconds;

        // Phase accounting: the `place` span exists and nests iterations.
        assert!(report.phase_seconds("place") > 0.0);
        assert!(report.phase("place/iteration").is_some());
        assert!(report.counter("cg.solves") > 0);
        assert!(report.counter("place.iterations") as usize == outcome.iterations);
        // Instrumented root time stays within the run's wall clock.
        assert!(report.instrumented_seconds() <= total * 1.05);

        // Manifest round-trips through the JSON layer.
        let text = report.to_json_string();
        let doc = parse(&text).expect("valid JSON");
        let back = complx_obs::RunReport::from_json(&doc).expect("schema");
        assert_eq!(back.phases, report.phases);
        assert_eq!(back.counters, report.counters);
        assert_eq!(
            back.design.get("cells").and_then(JsonValue::as_i64),
            Some(d.num_cells() as i64)
        );
        assert_eq!(
            back.metrics.get("hpwl").and_then(JsonValue::as_f64),
            Some(outcome.metrics.hpwl)
        );
        // The config section says how a preset differs from the default.
        let config = |key: &str| back.config.get(key).cloned();
        assert_eq!(
            config("anchor_cap_bins").and_then(|v| v.as_f64()),
            Some(4.0)
        );
        assert_eq!(
            config("stagnation_window").and_then(|v| v.as_i64()),
            Some(cfg.stagnation_window as i64)
        );
        assert_eq!(
            config("lambda_inverse_ratio"),
            Some(JsonValue::Bool(cfg.lambda_inverse_ratio))
        );
        let iters = back.iterations.as_array().expect("array");
        assert_eq!(iters.len(), outcome.trace.records().len());
        assert!(back.stop_reason.contains(&outcome.stop_reason.to_string()));
    }

    #[test]
    fn report_without_harvest_still_builds() {
        let d = GeneratorConfig::small("rep2", 12).generate();
        let cfg = PlacerConfig {
            max_iterations: 10,
            ..PlacerConfig::rql_like()
        };
        let outcome = ComplxPlacer::new(cfg.clone()).place(&d).expect("places");
        let report = run_report(&d, &cfg, &outcome, None, 1.0);
        assert!(report.phases.is_empty());
        assert!(report.counters.is_empty());
        assert_eq!(report.config, config_json(&cfg));
        let doc = parse(&report.to_json_string()).expect("valid JSON");
        assert!(complx_obs::RunReport::from_json(&doc).is_ok());
    }

    #[test]
    fn parallel_section_records_thread_count_and_kernels() {
        let d = GeneratorConfig::small("rep4", 14).generate();
        let mut request = crate::SolveRequest::new(PlacerConfig::fast());
        request.threads = Some(3);
        let report = crate::solve(&d, request).expect("places").report;
        let par = report.extra.get("parallel").expect("parallel section");
        assert_eq!(par.get("threads").and_then(JsonValue::as_i64), Some(3));
        assert!(
            par.get("available")
                .and_then(JsonValue::as_i64)
                .unwrap_or(0)
                >= 1
        );
        let phases = par
            .get("phases")
            .and_then(JsonValue::as_array)
            .expect("phase array");
        // The small design clears the B2B net-count gate, so at least the
        // stamping kernel must show up with busy time attributed.
        assert!(!phases.is_empty(), "no parallel kernels recorded");
        for ph in phases {
            assert!(ph.get("path").and_then(JsonValue::as_str).is_some());
            assert!(
                ph.get("busy_seconds")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(-1.0)
                    >= 0.0
            );
            assert!(
                ph.get("parallelism")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(-1.0)
                    >= 0.0
            );
        }
    }

    #[test]
    fn solver_stats_survive_in_extra_section() {
        let d = GeneratorConfig::small("rep3", 13).generate();
        let cfg = PlacerConfig::fast();
        let outcome = ComplxPlacer::new(cfg.clone()).place(&d).expect("places");
        assert!(!outcome.solves.is_empty(), "bootstrap records at least");
        let totals = outcome.solver_totals();
        assert!(totals.cg_iterations > 0);
        let report = run_report(&d, &cfg, &outcome, None, 1.0);
        let solver = report.extra.get("solver").expect("solver totals");
        assert_eq!(
            solver.get("solves").and_then(JsonValue::as_i64),
            Some(totals.solves as i64)
        );
        let solves = report
            .extra
            .get("solves")
            .and_then(JsonValue::as_array)
            .expect("records");
        assert_eq!(solves.len(), outcome.solves.len());
    }
}
