//! `complx` — command-line global placer for Bookshelf designs.
//!
//! ```text
//! complx <design.aux> [options]
//!
//! options:
//!   -o, --out <dir>        output directory for the solution bundle
//!                          (default: alongside the input, suffix `.complx`)
//!   --target-density <γ>   override the density target (0 < γ ≤ 1)
//!   --max-iterations <n>   global placement iteration cap (default 100,
//!                          at least 1)
//!   --finest-grid          use the finest P_C grid in all iterations
//!   --pc-dp                run detailed placement after every projection
//!   --simpl                use the SimPL special-case configuration
//!                          (these three each select a preset of
//!                          `PlacerConfig::preset`; pass at most one)
//!   --projection <b>       feasibility-projection backend: `geometric`
//!                          (SimPL-style look-ahead legalization, the
//!                          default) or `electro` (FFT electrostatic
//!                          density equalization)
//!   --lse [gamma_rows]     log-sum-exp interconnect model (default γ = 4)
//!   --no-detail            skip final legalization refinement
//!   --max-seconds <s>      wall-clock budget; the placer exits gracefully
//!                          with its best feasible iterate when it expires
//!   --max-recoveries <n>   divergence-recovery attempts before giving up
//!   --checkpoint <file>    periodically write a crash-safe checkpoint of
//!                          the λ-loop state (atomic tmp+rename, previous
//!                          generation kept at `<file>.prev`)
//!   --checkpoint-every <k> checkpoint cadence in iterations (default 5;
//!                          requires --checkpoint)
//!   --resume <file>        restore λ-loop state from a checkpoint and
//!                          continue; the design and configuration must
//!                          match the checkpointed run, and the resumed
//!                          run's result is byte-identical to an
//!                          uninterrupted one
//!   --fault-kill-at <k>    fault injection: simulate a crash (SIGKILL) at
//!                          the top of iteration k
//!   --threads <n>          worker threads for parallel kernels (default:
//!                          available cores, or the COMPLX_THREADS
//!                          environment variable; `--threads 1` runs the
//!                          exact sequential path). Results are
//!                          bit-identical for every thread count.
//!   --trace <file>         write the per-iteration convergence trace;
//!                          a `.json` extension selects JSON, anything
//!                          else CSV
//!   --report <file.json>   write the end-of-run report manifest
//!   --events <file.jsonl>  stream instrumentation events (one JSON
//!                          object per line) while placing
//!   --profile <file>       write a collapsed-stack ("folded") span-time
//!                          profile consumable by flamegraph tooling, and
//!                          add a per-iteration `extra.timeline` section
//!                          to the report (iteration → phase durations,
//!                          CG iterations, λ, HPWL)
//!   --profile-mem          arm the tracking allocator: charge allocation
//!                          counts/bytes and the live-byte high-water
//!                          mark to span paths, reported as
//!                          `extra.memory` and in the summary table.
//!                          Profiling observes and never perturbs: the
//!                          solution and trace are byte-identical with
//!                          the flags on or off
//!   --log-level <level>    stderr instrumentation verbosity:
//!                          off | info | debug (default off)
//!   -q, --quiet            suppress progress output
//! ```
//!
//! On failure the process prints a one-line structured error
//! (`complx: error[<kind>]: <message>`) and exits with a per-variant code:
//! `1` usage/input errors, `3` invalid design, `4` solver breakdown,
//! `5` diverged, `6` timed out, `7` i/o, `8` cancelled,
//! `9` checkpoint mismatch, `10` killed by injected fault.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use complx_netlist::{bookshelf, Design, Placement};
use complx_obs::{JsonlSink, Level, Sink, StderrLogger, TimelineSink};
use complx_oracle::Violation;
use complx_place::{
    load_checkpoint, CheckpointConfig, CkptError, FaultKind, FaultPlan, Interconnect, PlaceError,
    PlacerConfig, ProjectionBackend, SolveArtifacts, SolveRequest,
};

/// The tracking allocator behind `--profile-mem`. Until that flag arms
/// it, every allocation costs one relaxed atomic load over the system
/// allocator — and placement results are bit-identical either way.
#[global_allocator]
static ALLOC: complx_obs::prof::CountingAlloc = complx_obs::prof::CountingAlloc;

struct Options {
    aux: PathBuf,
    out: Option<PathBuf>,
    target_density: Option<f64>,
    max_iterations: Option<usize>,
    /// The preset flag given, and the [`PlacerConfig::preset`] it names.
    preset: Option<(&'static str, &'static str)>,
    projection: Option<ProjectionBackend>,
    lse: Option<f64>,
    no_detail: bool,
    max_seconds: Option<f64>,
    max_recoveries: Option<usize>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: Option<usize>,
    resume: Option<PathBuf>,
    fault_kill_at: Option<usize>,
    threads: Option<usize>,
    trace: Option<PathBuf>,
    report: Option<PathBuf>,
    events: Option<PathBuf>,
    profile: Option<PathBuf>,
    profile_mem: bool,
    log_level: Level,
    quiet: bool,
}

/// Acceptance tolerance: overlap in area units; core breach, row
/// misalignment and region/alignment slack in length units.
const ACCEPT_TOL: f64 = 1e-6;

/// Density overflow above this percentage rejects a placement.
const OVERFLOW_LIMIT_PERCENT: f64 = 15.0;

/// The acceptance verdict on the legal placement: the independent oracle's
/// legality, region and alignment audit, plus the density overflow limit.
/// Empty means accepted.
fn acceptance_violations(design: &Design, legal: &Placement) -> Vec<Violation> {
    let (_, mut violations) = complx_oracle::check_solution(design, legal, ACCEPT_TOL);
    let overflow = complx_oracle::overflow_percent(design, legal);
    if overflow > OVERFLOW_LIMIT_PERCENT {
        violations.push(Violation {
            code: "solution-overflow",
            message: format!(
                "density overflow {overflow:.2}% exceeds limit {OVERFLOW_LIMIT_PERCENT:.2}%"
            ),
        });
    }
    violations
}

/// The flags that each select a whole configuration, with the
/// [`PlacerConfig::preset`] name they select.
const PRESET_FLAGS: [(&str, &str); 3] = [
    ("--simpl", "simpl"),
    ("--finest-grid", "finest-grid"),
    ("--pc-dp", "detail"),
];

/// Prints the one-line structured error (`complx: error[<kind>]:
/// <context><message>`) and returns the variant's exit code.
fn fail(e: &PlaceError, context: &str) -> ExitCode {
    eprintln!("complx: error[{}]: {context}{e}", e.kind());
    ExitCode::from(e.exit_code())
}

/// Writes one output artifact atomically; a failure is a structured `io`
/// error naming the artifact.
fn write_artifact(what: &str, path: &Path, bytes: &[u8]) -> Result<(), ExitCode> {
    complx_obs::write_atomic(path, bytes).map_err(|e| {
        let context = format!("cannot write {what} {}: ", path.display());
        fail(&PlaceError::from(e), &context)
    })
}

fn usage() -> &'static str {
    "usage: complx <design.aux> [-o DIR] [--target-density G] [--max-iterations N]\n\
     [--finest-grid | --pc-dp | --simpl] [--projection geometric|electro]\n\
     [--lse [GAMMA_ROWS]] [--no-detail]\n\
     [--max-seconds S] [--max-recoveries N] [--checkpoint FILE [--checkpoint-every K]]\n\
     [--resume FILE] [--fault-kill-at K] [--threads N] [--trace FILE[.json|.csv]]\n\
     [--report FILE.json] [--events FILE.jsonl] [--profile FILE] [--profile-mem]\n\
     [--log-level off|info|debug] [-q]"
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1).peekable();
    let mut opts = Options {
        aux: PathBuf::new(),
        out: None,
        target_density: None,
        max_iterations: None,
        preset: None,
        projection: None,
        lse: None,
        no_detail: false,
        max_seconds: None,
        max_recoveries: None,
        checkpoint: None,
        checkpoint_every: None,
        resume: None,
        fault_kill_at: None,
        threads: None,
        trace: None,
        report: None,
        events: None,
        profile: None,
        profile_mem: false,
        log_level: Level::Off,
        quiet: false,
    };
    let mut positional = Vec::new();
    while let Some(a) = args.next() {
        if let Some(&chosen) = PRESET_FLAGS.iter().find(|(flag, _)| *flag == a) {
            match opts.preset.replace(chosen) {
                Some((prev, _)) if prev != chosen.0 => {
                    return Err(format!(
                        "{prev} and {} select different presets; pass at most one\n{}",
                        chosen.0,
                        usage()
                    ))
                }
                _ => continue,
            }
        }
        match a.as_str() {
            "-o" | "--out" => {
                opts.out = Some(PathBuf::from(args.next().ok_or("missing value for --out")?))
            }
            "--target-density" => {
                let v: f64 = args
                    .next()
                    .ok_or("missing value for --target-density")?
                    .parse()
                    .map_err(|_| "bad --target-density value")?;
                opts.target_density = Some(v);
            }
            "--max-iterations" => {
                let v: usize = args
                    .next()
                    .ok_or("missing value for --max-iterations")?
                    .parse()
                    .map_err(|_| "bad --max-iterations value")?;
                if v == 0 {
                    return Err("--max-iterations must be at least 1".into());
                }
                opts.max_iterations = Some(v);
            }
            "--projection" => {
                let v = args.next().ok_or("missing value for --projection")?;
                opts.projection = Some(v.parse()?);
            }
            "--lse" => {
                // Optional numeric argument: anything that parses as a
                // number is claimed (and must be a valid smoothing radius);
                // a following flag like `--simpl` falls through to the
                // default. `--lse -3` must not silently produce a
                // nonsensical negative γ.
                let gamma = match args.peek().and_then(|v| v.parse::<f64>().ok()) {
                    Some(g) => {
                        args.next();
                        if !g.is_finite() || g <= 0.0 {
                            return Err(format!(
                                "--lse smoothing radius must be a finite positive number of row heights (got {g})"
                            ));
                        }
                        g
                    }
                    None => 4.0,
                };
                opts.lse = Some(gamma);
            }
            "--no-detail" => opts.no_detail = true,
            "--max-seconds" => {
                let v: f64 = args
                    .next()
                    .ok_or("missing value for --max-seconds")?
                    .parse()
                    .map_err(|_| "bad --max-seconds value")?;
                if !v.is_finite() || v <= 0.0 {
                    return Err("--max-seconds must be a positive number".into());
                }
                opts.max_seconds = Some(v);
            }
            "--max-recoveries" => {
                let v: usize = args
                    .next()
                    .ok_or("missing value for --max-recoveries")?
                    .parse()
                    .map_err(|_| "bad --max-recoveries value")?;
                opts.max_recoveries = Some(v);
            }
            "--checkpoint" => {
                opts.checkpoint = Some(PathBuf::from(
                    args.next().ok_or("missing value for --checkpoint")?,
                ))
            }
            "--checkpoint-every" => {
                let v: usize = args
                    .next()
                    .ok_or("missing value for --checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every value")?;
                if v == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                opts.checkpoint_every = Some(v);
            }
            "--resume" => {
                opts.resume = Some(PathBuf::from(
                    args.next().ok_or("missing value for --resume")?,
                ))
            }
            "--fault-kill-at" => {
                let v: usize = args
                    .next()
                    .ok_or("missing value for --fault-kill-at")?
                    .parse()
                    .map_err(|_| "bad --fault-kill-at value")?;
                if v == 0 {
                    return Err(
                        "--fault-kill-at must be at least 1 (iterations are 1-based)".into(),
                    );
                }
                opts.fault_kill_at = Some(v);
            }
            "--threads" => {
                let v: usize = args
                    .next()
                    .ok_or("missing value for --threads")?
                    .parse()
                    .map_err(|_| "bad --threads value")?;
                if v == 0 {
                    return Err("--threads must be at least 1".into());
                }
                opts.threads = Some(v);
            }
            "--trace" => {
                opts.trace = Some(PathBuf::from(
                    args.next().ok_or("missing value for --trace")?,
                ))
            }
            "--report" => {
                opts.report = Some(PathBuf::from(
                    args.next().ok_or("missing value for --report")?,
                ))
            }
            "--events" => {
                opts.events = Some(PathBuf::from(
                    args.next().ok_or("missing value for --events")?,
                ))
            }
            "--profile" => {
                opts.profile = Some(PathBuf::from(
                    args.next().ok_or("missing value for --profile")?,
                ))
            }
            "--profile-mem" => opts.profile_mem = true,
            "--log-level" => {
                opts.log_level = args
                    .next()
                    .ok_or("missing value for --log-level")?
                    .parse()?;
            }
            "-q" | "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Err(usage().to_string()),
            other if !other.starts_with('-') => positional.push(PathBuf::from(other)),
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    if opts.checkpoint_every.is_some() && opts.checkpoint.is_none() {
        return Err("--checkpoint-every requires --checkpoint".into());
    }
    match positional.len() {
        1 => {
            opts.aux = positional.into_iter().next().expect("checked length");
            Ok(opts)
        }
        0 => Err(format!("missing input .aux file\n{}", usage())),
        _ => Err(format!("expected exactly one input file\n{}", usage())),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(n) = opts.threads {
        complx_par::set_threads(n);
    }

    // Arm memory profiling before the design loads so parse/bootstrap
    // allocations are part of the accounting window.
    if opts.profile_mem {
        complx_obs::prof::set_mem_profiling(true);
    }

    let bundle = match bookshelf::read_aux(&opts.aux) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("complx: cannot read {}: {e}", opts.aux.display());
            return ExitCode::FAILURE;
        }
    };
    let mut design = bundle.design;
    if let Some(gamma) = opts.target_density {
        // Derive a design with the overridden density (Design is immutable).
        let mut b = complx_netlist::DesignBuilder::from_design(&design);
        design = match b.set_target_density(gamma).and_then(|()| b.build()) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("complx: {e}");
                return ExitCode::FAILURE;
            }
        };
    }

    let preset = opts.preset.map_or("default", |(_, name)| name);
    let mut cfg = match PlacerConfig::preset(preset) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("complx: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = opts.max_iterations {
        cfg.max_iterations = n;
    }
    if let Some(backend) = opts.projection {
        cfg.projection = backend;
    }
    if let Some(gamma_rows) = opts.lse {
        cfg.interconnect = Interconnect::LogSumExp { gamma_rows };
    }
    if opts.no_detail {
        cfg.final_detail = false;
    }
    cfg.time_budget = opts.max_seconds;
    if let Some(n) = opts.max_recoveries {
        cfg.max_recoveries = n;
    }
    if let Some(path) = &opts.checkpoint {
        cfg.checkpoint = Some(CheckpointConfig::new(
            path,
            opts.checkpoint_every.unwrap_or(5),
        ));
    }
    if let Some(k) = opts.fault_kill_at {
        cfg.faults = Some(FaultPlan::new().inject(k, FaultKind::Kill));
    }

    if !opts.quiet {
        eprintln!(
            "complx: placing `{}` ({} cells, {} nets, {} pins)",
            design.name(),
            design.num_cells(),
            design.num_nets(),
            design.num_pins()
        );
        for issue in complx_netlist::validate::validate(&design).iter().take(10) {
            eprintln!("complx: warning: {issue}");
        }
    }
    let resume = match &opts.resume {
        None => None,
        Some(resume_path) => match load_checkpoint(resume_path) {
            Ok((checkpoint, used_prev)) => {
                if !opts.quiet {
                    if used_prev {
                        eprintln!(
                            "complx: warning: {} unreadable or corrupt; resumed from previous generation {}.prev",
                            resume_path.display(),
                            resume_path.display()
                        );
                    }
                    eprintln!(
                        "complx: resuming from {} (iteration {}, generation {})",
                        resume_path.display(),
                        checkpoint.state.iteration,
                        checkpoint.generation
                    );
                }
                Some(checkpoint)
            }
            Err(CkptError::Io(e)) => return fail(&PlaceError::from(e), ""),
            Err(e) => {
                let reason = format!("{}: {e}", resume_path.display());
                return fail(&PlaceError::CheckpointMismatch { reason }, "");
            }
        },
    };
    let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
    if opts.log_level > Level::Off {
        sinks.push(Box::new(StderrLogger::new(opts.log_level)));
    }
    if let Some(events_path) = &opts.events {
        match JsonlSink::create(events_path) {
            Ok(s) => sinks.push(Box::new(s)),
            Err(e) => {
                let context = format!("cannot open events stream {}: ", events_path.display());
                return fail(&PlaceError::from(e), &context);
            }
        }
    }
    let timeline = opts.profile.as_ref().map(|_| {
        let (sink, handle) = TimelineSink::new();
        sinks.push(Box::new(sink) as Box<dyn Sink>);
        handle
    });

    let mut request = SolveRequest::new(cfg);
    request.sinks = sinks;
    request.resume = resume;
    let SolveArtifacts {
        outcome,
        mut report,
    } = match complx_place::solve(&design, request) {
        Ok(arts) => arts,
        Err(e) => return fail(&e, ""),
    };
    if let Some(handle) = &timeline {
        complx_place::attach_extra(&mut report, "timeline", handle.to_json());
    }
    if !opts.quiet {
        eprintln!(
            "complx: {} iterations (stop: {}{}), λ = {:.4}, global {:.1}s + detail {:.1}s",
            outcome.iterations,
            outcome.stop_reason,
            if outcome.recoveries > 0 {
                format!(", {} recoveries", outcome.recoveries)
            } else {
                String::new()
            },
            outcome.final_lambda,
            outcome.global_seconds,
            outcome.detail_seconds
        );
    }
    println!("{}", outcome.metrics);
    let violations = acceptance_violations(&design, &outcome.legal);
    if violations.is_empty() {
        if !opts.quiet {
            eprintln!("complx: placement accepted (legal, constraints satisfied)");
        }
    } else {
        for v in &violations {
            eprintln!("complx: {v}");
        }
    }

    if let Some(trace_path) = &opts.trace {
        let serialized = if trace_path.extension().is_some_and(|x| x == "json") {
            outcome.trace.to_json()
        } else {
            outcome.trace.to_csv()
        };
        if let Err(code) = write_artifact("trace", trace_path, serialized.as_bytes()) {
            return code;
        }
    }

    if let Some(profile_path) = &opts.profile {
        let folded = complx_obs::prof::collapsed_stacks(&report.phases);
        if let Err(code) = write_artifact("profile", profile_path, folded.as_bytes()) {
            return code;
        }
        if !opts.quiet {
            eprintln!(
                "complx: wrote collapsed-stack profile {}",
                profile_path.display()
            );
        }
    }

    if !opts.quiet {
        eprint!("{}", report.summary_table());
    }
    if let Some(report_path) = &opts.report {
        let json = report.to_json_string();
        if let Err(code) = write_artifact("report", report_path, json.as_bytes()) {
            return code;
        }
    }

    let out_dir = opts.out.unwrap_or_else(|| {
        let mut d = opts.aux.clone();
        d.set_extension("complx");
        d
    });
    match bookshelf::write_bundle(&design, &outcome.legal, &out_dir) {
        Ok(aux) => {
            if !opts.quiet {
                eprintln!("complx: wrote solution {}", aux.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            let kind = PlaceError::from(std::io::Error::other(e.to_string())).kind();
            eprintln!("complx: error[{kind}]: cannot write solution: {e}");
            ExitCode::from(7)
        }
    }
}
