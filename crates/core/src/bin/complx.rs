//! `complx` — command-line global placer for Bookshelf designs.
//!
//! ```text
//! complx <design.aux> [options]
//!
//! options:
//!   -o, --out <dir>        output directory for the solution bundle
//!                          (default: alongside the input, suffix `.complx`)
//!   --target-density <γ>   override the density target (0 < γ ≤ 1)
//!   --max-iterations <n>   global placement iteration cap (default 100)
//!   --finest-grid          use the finest P_C grid in all iterations
//!   --pc-dp                run detailed placement after every projection
//!   --simpl                use the SimPL special-case configuration
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

use std::path::PathBuf;
use std::process::ExitCode;

use complx_netlist::bookshelf;
use complx_obs::{JsonlSink, Level, Sink, StderrLogger, TimelineSink};
use complx_place::{
    load_checkpoint, CheckpointConfig, CkptError, ComplxPlacer, FaultKind, FaultPlan, Interconnect,
    PlaceError, PlacerConfig, ProjectionBackend,
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
    finest_grid: bool,
    pc_dp: bool,
    simpl: bool,
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

fn usage() -> &'static str {
    "usage: complx <design.aux> [-o DIR] [--target-density G] [--max-iterations N]\n\
     [--finest-grid] [--pc-dp] [--simpl] [--projection geometric|electro]\n\
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
        finest_grid: false,
        pc_dp: false,
        simpl: false,
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
                opts.max_iterations = Some(v);
            }
            "--finest-grid" => opts.finest_grid = true,
            "--pc-dp" => opts.pc_dp = true,
            "--simpl" => opts.simpl = true,
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

    let mut cfg = if opts.simpl {
        PlacerConfig::simpl()
    } else if opts.finest_grid {
        PlacerConfig::finest_grid()
    } else if opts.pc_dp {
        PlacerConfig::projection_with_detail()
    } else {
        PlacerConfig::default()
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
    let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
    if opts.log_level > Level::Off {
        sinks.push(Box::new(StderrLogger::new(opts.log_level)));
    }
    if let Some(events_path) = &opts.events {
        match JsonlSink::create(events_path) {
            Ok(s) => sinks.push(Box::new(s)),
            Err(e) => {
                let e = PlaceError::from(e);
                eprintln!(
                    "complx: error[{}]: cannot open events stream {}: {e}",
                    e.kind(),
                    events_path.display()
                );
                return ExitCode::from(e.exit_code());
            }
        }
    }
    let timeline = opts.profile.as_ref().map(|_| {
        let (sink, handle) = TimelineSink::new();
        sinks.push(Box::new(sink) as Box<dyn Sink>);
        handle
    });
    let instrument =
        !sinks.is_empty() || opts.report.is_some() || opts.profile.is_some() || opts.profile_mem;
    if instrument {
        complx_obs::install(sinks);
    }

    let started = std::time::Instant::now();
    let placer = ComplxPlacer::new(cfg.clone());
    let placed = match &opts.resume {
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
                placer.resume(&design, checkpoint)
            }
            Err(CkptError::Io(e)) => Err(PlaceError::from(e)),
            Err(e) => Err(PlaceError::CheckpointMismatch {
                reason: format!("{}: {e}", resume_path.display()),
            }),
        },
        None => placer.place(&design),
    };
    let outcome = match placed {
        Ok(o) => o,
        Err(e) => {
            // Flush the event stream so a failed run still leaves a record.
            if instrument {
                drop(complx_obs::harvest());
            }
            eprintln!("complx: error[{}]: {e}", e.kind());
            return ExitCode::from(e.exit_code());
        }
    };
    let total_seconds = started.elapsed().as_secs_f64();
    let harvest = if instrument {
        complx_obs::harvest()
    } else {
        None
    };
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
    let violations = complx_place::check::verify_placement(
        &design,
        &outcome.legal,
        &complx_place::check::AcceptanceCriteria::default(),
    );
    if violations.is_empty() {
        if !opts.quiet {
            eprintln!("complx: placement accepted (legal, constraints satisfied)");
        }
    } else {
        for v in &violations {
            eprintln!("complx: violation: {v}");
        }
    }

    if let Some(trace_path) = &opts.trace {
        let serialized = if trace_path.extension().is_some_and(|x| x == "json") {
            outcome.trace.to_json()
        } else {
            outcome.trace.to_csv()
        };
        if let Err(e) = complx_obs::write_atomic(trace_path, serialized.as_bytes()) {
            let e = PlaceError::from(e);
            eprintln!(
                "complx: error[{}]: cannot write trace {}: {e}",
                e.kind(),
                trace_path.display()
            );
            return ExitCode::from(e.exit_code());
        }
    }

    if let Some(profile_path) = &opts.profile {
        let folded = harvest
            .as_ref()
            .map(complx_obs::prof::collapsed_stacks)
            .unwrap_or_default();
        if let Err(e) = complx_obs::write_atomic(profile_path, folded.as_bytes()) {
            let e = PlaceError::from(e);
            eprintln!(
                "complx: error[{}]: cannot write profile {}: {e}",
                e.kind(),
                profile_path.display()
            );
            return ExitCode::from(e.exit_code());
        }
        if !opts.quiet {
            eprintln!(
                "complx: wrote collapsed-stack profile {}",
                profile_path.display()
            );
        }
    }

    if instrument {
        let mut report =
            complx_place::run_report(&design, Some(&cfg), &outcome, harvest, total_seconds);
        if let Some(handle) = &timeline {
            complx_place::attach_extra(&mut report, "timeline", handle.to_json());
        }
        if !opts.quiet {
            eprint!("{}", report.summary_table());
        }
        if let Some(report_path) = &opts.report {
            if let Err(e) =
                complx_obs::write_atomic(report_path, report.to_json_string().as_bytes())
            {
                let e = PlaceError::from(e);
                eprintln!(
                    "complx: error[{}]: cannot write report {}: {e}",
                    e.kind(),
                    report_path.display()
                );
                return ExitCode::from(e.exit_code());
            }
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
