//! Sequential-vs-parallel speedup of the hottest data-parallel kernels:
//! the anchored primal step `QuadraticModel::minimize` (its x and y
//! systems assemble and solve concurrently) and the full feasibility
//! projection `P_C` (its bisection spreads large halves concurrently),
//! each at three instance sizes. Every size is the design's cell count.
//! The CG solve itself is sequential (its multiply and its dense-vector
//! helpers both measured below 1× split; DESIGN.md §11), so it has no
//! row here.
//!
//! For every kernel/size pair the harness times the exact sequential path
//! (`--threads 1`) and the parallel path, checks the outputs are
//! bit-identical (the `complx-par` determinism contract), and reports the
//! speedup. On a single-core host the parallel path simply measures the
//! runtime's dispatch overhead (speedup ≈ 1 or slightly below).
//!
//! Usage: `cargo run --release -p complx-bench --bin par_kernels
//! [--scale N] [--threads N]`; the thread count defaults to the host's
//! available parallelism (at least 2). Writes `target/paper/par_kernels.txt` and
//! `target/paper/par_kernels.json`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use std::time::Instant;

use complx_bench::report::Table;
use complx_bench::{artifact_dir, scale_arg};
use complx_netlist::generator::GeneratorConfig;
use complx_obs::JsonValue;
use complx_par as par;
use complx_sparse::CgSolver;
use complx_spread::FeasibilityProjection;
use complx_wirelength::{Anchors, InterconnectModel, NetModel, QuadraticModel};

fn threads_arg() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    par::available().max(2)
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct Sample {
    kernel: &'static str,
    size: usize,
    seq_seconds: f64,
    par_seconds: f64,
}

/// One anchored primal step of the λ loop: Bound2Bound linearized at a
/// wirelength-driven placement, anchored to its projection, and solved
/// with the placer's default CG tolerance and cap.
fn bench_primal(cells: usize, threads: usize) -> Sample {
    let design = GeneratorConfig::ispd2005_like("parbench", 37, cells).generate();
    let model = QuadraticModel::new(NetModel::Bound2Bound)
        .with_solver(CgSolver::new().with_tolerance(1e-5).with_max_iterations(50));
    let mut start = design.initial_placement();
    model.minimize(&design, &mut start, None, None);
    let targets = FeasibilityProjection::default()
        .project(&design, &start)
        .placement;
    let anchors = Anchors::uniform(&design, targets, 0.05);
    let step = || {
        let mut pl = start.clone();
        let stats = model.minimize(&design, &mut pl, Some(&anchors), None);
        (pl, stats)
    };
    let seq = {
        let _g = par::with_threads(1);
        best_of(3, || {
            std::hint::black_box(step());
        })
    };
    let par_t = {
        let _g = par::with_threads(threads);
        best_of(3, || {
            std::hint::black_box(step());
        })
    };
    let (a, sa) = {
        let _g = par::with_threads(1);
        step()
    };
    let (b, sb) = {
        let _g = par::with_threads(threads);
        step()
    };
    assert_eq!(a, b, "primal determinism violated at {cells} cells");
    assert_eq!(
        (
            sa.iterations_x,
            sa.iterations_y,
            sa.relative_residual.to_bits()
        ),
        (
            sb.iterations_x,
            sb.iterations_y,
            sb.relative_residual.to_bits()
        ),
        "primal solver statistics differ at {cells} cells"
    );
    Sample {
        kernel: "primal",
        size: cells,
        seq_seconds: seq,
        par_seconds: par_t,
    }
}

fn bench_projection(cells: usize, threads: usize) -> Sample {
    let design = GeneratorConfig::ispd2005_like("parbench", 29, cells).generate();
    let placement = design.initial_placement();
    let proj = FeasibilityProjection::default();
    let seq = {
        let _g = par::with_threads(1);
        best_of(3, || {
            std::hint::black_box(proj.project(&design, &placement));
        })
    };
    let par_t = {
        let _g = par::with_threads(threads);
        best_of(3, || {
            std::hint::black_box(proj.project(&design, &placement));
        })
    };
    let a = {
        let _g = par::with_threads(1);
        proj.project(&design, &placement).placement
    };
    let b = {
        let _g = par::with_threads(threads);
        proj.project(&design, &placement).placement
    };
    assert_eq!(a, b, "projection determinism violated at {cells} cells");
    Sample {
        kernel: "projection",
        size: cells,
        seq_seconds: seq,
        par_seconds: par_t,
    }
}

fn main() {
    let scale = scale_arg().max(1);
    let threads = threads_arg();
    eprintln!(
        "[par_kernels] {threads} threads ({} available), scale {scale}",
        par::available()
    );

    let mut samples = Vec::new();
    for cells in [20_000, 80_000, 320_000] {
        let cells = (cells / scale).max(200);
        eprintln!("[par_kernels] primal cells = {cells}");
        samples.push(bench_primal(cells, threads));
    }
    for cells in [2_000, 8_000, 24_000] {
        let cells = (cells / scale).max(200);
        eprintln!("[par_kernels] projection cells = {cells}");
        samples.push(bench_projection(cells, threads));
    }

    let mut table = Table::new(vec!["kernel", "size", "seq ms", "par ms", "speedup"]);
    let mut kernels = Vec::new();
    for s in &samples {
        let speedup = s.seq_seconds / s.par_seconds.max(1e-12);
        table.add_row(vec![
            s.kernel.to_string(),
            format!("{}", s.size),
            format!("{:.3}", s.seq_seconds * 1e3),
            format!("{:.3}", s.par_seconds * 1e3),
            format!("{speedup:.2}x"),
        ]);
        kernels.push(JsonValue::object(vec![
            ("kernel", s.kernel.into()),
            ("size", s.size.into()),
            ("seq_seconds", s.seq_seconds.into()),
            ("par_seconds", s.par_seconds.into()),
            ("speedup", speedup.into()),
        ]));
    }
    let rendered = table.render();
    println!("{rendered}");

    let dir = artifact_dir().expect("artifact directory must be creatable");
    std::fs::write(dir.join("par_kernels.txt"), &rendered).expect("write table");
    let doc = JsonValue::object(vec![
        ("threads", threads.into()),
        ("available", par::available().into()),
        ("scale", scale.into()),
        ("kernels", JsonValue::Arr(kernels)),
    ]);
    std::fs::write(dir.join("par_kernels.json"), doc.to_json_string()).expect("write json");
    eprintln!(
        "[par_kernels] wrote {}",
        dir.join("par_kernels.txt").display()
    );
}
