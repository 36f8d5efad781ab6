//! Sequential-vs-parallel speedup of the hottest data-parallel kernels:
//! a capped Conjugate Gradient solve on a netlist-shaped system (its
//! sparse multiply is sequential; its dense-vector helpers split above
//! `PAR_MIN_LEN`) and the full feasibility projection `P_C`, each at three
//! instance sizes. Both sizes are the design's cell count.
//!
//! For every kernel/size pair the harness times the exact sequential path
//! (`--threads 1`) and the parallel path, checks the outputs are
//! bit-identical (the `complx-par` determinism contract), and reports the
//! speedup. On a single-core host the parallel path simply measures the
//! runtime's dispatch overhead (speedup ≈ 1 or slightly below).
//!
//! Usage: `cargo run --release -p complx-bench --bin par_kernels
//! [--scale N] [--threads N]`. Writes `target/paper/par_kernels.txt` and
//! `target/paper/par_kernels.json`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use std::time::Instant;

use complx_bench::report::Table;
use complx_bench::{artifact_dir, scale_arg};
use complx_netlist::generator::GeneratorConfig;
use complx_netlist::Design;
use complx_obs::JsonValue;
use complx_par as par;
use complx_sparse::{CgSolver, CsrMatrix, TripletMatrix};
use complx_spread::FeasibilityProjection;

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

/// A placement-shaped SPD matrix over `design`'s cells: each net stamps
/// Bound2Bound-like springs from its first and last pin to every other pin
/// (weight `1/(k−1)` for `k` pins), columns are cell ids, and every cell
/// gets a unit anchor. The rows are as short and ragged, and the gathers as
/// scattered, as in the assembled primal system.
fn netlist_spd(design: &Design) -> CsrMatrix {
    let n = design.num_cells();
    let mut t = TripletMatrix::new(n);
    for i in 0..n {
        t.add_diagonal(i, 1.0);
    }
    for net in design.net_ids() {
        let mut cells: Vec<usize> = design
            .net_pins(net)
            .iter()
            .map(|p| p.cell.index())
            .collect();
        cells.dedup();
        let [first, .., last] = cells[..] else {
            continue;
        };
        let w = 1.0 / (cells.len() - 1) as f64;
        for (k, &c) in cells.iter().enumerate() {
            if c != first {
                t.add_connection(first, c, w);
            }
            if c != last && k != 0 {
                t.add_connection(last, c, w);
            }
        }
    }
    t.to_csr()
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

/// CG iterations per timed solve: enough to reach the steady loop, few
/// enough that the largest case stays fast.
const CG_ITERATIONS: usize = 40;

fn bench_cg(cells: usize, threads: usize) -> Sample {
    let design = GeneratorConfig::ispd2005_like("parbench", 31, cells).generate();
    let a = netlist_spd(&design);
    let n = a.dim();
    let b: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.5 - 3.0).collect();
    let cg = CgSolver::new()
        .with_tolerance(0.0)
        .with_max_iterations(CG_ITERATIONS);
    let solve = || {
        let mut x = vec![0.0; n];
        cg.solve(&a, &b, &mut x, None);
        x
    };
    let reps = (200_000_000 / (a.nnz() * CG_ITERATIONS).max(1)).clamp(3, 50);
    let seq = {
        let _g = par::with_threads(1);
        best_of(reps, || {
            std::hint::black_box(solve());
        })
    };
    let par_t = {
        let _g = par::with_threads(threads);
        best_of(reps, || {
            std::hint::black_box(solve());
        })
    };
    let x_seq = {
        let _g = par::with_threads(1);
        solve()
    };
    let x_par = {
        let _g = par::with_threads(threads);
        solve()
    };
    for i in 0..n {
        assert_eq!(
            x_seq[i].to_bits(),
            x_par[i].to_bits(),
            "cg determinism violated at row {i}"
        );
    }
    Sample {
        kernel: "cg",
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
        eprintln!("[par_kernels] cg cells = {cells}");
        samples.push(bench_cg(cells, threads));
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

    let dir = artifact_dir();
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
