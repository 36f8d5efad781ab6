//! Microbenchmarks of the placer's computational kernels: CG solves,
//! quadratic-system minimization, feasibility projection, legalization and
//! detailed placement. These bound the per-iteration cost that Section S3
//! argues is near-linear.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use complx_legalize::{DetailedPlacer, Legalizer};
use complx_netlist::generator::GeneratorConfig;
use complx_sparse::{CgScratch, CgSolver, TripletMatrix};
use complx_spread::FeasibilityProjection;
use complx_wirelength::{InterconnectModel, QuadraticModel};

fn bench_cg(c: &mut Criterion) {
    // 1-D Poisson system, n = 5000.
    let n = 5000;
    let mut t = TripletMatrix::new(n);
    for i in 0..n {
        t.add(i, i, 2.0);
        if i + 1 < n {
            t.add_connection(i, i + 1, 1.0);
        }
    }
    let a = t.to_csr();
    let b = vec![1.0; n];
    let mut scratch = CgScratch::default();
    c.bench_function("cg_poisson_5000", |bench| {
        bench.iter(|| {
            let mut x = vec![0.0; n];
            let stats =
                CgSolver::new()
                    .with_tolerance(1e-6)
                    .solve(&a, &b, &mut x, &mut scratch, None);
            black_box(stats.iterations)
        })
    });
}

fn bench_quadratic_minimize(c: &mut Criterion) {
    let design = GeneratorConfig::ispd2005_like("bench_q", 7, 3000).generate();
    let model = QuadraticModel::default();
    let start = design.initial_placement();
    c.bench_function("quadratic_minimize_3000", |bench| {
        bench.iter_batched(
            || start.clone(),
            |mut p| {
                model.minimize(&design, &mut p, None, None);
                black_box(p.xs()[0])
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_projection(c: &mut Criterion) {
    let design = GeneratorConfig::ispd2005_like("bench_p", 7, 3000).generate();
    let mut p = design.initial_placement();
    QuadraticModel::default().minimize(&design, &mut p, None, None);
    let proj = FeasibilityProjection::default();
    c.bench_function("feasibility_projection_3000", |bench| {
        bench.iter(|| black_box(proj.project(&design, &p).distance_l1))
    });
}

fn bench_legalization(c: &mut Criterion) {
    let design = GeneratorConfig::ispd2005_like("bench_l", 7, 3000).generate();
    let mut p = design.initial_placement();
    QuadraticModel::default().minimize(&design, &mut p, None, None);
    let spread = FeasibilityProjection::default()
        .project(&design, &p)
        .placement;
    c.bench_function("abacus_legalize_3000", |bench| {
        bench.iter(|| black_box(Legalizer::default().legalize(&design, &spread).displacement))
    });
    let legal = Legalizer::default().legalize(&design, &spread).placement;
    c.bench_function("detailed_place_3000", |bench| {
        bench.iter_batched(
            || legal.clone(),
            |p| {
                black_box(
                    DetailedPlacer {
                        max_passes: 1,
                        ..DetailedPlacer::default()
                    }
                    .improve(&design, p, None)
                    .stats
                    .moves,
                )
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_cg, bench_quadratic_minimize, bench_projection, bench_legalization
}
criterion_main!(kernels);
