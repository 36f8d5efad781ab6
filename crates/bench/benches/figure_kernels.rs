//! Criterion counterparts of the figure experiments: the per-iteration
//! pieces whose scaling behavior Figures 1/3 and Section S3 discuss —
//! trace-producing iterations at three sizes (near-linear growth expected),
//! self-consistency checks (§S2), the timing-analysis pass behind Figure 5,
//! region-constrained placement (Figure 4), and the shredding + rendering
//! path of Figure 2. (Figure 1 is a full traced placement run, benchmarked
//! end-to-end as `table1/complx_default` in `table1_configs.rs`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use complx_netlist::generator::GeneratorConfig;
use complx_place::{ComplxPlacer, PlacerConfig};
use complx_spread::self_consistency::check_consistency;
use complx_spread::FeasibilityProjection;
use complx_timing::{DelayModel, TimingGraph};
use complx_wirelength::{InterconnectModel, QuadraticModel};

/// Figure 3 / §S3: one full global-placement iteration at growing sizes.
fn bench_iteration_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_iteration_scaling");
    group.sample_size(10);
    for n in [1000usize, 2000, 4000] {
        let design = GeneratorConfig::ispd2005_like("f3", 9, n).generate();
        let model = QuadraticModel::default();
        let mut p = design.initial_placement();
        model.minimize(&design, &mut p, None, None);
        let proj = FeasibilityProjection::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut q = p.clone();
                model.minimize(&design, &mut q, None, None);
                black_box(proj.project(&design, &q).distance_l1)
            })
        });
    }
    group.finish();
}

/// §S2: the consistency check itself (pure L1 arithmetic).
fn bench_consistency_check(c: &mut Criterion) {
    let design = GeneratorConfig::ispd2005_like("s2", 9, 4000).generate();
    let model = QuadraticModel::default();
    let proj = FeasibilityProjection::default();
    let mut a = design.initial_placement();
    model.minimize(&design, &mut a, None, None);
    let pa = proj.project(&design, &a).placement;
    let mut b = a.clone();
    model.minimize(&design, &mut b, None, None);
    let pb = proj.project(&design, &b).placement;
    c.bench_function("s2_consistency_check_4000", |bench| {
        bench.iter(|| black_box(check_consistency(&a, &pa, &b, &pb)))
    });
}

/// Figure 5 / §S6: full STA pass on a placed design.
fn bench_sta(c: &mut Criterion) {
    let design = GeneratorConfig::ispd2005_like("f5", 9, 4000).generate();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .expect("placement failed");
    let graph = TimingGraph::new(&design);
    let model = DelayModel::default();
    c.bench_function("fig5_sta_4000", |bench| {
        bench.iter(|| {
            black_box(
                graph
                    .analyze(&design, &out.legal, &model)
                    .critical_path_delay,
            )
        })
    });
}

/// Figure 4 / §S5: placement with a hard region constraint (vs. without).
fn bench_region_constraint(c: &mut Criterion) {
    use complx_netlist::{DesignBuilder, Rect, RegionConstraint};
    let base = GeneratorConfig::small("f4", 9).generate();
    let core = base.core();
    let cells: Vec<_> = base.movable_cells().iter().copied().take(50).collect();
    let mut b = DesignBuilder::from_design(&base);
    b.add_region(RegionConstraint::new(
        "r",
        Rect::new(
            core.lx,
            core.ly,
            core.lx + 0.4 * core.width(),
            core.ly + 0.4 * core.height(),
        ),
        cells,
    ));
    let constrained = b.build().expect("valid design");
    let mut group = c.benchmark_group("fig4_regions");
    group.sample_size(10);
    group.bench_function("unconstrained", |bench| {
        bench.iter(|| {
            black_box(
                ComplxPlacer::new(PlacerConfig::fast())
                    .place(&base)
                    .expect("placement failed")
                    .hpwl_legal,
            )
        })
    });
    group.bench_function("with_region", |bench| {
        bench.iter(|| {
            black_box(
                ComplxPlacer::new(PlacerConfig::fast())
                    .place(&constrained)
                    .expect("placement failed")
                    .hpwl_legal,
            )
        })
    });
    group.finish();
}

/// Figure 2: the mixed-size projection (shredding) plus SVG rendering.
fn bench_shredding_snapshot(c: &mut Criterion) {
    let design = GeneratorConfig::ispd2006_like("f2", 9, 2000, 0.8).generate();
    let out = ComplxPlacer::new(PlacerConfig::fast())
        .place(&design)
        .expect("placement failed");
    c.bench_function("fig2_shred_and_render_2000", |bench| {
        bench.iter(|| {
            let items = complx_spread::shred::build_items(&design, &out.upper, true);
            black_box(
                complx_bench::svg::placement_snapshot(&design, &out.upper, Some(&items), 400.0)
                    .len(),
            )
        })
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_iteration_scaling, bench_consistency_check, bench_sta,
              bench_region_constraint, bench_shredding_snapshot
}
criterion_main!(figures);
