//! Criterion counterpart of **Table 1**: end-to-end runtime of the three
//! ComPLx configurations (default, finest grid, `P_C` += DP) and the
//! best-published stand-ins (SimPL config, RQL-like) on a small
//! ISPD-2005-style instance. The table binary (`--bin table1`) produces the
//! HPWL numbers; this bench tracks the runtime relationships (default
//! fastest, `P_C`+=DP an order of magnitude slower — 26.6× in the paper).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use complx_netlist::generator::GeneratorConfig;
use complx_place::{ComplxPlacer, PlacerConfig};

fn bench_table1(c: &mut Criterion) {
    let design = GeneratorConfig::ispd2005_like("t1_bench", 77, 1500).generate();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    for (name, cfg) in [
        ("complx_default", PlacerConfig::default()),
        ("complx_finest_grid", PlacerConfig::finest_grid()),
        ("complx_pc_plus_dp", PlacerConfig::projection_with_detail()),
        ("simpl_config", PlacerConfig::simpl()),
        ("rql_like", PlacerConfig::rql_like()),
    ] {
        let placer = ComplxPlacer::new(cfg);
        group.bench_function(name, |b| {
            b.iter(|| black_box(placer.place(&design).expect("placement failed").hpwl_legal))
        });
    }
    group.finish();
}

criterion_group!(table1, bench_table1);
criterion_main!(table1);
