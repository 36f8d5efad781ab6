//! Criterion counterpart of **Table 2**: end-to-end runtime of ComPLx vs
//! the baselines on a small ISPD-2006-style mixed-size instance (movable
//! macros, γ = 0.8). The table binary (`--bin table2`) produces the scaled
//! HPWL numbers; this bench tracks the runtime relationships (the paper
//! reports ComPLx > 2.5× faster than RQL and ~7–8× faster than
//! NTUPlace3/mPL6, whose role the FastPlace-like baseline plays here).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use complx_netlist::generator::GeneratorConfig;
use complx_place::{ComplxPlacer, PlacerConfig};

fn bench_table2(c: &mut Criterion) {
    let design = GeneratorConfig::ispd2006_like("t2_bench", 78, 1200, 0.8).generate();
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    for (name, cfg) in [
        ("complx_mixed_size", PlacerConfig::default()),
        ("rql_like_mixed_size", PlacerConfig::rql_like()),
        ("fastplace_like_mixed_size", PlacerConfig::fastplace_like()),
    ] {
        let placer = ComplxPlacer::new(cfg);
        group.bench_function(name, |b| {
            b.iter(|| {
                let outcome = placer.place(&design).expect("placement failed");
                black_box(outcome.metrics.scaled_hpwl)
            })
        });
    }
    group.finish();
}

criterion_group!(table2, bench_table2);
criterion_main!(table2);
