//! Library-level determinism of the whole placer across thread counts.
//!
//! The deterministic parallel runtime (`complx_par`) promises bit-identical
//! results for every thread count: chunk boundaries and reduction order are
//! functions of the problem size only, never of the worker count. This test
//! drives the full ComPLx pipeline — B2B stamping, CG solves, density
//! accumulation and region spreading — on a design large enough to clear
//! every parallel gate, and checks the outputs bit-for-bit.

use complx_repro::netlist::generator::GeneratorConfig;
use complx_repro::par;
use complx_repro::place::{ComplxPlacer, PlacementOutcome, PlacerConfig, ProjectionBackend};

fn place_cfg(threads: usize, mut cfg: PlacerConfig) -> PlacementOutcome {
    let _g = par::with_threads(threads);
    // 10k cells: movable count clears the vector gate (8192), the B2B net
    // gate (512), the CSR nnz gate (8192), the density cell gate (4096)
    // and the electro charge-gather gate (4096); the FFT grids the electro
    // backend picks at this size clear the butterfly/row gates too.
    let design = GeneratorConfig::ispd2005_like("pardet", 17, 10_000).generate();
    cfg.max_iterations = 6;
    ComplxPlacer::new(cfg).place(&design).expect("placement")
}

fn place_with(threads: usize, backend: ProjectionBackend) -> PlacementOutcome {
    let cfg = PlacerConfig {
        projection: backend,
        ..PlacerConfig::fast()
    };
    place_cfg(threads, cfg)
}

fn place_at(threads: usize) -> PlacementOutcome {
    place_with(threads, ProjectionBackend::Geometric)
}

fn assert_bits_equal(a: &[f64], b: &[f64], what: &str, threads: usize) {
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        assert_eq!(
            a[i].to_bits(),
            b[i].to_bits(),
            "{what}[{i}] differs between 1 and {threads} threads: {} vs {}",
            a[i],
            b[i]
        );
    }
}

#[test]
fn full_placement_bit_identical_across_1_2_8_threads() {
    let reference = place_at(1);
    for threads in [2, 8] {
        let got = place_at(threads);
        assert_eq!(
            got.metrics.hpwl.to_bits(),
            reference.metrics.hpwl.to_bits(),
            "HPWL differs at {threads} threads: {} vs {}",
            got.metrics.hpwl,
            reference.metrics.hpwl
        );
        assert_eq!(got.iterations, reference.iterations);
        assert_eq!(got.stop_reason, reference.stop_reason);
        assert_bits_equal(got.legal.xs(), reference.legal.xs(), "legal.x", threads);
        assert_bits_equal(got.legal.ys(), reference.legal.ys(), "legal.y", threads);
        assert_eq!(
            got.trace.to_csv(),
            reference.trace.to_csv(),
            "iteration traces differ at {threads} threads"
        );
    }
}

#[test]
fn electro_placement_bit_identical_across_1_2_8_threads() {
    // The same contract for the FFT electrostatic projection: parallel
    // butterfly passes, spectral row transforms and the charge gather all
    // use chunk boundaries that are functions of the problem size only.
    let reference = place_with(1, ProjectionBackend::Electro);
    for threads in [2, 8] {
        let got = place_with(threads, ProjectionBackend::Electro);
        assert_eq!(
            got.metrics.hpwl.to_bits(),
            reference.metrics.hpwl.to_bits(),
            "electro HPWL differs at {threads} threads: {} vs {}",
            got.metrics.hpwl,
            reference.metrics.hpwl
        );
        assert_eq!(got.iterations, reference.iterations);
        assert_eq!(got.stop_reason, reference.stop_reason);
        assert_bits_equal(got.legal.xs(), reference.legal.xs(), "legal.x", threads);
        assert_bits_equal(got.legal.ys(), reference.legal.ys(), "legal.y", threads);
        assert_eq!(
            got.trace.to_csv(),
            reference.trace.to_csv(),
            "electro iteration traces differ at {threads} threads"
        );
    }
}

#[test]
fn cog_placement_bit_identical_across_1_2_8_threads() {
    // The CoG-constrained preset: the same primal step, and a `P_C` that
    // sorts and shifts sequentially.
    let reference = place_cfg(1, PlacerConfig::cog_constrained());
    for threads in [2, 8] {
        let got = place_cfg(threads, PlacerConfig::cog_constrained());
        assert_eq!(got.iterations, reference.iterations);
        assert_eq!(got.stop_reason, reference.stop_reason);
        assert_bits_equal(got.legal.xs(), reference.legal.xs(), "legal.x", threads);
        assert_bits_equal(got.legal.ys(), reference.legal.ys(), "legal.y", threads);
        assert_eq!(
            got.trace.to_csv(),
            reference.trace.to_csv(),
            "CoG iteration traces differ at {threads} threads"
        );
    }
}
