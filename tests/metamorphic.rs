//! Metamorphic properties of the full placement pipeline.
//!
//! Each test transforms a design in a way with a *known* effect on the
//! optimal placement and checks that the placer (and the oracle's metrics)
//! commute with the transformation:
//!
//! * translation — same placement, shifted; HPWL identical up to fp noise
//! * mirroring   — same HPWL distribution; oracle HPWL exactly invariant
//! * uniform ×2 net-weight scaling — bit-identical trajectory (every
//!   intermediate f64 scales by an exact power of two)
//! * degenerate single-cell net — exact no-op (both pins resolve to one
//!   cell: zero span, and the B2B stamping skips the self-edge)
//!
//! The electrostatic field engine gets its own metamorphic block at the
//! bottom: translation equivariance, mirror antisymmetry of `E_x`, and the
//! vanishing of the field on a perfectly uniform charge distribution.

use complx_repro::netlist::generator::GeneratorConfig;
use complx_repro::netlist::transform::{
    mirror_x, mirror_x_placement, scale_net_weights, translate, translate_placement,
};
use complx_repro::netlist::{CellKind, Design, DesignBuilder, Placement, Point, Rect};
use complx_repro::oracle;
use complx_repro::place::{ComplxPlacer, PlacerConfig};
use complx_repro::spread::ElectroProjection;

fn tiny_design(name: &str, seed: u64) -> Design {
    let mut cfg = GeneratorConfig::small(name, seed);
    cfg.num_std_cells = 220;
    cfg.num_pads = 16;
    cfg.num_fixed_macros = 2;
    cfg.generate()
}

fn fast_cfg() -> PlacerConfig {
    let mut cfg = PlacerConfig::fast();
    cfg.max_iterations = 30;
    cfg
}

#[test]
fn translation_equivariance() {
    let d = tiny_design("mt", 5);
    let t = translate(&d, 230.0, -170.0).unwrap();
    let out_d = ComplxPlacer::new(fast_cfg()).place(&d).unwrap();
    let out_t = ComplxPlacer::new(fast_cfg()).place(&t).unwrap();

    // Quality must agree tightly: the problem is identical, only the
    // coordinate frame moved (fp rounding differs, hence the band).
    let h_d = oracle::hpwl(&d, &out_d.legal);
    let h_t = oracle::hpwl(&t, &out_t.legal);
    assert!(
        (h_d - h_t).abs() <= 0.02 * h_d,
        "translated HPWL {h_t} vs {h_d}"
    );

    // And the oracle itself is exactly translation-invariant on the
    // *same* placement mapped into the new frame.
    let mapped = translate_placement(&out_d.legal, 230.0, -170.0);
    let h_mapped = oracle::hpwl(&t, &mapped);
    assert!(
        (h_mapped - h_d).abs() <= 1e-9 * h_d,
        "oracle drifted under translation: {h_mapped} vs {h_d}"
    );
    // The mapped placement is as legal in the shifted frame as the
    // original was in its own.
    let audit = oracle::audit(&t, &mapped);
    assert!(audit.is_legal(1e-6), "{audit:?}");
}

#[test]
fn mirror_equivariance() {
    let d = tiny_design("mm", 8);
    let m = mirror_x(&d).unwrap();
    let out_d = ComplxPlacer::new(fast_cfg()).place(&d).unwrap();
    let out_m = ComplxPlacer::new(fast_cfg()).place(&m).unwrap();

    let h_d = oracle::hpwl(&d, &out_d.legal);
    let h_m = oracle::hpwl(&m, &out_m.legal);
    assert!(
        (h_d - h_m).abs() <= 0.02 * h_d,
        "mirrored HPWL {h_m} vs {h_d}"
    );

    // Mapping the original solution into the mirrored frame preserves the
    // oracle's HPWL to fp noise and preserves legality exactly (row
    // structure is x-symmetric).
    let mapped = mirror_x_placement(&d, &out_d.legal);
    let h_mapped = oracle::hpwl(&m, &mapped);
    assert!(
        (h_mapped - h_d).abs() <= 1e-9 * h_d,
        "oracle drifted under mirroring: {h_mapped} vs {h_d}"
    );
    let audit = oracle::audit(&m, &mapped);
    assert!(audit.is_legal(1e-6), "{audit:?}");
}

#[test]
fn doubling_net_weights_is_an_exact_noop() {
    // Scaling every net weight by 2 scales the objective, λ, anchors and
    // linear systems by exact powers of two — the argmin and the whole
    // iterate sequence are bit-identical.
    let d = tiny_design("mw", 13);
    let s = scale_net_weights(&d, 2.0).unwrap();
    let out_d = ComplxPlacer::new(fast_cfg()).place(&d).unwrap();
    let out_s = ComplxPlacer::new(fast_cfg()).place(&s).unwrap();
    assert_eq!(
        out_d.legal, out_s.legal,
        "doubled weights changed the placement"
    );
    assert_eq!(out_d.iterations, out_s.iterations);
    // Weighted HPWL doubles exactly; unweighted is identical.
    assert_eq!(
        oracle::hpwl(&d, &out_d.legal).to_bits(),
        oracle::hpwl(&s, &out_s.legal).to_bits()
    );
    assert_eq!(
        (2.0 * oracle::weighted_hpwl(&d, &out_d.legal)).to_bits(),
        oracle::weighted_hpwl(&s, &out_s.legal).to_bits()
    );
}

#[test]
fn quadrupling_net_weights_is_an_exact_noop() {
    // Same property through two doublings at once (×4): still a power of
    // two, still bit-exact.
    let d = tiny_design("mw4", 21);
    let s = scale_net_weights(&d, 4.0).unwrap();
    let out_d = ComplxPlacer::new(fast_cfg()).place(&d).unwrap();
    let out_s = ComplxPlacer::new(fast_cfg()).place(&s).unwrap();
    assert_eq!(out_d.legal, out_s.legal);
}

/// Derives from `d` a design with one extra 2-pin net whose pins both sit
/// on the same cell at the same offset.
fn with_degenerate_net(d: &Design) -> Design {
    let mut b = DesignBuilder::from_design(d);
    let victim = d.movable_cells()[0];
    b.add_net(
        "degenerate",
        1.0,
        vec![(victim, 0.0, 0.0), (victim, 0.0, 0.0)],
    )
    .unwrap();
    b.build().unwrap()
}

#[test]
fn degenerate_single_cell_net_is_an_exact_noop() {
    // Both pins of the extra net resolve to one cell: its HPWL span is 0
    // and the connectivity stamping skips self-edges, so the trajectory is
    // untouched down to the last bit.
    let d = tiny_design("md", 34);
    let dd = with_degenerate_net(&d);
    assert_eq!(dd.num_nets(), d.num_nets() + 1);
    let out_d = ComplxPlacer::new(fast_cfg()).place(&d).unwrap();
    let out_dd = ComplxPlacer::new(fast_cfg()).place(&dd).unwrap();
    assert_eq!(out_d.legal, out_dd.legal, "degenerate net moved cells");
    assert_eq!(
        oracle::hpwl(&d, &out_d.legal).to_bits(),
        oracle::hpwl(&dd, &out_dd.legal).to_bits(),
        "degenerate net contributed wirelength"
    );
}

#[test]
fn reweighting_a_degenerate_net_is_an_exact_noop() {
    // A net whose pins all resolve to one cell contributes nothing at any
    // weight: its span is identically zero and stamping skips self-edges.
    // Scaling just that net's weight therefore changes *no* intermediate
    // quantity — unlike the global ×2 scaling above, this holds for any
    // factor, not only powers of two.
    let d = tiny_design("mdw", 55);
    let light = with_degenerate_net(&d);
    let heavy = {
        let degenerate = light
            .net_ids()
            .find(|&n| light.net(n).name() == "degenerate")
            .unwrap();
        let mut b = DesignBuilder::from_design(&light);
        b.set_net_weight(degenerate, light.net(degenerate).weight() * 7.0)
            .unwrap();
        b.build().unwrap()
    };
    let out_light = ComplxPlacer::new(fast_cfg()).place(&light).unwrap();
    let out_heavy = ComplxPlacer::new(fast_cfg()).place(&heavy).unwrap();
    assert_eq!(out_light.legal, out_heavy.legal);
    assert_eq!(
        oracle::hpwl(&light, &out_light.legal).to_bits(),
        oracle::hpwl(&heavy, &out_heavy.legal).to_bits()
    );
}

#[test]
fn oracle_overlap_is_translation_invariant() {
    // Pure-oracle metamorphic check, no placer: the audit of a deliberately
    // overlapping placement is unchanged when everything shifts together.
    let mut b = DesignBuilder::new("ot", Rect::new(0.0, 0.0, 40.0, 8.0), 1.0);
    let a = b.add_cell("a", 4.0, 1.0, CellKind::Movable).unwrap();
    let c = b.add_cell("b", 4.0, 1.0, CellKind::Movable).unwrap();
    b.add_net("n", 1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
        .unwrap();
    let d = b.build().unwrap();
    let mut p = d.initial_placement();
    p.set_position(a, complx_repro::netlist::Point::new(10.0, 2.5));
    p.set_position(c, complx_repro::netlist::Point::new(12.5, 2.5));
    let before = oracle::audit(&d, &p);
    assert!(before.overlap_area > 1.0, "fixture should overlap");

    let t = translate(&d, 7.0, 3.0).unwrap();
    let tp = translate_placement(&p, 7.0, 3.0);
    let after = oracle::audit(&t, &tp);
    assert!(
        (before.overlap_area - after.overlap_area).abs() <= 1e-9,
        "{} vs {}",
        before.overlap_area,
        after.overlap_area
    );
    assert_eq!(before.overlap_pairs, after.overlap_pairs);
    assert_eq!(before.off_row_cells, after.off_row_cells);
}

/// A deterministic low-discrepancy scatter of the movable cells over the
/// core (the generator's initial placement stacks everything at the core
/// center, where every field probe would read the same value).
fn scattered(d: &Design) -> Placement {
    let core = d.core();
    let mut p = d.initial_placement();
    for (k, &id) in d.movable_cells().iter().enumerate() {
        let fx = (k as f64 * 0.618_033_988_749_894_9).fract();
        let fy = (k as f64 * 0.754_877_666_246_692_8).fract();
        p.set_position(
            id,
            Point::new(
                core.lx + (0.05 + 0.9 * fx) * core.width(),
                core.ly + (0.05 + 0.9 * fy) * core.height(),
            ),
        );
    }
    p
}

/// Largest field magnitude on the grid — the scale the tolerance bands
/// below are relative to.
fn field_scale(f: &complx_repro::spread::ElectroField) -> f64 {
    f.ex.iter()
        .chain(&f.ey)
        .fold(0.0f64, |m, &v| m.max(v.abs()))
}

#[test]
fn electro_field_translation_equivariance() {
    // Shifting the design and the placement together shifts the charge
    // distribution rigidly, so the field at corresponding bin centers is
    // unchanged (up to fp noise from re-binning in the shifted frame).
    let d = tiny_design("ef_t", 3);
    let p = scattered(&d);
    let proj = ElectroProjection::new();
    let f0 = proj.field(&d, &p, 32);

    let t = translate(&d, 230.0, -170.0).unwrap();
    let tp = translate_placement(&p, 230.0, -170.0);
    let f1 = proj.field(&t, &tp, 32);

    assert_eq!(f0.nx, f1.nx);
    assert_eq!(f0.ny, f1.ny);
    let tol = 1e-8 * field_scale(&f0).max(1e-12);
    for i in 0..f0.ex.len() {
        assert!(
            (f0.ex[i] - f1.ex[i]).abs() <= tol && (f0.ey[i] - f1.ey[i]).abs() <= tol,
            "bin {i}: E=({}, {}) vs translated E=({}, {})",
            f0.ex[i],
            f0.ey[i],
            f1.ex[i],
            f1.ey[i]
        );
    }
}

#[test]
fn electro_field_mirror_antisymmetry() {
    // Mirroring the charge about the core's vertical centerline negates
    // the x-component of the field at the mirrored bin and preserves the
    // y-component: E_x'(i, j) = −E_x(nx−1−i, j), E_y'(i, j) = E_y(nx−1−i, j).
    let d = tiny_design("ef_m", 6);
    let p = scattered(&d);
    let proj = ElectroProjection::new();
    let f0 = proj.field(&d, &p, 32);

    let m = mirror_x(&d).unwrap();
    let mp = mirror_x_placement(&d, &p);
    let f1 = proj.field(&m, &mp, 32);

    let (nx, ny) = (f0.nx, f0.ny);
    let tol = 1e-8 * field_scale(&f0).max(1e-12);
    for j in 0..ny {
        for i in 0..nx {
            let a = j * nx + i;
            let b = j * nx + (nx - 1 - i);
            assert!(
                (f1.ex[a] + f0.ex[b]).abs() <= tol,
                "E_x not antisymmetric at ({i}, {j}): {} vs {}",
                f1.ex[a],
                -f0.ex[b]
            );
            assert!(
                (f1.ey[a] - f0.ey[b]).abs() <= tol,
                "E_y not symmetric at ({i}, {j}): {} vs {}",
                f1.ey[a],
                f0.ey[b]
            );
        }
    }
}

#[test]
fn electro_field_vanishes_on_uniform_density() {
    // A 16×16 lattice of identical cells, one per bin of the 16×16 field
    // grid: the charge is the same in every bin, mean removal cancels it
    // exactly, and the equalizing field is (numerically) zero everywhere.
    let mut b = DesignBuilder::new("ef_u", Rect::new(0.0, 0.0, 32.0, 32.0), 1.0);
    let mut ids = Vec::new();
    for j in 0..16 {
        for i in 0..16 {
            let id = b
                .add_cell(format!("u{i}_{j}"), 1.0, 1.0, CellKind::Movable)
                .unwrap();
            ids.push(id);
        }
    }
    b.add_net("n", 1.0, vec![(ids[0], 0.0, 0.0), (ids[1], 0.0, 0.0)])
        .unwrap();
    let d = b.build().unwrap();

    let mut p = d.initial_placement();
    for (k, &id) in ids.iter().enumerate() {
        let (i, j) = (k % 16, k / 16);
        p.set_position(id, Point::new(2.0 * i as f64 + 1.0, 2.0 * j as f64 + 1.0));
    }

    let f = ElectroProjection::new().field(&d, &p, 16);
    for idx in 0..f.ex.len() {
        assert!(
            f.ex[idx].abs() <= 1e-12 && f.ey[idx].abs() <= 1e-12,
            "uniform charge produced a field at bin {idx}: ({}, {})",
            f.ex[idx],
            f.ey[idx]
        );
    }
}

#[test]
fn oracle_density_is_mirror_invariant() {
    // Mirroring a placement about the core centerline permutes bins but
    // cannot change total overflow.
    let d = tiny_design("odm", 2);
    let p = d.initial_placement();
    let m = mirror_x(&d).unwrap();
    let mp = mirror_x_placement(&d, &p);
    let a = oracle::density_audit(&d, &p, 16);
    let b = oracle::density_audit(&m, &mp, 16);
    assert!(
        (a.overflow_area - b.overflow_area).abs() <= 1e-9 * a.overflow_area.max(1.0),
        "{} vs {}",
        a.overflow_area,
        b.overflow_area
    );
}
