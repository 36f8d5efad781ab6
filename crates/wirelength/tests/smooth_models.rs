//! Tests shared by the smooth (nonlinear) interconnect models:
//! log-sum-exp, β-regularization and p,β-regularization all overestimate
//! HPWL and respond to anchors (property tests), and their outputs are
//! pinned bit for bit.

use complx_netlist::{generator::GeneratorConfig, hpwl, Placement};
use complx_wirelength::{Anchors, BetaRegModel, InterconnectModel, LseModel, PNormModel};
use proptest::prelude::*;

fn scattered(design: &complx_netlist::Design, seed: u64) -> Placement {
    let core = design.core();
    let mut p = design.initial_placement();
    for (i, &id) in design.movable_cells().iter().enumerate() {
        let k = i as u64 + seed;
        let fx = ((k.wrapping_mul(2654435761)) % 1000) as f64 / 1000.0;
        let fy = ((k.wrapping_mul(40503)) % 1000) as f64 / 1000.0;
        p.set_position(
            id,
            complx_netlist::Point::new(core.lx + fx * core.width(), core.ly + fy * core.height()),
        );
    }
    p
}

fn models() -> Vec<Box<dyn InterconnectModel>> {
    vec![
        Box::new(LseModel::new()),
        Box::new(BetaRegModel::new()),
        Box::new(PNormModel::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every smooth model's surrogate value upper-bounds the weighted HPWL
    /// (their defining property as HPWL regularizations).
    #[test]
    fn smooth_models_upper_bound_hpwl(seed in 0u64..200) {
        let mut cfg = GeneratorConfig::small("sm", seed);
        cfg.num_std_cells = 40;
        cfg.num_pads = 8;
        let d = cfg.generate();
        let p = scattered(&d, seed);
        let real = hpwl::weighted_hpwl(&d, &p);
        for m in models() {
            let v = m.wirelength(&d, &p);
            prop_assert!(
                v >= real * 0.999,
                "{} value {v} below HPWL {real}",
                m.name()
            );
        }
    }

    /// Minimizing any smooth model from a perturbed start reduces its own
    /// surrogate value (descent property of the shared NLCG).
    #[test]
    fn smooth_models_descend(seed in 0u64..100) {
        let mut cfg = GeneratorConfig::small("sd", seed);
        cfg.num_std_cells = 30;
        cfg.num_pads = 6;
        let d = cfg.generate();
        let start = scattered(&d, seed);
        for m in models() {
            let before = m.wirelength(&d, &start);
            let mut p = start.clone();
            m.minimize(&d, &mut p, None, None);
            let after = m.wirelength(&d, &p);
            prop_assert!(
                after <= before * 1.001,
                "{} did not descend: {before} -> {after}",
                m.name()
            );
        }
    }

    /// Anchors reduce the distance to their targets under every model.
    #[test]
    fn smooth_models_respect_anchors(seed in 0u64..60) {
        let mut cfg = GeneratorConfig::small("sa", seed);
        cfg.num_std_cells = 25;
        cfg.num_pads = 6;
        let d = cfg.generate();
        let start = scattered(&d, seed);
        let mut targets = start.clone();
        for &id in d.movable_cells() {
            targets.set_position(
                id,
                complx_netlist::Point::new(d.core().lx + 2.0, d.core().ly + 2.0),
            );
        }
        let anchors = Anchors::uniform(&d, targets.clone(), 100.0);
        for m in models() {
            let mut p = start.clone();
            m.minimize(&d, &mut p, Some(&anchors), None);
            prop_assert!(
                anchors.penalty(&p) < anchors.penalty(&start),
                "{} ignored anchors",
                m.name()
            );
        }
    }
}

/// FNV-1a over the bit patterns of every cell coordinate, x then y.
fn fingerprint(p: &Placement) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in p.xs().iter().chain(p.ys()) {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pin_design() -> complx_netlist::Design {
    let mut cfg = GeneratorConfig::small("pin", 7);
    cfg.num_std_cells = 60;
    cfg.num_pads = 8;
    cfg.generate()
}

/// Bit-exact pins of the smooth models' outputs. Any change to a kernel's
/// floating-point operation order, the anchor term, the NLCG driver, the
/// write-back or the core clamp moves one of these fingerprints; a pure
/// refactor of the smooth-model code must leave all of them alone. The
/// values were captured from the three separate model implementations
/// that `SmoothModel` replaced.
#[test]
fn smooth_model_outputs_are_pinned_bit_for_bit() {
    let d = pin_design();
    let start = scattered(&d, 3);
    let mut targets = start.clone();
    for &id in d.movable_cells() {
        targets.set_position(
            id,
            complx_netlist::Point::new(d.core().lx + 3.0, d.core().hy - 3.0),
        );
    }
    let anchors = Anchors::uniform(&d, targets, 20.0);
    let mut got = Vec::new();
    for m in models() {
        let wl = m.wirelength(&d, &start).to_bits();
        let mut free = start.clone();
        m.minimize(&d, &mut free, None, None);
        let mut pulled = start.clone();
        m.minimize(&d, &mut pulled, Some(&anchors), None);
        got.push((m.name(), wl, fingerprint(&free), fingerprint(&pulled)));
    }
    let want: [(&str, u64, u64, u64); 3] = [
        (
            "log-sum-exp",
            0x40c7_2578_32e0_f558,
            0x7fe0_1789_7bb2_6309,
            0x793c_8873_b913_afce,
        ),
        (
            "beta-regularization",
            0x40c1_17de_5a7e_8cf8,
            0x1ce7_ac4d_8259_5b22,
            0x9bc4_74e7_667c_f52a,
        ),
        (
            "p-beta-regularization",
            0x40b6_a4d5_5c32_6546,
            0x950c_2c4d_a7d8_6f2c,
            0x4f66_5256_a701_a387,
        ),
    ];
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{} moved", g.0);
    }
}

/// The legal placement of one whole ComPLx run per smooth interconnect
/// model, pinned bit for bit (captured like the fingerprints above).
#[test]
fn smooth_model_placements_are_pinned_bit_for_bit() {
    use complx_place::{ComplxPlacer, Interconnect, PlacerConfig};
    let d = pin_design();
    let want = [
        (
            Interconnect::LogSumExp { gamma_rows: 4.0 },
            0x4dfd_26ee_dfd9_aa72u64,
        ),
        (
            Interconnect::BetaRegularized { beta_rows2: 1.0 },
            0xe312_b20a_b6f4_3eaa,
        ),
        (Interconnect::PNorm { p: 8.0 }, 0xdc6b_2b05_21f8_5d49),
    ];
    for (ic, fp) in want {
        let out = ComplxPlacer::new(PlacerConfig {
            interconnect: ic,
            max_iterations: 8,
            ..PlacerConfig::fast()
        })
        .place(&d)
        .expect("placement failed");
        assert_eq!(fingerprint(&out.legal), fp, "{ic:?} moved");
    }
}
