//! Property-based tests for net decomposition and quadratic assembly.

use complx_netlist::{generator::GeneratorConfig, hpwl, Placement};
use complx_wirelength::{Anchors, InterconnectModel, NetModel, QuadraticModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The B2B quadratic value equals weighted HPWL at the expansion point
    /// on whole designs, not just single nets (the Kraftwerk2 identity that
    /// justifies linearized quadratic placement).
    #[test]
    fn b2b_objective_equals_hpwl_at_expansion(seed in 0u64..500) {
        let mut cfg = GeneratorConfig::small("p", seed);
        cfg.num_std_cells = 40;
        cfg.num_pads = 8;
        let d = cfg.generate();
        let mut p = d.initial_placement();
        // Spread the cells so distances are generically non-degenerate.
        for (i, v) in p.xs_mut().iter_mut().enumerate() {
            *v += ((seed as usize + i * 29) % 37) as f64;
        }
        for (i, v) in p.ys_mut().iter_mut().enumerate() {
            *v += ((seed as usize + i * 13) % 31) as f64;
        }
        // Evaluate Σ w_ij d² via decompose on every net and axis.
        let mut total = 0.0;
        let mut edges = Vec::new();
        for nid in d.net_ids() {
            let pins = d.net_pins(nid);
            for is_x in [true, false] {
                let coords: Vec<f64> = pins
                    .iter()
                    .map(|pin| {
                        let pos = p.position(pin.cell);
                        if is_x { pos.x + pin.dx } else { pos.y + pin.dy }
                    })
                    .collect();
                complx_wirelength::decompose_net(
                    NetModel::Bound2Bound,
                    d.net(nid).weight(),
                    &coords,
                    1e-12,
                    &mut edges,
                );
                for e in &edges {
                    let ca = coords[e.a];
                    let cb = coords[e.b];
                    total += e.weight * (ca - cb) * (ca - cb);
                }
            }
        }
        let real = hpwl::weighted_hpwl(&d, &p);
        prop_assert!((total - real).abs() < 1e-6 * real.max(1.0), "{total} vs {real}");
    }

    /// Minimizing with anchors of growing λ monotonically (weakly) reduces
    /// the distance to the anchor targets — the mechanism behind Formula 6.
    #[test]
    fn stronger_anchors_pull_harder(seed in 0u64..200) {
        let mut cfg = GeneratorConfig::small("a", seed);
        cfg.num_std_cells = 30;
        cfg.num_pads = 8;
        let d = cfg.generate();
        let model = QuadraticModel::default();
        let mut base = d.initial_placement();
        model.minimize(&d, &mut base, None, None);

        // Anchor targets: everything at the lower-left corner.
        let mut targets = base.clone();
        for &id in d.movable_cells() {
            targets.set_position(id, complx_netlist::Point::new(d.core().lx + 1.0, d.core().ly + 1.0));
        }

        let mut dists = Vec::new();
        for lambda in [0.01, 1.0, 100.0] {
            let anchors = Anchors::uniform(&d, targets.clone(), lambda);
            let mut p = base.clone();
            model.minimize(&d, &mut p, Some(&anchors), None);
            dists.push(p.l1_distance(&targets));
        }
        prop_assert!(dists[0] >= dists[1] * 0.999, "{dists:?}");
        prop_assert!(dists[1] >= dists[2] * 0.999, "{dists:?}");
    }

    /// Quadratic minimization never moves fixed cells and keeps movables in
    /// the core for any net model.
    #[test]
    fn minimize_respects_fixtures_and_core(
        seed in 0u64..100,
        model_idx in 0usize..4,
    ) {
        let mut cfg = GeneratorConfig::small("f", seed);
        cfg.num_std_cells = 25;
        cfg.num_pads = 6;
        let d = cfg.generate();
        let model = QuadraticModel::new(match model_idx {
            0 => NetModel::Bound2Bound,
            1 => NetModel::Clique,
            2 => NetModel::Star,
            _ => NetModel::HybridCliqueStar,
        });
        let mut p = d.initial_placement();
        let before: Vec<_> = d
            .cell_ids()
            .filter(|&id| !d.cell(id).is_movable())
            .map(|id| (id, p.position(id)))
            .collect();
        model.minimize(&d, &mut p, None, None);
        for (id, pos) in before {
            prop_assert_eq!(p.position(id), pos);
        }
        for &id in d.movable_cells() {
            prop_assert!(d.core().contains(p.position(id)));
        }
    }

    /// The quadratic solve is deterministic: same input → same output.
    #[test]
    fn minimize_is_deterministic(seed in 0u64..100) {
        let mut cfg = GeneratorConfig::small("det", seed);
        cfg.num_std_cells = 20;
        cfg.num_pads = 4;
        let d = cfg.generate();
        let model = QuadraticModel::default();
        let mut p1 = d.initial_placement();
        let mut p2 = d.initial_placement();
        model.minimize(&d, &mut p1, None, None);
        model.minimize(&d, &mut p2, None, None);
        prop_assert_eq!(p1, p2);
    }
}

#[test]
fn placement_len_mismatch_is_rejected_by_anchors() {
    let d = GeneratorConfig::small("mm", 1).generate();
    let wrong = Placement::zeros(d.num_cells() + 1);
    let result = std::panic::catch_unwind(|| Anchors::uniform(&d, wrong, 1.0));
    assert!(result.is_err());
}
