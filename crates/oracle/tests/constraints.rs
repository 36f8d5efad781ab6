//! The oracle's region and alignment audit against the solver's own
//! predicates (`complx_spread::regions`, a dev-dependency only): on random
//! placements, snapped placements and snapped-then-nudged placements the
//! two independent implementations must reach the same verdict. A placed
//! design with a hard region (the Figure 4 experiment, scaled down) must
//! pass the oracle.

use complx_netlist::generator::GeneratorConfig;
use complx_netlist::{
    AlignmentAxis, AlignmentConstraint, CellKind, Design, DesignBuilder, Placement, Point, Rect,
    RegionConstraint,
};
use complx_oracle::check_solution;
use complx_place::{ComplxPlacer, PlacerConfig};
use complx_spread::regions::{
    alignments_satisfied, regions_satisfied, snap_to_alignments, snap_to_regions,
};
use proptest::prelude::*;

/// The codes of the oracle's constraint violations at tolerance `tol`.
fn oracle_verdict(d: &Design, p: &Placement, tol: f64) -> (bool, bool) {
    let (_, violations) = check_solution(d, p, tol);
    let has = |code: &str| violations.iter().any(|v| v.code == code);
    (!has("solution-region"), !has("solution-alignment"))
}

/// A small generated design with one region over a random sub-rectangle
/// of the core (narrow enough, at times, that cells overhang it) and one
/// alignment group.
fn constrained(seed: u64, frac: (f64, f64, f64, f64), vertical: bool) -> Design {
    let mut cfg = GeneratorConfig::small("cx", seed);
    cfg.num_std_cells = 120;
    cfg.num_pads = 8;
    let base = cfg.generate();
    let core = base.core();
    let std: Vec<_> = base
        .movable_cells()
        .iter()
        .copied()
        .filter(|&id| base.cell(id).kind() == CellKind::Movable)
        .collect();
    let (fx, fy, fw, fh) = frac;
    let lx = core.lx + fx * core.width();
    let ly = core.ly + fy * core.height();
    let region = Rect::new(
        lx,
        ly,
        (lx + fw * core.width()).min(core.hx),
        (ly + fh * core.height()).min(core.hy),
    );
    let axis = if vertical {
        AlignmentAxis::Vertical
    } else {
        AlignmentAxis::Horizontal
    };
    let mut b = DesignBuilder::from_design(&base);
    b.add_region(RegionConstraint::new("r", region, std[..12].to_vec()));
    b.add_alignment(AlignmentConstraint::new("a", axis, std[12..18].to_vec()));
    b.build().expect("constrained design is valid")
}

/// Every movable cell at a pseudo-random spot of the core.
fn scatter(design: &Design, salt: u64) -> Placement {
    let core = design.core();
    let mut p = design.initial_placement();
    for (i, &id) in design.movable_cells().iter().enumerate() {
        let k = i as u64 + salt;
        let fx = ((k.wrapping_mul(2654435761)) % 1009) as f64 / 1009.0;
        let fy = ((k.wrapping_mul(40503)) % 997) as f64 / 997.0;
        p.set_position(
            id,
            Point::new(core.lx + fx * core.width(), core.ly + fy * core.height()),
        );
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn oracle_agrees_with_spread_predicates(
        seed in 0u64..100,
        salt in 0u64..1000,
        frac in (0.0f64..0.9, 0.0f64..0.9, 0.001f64..0.5, 0.001f64..0.5),
        vertical in 0u8..2,
        snap in 0u8..4,
        nudge in -5e-9f64..5e-9,
    ) {
        let d = constrained(seed, frac, vertical == 1);
        let mut p = scatter(&d, salt);
        if snap & 1 == 1 {
            snap_to_regions(&d, &mut p);
            // Nudge one region cell across (or not) the 1e-9 slack the
            // solver's predicate allows.
            let id = d.regions()[0].cells()[0];
            let q = p.position(id);
            p.set_position(id, Point::new(q.x + nudge, q.y));
        }
        if snap & 2 == 2 {
            snap_to_alignments(&d, &mut p);
        }
        let (regions_ok, alignments_ok) = oracle_verdict(&d, &p, 1e-9);
        prop_assert_eq!(regions_ok, regions_satisfied(&d, &p));
        prop_assert_eq!(alignments_ok, alignments_satisfied(&d, &p, 1e-9));
    }
}

#[test]
fn placed_region_design_passes_the_oracle() {
    // Figure 4 at a fraction of its size: a hard region over the lower-left
    // of the core on cells the generator scattered everywhere. Read off the
    // upper-bound iterate, as fig4_regions does (detail placement is not
    // region-aware).
    let d = constrained(404, (0.05, 0.05, 0.3, 0.3), false);
    let mut cfg = PlacerConfig::fast();
    cfg.final_detail = false;
    let out = ComplxPlacer::new(cfg)
        .place(&d)
        .expect("placement succeeds");
    let (regions_ok, alignments_ok) = oracle_verdict(&d, &out.upper, 1e-6);
    assert!(regions_ok && regions_satisfied(&d, &out.upper));
    assert!(alignments_ok && alignments_satisfied(&d, &out.upper, 1e-6));
}
