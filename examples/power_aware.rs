//! Power-aware placement (paper Section 5): "Extensions for timing- and
//! power-driven placement traditionally rely on net weights computed from
//! activity factors", and Formula 13 additionally populates the penalty
//! weights γ⃗ with activities. This example applies both: high-activity
//! nets get larger weights in Φ (so the analytic solves keep them short),
//! and high-activity cells get larger penalty multipliers (so spreading
//! displaces them less). The payoff metric is switched capacitance —
//! activity-weighted wirelength.
//!
//! ```text
//! cargo run --release --example power_aware
//! ```

use complx_netlist::{generator::GeneratorConfig, hpwl, CellId, Design, Placement};
use complx_place::{ComplxPlacer, PlacerConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Switched-capacitance proxy: Σ over nets of (max pin activity) × HPWL —
/// wire capacitance scales with length, dynamic power with activity.
fn switched_capacitance(design: &Design, placement: &Placement, activity: &[f64]) -> f64 {
    design
        .net_ids()
        .map(|nid| {
            let a = design
                .net_pins(nid)
                .iter()
                .map(|p| activity[p.cell.index()])
                .fold(0.0f64, f64::max);
            a * hpwl::net_hpwl(design, placement, nid)
        })
        .sum()
}

fn main() {
    let design = GeneratorConfig::small("power", 55).generate();

    // Synthetic switching activities: 10% of cells are hot (clocked nets,
    // high toggle rates), the rest are quiet. Seeded and deterministic.
    let mut rng = StdRng::seed_from_u64(7);
    let mut activity = vec![0.1f64; design.num_cells()];
    for &id in design.movable_cells() {
        if rng.random_bool(0.1) {
            activity[id.index()] = 1.0;
        }
    }
    let hot = design
        .movable_cells()
        .iter()
        .filter(|&&id| activity[id.index()] > 0.5)
        .count();
    println!(
        "design `{}`: {} cells, {hot} high-activity cells",
        design.name(),
        design.num_cells()
    );

    // Wirelength-driven reference.
    let base = ComplxPlacer::new(PlacerConfig::default())
        .place(&design)
        .expect("placement failed");

    // Power-aware: (1) weight each net by its maximum pin activity so Φ
    // keeps high-activity nets short, and (2) populate Formula 13's γ⃗ with
    // activities so the penalty displaces hot cells less.
    let hot_nets: Vec<_> = design
        .net_ids()
        .filter(|&nid| {
            design
                .net_pins(nid)
                .iter()
                .any(|p| activity[p.cell.index()] > 0.5)
        })
        .collect();
    let weighted =
        complx_timing::reweight_nets(&design, &hot_nets, 4.0).expect("finite boosted weights");
    let gamma: Vec<f64> = activity.iter().map(|&a| 1.0 + 3.0 * a).collect();
    let aware = ComplxPlacer::new(PlacerConfig::default())
        .place_with_criticality(&weighted, Some(&gamma))
        .expect("placement failed");

    let cap_base = switched_capacitance(&design, &base.legal, &activity);
    let cap_aware = switched_capacitance(&design, &aware.legal, &activity);
    println!("\n                      wirelength-driven   power-aware");
    println!(
        "legal HPWL             {:>14.4e}  {:>14.4e}",
        base.hpwl_legal, aware.hpwl_legal
    );
    println!("switched capacitance   {cap_base:>14.4e}  {cap_aware:>14.4e}");
    println!(
        "\npower proxy change: {:+.2}%  (HPWL change: {:+.2}%)",
        100.0 * (cap_aware / cap_base - 1.0),
        100.0 * (aware.hpwl_legal / base.hpwl_legal - 1.0)
    );

    // Hot cells should sit closer to their feasible anchors than in the
    // reference run — that is the mechanism at work.
    let hot_cells: Vec<CellId> = design
        .movable_cells()
        .iter()
        .copied()
        .filter(|&id| activity[id.index()] > 0.5)
        .collect();
    let mean_disp = |o: &complx_place::PlacementOutcome| -> f64 {
        hot_cells
            .iter()
            .map(|&id| o.lower.position(id).l1_distance(o.upper.position(id)))
            .sum::<f64>()
            / hot_cells.len().max(1) as f64
    };
    println!(
        "mean hot-cell anchor distance: {:.2} (reference) vs {:.2} (power-aware)",
        mean_disp(&base),
        mean_disp(&aware)
    );
    assert!(
        cap_aware < cap_base,
        "power-aware placement must cut switched capacitance"
    );
    assert!(complx_legalize::is_legal(&design, &aware.legal, 1e-6));
}
