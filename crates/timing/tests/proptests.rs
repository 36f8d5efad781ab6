//! Property-based tests for static timing analysis.

use complx_netlist::{CellKind, Design, DesignBuilder, Placement, Point, Rect};
use complx_timing::{reweight_nets, DelayModel, TimingGraph};
use proptest::prelude::*;

/// Builds a random layered DAG design: `layers × width` cells, nets from
/// each cell to 1–3 cells in the next layer. Returns the design and a
/// placement on a grid.
fn layered_design(
    layers: usize,
    width: usize,
    edges: &[(usize, usize, usize)],
) -> (Design, Placement) {
    let w = (layers * 10) as f64;
    let h = (width * 10) as f64;
    let mut b = DesignBuilder::new("dag", Rect::new(0.0, 0.0, w.max(20.0), h.max(20.0)), 1.0);
    let mut ids = Vec::new();
    for l in 0..layers {
        for k in 0..width {
            ids.push(
                b.add_cell(format!("c{l}_{k}"), 1.0, 1.0, CellKind::Movable)
                    .expect("valid cell"),
            );
        }
    }
    let mut net_no = 0;
    for &(l, from, to) in edges {
        if l + 1 >= layers {
            continue;
        }
        let a = ids[l * width + (from % width)];
        let c = ids[(l + 1) * width + (to % width)];
        if a == c {
            continue;
        }
        b.add_net(
            format!("n{net_no}"),
            1.0,
            vec![(a, 0.0, 0.0), (c, 0.0, 0.0)],
        )
        .expect("valid net");
        net_no += 1;
    }
    // Guarantee at least one net so the design builds meaningfully.
    if net_no == 0 && ids.len() >= 2 {
        b.add_net(
            "n_fallback",
            1.0,
            vec![(ids[0], 0.0, 0.0), (ids[1], 0.0, 0.0)],
        )
        .expect("valid net");
    }
    let d = b.build().expect("valid design");
    let mut p = Placement::zeros(d.num_cells());
    for l in 0..layers {
        for k in 0..width {
            p.set_position(
                ids[l * width + k],
                Point::new(l as f64 * 10.0 + 5.0, k as f64 * 10.0 + 5.0),
            );
        }
    }
    (d, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Arrival times are consistent along every edge and slacks are
    /// non-negative when required times anchor at the critical delay.
    #[test]
    fn sta_invariants_on_random_dags(
        layers in 2usize..6,
        width in 1usize..5,
        edges in proptest::collection::vec((0usize..6, 0usize..5, 0usize..5), 1..40),
    ) {
        let (d, p) = layered_design(layers, width, &edges);
        let graph = TimingGraph::new(&d);
        let model = DelayModel::default();
        let report = graph.analyze(&d, &p, &model);

        // Edge consistency: arrival[to] ≥ arrival[from] + delay(edge).
        for e in graph.edges() {
            let pf = p.position(e.from);
            let pt = p.position(e.to);
            let delay = model.cell_delay
                + model.wire_delay_per_unit
                    * ((pf.x - pt.x).abs() + (pf.y - pt.y).abs());
            prop_assert!(
                report.arrival[e.to.index()] >= report.arrival[e.from.index()] + delay - 1e-9
            );
        }
        // Slacks non-negative; criticality within [0, 1].
        for (i, &s) in report.slack.iter().enumerate() {
            prop_assert!(s >= -1e-9, "cell {i} slack {s}");
        }
        for c in report.criticality() {
            prop_assert!((0.0..=1.0).contains(&c));
        }
        // Someone achieves (near-)zero slack: the critical path endpoint.
        let min_slack = report.slack.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(min_slack < 1e-9);
    }

    /// The extracted critical path is connected and its cells all carry
    /// (near-)critical criticality.
    #[test]
    fn critical_path_is_connected(
        layers in 3usize..6,
        edges in proptest::collection::vec((0usize..6, 0usize..4, 0usize..4), 5..40),
    ) {
        let (d, p) = layered_design(layers, 4, &edges);
        let graph = TimingGraph::new(&d);
        let model = DelayModel::default();
        let path = graph.critical_path(&d, &p, &model);
        prop_assert!(!path.is_empty());
        // Consecutive cells must share a net.
        for w in path.windows(2) {
            let nets_a: Vec<_> = d.cell_nets(w[0]).to_vec();
            let shares = d.cell_nets(w[1]).iter().any(|n| nets_a.contains(n));
            prop_assert!(shares, "path cells {:?} share no net", w);
        }
    }

    /// Reweighting preserves structure and scales exactly the chosen nets.
    #[test]
    fn reweight_preserves_structure(
        layers in 2usize..5,
        edges in proptest::collection::vec((0usize..5, 0usize..4, 0usize..4), 2..25),
        factor in 1.5f64..20.0,
    ) {
        let (d, _) = layered_design(layers, 4, &edges);
        let some_nets: Vec<_> = d.net_ids().step_by(2).collect();
        let d2 = reweight_nets(&d, &some_nets, factor).unwrap();
        prop_assert_eq!(d2.num_cells(), d.num_cells());
        prop_assert_eq!(d2.num_nets(), d.num_nets());
        prop_assert_eq!(d2.num_pins(), d.num_pins());
        for nid in d.net_ids() {
            let expect = if some_nets.contains(&nid) {
                d.net(nid).weight() * factor
            } else {
                d.net(nid).weight()
            };
            prop_assert!((d2.net(nid).weight() - expect).abs() < 1e-12);
        }
    }

    /// Delay scales monotonically with the wire-delay coefficient.
    #[test]
    fn delay_monotone_in_wire_coefficient(
        layers in 2usize..5,
        edges in proptest::collection::vec((0usize..5, 0usize..4, 0usize..4), 3..30),
    ) {
        let (d, p) = layered_design(layers, 4, &edges);
        let graph = TimingGraph::new(&d);
        let slow = graph.analyze(&d, &p, &DelayModel { cell_delay: 1.0, wire_delay_per_unit: 0.2 });
        let fast = graph.analyze(&d, &p, &DelayModel { cell_delay: 1.0, wire_delay_per_unit: 0.01 });
        prop_assert!(slow.critical_path_delay >= fast.critical_path_delay - 1e-9);
    }
}
