//! Lightweight static timing analysis for timing-driven placement
//! (paper Section 5, "Extensions for timing- and power-driven placement",
//! and Section S6).
//!
//! ComPLx's timing extension needs three ingredients, all provided here:
//!
//! 1. a **timing graph** over the netlist (each net's first pin drives the
//!    others — the Bookshelf format carries no directions, so this is the
//!    conventional assumption),
//! 2. **arrival/required/slack** propagation with a simple linear delay
//!    model (unit cell delay + distance-proportional wire delay), and
//! 3. per-cell **criticality** factors `γ_i` feeding the weighted penalty
//!    term of Formula 13, plus net-weight updates for `Φ`.
//!
//! The delay model is deliberately simple — the paper's own §S6 experiment
//! manipulates net weights rather than running a signoff STA — but the
//! plumbing (levelization, slack, criticality, path extraction) is the real
//! thing.
//!
//! # Example
//!
//! ```
//! use complx_netlist::generator::GeneratorConfig;
//! use complx_timing::{DelayModel, TimingGraph};
//!
//! let design = GeneratorConfig::small("t", 5).generate();
//! let placement = design.initial_placement();
//! let graph = TimingGraph::new(&design);
//! let report = graph.analyze(&design, &placement, &DelayModel::default());
//! assert!(report.critical_path_delay > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    forbid(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    ),
    deny(clippy::float_cmp, clippy::float_cmp_const)
)]

use complx_netlist::{CellId, Design, DesignBuilder, DesignError, NetId, Placement};

/// Delay model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    /// Fixed delay through a cell.
    pub cell_delay: f64,
    /// Wire delay per unit Manhattan distance (driver pin → sink pin).
    pub wire_delay_per_unit: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        Self {
            cell_delay: 1.0,
            wire_delay_per_unit: 0.01,
        }
    }
}

/// One directed timing edge: driver cell → sink cell through a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingEdge {
    /// Driving cell.
    pub from: CellId,
    /// Receiving cell.
    pub to: CellId,
    /// The net carrying the edge.
    pub net: NetId,
}

/// The levelized timing graph of a design.
///
/// Edges run from each net's first pin (the driver) to its remaining pins.
/// Cycles — possible in synthetic or incomplete netlists — are broken by
/// processing cells in Kahn order and dropping back edges from the residual
/// strongly-connected remainder.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    edges: Vec<TimingEdge>,
    /// Outgoing edge index per cell.
    out_edges: Vec<Vec<u32>>,
    /// Incoming edge index per cell.
    in_edges: Vec<Vec<u32>>,
    /// Topological order of cells (cycle-broken).
    topo: Vec<CellId>,
}

impl TimingGraph {
    /// Builds the graph for a design.
    pub fn new(design: &Design) -> Self {
        let n = design.num_cells();
        let mut edges = Vec::new();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        for nid in design.net_ids() {
            let pins = design.net_pins(nid);
            let driver = pins[0].cell;
            for pin in &pins[1..] {
                if pin.cell == driver {
                    continue;
                }
                let e = edges.len() as u32;
                edges.push(TimingEdge {
                    from: driver,
                    to: pin.cell,
                    net: nid,
                });
                out_edges[driver.index()].push(e);
                in_edges[pin.cell.index()].push(e);
            }
        }

        // Kahn levelization with cycle breaking: any remaining cells (inside
        // cycles) are appended in id order; their unresolved incoming edges
        // act as zero-arrival.
        let mut indeg: Vec<usize> = in_edges.iter().map(Vec::len).collect();
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        let mut done = vec![false; n];
        while let Some(i) = queue.pop_front() {
            done[i] = true;
            topo.push(CellId::from_index(i));
            for &e in &out_edges[i] {
                let t = edges[e as usize].to.index();
                indeg[t] -= 1;
                if indeg[t] == 0 && !done[t] {
                    queue.push_back(t);
                }
            }
        }
        for (i, &d) in done.iter().enumerate() {
            if !d {
                topo.push(CellId::from_index(i));
            }
        }

        Self {
            edges,
            out_edges,
            in_edges,
            topo,
        }
    }

    /// All timing edges.
    pub fn edges(&self) -> &[TimingEdge] {
        &self.edges
    }

    /// Runs arrival/required/slack propagation at a placement.
    pub fn analyze(
        &self,
        design: &Design,
        placement: &Placement,
        model: &DelayModel,
    ) -> TimingReport {
        let n = design.num_cells();
        let edge_delay = |e: &TimingEdge| -> f64 {
            let pf = placement.position(e.from);
            let pt = placement.position(e.to);
            model.cell_delay
                + model.wire_delay_per_unit * ((pf.x - pt.x).abs() + (pf.y - pt.y).abs())
        };

        // Forward: arrival times.
        let mut arrival = vec![0.0f64; n];
        for &c in &self.topo {
            for &e in &self.out_edges[c.index()] {
                let edge = &self.edges[e as usize];
                let a = arrival[c.index()] + edge_delay(edge);
                let t = edge.to.index();
                if a > arrival[t] {
                    arrival[t] = a;
                }
            }
        }
        let critical_path_delay = arrival.iter().cloned().fold(0.0f64, f64::max);

        // Backward: required times, anchored at the critical delay (zero
        // worst slack) unless a clock period is imposed by the caller later.
        let mut required = vec![critical_path_delay; n];
        for &c in self.topo.iter().rev() {
            for &e in &self.out_edges[c.index()] {
                let edge = &self.edges[e as usize];
                let r = required[edge.to.index()] - edge_delay(edge);
                let f = c.index();
                if r < required[f] {
                    required[f] = r;
                }
            }
        }

        let slack: Vec<f64> = arrival.iter().zip(&required).map(|(a, r)| r - a).collect();

        TimingReport {
            arrival,
            required,
            slack,
            critical_path_delay,
        }
    }

    /// Extracts the single most critical path (cells from start to end) at
    /// a placement: backtrack from the max-arrival endpoint through the
    /// predecessors that realize its arrival time.
    pub fn critical_path(
        &self,
        design: &Design,
        placement: &Placement,
        model: &DelayModel,
    ) -> Vec<CellId> {
        let report = self.analyze(design, placement, model);
        let Some((end, _)) = report
            .arrival
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
        else {
            return Vec::new();
        };
        let edge_delay = |e: &TimingEdge| -> f64 {
            let pf = placement.position(e.from);
            let pt = placement.position(e.to);
            model.cell_delay
                + model.wire_delay_per_unit * ((pf.x - pt.x).abs() + (pf.y - pt.y).abs())
        };
        let mut path = vec![CellId::from_index(end)];
        let mut cur = end;
        let mut guard = design.num_cells() + 1;
        while guard > 0 {
            guard -= 1;
            let mut best: Option<(f64, usize)> = None;
            for &e in &self.in_edges[cur] {
                let edge = &self.edges[e as usize];
                let a = report.arrival[edge.from.index()] + edge_delay(edge);
                if (a - report.arrival[cur]).abs() < 1e-9 && best.is_none_or(|(ba, _)| a > ba) {
                    best = Some((a, edge.from.index()));
                }
            }
            match best {
                Some((_, prev))
                    if report.arrival[prev] > 0.0 || !self.in_edges[prev].is_empty() =>
                {
                    path.push(CellId::from_index(prev));
                    cur = prev;
                    // Arrivals start at exactly 0.0
                    // and only grow by positive delays; exact zero identifies
                    // a path source.
                    if report.arrival[cur] == 0.0 {
                        break;
                    }
                }
                Some((_, prev)) => {
                    path.push(CellId::from_index(prev));
                    break;
                }
                None => break,
            }
        }
        path.reverse();
        path
    }

    /// The nets along a cell path (consecutive-pair connecting nets).
    pub fn path_nets(&self, path: &[CellId]) -> Vec<NetId> {
        let mut nets = Vec::new();
        for w in path.windows(2) {
            if let Some(e) = self.out_edges[w[0].index()]
                .iter()
                .find(|&&e| self.edges[e as usize].to == w[1])
            {
                nets.push(self.edges[*e as usize].net);
            }
        }
        nets.dedup();
        nets
    }
}

/// STA results, indexed by cell id.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Latest signal arrival time per cell.
    pub arrival: Vec<f64>,
    /// Required time per cell (anchored at zero worst slack).
    pub required: Vec<f64>,
    /// Slack per cell (`required − arrival`; 0 on the critical path).
    pub slack: Vec<f64>,
    /// The critical path delay.
    pub critical_path_delay: f64,
}

impl TimingReport {
    /// Per-cell criticality `γ_i ∈ [0, 1]`: 1 on the critical path, falling
    /// linearly with slack.
    pub fn criticality(&self) -> Vec<f64> {
        let t = self.critical_path_delay.max(f64::MIN_POSITIVE);
        self.slack
            .iter()
            .map(|s| (1.0 - s / t).clamp(0.0, 1.0))
            .collect()
    }
}

/// Per-net criticality: the maximum criticality over the cells on each net
/// (a cheap, standard proxy for the worst edge slack through the net).
pub fn net_criticality(design: &Design, report: &TimingReport) -> Vec<f64> {
    let crit = report.criticality();
    design
        .net_ids()
        .map(|nid| {
            design
                .net_pins(nid)
                .iter()
                .map(|p| crit[p.cell.index()])
                .fold(0.0f64, f64::max)
        })
        .collect()
}

/// Rebuilds `design` with the listed nets' weights replaced. Everything
/// else — cells, regions, alignments, γ — carries over through
/// [`DesignBuilder::from_design`], and cell and net ids are preserved.
fn with_weights(
    design: &Design,
    weights: impl IntoIterator<Item = (NetId, f64)>,
) -> Result<Design, DesignError> {
    let mut b = DesignBuilder::from_design(design);
    weights
        .into_iter()
        .try_for_each(|(nid, w)| b.set_net_weight(nid, w))?;
    b.build()
}

/// Rebuilds the design with per-net weight multipliers (indexed by net id).
/// This is the slack-based net-weighting of timing-driven placement
/// (paper Section 5, citing Chan, Cong & Radke's convergent schemes).
///
/// # Errors
///
/// Returns the [`DesignError`] of a scaled weight that overflows to ∞ or
/// underflows to 0.
///
/// # Panics
///
/// Panics if `factors` has the wrong length or contains a factor that is
/// not positive and finite.
pub fn scale_net_weights(design: &Design, factors: &[f64]) -> Result<Design, DesignError> {
    assert_eq!(factors.len(), design.num_nets(), "one factor per net");
    assert!(
        factors.iter().all(|&f| f > 0.0 && f.is_finite()),
        "weight factors must be positive and finite"
    );
    with_weights(
        design,
        design
            .net_ids()
            .map(|nid| (nid, design.net(nid).weight() * factors[nid.index()])),
    )
}

/// Scales the weights of the given nets by `factor` — the net-weighting
/// mechanism of §S6 ("subsequent ComPLx runs are performed with
/// progressively larger net weights on those paths"). Returns a new design
/// sharing everything else. A net listed twice is scaled once; ids that are
/// not nets of `design` are ignored.
///
/// # Errors
///
/// Returns the [`DesignError`] of a scaled weight that overflows to ∞ or
/// underflows to 0.
///
/// # Panics
///
/// Panics if `factor` is not positive and finite.
pub fn reweight_nets(design: &Design, nets: &[NetId], factor: f64) -> Result<Design, DesignError> {
    assert!(
        factor > 0.0 && factor.is_finite(),
        "weight factor must be positive and finite"
    );
    let boost: std::collections::BTreeSet<NetId> = nets
        .iter()
        .copied()
        .filter(|n| n.index() < design.num_nets())
        .collect();
    with_weights(
        design,
        boost
            .into_iter()
            .map(|nid| (nid, design.net(nid).weight() * factor)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::{
        generator::GeneratorConfig, AlignmentAxis, AlignmentConstraint, CellKind, Point, Rect,
        RegionConstraint,
    };

    /// A 3-stage chain: pad → a → b → c.
    fn chain() -> (Design, Vec<CellId>) {
        let mut b = DesignBuilder::new("ch", Rect::new(0.0, 0.0, 100.0, 10.0), 1.0);
        let pad = b
            .add_fixed_cell("pad", 1.0, 1.0, CellKind::Terminal, Point::new(0.0, 5.0))
            .unwrap();
        let ca = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let cb = b.add_cell("b", 1.0, 1.0, CellKind::Movable).unwrap();
        let cc = b.add_cell("c", 1.0, 1.0, CellKind::Movable).unwrap();
        b.add_net("n0", 1.0, vec![(pad, 0.0, 0.0), (ca, 0.0, 0.0)])
            .unwrap();
        b.add_net("n1", 1.0, vec![(ca, 0.0, 0.0), (cb, 0.0, 0.0)])
            .unwrap();
        b.add_net("n2", 1.0, vec![(cb, 0.0, 0.0), (cc, 0.0, 0.0)])
            .unwrap();
        (b.build().unwrap(), vec![pad, ca, cb, cc])
    }

    #[test]
    fn chain_arrival_times_accumulate() {
        let (d, ids) = chain();
        let mut p = d.initial_placement();
        for (k, &id) in ids.iter().enumerate().skip(1) {
            p.set_position(id, Point::new(10.0 * k as f64, 5.0));
        }
        let g = TimingGraph::new(&d);
        let model = DelayModel {
            cell_delay: 1.0,
            wire_delay_per_unit: 0.1,
        };
        let rep = g.analyze(&d, &p, &model);
        // pad→a: 1 + 0.1·10 = 2; a→b: +2; b→c: +2 → arrival(c) = 6.
        assert!((rep.arrival[ids[3].index()] - 6.0).abs() < 1e-9);
        assert!((rep.critical_path_delay - 6.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_has_zero_slack() {
        let (d, ids) = chain();
        let mut p = d.initial_placement();
        for (k, &id) in ids.iter().enumerate().skip(1) {
            p.set_position(id, Point::new(10.0 * k as f64, 5.0));
        }
        let g = TimingGraph::new(&d);
        let rep = g.analyze(&d, &p, &DelayModel::default());
        for &id in &ids {
            assert!(rep.slack[id.index()].abs() < 1e-9, "chain is the only path");
        }
        let crit = rep.criticality();
        assert!(crit.iter().all(|&c| (c - 1.0).abs() < 1e-9 || c == 1.0));
    }

    #[test]
    fn critical_path_extraction_follows_chain() {
        let (d, ids) = chain();
        let mut p = d.initial_placement();
        for (k, &id) in ids.iter().enumerate().skip(1) {
            p.set_position(id, Point::new(10.0 * k as f64, 5.0));
        }
        let g = TimingGraph::new(&d);
        let path = g.critical_path(&d, &p, &DelayModel::default());
        assert_eq!(*path.last().unwrap(), ids[3]);
        assert!(path.len() >= 3);
        let nets = g.path_nets(&path);
        assert!(!nets.is_empty());
    }

    #[test]
    fn moving_cells_apart_increases_delay() {
        let (d, ids) = chain();
        let mut near = d.initial_placement();
        let mut far = d.initial_placement();
        for (k, &id) in ids.iter().enumerate().skip(1) {
            near.set_position(id, Point::new(k as f64, 5.0));
            far.set_position(id, Point::new(30.0 * k as f64, 5.0));
        }
        let g = TimingGraph::new(&d);
        let m = DelayModel::default();
        assert!(
            g.analyze(&d, &far, &m).critical_path_delay
                > g.analyze(&d, &near, &m).critical_path_delay
        );
    }

    #[test]
    fn cycles_are_tolerated() {
        let mut b = DesignBuilder::new("cyc", Rect::new(0.0, 0.0, 10.0, 10.0), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("b", 1.0, 1.0, CellKind::Movable).unwrap();
        // a drives b and b drives a — a combinational loop.
        b.add_net("n0", 1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .unwrap();
        b.add_net("n1", 1.0, vec![(c, 0.0, 0.0), (a, 0.0, 0.0)])
            .unwrap();
        let d = b.build().unwrap();
        let g = TimingGraph::new(&d);
        let rep = g.analyze(&d, &d.initial_placement(), &DelayModel::default());
        assert!(rep.critical_path_delay.is_finite());
    }

    #[test]
    fn reweight_scales_only_selected_nets() {
        let d = GeneratorConfig::small("rw", 3).generate();
        let target = d.net_ids().next().unwrap();
        let d2 = reweight_nets(&d, &[target], 10.0).unwrap();
        assert_eq!(d2.net(target).weight(), d.net(target).weight() * 10.0);
        let other = d.net_ids().nth(1).unwrap();
        assert_eq!(d2.net(other).weight(), d.net(other).weight());
        assert_eq!(d2.num_pins(), d.num_pins());
    }

    #[test]
    fn reweighting_keeps_regions_and_alignments() {
        let base = GeneratorConfig::small("rk", 6).generate();
        let core = base.core();
        let cells = base.movable_cells();
        let mut b = DesignBuilder::from_design(&base);
        b.add_region(RegionConstraint::new(
            "r",
            Rect::new(core.lx, core.ly, core.center().x, core.center().y),
            cells[..4].to_vec(),
        ));
        b.add_alignment(AlignmentConstraint::new(
            "a",
            AlignmentAxis::Horizontal,
            cells[4..8].to_vec(),
        ));
        let d = b.build().unwrap();
        let first = d.net_ids().next().unwrap();
        let factors = vec![2.0; d.num_nets()];
        for derived in [
            reweight_nets(&d, &[first], 3.0).unwrap(),
            scale_net_weights(&d, &factors).unwrap(),
        ] {
            assert_eq!(derived.regions(), d.regions());
            assert_eq!(derived.alignments(), d.alignments());
            assert_eq!(derived.target_density(), d.target_density());
        }
    }

    #[test]
    #[should_panic(expected = "weight factor must be positive and finite")]
    fn reweight_rejects_non_finite_factor() {
        let d = GeneratorConfig::small("rn", 3).generate();
        let first = d.net_ids().next().unwrap();
        let _ = reweight_nets(&d, &[first], f64::NAN);
    }

    #[test]
    fn overflowing_weight_is_an_error_not_a_panic() {
        let mut b = DesignBuilder::new("big", Rect::new(0.0, 0.0, 10.0, 10.0), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("b", 1.0, 1.0, CellKind::Movable).unwrap();
        b.add_net("n0", 1e308, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .unwrap();
        let d = b.build().unwrap();
        let n0 = d.net_ids().next().unwrap();
        assert!(matches!(
            reweight_nets(&d, &[n0], 20.0),
            Err(DesignError::InvalidWeight { .. })
        ));
        assert!(scale_net_weights(&d, &[20.0]).is_err());
    }

    #[test]
    fn criticality_in_unit_range() {
        let d = GeneratorConfig::small("cr", 4).generate();
        let g = TimingGraph::new(&d);
        let rep = g.analyze(&d, &d.initial_placement(), &DelayModel::default());
        for c in rep.criticality() {
            assert!((0.0..=1.0).contains(&c));
        }
    }
}
