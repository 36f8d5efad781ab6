//! Timing-driven placement (paper Section 5 "Extensions for timing- and
//! power-driven placement" and Section S6).
//!
//! Two mechanisms from the paper compose here:
//!
//! 1. **Net weighting in Φ** — critical nets get larger weights `w_e`
//!    (Formula 1 already carries weights; §S6 demonstrates 1× → 20× → 40×).
//! 2. **Criticality-weighted penalty** — Formula 13 replaces
//!    `λ‖(x,y) − (x°,y°)‖₁` by `λ(γ⃗·|(x,y) − (x°,y°)|)`, and when STA finds
//!    a cell on a violating path its criticality grows:
//!    `γ_i ← γ_i(1 + δ)`.

use complx_netlist::{Design, NetId};
use complx_timing::{DelayModel, TimingGraph};

use crate::config::PlacerConfig;
use crate::error::PlaceError;
use crate::placer::{ComplxPlacer, PlacementOutcome};

/// Timing-driven placement flow: place → STA → boost criticalities and net
/// weights → re-place, for a configured number of rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingDrivenPlacer {
    /// Base placer configuration.
    pub placer: PlacerConfig,
    /// Delay model for STA between placement rounds.
    pub delay: DelayModel,
    /// Number of STA/replace rounds after the initial placement.
    pub rounds: usize,
    /// Criticality increment δ (Formula 13's `γ_i ← γ_i(1+δ)`).
    pub delta: f64,
    /// Net-weight multiplier applied to critical-path nets each round.
    pub net_weight_boost: f64,
    /// Slack threshold (as a fraction of the critical delay) below which a
    /// cell counts as critical.
    pub critical_fraction: f64,
}

impl Default for TimingDrivenPlacer {
    fn default() -> Self {
        Self {
            placer: PlacerConfig::default(),
            delay: DelayModel::default(),
            rounds: 2,
            delta: 0.5,
            net_weight_boost: 2.0,
            critical_fraction: 0.1,
        }
    }
}

/// Result of a timing-driven flow.
#[derive(Debug, Clone)]
pub struct TimingDrivenOutcome {
    /// The best placement outcome over all rounds (by critical delay, ties
    /// broken toward lower HPWL). Net-weighting rounds explore — on small
    /// designs a round can regress — so the flow keeps the best snapshot.
    pub outcome: PlacementOutcome,
    /// Critical path delay after each round (index 0 = initial placement).
    pub critical_delays: Vec<f64>,
    /// The critical delay of the returned (best) outcome.
    pub best_delay: f64,
    /// The nets that were boosted in the final round.
    pub boosted_nets: Vec<NetId>,
}

impl TimingDrivenPlacer {
    /// Runs the full flow on a design.
    ///
    /// # Errors
    ///
    /// Propagates any [`PlaceError`] from the underlying placement rounds,
    /// and returns [`PlaceError::InvalidDesign`] when a boosted net weight
    /// overflows.
    pub fn place(&self, design: &Design) -> Result<TimingDrivenOutcome, PlaceError> {
        let mut working = design.clone();
        let mut criticality = vec![1.0f64; design.num_cells()];
        let mut outcome = ComplxPlacer::new(self.placer.clone()).place(&working)?;
        let mut delays = Vec::with_capacity(self.rounds + 1);
        let mut boosted: Vec<NetId> = Vec::new();

        let graph = TimingGraph::new(design);
        let d0 = graph
            .analyze(design, &outcome.legal, &self.delay)
            .critical_path_delay;
        delays.push(d0);
        let mut best = (d0, outcome.hpwl_legal, outcome.clone());

        for _ in 0..self.rounds {
            let report = graph.analyze(design, &outcome.legal, &self.delay);
            let crit = report.criticality();
            // Update per-cell criticality multipliers (Formula 13).
            let threshold = 1.0 - self.critical_fraction;
            for (i, &c) in crit.iter().enumerate() {
                if c >= threshold {
                    criticality[i] *= 1.0 + self.delta;
                }
            }
            // Slack-based net weighting over ALL near-critical nets (the
            // convergent-scheme style of Chan–Cong–Radke, which the paper
            // defers to): each net's weight grows with its criticality.
            // Boosting only the single worst path whack-a-moles between
            // paths and can diverge.
            let net_crit = complx_timing::net_criticality(design, &report);
            let factors: Vec<f64> = net_crit
                .iter()
                .map(|&c| {
                    if c >= threshold {
                        1.0 + (self.net_weight_boost - 1.0) * c
                    } else {
                        1.0
                    }
                })
                .collect();
            boosted = design
                .net_ids()
                .filter(|n| factors[n.index()] > 1.0)
                .collect();
            working = complx_timing::scale_net_weights(&working, &factors).map_err(|e| {
                PlaceError::InvalidDesign {
                    reason: e.to_string(),
                }
            })?;
            outcome = ComplxPlacer::new(self.placer.clone())
                .place_with_criticality(&working, Some(&criticality))?;
            let delay = graph
                .analyze(design, &outcome.legal, &self.delay)
                .critical_path_delay;
            delays.push(delay);
            if (delay, outcome.hpwl_legal) < (best.0, best.1) {
                best = (delay, outcome.hpwl_legal, outcome.clone());
            }
        }

        Ok(TimingDrivenOutcome {
            outcome: best.2,
            critical_delays: delays,
            best_delay: best.0,
            boosted_nets: boosted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::generator::GeneratorConfig;

    #[test]
    fn timing_flow_runs_and_tracks_delays() {
        let d = GeneratorConfig::small("td", 81).generate();
        let flow = TimingDrivenPlacer {
            placer: PlacerConfig::fast(),
            rounds: 1,
            ..TimingDrivenPlacer::default()
        };
        let res = flow.place(&d).unwrap();
        assert_eq!(res.critical_delays.len(), 2);
        assert!(res
            .critical_delays
            .iter()
            .all(|&t| t.is_finite() && t > 0.0));
        assert!(res.outcome.hpwl_legal > 0.0);
    }

    #[test]
    fn boosting_shortens_selected_path_without_hpwl_blowup() {
        // The §S6 claim: large weights on a few nets shrink those paths
        // while total HPWL stays put.
        let d = GeneratorConfig::small("td2", 82).generate();
        let base = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        let graph = TimingGraph::new(&d);
        let model = DelayModel::default();
        let path = graph.critical_path(&d, &base.legal, &model);
        let nets = graph.path_nets(&path);
        if nets.is_empty() {
            return; // degenerate tiny design; nothing to boost
        }
        let path_len = |p: &complx_netlist::Placement| -> f64 {
            nets.iter()
                .map(|&n| complx_netlist::hpwl::net_hpwl(&d, p, n))
                .sum()
        };
        let before = path_len(&base.legal);
        let boosted_design = complx_timing::reweight_nets(&d, &nets, 20.0).unwrap();
        let boosted = ComplxPlacer::new(PlacerConfig::fast())
            .place(&boosted_design)
            .unwrap();
        let after = path_len(&boosted.legal);
        assert!(
            after < before * 1.02,
            "boosted path length {after} vs original {before}"
        );
        // Total HPWL unaffected within a few percent (measure on d's
        // unit-weight HPWL in both cases).
        let h_before = complx_netlist::hpwl::hpwl(&d, &base.legal);
        let h_after = complx_netlist::hpwl::hpwl(&d, &boosted.legal);
        assert!(
            h_after < h_before * 1.1,
            "total HPWL blew up: {h_before} -> {h_after}"
        );
    }
}
