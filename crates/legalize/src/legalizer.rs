//! The legalization orchestrator: macros first, then standard cells.

use complx_netlist::{Design, Placement};

use crate::abacus::abacus_legalize;
use crate::macros::legalize_macros;
use crate::rows::RowLayout;

/// A legalized placement plus diagnostics.
#[derive(Debug, Clone)]
pub struct LegalPlacement {
    /// The legal placement.
    pub placement: Placement,
    /// Total L1 displacement from the input placement.
    pub displacement: f64,
    /// Number of cells (including macros) that could not be placed legally.
    pub failures: usize,
}

/// Legalization entry point: legalizes movable macros by spiral search,
/// carves their footprints out of the row structure, then legalizes
/// standard cells row by row with Abacus. Build it with
/// `Legalizer::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct Legalizer;

impl Legalizer {
    /// Produces a legal placement from a (global) placement.
    pub fn legalize(&self, design: &Design, placement: &Placement) -> LegalPlacement {
        let _span = complx_obs::span("legalize");
        let mut out = placement.clone();
        let (macro_rects, macro_failures) = legalize_macros(design, &mut out);
        let rows = RowLayout::new(design, &macro_rects);
        let std_failures = abacus_legalize(design, &rows, &mut out);
        let displacement = placement.l1_distance(&out);
        complx_obs::add("legalize.runs", 1);
        complx_obs::add("legalize.failures", (macro_failures + std_failures) as u64);
        complx_obs::observe("legalize.displacement", displacement);
        LegalPlacement {
            displacement,
            placement: out,
            failures: macro_failures + std_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_legal, legality_report};
    use complx_netlist::generator::GeneratorConfig;

    #[test]
    fn spread_start_legalizes() {
        let d = GeneratorConfig::small("l", 51).generate();
        // A mildly spread starting point, as produced by global placement.
        let core = d.core();
        let mut start = d.initial_placement();
        for (i, &id) in d.movable_cells().iter().enumerate() {
            let fx = (i as f64 * 0.61803) % 1.0;
            let fy = (i as f64 * 0.31415) % 1.0;
            start.set_position(
                id,
                complx_netlist::Point::new(
                    core.lx + fx * core.width(),
                    core.ly + fy * core.height(),
                ),
            );
        }
        let res = Legalizer::default().legalize(&d, &start);
        assert_eq!(res.failures, 0);
        assert!(is_legal(&d, &res.placement, 1e-6));
    }

    #[test]
    fn mixed_size_designs_legalize() {
        let d = GeneratorConfig::ispd2006_like("lm", 52, 500, 0.7).generate();
        let res = Legalizer::default().legalize(&d, &d.initial_placement());
        assert_eq!(res.failures, 0);
        let rep = legality_report(&d, &res.placement);
        assert!(rep.is_legal(1e-6), "{rep:?}");
    }

    #[test]
    fn displacement_reported() {
        let d = GeneratorConfig::small("ld", 53).generate();
        let res = Legalizer::default().legalize(&d, &d.initial_placement());
        assert!(res.displacement > 0.0);
    }
}
