//! The immutable netlist/design container and its builder.

use std::collections::HashMap;

use crate::cell::{Cell, CellId, CellKind};
use crate::error::DesignError;
use crate::geom::{Point, Rect};
use crate::net::{Net, NetId, Pin};
use crate::placement::Placement;
use crate::region::{AlignmentConstraint, RegionConstraint};

/// An immutable placement instance: cells, nets, pins, the core region, row
/// geometry, the density target γ, the initial (input) locations of fixed
/// objects, and optional region constraints.
///
/// Construct one with [`DesignBuilder`], the Bookshelf parser
/// ([`crate::bookshelf::read_aux`]), or the synthetic generator
/// ([`crate::generator`]).
#[derive(Debug, Clone)]
pub struct Design {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
    core: Rect,
    row_height: f64,
    target_density: f64,
    fixed_positions: Placement,
    regions: Vec<RegionConstraint>,
    alignments: Vec<AlignmentConstraint>,
    /// For each cell, the ids of nets it participates in (deduplicated).
    cell_nets: Vec<Vec<NetId>>,
    movable: Vec<CellId>,
}

impl Design {
    /// The design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells (movable + fixed + terminals).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of pins over all nets.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// The cell with the given id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with the given id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Iterates over all cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len()).map(|i| CellId(i as u32))
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(|i| NetId(i as u32))
    }

    /// Ids of all movable cells (standard cells and movable macros).
    pub fn movable_cells(&self) -> &[CellId] {
        &self.movable
    }

    /// The pins of a net.
    pub fn net_pins(&self, id: NetId) -> &[Pin] {
        &self.pins[self.nets[id.index()].pin_range()]
    }

    /// The nets incident to a cell (deduplicated).
    pub fn cell_nets(&self, id: CellId) -> &[NetId] {
        &self.cell_nets[id.index()]
    }

    /// The placeable core region.
    pub fn core(&self) -> Rect {
        self.core
    }

    /// The standard-cell row height.
    pub fn row_height(&self) -> f64 {
        self.row_height
    }

    /// The target utilization/density limit γ ∈ (0, 1]; the feasibility
    /// projection spreads cells until every bin satisfies it.
    pub fn target_density(&self) -> f64 {
        self.target_density
    }

    /// Positions of fixed cells and terminals (movable entries are the
    /// generator's suggested starting points and may be ignored).
    pub fn fixed_positions(&self) -> &Placement {
        &self.fixed_positions
    }

    /// Hard region constraints (empty for unconstrained designs).
    pub fn regions(&self) -> &[RegionConstraint] {
        &self.regions
    }

    /// Alignment constraints (empty for unconstrained designs).
    pub fn alignments(&self) -> &[AlignmentConstraint] {
        &self.alignments
    }

    /// Looks up a cell by name.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cells
            .iter()
            .position(|c| c.name() == name)
            .map(|i| CellId(i as u32))
    }

    /// Total area of movable cells.
    pub fn movable_area(&self) -> f64 {
        self.movable.iter().map(|&id| self.cell(id).area()).sum()
    }

    /// Total area of fixed, capacity-blocking obstacles inside the core.
    pub fn obstacle_area(&self) -> f64 {
        self.cell_ids()
            .filter(|&id| self.cell(id).kind().blocks_capacity())
            .map(|id| {
                let c = self.cell(id);
                let r = self.fixed_positions.cell_rect(id, c.width(), c.height());
                r.overlap_area(&self.core)
            })
            .sum()
    }

    /// Average standard-cell area (used to scale per-macro λ, Section 5).
    pub fn mean_std_cell_area(&self) -> f64 {
        let std_cells: Vec<_> = self
            .movable
            .iter()
            .filter(|&&id| self.cell(id).kind() == CellKind::Movable)
            .collect();
        if std_cells.is_empty() {
            return 0.0;
        }
        std_cells
            .iter()
            .map(|&&id| self.cell(id).area())
            .sum::<f64>()
            / std_cells.len() as f64
    }

    /// A fresh placement seeded with fixed positions; movable cells start at
    /// the core center (the standard initialization for quadratic placement).
    pub fn initial_placement(&self) -> Placement {
        let mut p = self.fixed_positions.clone();
        let c = self.core.center();
        for &id in &self.movable {
            p.set_position(id, c);
        }
        p
    }
}

/// Incremental builder for [`Design`]. Validates names, dimensions, net
/// weights and pin offsets as they are added, and constraint references at
/// [`DesignBuilder::build`]. [`DesignBuilder::from_design`] is the one way
/// to derive a design from another.
///
/// # Example
///
/// ```
/// use complx_netlist::{CellKind, DesignBuilder, Point, Rect};
///
/// # fn main() -> Result<(), complx_netlist::DesignError> {
/// let mut b = DesignBuilder::new("tiny", Rect::new(0.0, 0.0, 100.0, 100.0), 1.0);
/// let a = b.add_cell("a", 2.0, 1.0, CellKind::Movable)?;
/// let p = b.add_fixed_cell("pad", 1.0, 1.0, CellKind::Terminal, Point::new(0.0, 50.0))?;
/// b.add_net("n1", 1.0, vec![(a, 0.0, 0.0), (p, 0.0, 0.0)])?;
/// let design = b.build()?;
/// assert_eq!(design.num_cells(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DesignBuilder {
    name: String,
    core: Rect,
    row_height: f64,
    target_density: f64,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
    fixed_pos: Vec<Point>,
    regions: Vec<RegionConstraint>,
    alignments: Vec<AlignmentConstraint>,
    /// Name → id, for the duplicate-name check only: never iterated, so its
    /// order cannot reach an f64 accumulation.
    names: HashMap<String, CellId>,
}

impl DesignBuilder {
    /// Starts a design with the given core region and row height. The
    /// density target defaults to `1.0` (no extra whitespace required).
    pub fn new(name: impl Into<String>, core: Rect, row_height: f64) -> Self {
        Self {
            name: name.into(),
            core,
            row_height,
            target_density: 1.0,
            cells: Vec::new(),
            nets: Vec::new(),
            pins: Vec::new(),
            fixed_pos: Vec::new(),
            regions: Vec::new(),
            alignments: Vec::new(),
            names: HashMap::new(),
        }
    }

    /// Starts a builder that already holds everything `design` has: name,
    /// core, row height, γ, cells, nets, pins, fixed positions, regions and
    /// alignments. `from_design(&d).build()` reproduces `d` exactly (a
    /// movable cell's stored start is the core centre, as [`Self::add_cell`]
    /// sets it), and cell and net ids carry over. Adding a cell whose name
    /// already exists is still rejected.
    pub fn from_design(design: &Design) -> Self {
        let fixed = &design.fixed_positions;
        Self {
            name: design.name.clone(),
            core: design.core,
            row_height: design.row_height,
            target_density: design.target_density,
            cells: design.cells.clone(),
            nets: design.nets.clone(),
            pins: design.pins.clone(),
            fixed_pos: design.cell_ids().map(|id| fixed.position(id)).collect(),
            regions: design.regions.clone(),
            alignments: design.alignments.clone(),
            names: design
                .cells
                .iter()
                .enumerate()
                .map(|(i, c)| (c.name().to_string(), CellId(i as u32)))
                .collect(),
        }
    }

    /// Sets the target utilization/density limit γ.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < gamma ≤ 1`.
    pub fn set_target_density(&mut self, gamma: f64) -> Result<(), DesignError> {
        if !(gamma > 0.0 && gamma <= 1.0) {
            return Err(DesignError::InvalidDensity(gamma));
        }
        self.target_density = gamma;
        Ok(())
    }

    /// Adds a movable cell; its start location defaults to the core center.
    ///
    /// # Errors
    ///
    /// Returns an error for duplicate names, non-positive dimensions, or a
    /// non-movable `kind`.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        kind: CellKind,
    ) -> Result<CellId, DesignError> {
        if !kind.is_movable() {
            return Err(DesignError::KindMismatch(
                "add_cell requires a movable kind; use add_fixed_cell",
            ));
        }
        self.push_cell(name.into(), width, height, kind, self.core.center())
    }

    /// Adds a fixed cell or terminal at center position `pos`.
    ///
    /// # Errors
    ///
    /// Returns an error for duplicate names, negative or non-finite
    /// dimensions, or a movable `kind`. Zero-area fixed cells are accepted:
    /// Bookshelf pad terminals are commonly 0 × 0.
    pub fn add_fixed_cell(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        kind: CellKind,
        pos: Point,
    ) -> Result<CellId, DesignError> {
        if kind.is_movable() {
            return Err(DesignError::KindMismatch(
                "add_fixed_cell requires a fixed kind; use add_cell",
            ));
        }
        self.push_cell(name.into(), width, height, kind, pos)
    }

    fn push_cell(
        &mut self,
        name: String,
        width: f64,
        height: f64,
        kind: CellKind,
        pos: Point,
    ) -> Result<CellId, DesignError> {
        // Movable cells must have positive area (they participate in density
        // and legalization); fixed cells and terminals may be zero-area —
        // Bookshelf pads frequently are. Non-finite dimensions are never
        // acceptable: NaN would silently poison every downstream area sum.
        let invalid = if kind.is_movable() {
            width <= 0.0 || height <= 0.0
        } else {
            width < 0.0 || height < 0.0
        };
        if invalid || !width.is_finite() || !height.is_finite() {
            return Err(DesignError::InvalidDimensions {
                name,
                width,
                height,
            });
        }
        if self.names.contains_key(&name) {
            return Err(DesignError::DuplicateCell(name));
        }
        let id = CellId(self.cells.len() as u32);
        self.names.insert(name.clone(), id);
        self.cells.push(Cell::new(name, width, height, kind));
        self.fixed_pos.push(pos);
        Ok(id)
    }

    /// Adds a net over `(cell, pin-offset-x, pin-offset-y)` tuples.
    ///
    /// # Errors
    ///
    /// Returns an error if the net has fewer than two pins, a weight that is
    /// not positive and finite, a non-finite pin offset, or references an
    /// unknown cell.
    pub fn add_net(
        &mut self,
        name: impl Into<String>,
        weight: f64,
        pins: Vec<(CellId, f64, f64)>,
    ) -> Result<NetId, DesignError> {
        let name = name.into();
        if pins.len() < 2 {
            return Err(DesignError::DegenerateNet(name));
        }
        check_weight(&name, weight)?;
        for &(cell, dx, dy) in &pins {
            if cell.index() >= self.cells.len() {
                return Err(DesignError::UnknownCell(cell.index()));
            }
            if !dx.is_finite() || !dy.is_finite() {
                return Err(DesignError::InvalidPinOffset { net: name, dx, dy });
            }
        }
        let id = NetId(self.nets.len() as u32);
        let pin_start = self.pins.len() as u32;
        self.pins
            .extend(pins.into_iter().map(|(c, dx, dy)| Pin::new(c, dx, dy)));
        let pin_end = self.pins.len() as u32;
        self.nets.push(Net {
            name,
            weight,
            pin_start,
            pin_end,
        });
        Ok(id)
    }

    /// Replaces the weight of an already added net.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown net or a weight that is not positive
    /// and finite (the check [`Self::add_net`] applies).
    pub fn set_net_weight(&mut self, net: NetId, weight: f64) -> Result<(), DesignError> {
        let n = self
            .nets
            .get_mut(net.index())
            .ok_or(DesignError::UnknownNet(net.index()))?;
        check_weight(&n.name, weight)?;
        n.weight = weight;
        Ok(())
    }

    /// Adds a hard region constraint (validated against the core at build).
    pub fn add_region(&mut self, region: RegionConstraint) {
        self.regions.push(region);
    }

    /// Adds an alignment constraint (validated at build: all cells must be
    /// movable and exist).
    pub fn add_alignment(&mut self, alignment: AlignmentConstraint) {
        self.alignments.push(alignment);
    }

    /// Finalizes the design.
    ///
    /// # Errors
    ///
    /// Returns an error if a region references an unknown or fixed cell, or
    /// if its rectangle leaves the core.
    pub fn build(self) -> Result<Design, DesignError> {
        for a in &self.alignments {
            for &c in a.cells() {
                if c.index() >= self.cells.len() {
                    return Err(DesignError::UnknownCell(c.index()));
                }
                if !self.cells[c.index()].is_movable() {
                    return Err(DesignError::RegionOnFixedCell {
                        region: a.name().to_string(),
                        cell: self.cells[c.index()].name().to_string(),
                    });
                }
            }
        }
        for r in &self.regions {
            if r.rect().lx < self.core.lx
                || r.rect().ly < self.core.ly
                || r.rect().hx > self.core.hx
                || r.rect().hy > self.core.hy
            {
                return Err(DesignError::RegionOutsideCore(r.name().to_string()));
            }
            for &c in r.cells() {
                if c.index() >= self.cells.len() {
                    return Err(DesignError::UnknownCell(c.index()));
                }
                if !self.cells[c.index()].is_movable() {
                    return Err(DesignError::RegionOnFixedCell {
                        region: r.name().to_string(),
                        cell: self.cells[c.index()].name().to_string(),
                    });
                }
            }
        }

        let mut cell_nets: Vec<Vec<NetId>> = vec![Vec::new(); self.cells.len()];
        for (ni, net) in self.nets.iter().enumerate() {
            let nid = NetId(ni as u32);
            for pin in &self.pins[net.pin_range()] {
                let list = &mut cell_nets[pin.cell.index()];
                if list.last() != Some(&nid) {
                    list.push(nid);
                }
            }
        }
        for list in &mut cell_nets {
            list.sort_unstable();
            list.dedup();
        }

        let movable: Vec<CellId> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_movable())
            .map(|(i, _)| CellId(i as u32))
            .collect();

        let mut fixed_positions = Placement::zeros(self.cells.len());
        for (i, p) in self.fixed_pos.iter().enumerate() {
            fixed_positions.set_position(CellId(i as u32), *p);
        }

        Ok(Design {
            name: self.name,
            cells: self.cells,
            nets: self.nets,
            pins: self.pins,
            core: self.core,
            row_height: self.row_height,
            target_density: self.target_density,
            fixed_positions,
            regions: self.regions,
            alignments: self.alignments,
            cell_nets,
            movable,
        })
    }
}

/// The one net-weight rule: positive and finite. NaN or ∞ would poison
/// every quadratic system assembled from the net.
fn check_weight(net: &str, weight: f64) -> Result<(), DesignError> {
    if weight > 0.0 && weight.is_finite() {
        Ok(())
    } else {
        Err(DesignError::InvalidWeight {
            net: net.to_string(),
            weight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    #[test]
    fn build_small_design() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("b", 2.0, 1.0, CellKind::Movable).unwrap();
        let p = b
            .add_fixed_cell("p", 1.0, 1.0, CellKind::Terminal, Point::new(0.0, 0.0))
            .unwrap();
        b.add_net("n0", 1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .unwrap();
        b.add_net("n1", 2.0, vec![(c, 0.5, 0.0), (p, 0.0, 0.0)])
            .unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.num_cells(), 3);
        assert_eq!(d.num_nets(), 2);
        assert_eq!(d.num_pins(), 4);
        assert_eq!(d.movable_cells(), &[a, c]);
        assert_eq!(d.cell_nets(c).len(), 2);
        assert_eq!(d.cell_nets(a).len(), 1);
        assert_eq!(d.movable_area(), 3.0);
        assert_eq!(d.find_cell("b"), Some(c));
        assert_eq!(d.find_cell("zz"), None);
    }

    #[test]
    fn duplicate_cell_rejected() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let err = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap_err();
        assert!(matches!(err, DesignError::DuplicateCell(_)));
    }

    #[test]
    fn bad_dimensions_rejected() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        assert!(b.add_cell("a", 0.0, 1.0, CellKind::Movable).is_err());
        assert!(b.add_cell("b", 1.0, -1.0, CellKind::Movable).is_err());
    }

    #[test]
    fn one_pin_net_rejected() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        assert!(matches!(
            b.add_net("n", 1.0, vec![(a, 0.0, 0.0)]),
            Err(DesignError::DegenerateNet(_))
        ));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        assert!(b.add_cell("a", 1.0, 1.0, CellKind::Fixed).is_err());
        assert!(b
            .add_fixed_cell("b", 1.0, 1.0, CellKind::Movable, Point::default())
            .is_err());
    }

    #[test]
    fn density_validation() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        assert!(b.set_target_density(0.0).is_err());
        assert!(b.set_target_density(1.5).is_err());
        assert!(b.set_target_density(0.5).is_ok());
        let d = b.build().unwrap();
        assert_eq!(d.target_density(), 0.5);
    }

    #[test]
    fn region_validation() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        b.add_region(RegionConstraint::new(
            "r",
            Rect::new(0.0, 0.0, 200.0, 10.0),
            vec![a],
        ));
        assert!(matches!(b.build(), Err(DesignError::RegionOutsideCore(_))));
    }

    #[test]
    fn region_on_fixed_cell_rejected() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        let f = b
            .add_fixed_cell("f", 1.0, 1.0, CellKind::Fixed, Point::new(5.0, 5.0))
            .unwrap();
        b.add_region(RegionConstraint::new(
            "r",
            Rect::new(0.0, 0.0, 10.0, 10.0),
            vec![f],
        ));
        assert!(matches!(
            b.build(),
            Err(DesignError::RegionOnFixedCell { .. })
        ));
    }

    #[test]
    fn initial_placement_centers_movables() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let f = b
            .add_fixed_cell("f", 1.0, 1.0, CellKind::Fixed, Point::new(5.0, 6.0))
            .unwrap();
        let d = b.build().unwrap();
        let p = d.initial_placement();
        assert_eq!(p.position(a), Point::new(50.0, 50.0));
        assert_eq!(p.position(f), Point::new(5.0, 6.0));
    }

    /// An ISPD-2006-like design (γ < 1, movable macros) with one region
    /// and one alignment attached.
    fn constrained_ispd2006() -> Design {
        use crate::generator::GeneratorConfig;
        use crate::region::AlignmentAxis;
        let base = GeneratorConfig::ispd2006_like("fd", 11, 400, 0.8).generate();
        let c = base.core();
        let std: Vec<CellId> = base
            .movable_cells()
            .iter()
            .copied()
            .filter(|&id| base.cell(id).kind() == CellKind::Movable)
            .collect();
        let mut b = DesignBuilder::from_design(&base);
        b.add_region(RegionConstraint::new(
            "r",
            Rect::new(c.lx, c.ly, c.center().x, c.center().y),
            std[..5].to_vec(),
        ));
        b.add_alignment(AlignmentConstraint::new(
            "a",
            AlignmentAxis::Vertical,
            std[5..9].to_vec(),
        ));
        b.build().unwrap()
    }

    #[test]
    fn from_design_round_trips_every_accessor() {
        let d = constrained_ispd2006();
        assert!(d.target_density() < 1.0);
        assert!(d
            .movable_cells()
            .iter()
            .any(|&id| d.cell(id).kind() == CellKind::MovableMacro));
        let e = DesignBuilder::from_design(&d).build().unwrap();
        assert_eq!(e.name(), d.name());
        assert_eq!(e.core(), d.core());
        assert_eq!(e.row_height().to_bits(), d.row_height().to_bits());
        assert_eq!(e.target_density().to_bits(), d.target_density().to_bits());
        assert_eq!(e.num_pins(), d.num_pins());
        assert!(d.cell_ids().eq(e.cell_ids()));
        for id in d.cell_ids() {
            assert_eq!(e.cell(id), d.cell(id));
            assert_eq!(e.cell_nets(id), d.cell_nets(id));
        }
        assert!(d.net_ids().eq(e.net_ids()));
        for nid in d.net_ids() {
            assert_eq!(e.net(nid), d.net(nid));
            assert_eq!(e.net_pins(nid), d.net_pins(nid));
        }
        assert_eq!(e.movable_cells(), d.movable_cells());
        assert_eq!(e.fixed_positions(), d.fixed_positions());
        assert_eq!(e.regions(), d.regions());
        assert_eq!(e.alignments(), d.alignments());
        assert_eq!(e.initial_placement(), d.initial_placement());
        // Debug prints every field, private ones included.
        assert_eq!(format!("{e:?}"), format!("{d:?}"));
    }

    #[test]
    fn from_design_writes_identical_bookshelf_bytes() {
        let d = constrained_ispd2006();
        let e = DesignBuilder::from_design(&d).build().unwrap();
        let root = std::env::temp_dir().join(format!("complx_from_design_{}", std::process::id()));
        let (dd, ed) = (root.join("d"), root.join("e"));
        crate::bookshelf::write_bundle(&d, &d.initial_placement(), &dd).unwrap();
        crate::bookshelf::write_bundle(&e, &e.initial_placement(), &ed).unwrap();
        for ext in ["aux", "nodes", "nets", "wts", "pl", "scl"] {
            let file = format!("{}.{ext}", d.name());
            let a = std::fs::read(dd.join(&file)).unwrap();
            let b = std::fs::read(ed.join(&file)).unwrap();
            assert!(a == b, "{file} differs");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn from_design_still_rejects_duplicate_names() {
        let d = constrained_ispd2006();
        let taken = d.cell(d.movable_cells()[0]).name().to_string();
        let mut b = DesignBuilder::from_design(&d);
        assert_eq!(
            b.add_cell(taken.clone(), 1.0, 1.0, CellKind::Movable),
            Err(DesignError::DuplicateCell(taken))
        );
        assert!(b.add_cell("fresh", 1.0, 1.0, CellKind::Movable).is_ok());
    }

    #[test]
    fn set_net_weight_applies_the_add_net_check() {
        let d = constrained_ispd2006();
        let n = d.net_ids().next().unwrap();
        let mut b = DesignBuilder::from_design(&d);
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    b.set_net_weight(n, w),
                    Err(DesignError::InvalidWeight { .. })
                ),
                "weight {w} accepted"
            );
        }
        assert_eq!(
            b.set_net_weight(NetId(d.num_nets() as u32), 1.0),
            Err(DesignError::UnknownNet(d.num_nets()))
        );
        b.set_net_weight(n, 2.5).unwrap();
        assert_eq!(b.build().unwrap().net(n).weight(), 2.5);
    }

    #[test]
    fn non_finite_weights_and_pin_offsets_rejected() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("b", 1.0, 1.0, CellKind::Movable).unwrap();
        for w in [f64::NAN, f64::INFINITY] {
            assert!(matches!(
                b.add_net("n", w, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)]),
                Err(DesignError::InvalidWeight { .. })
            ));
        }
        for (dx, dy) in [(f64::NAN, 0.0), (0.0, f64::NEG_INFINITY)] {
            assert!(matches!(
                b.add_net("n", 1.0, vec![(a, 0.0, 0.0), (c, dx, dy)]),
                Err(DesignError::InvalidPinOffset { .. })
            ));
        }
    }

    #[test]
    fn obstacle_area_clips_to_core() {
        let mut b = DesignBuilder::new("t", core(), 1.0);
        // Obstacle half inside the core.
        b.add_fixed_cell("f", 10.0, 10.0, CellKind::Fixed, Point::new(0.0, 50.0))
            .unwrap();
        // Terminal: does not block capacity.
        b.add_fixed_cell("t", 10.0, 10.0, CellKind::Terminal, Point::new(50.0, 50.0))
            .unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.obstacle_area(), 50.0);
    }
}
