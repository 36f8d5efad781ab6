//! Assembly and solution of the quadratic placement systems
//! `Φ_Q(x) = xᵀQ_x x + 2 f_xᵀ x + const` (paper Formula 2), one per axis.

use std::sync::{Mutex, TryLockError};

use complx_netlist::{CellId, Design, Pin, Placement, Point};
use complx_sparse::{CgScratch, CgSolver, CsrMatrix, CsrWorkspace, SolveStats};

/// Designs with fewer nets than this solve their two axes one after the
/// other; larger ones solve them concurrently. Each axis owns its buffers
/// and reads only the incoming placement, so the result is bit-identical
/// either way — this gate is purely a dispatch-overhead cutoff.
const PAR_MIN_NETS: usize = 512;

/// Diagonal weight that keeps a variable with no stored diagonal entry
/// (a disconnected cell, or the star of an all-fixed net) SPD.
const REG: f64 = 1e-8;

use crate::anchors::Anchors;
use crate::b2b::{decompose, Edge, NetModel};
use crate::model::{clamp_to_core, InterconnectModel, MinimizeStats};

/// Maps movable cells to solver-variable indices (and back).
///
/// Fixed cells and terminals have no variable; star variables (if the net
/// model uses them) are appended after the cell variables per solve.
#[derive(Debug, Clone)]
pub struct VarIndex {
    var_of_cell: Vec<Option<u32>>,
    cell_of_var: Vec<CellId>,
}

impl VarIndex {
    /// Builds the index for a design's movable cells.
    pub fn new(design: &Design) -> Self {
        let mut var_of_cell = vec![None; design.num_cells()];
        let mut cell_of_var = Vec::with_capacity(design.movable_cells().len());
        for &id in design.movable_cells() {
            var_of_cell[id.index()] = Some(cell_of_var.len() as u32);
            cell_of_var.push(id);
        }
        Self {
            var_of_cell,
            cell_of_var,
        }
    }

    /// Number of movable-cell variables.
    pub fn num_vars(&self) -> usize {
        self.cell_of_var.len()
    }

    /// The variable for a cell, or `None` if the cell is fixed.
    pub fn var(&self, cell: CellId) -> Option<usize> {
        self.var_of_cell[cell.index()].map(|v| v as usize)
    }

    /// The cell owning variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is a star variable or out of range.
    pub fn cell(&self, v: usize) -> CellId {
        self.cell_of_var[v]
    }
}

/// Which axis a system describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    X,
    Y,
}

impl Axis {
    /// The cell's center coordinate on this axis.
    fn coord(self, placement: &Placement, cell: CellId) -> f64 {
        match self {
            Axis::X => placement.xs()[cell.index()],
            Axis::Y => placement.ys()[cell.index()],
        }
    }

    /// The pin's offset from its cell's center on this axis.
    fn offset(self, pin: &Pin) -> f64 {
        match self {
            Axis::X => pin.dx,
            Axis::Y => pin.dy,
        }
    }
}

/// The per-design index structures of one `minimize` call, shared by both
/// axes.
struct Layout {
    index: VarIndex,
    /// The star variable of each net, if the net model gives it one.
    star_of_net: Vec<Option<u32>>,
    /// System dimension: cell variables, then star variables.
    n: usize,
}

impl Layout {
    fn new(design: &Design, net_model: NetModel) -> Self {
        let index = VarIndex::new(design);
        let mut star_of_net: Vec<Option<u32>> = vec![None; design.num_nets()];
        let mut n = index.num_vars();
        for nid in design.net_ids() {
            if net_model.uses_star_var(design.net(nid).degree()) {
                star_of_net[nid.index()] = Some(n as u32);
                n += 1;
            }
        }
        Self {
            index,
            star_of_net,
            n,
        }
    }
}

/// One axis's assembly and solve buffers, reused across `minimize` calls.
#[derive(Debug, Default)]
struct AxisWorkspace {
    /// Each movable–movable connection of weight `w` as `(i, j, −w)`, in
    /// stamping order.
    pairs: Vec<(u32, u32, f64)>,
    /// The diagonal, summed in stamping order: nets, anchors, then `REG`.
    diag: Vec<f64>,
    f: Vec<f64>,
    rhs: Vec<f64>,
    coords: Vec<f64>,
    edges: Vec<Edge>,
    csr: CsrWorkspace,
    matrix: CsrMatrix,
    cg: CgScratch,
    /// The solution (cell variables first, then star variables).
    sol: Vec<f64>,
}

/// The x and y buffers: the axes are assembled and solved concurrently.
type Workspace = [AxisWorkspace; 2];

/// A model's [`Workspace`]. Buffers carry no state between calls, so a
/// clone starts empty and two models compare equal whatever they hold.
#[derive(Default)]
struct Scratch(Mutex<Workspace>);

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Scratch")
    }
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for Scratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The linearized-quadratic interconnect model used by SimPL and ComPLx.
///
/// Each [`InterconnectModel::minimize`] call:
///
/// 1. decomposes every net with the configured [`NetModel`], linearizing
///    Bound2Bound weights against the incoming placement,
/// 2. stamps anchor pseudonets with weight `λ_i/(|x_i − x_i°| + ε)`,
/// 3. solves the two independent SPD systems with Jacobi-PCG (warm-started
///    from the incoming placement), and
/// 4. clamps results into the core region.
///
/// The model keeps its assembly buffers between calls. Concurrent calls on
/// one model are correct; a call that finds the buffers busy assembles in
/// fresh ones.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadraticModel {
    net_model: NetModel,
    /// Lower bound for linearization denominators (distance units).
    dist_eps: f64,
    solver: CgSolver,
    scratch: Scratch,
}

impl Default for QuadraticModel {
    fn default() -> Self {
        Self::new(NetModel::Bound2Bound)
    }
}

impl QuadraticModel {
    /// Creates the model with a given net decomposition; the CG tolerance
    /// defaults to `1e-6`.
    pub fn new(net_model: NetModel) -> Self {
        Self {
            net_model,
            dist_eps: 1.0,
            solver: CgSolver::new(),
            scratch: Scratch::default(),
        }
    }

    /// Overrides the CG solver configuration.
    #[must_use]
    pub fn with_solver(mut self, solver: CgSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Overrides the linearization distance floor.
    #[must_use]
    pub fn with_distance_epsilon(mut self, eps: f64) -> Self {
        assert!(eps > 0.0);
        self.dist_eps = eps;
        self
    }

    /// The configured net model.
    pub fn net_model(&self) -> NetModel {
        self.net_model
    }

    /// Assembles one axis's system into `ws.matrix` and `ws.rhs`, with the
    /// warm start in `ws.sol`.
    ///
    /// Each edge between two variables becomes one pair; every diagonal
    /// weight and every `f` term is added straight into the dense
    /// `ws.diag` and `ws.f`, in the order of the net loop, then the anchor
    /// and regularization loops. Each row of the matrix therefore sums its
    /// entries in stamping order.
    fn assemble_axis(
        &self,
        design: &Design,
        layout: &Layout,
        ws: &mut AxisWorkspace,
        placement: &Placement,
        anchors: Option<&Anchors>,
        axis: Axis,
    ) {
        let n = layout.n;
        let index = &layout.index;
        let n_cells = index.num_vars();
        let AxisWorkspace {
            pairs,
            diag,
            f,
            coords,
            edges,
            ..
        } = ws;
        pairs.clear();
        diag.clear();
        diag.resize(n, 0.0);
        f.clear();
        f.resize(n, 0.0);
        for nid in design.net_ids() {
            let pins = design.net_pins(nid);
            coords.clear();
            coords.extend(
                pins.iter()
                    .map(|p| axis.coord(placement, p.cell) + axis.offset(p)),
            );
            decompose(
                self.net_model,
                design.net(nid).weight(),
                coords,
                self.dist_eps,
                edges,
            );
            let star = layout.star_of_net[nid.index()].map(|v| v as usize);
            for e in edges.iter() {
                // Resolve endpoints: (variable index or fixed coordinate, offset).
                let resolve = |end: usize| -> (Option<usize>, f64) {
                    if end == Edge::STAR {
                        (star, 0.0)
                    } else {
                        let pin = &pins[end];
                        match index.var(pin.cell) {
                            Some(v) => (Some(v), axis.offset(pin)),
                            None => (None, axis.coord(placement, pin.cell) + axis.offset(pin)),
                        }
                    }
                };
                let (va, ca) = resolve(e.a);
                let (vb, cb) = resolve(e.b);
                let w = e.weight;
                // An exact `0.0` weight stamps nothing, as in a triplet
                // accumulator; the `f` terms are added regardless.
                match (va, vb) {
                    (Some(i), Some(j)) => {
                        if i == j {
                            continue; // both pins on one cell: constant term
                        }
                        if w != 0.0 {
                            diag[i] += w;
                            diag[j] += w;
                            pairs.push((i as u32, j as u32, -w));
                        }
                        // (x_i + ca − x_j − cb)² cross terms go to f.
                        f[i] += w * (ca - cb);
                        f[j] += w * (cb - ca);
                    }
                    (Some(i), None) => {
                        if w != 0.0 {
                            diag[i] += w;
                        }
                        f[i] += w * (ca - cb);
                    }
                    (None, Some(j)) => {
                        if w != 0.0 {
                            diag[j] += w;
                        }
                        f[j] += w * (cb - ca);
                    }
                    (None, None) => {}
                }
            }
        }

        // Anchor pseudonets.
        if let Some(a) = anchors {
            for v in 0..n_cells {
                let cell = index.cell(v);
                let c = axis.coord(placement, cell);
                let (w, target) = match axis {
                    Axis::X => (a.weight_x(cell, c), a.targets().xs()[cell.index()]),
                    Axis::Y => (a.weight_y(cell, c), a.targets().ys()[cell.index()]),
                };
                if w > 0.0 {
                    diag[v] += w;
                    f[v] -= w * target;
                }
            }
        }

        // Regularize variables with no stored diagonal so the system stays
        // SPD: pull them gently toward their current location. Every
        // diagonal stamp is a positive weight, so "no stored diagonal" is
        // exactly "diagonal sum is 0.0".
        for v in 0..n {
            if diag[v] == 0.0 {
                let cur = if v < n_cells {
                    axis.coord(placement, index.cell(v))
                } else {
                    // A star variable: every star edge stamps the star's
                    // diagonal, so this guards future net models only.
                    0.0
                };
                diag[v] += REG;
                f[v] -= REG * cur;
            }
        }

        ws.csr.assemble(&ws.diag, &ws.pairs, &mut ws.matrix);
        debug_assert!(ws.matrix.is_symmetric(1e-9));
        ws.rhs.clear();
        ws.rhs.extend(ws.f.iter().map(|v| -v));

        // Warm start from the current coordinates (star vars at net centroid).
        let x = &mut ws.sol;
        x.clear();
        x.extend((0..n_cells).map(|v| axis.coord(placement, index.cell(v))));
        x.resize(n, 0.0);
        for nid in design.net_ids() {
            if let Some(s) = layout.star_of_net[nid.index()] {
                let pins = design.net_pins(nid);
                let c: f64 = pins
                    .iter()
                    .map(|p| axis.coord(placement, p.cell) + axis.offset(p))
                    .sum::<f64>()
                    / pins.len() as f64;
                x[s as usize] = c;
            }
        }
    }

    /// Assembles and solves both axes, then writes the solution back.
    ///
    /// Above `PAR_MIN_NETS` nets (and with more than one thread) the x
    /// axis runs on the pool while the calling thread does the y axis.
    /// Both read the incoming placement and write only their own buffers,
    /// so the result is the sequential one bit for bit.
    fn minimize_in(
        &self,
        ws: &mut Workspace,
        design: &Design,
        placement: &mut Placement,
        anchors: Option<&Anchors>,
        cancel: Option<&complx_par::CancelToken>,
    ) -> MinimizeStats {
        let fork = complx_par::threads() > 1 && design.num_nets() >= PAR_MIN_NETS;
        let layout = Layout::new(design, self.net_model);
        let [wx, wy] = ws;
        let pl: &Placement = placement;
        let solve = |ws: &mut AxisWorkspace, axis| {
            {
                let _span = complx_obs::span("b2b_rebuild");
                self.assemble_axis(design, &layout, ws, pl, anchors, axis);
            }
            let _solve_span = complx_obs::span(match axis {
                Axis::X => "cg_solve_x",
                Axis::Y => "cg_solve_y",
            });
            self.solver
                .solve(&ws.matrix, &ws.rhs, &mut ws.sol, &mut ws.cg, cancel)
        };
        let (sx, sy) = if fork {
            // Overwritten by the job: `scope` returns only after it ran,
            // and re-throws its panic if it had one.
            let mut sx = SolveStats {
                iterations: 0,
                relative_residual: f64::NAN,
                converged: false,
                breakdown: None,
                clamped_diagonals: 0,
            };
            let car = complx_obs::carrier();
            let sy = complx_par::scope(|s| {
                s.spawn(|| {
                    let _attached = car.attach();
                    let _sp = complx_obs::span("chunks");
                    sx = solve(wx, Axis::X);
                });
                solve(wy, Axis::Y)
            });
            (sx, sy)
        } else {
            (solve(wx, Axis::X), solve(wy, Axis::Y))
        };
        let (xs, ys) = (&wx.sol, &wy.sol);
        for v in 0..layout.index.num_vars() {
            let cell = layout.index.cell(v);
            let p = clamp_to_core(design, cell, Point::new(xs[v], ys[v]));
            placement.set_position(cell, p);
        }
        MinimizeStats {
            iterations_x: sx.iterations,
            iterations_y: sy.iterations,
            converged: sx.converged && sy.converged,
            breakdown: sx.breakdown.is_some() || sy.breakdown.is_some(),
            relative_residual: sx.relative_residual.max(sy.relative_residual),
            clamped_diagonals: sx.clamped_diagonals + sy.clamped_diagonals,
        }
    }
}

impl InterconnectModel for QuadraticModel {
    fn name(&self) -> &'static str {
        match self.net_model {
            NetModel::Bound2Bound => "quadratic-b2b",
            NetModel::Clique => "quadratic-clique",
            NetModel::Star => "quadratic-star",
            NetModel::HybridCliqueStar => "quadratic-hybrid",
        }
    }

    fn wirelength(&self, design: &Design, placement: &Placement) -> f64 {
        // At the linearization point B2B equals HPWL, so HPWL is the honest
        // surrogate value for every net model here.
        complx_netlist::hpwl::weighted_hpwl(design, placement)
    }

    fn minimize(
        &self,
        design: &Design,
        placement: &mut Placement,
        anchors: Option<&Anchors>,
        cancel: Option<&complx_par::CancelToken>,
    ) -> MinimizeStats {
        match self.scratch.0.try_lock() {
            Ok(mut ws) => self.minimize_in(&mut ws, design, placement, anchors, cancel),
            // Buffers are refilled before every read, so a panic that
            // poisoned the lock left nothing stale behind.
            Err(TryLockError::Poisoned(p)) => {
                self.minimize_in(&mut p.into_inner(), design, placement, anchors, cancel)
            }
            Err(TryLockError::WouldBlock) => {
                let mut ws = Workspace::default();
                self.minimize_in(&mut ws, design, placement, anchors, cancel)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::{generator::GeneratorConfig, hpwl, CellKind, DesignBuilder, Rect};

    #[test]
    fn var_index_skips_fixed() {
        let d = GeneratorConfig::small("v", 1).generate();
        let idx = VarIndex::new(&d);
        assert_eq!(idx.num_vars(), d.movable_cells().len());
        for &id in d.movable_cells() {
            let v = idx.var(id).unwrap();
            assert_eq!(idx.cell(v), id);
        }
        for id in d.cell_ids() {
            if !d.cell(id).is_movable() {
                assert!(idx.var(id).is_none());
            }
        }
    }

    #[test]
    fn two_cells_between_fixed_pads_land_at_thirds() {
        // pad(0) -- a -- b -- pad(30): quadratic optimum is equidistant.
        let mut b = DesignBuilder::new("line", Rect::new(0.0, 0.0, 30.0, 30.0), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("b", 1.0, 1.0, CellKind::Movable).unwrap();
        let p0 = b
            .add_fixed_cell("p0", 1.0, 1.0, CellKind::Terminal, Point::new(0.0, 15.0))
            .unwrap();
        let p1 = b
            .add_fixed_cell("p1", 1.0, 1.0, CellKind::Terminal, Point::new(30.0, 15.0))
            .unwrap();
        b.add_net("n0", 1.0, vec![(p0, 0.0, 0.0), (a, 0.0, 0.0)])
            .unwrap();
        b.add_net("n1", 1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .unwrap();
        b.add_net("n2", 1.0, vec![(c, 0.0, 0.0), (p1, 0.0, 0.0)])
            .unwrap();
        let d = b.build().unwrap();
        let mut pl = d.initial_placement();
        let model = QuadraticModel::new(NetModel::Clique); // no linearization
        let stats = model.minimize(&d, &mut pl, None, None);
        assert!(stats.converged);
        assert!(
            (pl.position(a).x - 10.0).abs() < 1e-4,
            "{:?}",
            pl.position(a)
        );
        assert!(
            (pl.position(c).x - 20.0).abs() < 1e-4,
            "{:?}",
            pl.position(c)
        );
        assert!((pl.position(a).y - 15.0).abs() < 1e-4);
    }

    #[test]
    fn minimize_reduces_hpwl_from_random() {
        let d = GeneratorConfig::small("m", 2).generate();
        // Start from a spread-out random-ish placement: use fixed positions
        // plus per-cell perturbation.
        let mut pl = d.initial_placement();
        for (i, v) in pl.xs_mut().iter_mut().enumerate() {
            *v += ((i * 37) % 100) as f64 - 50.0;
        }
        for (i, v) in pl.ys_mut().iter_mut().enumerate() {
            *v += ((i * 61) % 100) as f64 - 50.0;
        }
        let before = hpwl::hpwl(&d, &pl);
        let model = QuadraticModel::default();
        model.minimize(&d, &mut pl, None, None);
        let after = hpwl::hpwl(&d, &pl);
        assert!(after < before, "hpwl {before} -> {after}");
    }

    #[test]
    fn b2b_iterations_converge_toward_lower_hpwl() {
        // Repeated linearized solves should (weakly) improve HPWL.
        let d = GeneratorConfig::small("it", 3).generate();
        let model = QuadraticModel::default();
        let mut pl = d.initial_placement();
        model.minimize(&d, &mut pl, None, None);
        let first = hpwl::hpwl(&d, &pl);
        for _ in 0..5 {
            model.minimize(&d, &mut pl, None, None);
        }
        let refined = hpwl::hpwl(&d, &pl);
        assert!(
            refined <= first * 1.05,
            "B2B refinement diverged: {first} -> {refined}"
        );
    }

    #[test]
    fn anchors_pull_cells_toward_targets() {
        let d = GeneratorConfig::small("an", 4).generate();
        let model = QuadraticModel::default();
        let mut free = d.initial_placement();
        model.minimize(&d, &mut free, None, None);

        // Anchor every cell at the core corner with a large λ.
        let mut targets = free.clone();
        for &id in d.movable_cells() {
            targets.set_position(id, Point::new(d.core().lx + 1.0, d.core().ly + 1.0));
        }
        let anchors = Anchors::uniform(&d, targets.clone(), 1000.0);
        let mut anchored = free.clone();
        model.minimize(&d, &mut anchored, Some(&anchors), None);
        let before = anchors.penalty(&free);
        let after = anchors.penalty(&anchored);
        assert!(after < before * 0.5, "penalty {before} -> {after}");
    }

    #[test]
    fn fixed_cells_never_move() {
        let d = GeneratorConfig::small("fx", 5).generate();
        let model = QuadraticModel::default();
        let mut pl = d.initial_placement();
        let fixed: Vec<_> = d
            .cell_ids()
            .filter(|&id| !d.cell(id).is_movable())
            .map(|id| (id, pl.position(id)))
            .collect();
        model.minimize(&d, &mut pl, None, None);
        for (id, p) in fixed {
            assert_eq!(pl.position(id), p);
        }
    }

    #[test]
    fn results_inside_core() {
        let d = GeneratorConfig::small("core", 6).generate();
        for model in [
            QuadraticModel::new(NetModel::Bound2Bound),
            QuadraticModel::new(NetModel::Clique),
            QuadraticModel::new(NetModel::Star),
            QuadraticModel::new(NetModel::HybridCliqueStar),
        ] {
            let mut pl = d.initial_placement();
            model.minimize(&d, &mut pl, None, None);
            let core = d.core();
            for &id in d.movable_cells() {
                let p = pl.position(id);
                assert!(core.contains(p), "{} at {p:?} via {}", id, model.name());
            }
        }
    }

    #[test]
    fn minimize_bit_identical_across_thread_counts() {
        // `small` generates ~660 nets, clearing PAR_MIN_NETS, so the axes
        // run concurrently above one thread.
        let d = GeneratorConfig::small("det", 11).generate();
        assert!(d.num_nets() >= super::PAR_MIN_NETS);
        let mut targets = d.initial_placement();
        for (i, v) in targets.xs_mut().iter_mut().enumerate() {
            *v += ((i * 29) % 17) as f64 - 8.0;
        }
        let lambda = (0..d.num_cells())
            .map(|i| 0.2 + (i % 5) as f64 * 0.1)
            .collect();
        let anchors = Anchors::per_cell(&d, targets, lambda, 1.0);
        for net_model in [
            NetModel::Bound2Bound,
            NetModel::Clique,
            NetModel::Star,
            NetModel::HybridCliqueStar,
        ] {
            let model = QuadraticModel::new(net_model);
            let run = |t: usize| {
                let _g = complx_par::with_threads(t);
                let mut pl = d.initial_placement();
                let stats: Vec<MinimizeStats> = (0..2)
                    .map(|_| model.minimize(&d, &mut pl, Some(&anchors), None))
                    .collect();
                (pl, stats)
            };
            let (reference, ref_stats) = run(1);
            for t in [2, 3, 8] {
                let (pl, stats) = run(t);
                for (a, b) in pl.xs().iter().zip(reference.xs()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{net_model:?}: x at {t} threads");
                }
                for (a, b) in pl.ys().iter().zip(reference.ys()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{net_model:?}: y at {t} threads");
                }
                assert_eq!(stats, ref_stats, "{net_model:?}: stats at {t} threads");
            }
        }
    }

    /// The stamping-order reference: one sequential triplet list in the
    /// order of the net loop (each connection as its four Laplacian
    /// triplets, exact zeros skipped), then the anchor diagonals; a probe
    /// merge whose diagonal decides regularization; the `REG` diagonals;
    /// then a stable per-row sort by column with duplicates summed left to
    /// right and exact zeros dropped. Returns each row's `(col, value)`
    /// entries and the right-hand side.
    fn reference_assembly(
        model: &QuadraticModel,
        design: &Design,
        placement: &Placement,
        anchors: Option<&Anchors>,
        axis: Axis,
    ) -> (Vec<Vec<(usize, f64)>>, Vec<f64>) {
        let index = VarIndex::new(design);
        let n_cells = index.num_vars();
        let mut star_of_net = vec![None; design.num_nets()];
        let mut n = n_cells;
        for nid in design.net_ids() {
            if model.net_model.uses_star_var(design.net(nid).degree()) {
                star_of_net[nid.index()] = Some(n);
                n += 1;
            }
        }
        let mut q: Vec<(usize, usize, f64)> = Vec::new();
        let add = |q: &mut Vec<(usize, usize, f64)>, r: usize, c: usize, v: f64| {
            if v != 0.0 {
                q.push((r, c, v));
            }
        };
        let mut f = vec![0.0f64; n];
        let mut edges = Vec::new();
        for nid in design.net_ids() {
            let pins = design.net_pins(nid);
            let coords: Vec<f64> = pins
                .iter()
                .map(|p| axis.coord(placement, p.cell) + axis.offset(p))
                .collect();
            decompose(
                model.net_model,
                design.net(nid).weight(),
                &coords,
                model.dist_eps,
                &mut edges,
            );
            for e in &edges {
                let resolve = |end: usize| -> (Option<usize>, f64) {
                    if end == Edge::STAR {
                        (star_of_net[nid.index()], 0.0)
                    } else {
                        let pin = &pins[end];
                        match index.var(pin.cell) {
                            Some(v) => (Some(v), axis.offset(pin)),
                            None => (None, coords[end]),
                        }
                    }
                };
                let ((va, ca), (vb, cb)) = (resolve(e.a), resolve(e.b));
                match (va, vb) {
                    (Some(i), Some(j)) if i != j => {
                        add(&mut q, i, i, e.weight);
                        add(&mut q, j, j, e.weight);
                        add(&mut q, i, j, -e.weight);
                        add(&mut q, j, i, -e.weight);
                        f[i] += e.weight * (ca - cb);
                        f[j] += e.weight * (cb - ca);
                    }
                    (Some(i), None) => {
                        add(&mut q, i, i, e.weight);
                        f[i] += e.weight * (ca - cb);
                    }
                    (None, Some(j)) => {
                        add(&mut q, j, j, e.weight);
                        f[j] += e.weight * (cb - ca);
                    }
                    _ => {}
                }
            }
        }
        if let Some(a) = anchors {
            for (v, fv) in f.iter_mut().enumerate().take(n_cells) {
                let cell = index.cell(v);
                let c = axis.coord(placement, cell);
                let (w, target) = match axis {
                    Axis::X => (a.weight_x(cell, c), a.targets().xs()[cell.index()]),
                    Axis::Y => (a.weight_y(cell, c), a.targets().ys()[cell.index()]),
                };
                if w > 0.0 {
                    add(&mut q, v, v, w);
                    *fv -= w * target;
                }
            }
        }
        let merge = |q: &[(usize, usize, f64)]| -> Vec<Vec<(usize, f64)>> {
            let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
            for &(r, c, v) in q {
                rows[r].push((c, v));
            }
            for row in &mut rows {
                row.sort_by_key(|&(c, _)| c);
                let mut merged: Vec<(usize, f64)> = Vec::new();
                for &(c, v) in row.iter() {
                    match merged.last_mut() {
                        Some(last) if last.0 == c => last.1 += v,
                        _ => merged.push((c, v)),
                    }
                }
                merged.retain(|&(_, v)| v != 0.0);
                *row = merged;
            }
            rows
        };
        let probe = merge(&q);
        for (v, row) in probe.iter().enumerate() {
            let d = row.iter().find(|e| e.0 == v).map_or(0.0, |e| e.1);
            if d <= 0.0 {
                let cur = if v < n_cells {
                    axis.coord(placement, index.cell(v))
                } else {
                    0.0
                };
                add(&mut q, v, v, REG);
                f[v] -= REG * cur;
            }
        }
        (merge(&q), f.iter().map(|v| -v).collect())
    }

    fn assert_same_bits(got: &CsrMatrix, want: &[Vec<(usize, f64)>], what: &str) {
        assert_eq!(got.dim(), want.len(), "{what}: dimension");
        for (r, row) in want.iter().enumerate() {
            let got: Vec<(usize, u64)> = got.row(r).map(|(c, v)| (c, v.to_bits())).collect();
            let want: Vec<(usize, u64)> = row.iter().map(|&(c, v)| (c, v.to_bits())).collect();
            assert_eq!(got, want, "{what}: row {r}");
        }
    }

    /// A small design with a movable cell on no net (regularized unless
    /// anchored) and a four-pin net whose pins are all fixed (a star
    /// variable stamped only against fixed coordinates).
    fn design_with_isolated_variables() -> Design {
        let mut b = DesignBuilder::new("iso", Rect::new(0.0, 0.0, 40.0, 40.0), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("c", 1.0, 1.0, CellKind::Movable).unwrap();
        b.add_cell("lonely", 1.0, 1.0, CellKind::Movable).unwrap();
        let pads: Vec<CellId> = (0..4)
            .map(|k| {
                let at = Point::new(5.0 + 10.0 * k as f64, 3.0 + 7.0 * k as f64);
                b.add_fixed_cell(format!("p{k}"), 1.0, 1.0, CellKind::Terminal, at)
                    .unwrap()
            })
            .collect();
        b.add_net(
            "n0",
            1.0,
            vec![(pads[0], 0.0, 0.0), (a, 0.5, 0.0), (c, 0.0, -0.5)],
        )
        .unwrap();
        b.add_net(
            "n1",
            2.0,
            vec![(a, 0.0, 0.0), (c, 0.0, 0.0), (pads[1], 0.0, 0.0)],
        )
        .unwrap();
        b.add_net("fixed", 1.0, pads.iter().map(|&p| (p, 0.0, 0.0)).collect())
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn assembly_matches_reference_path() {
        let small = GeneratorConfig::small("asm", 12).generate();
        assert!(small.num_nets() >= super::PAR_MIN_NETS);
        let iso = design_with_isolated_variables();
        // One workspace across every case, each axis in its own buffers:
        // buffers carry nothing over.
        let mut wss = Workspace::default();
        let mut cases = 0;
        for d in [&small, &iso] {
            let mut pl = d.initial_placement();
            for (i, v) in pl.xs_mut().iter_mut().enumerate() {
                *v += ((i * 37) % 23) as f64 - 11.0;
            }
            for (i, v) in pl.ys_mut().iter_mut().enumerate() {
                *v += ((i * 61) % 19) as f64 - 9.0;
            }
            // Zero λ on every third cell: those cells get no anchor stamp.
            let lambda = (0..d.num_cells())
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        0.5 + i as f64 * 0.01
                    }
                })
                .collect();
            let anchors = Anchors::per_cell(d, d.initial_placement(), lambda, 1.0);
            for net_model in [
                NetModel::Bound2Bound,
                NetModel::Clique,
                NetModel::Star,
                NetModel::HybridCliqueStar,
            ] {
                let model = QuadraticModel::new(net_model);
                for anchors in [None, Some(&anchors)] {
                    for axis in [Axis::X, Axis::Y] {
                        let (want_a, want_rhs) = reference_assembly(&model, d, &pl, anchors, axis);
                        for t in [1, 2, 8] {
                            let _g = complx_par::with_threads(t);
                            let layout = Layout::new(d, net_model);
                            let ws = &mut wss[axis as usize];
                            model.assemble_axis(d, &layout, ws, &pl, anchors, axis);
                            let what = format!(
                                "{} {net_model:?} anchors={} {axis:?} t={t}",
                                d.name(),
                                anchors.is_some()
                            );
                            assert_same_bits(&ws.matrix, &want_a, &what);
                            assert_eq!(ws.rhs.len(), want_rhs.len(), "{what}");
                            for (v, (g, w)) in ws.rhs.iter().zip(&want_rhs).enumerate() {
                                assert_eq!(g.to_bits(), w.to_bits(), "{what}: rhs[{v}]");
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 4 * 2 * 2 * 3);
    }

    #[test]
    fn isolated_cell_is_regularized_only_without_an_anchor() {
        let d = design_with_isolated_variables();
        let pl = d.initial_placement();
        let model = QuadraticModel::new(NetModel::Star);
        let layout = Layout::new(&d, NetModel::Star);
        let lonely = layout.index.var(CellId::from_index(2)).unwrap();
        let mut ws = AxisWorkspace::default();
        model.assemble_axis(&d, &layout, &mut ws, &pl, None, Axis::X);
        assert_eq!(ws.matrix.get(lonely, lonely), REG);
        // The all-fixed net's star variable (the last) is stamped against
        // its fixed pins, so it needs no regularization.
        let star = layout.n - 1;
        assert!(ws.matrix.get(star, star) > REG);
        let anchors = Anchors::uniform(&d, pl.clone(), 1.0);
        model.assemble_axis(&d, &layout, &mut ws, &pl, Some(&anchors), Axis::X);
        assert!(ws.matrix.get(lonely, lonely) > REG);
    }

    #[test]
    fn net_models_give_similar_optima() {
        let d = GeneratorConfig::small("cmp", 7).generate();
        let mut results = Vec::new();
        for model in [
            QuadraticModel::new(NetModel::Bound2Bound),
            QuadraticModel::new(NetModel::Clique),
            QuadraticModel::new(NetModel::HybridCliqueStar),
        ] {
            let mut pl = d.initial_placement();
            for _ in 0..3 {
                model.minimize(&d, &mut pl, None, None);
            }
            results.push(hpwl::hpwl(&d, &pl));
        }
        // All models should land within 2x of each other on an easy design.
        let min = results.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = results.iter().cloned().fold(0.0f64, f64::max);
        assert!(max < 2.0 * min, "{results:?}");
    }
}
