//! Canonical identity hashing for designs and configurations.
//!
//! One FNV-1a-64 implementation serves every identity check in the
//! workspace: the checkpoint codec's file checksum and resume validation
//! ([`crate::ckpt`]) and the serving layer's result cache, which keys on
//! the `(design_hash, config_hash)` pair — two submissions with equal
//! hashes drive the placer identically, so their results are
//! interchangeable byte for byte (the determinism contract).
//!
//! [`config_hash`] deliberately excludes run-management fields
//! (`time_budget`, `faults`, `checkpoint`): they change how a run is
//! *supervised*, never which iterates it produces.

use complx_netlist::{CellKind, Design};

use crate::config::{GridSchedule, Interconnect, LambdaMode, PlacerConfig};

/// FNV-1a 64 over a byte slice (the file checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a 64 for structured hashing: length-prefixed strings
/// and fixed-width little-endian scalars, so distinct field sequences
/// cannot collide by concatenation.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// A hasher at the FNV-1a 64 offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    /// Finishes, returning the accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    /// Feeds a `u64` value.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// Feeds a `f64` value.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Feeds a `usize` value.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Feeds a `bool` value.
    pub fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }
    /// Feeds a `str` value.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }
}

/// A structural fingerprint of a design: name, geometry, cells (with fixed
/// positions), nets with their pins, and placement constraints. Two designs
/// with equal hashes drive the placer identically, so a checkpoint taken on
/// one resumes correctly on the other.
pub fn design_hash(design: &Design) -> u64 {
    let mut f = Fnv::new();
    f.str(design.name());
    let core = design.core();
    for v in [core.lx, core.ly, core.hx, core.hy] {
        f.f64(v);
    }
    f.f64(design.row_height());
    f.f64(design.target_density());
    f.usize(design.num_cells());
    for id in design.cell_ids() {
        let c = design.cell(id);
        f.str(c.name());
        f.f64(c.width());
        f.f64(c.height());
        f.u64(match c.kind() {
            CellKind::Movable => 0,
            CellKind::MovableMacro => 1,
            CellKind::Fixed => 2,
            CellKind::Terminal => 3,
        });
        if !c.is_movable() {
            let p = design.fixed_positions().position(id);
            f.f64(p.x);
            f.f64(p.y);
        }
    }
    f.usize(design.num_nets());
    for nid in design.net_ids() {
        let n = design.net(nid);
        f.str(n.name());
        f.f64(n.weight());
        let pins = design.net_pins(nid);
        f.usize(pins.len());
        for p in pins {
            f.usize(p.cell.index());
            f.f64(p.dx);
            f.f64(p.dy);
        }
    }
    f.usize(design.regions().len());
    for r in design.regions() {
        f.str(r.name());
        let rect = r.rect();
        for v in [rect.lx, rect.ly, rect.hx, rect.hy] {
            f.f64(v);
        }
        f.usize(r.cells().len());
        for &c in r.cells() {
            f.usize(c.index());
        }
    }
    f.usize(design.alignments().len());
    for a in design.alignments() {
        f.str(a.name());
        f.u64(matches!(a.axis(), complx_netlist::AlignmentAxis::Horizontal) as u64);
        f.usize(a.cells().len());
        for &c in a.cells() {
            f.usize(c.index());
        }
    }
    f.0
}

/// A fingerprint of every configuration field that influences the iterate
/// sequence. Deliberately *excludes* `time_budget`, `faults`, and
/// `checkpoint`: a run killed by a fault and its resume (with different
/// fault plans and checkpoint settings) must hash identically.
pub fn config_hash(cfg: &PlacerConfig) -> u64 {
    let mut f = Fnv::new();
    match cfg.interconnect {
        Interconnect::Quadratic(nm) => {
            f.u64(0);
            f.u64(match nm {
                complx_wirelength::NetModel::Bound2Bound => 0,
                complx_wirelength::NetModel::Clique => 1,
                complx_wirelength::NetModel::Star => 2,
                complx_wirelength::NetModel::HybridCliqueStar => 3,
            });
        }
        Interconnect::LogSumExp { gamma_rows } => {
            f.u64(1);
            f.f64(gamma_rows);
        }
        Interconnect::BetaRegularized { beta_rows2 } => {
            f.u64(2);
            f.f64(beta_rows2);
        }
        Interconnect::PNorm { p } => {
            f.u64(3);
            f.f64(p);
        }
    }
    f.usize(cfg.max_iterations);
    f.f64(cfg.gap_tolerance);
    f.f64(cfg.overflow_tolerance);
    match cfg.lambda_mode {
        LambdaMode::Complx { h_factor } => {
            f.u64(0);
            f.f64(h_factor);
        }
        LambdaMode::Arithmetic { step } => {
            f.u64(1);
            f.f64(step);
        }
        LambdaMode::Geometric { ratio } => {
            f.u64(2);
            f.f64(ratio);
        }
    }
    f.f64(cfg.lambda_init_divisor);
    f.bool(cfg.lambda_inverse_ratio);
    match cfg.grid {
        GridSchedule::CoarseToFine {
            start_fraction,
            growth,
        } => {
            f.u64(0);
            f.f64(start_fraction);
            f.f64(growth);
        }
        GridSchedule::Fixed { fraction } => {
            f.u64(1);
            f.f64(fraction);
        }
    }
    f.f64(cfg.cells_per_bin);
    f.bool(cfg.per_macro_lambda);
    f.bool(cfg.shred_macros);
    f.bool(cfg.detail_each_iteration);
    f.bool(cfg.final_detail);
    f.f64(cfg.cg_tolerance);
    f.usize(cfg.cg_max_iterations);
    f.usize(cfg.stagnation_window);
    match cfg.anchor_cap_bins {
        None => f.bool(false),
        Some(cap) => {
            f.bool(true);
            f.f64(cap);
        }
    }
    match &cfg.routability {
        None => f.bool(false),
        Some(r) => {
            f.bool(true);
            f.f64(r.supply);
            f.f64(r.alpha);
            f.f64(r.max_inflation);
            f.usize(r.grid_bins);
        }
    }
    f.usize(cfg.max_recoveries);
    f.u64(match cfg.projection {
        crate::config::ProjectionBackend::Geometric => 0,
        crate::config::ProjectionBackend::Electro => 1,
        crate::config::ProjectionBackend::Diffusion => 2,
    });
    f.0
}
