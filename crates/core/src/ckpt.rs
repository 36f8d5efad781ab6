//! Crash-safe checkpointing of the λ-loop state (`complx-ckpt/v1`).
//!
//! The checkpoint payload *is* the placer's [`LoopState`] — everything the
//! primal-dual loop needs to continue from iteration `k + 1` exactly as the
//! uninterrupted run would: both iterates and the best feasible one, the λ
//! schedule's internal state, the recovery state (CG tolerance, recovery
//! and stagnation counters), and the trace/solver records accumulated so
//! far. The codec reads and writes it in place. Because the models are
//! stateless between `minimize` calls (they linearize against the incoming
//! placement) and the parallel runtime is bit-deterministic for any thread
//! count, restoring this state reproduces the remaining iterations
//! *byte-identically* — the acceptance criterion the resume tests enforce.
//!
//! # On-disk format
//!
//! Hand-rolled and dependency-free, little-endian throughout:
//!
//! ```text
//! magic   b"complx-ckpt/v1\n"                      (15 bytes)
//! count   u32    number of sections
//! section tag:u32  len:u64  payload:[u8; len]      (repeated `count` times)
//! crc     u64    FNV-1a 64 over every preceding byte
//! ```
//!
//! Section tags: 1 META (design/config hash, generation, iteration),
//! 2 SCALARS, 3 LOWER, 4 UPPER, 5 BEST (placements as `n, xs[n], ys[n]`),
//! 6 TRACE, 7 SOLVES. All seven must appear exactly once; unknown tags,
//! duplicates, and trailing bytes are rejected. Floats travel as IEEE-754
//! bit patterns (`f64::to_bits`), so the round trip is exact.
//!
//! # Durability protocol
//!
//! [`CheckpointWriter`] writes to `<path>.tmp`, fsyncs, rotates the current
//! file to `<path>.prev`, renames the temp file into place, and fsyncs the
//! directory (best effort). A crash at any point leaves at least one
//! complete earlier generation: [`load_checkpoint`] falls back to
//! `<path>.prev` when the primary file is missing, truncated, or fails the
//! checksum.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use complx_netlist::Placement;

use crate::config::CheckpointConfig;
use crate::faults::FaultKind;
use crate::lambda::LambdaSchedule;
use crate::placer::LoopState;
use crate::solves::SolveRecord;
use crate::trace::{IterationRecord, Trace};

/// The version-bearing file magic.
pub const MAGIC: &[u8] = b"complx-ckpt/v1\n";

const TAG_META: u32 = 1;
const TAG_SCALARS: u32 = 2;
const TAG_LOWER: u32 = 3;
const TAG_UPPER: u32 = 4;
const TAG_BEST: u32 = 5;
const TAG_TRACE: u32 = 6;
const TAG_SOLVES: u32 = 7;

/// Why a checkpoint failed to load or validate.
#[derive(Debug)]
#[non_exhaustive]
pub enum CkptError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file does not start with the `complx-ckpt/v1` magic (wrong file
    /// or a future/incompatible format version).
    BadMagic,
    /// The file ends before the declared structure does.
    Truncated,
    /// The FNV-1a checksum does not match — torn write or bit rot.
    Checksum,
    /// The structure is internally inconsistent (unknown or duplicate
    /// section, length mismatch, trailing bytes).
    Malformed(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "i/o error reading checkpoint: {e}"),
            CkptError::BadMagic => f.write_str("not a complx-ckpt/v1 file"),
            CkptError::Truncated => f.write_str("checkpoint file is truncated"),
            CkptError::Checksum => f.write_str("checkpoint checksum mismatch"),
            CkptError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A checkpoint: the λ-loop state captured at the bottom of iteration
/// `state.iteration` (after the schedule advanced for the next iteration),
/// behind the header that ties it to one design and configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Hash of the design the run was placing (see [`design_hash`]).
    pub design_hash: u64,
    /// Hash of the determinism-relevant configuration (see [`config_hash`]).
    pub config_hash: u64,
    /// Rotation generation (1-based, monotonically increasing per write).
    pub generation: u64,
    /// The loop state itself; resume continues at `state.iteration + 1`.
    pub state: LoopState,
}

// ---------------------------------------------------------------------------
// Encoding

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn placement(&mut self, p: &Placement) {
        self.usize(p.len());
        for &x in p.xs() {
            self.f64(x);
        }
        for &y in p.ys() {
            self.f64(y);
        }
    }
    /// Appends section `tag` with the payload `write` produces.
    fn section(&mut self, tag: u32, write: impl FnOnce(&mut Enc)) {
        let mut payload = Enc::new();
        write(&mut payload);
        self.u32(tag);
        self.u64(payload.buf.len() as u64);
        self.buf.extend_from_slice(&payload.buf);
    }
}

/// Serializes a checkpoint to the `complx-ckpt/v1` byte format
/// (checksummed, ready to write to disk).
pub fn encode(ckpt: &CheckpointState) -> Vec<u8> {
    encode_with(
        ckpt.design_hash,
        ckpt.config_hash,
        ckpt.generation,
        &ckpt.state,
    )
}

/// [`encode`] from the header fields and a borrowed loop state.
fn encode_with(design_hash: u64, config_hash: u64, generation: u64, state: &LoopState) -> Vec<u8> {
    let mut out = Enc::new();
    out.buf.extend_from_slice(MAGIC);
    out.u32(7); // section count

    out.section(TAG_META, |e| {
        e.u64(design_hash);
        e.u64(config_hash);
        e.u64(generation);
        e.usize(state.iteration);
    });
    out.section(TAG_SCALARS, |e| {
        e.f64(state.schedule.lambda());
        e.f64(state.schedule.lambda_1());
        e.f64(state.schedule.h());
        e.f64(state.pi_prev);
        e.f64(state.cg_tol);
        e.f64(state.best_phi_upper);
        e.f64(state.final_lambda);
        e.usize(state.recoveries);
        e.usize(state.stale);
    });
    out.section(TAG_LOWER, |e| e.placement(&state.lower));
    out.section(TAG_UPPER, |e| e.placement(&state.upper));
    out.section(TAG_BEST, |e| e.placement(&state.best_upper));
    out.section(TAG_TRACE, |e| {
        e.usize(state.trace.len());
        for r in state.trace.records() {
            e.usize(r.iteration);
            e.f64(r.lambda);
            e.f64(r.phi_lower);
            e.f64(r.phi_upper);
            e.f64(r.pi);
            e.f64(r.lagrangian);
            e.f64(r.overflow);
            e.usize(r.bins);
        }
    });
    out.section(TAG_SOLVES, |e| {
        e.usize(state.solves.len());
        for r in &state.solves {
            e.usize(r.iteration);
            e.usize(r.iterations_x);
            e.usize(r.iterations_y);
            e.f64(r.relative_residual);
            e.usize(r.clamped_diagonals);
            e.buf.push(u8::from(r.converged));
            e.buf.push(u8::from(r.breakdown));
        }
    });

    let crc = fnv1a(&out.buf);
    out.u64(crc);
    out.buf
}

// ---------------------------------------------------------------------------
// Decoding

struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).ok_or(CkptError::Truncated)?;
        if end > self.data.len() {
            return Err(CkptError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        let a: [u8; 4] = b
            .try_into()
            .map_err(|_| CkptError::Malformed("u32 slice".into()))?;
        Ok(u32::from_le_bytes(a))
    }
    fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        let a: [u8; 8] = b
            .try_into()
            .map_err(|_| CkptError::Malformed("u64 slice".into()))?;
        Ok(u64::from_le_bytes(a))
    }
    fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A `u64` that must fit a `usize`; `what` names it in the error.
    fn usize(&mut self, what: &str) -> Result<usize, CkptError> {
        usize::try_from(self.u64()?).map_err(|_| CkptError::Malformed(format!("{what} overflow")))
    }
    /// A count that must be representable and small enough that the
    /// remaining bytes could hold `width` bytes per element.
    fn count(&mut self, width: usize) -> Result<usize, CkptError> {
        let n = self.usize("count")?;
        if n.checked_mul(width)
            .is_none_or(|need| need > self.remaining())
        {
            return Err(CkptError::Malformed(format!(
                "count {n} exceeds remaining payload"
            )));
        }
        Ok(n)
    }
    fn placement(&mut self) -> Result<Placement, CkptError> {
        let n = self.count(16)?;
        let mut xs = Vec::with_capacity(n);
        for _ in 0..n {
            xs.push(self.f64()?);
        }
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            ys.push(self.f64()?);
        }
        Ok(Placement::from_coords(xs, ys))
    }
    fn finish_section(&self) -> Result<(), CkptError> {
        if self.remaining() != 0 {
            return Err(CkptError::Malformed(format!(
                "{} trailing bytes in section",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Parses and validates `complx-ckpt/v1` bytes.
pub fn decode(bytes: &[u8]) -> Result<CheckpointState, CkptError> {
    if bytes.len() < MAGIC.len() {
        return Err(CkptError::Truncated);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(CkptError::Truncated);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 8);
    let stored: [u8; 8] = crc_bytes
        .try_into()
        .map_err(|_| CkptError::Malformed("crc slice".into()))?;
    if fnv1a(body) != u64::from_le_bytes(stored) {
        return Err(CkptError::Checksum);
    }

    let mut dec = Dec::new(&body[MAGIC.len()..]);
    let count = dec.u32()?;
    if count != 7 {
        return Err(CkptError::Malformed(format!(
            "expected 7 sections, found {count}"
        )));
    }
    // Tags are 1..=7, so a tag names its slot directly.
    let mut sections: [Option<&[u8]>; 7] = [None; 7];
    for _ in 0..count {
        let tag = dec.u32()?;
        let len = usize::try_from(dec.u64()?).map_err(|_| CkptError::Truncated)?;
        let payload = dec.take(len)?;
        let slot = sections
            .get_mut((tag as usize).wrapping_sub(1))
            .ok_or_else(|| CkptError::Malformed(format!("unknown section tag {tag}")))?;
        if slot.replace(payload).is_some() {
            return Err(CkptError::Malformed(format!("duplicate section tag {tag}")));
        }
    }
    dec.finish_section()?;

    // Struct-literal fields and call arguments evaluate as written, so
    // every literal below reads its fields in wire order.
    let (design_hash, config_hash, generation, iteration) =
        read_section(&sections, TAG_META, |d| {
            Ok((d.u64()?, d.u64()?, d.u64()?, d.usize("iteration")?))
        })?;
    let placement = |tag| read_section(&sections, tag, |d| d.placement());
    let (lower, upper, best_upper) = (
        placement(TAG_LOWER)?,
        placement(TAG_UPPER)?,
        placement(TAG_BEST)?,
    );
    if lower.len() != upper.len() || lower.len() != best_upper.len() {
        return Err(CkptError::Malformed(format!(
            "placement lengths disagree: {} / {} / {}",
            lower.len(),
            upper.len(),
            best_upper.len()
        )));
    }
    let trace = read_section(&sections, TAG_TRACE, |d| {
        let mut trace = Trace::new();
        for _ in 0..d.count(64)? {
            trace.push(IterationRecord {
                iteration: d.usize("trace iteration")?,
                lambda: d.f64()?,
                phi_lower: d.f64()?,
                phi_upper: d.f64()?,
                pi: d.f64()?,
                lagrangian: d.f64()?,
                overflow: d.f64()?,
                bins: d.usize("trace bins")?,
            });
        }
        Ok(trace)
    })?;
    let solves = read_section(&sections, TAG_SOLVES, |d| {
        let n = d.count(42)?;
        let mut solves = Vec::with_capacity(n);
        for _ in 0..n {
            solves.push(SolveRecord {
                iteration: d.usize("solve iteration")?,
                iterations_x: d.usize("solve x")?,
                iterations_y: d.usize("solve y")?,
                relative_residual: d.f64()?,
                clamped_diagonals: d.usize("solve clamps")?,
                converged: d.u8()? != 0,
                breakdown: d.u8()? != 0,
            });
        }
        Ok(solves)
    })?;
    let state = read_section(&sections, TAG_SCALARS, |d| {
        Ok(LoopState {
            iteration,
            schedule: LambdaSchedule::restore(d.f64()?, d.f64()?, d.f64()?),
            pi_prev: d.f64()?,
            cg_tol: d.f64()?,
            best_phi_upper: d.f64()?,
            final_lambda: d.f64()?,
            recoveries: d.usize("recoveries")?,
            stale: d.usize("stale")?,
            lower,
            upper,
            best_upper,
            trace,
            solves,
        })
    })?;
    Ok(CheckpointState {
        design_hash,
        config_hash,
        generation,
        state,
    })
}

/// Decodes section `tag` with `read`, which must consume it exactly.
fn read_section<T>(
    sections: &[Option<&[u8]>; 7],
    tag: u32,
    read: impl FnOnce(&mut Dec<'_>) -> Result<T, CkptError>,
) -> Result<T, CkptError> {
    let bytes = sections
        .get((tag as usize).wrapping_sub(1))
        .copied()
        .flatten()
        .ok_or_else(|| CkptError::Malformed(format!("missing section tag {tag}")))?;
    let mut d = Dec::new(bytes);
    let value = read(&mut d)?;
    d.finish_section()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Durable write + load

/// `<path>.prev` — the previous checkpoint generation.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".prev");
    PathBuf::from(os)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Writes checkpoint generations with the atomic tmp + rotate + rename
/// protocol described in the module docs. Owned by one placement run,
/// whose design and configuration hashes it stamps into every header.
#[derive(Debug)]
pub(crate) struct CheckpointWriter {
    path: PathBuf,
    every: usize,
    generation: u64,
    design_hash: u64,
    config_hash: u64,
}

impl CheckpointWriter {
    /// A writer for `cfg`, continuing from `generation` (0 for a fresh
    /// run; a resumed run passes the loaded checkpoint's generation so the
    /// rotation sequence continues).
    pub(crate) fn new(
        cfg: &CheckpointConfig,
        generation: u64,
        design_hash: u64,
        config_hash: u64,
    ) -> Self {
        Self {
            path: cfg.path.clone(),
            every: cfg.every.max(1),
            generation,
            design_hash,
            config_hash,
        }
    }

    /// Whether iteration `k` is a checkpoint boundary.
    pub(crate) fn due(&self, k: usize) -> bool {
        k.is_multiple_of(self.every)
    }

    /// The generation of the last committed [`Self::write`].
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Encodes `state` as the next generation and durably commits it,
    /// rotating the previous file to `<path>.prev`. `fault` injects a
    /// checkpoint-I/O failure (see [`FaultKind::is_checkpoint_fault`]).
    /// Returns the committed size.
    pub(crate) fn write(
        &mut self,
        state: &LoopState,
        fault: Option<FaultKind>,
    ) -> std::io::Result<u64> {
        let mut bytes = encode_with(
            self.design_hash,
            self.config_hash,
            self.generation + 1,
            state,
        );
        match fault {
            Some(FaultKind::CkptShortWrite) => {
                // A torn write committed by a stray rename: half the file.
                bytes.truncate(bytes.len() / 2);
            }
            Some(FaultKind::CkptCorrupt) => {
                // Silent media corruption after the checksum was computed.
                if let Some(b) = bytes.get_mut(MAGIC.len() + 7) {
                    *b ^= 0x40;
                }
            }
            Some(FaultKind::CkptWriteError) => {
                return Err(std::io::Error::other(FaultKind::CkptWriteError.describe()));
            }
            _ => {}
        }
        let tmp = tmp_path(&self.path);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if self.path.exists() {
            fs::rename(&self.path, prev_path(&self.path))?;
        }
        fs::rename(&tmp, &self.path)?;
        // Durability of the renames themselves: fsync the directory. Best
        // effort — some filesystems refuse opening directories.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        self.generation += 1;
        Ok(bytes.len() as u64)
    }
}

/// Loads the checkpoint at `path`, falling back to `<path>.prev` when the
/// primary file is unreadable, truncated, or corrupt. The `bool` reports
/// whether the fallback generation was used. When both generations fail,
/// the *primary* file's error is returned (it is the actionable one).
pub fn load_checkpoint(path: &Path) -> Result<(CheckpointState, bool), CkptError> {
    let read = |p: &Path| -> Result<CheckpointState, CkptError> {
        let bytes = fs::read(p).map_err(CkptError::Io)?;
        decode(&bytes)
    };
    match read(path) {
        Ok(st) => Ok((st, false)),
        Err(primary) => match read(&prev_path(path)) {
            Ok(st) => Ok((st, true)),
            Err(_) => Err(primary),
        },
    }
}

// ---------------------------------------------------------------------------
// Hashing
//
// The canonical implementations live in [`crate::idhash`] (one FNV-1a-64
// shared by checkpoint validation and the serve result cache); these
// re-exports keep the historical `ckpt::` paths working.

pub use crate::idhash::{config_hash, design_hash, fnv1a};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacerConfig;
    use complx_netlist::generator::GeneratorConfig;

    fn sample_state() -> CheckpointState {
        let mut trace = Trace::new();
        trace.push(IterationRecord {
            iteration: 0,
            lambda: 0.0,
            phi_lower: 100.0,
            phi_upper: 120.0,
            pi: 30.0,
            lagrangian: 100.0,
            overflow: 0.8,
            bins: 4,
        });
        trace.push(IterationRecord {
            iteration: 1,
            lambda: 0.033,
            phi_lower: 101.5,
            phi_upper: 118.25,
            pi: 27.0,
            lagrangian: 102.4,
            overflow: 0.7,
            bins: 5,
        });
        CheckpointState {
            design_hash: 0xdead_beef_cafe_f00d,
            config_hash: 0x0123_4567_89ab_cdef,
            generation: 3,
            state: sample_loop_state(trace),
        }
    }

    fn sample_loop_state(trace: Trace) -> LoopState {
        LoopState {
            iteration: 5,
            schedule: LambdaSchedule::restore(0.125, 0.033, 0.66),
            pi_prev: 27.0,
            cg_tol: 1e-5,
            recoveries: 1,
            stale: 2,
            best_phi_upper: 118.25,
            final_lambda: 0.1,
            lower: Placement::from_coords(vec![1.0, 2.5, -3.0], vec![0.5, f64::MIN_POSITIVE, 9.0]),
            upper: Placement::from_coords(vec![1.5, 2.0, -2.5], vec![1.0, 2.0, 8.5]),
            best_upper: Placement::from_coords(vec![1.25, 2.25, -2.75], vec![0.75, 1.5, 8.75]),
            trace,
            solves: vec![
                SolveRecord {
                    iteration: 0,
                    iterations_x: 12,
                    iterations_y: 14,
                    relative_residual: 3.2e-6,
                    clamped_diagonals: 0,
                    converged: true,
                    breakdown: false,
                },
                SolveRecord {
                    iteration: 5,
                    iterations_x: 50,
                    iterations_y: 48,
                    relative_residual: 8.8e-4,
                    clamped_diagonals: 2,
                    converged: false,
                    breakdown: false,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let st = sample_state();
        let bytes = encode(&st);
        assert!(bytes.starts_with(MAGIC));
        let back = decode(&bytes).expect("decode");
        assert_eq!(st, back);
        // Exact bit patterns for every float.
        assert_eq!(
            st.state.lower.xs()[1].to_bits(),
            back.state.lower.xs()[1].to_bits()
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode(&sample_state());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode(&sample_state());
        // Flip one bit per byte position; each must be caught by the magic
        // check or the checksum.
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 1 << (i % 8);
            assert!(decode(&b).is_err(), "bit flip at byte {i} must not decode");
        }
    }

    #[test]
    fn wrong_magic_is_bad_magic() {
        let mut bytes = encode(&sample_state());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(CkptError::BadMagic)));
    }

    #[test]
    fn writer_rotates_generations_and_loader_falls_back() {
        let dir = std::env::temp_dir().join(format!("complx-ckpt-rotate-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.ckpt");
        let cfg = CheckpointConfig::new(&path, 2);
        let mut w = CheckpointWriter::new(&cfg, 0, 7, 9);
        assert!(w.due(2) && w.due(4) && !w.due(3));

        let mut st = sample_state().state;
        st.iteration = 2;
        w.write(&st, None).expect("first write");
        st.iteration = 4;
        w.write(&st, None).expect("second write");
        assert_eq!(w.generation(), 2);

        let (loaded, fallback) = load_checkpoint(&path).expect("load");
        assert!(!fallback);
        assert_eq!(loaded.state, st);
        assert_eq!(
            (loaded.design_hash, loaded.config_hash, loaded.generation),
            (7, 9, 2)
        );
        let (prev, _) = load_checkpoint(&prev_path(&path)).expect("load prev");
        assert_eq!(prev.state.iteration, 2);

        // Corrupt the primary: the loader must fall back to .prev.
        let mut bytes = fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).expect("corrupt");
        let (loaded, fallback) = load_checkpoint(&path).expect("fallback load");
        assert!(fallback);
        assert_eq!(loaded.state.iteration, 2);

        // Corrupt .prev too: now loading fails with the primary's error.
        fs::write(prev_path(&path), b"garbage").expect("corrupt prev");
        assert!(matches!(load_checkpoint(&path), Err(CkptError::Checksum)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_faults_behave_as_documented() {
        let dir = std::env::temp_dir().join(format!("complx-ckpt-faults-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.ckpt");
        let cfg = CheckpointConfig::new(&path, 1);
        let mut w = CheckpointWriter::new(&cfg, 0, 7, 9);
        let st = sample_state().state;

        // A good generation first.
        w.write(&st, None).expect("clean write");

        // Short write: commits a truncated file; load falls back.
        w.write(&st, Some(FaultKind::CkptShortWrite))
            .expect("short write still commits");
        let (_, fallback) = load_checkpoint(&path).expect("fallback");
        assert!(fallback, "short write must fail validation");

        // Write error: nothing committed, primary untouched.
        let before = fs::read(&path).expect("read");
        assert!(w.write(&st, Some(FaultKind::CkptWriteError)).is_err());
        assert_eq!(fs::read(&path).expect("read"), before);

        // Corrupt-on-write: commits a checksum-failing file.
        w.write(&st, Some(FaultKind::CkptCorrupt)).expect("commit");
        let bytes = fs::read(&path).expect("read");
        assert!(matches!(decode(&bytes), Err(CkptError::Checksum)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn design_hash_distinguishes_designs_and_is_stable() {
        let a = GeneratorConfig::small("ha", 1).generate();
        let a2 = GeneratorConfig::small("ha", 1).generate();
        let b = GeneratorConfig::small("hb", 2).generate();
        assert_eq!(design_hash(&a), design_hash(&a2));
        assert_ne!(design_hash(&a), design_hash(&b));
    }

    #[test]
    fn config_hash_ignores_run_management_fields() {
        let base = PlacerConfig::fast();
        let mut managed = base.clone();
        managed.time_budget = Some(30.0);
        managed.faults = Some(crate::faults::FaultPlan::new().inject(3, FaultKind::Kill));
        managed.checkpoint = Some(CheckpointConfig::new("/tmp/x.ckpt", 5));
        assert_eq!(config_hash(&base), config_hash(&managed));

        let mut different = base.clone();
        different.cg_tolerance *= 10.0;
        assert_ne!(config_hash(&base), config_hash(&different));
        assert_ne!(
            config_hash(&PlacerConfig::fast()),
            config_hash(&PlacerConfig::simpl())
        );
    }
}
