//! The committed perf trajectory: `complx-bench/v1` snapshots and the
//! regression gate over them.
//!
//! A *snapshot* is a JSON file under `results/BENCH_*.json` recording what
//! a benchmark suite measured at the commit that blessed it: per-case
//! wall-clock, iteration counts, final quality, allocation totals and a
//! per-kernel time breakdown. `complx-bench-snapshot` regenerates the
//! placer snapshot; `bench_check` re-runs the same matrix and compares the
//! fresh measurements against the committed file under [`Tolerances`] —
//! exact where the determinism contract promises exactness (iterations,
//! scaled HPWL, kernel invocation counts), tight where allocation behavior
//! is deterministic-modulo-runtime-noise, and deliberately generous on
//! wall-clock so the gate catches order-of-magnitude regressions without
//! flaking on a loaded machine.

use std::time::Instant;

use complx_netlist::generator::GeneratorConfig;
use complx_netlist::Design;
use complx_obs::{prof, JsonValue};
use complx_place::{ComplxPlacer, PlaceError, PlacerConfig, ProjectionBackend};

/// Schema identifier every committed benchmark snapshot must carry.
pub const BENCH_SCHEMA: &str = "complx-bench/v1";

/// One kernel row of a case: aggregated span timing for a phase path.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStat {
    /// Span path (`place/iteration/cg_solve_x`).
    pub path: String,
    /// Number of span invocations.
    pub count: u64,
    /// Wall-clock seconds of the span on its issuing thread.
    pub wall_seconds: f64,
    /// Busy seconds summed across every thread that worked under the
    /// span (the merged `…/chunks` time); equals `wall_seconds` for
    /// serial kernels.
    pub busy_seconds: f64,
    /// `busy_seconds / wall_seconds` — effective parallelism.
    pub parallelism: f64,
}

impl KernelStat {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("path", JsonValue::Str(self.path.clone())),
            ("count", JsonValue::Int(self.count as i64)),
            ("wall_seconds", JsonValue::Num(self.wall_seconds)),
            ("busy_seconds", JsonValue::Num(self.busy_seconds)),
            ("parallelism", JsonValue::Num(self.parallelism)),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let path = req_str(v, "path", "kernel")?;
        Ok(Self {
            path: path.to_string(),
            count: req_u64(v, "count", "kernel")?,
            wall_seconds: req_f64(v, "wall_seconds", "kernel")?,
            busy_seconds: req_f64(v, "busy_seconds", "kernel")?,
            parallelism: req_f64(v, "parallelism", "kernel")?,
        })
    }
}

/// Allocation accounting for a case (charged to the root `place` span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseMemory {
    /// Allocations performed during the run.
    pub allocs: u64,
    /// Bytes allocated during the run.
    pub alloc_bytes: u64,
    /// Peak live heap bytes observed during the run.
    pub peak_bytes: i64,
}

impl CaseMemory {
    fn to_json(self) -> JsonValue {
        JsonValue::object(vec![
            ("allocs", JsonValue::Int(self.allocs as i64)),
            ("alloc_bytes", JsonValue::Int(self.alloc_bytes as i64)),
            ("peak_bytes", JsonValue::Int(self.peak_bytes)),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(Self {
            allocs: req_u64(v, "allocs", "memory")?,
            alloc_bytes: req_u64(v, "alloc_bytes", "memory")?,
            peak_bytes: req_f64(v, "peak_bytes", "memory")? as i64,
        })
    }
}

/// One measured benchmark case.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Case name (design scale), unique together with `threads`.
    pub name: String,
    /// Thread count the case ran at.
    pub threads: usize,
    /// Wall-clock seconds of the measured region.
    pub wall_seconds: f64,
    /// Global-placement iterations (exact under the determinism contract).
    pub iterations: Option<u64>,
    /// Named quality metrics (`scaled_hpwl`, `hpwl`, `overflow_percent`).
    pub metrics: Vec<(String, f64)>,
    /// Allocation accounting, when the tracking allocator was installed.
    pub memory: Option<CaseMemory>,
    /// Per-kernel breakdown.
    pub kernels: Vec<KernelStat>,
    /// Free-form extra fields (suite-specific).
    pub extra: JsonValue,
}

impl BenchCase {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("name", JsonValue::Str(self.name.clone())),
            ("threads", JsonValue::Int(self.threads as i64)),
            ("wall_seconds", JsonValue::Num(self.wall_seconds)),
        ];
        if let Some(it) = self.iterations {
            fields.push(("iterations", JsonValue::Int(it as i64)));
        }
        if !self.metrics.is_empty() {
            fields.push((
                "metrics",
                JsonValue::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                        .collect(),
                ),
            ));
        }
        if let Some(m) = &self.memory {
            fields.push(("memory", m.to_json()));
        }
        if !self.kernels.is_empty() {
            fields.push((
                "kernels",
                JsonValue::Arr(self.kernels.iter().map(KernelStat::to_json).collect()),
            ));
        }
        if !matches!(&self.extra, JsonValue::Obj(o) if o.is_empty()) {
            fields.push(("extra", self.extra.clone()));
        }
        JsonValue::object(fields)
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let name = req_str(v, "name", "case")?.to_string();
        let threads = req_u64(v, "threads", "case")? as usize;
        let wall_seconds = req_f64(v, "wall_seconds", "case")?;
        let iterations =
            match v.get("iterations") {
                None => None,
                Some(it) => Some(it.as_i64().and_then(|n| u64::try_from(n).ok()).ok_or_else(
                    || format!("case `{name}`: iterations must be a non-negative integer"),
                )?),
            };
        let mut metrics = Vec::new();
        if let Some(m) = v.get("metrics") {
            let JsonValue::Obj(fields) = m else {
                return Err(format!("case `{name}`: metrics must be an object"));
            };
            for (k, mv) in fields {
                let n = mv
                    .as_f64()
                    .ok_or_else(|| format!("case `{name}`: metric `{k}` must be a number"))?;
                metrics.push((k.clone(), n));
            }
        }
        let memory = match v.get("memory") {
            None => None,
            Some(m) => Some(CaseMemory::from_json(m).map_err(|e| format!("case `{name}`: {e}"))?),
        };
        let mut kernels = Vec::new();
        if let Some(k) = v.get("kernels") {
            let arr = k
                .as_array()
                .ok_or_else(|| format!("case `{name}`: kernels must be an array"))?;
            for kv in arr {
                kernels.push(KernelStat::from_json(kv).map_err(|e| format!("case `{name}`: {e}"))?);
            }
        }
        let extra = match v.get("extra") {
            Some(e @ JsonValue::Obj(_)) => e.clone(),
            Some(_) => return Err(format!("case `{name}`: extra must be an object")),
            None => JsonValue::Obj(Vec::new()),
        };
        Ok(Self {
            name,
            threads,
            wall_seconds,
            iterations,
            metrics,
            memory,
            kernels,
            extra,
        })
    }

    /// Looks up a named metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// A full `complx-bench/v1` snapshot: a named suite plus its cases.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Suite name (`placer`, `resume`).
    pub suite: String,
    /// Measured cases.
    pub cases: Vec<BenchCase>,
}

impl BenchSnapshot {
    /// Serializes to the committed JSON shape.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("schema", JsonValue::Str(BENCH_SCHEMA.to_string())),
            ("suite", JsonValue::Str(self.suite.clone())),
            (
                "cases",
                JsonValue::Arr(self.cases.iter().map(BenchCase::to_json).collect()),
            ),
        ])
    }

    /// Parses and fully validates a snapshot. Unknown schema versions are
    /// rejected (forward compatibility is an explicit re-bless, never a
    /// silent reinterpretation).
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let schema = req_str(v, "schema", "snapshot")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unknown bench schema `{schema}` (this tool understands `{BENCH_SCHEMA}`)"
            ));
        }
        let suite = req_str(v, "suite", "snapshot")?.to_string();
        if suite.is_empty() {
            return Err("snapshot: suite must be non-empty".to_string());
        }
        let cases_json = v
            .get("cases")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "snapshot: cases must be an array".to_string())?;
        if cases_json.is_empty() {
            return Err("snapshot: cases must be non-empty".to_string());
        }
        let mut cases = Vec::with_capacity(cases_json.len());
        for c in cases_json {
            cases.push(BenchCase::from_json(c)?);
        }
        let mut keys: Vec<(&str, usize)> =
            cases.iter().map(|c| (c.name.as_str(), c.threads)).collect();
        keys.sort_unstable();
        keys.dedup();
        if keys.len() != cases.len() {
            return Err("snapshot: duplicate (name, threads) case".to_string());
        }
        Ok(Self { suite, cases })
    }

    /// Finds a case by its `(name, threads)` key.
    pub fn case(&self, name: &str, threads: usize) -> Option<&BenchCase> {
        self.cases
            .iter()
            .find(|c| c.name == name && c.threads == threads)
    }
}

fn req_str<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{ctx}: `{key}` must be a string"))
}

fn req_f64(v: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .filter(|n| n.is_finite())
        .ok_or_else(|| format!("{ctx}: `{key}` must be a finite number"))
}

fn req_u64(v: &JsonValue, key: &str, ctx: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_i64)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| format!("{ctx}: `{key}` must be a non-negative integer"))
}

// ---------------------------------------------------------------------------
// The placer benchmark matrix.
// ---------------------------------------------------------------------------

/// Thread counts every scale runs at. 1 exercises the inline path, 4 and 8
/// oversubscribe small machines on purpose — the determinism contract makes
/// that a scheduling question only, and the gate's exact fields (iterations,
/// HPWL, kernel counts) must hold regardless.
pub const MATRIX_THREADS: [usize; 3] = [1, 4, 8];

/// One cell of the benchmark matrix.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Case name (`s`, `m`, `l`, `s_electro`, `m_electro`).
    pub name: &'static str,
    /// Movable standard cells in the generated design.
    pub cells: usize,
    /// Thread count.
    pub threads: usize,
    /// Projection backend `P_C` runs through.
    pub projection: ProjectionBackend,
}

/// The full placer matrix: three generated scales × [`MATRIX_THREADS`]
/// under the geometric projection, plus the electrostatic counterparts of
/// the two smaller scales at 1 and 4 threads — same designs, same configs,
/// only `P_C` swapped, so the `place/iteration/projection` kernel rows are
/// a direct geometric-vs-electro comparison. Sizes are deliberately
/// modest — the gate runs inside `check.sh` on whatever machine CI gives
/// it, so the whole matrix must finish in seconds, not minutes.
pub fn placer_matrix() -> Vec<MatrixSpec> {
    let scales: [(&'static str, usize); 3] = [("s", 600), ("m", 1200), ("l", 2400)];
    let mut specs = Vec::with_capacity(scales.len() * MATRIX_THREADS.len() + 4);
    for (name, cells) in scales {
        for threads in MATRIX_THREADS {
            specs.push(MatrixSpec {
                name,
                cells,
                threads,
                projection: ProjectionBackend::Geometric,
            });
        }
    }
    let electro: [(&'static str, usize); 2] = [("s_electro", 600), ("m_electro", 1200)];
    for (name, cells) in electro {
        for threads in [1usize, 4] {
            specs.push(MatrixSpec {
                name,
                cells,
                threads,
                projection: ProjectionBackend::Electro,
            });
        }
    }
    specs
}

/// Kernel paths the snapshot records per case (chunk sub-spans are folded
/// into their parent's busy time instead of listed separately).
const KERNEL_PATHS: [&str; 7] = [
    "place/bootstrap",
    "place/iteration",
    "place/iteration/b2b_rebuild",
    "place/iteration/cg_solve_x",
    "place/iteration/cg_solve_y",
    "place/iteration/projection",
    "place/detail",
];

fn bench_design(spec: &MatrixSpec) -> Design {
    // The electro cases strip their suffix so each backend pair runs on a
    // byte-identical design and differs in the projection alone.
    let base = spec.name.trim_end_matches("_electro");
    if spec.cells <= 600 {
        GeneratorConfig::small(format!("bench_{base}"), 7).generate()
    } else {
        GeneratorConfig::ispd2005_like(format!("bench_{base}"), 7, spec.cells).generate()
    }
}

fn bench_config() -> PlacerConfig {
    let mut cfg = PlacerConfig::fast();
    // A fixed, modest iteration cap keeps the matrix fast and makes the
    // `iterations` field a pure determinism probe (cap-or-converge, both
    // exactly reproducible).
    cfg.max_iterations = 20;
    cfg
}

/// Runs one matrix cell and measures it.
///
/// The caller is expected to have installed [`prof::CountingAlloc`] as the
/// global allocator, prewarmed the pool to the matrix's largest thread
/// count and completed a warm-up run, so the measured window contains no
/// one-time process cost. Memory profiling is armed for the duration of
/// the run and disarmed again before returning.
///
/// # Errors
///
/// Returns the placer's error: a generated bench design that fails to
/// place is a broken placer, and the gate must fail, not soft-fail.
pub fn run_case(spec: &MatrixSpec) -> Result<BenchCase, PlaceError> {
    let design = bench_design(spec);
    let mut cfg = bench_config();
    cfg.projection = spec.projection;
    let projection_label = cfg.projection.to_string();
    let _threads = complx_par::with_threads(spec.threads);
    prof::set_mem_profiling(true);
    prof::reset_mem_counters();
    complx_obs::install(Vec::new());
    let t = Instant::now();
    let placed = ComplxPlacer::new(cfg).place(&design);
    let wall = t.elapsed().as_secs_f64();
    let harvest = complx_obs::harvest().unwrap_or_default();
    // Process-global totals, not the `place` span's attribution: the
    // calling thread steals a run-dependent share of the chunk queue, so
    // per-thread attribution wobbles while the all-threads total is
    // deterministic modulo runtime noise — which is what a tight
    // regression band needs.
    let totals = prof::mem_totals();
    prof::set_mem_profiling(false);
    let outcome = placed?;

    let phase = |p: &str| harvest.phases.iter().find(|s| s.path == p);
    let mut kernels = Vec::new();
    for path in KERNEL_PATHS {
        let Some(stat) = phase(path) else { continue };
        let wall_s = stat.total_seconds;
        let chunk_busy = phase(&format!("{path}/chunks")).map_or(0.0, |c| c.total_seconds);
        let busy = if chunk_busy > 0.0 { chunk_busy } else { wall_s };
        kernels.push(KernelStat {
            path: path.to_string(),
            count: stat.count,
            wall_seconds: wall_s,
            busy_seconds: busy,
            parallelism: if wall_s > 0.0 { busy / wall_s } else { 1.0 },
        });
    }
    let memory = (totals.allocs > 0).then_some(CaseMemory {
        allocs: totals.allocs,
        alloc_bytes: totals.alloc_bytes,
        peak_bytes: totals.peak_bytes,
    });
    Ok(BenchCase {
        name: spec.name.to_string(),
        threads: spec.threads,
        wall_seconds: wall,
        iterations: Some(outcome.iterations as u64),
        metrics: vec![
            ("scaled_hpwl".to_string(), outcome.metrics.scaled_hpwl),
            ("hpwl".to_string(), outcome.metrics.hpwl),
            (
                "overflow_percent".to_string(),
                outcome.metrics.overflow_percent,
            ),
        ],
        memory,
        kernels,
        extra: JsonValue::object(vec![("projection", projection_label.into())]),
    })
}

/// Runs the whole placer matrix (with pool prewarm and a warm-up run) and
/// returns the fresh snapshot.
///
/// # Errors
///
/// Returns the first case's placer error, as [`run_case`].
pub fn measure_placer_suite(progress: impl Fn(&MatrixSpec)) -> Result<BenchSnapshot, PlaceError> {
    let max_threads = MATRIX_THREADS.iter().copied().max().unwrap_or(1);
    complx_par::prewarm(max_threads);
    // Warm-up: page in the code, fill the pool, let lazy statics settle, so
    // the first measured case is not special.
    {
        let _t = complx_par::with_threads(max_threads);
        let design = GeneratorConfig::small("bench_warmup", 7).generate();
        let _ = ComplxPlacer::new(bench_config()).place(&design);
    }
    let mut cases = Vec::new();
    for spec in placer_matrix() {
        progress(&spec);
        cases.push(run_case(&spec)?);
    }
    Ok(BenchSnapshot {
        suite: "placer".to_string(),
        cases,
    })
}

// ---------------------------------------------------------------------------
// The regression gate.
// ---------------------------------------------------------------------------

/// Tolerance bands for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Fresh wall-clock may be at most `wall_ratio ×` the committed value
    /// (plus [`Self::wall_slack_seconds`]): generous, because the gate
    /// must not flake on machine load, but tight enough to catch an
    /// accidental algorithmic blow-up.
    pub wall_ratio: f64,
    /// Absolute slack added to the wall-clock bound, so sub-millisecond
    /// committed times do not turn the ratio into a noise amplifier.
    pub wall_slack_seconds: f64,
    /// Relative tolerance on the allocation *count* — tight: allocation
    /// patterns are deterministic modulo small runtime/thread-startup
    /// noise, and a doubling is a real regression.
    pub alloc_rel: f64,
    /// Relative tolerance on allocated bytes.
    pub bytes_rel: f64,
    /// Relative tolerance on peak live bytes (the per-span peak is a
    /// bracket, and arena growth rounds to powers of two).
    pub peak_rel: f64,
    /// Relative tolerance on quality metrics (scaled HPWL): effectively
    /// exact — placements are bit-identical under the determinism
    /// contract; the epsilon only absorbs JSON text round-trips.
    pub metric_rel: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self {
            wall_ratio: 8.0,
            wall_slack_seconds: 0.25,
            alloc_rel: 0.05,
            bytes_rel: 0.10,
            peak_rel: 0.25,
            metric_rel: 1e-9,
        }
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    // Exact zero is the both-values-are-zero
    // sentinel; any nonzero denominator must divide.
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// Compares a fresh measurement against the committed snapshot.
///
/// Returns human-readable violations; an empty vector is a pass. Every
/// committed case must be present in the fresh run and vice versa, so the
/// matrix cannot silently shrink.
pub fn compare(committed: &BenchSnapshot, fresh: &BenchSnapshot, tol: &Tolerances) -> Vec<String> {
    let mut violations = Vec::new();
    if committed.suite != fresh.suite {
        violations.push(format!(
            "suite mismatch: committed `{}` vs fresh `{}`",
            committed.suite, fresh.suite
        ));
        return violations;
    }
    for f in &fresh.cases {
        if committed.case(&f.name, f.threads).is_none() {
            violations.push(format!(
                "case {}@{}t measured fresh but missing from the committed snapshot (re-bless it)",
                f.name, f.threads
            ));
        }
    }
    for c in &committed.cases {
        let key = format!("{}@{}t", c.name, c.threads);
        let Some(f) = fresh.case(&c.name, c.threads) else {
            violations.push(format!("case {key} in committed snapshot was not measured"));
            continue;
        };
        if let (Some(ci), Some(fi)) = (c.iterations, f.iterations) {
            if ci != fi {
                violations.push(format!(
                    "{key}: iteration count changed {ci} -> {fi} (exact field; placement behavior changed)"
                ));
            }
        }
        for (name, cv) in &c.metrics {
            if let Some(fv) = f.metric(name) {
                let d = rel_diff(*cv, fv);
                if d > tol.metric_rel {
                    violations.push(format!(
                        "{key}: metric {name} drifted {cv} -> {fv} (rel {d:.2e} > {:.0e})",
                        tol.metric_rel
                    ));
                }
            }
        }
        let bound = c.wall_seconds * tol.wall_ratio + tol.wall_slack_seconds;
        if f.wall_seconds > bound {
            violations.push(format!(
                "{key}: wall-clock {:.3}s exceeds {:.3}s ({}x committed {:.3}s + {:.2}s slack)",
                f.wall_seconds, bound, tol.wall_ratio, c.wall_seconds, tol.wall_slack_seconds
            ));
        }
        if let (Some(cm), Some(fm)) = (c.memory, f.memory) {
            let checks = [
                ("allocs", cm.allocs as f64, fm.allocs as f64, tol.alloc_rel),
                (
                    "alloc_bytes",
                    cm.alloc_bytes as f64,
                    fm.alloc_bytes as f64,
                    tol.bytes_rel,
                ),
                (
                    "peak_bytes",
                    cm.peak_bytes as f64,
                    fm.peak_bytes as f64,
                    tol.peak_rel,
                ),
            ];
            for (what, cv, fv, band) in checks {
                let d = rel_diff(cv, fv);
                if d > band {
                    violations.push(format!(
                        "{key}: {what} drifted {cv:.0} -> {fv:.0} (rel {:.1}% > {:.0}%)",
                        d * 100.0,
                        band * 100.0
                    ));
                }
            }
        }
        for ck in &c.kernels {
            if ck.path.ends_with("/chunks") {
                continue;
            }
            if let Some(fk) = f.kernels.iter().find(|k| k.path == ck.path) {
                if fk.count != ck.count {
                    violations.push(format!(
                        "{key}: kernel {} invocation count changed {} -> {} (exact field)",
                        ck.path, ck.count, fk.count
                    ));
                }
            } else {
                violations.push(format!("{key}: kernel {} no longer recorded", ck.path));
            }
        }
    }
    violations
}

/// Renders a snapshot as an aligned text table (for the bin's stdout).
pub fn summary_table(snap: &BenchSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:>3}  {:>9}  {:>5}  {:>14}  {:>9}  {:>12}  {:>10}\n",
        "case", "thr", "wall(s)", "iters", "scaled_hpwl", "allocs", "alloc(B)", "peak(B)"
    ));
    for c in &snap.cases {
        out.push_str(&format!(
            "{:<6} {:>3}  {:>9.3}  {:>5}  {:>14.1}  {:>9}  {:>12}  {:>10}\n",
            c.name,
            c.threads,
            c.wall_seconds,
            c.iterations
                .map_or_else(|| "-".to_string(), |i| i.to_string()),
            c.metric("scaled_hpwl").unwrap_or(f64::NAN),
            c.memory
                .map_or_else(|| "-".to_string(), |m| m.allocs.to_string()),
            c.memory
                .map_or_else(|| "-".to_string(), |m| m.alloc_bytes.to_string()),
            c.memory
                .map_or_else(|| "-".to_string(), |m| m.peak_bytes.to_string()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> BenchSnapshot {
        BenchSnapshot {
            suite: "placer".to_string(),
            cases: vec![BenchCase {
                name: "s".to_string(),
                threads: 1,
                wall_seconds: 0.5,
                iterations: Some(20),
                metrics: vec![("scaled_hpwl".to_string(), 12345.678)],
                memory: Some(CaseMemory {
                    allocs: 1000,
                    alloc_bytes: 1 << 20,
                    peak_bytes: 1 << 18,
                }),
                kernels: vec![KernelStat {
                    path: "place/iteration".to_string(),
                    count: 20,
                    wall_seconds: 0.4,
                    busy_seconds: 0.4,
                    parallelism: 1.0,
                }],
                extra: JsonValue::Obj(Vec::new()),
            }],
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = tiny_snapshot();
        let text = snap.to_json().to_json_pretty();
        let back = BenchSnapshot::from_json(&complx_obs::parse(&text).expect("parses"))
            .expect("validates");
        assert_eq!(snap, back);
    }

    #[test]
    fn unknown_schema_versions_are_rejected() {
        let mut v = tiny_snapshot().to_json();
        if let JsonValue::Obj(fields) = &mut v {
            fields[0].1 = JsonValue::Str("complx-bench/v2".to_string());
        }
        let err = BenchSnapshot::from_json(&v).expect_err("v2 must be rejected");
        assert!(err.contains("unknown bench schema"), "{err}");
    }

    #[test]
    fn missing_required_fields_are_rejected() {
        let v = complx_obs::parse(
            r#"{"schema":"complx-bench/v1","suite":"placer","cases":[{"name":"s"}]}"#,
        )
        .expect("parses");
        assert!(BenchSnapshot::from_json(&v).is_err());
        let v = complx_obs::parse(r#"{"schema":"complx-bench/v1","suite":"","cases":[]}"#)
            .expect("parses");
        assert!(BenchSnapshot::from_json(&v).is_err());
    }

    #[test]
    fn identical_snapshots_pass_the_gate() {
        let snap = tiny_snapshot();
        assert!(compare(&snap, &snap, &Tolerances::default()).is_empty());
    }

    #[test]
    fn gate_flags_each_tolerance_band() {
        let committed = tiny_snapshot();
        let tol = Tolerances::default();

        let mut slow = committed.clone();
        slow.cases[0].wall_seconds = committed.cases[0].wall_seconds * 10.0 + 1.0;
        let v = compare(&committed, &slow, &tol);
        assert!(v.iter().any(|s| s.contains("wall-clock")), "{v:?}");

        let mut leaky = committed.clone();
        leaky.cases[0].memory = Some(CaseMemory {
            allocs: 2000,
            alloc_bytes: 1 << 20,
            peak_bytes: 1 << 18,
        });
        let v = compare(&committed, &leaky, &tol);
        assert!(v.iter().any(|s| s.contains("allocs")), "{v:?}");

        let mut drifted = committed.clone();
        drifted.cases[0].metrics[0].1 *= 1.001;
        let v = compare(&committed, &drifted, &tol);
        assert!(v.iter().any(|s| s.contains("scaled_hpwl")), "{v:?}");

        let mut more_iters = committed.clone();
        more_iters.cases[0].iterations = Some(21);
        let v = compare(&committed, &more_iters, &tol);
        assert!(v.iter().any(|s| s.contains("iteration count")), "{v:?}");

        let mut missing = committed.clone();
        missing.cases.clear();
        missing.cases.push(BenchCase {
            name: "other".to_string(),
            ..committed.cases[0].clone()
        });
        let v = compare(&committed, &missing, &tol);
        assert!(v.iter().any(|s| s.contains("was not measured")), "{v:?}");
    }

    #[test]
    fn small_wall_times_get_absolute_slack() {
        let mut committed = tiny_snapshot();
        committed.cases[0].wall_seconds = 0.001;
        let mut fresh = committed.clone();
        fresh.cases[0].wall_seconds = 0.2; // 200x, but under the slack
        assert!(compare(&committed, &fresh, &Tolerances::default()).is_empty());
    }

    #[test]
    fn matrix_is_geometric_grid_plus_electro_counterparts() {
        let m = placer_matrix();
        // 3 geometric scales × 3 thread counts + 2 electro scales × 2.
        assert_eq!(m.len(), 13);
        let mut names: Vec<&str> = m.iter().map(|s| s.name).collect();
        names.dedup();
        assert_eq!(names.len(), 5);
        let electro = m
            .iter()
            .filter(|s| matches!(s.projection, ProjectionBackend::Electro))
            .count();
        assert_eq!(electro, 4);
        for spec in &m {
            assert_eq!(
                spec.name.ends_with("_electro"),
                matches!(spec.projection, ProjectionBackend::Electro),
                "case {} projection/name mismatch",
                spec.name
            );
        }
    }
}
