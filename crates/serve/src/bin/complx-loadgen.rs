//! Load generator for `complx-serve`: replays a phased job mix against a
//! running daemon and emits a `complx-bench/v1` snapshot of the run.
//!
//! Usage: `complx-loadgen --port P [--jobs N] [--designs D] [--cancels C]
//! [--duplicates K] [--max-iterations M] [--fetch-dir DIR]
//! [--snapshot FILE] [--expect-cache-hits] [--shutdown]`
//!
//! Three phases, deterministic by construction:
//!
//! 1. **unique** — N jobs over D generated designs with cycled priorities
//!    and per-job iteration caps, so every `(design, config)` key is
//!    distinct; waits for all of them to finish.
//! 2. **duplicate** — resubmits K unique keys once each, chosen from the
//!    tail of the scheduler's pop order (priority rank, then submission
//!    sequence) — the most recently completed and therefore most recently
//!    cached, so an LRU cache smaller than the unique job count still
//!    holds them; because phase 1 has fully drained, each resubmission
//!    must be answered from the result cache (`cached: true`, born
//!    `done`).
//! 3. **cancel** — C `preset=stress` jobs (no convergence criterion, huge
//!    iteration cap), cancelled mid-solve once observed `running`; each
//!    must end `cancelled` and the daemon must stay healthy.
//!
//! `--fetch-dir` downloads job 1's result frame and unpacks it for
//! byte-identity comparison against a direct CLI run of the same bundle.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use complx_bench::snapshot::{BenchCase, BenchSnapshot};
use complx_netlist::generator::GeneratorConfig;
use complx_netlist::{bookshelf, Design};
use complx_obs::JsonValue;
use complx_serve::client::{request, wait_terminal};
use complx_serve::framing::{encode, Entry};

fn usage() -> ! {
    eprintln!(
        "usage: complx-loadgen --port P [--jobs N] [--designs D] [--cancels C] \
         [--duplicates K] [--max-iterations M] [--fetch-dir DIR] \
         [--snapshot FILE] [--expect-cache-hits] [--shutdown]"
    );
    std::process::exit(2);
}

fn parse_num(flag: &str, value: Option<String>) -> usize {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("complx-loadgen: {flag} needs a numeric value");
            usage();
        }
    }
}

/// Frames a design as a submission body by writing its Bookshelf bundle
/// to a scratch directory and reading the members back.
fn frame_design(design: &Design, scratch: &Path) -> std::io::Result<Vec<u8>> {
    let dir = scratch.join(design.name());
    std::fs::create_dir_all(&dir)?;
    let placement = design.initial_placement();
    let aux = bookshelf::write_bundle(design, &placement, &dir)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut entries = Vec::new();
    let mut names: Vec<String> = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        entries.push(Entry {
            data: std::fs::read(dir.join(&name))?,
            name,
        });
    }
    debug_assert!(aux.is_file());
    Ok(encode(&entries))
}

fn submit(addr: SocketAddr, body: &[u8], query: &str) -> Result<(u16, JsonValue), std::io::Error> {
    let resp = request(addr, "POST", &format!("/jobs{query}"), body)?;
    let json = resp.json().map_err(std::io::Error::other)?;
    Ok((resp.status, json))
}

fn job_id(status: &JsonValue) -> Option<u64> {
    status.get("id").and_then(|v| v.as_i64()).map(|v| v as u64)
}

fn fail(message: String) -> ExitCode {
    eprintln!("complx-loadgen: FAIL: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut port: Option<u16> = None;
    let mut jobs = 50usize;
    let mut designs = 4usize;
    let mut cancels = 2usize;
    let mut duplicates: Option<usize> = None;
    let mut max_iterations = 8usize;
    let mut fetch_dir: Option<PathBuf> = None;
    let mut snapshot_path: Option<PathBuf> = None;
    let mut expect_cache_hits = false;
    let mut shutdown = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => port = Some(parse_num("--port", args.next()) as u16),
            "--jobs" => jobs = parse_num("--jobs", args.next()),
            "--designs" => designs = parse_num("--designs", args.next()).max(1),
            "--cancels" => cancels = parse_num("--cancels", args.next()),
            "--duplicates" => duplicates = Some(parse_num("--duplicates", args.next())),
            "--max-iterations" => {
                max_iterations = parse_num("--max-iterations", args.next()).max(1)
            }
            "--fetch-dir" => fetch_dir = args.next().map(PathBuf::from),
            "--snapshot" => snapshot_path = args.next().map(PathBuf::from),
            "--expect-cache-hits" => expect_cache_hits = true,
            "--shutdown" => shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("complx-loadgen: unknown flag `{other}`");
                usage();
            }
        }
    }
    let Some(port) = port else {
        eprintln!("complx-loadgen: --port is required");
        usage();
    };
    let addr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port));
    let scratch = std::env::temp_dir().join(format!("complx-loadgen-{}", std::process::id()));

    let started = Instant::now();
    let designs: Vec<Design> = (0..designs)
        .map(|i| GeneratorConfig::small(&format!("lg{i}"), 9000 + i as u64).generate())
        .collect();
    let frames: Vec<Vec<u8>> = match designs
        .iter()
        .map(|d| frame_design(d, &scratch))
        .collect::<Result<_, _>>()
    {
        Ok(f) => f,
        Err(e) => return fail(format!("framing designs: {e}")),
    };

    // Phase 1: unique submissions. Distinct (design, max_iterations) pairs
    // make distinct cache keys; priorities cycle high/normal/low.
    let priorities = ["high", "normal", "low"];
    let mut unique: Vec<(u64, String)> = Vec::new(); // (job id, resubmit query)
    for i in 0..jobs {
        let frame = &frames[i % frames.len()];
        let iters = max_iterations + i / frames.len();
        let query = format!(
            "?priority={}&max_iterations={iters}",
            priorities[i % priorities.len()]
        );
        match submit(addr, frame, &query) {
            Ok((202, status)) => match job_id(&status) {
                Some(id) => unique.push((id, query)),
                None => return fail(format!("submit {i}: no id in {status:?}")),
            },
            Ok((429, _)) => {
                // Shed by admission control: back off and retry the slot.
                std::thread::sleep(Duration::from_millis(100));
                let retry = submit(addr, frame, &query);
                match retry {
                    Ok((202, status)) => match job_id(&status) {
                        Some(id) => unique.push((id, query)),
                        None => return fail(format!("retry {i}: no id")),
                    },
                    Ok((code, body)) => return fail(format!("retry {i}: HTTP {code} {body:?}")),
                    Err(e) => return fail(format!("retry {i}: {e}")),
                }
            }
            Ok((200, status)) => {
                // Duplicate key within the unique phase (possible when the
                // iteration spread collides) — still a valid terminal job.
                match job_id(&status) {
                    Some(id) => unique.push((id, query)),
                    None => return fail(format!("submit {i}: no id")),
                }
            }
            Ok((code, body)) => return fail(format!("submit {i}: HTTP {code} {body:?}")),
            Err(e) => return fail(format!("submit {i}: {e}")),
        }
    }
    let mut done = 0u64;
    for (id, _) in &unique {
        match wait_terminal(addr, *id, Duration::from_secs(600)) {
            Ok(status) => {
                let state = status.get("state").and_then(|s| s.as_str()).unwrap_or("");
                if state != "done" {
                    return fail(format!("job {id} ended `{state}`: {status:?}"));
                }
                done += 1;
            }
            Err(e) => return fail(format!("waiting for job {id}: {e}")),
        }
    }
    eprintln!(
        "complx-loadgen: phase unique: {done}/{} done in {:.2}s",
        unique.len(),
        started.elapsed().as_secs_f64()
    );

    // Phase 2: duplicates. Everything has drained; the cache holds the
    // most recently *completed* keys, and completion order follows the
    // queue's deterministic pop order (priority rank, then submission
    // sequence) up to worker-count jitter. Resubmitting the tail of that
    // order hits even when the LRU capacity is below the unique count.
    let dup_started = Instant::now();
    let dup_count = duplicates.unwrap_or(unique.len()).min(unique.len());
    let mut pop_order: Vec<usize> = (0..unique.len()).collect();
    pop_order.sort_by_key(|&i| (i % priorities.len(), i)); // rank, then seq
    let mut cache_hits = 0u64;
    for &i in &pop_order[unique.len() - dup_count..] {
        let query = &unique[i].1;
        let frame = &frames[i % frames.len()];
        match submit(addr, frame, query) {
            Ok((200, status)) => {
                let cached = status.get("cached").and_then(|v| v.as_bool());
                let state = status.get("state").and_then(|s| s.as_str());
                if cached != Some(true) || state != Some("done") {
                    return fail(format!("duplicate {i} not served from cache: {status:?}"));
                }
                cache_hits += 1;
            }
            Ok((code, body)) => {
                return fail(format!(
                    "duplicate {i}: HTTP {code} {body:?} (expected 200)"
                ))
            }
            Err(e) => return fail(format!("duplicate {i}: {e}")),
        }
    }
    eprintln!(
        "complx-loadgen: phase duplicate: {cache_hits} cache hits in {:.2}s",
        dup_started.elapsed().as_secs_f64()
    );

    // Phase 3: mid-flight cancels against stress solves.
    let cancel_started = Instant::now();
    let mut cancelled = 0u64;
    for i in 0..cancels {
        let frame = &frames[i % frames.len()];
        let query = "?preset=stress&max_iterations=100000&priority=high";
        let id = match submit(addr, frame, query) {
            Ok((202, status)) => match job_id(&status) {
                Some(id) => id,
                None => return fail(format!("cancel target {i}: no id")),
            },
            Ok((code, body)) => return fail(format!("cancel target {i}: HTTP {code} {body:?}")),
            Err(e) => return fail(format!("cancel target {i}: {e}")),
        };
        // Wait until it holds a scheduler slot, then cancel mid-solve.
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let state = match request(addr, "GET", &format!("/jobs/{id}"), &[]) {
                Ok(resp) => resp
                    .json()
                    .ok()
                    .and_then(|s| s.get("state").and_then(|v| v.as_str().map(String::from)))
                    .unwrap_or_default(),
                Err(e) => return fail(format!("polling cancel target {id}: {e}")),
            };
            if state == "running" {
                break;
            }
            if state != "queued" {
                return fail(format!(
                    "cancel target {id} reached `{state}` before cancel"
                ));
            }
            if Instant::now() >= deadline {
                return fail(format!("cancel target {id} never started running"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if let Err(e) = request(addr, "DELETE", &format!("/jobs/{id}"), &[]) {
            return fail(format!("cancelling job {id}: {e}"));
        }
        match wait_terminal(addr, id, Duration::from_secs(120)) {
            Ok(status) => {
                let state = status.get("state").and_then(|s| s.as_str()).unwrap_or("");
                if state != "cancelled" {
                    return fail(format!("cancel target {id} ended `{state}`"));
                }
                cancelled += 1;
            }
            Err(e) => return fail(format!("waiting for cancelled job {id}: {e}")),
        }
    }
    eprintln!(
        "complx-loadgen: phase cancel: {cancelled} cancelled in {:.2}s",
        cancel_started.elapsed().as_secs_f64()
    );

    // Health probe: the daemon must still answer after the churn.
    let stats = match request(addr, "GET", "/stats", &[]).map(|r| r.json()) {
        Ok(Ok(stats)) => stats,
        Ok(Err(e)) => return fail(format!("stats parse: {e}")),
        Err(e) => return fail(format!("stats after load: {e}")),
    };
    let server_hits = stats
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(|v| v.as_i64())
        .unwrap_or(0);
    eprintln!("complx-loadgen: server stats: {}", stats.to_json_string());
    if expect_cache_hits && server_hits == 0 {
        return fail("expected cache hits but the server reports none".to_string());
    }

    // Byte-identity artifact: unpack job 1's served result frame.
    if let Some(dir) = &fetch_dir {
        let first = match unique.first() {
            Some((id, _)) => *id,
            None => return fail("--fetch-dir needs at least one unique job".to_string()),
        };
        let resp = match request(addr, "GET", &format!("/jobs/{first}/result"), &[]) {
            Ok(r) if r.status == 200 => r,
            Ok(r) => return fail(format!("result fetch: HTTP {}", r.status)),
            Err(e) => return fail(format!("result fetch: {e}")),
        };
        let entries = match complx_serve::framing::decode(&resp.body) {
            Ok(e) => e,
            Err(e) => return fail(format!("result frame: {e}")),
        };
        for entry in &entries {
            let path = dir.join(&entry.name);
            if let Some(parent) = path.parent() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    return fail(format!("unpack {}: {e}", path.display()));
                }
            }
            if let Err(e) = std::fs::write(&path, &entry.data) {
                return fail(format!("unpack {}: {e}", path.display()));
            }
        }
        // Also unpack the input bundle the job solved, so a caller can
        // replay it through the CLI and byte-compare the solutions.
        let input = match complx_serve::framing::decode(&frames[0]) {
            Ok(e) => e,
            Err(e) => return fail(format!("input frame: {e}")),
        };
        for entry in &input {
            let path = dir.join("input").join(&entry.name);
            if let Some(parent) = path.parent() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    return fail(format!("unpack {}: {e}", path.display()));
                }
            }
            if let Err(e) = std::fs::write(&path, &entry.data) {
                return fail(format!("unpack {}: {e}", path.display()));
            }
        }
        eprintln!(
            "complx-loadgen: unpacked {} result members and the input bundle to {}",
            entries.len(),
            dir.display()
        );
    }

    if shutdown {
        match request(addr, "POST", "/shutdown", &[]) {
            Ok(r) if r.status == 200 => eprintln!("complx-loadgen: shutdown requested"),
            Ok(r) => return fail(format!("shutdown: HTTP {}", r.status)),
            Err(e) => return fail(format!("shutdown: {e}")),
        }
    }

    if let Some(path) = snapshot_path {
        let snapshot = BenchSnapshot {
            suite: "serve".to_string(),
            cases: vec![BenchCase {
                name: "loadgen".to_string(),
                threads: 1,
                wall_seconds: started.elapsed().as_secs_f64(),
                iterations: None,
                metrics: vec![
                    ("jobs_done".to_string(), done as f64),
                    ("cache_hits".to_string(), cache_hits as f64),
                    ("cancelled".to_string(), cancelled as f64),
                ],
                memory: None,
                kernels: Vec::new(),
                extra: JsonValue::object(vec![
                    ("designs", frames.len().into()),
                    ("server_cache_hits", server_hits.into()),
                ]),
            }],
        };
        let doc = snapshot.to_json().to_json_pretty();
        let write = std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(doc.as_bytes()).and_then(|()| f.flush()));
        if let Err(e) = write {
            return fail(format!("writing snapshot {}: {e}", path.display()));
        }
        eprintln!("complx-loadgen: snapshot written to {}", path.display());
    }

    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!(
        "complx-loadgen: OK ({done} solved, {cache_hits} cache hits, {cancelled} cancelled, {:.2}s total)",
        started.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}
