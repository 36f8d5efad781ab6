//! End-to-end tests over a real socket: a live daemon, framed bundles in,
//! framed results out.
//!
//! The headline assertion is byte-identity: a solution served by the
//! daemon equals, byte for byte, the bundle a direct in-process solve of
//! the same design and configuration writes. The determinism contract
//! (bit-identical placements at any thread count) is what the serving
//! layer inherits that guarantee from.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use complx_netlist::generator::GeneratorConfig;
use complx_netlist::{bookshelf, Design};
use complx_obs::JsonValue;
use complx_place::{solve, PlacerConfig, SolveRequest};
use complx_serve::client::{request, wait_terminal};
use complx_serve::framing::{decode, encode, Entry};
use complx_serve::{ServeConfig, Server};

/// A scratch directory unique to this test invocation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("complx_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

fn start_server(tag: &str, jobs: usize, queue_capacity: usize) -> (Server, SocketAddr) {
    let mut cfg = ServeConfig::new(scratch(&format!("{tag}_spool")));
    cfg.jobs = jobs;
    cfg.threads_per_job = 2;
    cfg.queue_capacity = queue_capacity;
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr();
    (server, addr)
}

/// Frames a design by writing its Bookshelf bundle and reading it back.
fn frame_design(design: &Design, dir: &Path) -> Vec<u8> {
    let placement = design.initial_placement();
    bookshelf::write_bundle(design, &placement, dir).expect("write bundle");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read bundle dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    let entries: Vec<Entry> = names
        .into_iter()
        .map(|name| Entry {
            data: std::fs::read(dir.join(&name)).expect("read member"),
            name,
        })
        .collect();
    encode(&entries)
}

fn submit(addr: SocketAddr, frame: &[u8], query: &str) -> (u16, JsonValue) {
    let resp = request(addr, "POST", &format!("/jobs{query}"), frame).expect("submit");
    let json = resp.json().expect("submit response json");
    (resp.status, json)
}

fn id_of(status: &JsonValue) -> u64 {
    status.get("id").and_then(|v| v.as_i64()).expect("job id") as u64
}

fn state_of(addr: SocketAddr, id: u64) -> String {
    request(addr, "GET", &format!("/jobs/{id}"), &[])
        .expect("status request")
        .json()
        .expect("status json")
        .get("state")
        .and_then(|s| s.as_str())
        .expect("state field")
        .to_string()
}

fn poll_until_running(addr: SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = state_of(addr, id);
        if state == "running" {
            return;
        }
        assert_eq!(state, "queued", "job {id} must not finish before running");
        assert!(
            Instant::now() < deadline,
            "job {id} never reached running (still {state})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn served_result_is_byte_identical_to_direct_solve() {
    let (server, addr) = start_server("identity", 2, 16);
    let design = GeneratorConfig::small("e2eid", 41).generate();
    let bundle_dir = scratch("identity_bundle");
    let frame = frame_design(&design, &bundle_dir);

    let (code, status) = submit(addr, &frame, "?max_iterations=6");
    assert_eq!(code, 202, "fresh submission is queued: {status:?}");
    let id = id_of(&status);
    let final_status = wait_terminal(addr, id, Duration::from_secs(300)).expect("job finishes");
    assert_eq!(
        final_status.get("state").and_then(|s| s.as_str()),
        Some("done"),
        "job must solve cleanly: {final_status:?}"
    );

    // The live events stream replays complete JSONL lines and is
    // terminated by the job's close.
    let events = request(addr, "GET", &format!("/jobs/{id}/events"), &[]).expect("events");
    assert_eq!(events.status, 200);
    let text = String::from_utf8(events.body).expect("events are utf-8");
    assert!(!text.is_empty(), "solve must emit progress events");
    for line in text.lines() {
        complx_obs::parse(line).expect("each event line is complete JSON");
    }

    let served = request(addr, "GET", &format!("/jobs/{id}/result"), &[]).expect("result");
    assert_eq!(served.status, 200);
    let served_entries = decode(&served.body).expect("served frame decodes");

    // Direct in-process solve of the same parsed bundle, same config,
    // different thread budget — the contract says bytes still match.
    let parsed = bookshelf::read_aux(bundle_dir.join("e2eid.aux")).expect("parse back");
    let config = PlacerConfig {
        max_iterations: 6,
        ..PlacerConfig::default()
    };
    let mut req = SolveRequest::new(config);
    req.threads = Some(1);
    let arts = solve(&parsed.design, req).expect("direct solve");
    let direct_dir = scratch("identity_direct");
    bookshelf::write_bundle(&parsed.design, &arts.outcome.legal, &direct_dir)
        .expect("write direct bundle");

    let mut compared = 0;
    for entry in &served_entries {
        let Some(name) = entry.name.strip_prefix("solution/") else {
            continue;
        };
        let direct = std::fs::read(direct_dir.join(name)).expect("direct member exists");
        assert_eq!(
            entry.data, direct,
            "served {name} differs from the direct solve"
        );
        compared += 1;
    }
    assert!(compared >= 5, "expected a full bundle, compared {compared}");
    assert!(
        served_entries.iter().any(|e| e.name == "report.json"),
        "served frame carries the run report"
    );

    server.request_shutdown();
    server.join();
}

#[test]
fn queue_overflow_is_shed_with_429() {
    let (server, addr) = start_server("overflow", 1, 1);
    let design = GeneratorConfig::small("e2eovf", 42).generate();
    let frame = frame_design(&design, &scratch("overflow_bundle"));
    let stress = "?preset=stress&max_iterations=1000000";

    let (code, status) = submit(addr, &frame, stress);
    assert_eq!(code, 202);
    let holder = id_of(&status);
    poll_until_running(addr, holder);

    // The single worker is pinned; this one occupies the only queue slot.
    let (code, status) = submit(addr, &frame, &format!("{stress}&priority=low"));
    assert_eq!(code, 202, "queue slot available: {status:?}");
    let queued = id_of(&status);

    let (code, body) = submit(addr, &frame, stress);
    assert_eq!(code, 429, "full queue sheds: {body:?}");
    assert_eq!(body.get("capacity").and_then(|v| v.as_i64()), Some(1));

    // Shedding must not have corrupted anything: cancel the backlog and
    // the runner, and the server drains cleanly.
    for id in [queued, holder] {
        let resp = request(addr, "DELETE", &format!("/jobs/{id}"), &[]).expect("cancel");
        assert!(resp.status == 200 || resp.status == 202, "{}", resp.status);
        let status = wait_terminal(addr, id, Duration::from_secs(120)).expect("terminal");
        assert_eq!(
            status.get("state").and_then(|s| s.as_str()),
            Some("cancelled")
        );
    }
    server.request_shutdown();
    server.join();
}

#[test]
fn duplicate_submission_is_served_from_cache() {
    let (server, addr) = start_server("dup", 1, 8);
    let design = GeneratorConfig::small("e2edup", 43).generate();
    let frame = frame_design(&design, &scratch("dup_bundle"));

    let (code, status) = submit(addr, &frame, "?max_iterations=5");
    assert_eq!(code, 202);
    let first = id_of(&status);
    let status = wait_terminal(addr, first, Duration::from_secs(300)).expect("first job");
    assert_eq!(status.get("state").and_then(|s| s.as_str()), Some("done"));

    // Same design, same config → born done from the cache, no queueing.
    let (code, status) = submit(addr, &frame, "?max_iterations=5");
    assert_eq!(code, 200, "cache hit answers immediately: {status:?}");
    assert_eq!(status.get("cached").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(status.get("state").and_then(|s| s.as_str()), Some("done"));
    let second = id_of(&status);
    assert_ne!(first, second, "a cache hit is still a distinct job");

    let a = request(addr, "GET", &format!("/jobs/{first}/result"), &[]).expect("first result");
    let b = request(addr, "GET", &format!("/jobs/{second}/result"), &[]).expect("second result");
    assert_eq!(a.status, 200);
    assert_eq!(b.status, 200);
    assert_eq!(a.body, b.body, "cached result is byte-identical");

    // A different config misses the cache and queues a real solve.
    let (code, status) = submit(addr, &frame, "?max_iterations=4");
    assert_eq!(code, 202, "different config_hash misses: {status:?}");
    let third = id_of(&status);
    wait_terminal(addr, third, Duration::from_secs(300)).expect("third job");

    let stats = request(addr, "GET", "/stats", &[])
        .expect("stats")
        .json()
        .expect("stats json");
    let hits = stats
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(|v| v.as_i64())
        .expect("cache hits counter");
    assert!(hits >= 1, "stats must report the cache hit: {stats:?}");

    server.request_shutdown();
    server.join();
}

#[test]
fn cancel_mid_solve_ends_cancelled_and_server_stays_healthy() {
    let (server, addr) = start_server("cancel", 1, 8);
    let design = GeneratorConfig::small("e2ecan", 44).generate();
    let frame = frame_design(&design, &scratch("cancel_bundle"));

    let (code, status) = submit(addr, &frame, "?preset=stress&max_iterations=1000000");
    assert_eq!(code, 202);
    let id = id_of(&status);
    poll_until_running(addr, id);

    let resp = request(addr, "DELETE", &format!("/jobs/{id}"), &[]).expect("cancel");
    assert_eq!(resp.status, 202, "mid-solve cancel is acknowledged");
    let status = wait_terminal(addr, id, Duration::from_secs(120)).expect("terminal");
    assert_eq!(
        status.get("state").and_then(|s| s.as_str()),
        Some("cancelled"),
        "cooperative token must end the job cancelled: {status:?}"
    );

    // No result for a cancelled job…
    let resp = request(addr, "GET", &format!("/jobs/{id}/result"), &[]).expect("result probe");
    assert_eq!(resp.status, 409);

    // …and the daemon is fully healthy: liveness plus a fresh solve.
    let health = request(addr, "GET", "/healthz", &[]).expect("healthz");
    assert_eq!(health.status, 200);
    let (code, status) = submit(addr, &frame, "?max_iterations=4");
    assert_eq!(code, 202, "fresh work admitted after a cancel: {status:?}");
    let follow_up = id_of(&status);
    let status = wait_terminal(addr, follow_up, Duration::from_secs(300)).expect("follow-up");
    assert_eq!(status.get("state").and_then(|s| s.as_str()), Some("done"));

    server.request_shutdown();
    server.join();
}
