//! The daemon: accept loop, scheduler workers, and endpoint handlers.
//!
//! Endpoints (all bodies JSON unless noted):
//!
//! | method | path                | semantics                                    |
//! |--------|---------------------|----------------------------------------------|
//! | POST   | `/jobs`             | submit a framed bundle → 202/200/400/429/503 |
//! | GET    | `/jobs/{id}`        | status JSON                                  |
//! | GET    | `/jobs/{id}/events` | chunked live JSONL progress stream           |
//! | GET    | `/jobs/{id}/result` | framed result bundle (report + solution)     |
//! | DELETE | `/jobs/{id}`        | cancel (dequeue, or trip the solve's token)  |
//! | GET    | `/stats`            | queue/cache/job counters                     |
//! | GET    | `/healthz`          | liveness probe                               |
//! | POST   | `/shutdown`         | graceful drain and exit                      |
//!
//! Submit query parameters: `priority=high|normal|low`,
//! `preset=default|fast|simpl|finest-grid|detail|stress`,
//! `projection=geometric|electro` (which `P_C` backend the solve uses),
//! and `max_iterations=N`. The `stress` preset disables every convergence
//! criterion so the solve runs to its iteration cap — the deterministic
//! way to keep a job busy for cancellation and overload tests.
//!
//! Concurrency model: one accept thread, one detached thread per
//! connection (requests are `Connection: close`), and `jobs` scheduler
//! workers that pop the priority queue and run solves through
//! [`complx_place::solve`] with a per-job thread budget. The determinism
//! contract (bit-identical results at any thread count) is what makes a
//! served result byte-identical to a CLI run of the same bundle.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use complx_netlist::{bookshelf, Design};
use complx_obs::{JsonValue, JsonlSink, Sink};
use complx_par::CancelToken;
use complx_place::{
    config_hash, design_hash, solve, PlaceError, PlacerConfig, SolveArtifacts, SolveRequest,
    StopReason,
};

use crate::cache::{self, ResultCache};
use crate::events::{EventBuf, EventBufWriter};
use crate::framing;
use crate::http::{self, HttpError, Request};
use crate::job::{Job, JobState, JobTable, Priority};
use crate::queue::JobQueue;
use crate::spool;
use crate::sync::{lock_or_recover, Rank, RankedMutex};

/// How long a silent events streamer waits between liveness ticks.
const STREAM_PATIENCE: Duration = Duration::from_millis(200);
/// Socket read/write deadline — a stuck peer cannot pin a handler thread.
const SOCKET_DEADLINE: Duration = Duration::from_secs(30);

/// Server construction parameters (the `complx-serve` CLI maps onto this).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`Server::addr`]).
    pub bind: String,
    /// Number of scheduler workers — jobs solving concurrently.
    pub jobs: usize,
    /// Thread budget each solve runs under (`complx_par::with_threads`).
    pub threads_per_job: usize,
    /// Queue depth beyond which submissions are shed with 429.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (`0` disables caching).
    pub cache_entries: usize,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Spool root; one subdirectory per job id.
    pub spool: std::path::PathBuf,
}

impl ServeConfig {
    /// Sensible defaults around a spool root: ephemeral port, 2 workers ×
    /// 2 threads, queue of 64, cache of 128.
    pub fn new(spool: impl Into<std::path::PathBuf>) -> Self {
        Self {
            bind: "127.0.0.1:0".to_string(),
            jobs: 2,
            threads_per_job: 2,
            queue_capacity: 64,
            cache_entries: 128,
            max_body: http::MAX_BODY,
            spool: spool.into(),
        }
    }
}

/// Monotonic job-outcome counters served by `GET /stats`.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    submitted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    rejected: u64,
    cache_served: u64,
}

/// State shared by the accept loop, connection handlers, and workers.
struct Shared {
    cfg: ServeConfig,
    jobs: RankedMutex<JobTable>,
    queue: RankedMutex<JobQueue>,
    wake: Condvar,
    cache: RankedMutex<ResultCache>,
    stats: RankedMutex<Stats>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    addr: OnceLock<SocketAddr>,
}

impl Shared {
    fn new(cfg: ServeConfig) -> Self {
        Self {
            jobs: RankedMutex::new(Rank::Jobs, JobTable::default()),
            queue: RankedMutex::new(Rank::Queue, JobQueue::new(cfg.queue_capacity)),
            wake: Condvar::new(),
            cache: RankedMutex::new(Rank::Cache, ResultCache::new(cfg.cache_entries)),
            stats: RankedMutex::new(Rank::Stats, Stats::default()),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            addr: OnceLock::new(),
            cfg,
        }
    }
}

/// A running daemon; dropping it does *not* stop the threads — call
/// [`Server::request_shutdown`] then [`Server::join`], or let a client
/// `POST /shutdown`.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the workers and the accept loop, and returns.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&cfg.spool)?;
        let listener = TcpListener::bind(&cfg.bind)?;
        let addr = listener.local_addr()?;
        complx_par::prewarm(cfg.jobs.max(1) * cfg.threads_per_job.max(1));
        let worker_count = cfg.jobs.max(1);
        let shared = Arc::new(Shared::new(cfg));
        let _ = shared.addr.set(addr);
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let s = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&s))?,
            );
        }
        let accept = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&s, &listener))?
        };
        Ok(Server {
            shared,
            addr,
            accept,
            workers,
        })
    }

    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates the same graceful drain as `POST /shutdown`.
    pub fn request_shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Blocks until the accept loop and every worker have exited.
    pub fn join(self) {
        let Server {
            accept, workers, ..
        } = self;
        let _ = accept.join();
        for w in workers {
            let _ = w.join();
        }
    }
}

/// Graceful drain: refuse new work, cancel the queued backlog, trip every
/// running solve's token, and wake the accept loop so it can exit.
fn initiate_shutdown(shared: &Arc<Shared>) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    let drained = lock_or_recover(&shared.queue).drain();
    for id in drained {
        let mut jobs = lock_or_recover(&shared.jobs);
        let Some(job) = jobs.get_mut(id) else {
            continue;
        };
        if job.state != JobState::Queued {
            continue;
        }
        job.state = JobState::Cancelled;
        job.error = Some("server shutdown".to_string());
        job.events.close();
        let status = job.status_json();
        let dir = job.spool_dir.clone();
        drop(jobs);
        lock_or_recover(&shared.stats).cancelled += 1;
        commit_manifest(&dir, &status);
    }
    for job in lock_or_recover(&shared.jobs).values() {
        if job.state == JobState::Running {
            job.cancel.cancel();
        }
    }
    shared.wake.notify_all();
    if let Some(addr) = shared.addr.get() {
        // Unblock the accept loop: it re-checks the flag per connection.
        let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let s = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_connection(&s, stream));
        if spawned.is_err() {
            // Out of threads: shed the connection rather than the server.
            continue;
        }
    }
}

fn respond_json(stream: &mut TcpStream, status: u16, body: &JsonValue) {
    let _ = http::write_response(
        stream,
        status,
        "application/json",
        body.to_json_string().as_bytes(),
    );
}

fn error_json(message: impl Into<String>) -> JsonValue {
    JsonValue::object(vec![("error", message.into().into())])
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(SOCKET_DEADLINE));
    let _ = stream.set_write_timeout(Some(SOCKET_DEADLINE));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let req = match http::read_request(&mut reader, shared.cfg.max_body) {
        Ok(Some(req)) => req,
        Ok(None) => return,
        Err(HttpError::TooLarge(n)) => {
            respond_json(
                &mut stream,
                413,
                &error_json(format!("body too large ({n} bytes)")),
            );
            return;
        }
        Err(HttpError::Bad(why)) => {
            respond_json(&mut stream, 400, &error_json(why));
            return;
        }
        Err(HttpError::Io(_)) => return,
    };
    dispatch(shared, &req, &mut stream);
    let _ = stream.flush();
}

fn dispatch(shared: &Arc<Shared>, req: &Request, stream: &mut TcpStream) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            respond_json(stream, 200, &JsonValue::object(vec![("ok", true.into())]));
        }
        ("GET", ["stats"]) => {
            let body = stats_json(shared);
            respond_json(stream, 200, &body);
        }
        ("POST", ["jobs"]) => {
            let (status, body) = handle_submit(shared, req);
            respond_json(stream, status, &body);
        }
        ("GET", ["jobs", id]) => match parse_id(id) {
            Some(id) => match lock_or_recover(&shared.jobs).get(id) {
                Some(job) => respond_json(stream, 200, &job.status_json()),
                None => respond_json(stream, 404, &error_json(format!("no job {id}"))),
            },
            None => respond_json(stream, 400, &error_json("bad job id")),
        },
        ("DELETE", ["jobs", id]) => match parse_id(id) {
            Some(id) => {
                let (status, body) = handle_cancel(shared, id);
                respond_json(stream, status, &body);
            }
            None => respond_json(stream, 400, &error_json("bad job id")),
        },
        ("GET", ["jobs", id, "events"]) => match parse_id(id) {
            Some(id) => handle_events(shared, id, stream),
            None => respond_json(stream, 400, &error_json("bad job id")),
        },
        ("GET", ["jobs", id, "result"]) => match parse_id(id) {
            Some(id) => handle_result(shared, id, stream),
            None => respond_json(stream, 400, &error_json("bad job id")),
        },
        ("POST", ["shutdown"]) => {
            respond_json(
                stream,
                200,
                &JsonValue::object(vec![("shutting_down", true.into())]),
            );
            initiate_shutdown(shared);
        }
        _ => {
            respond_json(
                stream,
                404,
                &error_json(format!("no route {} {}", req.method, req.path)),
            );
        }
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse::<u64>().ok()
}

/// Maps the submit query parameters onto a placer configuration.
fn resolve_config(req: &Request) -> Result<PlacerConfig, String> {
    let mut config = PlacerConfig::preset(req.query_param("preset").unwrap_or("default"))?;
    if let Some(n) = req.query_param("max_iterations") {
        let n: usize = n.parse().map_err(|_| format!("bad max_iterations `{n}`"))?;
        if n == 0 {
            return Err("max_iterations must be at least 1".to_string());
        }
        config.max_iterations = n;
    }
    if let Some(b) = req.query_param("projection") {
        config.projection = b
            .parse()
            .map_err(|_| format!("bad projection `{b}` (geometric|electro)"))?;
    }
    Ok(config)
}

fn handle_submit(shared: &Arc<Shared>, req: &Request) -> (u16, JsonValue) {
    if shared.shutdown.load(Ordering::SeqCst) {
        return (503, error_json("shutting down"));
    }
    let priority = match req.query_param("priority").map(Priority::parse) {
        None => Priority::Normal,
        Some(Ok(p)) => p,
        Some(Err(why)) => return (400, error_json(why)),
    };
    let config = match resolve_config(req) {
        Ok(c) => c,
        Err(why) => return (400, error_json(why)),
    };
    let entries = match framing::decode(&req.body) {
        Ok(e) => e,
        Err(e) => return (400, error_json(format!("bad bundle frame: {e}"))),
    };
    let aux_name = match framing::aux_entry(&entries) {
        Ok(e) => e.name.clone(),
        Err(e) => return (400, error_json(format!("bad bundle frame: {e}"))),
    };

    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let dir = spool::job_dir(&shared.cfg.spool, id);
    let aux_path = match spool::write_input(&dir, &entries, &aux_name) {
        Ok(p) => p,
        Err(e) => return (500, error_json(format!("spool: {e}"))),
    };
    let bundle = match bookshelf::read_aux(&aux_path) {
        Ok(b) => b,
        Err(e) => return (400, error_json(format!("bad bundle: {e}"))),
    };
    let dh = design_hash(&bundle.design);
    let ch = config_hash(&config);
    let design_name = bundle.design.name().to_string();

    // Bind the lookup result so the cache guard (a scrutinee temporary)
    // drops at this statement instead of living across the whole hit path.
    let cache_hit = lock_or_recover(&shared.cache).lookup(dh, ch);
    if let Some(entry) = cache_hit {
        // Born done: the determinism contract makes the producer's spooled
        // artifacts this submission's result, byte for byte.
        let events = EventBuf::new();
        events.close();
        let job = Job {
            id,
            priority,
            state: JobState::Done,
            design_name,
            design_hash: dh,
            config_hash: ch,
            cached: true,
            design: None,
            config,
            cancel: CancelToken::new(),
            events,
            spool_dir: dir.clone(),
            result_dir: entry.spool_dir.clone(),
            error: None,
            result: Some(entry.result.clone()),
        };
        let status = job.status_json();
        lock_or_recover(&shared.jobs).insert(job);
        {
            let mut stats = lock_or_recover(&shared.stats);
            stats.submitted += 1;
            stats.completed += 1;
            stats.cache_served += 1;
        }
        commit_manifest(&dir, &status);
        return (200, status);
    }

    let job = Job {
        id,
        priority,
        state: JobState::Queued,
        design_name,
        design_hash: dh,
        config_hash: ch,
        cached: false,
        design: Some(Arc::new(bundle.design)),
        config,
        cancel: CancelToken::new(),
        events: EventBuf::new(),
        spool_dir: dir.clone(),
        result_dir: dir,
        error: None,
        result: None,
    };
    let status = job.status_json();
    {
        // Table insert and queue admission commit together so a pop or a
        // DELETE can never observe one without the other.
        let mut jobs = lock_or_recover(&shared.jobs);
        let mut queue = lock_or_recover(&shared.queue);
        if let Err(full) = queue.push(priority, id) {
            drop(queue);
            drop(jobs);
            lock_or_recover(&shared.stats).rejected += 1;
            return (
                429,
                JsonValue::object(vec![
                    ("error", "queue full".into()),
                    ("capacity", full.capacity.into()),
                ]),
            );
        }
        jobs.insert(job);
    }
    lock_or_recover(&shared.stats).submitted += 1;
    shared.wake.notify_one();
    (202, status)
}

fn handle_cancel(shared: &Arc<Shared>, id: u64) -> (u16, JsonValue) {
    let mut jobs = lock_or_recover(&shared.jobs);
    let Some(job) = jobs.get_mut(id) else {
        return (404, error_json(format!("no job {id}")));
    };
    match job.state {
        JobState::Queued => {
            lock_or_recover(&shared.queue).remove(id);
            job.state = JobState::Cancelled;
            job.error = Some("cancelled while queued".to_string());
            job.events.close();
            let status = job.status_json();
            let dir = job.spool_dir.clone();
            drop(jobs);
            lock_or_recover(&shared.stats).cancelled += 1;
            commit_manifest(&dir, &status);
            (200, status)
        }
        JobState::Running => {
            // Cooperative: the token trips, the solve unwinds at its next
            // cancellation point, and the worker records the terminal state.
            job.cancel.cancel();
            (
                202,
                JsonValue::object(vec![
                    ("id", (id as i64).into()),
                    ("state", "running".into()),
                    ("cancel_requested", true.into()),
                ]),
            )
        }
        state => (
            409,
            JsonValue::object(vec![
                ("error", "already terminal".into()),
                ("state", state.to_string().into()),
            ]),
        ),
    }
}

fn handle_events(shared: &Arc<Shared>, id: u64, stream: &mut TcpStream) {
    let looked_up = {
        let jobs = lock_or_recover(&shared.jobs);
        jobs.get(id)
            .map(|job| (Arc::clone(&job.events), job.cached, job.result_dir.clone()))
    };
    let Some((events, cached, result_dir)) = looked_up else {
        respond_json(stream, 404, &error_json(format!("no job {id}")));
        return;
    };
    if http::start_chunked(stream, 200, "application/x-ndjson").is_err() {
        return;
    }
    if cached {
        // A cache-hit job never ran; replay the producer's recorded stream.
        if let Ok(data) = std::fs::read(result_dir.join("events.jsonl")) {
            if http::write_chunk(stream, &data).is_err() {
                return;
            }
        }
        let _ = http::finish_chunked(stream);
        return;
    }
    let mut pos = 0usize;
    loop {
        match events.read_past(pos, STREAM_PATIENCE) {
            None => break, // closed with nothing further: end of stream
            Some(data) if data.is_empty() => continue, // liveness tick
            Some(data) => {
                pos += data.len();
                if http::write_chunk(stream, &data).is_err() {
                    return; // peer went away; the buffer is unaffected
                }
            }
        }
    }
    let _ = http::finish_chunked(stream);
}

fn handle_result(shared: &Arc<Shared>, id: u64, stream: &mut TcpStream) {
    let looked_up = {
        let jobs = lock_or_recover(&shared.jobs);
        jobs.get(id).map(|job| (job.state, job.result_dir.clone()))
    };
    match looked_up {
        None => respond_json(stream, 404, &error_json(format!("no job {id}"))),
        Some((JobState::Done, result_dir)) => match spool::read_result_frame(&result_dir) {
            Ok(entries) => {
                let bytes = framing::encode(&entries);
                let _ = http::write_response(stream, 200, "application/x-complx-bundle", &bytes);
            }
            Err(e) => respond_json(stream, 500, &error_json(format!("spool: {e}"))),
        },
        Some((state, _)) => respond_json(
            stream,
            409,
            &JsonValue::object(vec![
                ("error", "no result for this job".into()),
                ("state", state.to_string().into()),
            ]),
        ),
    }
}

fn stats_json(shared: &Arc<Shared>) -> JsonValue {
    let stats = *lock_or_recover(&shared.stats);
    let (queued, running) = {
        let jobs = lock_or_recover(&shared.jobs);
        (
            jobs.count_in(JobState::Queued),
            jobs.count_in(JobState::Running),
        )
    };
    let (depth, queue_capacity) = {
        let q = lock_or_recover(&shared.queue);
        (q.len(), q.capacity())
    };
    let (hits, misses, evictions, cache_capacity, cache_len) = {
        let c = lock_or_recover(&shared.cache);
        let (h, m, e, cap) = c.counters();
        (h, m, e, cap, c.len())
    };
    JsonValue::object(vec![
        (
            "jobs",
            JsonValue::object(vec![
                ("submitted", stats.submitted.into()),
                ("completed", stats.completed.into()),
                ("failed", stats.failed.into()),
                ("cancelled", stats.cancelled.into()),
                ("rejected", stats.rejected.into()),
                ("cache_served", stats.cache_served.into()),
                ("queued", queued.into()),
                ("running", running.into()),
            ]),
        ),
        (
            "queue",
            JsonValue::object(vec![
                ("depth", depth.into()),
                ("capacity", queue_capacity.into()),
            ]),
        ),
        (
            "cache",
            JsonValue::object(vec![
                ("hits", hits.into()),
                ("misses", misses.into()),
                ("evictions", evictions.into()),
                ("entries", cache_len.into()),
                ("capacity", cache_capacity.into()),
            ]),
        ),
        (
            "server",
            JsonValue::object(vec![
                ("workers", shared.cfg.jobs.into()),
                ("threads_per_job", shared.cfg.threads_per_job.into()),
                (
                    "shutting_down",
                    shared.shutdown.load(Ordering::SeqCst).into(),
                ),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Scheduler workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut queue = lock_or_recover(&shared.queue);
            loop {
                if let Some(id) = queue.pop() {
                    break id;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = queue.wait(&shared.wake);
            }
        };
        run_job(shared, id);
    }
}

/// Runs one job start to finish: solve, spool, cache, commit manifest.
fn run_job(shared: &Arc<Shared>, id: u64) {
    let popped = {
        let mut jobs = lock_or_recover(&shared.jobs);
        let Some(job) = jobs.get_mut(id) else { return };
        if job.state != JobState::Queued {
            return; // cancelled between pop and claim
        }
        job.state = JobState::Running;
        job.design.take().map(|design| {
            (
                design,
                job.config.clone(),
                job.cancel.clone(),
                Arc::clone(&job.events),
                job.spool_dir.clone(),
            )
        })
    };
    let Some((design, config, cancel, events, dir)) = popped else {
        finish_job(shared, id, &dir_of(shared, id), |job| {
            job.state = JobState::Failed;
            job.error = Some("internal: queued job without a design".to_string());
        });
        lock_or_recover(&shared.stats).failed += 1;
        return;
    };

    let sink: Box<dyn Sink> = Box::new(JsonlSink::new(Box::new(EventBufWriter(Arc::clone(
        &events,
    )))));
    let request = SolveRequest {
        config: config.clone(),
        threads: Some(shared.cfg.threads_per_job.max(1)),
        cancel: Some(cancel),
        sinks: vec![sink],
        resume: None,
    };
    let solved = solve(&design, request);
    events.close();

    match solved {
        Ok(arts) => commit_solved(shared, id, &dir, &design, &arts, &events.snapshot()),
        Err(PlaceError::Cancelled) => finish_cancelled(shared, id, &dir),
        Err(e) => {
            finish_job(shared, id, &dir, |job| {
                job.state = JobState::Failed;
                job.error = Some(e.to_string());
            });
            lock_or_recover(&shared.stats).failed += 1;
        }
    }
}

/// Commits a solve that returned a placement. A cancel that landed after
/// the bootstrap still returns one — legal but truncated — and ends the
/// job `cancelled` exactly like a cancel during the bootstrap. Otherwise
/// the result is spooled and the job is `done`; only a complete run
/// ([`StopReason::is_complete`]) enters the result cache, because only it
/// is what the `(design_hash, config_hash)` key promises.
fn commit_solved(
    shared: &Arc<Shared>,
    id: u64,
    dir: &Path,
    design: &Design,
    arts: &SolveArtifacts,
    events: &[u8],
) {
    let stop = arts.outcome.stop_reason;
    if stop == StopReason::Cancelled {
        finish_cancelled(shared, id, dir);
        return;
    }
    let report_json = arts.report.to_json_string();
    if let Err(e) = spool::write_result(dir, design, &arts.outcome.legal, &report_json, events) {
        finish_job(shared, id, dir, |job| {
            job.state = JobState::Failed;
            job.error = Some(format!("spool: {e}"));
        });
        lock_or_recover(&shared.stats).failed += 1;
        return;
    }
    let result = JsonValue::object(vec![
        ("hpwl", arts.outcome.hpwl_legal.into()),
        ("iterations", arts.outcome.iterations.into()),
        ("converged", arts.outcome.converged.into()),
        ("stop_reason", arts.report.stop_reason.clone().into()),
        ("total_seconds", arts.report.total_seconds.into()),
    ]);
    let (dh, ch) = finish_job(shared, id, dir, |job| {
        job.state = JobState::Done;
        job.result = Some(result.clone());
    });
    if stop.is_complete() {
        lock_or_recover(&shared.cache).insert(dh, ch, cache::entry(id, dir.to_path_buf(), result));
    }
    lock_or_recover(&shared.stats).completed += 1;
}

/// Ends a job whose solve was cancelled while running.
fn finish_cancelled(shared: &Arc<Shared>, id: u64, dir: &Path) {
    finish_job(shared, id, dir, |job| {
        job.state = JobState::Cancelled;
        job.error = Some("cancelled mid-solve".to_string());
    });
    lock_or_recover(&shared.stats).cancelled += 1;
}

fn dir_of(shared: &Arc<Shared>, id: u64) -> std::path::PathBuf {
    spool::job_dir(&shared.cfg.spool, id)
}

/// Applies a terminal transition under the table lock, then commits the
/// status manifest (the job's last spool write). Returns the job's hashes
/// for cache insertion.
fn finish_job(
    shared: &Arc<Shared>,
    id: u64,
    dir: &Path,
    apply: impl FnOnce(&mut Job),
) -> (u64, u64) {
    let mut jobs = lock_or_recover(&shared.jobs);
    let Some(job) = jobs.get_mut(id) else {
        return (0, 0);
    };
    apply(job);
    let hashes = (job.design_hash, job.config_hash);
    let status = job.status_json();
    drop(jobs);
    commit_manifest(dir, &status);
    hashes
}

fn commit_manifest(dir: &Path, status: &JsonValue) {
    if let Err(e) = spool::write_manifest(dir, status) {
        // The in-memory table stays authoritative; losing the on-disk
        // manifest only degrades crash forensics.
        eprintln!(
            "complx-serve: manifest write failed for {}: {e}",
            dir.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::generator::GeneratorConfig;

    /// Server state (no threads) holding job 1 in `running`, plus its
    /// spool directory and design.
    fn running_job(tag: &str) -> (Arc<Shared>, std::path::PathBuf, Design) {
        let root = std::env::temp_dir().join(format!("complx-commit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let shared = Arc::new(Shared::new(ServeConfig::new(root.clone())));
        let design = GeneratorConfig::small(tag, 3).generate();
        let dir = spool::job_dir(&root, 1);
        lock_or_recover(&shared.jobs).insert(Job {
            id: 1,
            priority: Priority::Normal,
            state: JobState::Running,
            design_name: tag.to_string(),
            design_hash: design_hash(&design),
            config_hash: config_hash(&PlacerConfig::fast()),
            cached: false,
            design: None,
            config: PlacerConfig::fast(),
            cancel: CancelToken::new(),
            events: EventBuf::new(),
            spool_dir: dir.clone(),
            result_dir: dir.clone(),
            error: None,
            result: None,
        });
        (shared, root, design)
    }

    /// A real solve whose stop reason is then overwritten — a synthetic
    /// outcome for each exit path, no timing involved.
    fn commit_with(tag: &str, stop: StopReason) -> (Arc<Shared>, std::path::PathBuf) {
        let (shared, root, design) = running_job(tag);
        let cfg = PlacerConfig {
            max_iterations: 3,
            ..PlacerConfig::fast()
        };
        let mut arts = solve(&design, SolveRequest::new(cfg)).expect("solves");
        arts.outcome.stop_reason = stop;
        let dir = spool::job_dir(&root, 1);
        commit_solved(&shared, 1, &dir, &design, &arts, b"");
        (shared, root)
    }

    fn job_state(shared: &Arc<Shared>) -> Option<JobState> {
        lock_or_recover(&shared.jobs).get(1).map(|j| j.state)
    }

    #[test]
    fn cancelled_outcome_ends_cancelled_and_is_never_cached() {
        let (shared, root) = commit_with("cxl", StopReason::Cancelled);
        assert_eq!(job_state(&shared), Some(JobState::Cancelled));
        assert!(lock_or_recover(&shared.cache).is_empty());
        let stats = *lock_or_recover(&shared.stats);
        assert_eq!((stats.cancelled, stats.completed), (1, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn complete_outcome_is_done_and_cached() {
        let (shared, root) = commit_with("cap", StopReason::IterationCap);
        assert_eq!(job_state(&shared), Some(JobState::Done));
        assert_eq!(lock_or_recover(&shared.cache).len(), 1);
        assert_eq!(lock_or_recover(&shared.stats).completed, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn time_budget_outcome_is_done_but_not_cached() {
        let (shared, root) = commit_with("tb", StopReason::TimeBudget);
        assert_eq!(job_state(&shared), Some(JobState::Done));
        assert!(lock_or_recover(&shared.cache).is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }
}
