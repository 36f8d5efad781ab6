//! The placement-as-a-service daemon.
//!
//! Usage: `complx-serve --spool DIR [--port P] [--port-file FILE]
//! [--jobs K] [--threads-per-job N] [--queue-capacity Q]
//! [--cache-entries C]`
//!
//! Binds `127.0.0.1:PORT` (`--port 0`, the default, picks an ephemeral
//! port), optionally writes the resolved port to `--port-file` (how
//! scripts rendezvous with an ephemeral port), and serves until a client
//! POSTs `/shutdown` or the process receives SIGTERM the hard way.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use std::process::ExitCode;

use complx_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: complx-serve --spool DIR [--port P] [--port-file FILE] [--jobs K] \
         [--threads-per-job N] [--queue-capacity Q] [--cache-entries C]"
    );
    std::process::exit(2);
}

fn parse_num(flag: &str, value: Option<String>) -> usize {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("complx-serve: {flag} needs a numeric value");
            usage();
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut port: u16 = 0;
    let mut port_file: Option<String> = None;
    let mut spool: Option<String> = None;
    let mut jobs = 2usize;
    let mut threads_per_job = 2usize;
    let mut queue_capacity = 64usize;
    let mut cache_entries = 128usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => port = parse_num("--port", args.next()) as u16,
            "--port-file" => port_file = args.next(),
            "--spool" => spool = args.next(),
            "--jobs" => jobs = parse_num("--jobs", args.next()),
            "--threads-per-job" => threads_per_job = parse_num("--threads-per-job", args.next()),
            "--queue-capacity" => queue_capacity = parse_num("--queue-capacity", args.next()),
            "--cache-entries" => cache_entries = parse_num("--cache-entries", args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("complx-serve: unknown flag `{other}`");
                usage();
            }
        }
    }
    let Some(spool) = spool else {
        eprintln!("complx-serve: --spool is required");
        usage();
    };

    let mut cfg = ServeConfig::new(spool);
    cfg.bind = format!("127.0.0.1:{port}");
    cfg.jobs = jobs.max(1);
    cfg.threads_per_job = threads_per_job.max(1);
    cfg.queue_capacity = queue_capacity.max(1);
    cfg.cache_entries = cache_entries;

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("complx-serve: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();
    if let Some(path) = port_file {
        if let Err(e) = complx_obs::write_atomic(
            std::path::Path::new(&path),
            format!("{}\n", addr.port()).as_bytes(),
        ) {
            eprintln!("complx-serve: cannot write port file {path}: {e}");
            server.request_shutdown();
            server.join();
            return ExitCode::FAILURE;
        }
    }
    eprintln!("complx-serve: listening on {addr} (jobs={jobs} threads/job={threads_per_job})");
    server.join();
    eprintln!("complx-serve: drained, exiting");
    ExitCode::SUCCESS
}
