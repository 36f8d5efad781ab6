//! `complx-serve`: placement as a service.
//!
//! A zero-dependency job server over `std::net` that turns the ComPLx
//! placer into a long-lived daemon: clients POST Bookshelf bundles
//! (length-prefix framed, see [`framing`]), the scheduler runs up to K
//! solves concurrently with per-job thread budgets carved from the
//! `complx-par` pool, and results spool crash-safely to disk. Because the
//! placer is bit-deterministic at any thread count, a served result is
//! byte-identical to a CLI run of the same bundle and configuration —
//! which is also what makes the `(design_hash, config_hash)` result cache
//! sound: a duplicate submission is answered from the producer's spool
//! without running at all.
//!
//! Module map:
//!
//! * [`http`] — hand-rolled HTTP/1.1 request/response plumbing
//! * [`framing`] — `complx-bundle/v1` length-prefixed multi-file frames
//! * [`job`] — job model and state machine
//! * [`queue`] — bounded priority queue with 429 admission control
//! * [`cache`] — deterministic LRU result cache
//! * [`events`] — live per-job progress buffers (chunked JSONL tails)
//! * [`sync`] — ranked mutexes and the poison-recovering lock helper
//!   every acquisition routes through (a debug-build lock-order check)
//! * [`spool`] — crash-safe on-disk artifact layout
//! * [`server`] — the daemon: accept loop, workers, endpoints
//! * [`client`] — minimal client used by `complx-loadgen` and the tests

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    forbid(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    ),
    deny(clippy::float_cmp, clippy::float_cmp_const)
)]

pub mod cache;
pub mod client;
pub mod events;
pub mod framing;
pub mod http;
pub mod job;
pub mod queue;
pub mod server;
pub mod spool;
pub mod sync;

pub use cache::ResultCache;
pub use client::{request, wait_terminal, Response};
pub use events::EventBuf;
pub use framing::Entry;
pub use job::{Job, JobState, Priority};
pub use queue::JobQueue;
pub use server::{ServeConfig, Server};
