//! Observability layer for the ComPLx placer (no dependencies outside the
//! workspace).
//!
//! Three pieces:
//!
//! 1. A thread-local **pipeline** ([`install`] / [`harvest`]) that
//!    instrumented code feeds through [`span`] (scoped RAII timers that
//!    nest into `/`-joined paths), [`add`] (monotonic counters),
//!    [`observe`] (histograms) and [`event`] (structured records). When no
//!    pipeline is installed every call is a single thread-local boolean
//!    check, so instrumentation stays in release builds at no cost.
//! 2. The **[`Sink`]** trait with three implementations: [`StderrLogger`]
//!    (human-readable progress at [`Level`] off/info/debug), [`JsonlSink`]
//!    (one JSON object per line, for `--events FILE`), and the built-in
//!    aggregator that always runs and is read back via [`harvest`].
//! 3. An end-of-run **[`RunReport`]** manifest (schema
//!    [`REPORT_SCHEMA`]) combining a [`Harvest`] with caller-supplied
//!    design/config/metrics sections, serialized with the workspace's one
//!    JSON codec ([`json`], re-exported from `complx-json`) and rendered as a phase-time table by
//!    [`RunReport::summary_table`].
//! 4. A deep-profiling layer ([`prof`]): an opt-in tracking global
//!    allocator that charges allocations to span paths, a per-iteration
//!    [`TimelineSink`], and a collapsed-stack renderer for flamegraph
//!    tooling.

// `deny` rather than `forbid`: the [`prof`] module's global-allocator
// wrapper is the single sanctioned `unsafe` surface (each block carries a
// SAFETY comment, enforced by clippy's `undocumented_unsafe_blocks`);
// everything else stays safe.
#![deny(unsafe_code)]
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

pub mod atomicio;
pub mod collector;
pub mod hist;
pub mod jsonl;
pub mod logger;
pub mod prof;
pub mod report;
pub mod sink;

pub use atomicio::{write_atomic, AtomicFile};
pub use collector::{
    add, carrier, enabled, event, harvest, install, observe, span, Carrier, CarrierGuard, Harvest,
    SpanGuard,
};
pub use complx_json as json;
pub use hist::{Histogram, HistogramSummary};
pub use json::{parse, JsonValue, ParseError};
pub use jsonl::JsonlSink;
pub use logger::{Level, StderrLogger};
pub use prof::{CountingAlloc, MemTotals, TimelineHandle, TimelineSink};
pub use report::{MemPhaseStat, PhaseStat, RunReport, REPORT_SCHEMA};
pub use sink::Sink;
