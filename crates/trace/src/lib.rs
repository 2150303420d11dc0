//! Deterministic event tracing and metrics for the SLPMT simulator.
//!
//! Every mechanism the paper reasons about — `storeT` issue, log-bit
//! conjunction, tiered log-buffer coalescing (Fig. 6), WPQ pressure,
//! commit persist ordering (Fig. 4), lazy-persistency signatures
//! (§III-C2) and recovery — can emit a typed [`Event`] into a
//! [`Tracer`]. A trace is **fully deterministic**: records are
//! timestamped by the simulated cycle clock, the durable persist-event
//! counter and a per-core sequence number, never by wall time, so the
//! same `(seed, schedule, plan)` produces a byte-identical export.
//!
//! Tracing is **zero-overhead when disabled**: emitters hold an
//! `Option<`[`TraceHandle`]`>` that is `None` by default, so the hot
//! path pays a single predictable branch (bounded by the nightly
//! paired perfbench runs of the default against the `no-trace` build;
//! the `no-trace` features of the instrumented crates compile the hooks
//! out entirely for that baseline).
//!
//! Sinks:
//!
//! * [`Tracer`] — bounded per-core ring buffers (oldest records drop
//!   first, with a drop count).
//! * [`export_chrome_trace`] — Chrome/Perfetto trace-event JSON, one
//!   track per core plus one per device component.
//! * [`Metrics`] — an aggregator over the records: tier-occupancy
//!   histograms, WPQ depth, log bytes per transaction, signature
//!   false-positive rate, forced-persist counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod tracer;

pub use event::{CommitStage, Component, Event, PersistKind, RecoveryStage, RequestVerb};
pub use json::JsonWriter;
pub use metrics::Metrics;
pub use perfetto::export_chrome_trace;
pub use tracer::{tracer, TraceHandle, TraceRecord, Tracer};
