//! The SLPMT key-value service facade and its deterministic
//! request-serving front end.
//!
//! Everything below the protocol layer already exists in the
//! reproduction — durable indexes, the simulated machine, the YCSB mix
//! family, the streaming recovery oracle. What this crate adds is the
//! *service boundary* a real PM deployment exposes:
//!
//! * [`store`] — [`KvStore`], a clean
//!   `get`/`set`/`delete`/`cas`/`scan` facade over one simulated
//!   machine that owns transaction demarcation, value encoding into
//!   the persistent heap, and crash-to-ready recovery.
//! * [`codec`] — a memcached-text-subset wire codec (parse →
//!   dispatch → response buffers) that never panics on hostile input
//!   and resynchronises at the next command boundary.
//! * [`session`] — per-session receive/transmit buffers with request
//!   pipelining, in the Pelikan worker/session/buffer shape.
//! * [`admission`] — WPQ-depth-driven admission control: requests
//!   queue behind a drained write-pending queue or are shed once the
//!   queueing budget is exhausted, and both outcomes are first-class
//!   statistics.
//! * [`service`] — the deterministic in-process serve loop: seeded
//!   open-/closed-loop client generators feed sharded single-threaded
//!   workers; request latency is measured in simulated cycles only.
//! * [`chaos`] — the service-boundary crash and media-fault battery,
//!   checked against the engine's streaming oracle: mid-request
//!   crashes over pipelined sessions, ack-journal restart, seeded
//!   client retry/backoff, duplicate suppression in the replay
//!   window, and degraded-mode online recovery behind a background
//!   scrub.
//!
//! All timing comes from the simulated cycle clock, so a serve run is
//! byte-identical for a `(seed, mix, shards)` triple regardless of
//! host parallelism — the repo-wide determinism contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod codec;
pub mod service;
pub mod session;
pub mod store;

pub use admission::{Admission, AdmissionConfig, AdmissionStats};
pub use chaos::{ChaosCase, ChaosOutcome, ChaosReport, ChaosSweepReport, ChaosTarget};
pub use codec::{Codec, Parse, Request};
pub use service::{
    run_shard_service, shard_requests, HealthSnapshot, ServeConfig, ServiceError, ShardServeReport,
};
pub use session::{AckJournal, Session};
pub use store::{fingerprint, CasOutcome, CellError, HealthState, KvStore};
