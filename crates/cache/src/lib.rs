//! Cache hierarchy with SLPMT metadata for the simulator.
//!
//! The paper augments L1 and L2 cache lines with a *persist bit*, *log
//! bits* (one per 8-byte word in L1, one per 32-byte group in L2,
//! Figure 5) and a 2-bit per-line *transaction ID* for lazy persistency
//! (§III-C2). This crate provides:
//!
//! * [`meta`] — the per-line metadata and the log-bit width transforms
//!   applied on L1↔L2 movement (conjunction on eviction, replication on
//!   fetch) plus the *speculative logging* helper (§III-B1).
//! * [`set_assoc`] — a generic set-associative, LRU cache container
//!   used for all three levels.
//! * [`config`] — geometry and latency parameters (Table III).
//! * [`stats`] — hit/miss/eviction counters.
//!
//! Policy — *when* to log, persist or flush — lives in `slpmt-core`;
//! this crate is the mechanical substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod meta;
pub mod set_assoc;
pub mod stats;

pub use config::{CacheConfig, CacheGeometry};
pub use meta::{l1_logbits_to_l2, l2_logbits_to_l1, speculative_fill_words, LineMeta, TxnId};
pub use set_assoc::{Entry, SetAssocCache, Slot};
pub use stats::CacheStats;
