//! SLPMT — the selective-logging persistent-memory transaction engine.
//!
//! This crate is the paper's primary contribution: a hardware
//! persistent-memory transaction engine with the `storeT` ISA
//! extension, fine-grain (word) logging through the four-tier log
//! buffer, and lazy persistency via working-set signatures and
//! circular 2-bit transaction IDs.
//!
//! Modules:
//!
//! * [`instr`] — `store` / `storeT` semantics (Table I).
//! * [`scheme`] — the evaluated designs: **FG** (fine-grain baseline),
//!   **FG+LG**, **FG+LZ**, **SLPMT**, **ATOM**, **EDE** and the
//!   cache-line-granularity variants of Figure 9.
//! * [`signature`] — 2048-bit working-set signatures (§III-C3).
//! * [`txreg`] — the circular transaction-ID register (§III-C2).
//! * [`machine`] — the simulated machine: one or more cores (private
//!   L1 + log buffer, swapped in by core ID) over a shared cache
//!   hierarchy and device, executing loads, stores, transactions,
//!   aborts, crashes.
//! * [`multi`] — per-core programs run on a multi-core [`Machine`]
//!   under a seeded deterministic scheduler, plus the interleaving
//!   and multi-core crash-sweep oracles.
//! * [`recovery`] — post-crash undo/redo replay.
//! * [`sweep`] — the [`CrashTarget`] contract every crash battery
//!   implements, plus the rules they share (committed prefix, fault
//!   attribution, point sampling).
//! * [`stats`] — cycle and event accounting.
//! * [`overhead`] — the §III-D hardware budget arithmetic.
//!
//! # Quick example
//!
//! ```
//! use slpmt_core::{Machine, MachineConfig, Scheme, StoreKind};
//! use slpmt_pmem::PmAddr;
//!
//! let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
//! let a = PmAddr::new(0x1000);
//! m.tx_begin();
//! m.store_u64(a, 42, StoreKind::Store);               // logged + persisted
//! m.store_u64(a.add(8), 7, StoreKind::log_free());    // selective logging
//! m.tx_commit();
//! assert_eq!(m.peek_u64(a), 42);
//! // The logged word is durable at commit:
//! assert_eq!(m.device().image().read_u64(a), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instr;
pub mod machine;
pub mod multi;
pub mod overhead;
pub mod recovery;
pub mod scheme;
pub mod signature;
pub mod stats;
pub mod sweep;
pub mod txreg;

pub use instr::{BitEffects, StoreKind};
pub use machine::{Machine, MachineConfig};
pub use multi::{
    McEvent, McOutcome, McSweepCase, McTarget, ProgramSpec, SchedPolicy, Schedule, TraceOp,
};
pub use overhead::HardwareOverhead;
pub use recovery::RecoveryReport;
pub use scheme::{Discipline, Granularity, PtmFlavor, Scheme, SchemeFeatures, SchemeKind};
pub use signature::{Signature, SIGNATURE_BITS};
pub use slpmt_trace::CommitStage;
pub use slpmt_trace::{Event as TraceEvent, Metrics as TraceMetrics, TraceHandle, TraceRecord};
pub use stats::MachineStats;
pub use sweep::{CrashTarget, SweepFailure, SweepReport};
pub use txreg::TxnIdRegister;
