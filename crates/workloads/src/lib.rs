//! Durable data-structure workloads for the SLPMT evaluation (§VI-A).
//!
//! Six benchmarks from the paper, re-implemented over the simulated
//! machine:
//!
//! * [`hashtable`] — chained hash table that resizes when buckets
//!   average three records; rehash moves data with lazy persistence.
//! * [`rbtree`] — red-black tree with parent pointers and colours
//!   (parent pointers lazily persistent, rebuilt on recovery).
//! * [`heap`] — array max-heap (appends beyond the committed count are
//!   log-free).
//! * [`avl`] — AVL tree without parent pointers (heights lazily
//!   persistent, recomputed on recovery).
//! * [`kv`] — the PMDK-style key-value store with `btree`, `ctree`
//!   (crit-bit) and `rtree` (radix) index backends.
//!
//! Every structure implements [`runner::DurableIndex`]:
//! insert runs inside one durable transaction per operation, all
//! stores carry *site* tags resolved through an
//! [`AnnotationTable`](slpmt_annotate::AnnotationTable) — hand-written
//! ([`manual`] mode) or produced by the `slpmt-annotate` compiler pass
//! over the structure's [`TxnIr`](slpmt_annotate::TxnIr) description —
//! and each structure ships the recovery routine its annotations
//! require (leak GC, parent/height rebuild, rehash re-execution).
//!
//! [`ycsb`] generates the paper's workload (1,000 inserts, 8-byte keys,
//! configurable value size); [`runner::run`] drives every measured run
//! (one machine or many keyspace shards, serial or across host
//! threads) and collects cycles, write traffic and per-class
//! latencies; [`sharded`] holds the key partition it shards by.
//!
//! [`manual`]: ctx::AnnotationSource::Manual

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avl;
pub mod client;
pub mod crashsweep;
pub mod ctx;
pub mod hashtable;
pub mod heap;
pub mod inspector;
pub mod kv;
pub mod rbtree;
pub mod runner;
pub mod sharded;
pub mod ycsb;

pub use client::{open_loop_arrivals, service_trace, session_of, KvRequest, RetryPolicy};
pub use crashsweep::{StreamingOracle, SweepCase, SweepFailure};
pub use ctx::{AnnotationSource, PmContext};
pub use inspector::{inspect, HeapReport};
pub use runner::{
    DurableIndex, IndexKind, LatencySummary, MixLatencies, RunOps, RunReport, RunResult, RunSpec,
    ShardRun,
};
pub use sharded::{partition_mixed, partition_ops, shard_of};
pub use ycsb::{ycsb_load, ycsb_mix, KeyDist, MixSpec, MixedOp, YcsbOp};
