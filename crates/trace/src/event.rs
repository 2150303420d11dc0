//! The typed event taxonomy covering the whole simulated pipeline.
//!
//! Addresses are raw `u64` byte addresses (the crate sits below
//! `slpmt-pmem` in the dependency graph, so it cannot name `PmAddr`).
//! Variants are grouped by the mechanism they observe; see the field
//! docs for the exact semantics of each payload.

use std::fmt;

/// Commit persist-ordering stage (Fig. 4); mirrors
/// `slpmt_core::CommitPhase` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommitStage {
    /// Log-free data lines persisted (redo only — they carry no
    /// records, so they must land before the marker).
    LogFree,
    /// All log records drained and durable.
    Records,
    /// Logged data lines persisted in place (undo only).
    Data,
    /// The commit marker is durable; the transaction is committed.
    Marker,
}

impl CommitStage {
    /// Short stable label used by exports.
    pub fn label(self) -> &'static str {
        match self {
            CommitStage::LogFree => "log-free",
            CommitStage::Records => "records",
            CommitStage::Data => "data",
            CommitStage::Marker => "marker",
        }
    }
}

/// A recovery phase (validate / truncate / skip / replay / salvage /
/// scrub).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryStage {
    /// CRC + sequence validation of every durable record and marker.
    Validate,
    /// Torn tail records truncated before replay.
    Truncate,
    /// Corrupt (bit-flipped) records skipped by replay.
    Skip,
    /// Undo/redo record replay against the durable image.
    Replay,
    /// Poisoned lines re-materialised from intact log records.
    Salvage,
    /// Unsalvageable poisoned lines scrubbed to zeros.
    Scrub,
}

impl RecoveryStage {
    /// Short stable label used by exports.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStage::Validate => "validate",
            RecoveryStage::Truncate => "truncate",
            RecoveryStage::Skip => "skip",
            RecoveryStage::Replay => "replay",
            RecoveryStage::Salvage => "salvage",
            RecoveryStage::Scrub => "scrub",
        }
    }
}

/// What kind of durable mutation a [`Event::Persist`] records; mirrors
/// the device's `PersistEvent` discriminants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PersistKind {
    /// A 64-byte data line accepted by the WPQ.
    Data,
    /// A log record appended to the durable log.
    Record,
    /// A commit marker.
    Marker,
    /// A log head-pointer advance (truncate / reset).
    Truncate,
}

impl PersistKind {
    /// Short stable label used by exports.
    pub fn label(self) -> &'static str {
        match self {
            PersistKind::Data => "data",
            PersistKind::Record => "record",
            PersistKind::Marker => "marker",
            PersistKind::Truncate => "truncate",
        }
    }
}

/// Verb of a service-level request span; mirrors the `slpmt-kv`
/// memcached-text subset without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RequestVerb {
    /// Point read.
    Get,
    /// Point read returning a CAS token.
    Gets,
    /// Unconditional store (insert or replace).
    Set,
    /// Conditional store against a CAS token.
    Cas,
    /// Key removal.
    Delete,
    /// Range scan.
    Scan,
    /// Service-health query (`stats`).
    Stats,
}

impl RequestVerb {
    /// Short stable label used by exports.
    pub fn label(self) -> &'static str {
        match self {
            RequestVerb::Get => "get",
            RequestVerb::Gets => "gets",
            RequestVerb::Set => "set",
            RequestVerb::Cas => "cas",
            RequestVerb::Delete => "delete",
            RequestVerb::Scan => "scan",
            RequestVerb::Stats => "stats",
        }
    }
}

/// Which track of the export an event belongs to: the issuing core, or
/// one of the shared device components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Core-private pipeline activity (stores, caches, commit, IDs).
    Core,
    /// The volatile tiered log buffer.
    LogBuffer,
    /// The write pending queue.
    Wpq,
    /// The persistent medium (accepted durable mutations).
    Pm,
    /// The lazy-persistency signature array.
    Signature,
    /// Post-crash recovery.
    Recovery,
    /// The KV service front end (request spans, admission decisions).
    Service,
}

/// One traced occurrence somewhere in the simulated pipeline.
///
/// Payload integers are sized for the quantities the simulator can
/// actually produce (tier indices fit `u8`, record lengths `u16`, …);
/// addresses are raw byte addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A store-family instruction issued, with its `storeT` operands.
    StoreIssue {
        /// Word-aligned target address.
        addr: u64,
        /// `log` operand after degrade rules (is the word logged?).
        log: bool,
        /// `lazy` operand after degrade rules (lazy persistency?).
        lazy: bool,
        /// `true` when the `storeT` semantics were honoured as
        /// annotated (not degraded to plain logging).
        honoured: bool,
    },
    /// A per-word log bit was set in the L1 metadata.
    LogBit {
        /// Line-aligned address of the cached line.
        addr: u64,
        /// Word index (0..8) within the line.
        word: u8,
        /// `true` when the word is also marked lazy (deferred).
        lazy: bool,
    },
    /// Log bits narrowed L1→L2 on eviction: the per-word bits conjoin
    /// into per-32-byte-group bits (Fig. 5).
    LogBitConj {
        /// Line-aligned address of the evicted line.
        addr: u64,
        /// Per-word L1 log bits before the transform.
        l1_bits: u8,
        /// Per-group L2 log bits after the conjunction.
        l2_bits: u8,
    },
    /// A record was appended to a log-buffer tier.
    TierAppend {
        /// Tier index (0..4), by record size class.
        tier: u8,
        /// Record start address.
        addr: u64,
        /// Record payload length in bytes.
        len: u16,
    },
    /// Two buddy records coalesced into the next tier up.
    TierCoalesce {
        /// Destination tier of the merged record.
        tier: u8,
        /// Merged record start address.
        addr: u64,
        /// Merged record payload length in bytes.
        len: u16,
    },
    /// A record left the buffer towards the device.
    TierDrain {
        /// Tier the record drained from.
        tier: u8,
        /// Record start address.
        addr: u64,
        /// Record payload length in bytes.
        len: u16,
        /// `true` when a full tier forced the drain (capacity
        /// overflow), `false` for a commit/flush drain.
        overflow: bool,
    },
    /// Post-mutation occupancy snapshot of the four tiers.
    TierOccupancy {
        /// Records held per tier (each ≤ the 8-entry tier capacity).
        lens: [u8; 4],
    },
    /// A pack of records was flushed to the device together.
    LogPack {
        /// Records in the pack.
        records: u16,
        /// Total durable bytes (payload + tags).
        bytes: u32,
    },
    /// A line was evicted from a cache level.
    CacheEvict {
        /// Level the line left (1, 2 or 3).
        level: u8,
        /// Line-aligned address.
        addr: u64,
        /// Was the line dirty?
        dirty: bool,
        /// Did the line carry log bits?
        logged: bool,
    },
    /// A line was fetched into L1.
    CacheFetch {
        /// Level that served the fetch (2, 3, or 4 for the medium).
        level: u8,
        /// Line-aligned address.
        addr: u64,
        /// `true` when log bits were replicated group→word on the
        /// L2→L1 move (Fig. 5 fetch replication).
        replicated: bool,
    },
    /// The WPQ accepted an entry.
    WpqEnqueue {
        /// Queue occupancy right after acceptance.
        depth: u8,
        /// Cycles the requester stalled on a full queue.
        stall: u32,
    },
    /// The entry accepted last will have fully drained at `at`.
    WpqDrainComplete {
        /// Simulated cycle the drain completes.
        at: u64,
    },
    /// A durable mutation was accepted by the device (one entry of the
    /// numbered persist-event trace).
    Persist {
        /// What kind of mutation.
        kind: PersistKind,
        /// Target address (0 for markers and truncates).
        addr: u64,
        /// Payload length in bytes (0 when not applicable).
        len: u16,
        /// Owning transaction (0 when not applicable).
        txn: u64,
        /// `true` when the mutation tore at the crash boundary.
        torn: bool,
    },
    /// Commit started for `txn`.
    CommitBegin {
        /// Transaction sequence number.
        txn: u64,
    },
    /// A commit persist-ordering stage completed.
    CommitStageDone {
        /// Transaction sequence number.
        txn: u64,
        /// The stage that just finished.
        stage: CommitStage,
    },
    /// Commit finished for `txn`.
    CommitEnd {
        /// Transaction sequence number.
        txn: u64,
    },
    /// A transaction aborted.
    Abort {
        /// Transaction sequence number.
        txn: u64,
    },
    /// A 2-bit lazy transaction ID was allocated.
    TxnIdAlloc {
        /// Transaction sequence number.
        txn: u64,
        /// The allocated 2-bit ID.
        id: u8,
    },
    /// A lazy transaction ID was retired (all deferred lines durable).
    TxnIdRetire {
        /// Transaction sequence number.
        txn: u64,
        /// The retired 2-bit ID.
        id: u8,
    },
    /// A signature was inserted for a lazily-committed transaction.
    SigInsert {
        /// Transaction sequence number.
        txn: u64,
        /// Its 2-bit ID.
        id: u8,
        /// Exact line addresses the signature summarises — ground
        /// truth for the aggregator's false-positive rate.
        lines: Vec<u64>,
    },
    /// A later access matched a live signature, forcing persistence.
    SigHit {
        /// The probing line address.
        addr: u64,
        /// ID of the (newest) matching signature.
        id: u8,
    },
    /// Deferred lines were forced durable (conflict or ID recycling).
    SigForcedPersist {
        /// Transaction ID whose lines were forced.
        id: u8,
        /// Lines persisted by the force.
        lines: u32,
    },
    /// A cross-core access conflicted with another core's open
    /// transaction (requester wins, §V-C).
    CrossConflict {
        /// Conflicting word address.
        addr: u64,
        /// Core holding the conflicting transaction.
        holder: u8,
    },
    /// A cross-core conflict aborted the holder's transaction.
    CrossAbort {
        /// Core whose transaction was aborted.
        victim: u8,
        /// Aborted transaction sequence number.
        txn: u64,
    },
    /// The aborted transaction's durable damage was repaired (or the
    /// repair was deferred to recovery).
    CrossRepair {
        /// Core whose transaction was aborted.
        victim: u8,
        /// Durable records considered for the repair.
        records: u32,
        /// `true` when torn/corrupt records deferred the repair to
        /// post-crash recovery instead.
        deferred: bool,
    },
    /// A recovery phase completed.
    Recovery {
        /// The phase.
        stage: RecoveryStage,
        /// Phase-specific count (records validated, replayed, lines
        /// salvaged, …).
        n: u64,
    },
    /// A service-level request started executing on a worker (stamped
    /// after the admission decision, so the span covers service time,
    /// not queueing).
    RequestBegin {
        /// Originating session.
        session: u32,
        /// Request index within the shard's stream.
        req: u64,
        /// The request verb.
        verb: RequestVerb,
    },
    /// A service-level request finished (or was shed by admission —
    /// shed requests produce no `RequestBegin`).
    RequestEnd {
        /// Originating session.
        session: u32,
        /// Request index within the shard's stream.
        req: u64,
        /// Cycles the request waited in the admission queue.
        queued: u64,
        /// `true` when admission shed the request instead of serving
        /// it.
        shed: bool,
    },
    /// A chaos harness armed a crash at persist event `k` while the
    /// service was live (the span between arming and the trip).
    ChaosCrashArm {
        /// The armed persist-event number.
        k: u64,
    },
    /// The service restarted after a crash: sessions were rebuilt and
    /// the un-acked request tail is about to replay.
    ServiceRestart {
        /// Sessions rebuilt from their ack watermarks.
        sessions: u32,
        /// Total responses acked (flushed) across sessions pre-crash.
        acked: u64,
    },
    /// The degraded serve window opened: reads are served, writes
    /// answer `SERVER_ERROR recovering` until the poison set is
    /// scrubbed.
    DegradedBegin {
        /// Poisoned lines queued for the background scrub.
        poisoned: u32,
    },
    /// The degraded window closed; the store is fully ready again.
    DegradedEnd {
        /// Lines scrubbed during the window.
        scrubbed: u32,
    },
}

impl Event {
    /// Stable short name used by exports.
    pub fn name(&self) -> &'static str {
        match self {
            Event::StoreIssue { .. } => "store_issue",
            Event::LogBit { .. } => "log_bit",
            Event::LogBitConj { .. } => "log_bit_conj",
            Event::TierAppend { .. } => "tier_append",
            Event::TierCoalesce { .. } => "tier_coalesce",
            Event::TierDrain { .. } => "tier_drain",
            Event::TierOccupancy { .. } => "tier_occupancy",
            Event::LogPack { .. } => "log_pack",
            Event::CacheEvict { .. } => "cache_evict",
            Event::CacheFetch { .. } => "cache_fetch",
            Event::WpqEnqueue { .. } => "wpq_enqueue",
            Event::WpqDrainComplete { .. } => "wpq_drain_complete",
            Event::Persist { .. } => "persist",
            Event::CommitBegin { .. } => "commit_begin",
            Event::CommitStageDone { .. } => "commit_stage",
            Event::CommitEnd { .. } => "commit_end",
            Event::Abort { .. } => "abort",
            Event::TxnIdAlloc { .. } => "txn_id_alloc",
            Event::TxnIdRetire { .. } => "txn_id_retire",
            Event::SigInsert { .. } => "sig_insert",
            Event::SigHit { .. } => "sig_hit",
            Event::SigForcedPersist { .. } => "sig_forced_persist",
            Event::CrossConflict { .. } => "cross_conflict",
            Event::CrossAbort { .. } => "cross_abort",
            Event::CrossRepair { .. } => "cross_repair",
            Event::Recovery { .. } => "recovery",
            Event::RequestBegin { .. } => "request_begin",
            Event::RequestEnd { .. } => "request_end",
            Event::ChaosCrashArm { .. } => "chaos_crash_arm",
            Event::ServiceRestart { .. } => "service_restart",
            Event::DegradedBegin { .. } => "degraded_begin",
            Event::DegradedEnd { .. } => "degraded_end",
        }
    }

    /// Which export track the event belongs to.
    pub fn component(&self) -> Component {
        match self {
            Event::StoreIssue { .. }
            | Event::LogBit { .. }
            | Event::LogBitConj { .. }
            | Event::CacheEvict { .. }
            | Event::CacheFetch { .. }
            | Event::CommitBegin { .. }
            | Event::CommitStageDone { .. }
            | Event::CommitEnd { .. }
            | Event::Abort { .. }
            | Event::TxnIdAlloc { .. }
            | Event::TxnIdRetire { .. }
            | Event::CrossConflict { .. }
            | Event::CrossAbort { .. }
            | Event::CrossRepair { .. } => Component::Core,
            Event::TierAppend { .. }
            | Event::TierCoalesce { .. }
            | Event::TierDrain { .. }
            | Event::TierOccupancy { .. }
            | Event::LogPack { .. } => Component::LogBuffer,
            Event::WpqEnqueue { .. } | Event::WpqDrainComplete { .. } => Component::Wpq,
            Event::Persist { .. } => Component::Pm,
            Event::SigInsert { .. } | Event::SigHit { .. } | Event::SigForcedPersist { .. } => {
                Component::Signature
            }
            Event::Recovery { .. } => Component::Recovery,
            Event::RequestBegin { .. }
            | Event::RequestEnd { .. }
            | Event::ChaosCrashArm { .. }
            | Event::ServiceRestart { .. }
            | Event::DegradedBegin { .. }
            | Event::DegradedEnd { .. } => Component::Service,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_unique_enough() {
        let a = Event::TierAppend {
            tier: 0,
            addr: 64,
            len: 8,
        };
        assert_eq!(a.name(), "tier_append");
        assert_eq!(a.component(), Component::LogBuffer);
        assert_eq!(a.to_string(), "tier_append");
    }

    #[test]
    fn commit_stages_label() {
        assert_eq!(CommitStage::Marker.label(), "marker");
        assert_eq!(RecoveryStage::Salvage.label(), "salvage");
        assert_eq!(PersistKind::Record.label(), "record");
    }
}
