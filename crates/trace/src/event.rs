//! The typed event taxonomy covering the whole simulated pipeline.
//!
//! Addresses are raw `u64` byte addresses (the crate sits below
//! `slpmt-pmem` in the dependency graph, so it cannot name `PmAddr`).
//! Variants are grouped by the mechanism they observe; see the field
//! docs for the exact semantics of each payload.
//!
//! Every event is declared once, in the `events!` table below: its
//! variant, export name, track ([`Component`]) and documented fields.
//! The table generates [`Event`], [`Event::name`], [`Event::component`]
//! and [`Event::fields`], the field list the Perfetto exporter writes.

use crate::json::{Fields, JsonWriter, Obj, ToJson};
use crate::json_obj;
use std::fmt;

/// A fieldless enum whose every value has a short stable label, the
/// form exports write it in.
macro_rules! labelled {
    ($(#[doc = $doc:literal])+ $enum:ident {
        $($(#[doc = $vdoc:literal])+ $variant:ident = $label:literal,)+
    }) => {
        $(#[doc = $doc])+
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum $enum {
            $($(#[doc = $vdoc])+ $variant,)+
        }

        impl $enum {
            /// Every value, in declaration order.
            pub const ALL: &'static [$enum] = &[$($enum::$variant,)+];

            /// Short stable label used by exports.
            pub fn label(self) -> &'static str {
                match self {
                    $($enum::$variant => $label,)+
                }
            }
        }

        impl ToJson for $enum {
            fn write_json(&self, w: &mut JsonWriter) {
                w.string(self.label());
            }
        }
    };
}

labelled! {
    /// Commit persist-ordering stage (Fig. 4). Reaching a stage means
    /// it just completed; a test may inject a power failure there (see
    /// `slpmt_core::Machine::set_commit_crash_point`).
    CommitStage {
        /// Redo only: the log-free data lines persisted, before any
        /// record (they carry no records, so they must land before the
        /// marker).
        LogFree = "log-free",
        /// All log records drained and durable (undo: before any data
        /// line; redo: before the marker).
        Records = "records",
        /// Undo only: the logged data lines persisted in place, before
        /// the marker — the roll-back window.
        Data = "data",
        /// The commit marker is durable; the transaction is committed
        /// (undo: everything durable; redo: the write-back has not
        /// happened — the redo-replay window).
        Marker = "marker",
    }
}

labelled! {
    /// A recovery phase (validate / truncate / skip / replay / salvage /
    /// scrub).
    RecoveryStage {
        /// CRC + sequence validation of every durable record and marker.
        Validate = "validate",
        /// Torn tail records truncated before replay.
        Truncate = "truncate",
        /// Corrupt (bit-flipped) records skipped by replay.
        Skip = "skip",
        /// Undo/redo record replay against the durable image.
        Replay = "replay",
        /// Poisoned lines re-materialised from intact log records.
        Salvage = "salvage",
        /// Unsalvageable poisoned lines scrubbed to zeros.
        Scrub = "scrub",
    }
}

labelled! {
    /// What kind of durable mutation a [`Event::Persist`] records; mirrors
    /// the device's `PersistEvent` discriminants.
    PersistKind {
        /// A 64-byte data line accepted by the WPQ.
        Data = "data",
        /// A log record appended to the durable log.
        Record = "record",
        /// A commit marker.
        Marker = "marker",
        /// A log head-pointer advance (truncate / reset).
        Truncate = "truncate",
    }
}

labelled! {
    /// Verb of a service-level request span; mirrors the `slpmt-kv`
    /// memcached-text subset without depending on it.
    RequestVerb {
        /// Point read.
        Get = "get",
        /// Point read returning a CAS token.
        Gets = "gets",
        /// Unconditional store (insert or replace).
        Set = "set",
        /// Conditional store against a CAS token.
        Cas = "cas",
        /// Key removal.
        Delete = "delete",
        /// Range scan.
        Scan = "scan",
        /// Service-health query (`stats`).
        Stats = "stats",
    }
}

labelled! {
    /// Which track of the export an event belongs to: the issuing core, or
    /// one of the shared device components (in track order).
    Component {
        /// Core-private pipeline activity (stores, caches, commit, IDs).
        Core = "core",
        /// The write pending queue.
        Wpq = "WPQ",
        /// The volatile tiered log buffer.
        LogBuffer = "log buffer",
        /// The persistent medium (accepted durable mutations).
        Pm = "pm",
        /// The lazy-persistency signature array.
        Signature = "signatures",
        /// Post-crash recovery.
        Recovery = "recovery",
        /// The KV service front end (request spans, admission decisions).
        Service = "service",
    }
}

/// One field of an event's export: `key: value` under the field's own
/// name, or the field list its `=> export` expression gives.
macro_rules! export_field {
    ($fields:ident, $field:ident) => {
        $fields.field(stringify!($field), $field)
    };
    ($fields:ident, $field:ident => $export:expr) => {
        $fields.splice($export)
    };
}

/// The event table: each entry is `Variant = "export name" @ Component`
/// and its documented fields; a field exported other than as its value
/// names the field list it exports after `=>`.
macro_rules! events {
    ($(
        $(#[doc = $doc:literal])+
        $variant:ident = $name:literal @ $component:ident {
            $($(#[doc = $fdoc:literal])+ $field:ident: $ty:ty $(=> $export:expr)?,)*
        },
    )+) => {
        /// One traced occurrence somewhere in the simulated pipeline.
        ///
        /// Payload integers are sized for the quantities the simulator can
        /// actually produce (tier indices fit `u8`, record lengths `u16`, …);
        /// addresses are raw byte addresses.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Event {
            $($(#[doc = $doc])+ $variant {
                $($(#[doc = $fdoc])+ $field: $ty,)*
            },)+
        }

        impl Event {
            /// Stable short name used by exports.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $name,)+
                }
            }

            /// Which export track the event belongs to.
            pub fn component(&self) -> Component {
                match self {
                    $(Event::$variant { .. } => Component::$component,)+
                }
            }

            /// The event's exported fields, in declaration order.
            pub fn fields(&self) -> Fields<'_> {
                match self {
                    $(Event::$variant { $($field,)* } => {
                        let fields = Fields::default();
                        $(let fields = export_field!(fields, $field $(=> $export)?);)*
                        fields
                    })+
                }
            }
        }
    };
}

events! {
    /// A store-family instruction issued, with its `storeT` operands.
    StoreIssue = "store_issue" @ Core {
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
    LogBit = "log_bit" @ Core {
        /// Line-aligned address of the cached line.
        addr: u64,
        /// Word index (0..8) within the line.
        word: u8,
        /// `true` when the word is also marked lazy (deferred).
        lazy: bool,
    },
    /// Log bits narrowed L1→L2 on eviction: the per-word bits conjoin
    /// into per-32-byte-group bits (Fig. 5).
    LogBitConj = "log_bit_conj" @ Core {
        /// Line-aligned address of the evicted line.
        addr: u64,
        /// Per-word L1 log bits before the transform.
        l1_bits: u8,
        /// Per-group L2 log bits after the conjunction.
        l2_bits: u8,
    },
    /// A record was appended to a log-buffer tier.
    TierAppend = "tier_append" @ LogBuffer {
        /// Tier index (0..4), by record size class.
        tier: u8,
        /// Record start address.
        addr: u64,
        /// Record payload length in bytes.
        len: u16,
    },
    /// Two buddy records coalesced into the next tier up.
    TierCoalesce = "tier_coalesce" @ LogBuffer {
        /// Destination tier of the merged record.
        tier: u8,
        /// Merged record start address.
        addr: u64,
        /// Merged record payload length in bytes.
        len: u16,
    },
    /// A record left the buffer towards the device.
    TierDrain = "tier_drain" @ LogBuffer {
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
    TierOccupancy = "tier_occupancy" @ LogBuffer {
        /// Records held per tier (each ≤ the 8-entry tier capacity).
        /// Exported as one key per tier, `t0`–`t3`.
        lens: [u8; 4] => Obj(["t0", "t1", "t2", "t3"].into_iter().zip(*lens).collect()),
    },
    /// A pack of records was flushed to the device together.
    LogPack = "log_pack" @ LogBuffer {
        /// Records in the pack.
        records: u16,
        /// Total durable bytes (payload + tags).
        bytes: u32,
    },
    /// A line was evicted from a cache level.
    CacheEvict = "cache_evict" @ Core {
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
    CacheFetch = "cache_fetch" @ Core {
        /// Level that served the fetch (2, 3, or 4 for the medium).
        level: u8,
        /// Line-aligned address.
        addr: u64,
        /// `true` when log bits were replicated group→word on the
        /// L2→L1 move (Fig. 5 fetch replication).
        replicated: bool,
    },
    /// The WPQ accepted an entry.
    WpqEnqueue = "wpq_enqueue" @ Wpq {
        /// Queue occupancy right after acceptance.
        depth: u8,
        /// Cycles the requester stalled on a full queue.
        stall: u32,
    },
    /// The entry accepted last will have fully drained at `at`.
    WpqDrainComplete = "wpq_drain_complete" @ Wpq {
        /// Simulated cycle the drain completes.
        at: u64,
    },
    /// A durable mutation was accepted by the device (one entry of the
    /// numbered persist-event trace).
    Persist = "persist" @ Pm {
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
    CommitBegin = "commit_begin" @ Core {
        /// Transaction sequence number.
        txn: u64,
    },
    /// A commit persist-ordering stage completed.
    CommitStageDone = "commit_stage" @ Core {
        /// Transaction sequence number.
        txn: u64,
        /// The stage that just finished.
        stage: CommitStage,
    },
    /// Commit finished for `txn`.
    CommitEnd = "commit_end" @ Core {
        /// Transaction sequence number.
        txn: u64,
    },
    /// A transaction aborted.
    Abort = "abort" @ Core {
        /// Transaction sequence number.
        txn: u64,
    },
    /// A 2-bit lazy transaction ID was allocated.
    TxnIdAlloc = "txn_id_alloc" @ Core {
        /// Transaction sequence number.
        txn: u64,
        /// The allocated 2-bit ID.
        id: u8,
    },
    /// A lazy transaction ID was retired (all deferred lines durable).
    TxnIdRetire = "txn_id_retire" @ Core {
        /// Transaction sequence number.
        txn: u64,
        /// The retired 2-bit ID.
        id: u8,
    },
    /// A signature was inserted for a lazily-committed transaction.
    SigInsert = "sig_insert" @ Signature {
        /// Transaction sequence number.
        txn: u64,
        /// Its 2-bit ID.
        id: u8,
        /// Exact line addresses the signature summarises — ground
        /// truth for the aggregator's false-positive rate. Exported as
        /// its length.
        lines: Vec<u64> => json_obj! { "lines": lines.len() },
    },
    /// A later access matched a live signature, forcing persistence.
    SigHit = "sig_hit" @ Signature {
        /// The probing line address.
        addr: u64,
        /// ID of the (newest) matching signature.
        id: u8,
    },
    /// Deferred lines were forced durable (conflict or ID recycling).
    SigForcedPersist = "sig_forced_persist" @ Signature {
        /// Transaction ID whose lines were forced.
        id: u8,
        /// Lines persisted by the force.
        lines: u32,
    },
    /// A cross-core access conflicted with another core's open
    /// transaction (requester wins, §V-C).
    CrossConflict = "cross_conflict" @ Core {
        /// Conflicting word address.
        addr: u64,
        /// Core holding the conflicting transaction.
        holder: u8,
    },
    /// A cross-core conflict aborted the holder's transaction.
    CrossAbort = "cross_abort" @ Core {
        /// Core whose transaction was aborted.
        victim: u8,
        /// Aborted transaction sequence number.
        txn: u64,
    },
    /// The aborted transaction's durable damage was repaired (or the
    /// repair was deferred to recovery).
    CrossRepair = "cross_repair" @ Core {
        /// Core whose transaction was aborted.
        victim: u8,
        /// Durable records considered for the repair.
        records: u32,
        /// `true` when torn/corrupt records deferred the repair to
        /// post-crash recovery instead.
        deferred: bool,
    },
    /// A recovery phase completed.
    Recovery = "recovery" @ Recovery {
        /// The phase.
        stage: RecoveryStage,
        /// Phase-specific count (records validated, replayed, lines
        /// salvaged, …).
        n: u64,
    },
    /// A service-level request started executing on a worker (stamped
    /// after the admission decision, so the span covers service time,
    /// not queueing).
    RequestBegin = "request_begin" @ Service {
        /// Originating session.
        session: u32,
        /// Request index within the shard's stream.
        req: u64,
        /// The request verb.
        verb: RequestVerb,
    },
    /// A service-level request finished (or was shed by admission —
    /// shed requests produce no `RequestBegin`).
    RequestEnd = "request_end" @ Service {
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
    ChaosCrashArm = "chaos_crash_arm" @ Service {
        /// The armed persist-event number.
        k: u64,
    },
    /// The service restarted after a crash: sessions were rebuilt and
    /// the un-acked request tail is about to replay.
    ServiceRestart = "service_restart" @ Service {
        /// Sessions rebuilt from their ack watermarks.
        sessions: u32,
        /// Total responses acked (flushed) across sessions pre-crash.
        acked: u64,
    },
    /// The degraded serve window opened: reads are served, writes
    /// answer `SERVER_ERROR recovering` until the poison set is
    /// scrubbed.
    DegradedBegin = "degraded_begin" @ Service {
        /// Poisoned lines queued for the background scrub.
        poisoned: u32,
    },
    /// The degraded window closed; the store is fully ready again.
    DegradedEnd = "degraded_end" @ Service {
        /// Lines scrubbed during the window.
        scrubbed: u32,
    },
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
        assert_eq!(a.fields().to_json(), r#"{"tier":0,"addr":64,"len":8}"#);
    }

    #[test]
    fn commit_stages_label() {
        assert_eq!(CommitStage::Marker.label(), "marker");
        assert_eq!(RecoveryStage::Salvage.label(), "salvage");
        assert_eq!(PersistKind::Record.label(), "record");
        assert_eq!(RequestVerb::Gets.to_json(), r#""gets""#);
    }
}
