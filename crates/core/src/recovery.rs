//! Post-crash recovery: undo and redo log replay.
//!
//! After a crash, the durable state consists of the persistent image
//! and the log region. Recovery depends on the logging discipline:
//!
//! * **Undo** — apply the records of every transaction *without* a
//!   durable commit marker, newest first, restoring each logged
//!   word's pre-image. That cancels all logged updates of interrupted
//!   transactions.
//! * **Redo** — apply the records of every transaction *with* a
//!   durable commit marker, oldest first, installing each logged
//!   word's final value (in-place data never reached the image before
//!   the marker, so unmarked transactions need nothing).
//!
//! Log-free updates are then repaired by the application-specific
//! recovery (garbage-collecting leaked allocations, rebuilding
//! lazily-persistent data) that the workloads provide — exactly the
//! split of §IV.
//!
//! Replay is preceded by a **validate phase**: every durable record
//! and commit marker carries a CRC32 + sequence tag (see
//! `slpmt_pmem::log_region`), so recovery classifies records as
//! intact / torn-tail / corrupt before trusting them. Torn tail
//! records are truncated (their persist never logically completed), a
//! torn commit marker counts as absent (the transaction rolls back),
//! and poisoned image lines are re-materialised from log pre/post
//! images when their words are fully covered — otherwise the line is
//! reported lost in the [`RecoveryReport`] instead of recovery
//! panicking or replaying garbage.

use crate::machine::Machine;
use crate::scheme::Discipline;
use slpmt_pmem::addr::{LINE_BYTES, WORD_BYTES};
use slpmt_pmem::{PersistedRecord, PmAddr};
use slpmt_trace::{Event as TraceEvent, RecoveryStage};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What log replay did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Undo records applied (pre-images restored).
    pub undo_applied: usize,
    /// Sequence numbers of transactions rolled back (undo).
    pub rolled_back: Vec<u64>,
    /// Data lines restored from applied undo pre-images, in address
    /// order. These were re-persisted during recovery from log records
    /// that just survived a crash, so a conservative deployment
    /// verifies them (background scrub) before accepting new writes —
    /// the degraded-window suspect set.
    pub rolled_back_lines: Vec<u64>,
    /// Redo records applied (final values installed).
    pub redo_applied: usize,
    /// Sequence numbers of committed transactions replayed (redo).
    pub replayed: Vec<u64>,
    /// Data lines persisted while replaying records. Replay goes
    /// through the device's persist path, so these appear in the
    /// device's write-traffic counters and persist-event trace.
    pub lines_persisted: usize,
    /// Log records whose persist tore at the crash boundary (the
    /// torn tail is truncated before replay).
    pub torn_records: usize,
    /// Commit markers whose persist tore — their transactions were
    /// treated as uncommitted.
    pub torn_markers: usize,
    /// Records whose checksum disagreed with their content (media bit
    /// flips); skipped by replay, their lines degraded.
    pub corrupt_records: usize,
    /// Poisoned lines fully re-materialised from intact log records,
    /// in address order.
    pub salvaged_lines: Vec<u64>,
    /// Lines whose contents could not be reconstructed (poisoned
    /// beyond salvage, or covered only by corrupt records), in address
    /// order. Unsalvageable poisoned lines are scrubbed to zeros so
    /// the image stays deterministic and readable.
    pub lost_lines: Vec<u64>,
}

impl fmt::Display for RecoveryReport {
    /// One line, e.g. `undo 3 (2 txns), redo 0 (0 txns), persisted 5,
    /// torn 1r/0m, corrupt 0, salvaged 0, lost 0` — the format the
    /// sweep logs share instead of hand-formatting the counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "undo {} ({} txns), redo {} ({} txns), persisted {}, \
             torn {}r/{}m, corrupt {}, salvaged {}, lost {}",
            self.undo_applied,
            self.rolled_back.len(),
            self.redo_applied,
            self.replayed.len(),
            self.lines_persisted,
            self.torn_records,
            self.torn_markers,
            self.corrupt_records,
            self.salvaged_lines.len(),
            self.lost_lines.len()
        )
    }
}

impl Machine {
    /// Replays the log after a [`crash`](Machine::crash) according to
    /// the machine's logging discipline, then truncates the log
    /// region. Structure-specific recovery (leak GC, lazy rebuild) is
    /// the caller's next step.
    ///
    /// # Panics
    ///
    /// Panics if called while a transaction is open — recovery runs on
    /// a freshly restarted machine.
    pub fn recover(&mut self) -> RecoveryReport {
        assert!(!self.in_txn(), "recovery runs outside any transaction");
        let mut report = RecoveryReport::default();
        // Validate phase: classify every durable record and marker
        // before anything is replayed. Torn tail records are dropped
        // here (persist ordering makes the drop sound); corrupt
        // records stay but must never be applied.
        let v = self.device_mut().log_mut().validate();
        report.torn_records = v.torn_records;
        report.corrupt_records = v.corrupt_records;
        report.torn_markers = v.torn_markers;
        let n_records = self.device().log().records().len();
        self.trace(|t| {
            t.emit(TraceEvent::Recovery {
                stage: RecoveryStage::Validate,
                n: n_records as u64,
            });
            t.emit(TraceEvent::Recovery {
                stage: RecoveryStage::Truncate,
                n: v.torn_records as u64,
            });
            t.emit(TraceEvent::Recovery {
                stage: RecoveryStage::Skip,
                n: v.corrupt_records as u64,
            });
        });
        // Poisoned lines re-materialise word-by-word from replayed
        // records; track per-line coverage to tell salvage from loss.
        let mut poison_cov: BTreeMap<u64, u8> = self
            .device()
            .poisoned_line_addrs()
            .into_iter()
            .map(|la| (la, 0u8))
            .collect();
        let mut lost: BTreeSet<u64> = BTreeSet::new();
        match self.config().features.discipline {
            Discipline::Undo => {
                // Torn markers never entered the committed set, so
                // their transactions are rolled back here like any
                // other unfinished transaction.
                let records: Vec<PersistedRecord> =
                    self.device().log().uncommitted_rev().cloned().collect();
                let mut rolled: BTreeSet<u64> = BTreeSet::new();
                let mut rolled_lines: BTreeSet<u64> = BTreeSet::new();
                for rec in &records {
                    if !rec.is_intact() {
                        // The pre-image itself is unreadable: the
                        // covered lines cannot be rolled back.
                        lost.extend(covered_lines(rec));
                        continue;
                    }
                    report.undo_applied += 1;
                    rolled.insert(rec.txn);
                    rolled_lines.extend(covered_lines(rec));
                    report.lines_persisted += self.replay_record(rec, &mut poison_cov);
                }
                report.rolled_back = rolled.into_iter().collect();
                report.rolled_back_lines = rolled_lines.into_iter().collect();
            }
            Discipline::Redo => {
                let committed: BTreeSet<u64> = self.device().log().committed_txns().collect();
                let records: Vec<PersistedRecord> = self
                    .device()
                    .log()
                    .records()
                    .iter()
                    .filter(|r| committed.contains(&r.txn))
                    .cloned()
                    .collect();
                let mut replayed: BTreeSet<u64> = BTreeSet::new();
                // Forward order: later records carry newer values.
                for rec in &records {
                    if !rec.is_intact() {
                        // A committed transaction's new value is
                        // unreadable; the write-back never happened,
                        // so the covered lines are degraded.
                        lost.extend(covered_lines(rec));
                        continue;
                    }
                    report.redo_applied += 1;
                    replayed.insert(rec.txn);
                    report.lines_persisted += self.replay_record(rec, &mut poison_cov);
                }
                report.replayed = replayed.into_iter().collect();
            }
        }
        self.trace(|t| {
            t.emit(TraceEvent::Recovery {
                stage: RecoveryStage::Replay,
                n: (report.undo_applied + report.redo_applied) as u64,
            });
        });
        // Classify every poisoned line: full word coverage by intact
        // records = salvaged; anything else is lost. Lines replay
        // never touched are still poisoned — scrub them to zeros so
        // post-recovery reads are deterministic instead of faulting.
        let mut scrubbed = 0u64;
        for (&la, &mask) in &poison_cov {
            if mask == u8::MAX {
                continue; // fully re-materialised
            }
            lost.insert(la);
            let addr = PmAddr::new(la);
            if self.device().line_poisoned(addr) {
                let now = self.now();
                self.device_mut()
                    .persist_line(now, addr, &[0u8; LINE_BYTES]);
                report.lines_persisted += 1;
                scrubbed += 1;
            }
        }
        report.salvaged_lines = poison_cov
            .iter()
            .filter(|(la, &mask)| mask == u8::MAX && !lost.contains(la))
            .map(|(&la, _)| la)
            .collect();
        report.lost_lines = lost.into_iter().collect();
        self.trace(|t| {
            t.emit(TraceEvent::Recovery {
                stage: RecoveryStage::Salvage,
                n: report.salvaged_lines.len() as u64,
            });
            t.emit(TraceEvent::Recovery {
                stage: RecoveryStage::Scrub,
                n: scrubbed,
            });
        });
        // The log's job is done; the new epoch starts empty. The reset
        // is itself a persist event, so an injected crash mid-recovery
        // leaves the log intact for the next attempt.
        self.device_mut().reset_log();
        report
    }

    /// Applies one log record to the durable image through the device's
    /// persist path (read-modify-write of each covered line), so the
    /// replay is counted in write traffic and numbered in the
    /// persist-event trace. A poisoned base line reads as zeros (the
    /// loss is detectable, not silent) and the words the record
    /// overlays accumulate in `poison_cov`. Returns the number of
    /// lines persisted.
    fn replay_record(
        &mut self,
        rec: &PersistedRecord,
        poison_cov: &mut BTreeMap<u64, u8>,
    ) -> usize {
        let line_bytes = LINE_BYTES as u64;
        let start = rec.addr.line().raw();
        let end = rec.addr.raw() + rec.payload.len() as u64;
        let mut line = start;
        let mut persisted = 0;
        while line < end {
            let la = PmAddr::new(line);
            let mut data = if self.device().line_poisoned(la) {
                [0u8; LINE_BYTES]
            } else {
                self.device().image().read_line(la)
            };
            // Intersect [line, line+64) with the record's byte range.
            let lo = line.max(rec.addr.raw());
            let hi = (line + line_bytes).min(end);
            let dst = (lo - line) as usize;
            let src = (lo - rec.addr.raw()) as usize;
            let n = (hi - lo) as usize;
            data[dst..dst + n].copy_from_slice(&rec.payload[src..src + n]);
            if let Some(mask) = poison_cov.get_mut(&line) {
                // Records are word-aligned whole-word spans, so the
                // intersection covers whole words of the line.
                for w in (dst / WORD_BYTES)..((dst + n) / WORD_BYTES) {
                    *mask |= 1 << w;
                }
            }
            let now = self.now();
            self.device_mut().persist_line(now, la, &data);
            persisted += 1;
            line += line_bytes;
        }
        persisted
    }
}

/// Line addresses a record's payload covers.
fn covered_lines(rec: &PersistedRecord) -> impl Iterator<Item = u64> {
    let first = rec.addr.line().raw();
    let last = PmAddr::new(rec.addr.raw() + rec.payload.len() as u64 - 1)
        .line()
        .raw();
    (first..=last).step_by(LINE_BYTES)
}

#[cfg(test)]
mod tests {
    use crate::CommitStage;
    use crate::{Machine, MachineConfig, Scheme, StoreKind};
    use slpmt_pmem::PmAddr;

    const A: PmAddr = PmAddr::new(0x10000);

    fn tiny() -> Machine {
        Machine::new(MachineConfig::for_scheme(Scheme::Fg).with_tiny_caches())
    }

    #[test]
    fn committed_transactions_are_not_rolled_back() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::Store);
        m.tx_commit();
        m.crash();
        let report = m.recover();
        assert_eq!(report.undo_applied, 0);
        assert_eq!(m.device().image().read_u64(A), 7);
    }

    #[test]
    fn interrupted_transaction_rolls_back_stolen_data() {
        let mut m = tiny();
        m.setup_write(A, &5u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        // Thrash caches so the dirty line (and its log record) overflow
        // to the persistence domain mid-transaction.
        for i in 0..512u64 {
            m.store_u64(PmAddr::new(0x40000 + i * 64), i, StoreKind::Store);
        }
        // The stolen update reached PM:
        assert_eq!(m.device().image().read_u64(A), 99);
        m.crash(); // no commit marker
        let report = m.recover();
        assert!(report.undo_applied > 0);
        assert_eq!(m.device().image().read_u64(A), 5, "pre-image restored");
    }

    #[test]
    fn crash_without_steal_needs_no_undo() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Fg));
        m.setup_write(A, &5u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        m.crash(); // dirty line and its record both still volatile
        let report = m.recover();
        assert_eq!(report.undo_applied, 0);
        assert_eq!(m.device().image().read_u64(A), 5);
    }

    #[test]
    fn undo_crash_before_marker_rolls_back() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Fg));
        m.setup_write(A, &5u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        // Crash after data persisted but before the marker: the
        // transaction must roll back.
        m.set_commit_crash_point(Some(CommitStage::Data));
        m.tx_commit();
        assert_eq!(m.device().image().read_u64(A), 99, "data persisted");
        let report = m.recover();
        assert!(report.undo_applied > 0);
        assert_eq!(m.device().image().read_u64(A), 5, "rolled back");
    }

    #[test]
    fn undo_crash_after_marker_is_durable() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Fg));
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        m.set_commit_crash_point(Some(CommitStage::Marker));
        m.tx_commit();
        let report = m.recover();
        assert_eq!(report.undo_applied, 0);
        assert_eq!(m.device().image().read_u64(A), 99);
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut m = tiny();
        m.setup_write(A, &5u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        for i in 0..512u64 {
            m.store_u64(PmAddr::new(0x40000 + i * 64), i, StoreKind::Store);
        }
        m.crash();
        m.recover();
        let second = m.recover();
        assert_eq!(second.undo_applied, 0);
        assert_eq!(m.device().image().read_u64(A), 5);
    }

    #[test]
    #[should_panic(expected = "outside any transaction")]
    fn recovery_inside_txn_rejected() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
        m.tx_begin();
        m.recover();
    }

    // ---------------------------------------------------------------
    // Redo discipline

    #[test]
    fn redo_commit_is_durable_without_crash() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::FgRedo));
        m.setup_write(A, &5u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        m.tx_commit();
        assert_eq!(m.device().image().read_u64(A), 99);
    }

    #[test]
    fn redo_crash_mid_txn_leaves_image_untouched() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::FgRedo).with_tiny_caches());
        m.setup_write(A, &5u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        // Thrash: under redo, the logged line spills to the volatile
        // shadow instead of stealing into the image.
        for i in 0..512u64 {
            m.load_u64(PmAddr::new(0x40000 + i * 64));
        }
        assert_eq!(m.device().image().read_u64(A), 5, "no in-place steal");
        assert_eq!(m.peek_u64(A), 99, "logical value intact via shadow");
        m.crash();
        let report = m.recover();
        assert_eq!(report.redo_applied, 0, "unmarked txn needs nothing");
        assert_eq!(m.device().image().read_u64(A), 5);
    }

    #[test]
    fn redo_crash_after_marker_replays_records() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::FgRedo));
        m.setup_write(A, &5u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        m.store_u64(A.add(8), 100, StoreKind::Store);
        // Crash after the marker but before the in-place write-back:
        // the redo-replay window.
        m.set_commit_crash_point(Some(CommitStage::Marker));
        m.tx_commit();
        assert_eq!(m.device().image().read_u64(A), 5, "write-back not done");
        let report = m.recover();
        // The two adjacent words buddy-coalesced into one record.
        assert!(report.redo_applied >= 1);
        assert_eq!(report.replayed, vec![1]);
        assert_eq!(m.device().image().read_u64(A), 99);
        assert_eq!(m.device().image().read_u64(A.add(8)), 100);
    }

    #[test]
    fn redo_crash_before_marker_discards_records() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::FgRedo));
        m.setup_write(A, &5u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        m.set_commit_crash_point(Some(CommitStage::Records));
        m.tx_commit();
        let report = m.recover();
        assert_eq!(report.redo_applied, 0);
        assert_eq!(m.device().image().read_u64(A), 5);
    }

    #[test]
    fn redo_records_carry_final_values() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::FgRedo));
        m.tx_begin();
        m.store_u64(A, 1, StoreKind::Store);
        m.store_u64(A, 2, StoreKind::Store); // overwrites the record
        m.store_u64(A, 3, StoreKind::Store);
        m.set_commit_crash_point(Some(CommitStage::Marker));
        m.tx_commit();
        m.recover();
        assert_eq!(m.device().image().read_u64(A), 3, "final value replayed");
    }

    #[test]
    fn redo_log_free_lines_persist_before_records() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::SlpmtRedo));
        m.tx_begin();
        m.store_u64(A, 1, StoreKind::Store); // logged
        m.store_u64(A.add(64), 2, StoreKind::log_free());
        m.set_commit_crash_point(Some(CommitStage::LogFree));
        m.tx_commit();
        // Crash right after the log-free lines persisted: the logged
        // data never reached PM and no record is durable.
        assert_eq!(m.device().image().read_u64(A.add(64)), 2);
        assert_eq!(m.device().image().read_u64(A), 0);
        let report = m.recover();
        assert_eq!(report.redo_applied, 0);
    }

    #[test]
    fn redo_abort_needs_no_image_repair() {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::FgRedo).with_tiny_caches());
        m.setup_write(A, &5u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        for i in 0..512u64 {
            m.load_u64(PmAddr::new(0x40000 + i * 64));
        }
        m.tx_abort();
        assert_eq!(m.peek_u64(A), 5, "logical state restored");
        assert_eq!(m.device().image().read_u64(A), 5);
    }

    #[test]
    fn redo_shadow_round_trip_preserves_values() {
        // Evict a logged line to the shadow mid-transaction, refetch
        // it, store again, and commit normally.
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::FgRedo).with_tiny_caches());
        m.tx_begin();
        m.store_u64(A, 1, StoreKind::Store);
        for i in 0..512u64 {
            m.load_u64(PmAddr::new(0x40000 + i * 64));
        }
        assert_eq!(m.peek_u64(A), 1, "value visible from the shadow");
        m.store_u64(A.add(8), 2, StoreKind::Store); // refetch + re-log
        m.tx_commit();
        assert_eq!(m.device().image().read_u64(A), 1);
        assert_eq!(m.device().image().read_u64(A.add(8)), 2);
    }
}
