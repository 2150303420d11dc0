//! Durable log-area layout.
//!
//! The transaction engine persists log records (after coalescing and
//! packing) into a dedicated region of persistent memory. This module
//! models the *content* of that region: the sequence of records that
//! actually reached the persistence domain, plus per-transaction commit
//! markers. Post-crash recovery walks this region — applying undo
//! records of unfinished transactions in reverse order (or redo records
//! of committed ones forward).
//!
//! Every record and marker carries a CRC32 + append-sequence checksum
//! conceptually packed into its 8-byte tag word, so recovery can
//! *validate* the region before trusting it: a persist torn by a
//! mid-write power failure or a bit flipped on the medium is classified
//! ([`RecordIntegrity`]) instead of being replayed verbatim. A commit
//! marker is two words (transaction sequence, checksum); a marker torn
//! at either word is unusable and the transaction counts as
//! uncommitted.
//!
//! Byte-level placement inside the region is not needed for recovery
//! correctness; traffic accounting for record bytes happens in
//! [`crate::stats::WriteTraffic`] where packing into 64-byte WPQ slots
//! is counted.

use crate::addr::PmAddr;
use crate::fault::{crc32, crc32_update};
use crate::payload::PayloadBuf;
use std::collections::BTreeMap;

/// Validation class of one durable log record (or commit marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordIntegrity {
    /// Checksum matches and the persist completed: safe to replay.
    Intact,
    /// The persist tore mid-write (only a word prefix landed). Sound
    /// only at the log tail — persist ordering (Figure 4) puts the
    /// record before anything that depends on it, so a torn tail
    /// record simply never happened.
    Torn,
    /// The stored checksum disagrees with the content (media bit flip
    /// or a torn record found away from the tail): must not be
    /// replayed.
    Corrupt,
}

/// Durable state of one transaction's commit marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerState {
    /// Both marker words persisted and the checksum matches.
    Valid,
    /// The marker persist tore: only the first `word` 8-byte words
    /// landed. Recovery treats the transaction as uncommitted.
    Torn(u8),
}

/// One log record as persisted: the image of `payload.len()` bytes at
/// `addr` (the *old* value for undo logging, the *new* value for redo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistedRecord {
    /// Global sequence number of the owning transaction.
    pub txn: u64,
    /// Word-aligned start address the record covers.
    pub addr: PmAddr,
    /// Logged bytes (8 for a word record up to 64 for a line record),
    /// stored inline — records are plain `Copy` data.
    pub payload: PayloadBuf,
    /// Append sequence number within the log region (packed into the
    /// record's 8-byte tag word alongside the checksum).
    pub seq: u64,
    /// CRC32 stored at append time, covering the tag fields and the
    /// payload as the writer intended them.
    pub crc: u32,
    /// `Some(w)` when the persist tore after `w` payload words; the
    /// missing tail reads as zeros.
    pub torn_words: Option<u8>,
}

/// Computes the checksum a record's tag word stores: CRC32 over the
/// append sequence, owning transaction, address and payload bytes (in
/// that order, integers little-endian), streamed without a copy.
pub fn record_crc(seq: u64, txn: u64, addr: PmAddr, payload: &[u8]) -> u32 {
    let tag = [seq, txn, addr.raw()]
        .iter()
        .fold(0, |crc, word| crc32_update(crc, &word.to_le_bytes()));
    crc32_update(tag, payload)
}

/// Computes the checksum of a commit marker's second word: CRC32 over
/// the committed transaction sequence.
pub fn marker_crc(txn: u64) -> u32 {
    crc32(&txn.to_le_bytes())
}

impl PersistedRecord {
    /// On-media size of the record: payload plus an 8-byte tag word
    /// (address bits, append sequence and CRC32 packed together),
    /// matching the 16/24/40/72-byte record formats of Figure 6.
    pub fn media_bytes(&self) -> u64 {
        self.payload.len() as u64 + 8
    }

    /// The checksum the record's current content yields.
    pub fn computed_crc(&self) -> u32 {
        record_crc(self.seq, self.txn, self.addr, &self.payload)
    }

    /// Validation class of the record.
    pub fn integrity(&self) -> RecordIntegrity {
        if self.torn_words.is_some() {
            RecordIntegrity::Torn
        } else if self.crc == self.computed_crc() {
            RecordIntegrity::Intact
        } else {
            RecordIntegrity::Corrupt
        }
    }

    /// `true` when the record is safe to replay.
    pub fn is_intact(&self) -> bool {
        self.integrity() == RecordIntegrity::Intact
    }
}

/// What [`LogRegion::validate`] found (and fixed up) in the region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogValidation {
    /// Records whose persist tore mid-write (including the truncated
    /// tail).
    pub torn_records: usize,
    /// Torn records dropped from the log tail (the persist never
    /// logically happened; persist ordering makes this sound).
    pub torn_tail_truncated: usize,
    /// Records whose stored checksum disagrees with their content —
    /// bit flips, or torn records found away from the tail. Left in
    /// place but never replayed.
    pub corrupt_records: usize,
    /// Commit markers whose persist tore (their transactions count as
    /// uncommitted).
    pub torn_markers: usize,
}

/// The durable undo/redo log region.
///
/// Only records that really persisted (accepted by the WPQ) may be
/// appended, so the region's content *is* the crash-visible log.
///
/// ```
/// use slpmt_pmem::{LogRegion, PmAddr};
/// let mut log = LogRegion::new();
/// log.append(1, PmAddr::new(64), &[0u8; 8]);
/// assert_eq!(log.records_of(1).count(), 1);
/// assert!(!log.is_committed(1));
/// log.mark_committed(1);
/// assert!(log.is_committed(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogRegion {
    records: Vec<PersistedRecord>,
    /// Durable marker state per transaction. Only [`MarkerState::Valid`]
    /// entries count as committed; torn entries are recovery-visible
    /// evidence that a marker persist was interrupted.
    markers: BTreeMap<u64, MarkerState>,
    bytes_appended: u64,
    /// Next record append sequence number (monotonic, never reset by
    /// truncation — the sequence is part of each record's checksum).
    next_seq: u64,
    /// Highest transaction sequence whose *valid* marker has been
    /// retired by truncation — an audit watermark so commit history
    /// survives marker retirement (see
    /// [`max_committed_seq`](Self::max_committed_seq)).
    retired_committed: u64,
    /// Commit markers that landed whole over the region's life (see
    /// [`markers_landed`](Self::markers_landed)).
    markers_landed: u64,
}

impl LogRegion {
    /// Creates an empty log region.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a persisted record for transaction `txn`, stamping it
    /// with the next append sequence and its CRC32.
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty or `addr` is not word-aligned —
    /// hardware only emits word-multiple records (Figure 6).
    pub fn append(&mut self, txn: u64, addr: PmAddr, payload: &[u8]) {
        self.append_inner(txn, addr, payload, None);
    }

    /// Appends a record whose persist *tore* after `words_landed`
    /// payload words: the tag word (with the intended checksum) is
    /// durable, the payload tail reads as zeros. Only the device's
    /// fault-injection path creates these.
    ///
    /// # Panics
    ///
    /// As [`append`](Self::append); additionally if `words_landed`
    /// does not leave at least one word missing.
    pub fn append_torn(&mut self, txn: u64, addr: PmAddr, payload: &[u8], words_landed: u8) {
        assert!(
            (words_landed as usize) < payload.len() / crate::addr::WORD_BYTES,
            "torn record must be missing at least one word"
        );
        self.append_inner(txn, addr, payload, Some(words_landed));
    }

    fn append_inner(&mut self, txn: u64, addr: PmAddr, payload: &[u8], torn: Option<u8>) {
        assert!(!payload.is_empty(), "empty log record");
        assert!(addr.is_word_aligned(), "log record must be word-aligned");
        assert!(
            payload.len().is_multiple_of(crate::addr::WORD_BYTES),
            "log payload must be a whole number of words"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        // The checksum covers the payload the writer *intended*: the
        // tag word lands first, so a torn record keeps the intended
        // CRC but loses payload words (zeros on the medium).
        let crc = record_crc(seq, txn, addr, payload);
        let mut payload = PayloadBuf::from_slice(payload);
        if let Some(w) = torn {
            let landed = w as usize * crate::addr::WORD_BYTES;
            payload[landed..].fill(0);
        }
        let rec = PersistedRecord {
            txn,
            addr,
            payload,
            seq,
            crc,
            torn_words: torn,
        };
        self.bytes_appended += rec.media_bytes();
        self.records.push(rec);
    }

    /// Marks transaction `txn` committed (its commit marker fully
    /// persisted).
    pub fn mark_committed(&mut self, txn: u64) {
        self.markers.insert(txn, MarkerState::Valid);
        self.markers_landed += 1;
    }

    /// How many commit markers landed whole over the region's life,
    /// whether still live or retired by truncation since; torn markers
    /// do not count, and `reset` keeps the count. Each commit persists
    /// one marker and an armed crash admits a prefix of the persist
    /// events, so after a crash these are the markers of the first
    /// `markers_landed` commits in commit order.
    pub fn markers_landed(&self) -> u64 {
        self.markers_landed
    }

    /// Records a commit marker whose persist tore after `word` 8-byte
    /// words (a marker is two words: sequence, checksum). The
    /// transaction stays uncommitted; recovery reports the torn
    /// marker.
    pub fn mark_committed_torn(&mut self, txn: u64, word: u8) {
        self.markers.entry(txn).or_insert(MarkerState::Torn(word));
    }

    /// Whether a *valid* commit marker for `txn` is durable. Torn
    /// markers do not count — recovery must treat their transactions
    /// as uncommitted.
    pub fn is_committed(&self, txn: u64) -> bool {
        matches!(self.markers.get(&txn), Some(MarkerState::Valid))
    }

    /// `true` unless `txn`'s marker is durably present but *torn* —
    /// the one state in which a marker-persist event in the trace must
    /// not be trusted.
    pub fn marker_usable(&self, txn: u64) -> bool {
        !matches!(self.markers.get(&txn), Some(MarkerState::Torn(_)))
    }

    /// Durable marker state of `txn`, if any marker persist reached
    /// the region.
    pub fn marker_state(&self, txn: u64) -> Option<MarkerState> {
        self.markers.get(&txn).copied()
    }

    /// All records, in persist order.
    pub fn records(&self) -> &[PersistedRecord] {
        &self.records
    }

    /// Records belonging to transaction `txn`, in persist order.
    pub fn records_of(&self, txn: u64) -> impl Iterator<Item = &PersistedRecord> {
        self.records.iter().filter(move |r| r.txn == txn)
    }

    /// Records of transactions that have **no** *valid* durable commit
    /// marker, in *reverse* persist order — the order undo recovery
    /// applies them.
    pub fn uncommitted_rev(&self) -> impl Iterator<Item = &PersistedRecord> {
        self.records
            .iter()
            .rev()
            .filter(move |r| !self.is_committed(r.txn))
    }

    /// Total bytes appended (records incl. metadata), an audit value.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Drops records of committed transactions (log truncation after a
    /// successful commit) and retires their commit markers: a
    /// truncated transaction's log epoch is over, so its marker must
    /// not leak into a later `reset`/recovery cycle. The commit fact
    /// survives in the [`max_committed_seq`](Self::max_committed_seq)
    /// watermark.
    pub fn truncate_committed(&mut self) {
        let committed: Vec<u64> = self.committed_txns().collect();
        if committed.is_empty() {
            return;
        }
        self.records.retain(|r| !committed.contains(&r.txn));
        for txn in committed {
            self.markers.remove(&txn);
            self.retired_committed = self.retired_committed.max(txn);
        }
    }

    /// Removes every record of transaction `txn` (an abort persisted
    /// its revocations, so the records must never be replayed by a
    /// later recovery) along with any marker bookkeeping for it.
    /// Returns how many records were dropped.
    pub fn drop_txn(&mut self, txn: u64) -> usize {
        let before = self.records.len();
        self.records.retain(|r| r.txn != txn);
        if let Some(MarkerState::Valid) = self.markers.remove(&txn) {
            // Defensive: dropping a committed txn's records still must
            // not erase the commit fact from the audit watermark.
            self.retired_committed = self.retired_committed.max(txn);
        }
        before - self.records.len()
    }

    /// Transactions with *valid* durable commit markers, in sequence
    /// order.
    pub fn committed_txns(&self) -> impl Iterator<Item = u64> + '_ {
        self.markers
            .iter()
            .filter(|(_, s)| matches!(s, MarkerState::Valid))
            .map(|(&t, _)| t)
    }

    /// Transactions whose commit marker is durably present but torn.
    pub fn torn_marker_txns(&self) -> impl Iterator<Item = u64> + '_ {
        self.markers
            .iter()
            .filter(|(_, s)| matches!(s, MarkerState::Torn(_)))
            .map(|(&t, _)| t)
    }

    /// Highest transaction sequence ever durably committed in this
    /// region — live valid markers *or* markers already retired by
    /// truncation. Single-core commit markers persist in sequence
    /// order, so this is the committed-prefix bound the crash-sweep
    /// oracle uses. Returns 0 when nothing ever committed.
    pub fn max_committed_seq(&self) -> u64 {
        self.committed_txns()
            .max()
            .unwrap_or(0)
            .max(self.retired_committed)
    }

    /// Validates the region before replay: drops torn records from the
    /// uncommitted log tail (their persist never logically completed),
    /// classifies everything else, and counts torn markers. Idempotent.
    pub fn validate(&mut self) -> LogValidation {
        let mut v = LogValidation::default();
        // A torn record is sound to discard only as the newest suffix
        // of the region: persist ordering guarantees nothing durable
        // depends on a record that tore at the crash boundary.
        while let Some(last) = self.records.last() {
            if last.torn_words.is_some() && !self.is_committed(last.txn) {
                self.records.pop();
                v.torn_records += 1;
                v.torn_tail_truncated += 1;
            } else {
                break;
            }
        }
        for rec in &self.records {
            match rec.integrity() {
                RecordIntegrity::Intact => {}
                // A torn record away from the tail (or of a committed
                // txn) should be impossible; treat it as corrupt so it
                // is never replayed.
                RecordIntegrity::Torn => {
                    v.torn_records += 1;
                    v.corrupt_records += 1;
                }
                RecordIntegrity::Corrupt => v.corrupt_records += 1,
            }
        }
        v.torn_markers = self.torn_marker_txns().count();
        v
    }

    /// Flips bit `bit` of record `index`'s payload, leaving the stored
    /// checksum untouched — the fault-injection hook for media bit
    /// flips. Returns the line addresses the record covers, or `None`
    /// if the index is out of range.
    pub fn corrupt_record_bit(&mut self, index: usize, bit: usize) -> Option<Vec<u64>> {
        let rec = self.records.get_mut(index)?;
        let bit = bit % (rec.payload.len() * 8);
        rec.payload[bit / 8] ^= 1 << (bit % 8);
        let first = rec.addr.line().raw();
        let last = PmAddr::new(rec.addr.raw() + rec.payload.len() as u64 - 1)
            .line()
            .raw();
        Some((first..=last).step_by(crate::addr::LINE_BYTES).collect())
    }

    /// Empties the region entirely — records *and* markers. Used when
    /// recovery finishes and a new log epoch begins.
    pub fn reset(&mut self) {
        self.records.clear();
        self.markers.clear();
    }

    /// Number of live records in the region.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records are live.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec_addrs<'a>(it: impl Iterator<Item = &'a PersistedRecord>) -> Vec<u64> {
        it.map(|r| r.addr.raw()).collect()
    }

    fn rec(payload_len: usize) -> PersistedRecord {
        PersistedRecord {
            txn: 0,
            addr: PmAddr::new(0),
            payload: PayloadBuf::from_slice(&vec![0u8; payload_len]),
            seq: 0,
            crc: record_crc(0, 0, PmAddr::new(0), &vec![0u8; payload_len]),
            torn_words: None,
        }
    }

    /// Pins the durable checksum format: these values are stored in
    /// every hardware log record and in the software-PTM arenas of the
    /// PM image, so any change to how they are computed must leave
    /// them bit-identical.
    #[test]
    fn record_crc_golden_values() {
        let payload: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        let addr = PmAddr::new(0x1040);
        for (len, want) in [
            (8, 0x3FCA_52A4),
            (16, 0x1D4F_B451),
            (32, 0xF371_9D25),
            (64, 0x1E45_7A6C),
        ] {
            assert_eq!(record_crc(7, 42, addr, &payload[..len]), want, "len {len}");
        }
    }

    #[test]
    fn marker_crc_golden_values() {
        for (seq, want) in [
            (0, 0x6522_DF69),
            (1, 0xA988_DFF7),
            (2, 0x2707_D814),
            (255, 0x4369_D98F),
            (1 << 32, 0xDD9E_B80C),
            (u64::MAX, 0x2144_DF1C),
        ] {
            assert_eq!(marker_crc(seq), want, "seq {seq}");
        }
    }

    #[test]
    fn media_bytes_match_figure6() {
        // word / double / quad / line records: Figure 6 gives 16, 24,
        // 40, 72 = payload + one 8-byte tag word. The tag packs the
        // address bits, append sequence and CRC32 — checksums add no
        // media bytes.
        assert_eq!(rec(8).media_bytes(), 16);
        assert_eq!(rec(16).media_bytes(), 24);
        assert_eq!(rec(32).media_bytes(), 40);
        assert_eq!(rec(64).media_bytes(), 72);
    }

    #[test]
    fn append_and_query() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(0), &[1; 8]);
        log.append(2, PmAddr::new(64), &[2; 8]);
        log.append(1, PmAddr::new(8), &[3; 8]);
        assert_eq!(log.len(), 3);
        assert_eq!(rec_addrs(log.records_of(1)), vec![0, 8]);
        assert_eq!(log.bytes_appended(), 48);
    }

    #[test]
    fn appended_records_are_intact_and_sequenced() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(0), &[1; 8]);
        log.append(1, PmAddr::new(8), &[2; 16]);
        let recs = log.records();
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
        assert!(recs.iter().all(|r| r.is_intact()));
    }

    #[test]
    fn uncommitted_rev_order_and_filter() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(0), &[1; 8]);
        log.append(1, PmAddr::new(8), &[2; 8]);
        log.append(2, PmAddr::new(64), &[3; 8]);
        log.mark_committed(2);
        assert_eq!(rec_addrs(log.uncommitted_rev()), vec![8, 0]);
    }

    #[test]
    fn torn_marker_is_not_committed() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(0), &[1; 8]);
        log.mark_committed_torn(1, 0);
        assert!(!log.is_committed(1));
        assert_eq!(log.markers_landed(), 0, "a torn marker did not land");
        assert!(!log.marker_usable(1));
        assert_eq!(log.marker_state(1), Some(MarkerState::Torn(0)));
        assert_eq!(log.uncommitted_rev().count(), 1, "txn rolls back");
        assert_eq!(log.torn_marker_txns().collect::<Vec<_>>(), vec![1]);
        assert_eq!(log.max_committed_seq(), 0);
    }

    #[test]
    fn truncation_retires_markers_and_keeps_watermark() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(0), &[1; 8]);
        log.append(2, PmAddr::new(64), &[2; 8]);
        log.mark_committed(1);
        log.truncate_committed();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].txn, 2);
        // Satellite regression: the marker must *not* leak across the
        // truncation — a later reset/recovery epoch would otherwise
        // inherit stale commit state.
        assert!(!log.is_committed(1), "marker retired with its records");
        assert_eq!(log.committed_txns().count(), 0);
        // ...but the commit fact survives as the audit watermark.
        assert_eq!(log.max_committed_seq(), 1);
        log.mark_committed(3);
        log.truncate_committed();
        assert_eq!(log.max_committed_seq(), 3);
        log.reset();
        assert_eq!(log.max_committed_seq(), 3, "watermark survives reset");
        assert_eq!(log.markers_landed(), 2, "retired markers still count");
        assert_eq!(log.committed_txns().count(), 0);
    }

    #[test]
    fn drop_txn_removes_only_that_txn() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(0), &[1; 8]);
        log.append(2, PmAddr::new(64), &[2; 8]);
        log.append(1, PmAddr::new(8), &[3; 8]);
        assert_eq!(log.drop_txn(1), 2);
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].txn, 2);
        assert_eq!(log.drop_txn(9), 0);
    }

    #[test]
    fn drop_txn_retires_marker_state() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(0), &[1; 8]);
        log.mark_committed_torn(1, 1);
        log.drop_txn(1);
        assert_eq!(log.marker_state(1), None, "torn marker retired");
        assert_eq!(log.max_committed_seq(), 0, "torn marker never commits");
        log.append(2, PmAddr::new(0), &[1; 8]);
        log.mark_committed(2);
        log.drop_txn(2);
        assert_eq!(log.marker_state(2), None);
        assert_eq!(
            log.max_committed_seq(),
            2,
            "valid marker folds into watermark"
        );
    }

    #[test]
    fn validate_truncates_torn_tail_only() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(0), &[1; 8]);
        log.append_torn(1, PmAddr::new(64), &[2; 16], 1);
        let v = log.validate();
        assert_eq!(v.torn_records, 1);
        assert_eq!(v.torn_tail_truncated, 1);
        assert_eq!(v.corrupt_records, 0);
        assert_eq!(log.len(), 1, "intact head survives");
        // Idempotent: a second pass finds nothing.
        assert_eq!(log.validate(), LogValidation::default());
    }

    #[test]
    fn validate_counts_flipped_record_as_corrupt() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(0), &[5; 8]);
        log.append(1, PmAddr::new(64), &[6; 8]);
        let lines = log.corrupt_record_bit(0, 3).unwrap();
        assert_eq!(lines, vec![0]);
        let v = log.validate();
        assert_eq!(v.corrupt_records, 1);
        assert_eq!(v.torn_records, 0);
        assert_eq!(log.len(), 2, "corrupt mid-log record is kept, skipped");
        assert!(!log.records()[0].is_intact());
        assert!(log.records()[1].is_intact());
    }

    #[test]
    fn torn_payload_tail_reads_zero() {
        let mut log = LogRegion::new();
        log.append_torn(1, PmAddr::new(0), &[0xAA; 24], 1);
        let r = &log.records()[0];
        assert_eq!(r.integrity(), RecordIntegrity::Torn);
        assert_eq!(&r.payload[..8], &[0xAA; 8]);
        assert_eq!(&r.payload[8..24], &[0u8; 16]);
    }

    #[test]
    fn empty_region() {
        let log = LogRegion::new();
        assert!(log.is_empty());
        assert_eq!(log.uncommitted_rev().count(), 0);
        assert_eq!(log.max_committed_seq(), 0);
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_record_rejected() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(3), &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "whole number of words")]
    fn ragged_payload_rejected() {
        let mut log = LogRegion::new();
        log.append(1, PmAddr::new(0), &[0; 5]);
    }

    #[test]
    #[should_panic(expected = "missing at least one word")]
    fn fully_landed_torn_record_rejected() {
        let mut log = LogRegion::new();
        log.append_torn(1, PmAddr::new(0), &[0; 8], 1);
    }
}
