//! EDE-style bufferless logging path (Shull et al., ISCA 2021).
//!
//! EDE supports logging at any granularity and removes ordering fences
//! by sorting dependent operations in the issue queue, but it has no
//! on-core log *buffer*: every logged store emits its own word record
//! straight to the persistence domain. The records append sequentially
//! into the log area (the device's log-tail accounting packs them into
//! media lines), but without a buffer there is no *record* coalescing
//! — eight words of one cache line cost eight 16-byte records where
//! the tiered buffer pays one 72-byte line record. That per-record
//! metadata overhead is what costs EDE relative to the baseline
//! (§VI-D1: "it loses opportunities for hardware log coalescing via a
//! log buffer").

use crate::record::{FlushEvent, LogRecord};
use slpmt_pmem::addr::{PmAddr, WORD_BYTES};

/// EDE's bufferless log path: one record per logged word.
///
/// ```
/// use slpmt_logbuf::EdeCombiner;
/// use slpmt_pmem::PmAddr;
/// let mut e = EdeCombiner::new();
/// let rec = e.log_word(1, PmAddr::new(0), [7; 8]);
/// assert_eq!(rec.payload.len(), 8);
/// assert_eq!(rec.media_bytes(), 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EdeCombiner {
    emitted: u64,
}

impl EdeCombiner {
    /// Creates the (stateless) log path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records emitted to the persistence domain.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// `true` if a record is pending emission — never, for EDE.
    pub fn has_pending(&self) -> bool {
        false
    }

    /// Logs the pre-image of one word and returns its record, which
    /// the caller persists immediately as a one-record pack (there is
    /// no buffer to hold it).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    pub fn log_word(&mut self, txn: u64, addr: PmAddr, pre_image: [u8; WORD_BYTES]) -> LogRecord {
        assert!(addr.is_word_aligned(), "EDE logs whole words");
        self.emitted += 1;
        LogRecord::new(txn, addr, &pre_image)
    }

    /// Emits pending state — a no-op for the bufferless path.
    pub fn drain(&mut self) -> Option<FlushEvent> {
        None
    }

    /// Emits the pending record covering `line` — a no-op: records are
    /// already in the persistence domain when the line is evicted.
    pub fn flush_line(&mut self, _line: PmAddr) -> Option<FlushEvent> {
        None
    }

    /// Drops pending state (abort) — a no-op.
    pub fn clear(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_word_emits_a_record() {
        let mut e = EdeCombiner::new();
        for w in 0..8u64 {
            let rec = e.log_word(1, PmAddr::new(w * 8), [w as u8; 8]);
            assert_eq!(rec.addr, PmAddr::new(w * 8));
            assert_eq!(rec.media_bytes(), 16);
        }
        assert_eq!(e.emitted(), 8);
    }

    #[test]
    fn no_record_coalescing() {
        // Eight words of one line: EDE pays 8 × 16 B = 128 B of media
        // where the tiered buffer coalesces them into one 72 B record.
        let mut e = EdeCombiner::new();
        let total: u64 = (0..8u64)
            .map(|w| e.log_word(1, PmAddr::new(w * 8), [0; 8]).media_bytes())
            .sum();
        assert_eq!(total, 128);
    }

    #[test]
    fn drain_and_flush_are_noops() {
        let mut e = EdeCombiner::new();
        e.log_word(1, PmAddr::new(0), [0; 8]);
        assert!(e.drain().is_none());
        assert!(e.flush_line(PmAddr::new(0)).is_none());
        assert!(!e.has_pending());
    }

    #[test]
    #[should_panic(expected = "whole words")]
    fn unaligned_word_rejected() {
        let mut e = EdeCombiner::new();
        e.log_word(1, PmAddr::new(3), [0; 8]);
    }
}
