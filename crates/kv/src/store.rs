//! The KV facade: a clean durable `get`/`set`/`delete`/`cas`/`scan`
//! API over one simulated machine.
//!
//! [`KvStore`] owns what the benchmark drivers used to spell out by
//! hand: transaction demarcation (every mutation is one durable
//! transaction), value encoding into fixed persistent-heap cells, and
//! the crash → replay → structure-recovery → leak-GC sequence that
//! takes a machine from power-loss back to ready.
//!
//! Values are variable-length up to `max_value` and are encoded into a
//! fixed cell: an 8-byte little-endian length prefix, the payload, and
//! zero padding up to the cell size (`8 + max_value` rounded up to a
//! word, at least 16 bytes so every backend's update path is usable).
//! The cell is what the underlying [`DurableIndex`] stores; the facade
//! decodes on the way out, so callers only ever see raw payloads.

use slpmt_annotate::AnnotationTable;
use slpmt_core::{Machine, MachineConfig, RecoveryReport, SchemeKind};
use slpmt_pmem::PmAddr;
use slpmt_prng::splitmix64;
use slpmt_workloads::ctx::AnnotationSource;
use slpmt_workloads::{DurableIndex, IndexKind, PmContext};

/// Deterministic verification cost the background scrub charges per
/// flagged line (a re-read plus ECC re-establishment).
pub const SCRUB_CYCLES_PER_LINE: u64 = 300;

/// Why an encoded cell failed to decode. Surfaces instead of a panic
/// when media faults (or the salvage scrub that zeroes unsalvageable
/// lines) leave a cell whose length prefix no longer describes its
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellError {
    /// The cell is shorter than the 8-byte length prefix.
    Short {
        /// Actual cell length in bytes.
        len: usize,
    },
    /// The length prefix claims more payload than the cell holds
    /// (corrupt prefix).
    BadLength {
        /// The prefix's claimed payload length.
        claimed: u64,
        /// Payload capacity actually present after the prefix.
        capacity: usize,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Short { len } => {
                write!(f, "cell of {len} B is shorter than the length prefix")
            }
            CellError::BadLength { claimed, capacity } => {
                write!(
                    f,
                    "length prefix claims {claimed} B of {capacity} B capacity"
                )
            }
        }
    }
}

/// Online-recovery health of a [`KvStore`]: either serving normally
/// or inside the post-crash degraded window where reads serve but
/// writes are refused until the poison-set scrub completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Fully serving; no scrub work outstanding.
    #[default]
    Ready,
    /// Degraded window: the recovery report flagged salvaged or lost
    /// lines, and the background scrub has not finished re-verifying
    /// them.
    Recovering,
}

/// Outcome of a compare-and-swap, mirroring the memcached `cas`
/// response vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// Token matched; the value was replaced durably.
    Stored,
    /// The key exists but the token was stale.
    Exists,
    /// The key is not present.
    NotFound,
}

/// Deterministic CAS token for a value payload: a splitmix64 fold over
/// the bytes, derivable from durable state alone — after a crash the
/// recovered store hands out the same tokens, so clients never hold a
/// token the service cannot re-derive.
pub fn fingerprint(value: &[u8]) -> u64 {
    let mut state = 0x5EED_CA5F_1290_0D51 ^ (value.len() as u64);
    let mut acc = splitmix64(&mut state);
    for chunk in value.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        state ^= u64::from_le_bytes(w);
        acc ^= splitmix64(&mut state);
    }
    acc
}

/// The durable key-value store facade.
pub struct KvStore {
    ctx: PmContext,
    idx: Box<dyn DurableIndex>,
    kind: IndexKind,
    max_value: usize,
    cell: usize,
    health: HealthState,
    scrub_queue: Vec<u64>,
    scrubbed: u64,
}

impl KvStore {
    /// Opens a store simulating `scheme` over a fresh `kind` index
    /// accepting values up to `max_value` bytes.
    pub fn open(scheme: impl Into<SchemeKind>, kind: IndexKind, max_value: usize) -> Self {
        Self::with_config(MachineConfig::for_kind(scheme), kind, max_value)
    }

    /// Opens a store from an explicit machine configuration (timing
    /// sweeps, forced-stall WPQ setups).
    pub fn with_config(cfg: MachineConfig, kind: IndexKind, max_value: usize) -> Self {
        let cell = 8 + max_value.div_ceil(8).max(1) * 8;
        let mut ctx = PmContext::with_config(cfg, AnnotationTable::new());
        let idx = kind.build(&mut ctx, cell, AnnotationSource::Manual);
        KvStore {
            ctx,
            idx,
            kind,
            max_value,
            cell,
            health: HealthState::Ready,
            scrub_queue: Vec::new(),
            scrubbed: 0,
        }
    }

    /// Pre-faults heap pages for roughly `ops` operations' worth of
    /// allocations (see `PmContext::prefault_heap`); call before a
    /// measured or parallel run.
    pub fn prefault(&mut self, ops: usize) {
        let bytes = (ops as u64) * (self.cell as u64 + 192) + (1 << 20);
        self.ctx.prefault_heap(bytes);
    }

    /// The index backend this store runs on.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Largest accepted value payload, in bytes.
    pub fn max_value(&self) -> usize {
        self.max_value
    }

    /// The fixed encoded-cell size values occupy in the heap.
    pub fn cell_size(&self) -> usize {
        self.cell
    }

    fn encode(&self, value: &[u8]) -> Vec<u8> {
        assert!(
            value.len() <= self.max_value,
            "value of {} B exceeds max_value {}",
            value.len(),
            self.max_value
        );
        let mut cell = vec![0u8; self.cell];
        cell[..8].copy_from_slice(&(value.len() as u64).to_le_bytes());
        cell[8..8 + value.len()].copy_from_slice(value);
        cell
    }

    /// Checked cell decode: the payload when the length prefix
    /// describes the cell, a typed [`CellError`] otherwise. Never
    /// panics and never unwraps — short cells (salvage-scrubbed lines
    /// can truncate a cell to zeros) and corrupt prefixes both surface
    /// as errors the caller can degrade on.
    pub fn decode_cell(cell: &[u8]) -> Result<Vec<u8>, CellError> {
        let Some(prefix) = cell.get(..8) else {
            return Err(CellError::Short { len: cell.len() });
        };
        let mut raw = [0u8; 8];
        raw.copy_from_slice(prefix);
        let claimed = u64::from_le_bytes(raw);
        let capacity = cell.len() - 8;
        if claimed > capacity as u64 {
            return Err(CellError::BadLength { claimed, capacity });
        }
        Ok(cell[8..8 + claimed as usize].to_vec())
    }

    /// Decodes an encoded cell back to its payload, degrading instead
    /// of erroring: a short cell decodes empty, a corrupt length
    /// prefix (possible under injected media faults) is clamped to the
    /// cell's actual capacity. The timed read path uses this so a
    /// degraded value is observable rather than fatal; callers that
    /// must distinguish use [`decode_cell`](Self::decode_cell).
    pub fn decode(cell: &[u8]) -> Vec<u8> {
        Self::payload(cell).to_vec()
    }

    /// The payload [`decode`](Self::decode) returns, borrowed from the
    /// cell instead of copied.
    pub fn payload(cell: &[u8]) -> &[u8] {
        let Some(prefix) = cell.get(..8) else {
            return &[];
        };
        let mut raw = [0u8; 8];
        raw.copy_from_slice(prefix);
        let len = u64::from_le_bytes(raw).min(cell.len() as u64 - 8);
        &cell[8..8 + len as usize]
    }

    // ------------------------------------------------------------------
    // The service verbs (each mutation = one durable transaction)

    /// Timed point read; `None` when absent.
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        self.idx.get(&mut self.ctx, key).map(|c| Self::decode(&c))
    }

    /// Timed point read returning `(payload, cas_token)`.
    pub fn gets(&mut self, key: u64) -> Option<(Vec<u8>, u64)> {
        self.get(key).map(|v| {
            let t = fingerprint(&v);
            (v, t)
        })
    }

    /// Unconditional durable store: inserts the key or replaces its
    /// value, whichever applies.
    pub fn set(&mut self, key: u64, value: &[u8]) {
        let cell = self.encode(value);
        if self.idx.contains(&self.ctx, key) {
            let updated = self.idx.update(&mut self.ctx, key, &cell);
            debug_assert!(updated);
        } else {
            self.idx.insert(&mut self.ctx, key, &cell);
        }
    }

    /// Conditional durable store: replaces `key`'s value only when
    /// `token` matches the fingerprint of the current value.
    pub fn cas(&mut self, key: u64, token: u64, value: &[u8]) -> CasOutcome {
        match self.get(key) {
            None => CasOutcome::NotFound,
            Some(current) if fingerprint(&current) != token => CasOutcome::Exists,
            Some(_) => {
                let cell = self.encode(value);
                let updated = self.idx.update(&mut self.ctx, key, &cell);
                debug_assert!(updated);
                CasOutcome::Stored
            }
        }
    }

    /// Durable removal; `true` when the key was present.
    pub fn delete(&mut self, key: u64) -> bool {
        self.idx.remove(&mut self.ctx, key)
    }

    /// Timed range scan over `lo..=hi`, decoded; `None` when the
    /// backend is unordered (the caller degrades to point reads).
    pub fn scan(&mut self, lo: u64, hi: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        self.idx.scan_range(&mut self.ctx, lo, hi).map(|pairs| {
            pairs
                .into_iter()
                .map(|(k, c)| (k, Self::decode(&c)))
                .collect()
        })
    }

    // ------------------------------------------------------------------
    // Untimed observers (checkers, oracles)

    /// Untimed decoded lookup (invariant checkers, oracles).
    pub fn peek_value(&self, key: u64) -> Option<Vec<u8>> {
        self.idx.value_of(&self.ctx, key).map(|c| Self::decode(&c))
    }

    /// Calls `f(key, cell address)` once per live key, in one walk of
    /// the index (untimed; see `DurableIndex::for_each_entry`).
    pub fn for_each_entry(&self, f: &mut dyn FnMut(u64, PmAddr)) {
        self.idx.for_each_entry(&self.ctx, f);
    }

    /// Number of live keys (untimed).
    pub fn len(&self) -> usize {
        self.idx.len(&self.ctx)
    }

    /// `true` when no keys are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the backend's structural invariant checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.idx.check_invariants(&self.ctx)
    }

    /// Every heap allocation reachable from the structure roots.
    pub fn reachable(&self) -> Vec<PmAddr> {
        self.idx.reachable(&self.ctx)
    }

    // ------------------------------------------------------------------
    // Crash & recovery (the facade owns the full sequence)

    /// Simulates a power failure: volatile state is lost, the durable
    /// image and log survive.
    pub fn crash(&mut self) {
        self.ctx.crash();
    }

    /// Log replay alone (undo/redo), returning the engine's report.
    /// Split out so fault batteries can wrap just the replay in a
    /// panic guard before deciding whether structure recovery is safe.
    pub fn replay(&mut self) -> RecoveryReport {
        self.ctx.recover()
    }

    /// Structure recovery + leak GC after [`replay`](Self::replay);
    /// returns the number of leaked allocations reclaimed.
    pub fn rebuild(&mut self) -> usize {
        self.idx.recover(&mut self.ctx);
        let reachable = self.idx.reachable(&self.ctx);
        self.ctx.gc(&reachable)
    }

    /// Crash-to-ready recovery: log replay, structure recovery and
    /// leak GC in one call. After it returns the store serves requests
    /// again.
    pub fn recover(&mut self) -> RecoveryReport {
        let report = self.replay();
        self.rebuild();
        self.health = HealthState::Ready;
        self.scrub_queue.clear();
        self.scrubbed = 0;
        report
    }

    // ------------------------------------------------------------------
    // Degraded-mode online recovery

    /// Crash-to-*serving* recovery with graceful degradation: log
    /// replay and structure rebuild run as usual, but when the
    /// validate/salvage phase flagged any lines (salvaged from log
    /// records, lost beyond salvage, or still carrying media poison)
    /// the store comes back in [`HealthState::Recovering`] instead of
    /// blocking: reads serve immediately while the flagged lines wait
    /// in a scrub queue for [`scrub_step`](Self::scrub_step). The
    /// service layer refuses writes (`SERVER_ERROR recovering`) until
    /// the queue drains and the store is [`ready`](Self::ready) again.
    pub fn recover_degraded(&mut self) -> RecoveryReport {
        let report = self.replay();
        self.rebuild();
        self.begin_degraded_window(&report);
        report
    }

    /// Opens the degraded window from a recovery report: every line
    /// the validate/salvage phase flagged (salvaged, lost, or still
    /// poisoned) plus every line restored from an applied undo
    /// pre-image queues for the background scrub, and the store drops
    /// to [`HealthState::Recovering`] while any are pending. Rollback
    /// lines were just re-persisted from records that survived the
    /// crash, so a conservative deployment re-verifies them before
    /// accepting new writes; the set is bounded by the in-flight
    /// transactions at the crash. Split out of
    /// [`recover_degraded`](Self::recover_degraded) so harnesses that
    /// guard [`replay`](Self::replay) and [`rebuild`](Self::rebuild)
    /// separately can still open the window.
    pub fn begin_degraded_window(&mut self, report: &RecoveryReport) {
        let mut flagged: std::collections::BTreeSet<u64> = report
            .salvaged_lines
            .iter()
            .chain(report.lost_lines.iter())
            .chain(report.rolled_back_lines.iter())
            .copied()
            .collect();
        flagged.extend(self.machine().device().poisoned_line_addrs());
        self.scrub_queue = flagged.into_iter().collect();
        self.scrubbed = 0;
        self.health = if self.scrub_queue.is_empty() {
            HealthState::Ready
        } else {
            HealthState::Recovering
        };
    }

    /// Runs up to `n` steps of the background scrub: each step
    /// re-reads one flagged line, clears any residual media poison,
    /// and charges deterministic verification cycles. The store
    /// returns to [`HealthState::Ready`] once the queue is empty.
    /// Returns the number of lines scrubbed by this call.
    pub fn scrub_step(&mut self, n: usize) -> usize {
        let take = n.min(self.scrub_queue.len());
        if take == 0 {
            if self.scrub_queue.is_empty() {
                self.health = HealthState::Ready;
            }
            return 0;
        }
        let drained: Vec<u64> = self.scrub_queue.drain(..take).collect();
        for la in drained {
            self.ctx.machine_mut().scrub_line(PmAddr::new(la));
            // Verification cost: re-read + ECC re-establishment.
            self.ctx.compute(SCRUB_CYCLES_PER_LINE);
        }
        self.scrubbed += take as u64;
        if self.scrub_queue.is_empty() {
            self.health = HealthState::Ready;
        }
        take
    }

    /// Current health (ready vs recovering).
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// `true` when the store serves writes (no scrub work pending).
    pub fn ready(&self) -> bool {
        self.health == HealthState::Ready
    }

    /// Flagged lines still waiting for the background scrub.
    pub fn scrub_pending(&self) -> usize {
        self.scrub_queue.len()
    }

    /// Lines scrubbed since the last degraded recovery.
    pub fn scrubbed(&self) -> u64 {
        self.scrubbed
    }

    // ------------------------------------------------------------------
    // Machine plumbing (admission, tracing, fault plans)

    /// Simulated cycle clock.
    pub fn now(&self) -> u64 {
        self.ctx.machine().now()
    }

    /// Current WPQ occupancy at the simulated clock — the admission
    /// signal.
    pub fn wpq_depth(&self) -> usize {
        self.ctx.machine().wpq_depth()
    }

    /// Charges pure compute cycles (admission polling, parse cost).
    pub fn compute(&mut self, cycles: u64) {
        self.ctx.compute(cycles);
    }

    /// Sequence number of the most recent durable transaction (the
    /// oracle's committed-prefix clock).
    pub fn txn_seq(&self) -> u64 {
        self.ctx.txn_seq()
    }

    /// Sequence number of the most recent transaction whose commit is
    /// durable in the pre-recovery PM image (hardware log tail or
    /// software commit header, per the configured design).
    pub fn durable_commit_seq(&self) -> u64 {
        self.ctx.durable_commit_seq()
    }

    /// The underlying machine (stats, WPQ knobs, crash arming).
    pub fn machine(&self) -> &Machine {
        self.ctx.machine()
    }

    /// Mutable machine access (fault plans, drain jitter, crash
    /// arming).
    pub fn machine_mut(&mut self) -> &mut Machine {
        self.ctx.machine_mut()
    }

    /// The execution context (heap inspection, tracing).
    pub fn context(&self) -> &PmContext {
        &self.ctx
    }

    /// Mutable context access.
    pub fn context_mut(&mut self) -> &mut PmContext {
        &mut self.ctx
    }

    /// Enables event tracing on the machine, returning the shared
    /// handle so the service loop can emit request spans into the same
    /// deterministic record stream.
    pub fn enable_tracing(&mut self, capacity_per_core: usize) -> slpmt_core::TraceHandle {
        self.ctx.enable_tracing(capacity_per_core)
    }
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("kind", &self.kind)
            .field("max_value", &self.max_value)
            .field("cell", &self.cell)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpmt_core::Scheme;

    fn store() -> KvStore {
        KvStore::open(Scheme::Slpmt, IndexKind::KvBtree, 24)
    }

    #[test]
    fn set_get_delete_round_trip() {
        let mut s = store();
        assert_eq!(s.get(7), None);
        s.set(7, b"hello");
        assert_eq!(s.get(7).as_deref(), Some(&b"hello"[..]));
        s.set(7, b"world!"); // replace, different length
        assert_eq!(s.get(7).as_deref(), Some(&b"world!"[..]));
        assert_eq!(s.len(), 1);
        assert!(s.delete(7));
        assert!(!s.delete(7));
        assert!(s.is_empty());
    }

    #[test]
    fn cas_token_discipline() {
        let mut s = store();
        assert_eq!(s.cas(1, 99, b"x"), CasOutcome::NotFound);
        s.set(1, b"first");
        let (v, tok) = s.gets(1).unwrap();
        assert_eq!(v, b"first");
        assert_eq!(s.cas(1, tok ^ 1, b"stale"), CasOutcome::Exists);
        assert_eq!(s.get(1).as_deref(), Some(&b"first"[..]));
        assert_eq!(s.cas(1, tok, b"second"), CasOutcome::Stored);
        assert_eq!(s.get(1).as_deref(), Some(&b"second"[..]));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
        assert_ne!(fingerprint(b""), fingerprint(b"\0"));
        // Length is part of the fingerprint, not just padded content.
        assert_ne!(fingerprint(b"a"), fingerprint(b"a\0"));
    }

    #[test]
    fn scan_on_ordered_backend_decodes() {
        let mut s = store();
        for k in [5u64, 1, 9, 3] {
            s.set(k, format!("v{k}").as_bytes());
        }
        let got = s.scan(2, 8).expect("btree is ordered");
        assert_eq!(
            got,
            vec![(3, b"v3".to_vec()), (5, b"v5".to_vec())],
            "decoded, ordered, bounded"
        );
    }

    #[test]
    fn hash_backend_reports_unordered() {
        let mut s = KvStore::open(Scheme::Slpmt, IndexKind::Hashtable, 16);
        s.set(1, b"x");
        assert!(s.scan(0, 10).is_none());
    }

    #[test]
    fn crash_recovery_round_trip() {
        let mut s = store();
        for k in 0..20u64 {
            s.set(k, &k.to_le_bytes());
        }
        for k in 0..10u64 {
            s.delete(k);
        }
        s.crash();
        s.recover();
        assert_eq!(s.len(), 10);
        for k in 10..20u64 {
            assert_eq!(s.peek_value(k).as_deref(), Some(&k.to_le_bytes()[..]));
        }
        s.check_invariants().unwrap();
        // The recovered store keeps serving.
        s.set(100, b"post-recovery");
        assert_eq!(s.get(100).as_deref(), Some(&b"post-recovery"[..]));
    }

    #[test]
    fn decode_clamps_corrupt_length() {
        // A fault-corrupted length prefix must not panic the decoder.
        let mut cell = vec![0u8; 24];
        cell[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(KvStore::decode(&cell).len(), 16);
        assert_eq!(KvStore::decode(&[1, 2, 3]), Vec::<u8>::new());
    }

    #[test]
    fn decode_cell_is_typed_and_unwrap_free() {
        // Round trip.
        let mut cell = vec![0u8; 24];
        cell[..8].copy_from_slice(&3u64.to_le_bytes());
        cell[8..11].copy_from_slice(b"abc");
        assert_eq!(KvStore::decode_cell(&cell), Ok(b"abc".to_vec()));
        // Salvage-scrubbed (all-zero) cell: a valid empty payload.
        assert_eq!(KvStore::decode_cell(&[0u8; 24]), Ok(Vec::new()));
        // Short cell (truncated below the prefix).
        assert_eq!(
            KvStore::decode_cell(&[1, 2, 3]),
            Err(CellError::Short { len: 3 })
        );
        assert_eq!(KvStore::decode_cell(&[]), Err(CellError::Short { len: 0 }));
        // Corrupt length prefix.
        let mut bad = vec![0u8; 24];
        bad[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            KvStore::decode_cell(&bad),
            Err(CellError::BadLength {
                claimed: u64::MAX,
                capacity: 16
            })
        );
        // Exactly-at-capacity prefix is fine.
        let mut full = vec![7u8; 16];
        full[..8].copy_from_slice(&8u64.to_le_bytes());
        assert_eq!(KvStore::decode_cell(&full), Ok(vec![7u8; 8]));
    }

    #[test]
    fn degraded_recovery_without_faults_is_ready_immediately() {
        let mut s = store();
        for k in 0..10u64 {
            s.set(k, &k.to_le_bytes());
        }
        s.crash();
        s.recover_degraded();
        assert_eq!(s.health(), HealthState::Ready);
        assert!(s.ready());
        assert_eq!(s.scrub_pending(), 0);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn scrub_step_drains_queue_and_restores_ready() {
        let mut s = store();
        s.set(1, b"x");
        s.crash();
        s.recover_degraded();
        // Simulate a degraded window by hand: queue two fake lines.
        s.scrub_queue = vec![0x1000, 0x2000];
        s.health = HealthState::Recovering;
        assert!(!s.ready());
        let before = s.now();
        assert_eq!(s.scrub_step(1), 1);
        assert!(!s.ready(), "one line still pending");
        assert_eq!(s.scrub_pending(), 1);
        assert_eq!(s.scrub_step(8), 1, "drains only what is queued");
        assert!(s.ready());
        assert_eq!(s.scrubbed(), 2);
        assert_eq!(
            s.now() - before,
            2 * SCRUB_CYCLES_PER_LINE,
            "scrub cost is deterministic"
        );
        assert_eq!(s.scrub_step(4), 0, "idempotent once drained");
    }

    /// Regression: a transaction whose commit is dropped by an armed
    /// crash must NOT apply its deferred frees. The rolled-back index
    /// still references the old value blob; if the heap model freed it,
    /// a post-recovery allocation hands the same address to another key
    /// and the two keys alias one blob.
    #[test]
    fn rolled_back_update_does_not_leak_its_old_blob_to_the_allocator() {
        let mut s = KvStore::open(Scheme::Slpmt, IndexKind::KvBtree, 16);
        s.prefault(64);
        let keys: Vec<u64> = (0..30u64).map(|i| 0x1000 + i * 7).collect();
        for (i, &k) in keys.iter().enumerate() {
            s.set(k, &[i as u8; 16]);
        }
        // Trip mid-way through the update of keys[5]: the new blob and
        // the commit record are dropped, so recovery rolls it back.
        for delta in 1..4u64 {
            let n = s.machine().persist_event_count();
            s.machine_mut().arm_crash_at_event(n + delta);
            s.set(keys[5], &[0xEE; 16]);
            assert!(s.machine().crash_tripped());
            s.crash();
            s.recover();
            assert_eq!(s.get(keys[5]).as_deref(), Some(&[5u8; 16][..]));
            // Keep serving: re-issue the lost update, then write a
            // different key. Before the fix the second write aliased
            // keys[5]'s blob and clobbered it.
            s.set(keys[5], &[0xEE; 16]);
            s.set(keys[20], &[0xAB; 16]);
            assert_eq!(s.get(keys[5]).as_deref(), Some(&[0xEE; 16][..]));
            assert_eq!(s.get(keys[20]).as_deref(), Some(&[0xAB; 16][..]));
            // Restore the baseline for the next delta.
            s.set(keys[5], &[5u8; 16]);
            s.set(keys[20], &[20u8; 16]);
        }
    }

    #[test]
    fn cell_size_floor() {
        let s = KvStore::open(Scheme::Slpmt, IndexKind::KvBtree, 0);
        assert_eq!(s.cell_size(), 16);
        let s = KvStore::open(Scheme::Slpmt, IndexKind::KvBtree, 9);
        assert_eq!(s.cell_size(), 24);
    }
}
