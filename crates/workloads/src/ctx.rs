//! Execution context: machine + persistent heap + annotation table.
//!
//! [`PmContext`] is what the workloads program against. It wraps the
//! simulated [`Machine`], a [`PmHeap`] carved out of the device's
//! address space, and the active [`AnnotationTable`]. Stores are issued
//! through *site*-tagged helpers: the site is looked up in the table
//! and lowered to the corresponding `store`/`storeT` flavour, exactly
//! as compiled code would execute the rewritten instruction stream.
//!
//! Frees inside a transaction are *deferred to commit* (as PMDK's
//! `pmemobj_tx_free` does): the memory of a region freed by an
//! uncommitted transaction may be needed for recovery, so it must not
//! be reused before the transaction is durable.

use slpmt_annotate::{Annotation, AnnotationTable, SiteId, TxnIr};
use slpmt_core::{Machine, MachineConfig, SchemeKind, StoreKind};
use slpmt_pmem::{PmAddr, PmHeap};
use slpmt_ptm::SoftState;

/// Where a run's `storeT` annotations come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnnotationSource {
    /// Hand-written annotations (the kernel-benchmark default, §VI-A).
    #[default]
    Manual,
    /// Annotations produced by the `slpmt-annotate` compiler pass over
    /// the structure's IR description.
    Compiler,
    /// No annotations: every store is a plain `store`.
    None,
}

impl AnnotationSource {
    /// Resolves this source into a concrete table for a structure with
    /// the given manual table and IR description.
    pub fn resolve(self, manual: &AnnotationTable, ir: &TxnIr) -> AnnotationTable {
        match self {
            AnnotationSource::Manual => manual.clone(),
            AnnotationSource::Compiler => slpmt_annotate::analyze(ir).0,
            AnnotationSource::None => AnnotationTable::new(),
        }
    }
}

fn lower(a: Annotation) -> StoreKind {
    match a {
        Annotation::Plain => StoreKind::Store,
        Annotation::LogFree => StoreKind::log_free(),
        Annotation::Lazy => StoreKind::lazy_logged(),
        Annotation::LazyLogFree => StoreKind::lazy_log_free(),
    }
}

/// The workload execution context.
#[derive(Debug, Clone)]
pub struct PmContext {
    machine: Machine,
    heap: PmHeap,
    table: AnnotationTable,
    pending_frees: Vec<PmAddr>,
    /// Software persistent-transaction runtime, present when the
    /// configuration simulates a [`SchemeKind::Software`] flavour.
    /// All transactional traffic then routes through its explicit
    /// store/flush/fence protocol instead of the hardware engine.
    soft: Option<SoftState>,
    /// Logical payload bytes the workload asked to store (the WAF
    /// denominator), independent of how the scheme persisted them.
    logical_bytes: u64,
}

/// Heap base: the low region is reserved for structure roots created
/// at setup time.
const HEAP_BASE: u64 = 0x1000;

impl PmContext {
    /// Builds a context simulating a hardware scheme or software PTM
    /// flavour with the given annotation table already resolved.
    pub fn new(kind: impl Into<SchemeKind>, table: AnnotationTable) -> Self {
        Self::with_config(MachineConfig::for_kind(kind), table)
    }

    /// Builds a context from an explicit machine configuration.
    pub fn with_config(cfg: MachineConfig, table: AnnotationTable) -> Self {
        let capacity = cfg.pm.pm_capacity;
        let software = cfg.software;
        let mut machine = Machine::new(cfg);
        let soft = software.map(|f| SoftState::new(f, &mut machine));
        // Software flavours reserve the top of the device for their
        // log arena; the heap must never allocate into it.
        let heap_top = match soft {
            Some(_) => capacity - slpmt_ptm::ARENA_BYTES,
            None => capacity,
        };
        PmContext {
            machine,
            heap: PmHeap::new(PmAddr::new(HEAP_BASE), heap_top - HEAP_BASE),
            table,
            pending_frees: Vec::new(),
            soft,
            logical_bytes: 0,
        }
    }

    /// Sizes the heap arena up front: pre-faults the durable image's
    /// backing pages for the first `bytes` bytes of the heap (clamped
    /// to capacity), so a run's host-side page allocations happen here
    /// instead of lazily inside the measured loop — and, for parallel
    /// sharded runs, outside the phase where every shard allocates
    /// concurrently. Simulation-invisible: no cycles, no state change.
    pub fn prefault_heap(&mut self, bytes: u64) {
        self.machine.prefault_image(PmAddr::new(HEAP_BASE), bytes);
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine (timing sweeps, crash injection).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The software PTM runtime, when one is active.
    pub fn soft(&self) -> Option<&SoftState> {
        self.soft.as_ref()
    }

    /// Logical payload bytes stored so far (the write-amplification
    /// denominator): 8 per word store, `len` per byte-buffer store.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Sequence number of the last transaction begun — hardware txn
    /// register or the software runtime's counter.
    pub fn txn_seq(&self) -> u64 {
        match &self.soft {
            Some(s) => s.txn_seq(),
            None => self.machine.txn_seq(),
        }
    }

    /// Highest durably committed transaction sequence number readable
    /// from the persistent image alone (the crash-sweep oracle marker):
    /// hardware commit markers in the log region, or the software
    /// arena's header/marker/commit-record resolution.
    pub fn durable_commit_seq(&self) -> u64 {
        match &self.soft {
            Some(s) => s.durable_commit_seq(&self.machine),
            None => self.machine.device().log().max_committed_seq(),
        }
    }

    /// The persistent heap.
    pub fn heap(&self) -> &PmHeap {
        &self.heap
    }

    /// Replaces the active annotation table.
    pub fn set_table(&mut self, table: AnnotationTable) {
        self.table = table;
    }

    /// The `storeT` flavour site `site` executes under the active
    /// table.
    pub fn kind_of(&self, site: SiteId) -> StoreKind {
        lower(self.table.get(site))
    }

    // ------------------------------------------------------------------
    // Transactions

    /// Opens a durable transaction.
    pub fn tx_begin(&mut self) {
        match self.soft.as_mut() {
            Some(s) => s.tx_begin(&mut self.machine),
            None => self.machine.tx_begin(),
        }
    }

    /// Commits the open transaction and applies deferred frees.
    ///
    /// Deferred frees apply only when the commit actually reached the
    /// persistence domain: after an armed crash trips, the commit
    /// record (like every later durable mutation) was dropped, the
    /// transaction will be rolled back by recovery, and the rolled-back
    /// structure may still reference the cells it freed — applying the
    /// frees would let a post-recovery allocation alias a live cell.
    /// Such frees are dropped with the rest of the volatile state.
    pub fn tx_commit(&mut self) {
        match self.soft.as_mut() {
            Some(s) => s.tx_commit(&mut self.machine),
            None => self.machine.tx_commit(),
        }
        if self.machine.crash_tripped() {
            self.pending_frees.clear();
        } else {
            for addr in self.pending_frees.drain(..) {
                self.heap.free(addr);
            }
        }
    }

    /// Aborts the open transaction, dropping deferred frees.
    pub fn tx_abort(&mut self) {
        match self.soft.as_mut() {
            Some(s) => s.tx_abort(&mut self.machine),
            None => self.machine.tx_abort(),
        }
        self.pending_frees.clear();
    }

    // ------------------------------------------------------------------
    // Memory

    /// Allocates `bytes` of persistent memory (timed as allocator
    /// work).
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn alloc(&mut self, bytes: u64) -> PmAddr {
        self.machine.compute(40); // allocator bookkeeping
        self.heap
            .alloc(bytes)
            .unwrap_or_else(|| panic!("persistent heap exhausted allocating {bytes} B"))
    }

    /// Frees `addr`. Inside a transaction the free is deferred to
    /// commit; outside it applies immediately.
    pub fn free(&mut self, addr: PmAddr) {
        self.machine.compute(20);
        if self.in_txn() {
            self.pending_frees.push(addr);
        } else {
            self.heap.free(addr);
        }
    }

    /// `true` while a transaction (hardware or software) is open.
    pub fn in_txn(&self) -> bool {
        match &self.soft {
            Some(s) => s.in_txn(),
            None => self.machine.in_txn(),
        }
    }

    // ------------------------------------------------------------------
    // Timed accesses

    /// Loads the word at `addr`.
    pub fn load(&mut self, addr: PmAddr) -> u64 {
        match self.soft.as_mut() {
            Some(s) => s.load(&mut self.machine, addr),
            None => self.machine.load_u64(addr),
        }
    }

    /// Stores `value` at `addr` through site `site`'s annotation.
    /// Software flavours log every store regardless of annotation —
    /// they have no `storeT` ISA to act on the hints.
    pub fn store(&mut self, addr: PmAddr, value: u64, site: SiteId) {
        self.logical_bytes += 8;
        let kind = self.kind_of(site);
        match self.soft.as_mut() {
            Some(s) => s.store(&mut self.machine, addr, value),
            None => self.machine.store_u64(addr, value, kind),
        }
    }

    /// Stores a byte buffer word-by-word through site `site`.
    pub fn store_bytes(&mut self, addr: PmAddr, data: &[u8], site: SiteId) {
        self.logical_bytes += data.len() as u64;
        let kind = self.kind_of(site);
        match self.soft.as_mut() {
            Some(s) => s.store_bytes(&mut self.machine, addr, data),
            None => self.machine.store_bytes(addr, data, kind),
        }
    }

    /// Loads `buf.len()` bytes word-by-word (timed).
    pub fn load_bytes(&mut self, addr: PmAddr, buf: &mut [u8]) {
        match self.soft.as_mut() {
            Some(s) => s.load_bytes(&mut self.machine, addr, buf),
            None => self.machine.load_bytes(addr, buf),
        }
    }

    /// Charges pure compute cycles (hashing, comparisons, …).
    pub fn compute(&mut self, cycles: u64) {
        self.machine.compute(cycles);
    }

    /// Forces every outstanding lazily-persistent transaction durable
    /// (the §III-C4 empty-transaction idiom). Structures use it to
    /// close a re-execution recovery window before an operation that
    /// would invalidate it.
    pub fn drain_lazy(&mut self) {
        self.machine.drain_lazy();
    }

    // ------------------------------------------------------------------
    // Untimed access (invariant checkers, recovery)

    /// Reads the current logical word at `addr` without timing. Under
    /// a redo-family software flavour the open transaction's overlay
    /// is part of the logical state.
    pub fn peek(&self, addr: PmAddr) -> u64 {
        match &self.soft {
            Some(s) => s.peek(&self.machine, addr),
            None => self.machine.peek_u64(addr),
        }
    }

    /// Reads logical bytes without timing.
    pub fn peek_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        match &self.soft {
            Some(s) => s.peek_bytes(&self.machine, addr, buf),
            None => self.machine.peek_bytes(addr, buf),
        }
    }

    /// Reads the `N` logical words at `addr` without timing, in one
    /// [`peek_bytes`](Self::peek_bytes): the untimed walks read a whole
    /// node at once rather than one [`peek`](Self::peek) per field.
    pub fn peek_words<const N: usize>(&self, addr: PmAddr) -> [u64; N] {
        let mut bytes = [[0u8; 8]; N];
        self.peek_bytes(addr, bytes.as_flattened_mut());
        bytes.map(u64::from_le_bytes)
    }

    /// Recovery-time write: directly repairs the persistent image.
    /// Only meaningful after a crash (caches empty).
    pub fn recovery_write(&mut self, addr: PmAddr, value: u64) {
        self.machine.setup_write(addr, &value.to_le_bytes());
    }

    /// Out-of-band setup allocation + initialisation: allocates and
    /// zero-fills without timing (used when building a structure's
    /// root before measurement starts).
    pub fn setup_alloc(&mut self, bytes: u64) -> PmAddr {
        let addr = self
            .heap
            .alloc(bytes)
            .unwrap_or_else(|| panic!("persistent heap exhausted allocating {bytes} B"));
        self.machine.setup_write(addr, &vec![0u8; bytes as usize]);
        addr
    }

    // ------------------------------------------------------------------
    // Crash & recovery plumbing

    /// Simulates a power failure and replays the undo log. The caller
    /// must then run the structure's own recovery and
    /// [`gc`](Self::gc) the heap.
    pub fn crash_and_recover(&mut self) -> slpmt_core::RecoveryReport {
        self.crash();
        self.recover()
    }

    /// Simulates the power failure alone: volatile state (including
    /// deferred frees) is lost, the durable image and log survive.
    /// Lets a caller inspect the surviving durable state (e.g. which
    /// commit markers made it) before log replay runs.
    pub fn crash(&mut self) {
        self.machine.crash();
        if let Some(s) = self.soft.as_mut() {
            s.on_crash();
        }
        self.pending_frees.clear();
    }

    /// Replays the log after [`crash`](Self::crash). The caller must
    /// then run the structure's own recovery and [`gc`](Self::gc) the
    /// heap.
    pub fn recover(&mut self) -> slpmt_core::RecoveryReport {
        match self.soft.as_mut() {
            Some(s) => s.recover(&mut self.machine),
            None => self.machine.recover(),
        }
    }

    /// Garbage-collects the heap: only allocations in `reachable`
    /// survive. Returns the number of leaked allocations reclaimed.
    pub fn gc(&mut self, reachable: &[PmAddr]) -> usize {
        self.heap.rebuild(reachable)
    }

    // ------------------------------------------------------------------
    // Event tracing

    /// Turns on event tracing on the underlying machine (per-core ring
    /// capacity `capacity_per_core`); see `slpmt_core::Machine`.
    pub fn enable_tracing(&mut self, capacity_per_core: usize) -> slpmt_core::TraceHandle {
        self.machine.enable_tracing(capacity_per_core)
    }

    /// Drains every captured trace record in deterministic order.
    pub fn take_trace(&mut self) -> Vec<slpmt_core::TraceRecord> {
        self.machine.take_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpmt_annotate::TxnIrBuilder;
    use slpmt_core::Scheme;

    fn ctx() -> PmContext {
        PmContext::new(Scheme::Slpmt, AnnotationTable::new())
    }

    #[test]
    fn annotation_lowering() {
        assert_eq!(lower(Annotation::Plain), StoreKind::Store);
        assert_eq!(lower(Annotation::LogFree), StoreKind::log_free());
        assert_eq!(lower(Annotation::Lazy), StoreKind::lazy_logged());
        assert_eq!(lower(Annotation::LazyLogFree), StoreKind::lazy_log_free());
    }

    #[test]
    fn store_respects_table() {
        let mut table = AnnotationTable::new();
        table.set(SiteId(0), Annotation::LogFree);
        let mut c = PmContext::new(Scheme::Slpmt, table);
        let a = c.alloc(64);
        c.tx_begin();
        c.store(a, 1, SiteId(0)); // log-free: no record
        c.store(a.add(8), 2, SiteId(1)); // plain: record
        c.tx_commit();
        assert_eq!(c.machine().stats().log_records_created, 1);
    }

    #[test]
    fn deferred_free_applies_at_commit() {
        let mut c = ctx();
        let a = c.alloc(64);
        c.tx_begin();
        c.free(a);
        assert!(c.heap().is_live(a), "free deferred");
        c.tx_commit();
        assert!(!c.heap().is_live(a));
    }

    #[test]
    fn abort_drops_deferred_frees() {
        let mut c = ctx();
        let a = c.alloc(64);
        c.tx_begin();
        c.free(a);
        c.tx_abort();
        assert!(c.heap().is_live(a), "freed region survives abort");
    }

    #[test]
    fn source_resolution() {
        let mut manual = AnnotationTable::new();
        manual.set(SiteId(0), Annotation::Lazy);
        let mut b = TxnIrBuilder::new("t");
        let n = b.alloc();
        b.store(n, 0, slpmt_annotate::Operand::Const(1));
        let ir = b.build();
        assert_eq!(
            AnnotationSource::Manual
                .resolve(&manual, &ir)
                .get(SiteId(0)),
            Annotation::Lazy
        );
        assert_eq!(
            AnnotationSource::Compiler
                .resolve(&manual, &ir)
                .get(SiteId(0)),
            Annotation::LogFree
        );
        assert_eq!(
            AnnotationSource::None.resolve(&manual, &ir).get(SiteId(0)),
            Annotation::Plain
        );
    }

    #[test]
    fn gc_reclaims_unreachable() {
        let mut c = ctx();
        let keep = c.alloc(32);
        let _leak = c.alloc(32);
        assert_eq!(c.gc(&[keep]), 1);
        assert!(c.heap().is_live(keep));
    }

    #[test]
    fn setup_alloc_zeroes() {
        let mut c = ctx();
        let a = c.setup_alloc(128);
        assert_eq!(c.peek(a), 0);
        assert_eq!(c.peek(a.add(120)), 0);
    }
}
