//! The simulated core executing SLPMT transactions.
//!
//! [`Machine`] wires together the cache hierarchy (`slpmt-cache`), the
//! log path (`slpmt-logbuf`), the persistent-memory device
//! (`slpmt-pmem`) and the lazy-persistency machinery (signatures and
//! the transaction-ID register) into a single-core cost simulator.
//!
//! ### Execution model
//!
//! The hierarchy is *exclusive*: a line lives in exactly one of L1, L2
//! or L3 (or only in the persistent image). Loads and stores pull the
//! line into L1, cascading evictions downward. Eviction applies the
//! Figure 5 metadata transforms; an L2→L3 eviction first flushes the
//! line's buffered log records and persists the line's data if dirty —
//! the natural-overflow path by which lazily-persistent data
//! eventually becomes durable.
//!
//! ### Timing
//!
//! `now` advances by cache hit latencies, PM read latency on LLC
//! misses, a per-instruction issue cost, and persist time. Background
//! persists (log-buffer drains, overflow write-backs) charge only the
//! *backpressure* component — the cycles the write pending queue made
//! the requester wait — while commit-path persists are synchronous, as
//! the paper's ordering rules require (Figure 4).

use crate::instr::StoreKind;
use crate::scheme::{
    BufferKind, Discipline, Granularity, PtmFlavor, Scheme, SchemeFeatures, SchemeKind,
};
use crate::signature::Signature;
use crate::stats::MachineStats;
use crate::txreg::TxnIdRegister;
use slpmt_cache::{
    l1_logbits_to_l2, l2_logbits_to_l1, speculative_fill_words, CacheConfig, Entry, LineMeta,
    SetAssocCache, Slot, TxnId,
};
use slpmt_logbuf::{
    packed_lines, AtomLineBuffer, EdeCombiner, FlushEvent, LogRecord, TieredLogBuffer,
};
use slpmt_pmem::addr::{PmAddr, LINE_BYTES, WORD_BYTES};
use slpmt_pmem::{LogFlushEntry, PayloadBuf, PmConfig, PmDevice};
use slpmt_trace::{CommitStage, Event as TraceEvent, TraceHandle, TraceRecord, Tracer};
use std::collections::BTreeMap;

/// Configuration of a simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The hardware design being simulated.
    pub scheme: Scheme,
    /// Feature bundle (derived from `scheme`, overridable for
    /// ablations).
    pub features: SchemeFeatures,
    /// Cache hierarchy geometry and latencies.
    pub caches: CacheConfig,
    /// Persistent-memory timing.
    pub pm: PmConfig,
    /// Fixed issue cost per store instruction, cycles.
    pub store_issue_cycles: u64,
    /// Fixed issue cost per load instruction, cycles.
    pub load_issue_cycles: u64,
    /// Fixed cost of `tx_begin` bookkeeping, cycles.
    pub tx_begin_cycles: u64,
    /// §V-E battery-backed caches: the on-chip caches belong to the
    /// persistence domain. Commit then persists no data lines (the
    /// marker suffices) and logging happens only when an uncommitted
    /// line overflows to PM — its pre-image is still the line's image
    /// content. On power failure the battery flushes every dirty line
    /// *except* those of the in-flight transaction, which simply
    /// vanish (automatic roll-back of cache-resident updates).
    pub battery_backed: bool,
    /// When set, the machine models the substrate for a *software* PTM
    /// baseline: the workload layer runs the flavor's explicit
    /// store/flush/fence protocol and never opens hardware
    /// transactions, so none of the hardware logging features fire.
    pub software: Option<PtmFlavor>,
}

impl MachineConfig {
    /// Default configuration (Table III) for the given scheme.
    pub fn for_scheme(scheme: Scheme) -> Self {
        MachineConfig {
            scheme,
            features: scheme.features(),
            caches: CacheConfig::default(),
            pm: PmConfig::default(),
            store_issue_cycles: 1,
            load_issue_cycles: 1,
            tx_begin_cycles: 20,
            battery_backed: false,
            software: None,
        }
    }

    /// Default configuration for any scheme column — hardware schemes
    /// map to [`for_scheme`](Self::for_scheme); software flavors run
    /// over the baseline cache/WPQ substrate (scheme features unused:
    /// the flavor's protocol never opens hardware transactions).
    pub fn for_kind(kind: impl Into<SchemeKind>) -> Self {
        match kind.into() {
            SchemeKind::Hardware(s) => Self::for_scheme(s),
            SchemeKind::Software(f) => MachineConfig {
                software: Some(f),
                ..Self::for_scheme(Scheme::Fg)
            },
        }
    }

    /// The scheme column this configuration simulates.
    pub fn kind(&self) -> SchemeKind {
        match self.software {
            Some(f) => SchemeKind::Software(f),
            None => SchemeKind::Hardware(self.scheme),
        }
    }

    /// Enables §V-E battery-backed-cache semantics.
    #[must_use]
    pub fn with_battery_backed_cache(mut self) -> Self {
        self.battery_backed = true;
        self
    }

    /// Shrinks the caches so tests can exercise eviction and overflow
    /// paths cheaply.
    #[must_use]
    pub fn with_tiny_caches(mut self) -> Self {
        self.caches = CacheConfig::tiny();
        self
    }

    /// Replaces the PM timing configuration.
    #[must_use]
    pub fn with_pm(mut self, pm: PmConfig) -> Self {
        self.pm = pm;
        self
    }
}

/// The log path actually instantiated for a scheme.
#[derive(Debug, Clone)]
enum LogPath {
    Tiered(TieredLogBuffer),
    Atom(AtomLineBuffer),
    Ede(EdeCombiner),
}

impl LogPath {
    fn new(kind: BufferKind) -> Self {
        match kind {
            BufferKind::Tiered => LogPath::Tiered(TieredLogBuffer::new()),
            BufferKind::AtomLines => LogPath::Atom(AtomLineBuffer::new()),
            BufferKind::EdeDirect => LogPath::Ede(EdeCombiner::new()),
        }
    }

    /// Drains every buffered record into one flush (commit, switch).
    fn drain(&mut self) -> Option<FlushEvent> {
        match self {
            LogPath::Tiered(buf) => buf.drain_all(),
            LogPath::Atom(buf) => buf.drain_all(),
            LogPath::Ede(e) => e.drain(),
        }
    }

    /// Drops every buffered record without persisting it.
    fn clear(&mut self) {
        match self {
            LogPath::Tiered(buf) => buf.clear(),
            LogPath::Atom(buf) => buf.clear(),
            LogPath::Ede(e) => e.clear(),
        }
    }

    /// Flushes the records covering `line` before its data leaves the
    /// private domain (§III-A).
    fn flush_line(&mut self, line: PmAddr) -> Option<FlushEvent> {
        match self {
            LogPath::Tiered(buf) => buf.flush_line(line),
            LogPath::Atom(buf) => buf.flush_line(line),
            LogPath::Ede(e) => e.flush_line(line),
        }
    }

    fn set_tracer(&mut self, tracer: Option<&TraceHandle>) {
        if let LogPath::Tiered(buf) = self {
            buf.set_tracer(tracer.cloned());
        }
    }
}

/// State of the transaction currently executing.
#[derive(Debug, Clone)]
struct CurTxn {
    /// Global sequence number (log-region key).
    seq: u64,
    /// Core-local 2-bit ID.
    id: TxnId,
    /// Lines read (for the working-set signature).
    read_set: LineList,
    /// Lines written.
    write_set: LineList,
}

impl CurTxn {
    /// Sorts both line sets, so the conflict check can search them
    /// while the transaction waits parked or suspended.
    fn seal(&mut self) {
        self.read_set.seal();
        self.write_set.seal();
    }
}

/// A transaction's read or write set: line addresses appended in
/// access order, skipping a repeat of the last line, then sorted and
/// deduplicated once by [`seal`](Self::seal) — at commit, or when the
/// transaction is parked or suspended — before anything searches or
/// walks it. The buffer is reused across transactions.
#[derive(Debug, Clone, Default)]
struct LineList {
    lines: Vec<u64>,
    /// Set when an append broke ascending order since the last seal.
    unsorted: bool,
}

impl LineList {
    #[inline]
    fn push(&mut self, line: u64) {
        match self.lines.last() {
            Some(&last) if last == line => {}
            last => {
                self.unsorted |= last.is_some_and(|&l| l > line);
                self.lines.push(line);
            }
        }
    }

    fn seal(&mut self) {
        if self.unsorted {
            self.lines.sort_unstable();
            self.lines.dedup();
            self.unsorted = false;
        }
    }

    /// The lines in ascending order; the list must be sealed.
    fn sorted(&self) -> &[u64] {
        debug_assert!(!self.unsorted, "line list read before it was sealed");
        &self.lines
    }

    fn contains(&self, line: u64) -> bool {
        self.sorted().binary_search(&line).is_ok()
    }

    fn clear(&mut self) {
        self.lines.clear();
        self.unsorted = false;
    }
}

/// Precomputed per-store-flavour action for one scheme configuration:
/// everything `store_word_bytes` needs that depends only on
/// `(SchemeFeatures, StoreKind)`, resolved once at machine
/// construction so the per-store hot path is a table lookup plus
/// straight-line metadata writes instead of re-deriving the Table I
/// degrade rules on every store. Indexed by [`StoreKind::index`].
#[derive(Debug, Clone, Copy, Default)]
struct StoreAction {
    /// Table I persist-bit column after the degrade rules.
    set_persist: bool,
    /// Table I log-bit column after the degrade rules.
    set_log: bool,
    /// Whether this flavour counts toward `stats.store_ts` (a `storeT`
    /// under a scheme with at least one selective feature).
    count_store_t: bool,
    /// Trace-only: the operands survived the degrade rules.
    honoured: bool,
    /// In-transaction stores of this flavour track per-word deferral
    /// (`!set_persist && !set_log`): a lazy log-free word has neither a
    /// record nor permission to persist before its commit marker.
    defer_word: bool,
}

/// An outstanding committed transaction with deferred lazy data.
#[derive(Debug, Clone)]
struct LazyTxn {
    seq: u64,
    id: TxnId,
    sig: Signature,
    /// The lines the transaction deferred, recorded at commit so a
    /// forced persist walks them directly instead of sweeping every
    /// cache entry. A recorded line may have persisted (overflow,
    /// takeover) since commit; the force re-checks each line's
    /// metadata, so the list is a superset, never ground truth.
    lines: Vec<PmAddr>,
}

/// One core's private state: its L1, its log buffer, its open
/// transaction and its redo spill area. The active core's context is
/// [`Machine::core`]; the others wait in [`Machine::parked`], indexed
/// by core ID. Both sides are boxed, so switching cores moves two
/// pointers — no cache or shadow-map copies on the activation path.
/// Everything else — L2, L3, the device (WPQ + image + log), the
/// transaction-ID register and the dependency signatures — is shared
/// by all cores, exactly the split the paper's §III-D per-core budget
/// implies.
#[derive(Debug, Clone)]
pub(crate) struct CoreCtx {
    l1: SetAssocCache,
    log_path: LogPath,
    cur: Option<CurTxn>,
    /// Redo discipline only: volatile holding area for logged lines
    /// evicted from the private cache before commit — in-place updates
    /// must not reach the persistence domain until the commit marker
    /// is durable (Figure 4, right). Each entry keeps the line's
    /// `log_bits` and `defer_bits` alongside its data: a spilled line
    /// may mix logged words with log-free and deferred ones, and
    /// commit must still tell them apart.
    redo_shadow: BTreeMap<u64, ([u8; LINE_BYTES], u8, u8)>,
}

impl CoreCtx {
    /// A fresh core context; its log buffer joins `tracer` if given.
    fn new(cfg: &MachineConfig, tracer: Option<&TraceHandle>) -> Box<Self> {
        let mut log_path = LogPath::new(cfg.features.buffer);
        log_path.set_tracer(tracer);
        Box::new(CoreCtx {
            l1: SetAssocCache::new(cfg.caches.l1),
            log_path,
            cur: None,
            redo_shadow: BTreeMap::new(),
        })
    }

    /// Power failure: all of the core's private state is volatile.
    fn clear(&mut self) {
        self.l1.clear();
        self.log_path.clear();
        self.cur = None;
        self.redo_shadow.clear();
    }
}

/// Whose open transaction [`Machine::abort_txn`] rolls back.
#[derive(Debug, Clone, Copy)]
enum Victim {
    /// The active core's own transaction.
    Own,
    /// A thread switched out on the active core (§V-C), by its index
    /// in [`Machine::suspended`]. It shares the active core's L1, but
    /// its records were drained at suspension: the log buffer now
    /// belongs to the running transaction.
    Suspended(usize),
    /// The open transaction of the parked core with this ID.
    Parked(usize),
}

/// The simulated SLPMT core. See the [crate docs](crate) for an
/// example.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    now: u64,
    /// The active core's private state — its L1, log buffer, open
    /// transaction and redo spill area — boxed so a core switch moves
    /// one pointer into [`Self::parked`] instead of copying the structs.
    core: Box<CoreCtx>,
    l2: SetAssocCache,
    l3: SetAssocCache,
    dev: PmDevice,
    /// Outstanding lazy transactions, oldest first (parallel to the
    /// transaction-ID register's outstanding queue).
    lazy_txns: Vec<LazyTxn>,
    txreg: TxnIdRegister,
    /// Transactions of switched-out threads (§V-C): their cache-line
    /// metadata stays tagged with their 2-bit IDs while another
    /// thread's transaction runs.
    suspended: Vec<CurTxn>,
    txn_seq: u64,
    stats: MachineStats,
    /// The private contexts of the cores that are not executing,
    /// indexed by core ID; the active core's entry is `None`. Empty on
    /// a one-core machine, where every walk over it is a no-op. While
    /// other cores exist L2 is shared, so the private-domain boundary
    /// (see [`Self::leave_private_domain`]) moves up to L1→L2. Boxed on
    /// purpose: [`Self::switch_core`] moves the active `Box<CoreCtx>`
    /// into its slot by pointer, never moving the multi-KB context.
    #[allow(clippy::vec_box)]
    parked: Vec<Option<Box<CoreCtx>>>,
    /// ID of the core whose context is [`Self::core`].
    active: usize,
    /// Parked-core transactions aborted by conflicting accesses, as
    /// `(core, seq)`, until [`Self::take_conflict_aborts`] drains them.
    conflict_aborts: Vec<(usize, u64)>,
    /// Test hook: inject a crash after a commit stage.
    commit_crash_point: Option<CommitStage>,
    /// Reusable commit-path scratch: the per-commit line partition
    /// reuses these across transactions, so a steady-state commit
    /// allocates nothing. (Taken with `mem::take` for the duration of
    /// a commit; a crash-point early return drops one, which is fine —
    /// crashes rebuild the whole machine anyway.)
    scratch_lazy: Vec<PmAddr>,
    scratch_logged: Vec<PmAddr>,
    scratch_free: Vec<PmAddr>,
    /// Emptied read/write-set buffers of the last committed or
    /// aborted transaction, taken by the next `tx_begin`.
    spare_sets: (LineList, LineList),
    /// Event tracing (`slpmt-trace`): `None` — the default — keeps
    /// every hook down to a single branch; `enable_tracing` installs a
    /// shared handle here, in the device and in every log buffer.
    tracer: Option<TraceHandle>,
    /// Per-flavour store actions precomputed from the scheme features
    /// (see [`StoreAction`]), indexed by [`StoreKind::index`].
    store_actions: [StoreAction; 5],
}

impl Machine {
    /// Builds a machine for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if battery-backed caches are combined with the redo
    /// discipline: with the caches inside the persistence domain there
    /// is no deferred write-back for redo to govern.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(
            !(cfg.battery_backed && cfg.features.discipline == Discipline::Redo),
            "battery-backed caches and the redo discipline are mutually exclusive"
        );
        let f = &cfg.features;
        let mut store_actions = [StoreAction::default(); 5];
        for kind in StoreKind::ALL {
            let eff = kind.effects(f.log_free, f.lazy);
            store_actions[kind.index()] = StoreAction {
                set_persist: eff.set_persist,
                set_log: eff.set_log,
                count_store_t: matches!(kind, StoreKind::StoreT { .. }) && (f.log_free || f.lazy),
                honoured: match kind {
                    StoreKind::Store => true,
                    StoreKind::StoreT { lazy, log_free } => {
                        eff.set_persist != lazy && eff.set_log != log_free
                    }
                },
                defer_word: !eff.set_persist && !eff.set_log,
            };
        }
        Machine {
            l2: SetAssocCache::new(cfg.caches.l2),
            l3: SetAssocCache::new(cfg.caches.l3),
            dev: PmDevice::new(cfg.pm.clone()),
            core: CoreCtx::new(&cfg, None),
            lazy_txns: Vec::new(),
            txreg: TxnIdRegister::new(),
            suspended: Vec::new(),
            txn_seq: 0,
            stats: MachineStats::new(),
            now: 0,
            parked: Vec::new(),
            active: 0,
            conflict_aborts: Vec::new(),
            commit_crash_point: None,
            scratch_lazy: Vec::new(),
            scratch_logged: Vec::new(),
            scratch_free: Vec::new(),
            spare_sets: Default::default(),
            tracer: None,
            store_actions,
            cfg,
        }
    }

    /// Builds a machine of `cores` cores over one shared persistence
    /// domain. Each core has a private context — L1, log buffer, open
    /// transaction and redo spill area; L2, L3, the device, the
    /// transaction-ID register and the signatures are shared. Core 0
    /// starts active ([`Self::switch_core`] selects another); one core
    /// is exactly [`Self::new`].
    ///
    /// # Panics
    ///
    /// Panics with `cores` outside `1..=4` (one 2-bit transaction
    /// context per core), with battery-backed caches (§V-E has no
    /// multi-core story: the failure flush cannot tell cores apart), or
    /// where [`Self::new`] does.
    pub fn with_cores(cfg: MachineConfig, cores: usize) -> Self {
        assert!(
            (1..=TxnId::COUNT as usize).contains(&cores),
            "core count {cores} outside 1..={} (one 2-bit transaction \
             context per core)",
            TxnId::COUNT
        );
        assert!(
            !cfg.battery_backed,
            "battery-backed caches are single-core only"
        );
        let mut m = Machine::new(cfg);
        if cores > 1 {
            m.parked = (0..cores)
                .map(|c| (c != 0).then(|| CoreCtx::new(&m.cfg, None)))
                .collect();
        }
        m
    }

    /// Installs a fresh bounded tracer (at most `capacity_per_core`
    /// buffered records per core, oldest dropped first) into the
    /// machine, its device and every log buffer, and returns the
    /// shared handle. All timestamps are simulated (the durable-event
    /// counter, per-core sequence numbers and the cycle clock), so a
    /// trace replays bit-identically from the same seeded run.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_per_core` is zero.
    pub fn enable_tracing(&mut self, capacity_per_core: usize) -> TraceHandle {
        let h = slpmt_trace::tracer(capacity_per_core);
        self.tracer = Some(h.clone());
        self.dev.set_tracer(Some(h.clone()));
        for ctx in std::iter::once(&mut self.core).chain(self.parked.iter_mut().flatten()) {
            ctx.log_path.set_tracer(Some(&h));
        }
        h
    }

    /// Whether event tracing is enabled (and compiled in).
    pub fn trace_enabled(&self) -> bool {
        !cfg!(feature = "no-trace") && self.tracer.is_some()
    }

    /// Drains and returns the records captured so far, in deterministic
    /// emission order. Empty when tracing was never enabled.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        match &self.tracer {
            Some(t) => t.borrow_mut().take(),
            None => Vec::new(),
        }
    }

    /// Runs `f` against the tracer with the clock stamped to `now` —
    /// a single branch (plus a constant-false feature check the
    /// compiler deletes) when tracing is off.
    pub(crate) fn trace(&self, f: impl FnOnce(&mut Tracer)) {
        if cfg!(feature = "no-trace") {
            return;
        }
        if let Some(t) = &self.tracer {
            let mut t = t.borrow_mut();
            t.set_clock(self.now);
            f(&mut t);
        }
    }

    /// Arms a one-shot crash injection after the given commit stage:
    /// the next `tx_commit` performs a power failure once that stage
    /// completes and returns. Used by the Figure 4 ordering tests.
    ///
    /// # Panics
    ///
    /// Panics if the active commit sequence never visits `stage`: the
    /// injection would be silently skipped and the commit would finish
    /// normally with the crash point still armed — a test arming it
    /// would pass vacuously. `LogFree` exists only under the redo
    /// discipline, `Data` only under undo, and battery-backed commit
    /// (§V-E) persists no data lines, so it visits only `Records` and
    /// `Marker`.
    pub fn set_commit_crash_point(&mut self, stage: Option<CommitStage>) {
        if let Some(p) = stage {
            let supported = if self.cfg.battery_backed {
                matches!(p, CommitStage::Records | CommitStage::Marker)
            } else {
                match self.cfg.features.discipline {
                    Discipline::Redo => p != CommitStage::Data,
                    Discipline::Undo => p != CommitStage::LogFree,
                }
            };
            assert!(
                supported,
                "commit stage {p:?} is never visited by {} \
                 (discipline {:?}, battery_backed {}): the crash point \
                 would be silently ignored",
                self.cfg.scheme, self.cfg.features.discipline, self.cfg.battery_backed
            );
        }
        self.commit_crash_point = stage;
    }

    /// Arms the device's persist-event crash scheduler: once `k` total
    /// persist events have been accepted, every later durable mutation
    /// is dropped (see `PmDevice::arm_crash_at_event`). Unlike
    /// [`set_commit_crash_point`](Self::set_commit_crash_point) this
    /// covers *every* durable-state mutation — background drains,
    /// forced lazy persists, log truncation — not just the four
    /// commit stages.
    pub fn arm_crash_at_event(&mut self, k: u64) {
        self.dev.arm_crash_at_event(k);
    }

    /// Installs a deterministic media-fault plan on the device (tear
    /// the crash-boundary persist, poison/flip durable state after the
    /// crash, jitter WPQ drains). An empty plan — the default — leaves
    /// behaviour bit-identical; see `slpmt_pmem::FaultPlan`.
    pub fn set_fault_plan(&mut self, plan: slpmt_pmem::FaultPlan) {
        self.dev.set_fault_plan(plan);
    }

    /// `true` once an armed persist-event crash has tripped (the
    /// durable state is frozen; call [`crash`](Self::crash) to also
    /// discard volatile state and recover).
    pub fn crash_tripped(&self) -> bool {
        self.dev.crash_tripped()
    }

    /// Clears residual media poison from `addr`'s line without
    /// rewriting it — the online-recovery background scrub re-reading
    /// a degraded line and re-establishing its ECC. Returns whether
    /// the line was poisoned.
    pub fn scrub_line(&mut self, addr: PmAddr) -> bool {
        self.dev.clear_poison(addr)
    }

    /// Total persist events the device has accepted (1-based indices).
    pub fn persist_event_count(&self) -> u64 {
        self.dev.event_count()
    }

    // ------------------------------------------------------------------
    // Accessors

    /// Current simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Event counters.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The persistent-memory device (image, log region, traffic).
    pub fn device(&self) -> &PmDevice {
        &self.dev
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The simulated scheme.
    pub fn scheme(&self) -> Scheme {
        self.cfg.scheme
    }

    /// `true` while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.core.cur.is_some()
    }

    /// Sequence number of the most recently begun transaction.
    pub fn txn_seq(&self) -> u64 {
        self.txn_seq
    }

    /// Number of committed transactions whose lazy data is still
    /// volatile.
    pub fn outstanding_lazy_txns(&self) -> usize {
        self.lazy_txns.len()
    }

    /// WPQ occupancy at the current machine clock — entries accepted
    /// but not yet drained to the medium. Service front ends key
    /// admission/backpressure decisions off this depth.
    pub fn wpq_depth(&self) -> usize {
        self.dev.wpq_occupancy(self.now)
    }

    /// Configured WPQ capacity in 64-byte entries.
    pub fn wpq_entries(&self) -> usize {
        self.dev.wpq_entries()
    }

    /// Enables deterministic WPQ drain-completion jitter within
    /// `window` cycles (0 disables it) without arming any media
    /// fault — the knob backpressure studies sweep.
    pub fn set_wpq_drain_jitter(&mut self, window: u64, seed: u64) {
        self.dev.set_wpq_drain_jitter(window, seed);
    }

    /// Charges `cycles` of pure compute (workload algorithmic work).
    pub fn compute(&mut self, cycles: u64) {
        self.now += cycles;
        self.stats.compute_cycles += cycles;
    }

    /// Updates the PM write latency (Figure 12 sensitivity sweep).
    pub fn set_write_latency_ns(&mut self, ns: u64) {
        let cycles = self.cfg.pm.ns_to_cycles(ns);
        self.cfg.pm.pm_write_cycles = cycles;
        self.dev.set_write_latency_cycles(cycles);
    }

    // ------------------------------------------------------------------
    // Untimed inspection (no stats, no LRU, no timing)

    /// Reads the current *logical* value of a word: the newest copy in
    /// any cache level, falling back to the persistent image. Untimed.
    /// On a cold machine (see [`Self::peek_bytes`]) it reads the image
    /// after one look at the empty L1.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    pub fn peek_u64(&self, addr: PmAddr) -> u64 {
        assert!(addr.is_word_aligned(), "unaligned peek at {addr}");
        match self.cached_line(addr.line()) {
            Some(data) => {
                let off = addr.offset_in_line();
                let mut b = [0u8; 8];
                b.copy_from_slice(&data[off..off + 8]);
                u64::from_le_bytes(b)
            }
            None => self.dev.image().read_u64(addr),
        }
    }

    /// The newest cached copy of `line`, searched in coherence order:
    /// the active L1, L2, L3, the active core's redo shadow, then each
    /// parked core's L1 and shadow in core order. `None` when only the
    /// persistent image holds the line. Inlined: `peek_u64` runs on the
    /// service reply check and the recovery oracles. The cold test
    /// comes after the L1 miss, so an L1 hit pays nothing for it.
    #[inline]
    fn cached_line(&self, line: PmAddr) -> Option<&[u8; LINE_BYTES]> {
        if let Some(e) = self.core.l1.peek(line) {
            return Some(&e.data);
        }
        if self.is_cold() {
            return None;
        }
        if let Some(e) = self.l2.peek(line) {
            return Some(&e.data);
        }
        if let Some(e) = self.l3.peek(line) {
            return Some(&e.data);
        }
        if let Some((data, _, _)) = self.core.redo_shadow.get(&line.raw()) {
            return Some(data);
        }
        self.parked.iter().flatten().find_map(|c| {
            c.l1.peek(line)
                .map(|e| &e.data)
                .or_else(|| c.redo_shadow.get(&line.raw()).map(|(d, _, _)| d))
        })
    }

    /// Whether no volatile copy of any line can exist: the L1, L2 and
    /// L3 are empty, the redo shadow is empty, and so are every parked
    /// core's L1 and shadow. Every [`Self::crash`] leaves the machine
    /// cold, and recovery writes only the image, so the post-crash
    /// walks read the image alone.
    fn is_cold(&self) -> bool {
        let private_empty = |c: &CoreCtx| c.l1.is_empty() && c.redo_shadow.is_empty();
        private_empty(&self.core)
            && self.l2.is_empty()
            && self.l3.is_empty()
            && self.parked.iter().flatten().all(|c| private_empty(c))
    }

    /// Reads `buf.len()` logical bytes starting at `addr`. Untimed.
    /// Reads the persistent image, then overlays each line's newest
    /// cached copy, unless the machine is cold (no cache level or redo
    /// shadow holds a line, as after a crash), when the image alone is
    /// the logical state.
    pub fn peek_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        // Start from the durable image, then overlay cached lines.
        self.dev.image().read(addr, buf);
        if self.is_cold() {
            return;
        }
        let first = addr.line().raw();
        let last = (addr.raw() + buf.len() as u64 - 1) & !(LINE_BYTES as u64 - 1);
        let mut line = first;
        while line <= last {
            if let Some(e) = self.cached_line(PmAddr::new(line)) {
                // Intersect [line, line+64) with [addr, addr+len).
                let lo = line.max(addr.raw());
                let hi = (line + LINE_BYTES as u64).min(addr.raw() + buf.len() as u64);
                let src = (lo - line) as usize;
                let dst = (lo - addr.raw()) as usize;
                let n = (hi - lo) as usize;
                buf[dst..dst + n].copy_from_slice(&e[src..src + n]);
            }
            line += LINE_BYTES as u64;
        }
    }

    /// Out-of-band initialisation: writes directly to the persistent
    /// image, untimed and uncounted. Must not be used while any line of
    /// the range is cached.
    ///
    /// # Panics
    ///
    /// Panics if a cached copy of an affected line exists (it would go
    /// stale).
    pub fn setup_write(&mut self, addr: PmAddr, data: &[u8]) {
        let mut line = addr.line().raw();
        let end = addr.raw() + data.len() as u64;
        while line < end {
            let la = PmAddr::new(line);
            assert!(
                self.cached_line(la).is_none(),
                "setup_write would bypass a cached copy of line {la}"
            );
            line += LINE_BYTES as u64;
        }
        self.dev.image_mut().write(addr, data);
    }

    /// Pre-faults the durable image's backing pages for
    /// `[addr, addr + bytes)` (see [`slpmt_pmem::PmSpace::prefault`]).
    /// A host-side arena warm-up for benchmark drivers: no simulated
    /// cycles, no change to any simulated state.
    pub fn prefault_image(&mut self, addr: PmAddr, bytes: u64) {
        self.dev.image_mut().prefault(addr.raw(), bytes);
    }

    // ------------------------------------------------------------------
    // Persist helpers

    /// Background persist: the requester pays only WPQ backpressure.
    fn persist_line_async(&mut self, addr: PmAddr, data: &[u8; LINE_BYTES]) {
        let accepted = self.dev.persist_line(self.now, addr, data);
        let stall = accepted.saturating_sub(self.now + self.cfg.pm.wpq_accept_cycles);
        self.now += stall;
    }

    /// Commit-path persist: the core waits for WPQ acceptance (ADR
    /// durability point).
    fn persist_line_sync(&mut self, addr: PmAddr, data: &[u8; LINE_BYTES]) {
        self.now = self.dev.persist_line(self.now, addr, data);
    }

    // ------------------------------------------------------------------
    // Explicit persistence instructions (software PTM protocols)

    /// `clwb`: writes back the cached copy of `addr`'s line to the
    /// device without invalidating it. The requester waits for WPQ
    /// acceptance — under ADR that is the durability point, so a
    /// `clwb`'d line is durable in program order even before the next
    /// `sfence` (the fence only orders *later* persists behind the
    /// drain). Clean or uncached lines cost the issue cycle and
    /// nothing else. Returns whether a dirty copy was written back.
    pub fn clwb(&mut self, addr: PmAddr) -> bool {
        let line = addr.line();
        self.now += self.cfg.store_issue_cycles;
        self.stats.flushes += 1;
        let found = [&mut self.core.l1, &mut self.l2, &mut self.l3]
            .into_iter()
            .find_map(|c| {
                c.peek_mut(line).and_then(|e| {
                    if e.meta.dirty {
                        e.meta.dirty = false;
                        e.meta.txn_id = None;
                        Some((e.addr, e.data))
                    } else {
                        None
                    }
                })
            });
        match found {
            Some((la, data)) => {
                self.persist_line_sync(la, &data);
                true
            }
            None => false,
        }
    }

    /// `sfence`: stalls the core until every persist accepted so far
    /// has drained from the WPQ to the medium — the ordering point the
    /// software commit protocols fence on.
    pub fn sfence(&mut self) {
        self.stats.fences += 1;
        let drained = self.dev.drained_by(self.now);
        self.stats.fence_stall_cycles += drained.saturating_sub(self.now);
        self.now = self.now.max(drained);
    }

    /// Mutable event counters (software PTM protocols account their
    /// log traffic here).
    pub fn stats_mut(&mut self) -> &mut MachineStats {
        &mut self.stats
    }

    /// Synchronous, timed line persist straight to the device for
    /// recovery repairs: the caller provides the full line image. The
    /// line must not be cached (recovery runs on a cold machine).
    pub fn persist_line_direct(&mut self, addr: PmAddr, data: &[u8; LINE_BYTES]) {
        debug_assert!(
            self.cached_line(addr.line()).is_none(),
            "persist_line_direct would bypass a cached copy of {addr}"
        );
        self.persist_line_sync(addr.line(), data);
    }

    fn persist_flush(&mut self, ev: FlushEvent, sync: bool) {
        self.persist_pack(&ev.entries, ev.lines, sync);
    }

    /// Persists one packed batch of `lines` WPQ slots; see
    /// [`Self::persist_flush`].
    fn persist_pack(&mut self, entries: &[LogFlushEntry], lines: u64, sync: bool) {
        let budget = self.cfg.pm.wpq_accept_cycles * lines;
        let accepted = self.dev.persist_log_pack(self.now, entries);
        if sync {
            self.now = accepted;
        } else {
            let stall = accepted.saturating_sub(self.now + budget);
            self.now += stall;
        }
    }

    /// Buffers one undo/redo record of the active core's open
    /// transaction — a word record (tiered, EDE) or a whole-line
    /// pre-image (tiered, ATOM) — and persists whatever the log path
    /// releases. EDE's bufferless record goes out as a one-entry pack
    /// straight from the stack.
    fn log_record(&mut self, seq: u64, addr: PmAddr, payload: &[u8]) {
        self.stats.log_records_created += 1;
        match &mut self.core.log_path {
            LogPath::Tiered(buf) => {
                // Empty (no allocation) unless a full tier drained.
                for ev in buf.insert(LogRecord::new(seq, addr, payload)) {
                    self.persist_flush(ev, false);
                }
            }
            LogPath::Atom(buf) => {
                let pre = payload.try_into().expect("ATOM logs at line granularity");
                if let Some(ev) = buf.insert_line(seq, addr, pre) {
                    self.persist_flush(ev, false);
                }
            }
            LogPath::Ede(e) => {
                let pre = payload.try_into().expect("EDE logs at word granularity");
                let rec = e.log_word(seq, addr, pre);
                let lines = packed_lines(rec.media_bytes());
                self.persist_pack(&[rec.into_flush_entry()], lines, false);
            }
        }
    }

    // ------------------------------------------------------------------
    // Cache movement

    /// Brings the line containing `addr` into L1, charging access
    /// latency and performing eviction cascades with their metadata
    /// transforms. Returns the line's L1 slot: the rest of the access
    /// reads and writes the line through it (see [`Self::l1_at`]).
    fn ensure_l1(&mut self, addr: PmAddr) -> Slot {
        let line = addr.line();
        self.now += self.cfg.caches.l1.hit_cycles;
        if let Some(slot) = self.core.l1.lookup(line) {
            return slot;
        }
        // Coherence probe: the line may live in another core's private
        // L1. Migrate it here with its metadata intact — lazy tags keep
        // their meaning across cores (the signature set and ID register
        // are shared), and open-transaction lines of other cores never
        // reach this point: the cross-core conflict check aborts the
        // owner first.
        let hit = self
            .parked
            .iter_mut()
            .flatten()
            .find_map(|c| c.l1.migrate_out(line));
        if let Some(e) = hit {
            self.now += self.cfg.caches.l2.hit_cycles; // c2c transfer
            self.trace(|t| {
                t.emit(TraceEvent::CacheFetch {
                    level: 1,
                    addr: line.raw(),
                    replicated: false,
                });
            });
            return self.insert_l1(e);
        }
        self.now += self.cfg.caches.l2.hit_cycles;
        if let Some(mut e) = self.l2.take(line) {
            // Figure 5: replicate each L2 group bit into four L1 bits.
            let replicated = e.meta.log_bits != 0;
            e.meta.log_bits = l2_logbits_to_l1(e.meta.log_bits);
            self.trace(|t| {
                t.emit(TraceEvent::CacheFetch {
                    level: 2,
                    addr: line.raw(),
                    replicated,
                });
            });
            return self.insert_l1(e);
        }
        self.now += self.cfg.caches.l3.hit_cycles;
        if let Some(mut e) = self.l3.take(line) {
            // L3 keeps no SLPMT metadata: bits re-initialise to zero.
            e.meta = LineMeta::clean();
            self.trace(|t| {
                t.emit(TraceEvent::CacheFetch {
                    level: 3,
                    addr: line.raw(),
                    replicated: false,
                });
            });
            return self.insert_l1(e);
        }
        // Redo shadow: a logged line spilled mid-transaction returns
        // dirty and re-owned by the current transaction, keeping its
        // log and defer bits — without them the commit partition would
        // treat the line as log-free and persist its logged or
        // deferred words in place before the marker.
        if let Some((data, log_bits, defer_bits)) = self.core.redo_shadow.remove(&line.raw()) {
            let mut meta = LineMeta::clean();
            meta.dirty = true;
            meta.persist = true;
            meta.log_bits = log_bits;
            meta.defer_bits = defer_bits;
            meta.txn_id = self.core.cur.as_ref().map(|c| c.id);
            return self.insert_l1(Entry::new(line, data, meta));
        }
        // LLC miss: fetch from the persistent medium.
        self.now += self.dev.read_cycles();
        let data = self.dev.image().read_line(line);
        self.trace(|t| {
            t.emit(TraceEvent::CacheFetch {
                level: 4,
                addr: line.raw(),
                replicated: false,
            });
        });
        self.insert_l1(Entry::new(line, data, LineMeta::clean()))
    }

    /// Fills L1 with `entry` and returns its slot. The eviction cascade
    /// moves lines between L2, L3 and PM only, so the slot stays valid.
    fn insert_l1(&mut self, entry: Entry) -> Slot {
        let (slot, victim) = self.core.l1.insert(entry);
        if let Some(victim) = victim {
            self.evict_l1_to_l2(victim);
        }
        slot
    }

    /// The L1 line in `slot`, which [`Self::ensure_l1`] returned for
    /// `addr`'s line. Within one access nothing inserts into or removes
    /// from L1 after `ensure_l1`, so the slot still holds that line.
    fn l1_at(&self, slot: Slot, addr: PmAddr) -> &Entry {
        let e = self.core.l1.at(slot);
        debug_assert_eq!(e.addr, addr.line(), "stale L1 slot");
        e
    }

    /// Mutable [`Self::l1_at`].
    fn l1_at_mut(&mut self, slot: Slot, addr: PmAddr) -> &mut Entry {
        let e = self.core.l1.at_mut(slot);
        debug_assert_eq!(e.addr, addr.line(), "stale L1 slot");
        e
    }

    /// The active core's L1 copy of `addr`'s line, else the L2 copy:
    /// where the running transaction's lines live. Untimed.
    fn l1_or_l2(&self, addr: PmAddr) -> Option<&Entry> {
        self.core.l1.peek(addr).or_else(|| self.l2.peek(addr))
    }

    /// Mutable [`Self::l1_or_l2`].
    fn l1_or_l2_mut(&mut self, addr: PmAddr) -> Option<&mut Entry> {
        self.core
            .l1
            .peek_mut(addr)
            .or_else(|| self.l2.peek_mut(addr))
    }

    fn evict_l1_to_l2(&mut self, mut victim: Entry) {
        // Speculative logging (§III-B1): complete partially-logged
        // groups so the L2 conjunction keeps them marked.
        if self.cfg.features.speculative_logging
            && self.cfg.features.granularity == Granularity::Word
        {
            if let (Some(cur), LogPath::Tiered(_)) = (&self.core.cur, &self.core.log_path) {
                if victim.meta.txn_id == Some(cur.id) && victim.meta.log_bits != 0 {
                    let seq = cur.seq;
                    let fills = speculative_fill_words(victim.meta.log_bits);
                    let mut events = Vec::new();
                    // Deferred words' durable pre-state lives in the
                    // image, not the cache (see `log_store`).
                    let image = self.dev.image().read_line(victim.addr);
                    if let LogPath::Tiered(buf) = &mut self.core.log_path {
                        for w in fills {
                            let src = if victim.meta.word_deferred(w) {
                                &image
                            } else {
                                &victim.data
                            };
                            let mut pre = [0u8; WORD_BYTES];
                            pre.copy_from_slice(&src[w * 8..w * 8 + 8]);
                            let rec = LogRecord::new(seq, victim.addr.add((w * 8) as u64), &pre);
                            self.stats.log_records_created += 1;
                            events.extend(buf.insert(rec));
                            victim.meta.set_word_logged(w);
                        }
                    }
                    for ev in events {
                        self.persist_flush(ev, false);
                    }
                }
            }
        }
        if !self.parked.is_empty() {
            // L2 is shared between cores: the line leaves the private
            // domain here, before other cores can see (or evict) it.
            let Some(v) = self.leave_private_domain(victim) else {
                return;
            };
            victim = v;
        }
        // Figure 5: conjunction of each group of four L1 bits.
        let l1_bits = victim.meta.log_bits;
        victim.meta.log_bits = l1_logbits_to_l2(l1_bits);
        self.trace(|t| {
            t.emit(TraceEvent::CacheEvict {
                level: 1,
                addr: victim.addr.raw(),
                dirty: victim.meta.dirty,
                logged: l1_bits != 0,
            });
            if l1_bits != 0 {
                t.emit(TraceEvent::LogBitConj {
                    addr: victim.addr.raw(),
                    l1_bits,
                    l2_bits: victim.meta.log_bits,
                });
            }
        });
        if let (_, Some(victim2)) = self.l2.insert(victim) {
            self.evict_l2_to_l3(victim2);
        }
    }

    fn evict_l2_to_l3(&mut self, mut victim: Entry) {
        // `leave_private_domain` takes per-word (L1) log bits: the redo
        // shadow hands them back to L1 unchanged.
        victim.meta.log_bits = l2_logbits_to_l1(victim.meta.log_bits);
        self.trace(|t| {
            t.emit(TraceEvent::CacheEvict {
                level: 2,
                addr: victim.addr.raw(),
                dirty: victim.meta.dirty,
                logged: victim.meta.log_bits != 0,
            });
        });
        let Some(mut victim) = self.leave_private_domain(victim) else {
            return;
        };
        // Dirty data overflowing the private cache writes back to PM —
        // the natural path by which lazy data becomes durable.
        if victim.meta.dirty {
            if victim.meta.lazy_pending {
                self.stats.lazy_lines_overflowed += 1;
            }
            let data = victim.data;
            self.signature_persist_check(victim.addr);
            self.persist_line_async(victim.addr, &data);
            victim.meta.dirty = false;
            victim.meta.lazy_pending = false;
        }
        victim.meta = LineMeta::clean();
        if let (_, Some(victim3)) = self.l3.insert(victim) {
            // L3 victims are clean by construction: silent drop.
            debug_assert!(!victim3.meta.dirty);
        }
    }

    /// The duties of a line leaving the active core's private domain —
    /// L2→L3 on every machine and, while other cores share L2, L1→L2
    /// as well: record flush, the battery-backed pre-image (§V-E,
    /// single-core only), the redo spill and the capture of deferred
    /// words' pre-images. Returns `None` when the line was spilled to
    /// the redo shadow instead of moving on.
    fn leave_private_domain(&mut self, mut victim: Entry) -> Option<Entry> {
        // Before a line's data leaves the private cache, its buffered
        // log records must persist (§III-A).
        if let Some(ev) = self.core.log_path.flush_line(victim.addr) {
            self.persist_flush(ev, false);
        }
        // Battery-backed caches: an uncommitted line overflowing to PM
        // is the only case that needs an undo record (§V-E) — the
        // pre-image is the line's current image content, which the
        // transaction never overwrote in place.
        if self.cfg.battery_backed
            && victim.meta.dirty
            && self
                .core
                .cur
                .as_ref()
                .is_some_and(|c| Some(c.id) == victim.meta.txn_id)
        {
            let seq = self.core.cur.as_ref().expect("checked").seq;
            let pre = self.dev.image().read_line(victim.addr);
            let rec = LogRecord::new(seq, victim.addr, &pre);
            self.stats.log_records_created += 1;
            let events = match &mut self.core.log_path {
                LogPath::Tiered(buf) => buf.insert(rec),
                _ => vec![slpmt_logbuf::record::flush_event(vec![rec])],
            };
            for ev in events {
                self.persist_flush(ev, false);
            }
        }
        // Redo discipline: a logged line of the open transaction must
        // not reach the persistence domain before the commit marker —
        // spill it to the volatile shadow instead (the DudeTM-style
        // redirection redo hardware performs).
        if self.cfg.features.discipline == Discipline::Redo
            && self.core.cur.is_some()
            && (victim.meta.log_bits != 0 || victim.meta.defer_bits != 0)
            && victim.meta.dirty
        {
            self.core.redo_shadow.insert(
                victim.addr.raw(),
                (victim.data, victim.meta.log_bits, victim.meta.defer_bits),
            );
            return None;
        }
        // A leaving line may carry deferred (lazy log-free) words of the
        // open transaction: they have no record and must not be stolen
        // into PM (or exposed to other cores' evictions) before the
        // commit marker. Log their *durable* pre-images first (the
        // image still holds them — the deferral kept every earlier
        // persist away), so a rollback can repair a later steal.
        if victim.meta.dirty && victim.meta.defer_bits != 0 && self.core.cur.is_some() {
            let seq = self.core.cur.as_ref().expect("checked").seq;
            let image = self.dev.image().read_line(victim.addr);
            let mut events = Vec::new();
            if let LogPath::Tiered(buf) = &mut self.core.log_path {
                for w in 0..LINE_BYTES / WORD_BYTES {
                    if victim.meta.word_deferred(w) {
                        let mut pre = [0u8; WORD_BYTES];
                        pre.copy_from_slice(&image[w * 8..w * 8 + 8]);
                        let rec = LogRecord::new(seq, victim.addr.add((w * 8) as u64), &pre);
                        self.stats.log_records_created += 1;
                        events.extend(buf.insert(rec));
                    }
                }
                // The records must be durable before any steal: abort
                // and recovery repair from the device log only.
                events.extend(buf.drain_all());
            }
            for ev in events {
                self.persist_flush(ev, true);
            }
            victim.meta.defer_bits = 0;
        }
        Some(victim)
    }

    // ------------------------------------------------------------------
    // Lazy-persistency enforcement

    /// Persists all deferred lines of every outstanding transaction up
    /// to and including `id`, releasing their IDs and signatures.
    fn force_persist_through(&mut self, id: TxnId) {
        let freed = self.txreg.reclaim_through(id);
        if freed.is_empty() {
            return;
        }
        self.trace(|t| {
            for lt in &self.lazy_txns {
                if freed.contains(&lt.id) {
                    t.emit(TraceEvent::TxnIdRetire {
                        txn: lt.seq,
                        id: lt.id.raw(),
                    });
                }
            }
        });
        // Collect the deferred lines of the freed transactions from the
        // lists recorded at commit (a superset of the still-pending
        // lines), then keep only lines whose metadata still says
        // lazy-pending for a freed ID — exactly the set a full sweep of
        // L1 + L2 + every parked core's L1 would find, without visiting
        // every cache entry on the hot path.
        let mut doomed: Vec<PmAddr> = Vec::new();
        for lt in &self.lazy_txns {
            if freed.contains(&lt.id) {
                doomed.extend_from_slice(&lt.lines);
            }
        }
        self.lazy_txns.retain(|lt| !freed.contains(&lt.id));
        doomed.sort();
        doomed.dedup();
        doomed.retain(|&addr| {
            self.l1_or_l2(addr)
                .or_else(|| self.parked.iter().flatten().find_map(|c| c.l1.peek(addr)))
                .is_some_and(|e| {
                    e.meta.lazy_pending && e.meta.txn_id.is_some_and(|t| freed.contains(&t))
                })
        });
        self.trace(|t| {
            t.emit(TraceEvent::SigForcedPersist {
                id: id.raw(),
                lines: doomed.len().min(u32::MAX as usize) as u32,
            });
        });
        for addr in doomed {
            let data = {
                let e = match self.l1_or_l2_mut(addr) {
                    Some(e) => e,
                    None => self
                        .parked
                        .iter_mut()
                        .flatten()
                        .find_map(|c| c.l1.peek_mut(addr))
                        .expect("collected above"),
                };
                let d = e.data;
                e.meta.dirty = false;
                e.meta.lazy_pending = false;
                e.meta.txn_id = None;
                d
            };
            // Forced persists are off the critical path (§III-C3): the
            // blocked access waits only for WPQ acceptance ordering,
            // i.e. backpressure, not for the full medium write.
            self.persist_line_async(addr, &data);
            self.stats.lazy_lines_forced += 1;
        }
    }

    /// Coherence-time check before an access to `addr` proceeds, based
    /// on the line's transaction-ID tag.
    ///
    /// * A **load** of lazily-persistent data owned by an earlier
    ///   transaction forces that transaction's deferred lines durable
    ///   first (§III-C3): the reader may derive new lazy data from the
    ///   value, and recovery re-derivation must see it durably.
    /// * An **undo-logged store** instead *takes over* the line
    ///   (§III-C1): the deferral is cancelled through the normal
    ///   Table I bit updates, and the undo log captures the pre-image —
    ///   no immediate persist is required for recoverability.
    ///
    /// The takeover is only sound when an abort of the *new*
    /// transaction can restore the lazy value: the cached line is the
    /// committed value's only copy, and the undo pre-image record is
    /// what protects it. A store that creates no pre-image — a
    /// log-free or lazy store (`will_log` false), or any store under
    /// the redo discipline (redo records hold new values, not
    /// pre-images) — must instead force the earlier transaction's
    /// deferred lines durable before overwriting, on one core and many
    /// alike, or an abort would drop committed data. This narrows
    /// §III-C1, which lets any store take the line over (DESIGN §9).
    fn lazy_checks(&mut self, slot: Slot, addr: PmAddr, is_write: bool, will_log: bool) {
        let e = self.l1_at(slot, addr);
        let tag = e.meta.lazy_pending.then_some(e.meta.txn_id).flatten();
        if let Some(id) = tag {
            let is_cur = self.core.cur.as_ref().is_some_and(|c| c.id == id);
            if is_cur {
                return;
            }
            let takeover_sound = will_log && self.cfg.features.discipline == Discipline::Undo;
            if is_write && takeover_sound {
                // Ownership conversion (§III-C1): the line leaves the
                // earlier transaction's custody; the store path re-tags
                // it and sets the persist bit per its own operands.
                let e = self.l1_at_mut(slot, addr);
                e.meta.lazy_pending = false;
                e.meta.txn_id = None;
            } else {
                self.force_persist_through(id);
            }
        }
    }

    /// Persist-ordering check (§III-C): before *any* update reaches the
    /// persistence domain, every lazily-persistent datum that depends
    /// on the updated location must already be durable. The dependency
    /// signatures record each committed transaction's read set (minus
    /// locations it overwrote eagerly — their pre-images are gone
    /// regardless, so sound lazy data cannot depend on them); a hit
    /// forces the matching transaction and all earlier ones.
    fn signature_persist_check(&mut self, addr: PmAddr) {
        let hit = self
            .lazy_txns
            .iter()
            .rev() // newest match wins: persist through it covers priors
            .find(|lt| lt.sig.maybe_contains(addr))
            .map(|lt| lt.id);
        if let Some(id) = hit {
            self.stats.signature_hits += 1;
            self.trace(|t| {
                t.emit(TraceEvent::SigHit {
                    addr: addr.line().raw(),
                    id: id.raw(),
                });
            });
            self.force_persist_through(id);
        }
    }

    // ------------------------------------------------------------------
    // Logging

    fn log_store(&mut self, slot: Slot, addr: PmAddr, new_bytes: [u8; WORD_BYTES]) {
        let Some(cur) = &self.core.cur else { return };
        let seq = cur.seq;
        let line = addr.line();
        let word = addr.word_in_line();
        let redo = self.cfg.features.discipline == Discipline::Redo;
        match self.cfg.features.granularity {
            Granularity::Word => {
                let (cached, logged, deferred) = {
                    let e = self.l1_at(slot, addr);
                    let mut pre = [0u8; WORD_BYTES];
                    pre.copy_from_slice(&e.data[word * 8..word * 8 + 8]);
                    (pre, e.meta.word_logged(word), e.meta.word_deferred(word))
                };
                // A word the open transaction already scribbled with a
                // deferred (lazy log-free) store holds that scribble in
                // the cache; the rollback target is the *durable*
                // pre-state, still intact in the image because the
                // deferral kept every persist away.
                let pre = if deferred {
                    let img = self.dev.image().read_line(line);
                    let mut p = [0u8; WORD_BYTES];
                    p.copy_from_slice(&img[word * 8..word * 8 + 8]);
                    p
                } else {
                    cached
                };
                // Undo records carry the pre-image; redo records the
                // final value of the word.
                let payload = if redo { new_bytes } else { pre };
                if logged {
                    if redo {
                        // The record must hold the *final* value: patch
                        // it in the buffer, or append a fresh record if
                        // it already flushed (forward replay applies
                        // the newest last).
                        let patched = match &mut self.core.log_path {
                            LogPath::Tiered(buf) => buf.update_word(seq, addr.word(), &payload),
                            _ => unreachable!("redo requires the tiered buffer"),
                        };
                        if !patched {
                            self.log_record(seq, addr.word(), &payload);
                        }
                    }
                    return;
                }
                self.log_record(seq, addr.word(), &payload);
                self.l1_at_mut(slot, addr).meta.set_word_logged(word);
                self.trace(|t| {
                    t.emit(TraceEvent::LogBit {
                        addr: line.raw(),
                        word: word as u8,
                        lazy: deferred,
                    });
                });
            }
            Granularity::Line => {
                let (mut pre, need, defer_bits) = {
                    let e = self.l1_at(slot, addr);
                    (e.data, e.meta.log_bits == 0, e.meta.defer_bits)
                };
                if !need {
                    return;
                }
                // Same-transaction deferred scribbles must not leak
                // into the whole-line pre-image: rollback restores the
                // durable pre-state, which for those words is still in
                // the image (the deferral kept every persist away).
                if defer_bits != 0 {
                    let img = self.dev.image().read_line(line);
                    for w in 0..LINE_BYTES / WORD_BYTES {
                        if defer_bits & (1 << w) != 0 {
                            pre[w * 8..w * 8 + 8].copy_from_slice(&img[w * 8..w * 8 + 8]);
                        }
                    }
                }
                self.log_record(seq, line, &pre);
                self.l1_at_mut(slot, addr).meta.log_bits = 0xFF;
            }
        }
    }

    // ------------------------------------------------------------------
    // Instruction interface

    /// Executes a load of the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    pub fn load_u64(&mut self, addr: PmAddr) -> u64 {
        assert!(addr.is_word_aligned(), "unaligned load at {addr}");
        self.resolve_conflicts(addr, false);
        self.stats.loads += 1;
        self.now += self.cfg.load_issue_cycles;
        let slot = self.ensure_l1(addr);
        self.lazy_checks(slot, addr, false, false);
        if let Some(cur) = &mut self.core.cur {
            cur.read_set.push(addr.line().raw());
        }
        let e = self.l1_at(slot, addr);
        let off = addr.offset_in_line();
        let mut b = [0u8; 8];
        b.copy_from_slice(&e.data[off..off + 8]);
        u64::from_le_bytes(b)
    }

    /// Executes a store of `value` to the word at `addr` with the given
    /// instruction flavour (Table I).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    pub fn store_u64(&mut self, addr: PmAddr, value: u64, kind: StoreKind) {
        self.store_word_bytes(addr, value.to_le_bytes(), kind);
    }

    fn store_word_bytes(&mut self, addr: PmAddr, bytes: [u8; WORD_BYTES], kind: StoreKind) {
        assert!(addr.is_word_aligned(), "unaligned store at {addr}");
        self.resolve_conflicts(addr, true);
        // All (scheme, flavour) dispatch — Table I bit effects, degrade
        // rules, honoured-ness, deferral — was resolved into the action
        // table at construction; the hot path is a lookup.
        let act = self.store_actions[kind.index()];
        self.stats.stores += 1;
        self.stats.store_ts += act.count_store_t as u64;
        self.trace(|t| {
            t.emit(TraceEvent::StoreIssue {
                addr: addr.raw(),
                log: act.set_log,
                lazy: !act.set_persist,
                honoured: act.honoured,
            });
        });
        self.now += self.cfg.store_issue_cycles;
        let slot = self.ensure_l1(addr);
        self.lazy_checks(slot, addr, true, act.set_log && self.core.cur.is_some());
        if self.cfg.battery_backed {
            // Battery mode: a line holding committed-but-unpersisted
            // data must flush before the in-flight transaction
            // overwrites it — at a crash the in-flight line is dropped,
            // so the committed value must already be in the image.
            let flush = {
                let cur_id = self.core.cur.as_ref().map(|c| c.id);
                let e = self.l1_at(slot, addr);
                e.meta.dirty && (cur_id.is_none() || e.meta.txn_id != cur_id)
            };
            if flush {
                let (line, data) = {
                    let e = self.l1_at_mut(slot, addr);
                    e.meta.dirty = false;
                    e.meta.txn_id = None;
                    (e.addr, e.data)
                };
                self.persist_line_async(line, &data);
            }
        } else if self.core.cur.is_some() && act.set_log {
            self.log_store(slot, addr, bytes);
        }
        let cur_id = self.core.cur.as_ref().map(|c| c.id);
        let line = addr.line();
        let e = self.l1_at_mut(slot, addr);
        if act.set_persist {
            // A persistent store cancels any lazy deferral of the line
            // (§III-C1): the whole line persists at commit.
            e.meta.persist = true;
            e.meta.lazy_pending = false;
        }
        // A lazy log-free word has neither a record nor permission to
        // persist before its commit marker; track it per word so a
        // sibling eager store (which sets the line's persist bit)
        // cannot drag it into the commit-time in-place persist.
        if act.defer_word && cur_id.is_some() {
            e.meta.set_word_deferred(addr.word_in_line());
        } else {
            e.meta.clear_word_deferred(addr.word_in_line());
        }
        e.meta.dirty = true;
        if cur_id.is_some() {
            e.meta.txn_id = cur_id;
        }
        let off = addr.offset_in_line();
        e.data[off..off + 8].copy_from_slice(&bytes);
        if let Some(cur) = &mut self.core.cur {
            cur.write_set.push(line.raw());
        }
    }

    /// Stores `data` (word-aligned, whole words) with one instruction
    /// per word.
    ///
    /// # Panics
    ///
    /// Panics on unaligned address or ragged length.
    pub fn store_bytes(&mut self, addr: PmAddr, data: &[u8], kind: StoreKind) {
        assert!(addr.is_word_aligned(), "unaligned store_bytes at {addr}");
        assert!(
            data.len().is_multiple_of(WORD_BYTES),
            "store_bytes length must be whole words"
        );
        for (i, chunk) in data.chunks_exact(WORD_BYTES).enumerate() {
            let mut w = [0u8; WORD_BYTES];
            w.copy_from_slice(chunk);
            self.store_word_bytes(addr.add((i * WORD_BYTES) as u64), w, kind);
        }
    }

    /// Loads `buf.len()` bytes (word-aligned, whole words) with one
    /// instruction per word.
    ///
    /// # Panics
    ///
    /// Panics on unaligned address or ragged length.
    pub fn load_bytes(&mut self, addr: PmAddr, buf: &mut [u8]) {
        assert!(addr.is_word_aligned(), "unaligned load_bytes at {addr}");
        assert!(
            buf.len().is_multiple_of(WORD_BYTES),
            "load_bytes length must be whole words"
        );
        for (i, chunk) in buf.chunks_exact_mut(WORD_BYTES).enumerate() {
            let v = self.load_u64(addr.add((i * WORD_BYTES) as u64));
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    // ------------------------------------------------------------------
    // Transactions

    /// Opens a durable transaction.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open (no nesting).
    pub fn tx_begin(&mut self) {
        assert!(
            self.core.cur.is_none(),
            "nested transactions are not supported"
        );
        assert!(
            self.txreg.free_count() > 0 || self.txreg.outstanding().count() > 0,
            "all four 2-bit transaction contexts are in use ({} suspended threads)",
            self.suspended.len()
        );
        self.txn_seq += 1;
        let id = loop {
            match self.txreg.allocate() {
                Ok(id) => break id,
                Err(oldest) => self.force_persist_through(oldest),
            }
        };
        self.trace(|t| {
            t.emit(TraceEvent::TxnIdAlloc {
                txn: self.txn_seq,
                id: id.raw(),
            });
        });
        let (read_set, write_set) = std::mem::take(&mut self.spare_sets);
        self.core.cur = Some(CurTxn {
            seq: self.txn_seq,
            id,
            read_set,
            write_set,
        });
        self.stats.tx_begins += 1;
        self.now += self.cfg.tx_begin_cycles;
    }

    /// Commits the open transaction, enforcing the Figure 4 persist
    /// ordering for the configured discipline.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn tx_commit(&mut self) {
        let mut cur = self
            .core
            .cur
            .take()
            .expect("commit without an open transaction");
        cur.write_set.seal();
        let commit_start = self.now;
        let redo = self.cfg.features.discipline == Discipline::Redo;
        self.trace(|t| t.emit(TraceEvent::CommitBegin { txn: cur.seq }));

        if self.cfg.battery_backed {
            // §V-E: the private caches are inside the persistence
            // domain, so commit needs no data persists — drain any
            // records of overflowed lines, make the marker durable,
            // and clear the transaction's metadata (lines stay dirty;
            // they write back on natural eviction or battery flush).
            if let Some(ev) = self.core.log_path.drain() {
                self.persist_flush(ev, true);
            }
            if self.commit_crash_point == Some(CommitStage::Records) {
                // Pre-marker crash: the transaction is still in flight,
                // so the battery flush must drop its lines. Restore the
                // in-flight state before failing.
                self.commit_crash_point = None;
                self.core.cur = Some(cur);
                self.crash();
                return;
            }
            self.now = self.dev.persist_commit_marker(self.now, cur.seq);
            if self.take_crash_point(cur.seq, CommitStage::Marker) {
                // Marker durable: the battery flush preserved the
                // transaction's (still-tagged) lines, so it is durable.
                return;
            }
            self.dev.truncate_log();
            // Only lines the transaction wrote can carry its tag, so
            // walking the write set finds every tagged line without
            // sweeping both caches (battery mode is single-core, so no
            // other core's lines are involved).
            for &raw in cur.write_set.sorted() {
                let addr = PmAddr::new(raw);
                if let Some(e) = self.l1_or_l2_mut(addr) {
                    if e.meta.txn_id == Some(cur.id) {
                        e.meta.persist = false;
                        e.meta.log_bits = 0;
                        e.meta.defer_bits = 0;
                        e.meta.txn_id = None;
                    }
                }
            }
            self.txreg.retire_clean(cur.id);
            self.trace(|t| {
                t.emit(TraceEvent::TxnIdRetire {
                    txn: cur.seq,
                    id: cur.id.raw(),
                });
                t.emit(TraceEvent::CommitEnd { txn: cur.seq });
            });
            self.stats.commit_stall_cycles += self.now - commit_start;
            self.stats.tx_commits += 1;
            self.recycle_sets(cur);
            return;
        }

        // 1. Identify this transaction's lazily-persistent lines:
        //    dirty, persist bit clear, tagged with our ID. Only lines
        //    in the write set can match (stores are the only path that
        //    tags a line), so commit walks the write set — already in
        //    ascending address order — instead of sweeping L1 + L2.
        let mut lazy_lines = std::mem::take(&mut self.scratch_lazy);
        lazy_lines.clear();
        for &raw in cur.write_set.sorted() {
            let addr = PmAddr::new(raw);
            if self.l1_or_l2(addr).is_some_and(|e| {
                e.meta.dirty
                    && !e.meta.persist
                    && e.meta.txn_id == Some(cur.id)
                    && !e.meta.lazy_pending
            }) {
                lazy_lines.push(addr);
            }
        }

        // 2. Discard buffered records of lazy lines — their images are
        //    unnecessary because the lines will not persist eagerly
        //    (§III-B2).
        if !lazy_lines.is_empty() {
            if let LogPath::Tiered(buf) = &mut self.core.log_path {
                let dropped = buf.discard_lines(&lazy_lines);
                self.stats.log_records_discarded += dropped as u64;
            }
        }

        // Partition the persist-bit lines: logged lines (records exist)
        // vs log-free lines. Undo may persist them in any relative
        // order; redo must persist log-free lines *before* the records
        // and logged lines only *after* the marker (Figure 4).
        let mut logged_lines = std::mem::take(&mut self.scratch_logged);
        logged_lines.clear();
        let mut free_lines = std::mem::take(&mut self.scratch_free);
        free_lines.clear();
        for &raw in cur.write_set.sorted() {
            let addr = PmAddr::new(raw);
            let Some(e) = self.l1_or_l2(addr) else {
                continue;
            };
            // The shared L2 may hold persist-marked lines of other
            // cores' open transactions — commit must only persist its
            // own. Only lines this transaction wrote are candidates, so
            // the write-set walk sees every line a full-cache sweep
            // would.
            if e.meta.persist && e.meta.txn_id == Some(cur.id) {
                if e.meta.log_bits != 0 {
                    logged_lines.push(addr);
                } else {
                    free_lines.push(addr);
                }
            }
        }

        let mut deferred_mixed = false;
        // Mixed lines whose deferred words `commit_persist_line`
        // withheld: recorded alongside the lazy lines so a later forced
        // persist can find them without sweeping the caches.
        let mut mixed_lines: Vec<PmAddr> = Vec::new();
        if redo {
            // Figure 4 (right): log-free lines → redo records → marker
            // → logged lines (the in-place write-back).
            for &addr in &free_lines {
                if self.commit_persist_line(addr) {
                    deferred_mixed = true;
                    mixed_lines.push(addr);
                }
            }
            // A *mixed* line — log-free words sharing a line with
            // logged words — belongs to both phases: its log-free
            // words have no redo record, so the post-marker write-back
            // is their only durability path, and a crash in the replay
            // window would lose them even though the marker (hence the
            // transaction) is durable. Persist them now, without
            // exposing the logged words' new values: overlay only the
            // non-logged, non-deferred modified words onto the durable
            // image.
            for &addr in &logged_lines {
                let (data, log_bits, defer_bits) = {
                    let e = self.l1_or_l2(addr).expect("commit line resident");
                    (e.data, e.meta.log_bits, e.meta.defer_bits)
                };
                self.persist_log_free_words_premarker(addr, &data, log_bits, defer_bits);
            }
            let spilled_mixed: Vec<(u64, [u8; LINE_BYTES], u8, u8)> = self
                .core
                .redo_shadow
                .iter()
                .map(|(&a, &(d, b, f))| (a, d, b, f))
                .collect();
            for (a, data, bits, defer) in &spilled_mixed {
                self.persist_log_free_words_premarker(PmAddr::new(*a), data, *bits, *defer);
            }
            if self.take_crash_point(cur.seq, CommitStage::LogFree) {
                return;
            }
            if let Some(ev) = self.core.log_path.drain() {
                self.persist_flush(ev, true);
            }
            if self.take_crash_point(cur.seq, CommitStage::Records) {
                return;
            }
            self.now = self.dev.persist_commit_marker(self.now, cur.seq);
            if self.take_crash_point(cur.seq, CommitStage::Marker) {
                return;
            }
            // Write-back: logged lines from the caches and any spilled
            // to the redo shadow. (Spilled lines persist in full: the
            // marker is durable, so their deferred words are committed
            // and may land in place.)
            for &addr in &logged_lines {
                if self.commit_persist_line(addr) {
                    deferred_mixed = true;
                    mixed_lines.push(addr);
                }
            }
            let spilled: Vec<(u64, [u8; LINE_BYTES])> = self
                .core
                .redo_shadow
                .iter()
                .map(|(&a, &(d, _, _))| (a, d))
                .collect();
            for (a, data) in spilled {
                let addr = PmAddr::new(a);
                self.signature_persist_check(addr);
                self.persist_line_sync(addr, &data);
                self.stats.commit_line_persists += 1;
            }
            self.core.redo_shadow.clear();
            self.dev.truncate_log();
        } else {
            // Figure 4 (left): records → data (logged and log-free in
            // any order) → marker.
            if let Some(ev) = self.core.log_path.drain() {
                self.persist_flush(ev, true);
            }
            if self.take_crash_point(cur.seq, CommitStage::Records) {
                return;
            }
            for &addr in free_lines.iter().chain(logged_lines.iter()) {
                if self.commit_persist_line(addr) {
                    deferred_mixed = true;
                    mixed_lines.push(addr);
                }
            }
            if self.take_crash_point(cur.seq, CommitStage::Data) {
                return;
            }
            self.now = self.dev.persist_commit_marker(self.now, cur.seq);
            if self.take_crash_point(cur.seq, CommitStage::Marker) {
                // For undo everything already persisted: the
                // transaction is durable despite the crash.
                return;
            }
            self.dev.truncate_log();
        }

        // Lazy lines stay cached, tagged and pending; record the
        // transaction's dependency set in a signature. A commit whose
        // only deferral came from mixed lines (deferred words withheld
        // by `commit_persist_line`) retires lazy too: those words'
        // durability is still outstanding.
        if lazy_lines.is_empty() && !deferred_mixed {
            self.txreg.retire_clean(cur.id);
            self.trace(|t| {
                t.emit(TraceEvent::TxnIdRetire {
                    txn: cur.seq,
                    id: cur.id.raw(),
                });
            });
        } else {
            for addr in &lazy_lines {
                let e = self.l1_or_l2_mut(*addr).expect("lazy line resident");
                e.meta.lazy_pending = true;
                e.meta.log_bits = 0;
                e.meta.defer_bits = 0;
                self.stats.lazy_lines_deferred += 1;
            }
            // The signature covers the lines read but not written, in
            // ascending order.
            cur.read_set.seal();
            let read_only = || {
                cur.read_set
                    .sorted()
                    .iter()
                    .copied()
                    .filter(|&l| !cur.write_set.contains(l))
            };
            let mut sig = Signature::new();
            for l in read_only() {
                sig.insert(PmAddr::new(l));
            }
            self.trace(|t| {
                // The exact line set is the aggregator's ground truth
                // for the false-positive rate; the `Vec` is built only
                // when tracing is on.
                t.emit(TraceEvent::SigInsert {
                    txn: cur.seq,
                    id: cur.id.raw(),
                    lines: read_only().collect(),
                });
            });
            let mut lines = lazy_lines.clone();
            lines.extend_from_slice(&mixed_lines);
            self.lazy_txns.push(LazyTxn {
                seq: cur.seq,
                id: cur.id,
                sig,
                lines,
            });
            self.txreg.retire_lazy(cur.id);
        }
        self.trace(|t| t.emit(TraceEvent::CommitEnd { txn: cur.seq }));

        self.stats.commit_stall_cycles += self.now - commit_start;
        self.stats.tx_commits += 1;
        self.scratch_lazy = lazy_lines;
        self.scratch_logged = logged_lines;
        self.scratch_free = free_lines;
        self.recycle_sets(cur);
    }

    /// Keeps a finished transaction's line-set buffers for the next
    /// `tx_begin`.
    fn recycle_sets(&mut self, mut done: CurTxn) {
        done.read_set.clear();
        done.write_set.clear();
        self.spare_sets = (done.read_set, done.write_set);
    }

    /// Redo commit, pre-marker phase: persists the *log-free* words of
    /// a logged (mixed) line by overlaying the line's non-logged
    /// modified words onto the durable image. Logged words keep their
    /// image (pre-transaction) values — their atomicity comes from the
    /// post-marker replay — and deferred words are withheld entirely
    /// (they have no record and asked to persist after commit). The
    /// line's cache metadata is left untouched for the write-back
    /// phase. No persist is issued when every modified word is logged
    /// or deferred (the common case; in particular every FG-RD line).
    fn persist_log_free_words_premarker(
        &mut self,
        addr: PmAddr,
        data: &[u8; LINE_BYTES],
        log_bits: u8,
        defer_bits: u8,
    ) {
        if self.cfg.features.granularity == Granularity::Line && log_bits != 0 {
            // Line-granularity records cover the whole line: replay
            // restores every word, logged or not.
            return;
        }
        let mut merged = self.dev.image().read_line(addr);
        let mut mixed = false;
        for w in 0..LINE_BYTES / WORD_BYTES {
            let r = w * WORD_BYTES..(w + 1) * WORD_BYTES;
            if (log_bits | defer_bits) & (1 << w) == 0 && merged[r.clone()] != data[r.clone()] {
                merged[r.clone()].copy_from_slice(&data[r]);
                mixed = true;
            }
        }
        if mixed {
            self.signature_persist_check(addr);
            self.persist_line_sync(addr, &merged);
            self.stats.commit_line_persists += 1;
        }
    }

    /// Persists one commit-path line and clears its metadata. Deferred
    /// (lazy log-free) words are withheld — they keep their durable
    /// image values, so a pre-marker crash rolls back cleanly with no
    /// record needed — and the line stays cached `lazy_pending`, dirty
    /// and transaction-tagged, so the withheld words become durable
    /// only through the post-commit lazy machinery (forced persists or
    /// natural eviction). Returns `true` when words were withheld: the
    /// caller must then retire the transaction as lazy.
    fn commit_persist_line(&mut self, addr: PmAddr) -> bool {
        self.signature_persist_check(addr);
        let (data, defer_bits) = {
            let e = self.l1_or_l2(addr).expect("commit line resident");
            (e.data, e.meta.defer_bits)
        };
        if defer_bits == 0 {
            let e = self.l1_or_l2_mut(addr).expect("commit line resident");
            e.meta.persist = false;
            e.meta.dirty = false;
            e.meta.log_bits = 0;
            e.meta.txn_id = None;
            self.persist_line_sync(addr, &data);
            self.stats.commit_line_persists += 1;
            return false;
        }
        let mut merged = self.dev.image().read_line(addr);
        for w in 0..LINE_BYTES / WORD_BYTES {
            if defer_bits & (1 << w) == 0 {
                let r = w * WORD_BYTES..(w + 1) * WORD_BYTES;
                merged[r.clone()].copy_from_slice(&data[r]);
            }
        }
        let e = self.l1_or_l2_mut(addr).expect("commit line resident");
        e.meta.persist = false;
        e.meta.log_bits = 0;
        e.meta.defer_bits = 0;
        e.meta.lazy_pending = true;
        self.persist_line_sync(addr, &merged);
        self.stats.commit_line_persists += 1;
        self.stats.lazy_lines_deferred += 1;
        true
    }

    /// Consumes an armed crash injection for `stage`: performs the
    /// power failure and reports `true` if the commit must stop here.
    /// Also the single site stamping the commit persist-ordering trace:
    /// reaching it means `stage` just completed, crash or not.
    fn take_crash_point(&mut self, txn: u64, stage: CommitStage) -> bool {
        self.trace(|t| t.emit(TraceEvent::CommitStageDone { txn, stage }));
        if self.commit_crash_point == Some(stage) {
            self.commit_crash_point = None;
            self.crash();
            true
        } else {
            false
        }
    }

    /// Aborts the open transaction (§V-B): its buffered records are
    /// dropped, its cached updates invalidated, and under the undo
    /// discipline every pre-image it logged is applied back onto the
    /// line's coherent contents and persisted.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn tx_abort(&mut self) {
        self.abort_txn(Victim::Own);
    }

    /// Aborts `who`'s open transaction and returns its sequence number:
    /// the one roll-back routine for the active core's own transaction,
    /// a switched-out thread's (§V-C) and a parked core's (the
    /// cross-core conflict path). The victim's buffered records are
    /// drained, its cached updates invalidated everywhere, and under
    /// the undo discipline every pre-image it logged — durable or still
    /// buffered — is applied back onto the line's *coherent* contents
    /// and persisted. Under redo the image was never touched in place:
    /// dropping the shadow and the records suffices.
    fn abort_txn(&mut self, who: Victim) -> u64 {
        let victim = match who {
            Victim::Suspended(pos) => Some(self.suspended.swap_remove(pos)),
            Victim::Own | Victim::Parked(_) => self.victim_ctx(who).cur.take(),
        }
        .expect("abort without an open transaction");
        let abort = match who {
            Victim::Own => TraceEvent::Abort { txn: victim.seq },
            Victim::Suspended(_) => {
                self.stats.suspended_aborts += 1;
                TraceEvent::Abort { txn: victim.seq }
            }
            Victim::Parked(core) => {
                self.stats.cross_core_aborts += 1;
                TraceEvent::CrossAbort {
                    victim: core as u8,
                    txn: victim.seq,
                }
            }
        };
        self.trace(|t| {
            t.emit(abort);
            t.emit(TraceEvent::TxnIdRetire {
                txn: victim.seq,
                id: victim.id.raw(),
            });
        });
        let undo = self.cfg.features.discipline == Discipline::Undo;
        // Collect the victim's still-buffered records: under undo
        // they carry pre-images the repair needs (their data may
        // already sit in the victim's L1 merged with committed sibling
        // words). Under redo they hold new values and are dropped.
        let ev = match who {
            Victim::Suspended(_) => None,
            _ => self.victim_ctx(who).log_path.drain(),
        };
        let buffered: Vec<(PmAddr, PayloadBuf)> = ev
            .into_iter()
            .flat_map(|ev| ev.entries)
            .filter(|e| e.txn == victim.seq)
            .map(|e| (e.addr, e.payload))
            .collect();
        // Validate the victim's durable records before repairing from
        // them: a torn or corrupt record seen here (the crash tripped
        // mid-trace with a tearing fault plan armed) must abort the
        // repair deterministically rather than replay garbage onto the
        // image. The records stay in the log, so post-crash recovery —
        // which runs the full validate phase — finishes the roll-back
        // from whatever is intact.
        let repair_tainted = undo
            && self
                .dev
                .log()
                .records_of(victim.seq)
                .any(|r| !r.is_intact());
        if let Victim::Parked(core) = who {
            self.stats.cross_core_repair_aborts += u64::from(repair_tainted);
            self.trace(|t| {
                let records = self.dev.log().records_of(victim.seq).count() + buffered.len();
                t.emit(TraceEvent::CrossRepair {
                    victim: core as u8,
                    records: records.min(u32::MAX as usize) as u32,
                    deferred: repair_tainted,
                });
            });
        }
        // Compute the undo repairs *before* invalidating anything: the
        // pre-images apply onto the line's coherent contents, because
        // the image can be stale — a sibling word's only up-to-date
        // copy may be a committed-but-lazy cached value the victim
        // took over.
        let repairs: Vec<(PmAddr, [u8; LINE_BYTES])> = if undo && !repair_tainted {
            let mut per_line: BTreeMap<u64, Vec<(PmAddr, PayloadBuf)>> = BTreeMap::new();
            for r in self.dev.log().records_of(victim.seq) {
                per_line
                    .entry(r.addr.line().raw())
                    .or_default()
                    .push((r.addr, r.payload));
            }
            for (addr, payload) in &buffered {
                per_line
                    .entry(addr.line().raw())
                    .or_default()
                    .push((*addr, *payload));
            }
            per_line
                .into_iter()
                .map(|(line, recs)| {
                    let la = PmAddr::new(line);
                    let mut data = [0u8; LINE_BYTES];
                    self.peek_bytes(la, &mut data);
                    // Newest-first, so the oldest pre-image of a word
                    // lands last (a word is logged at most once per
                    // transaction, but line-granularity records can
                    // overlap).
                    for (addr, payload) in recs.iter().rev() {
                        let off = (addr.raw() - line) as usize;
                        data[off..off + payload.len()].copy_from_slice(payload);
                    }
                    (la, data)
                })
                .collect()
        } else {
            Vec::new()
        };
        // Invalidate the victim's cached updates: the L1 it ran on plus
        // the shared levels (lines it evicted while it was active).
        let l1 = match who {
            Victim::Parked(core) => &self.parked[core].as_ref().expect("victim is parked").l1,
            Victim::Own | Victim::Suspended(_) => &self.core.l1,
        };
        let doomed: Vec<PmAddr> = l1
            .iter()
            .chain(self.l2.iter())
            .filter(|e| e.meta.txn_id == Some(victim.id) && e.meta.dirty && !e.meta.lazy_pending)
            .map(|e| e.addr)
            .collect();
        for addr in doomed {
            self.invalidate_everywhere(addr);
        }
        self.now += 2000; // interrupt + syscall entry (§V-B)
        if !undo {
            self.victim_ctx(who).redo_shadow.clear();
        }
        // Repair through the gated device path — the image is never
        // mutated out of band, so a persist-event crash tripping
        // mid-abort leaves an exact event-prefix durable state, with
        // the surviving records still rolling the victim back at
        // recovery.
        for (la, data) in repairs {
            self.invalidate_everywhere(la);
            self.signature_persist_check(la);
            self.persist_line_sync(la, &data);
        }
        // The revocations are durable: the records must never be
        // replayed by a later recovery pass (they would clobber newer
        // committed data with stale pre-images). Keep them when a crash
        // tripped mid-repair — or when the repair was aborted on a
        // tainted record: recovery still needs them to finish the
        // roll-back.
        if !self.dev.crash_tripped() && !repair_tainted {
            self.dev.log_mut().drop_txn(victim.seq);
        }
        self.txreg.retire_clean(victim.id);
        self.stats.tx_aborts += 1;
        let seq = victim.seq;
        self.recycle_sets(victim);
        seq
    }

    /// The private context holding `who`'s cached state.
    fn victim_ctx(&mut self, who: Victim) -> &mut CoreCtx {
        match who {
            Victim::Parked(core) => self.parked[core].as_mut().expect("victim is parked"),
            Victim::Own | Victim::Suspended(_) => &mut self.core,
        }
    }

    /// Drops every cached copy of `line`, in every core's L1 and the
    /// shared levels.
    fn invalidate_everywhere(&mut self, line: PmAddr) {
        self.core.l1.invalidate(line);
        self.l2.invalidate(line);
        self.l3.invalidate(line);
        for ctx in self.parked.iter_mut().flatten() {
            ctx.l1.invalidate(line);
        }
    }

    /// Requester-wins conflict resolution before an access to `addr`
    /// (§V-C): every other open transaction — a thread's switched out
    /// on this core, or a parked core's — whose write set holds the
    /// line, or whose read set does when the access writes, aborts.
    /// Detection uses the read/write sets (the LogTM-SE-style mechanism
    /// the paper borrows for switched-out threads), which covers lines
    /// that were stolen to PM and lost their cache tags.
    fn resolve_conflicts(&mut self, addr: PmAddr, is_write: bool) {
        let line = addr.line().raw();
        let hits =
            |t: &CurTxn| t.write_set.contains(line) || (is_write && t.read_set.contains(line));
        loop {
            let who = if let Some(pos) = self.suspended.iter().position(hits) {
                Victim::Suspended(pos)
            } else if let Some(core) = self
                .parked
                .iter()
                .position(|c| c.as_ref().and_then(|c| c.cur.as_ref()).is_some_and(hits))
            {
                self.trace(|t| {
                    t.emit(TraceEvent::CrossConflict {
                        addr: addr.raw(),
                        holder: core as u8,
                    });
                });
                Victim::Parked(core)
            } else {
                return;
            };
            let seq = self.abort_txn(who);
            if let Victim::Parked(core) = who {
                self.conflict_aborts.push((core, seq));
            }
        }
    }

    /// Thread context switch (§V-C): before switching out, the OS
    /// kernel drains the log buffer so the outgoing thread's undo
    /// records are durable; the signatures and transaction-ID
    /// allocation state are left untouched — they are not specific to
    /// a context, and lazy-persistency dependencies keep being tracked
    /// across the switch. The open transaction (if any) resumes when
    /// the thread is scheduled back.
    pub fn context_switch(&mut self) {
        if let Some(ev) = self.core.log_path.drain() {
            self.persist_flush(ev, true);
        }
        self.now += 3000; // kernel entry/exit + state save
    }

    /// Switches the current thread out *with its transaction open*
    /// (§V-C): the kernel drains the log buffer, the transaction's
    /// cache-line metadata stays tagged with its 2-bit ID, and another
    /// thread may begin its own transaction. Returns the suspended
    /// transaction's sequence number for [`resume_txn`](Self::resume_txn).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open, or under the redo discipline
    /// (a suspended redo transaction would leave its shadow ambiguous).
    pub fn suspend_txn(&mut self) -> u64 {
        assert_eq!(
            self.cfg.features.discipline,
            Discipline::Undo,
            "suspension is supported for the undo discipline"
        );
        assert!(
            !self.cfg.battery_backed,
            "suspension with battery-backed caches is unsupported: the \
             failure flush cannot distinguish a suspended transaction's \
             uncommitted lines from committed ones"
        );
        let mut cur = self
            .core
            .cur
            .take()
            .expect("no open transaction to suspend");
        self.context_switch();
        let seq = cur.seq;
        cur.seal();
        self.suspended.push(cur);
        seq
    }

    /// Resumes the suspended transaction `seq` (the thread is
    /// scheduled back in).
    ///
    /// # Panics
    ///
    /// Panics if another transaction is active or `seq` is unknown.
    pub fn resume_txn(&mut self, seq: u64) {
        assert!(self.core.cur.is_none(), "a transaction is already active");
        let pos = self
            .suspended
            .iter()
            .position(|t| t.seq == seq)
            .unwrap_or_else(|| panic!("no suspended transaction {seq}"));
        self.core.cur = Some(self.suspended.swap_remove(pos));
        self.now += 3000; // schedule-in
    }

    /// Aborts the suspended transaction `seq` — the conflict-resolution
    /// path when the running thread collides with a switched-out one
    /// (§V-C "detect and resolve the conflicts when a thread is
    /// switched out"; requester wins).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not suspended.
    pub fn abort_suspended(&mut self, seq: u64) {
        let pos = self
            .suspended
            .iter()
            .position(|t| t.seq == seq)
            .unwrap_or_else(|| panic!("no suspended transaction {seq}"));
        self.abort_txn(Victim::Suspended(pos));
    }

    /// Forces every outstanding lazy transaction's deferred data
    /// durable (the "run four empty transactions" effect of §III-C4,
    /// exposed directly for tests and checkpoints).
    pub fn drain_lazy(&mut self) {
        if let Some(last) = self.lazy_txns.last().map(|lt| lt.id) {
            self.force_persist_through(last);
        }
    }

    /// Simulates a power failure: all volatile state (caches, log
    /// buffer, signatures, transaction registers) is lost; the WPQ
    /// drains (ADR). The durable image and log region survive.
    pub fn crash(&mut self) {
        if self.cfg.battery_backed {
            // The battery flushes every dirty private-cache line except
            // those of the in-flight transaction, which vanish —
            // automatic roll-back of cache-resident updates (§V-E).
            let cur_id = self.core.cur.as_ref().map(|c| c.id);
            let mut dirty: Vec<(PmAddr, [u8; LINE_BYTES])> = Vec::new();
            for cache in [&self.core.l1, &self.l2] {
                for e in cache.iter() {
                    let in_flight = cur_id.is_some() && e.meta.txn_id == cur_id;
                    if e.meta.dirty && !in_flight {
                        dirty.push((e.addr, e.data));
                    }
                }
            }
            dirty.sort_by_key(|(a, _)| a.raw());
            for (addr, data) in dirty {
                self.dev.persist_line(self.now, addr, &data);
            }
        }
        self.dev.crash();
        self.l2.clear();
        self.l3.clear();
        self.lazy_txns.clear();
        self.txreg.reset();
        self.suspended.clear();
        for ctx in std::iter::once(&mut self.core).chain(self.parked.iter_mut().flatten()) {
            ctx.clear();
        }
    }

    /// Mutable device access for recovery (`slpmt_core::recovery`).
    pub(crate) fn device_mut(&mut self) -> &mut PmDevice {
        &mut self.dev
    }

    // ------------------------------------------------------------------
    // Multi-core support

    /// Makes `core` the executing core (a no-op when it already is):
    /// its private context is swapped in, and the tracer's core is
    /// stamped with its ID (so every persist record names the core
    /// that issued it). Pure bookkeeping — no cycles, no cache
    /// movement: the cores run concurrently in reality; the caller
    /// interleaves them onto one deterministic timeline.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no core `core`.
    pub fn switch_core(&mut self, core: usize) {
        if core == self.active {
            return;
        }
        if let Some(cur) = &mut self.core.cur {
            cur.seal();
        }
        // Both contexts are boxed, so this moves two pointers —
        // activation cost is independent of L1 size or shadow depth.
        let ctx = self
            .parked
            .get_mut(core)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("core {core} out of range"));
        self.parked[self.active] = Some(std::mem::replace(&mut self.core, ctx));
        self.active = core;
        if cfg!(feature = "no-trace") {
            return;
        }
        if let Some(t) = &self.tracer {
            t.borrow_mut().set_core(core as u8);
        }
    }

    /// Sequence number of the *active* core's open transaction.
    pub(crate) fn cur_seq(&self) -> Option<u64> {
        self.core.cur.as_ref().map(|c| c.seq)
    }

    /// Drains the `(core, seq)` of every parked-core transaction that a
    /// conflicting access aborted since the last call (requester wins,
    /// §V-C), in abort order.
    pub fn take_conflict_aborts(&mut self) -> Vec<(usize, u64)> {
        std::mem::take(&mut self.conflict_aborts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(scheme: Scheme) -> Machine {
        Machine::new(MachineConfig::for_scheme(scheme))
    }

    fn tiny(scheme: Scheme) -> Machine {
        Machine::new(MachineConfig::for_scheme(scheme).with_tiny_caches())
    }

    const A: PmAddr = PmAddr::new(0x10000);

    #[test]
    fn load_returns_setup_value() {
        let mut m = machine(Scheme::Slpmt);
        m.setup_write(A, &42u64.to_le_bytes());
        assert_eq!(m.load_u64(A), 42);
        assert_eq!(m.stats().loads, 1);
    }

    #[test]
    fn store_outside_txn_is_volatile_until_eviction() {
        let mut m = machine(Scheme::Slpmt);
        m.store_u64(A, 7, StoreKind::Store);
        assert_eq!(m.peek_u64(A), 7);
        // Not yet durable: it sits dirty in L1.
        assert_eq!(m.device().image().read_u64(A), 0);
    }

    #[test]
    fn committed_store_is_durable() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::Store);
        m.tx_commit();
        assert_eq!(m.device().image().read_u64(A), 7);
        assert_eq!(m.stats().commit_line_persists, 1);
        assert_eq!(m.stats().log_records_created, 1);
    }

    #[test]
    fn undo_ordering_logs_before_data() {
        // After commit the log was truncated, but traffic shows both the
        // record and the data line were persisted.
        let mut m = machine(Scheme::Fg);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::Store);
        m.tx_commit();
        let t = m.device().traffic();
        assert!(t.log_records >= 1);
        assert_eq!(t.data_lines, 1);
    }

    #[test]
    fn log_free_store_creates_no_record() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::log_free());
        m.tx_commit();
        assert_eq!(m.stats().log_records_created, 0);
        // But the data still persisted eagerly.
        assert_eq!(m.device().image().read_u64(A), 7);
    }

    #[test]
    fn log_free_ignored_by_baseline() {
        let mut m = machine(Scheme::Fg);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::log_free());
        m.tx_commit();
        assert_eq!(m.stats().log_records_created, 1, "FG logs everything");
    }

    #[test]
    fn lazy_line_stays_volatile_after_commit() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::lazy_log_free());
        m.tx_commit();
        assert_eq!(m.peek_u64(A), 7);
        assert_eq!(m.device().image().read_u64(A), 0, "deferred");
        assert_eq!(m.stats().lazy_lines_deferred, 1);
        assert_eq!(m.outstanding_lazy_txns(), 1);
    }

    #[test]
    fn drain_lazy_makes_deferred_data_durable() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::lazy_log_free());
        m.tx_commit();
        m.drain_lazy();
        assert_eq!(m.device().image().read_u64(A), 7);
        assert_eq!(m.stats().lazy_lines_forced, 1);
        assert_eq!(m.outstanding_lazy_txns(), 0);
    }

    #[test]
    fn lazy_logged_discards_record_when_line_cached() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::lazy_logged());
        m.tx_commit();
        assert_eq!(m.stats().log_records_created, 1);
        assert_eq!(m.stats().log_records_discarded, 1);
        assert_eq!(
            m.device().traffic().log_records,
            1,
            "only the commit marker"
        );
    }

    #[test]
    fn eager_store_does_not_cancel_deferral_of_other_words() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::lazy_log_free());
        m.store_u64(A.add(8), 8, StoreKind::Store); // same line, eager
        m.tx_commit();
        // The eager word is durable at commit, but the lazy log-free
        // word has no record and must not reach PM before the marker:
        // commit merges the image value for the deferred word and the
        // line stays pending (the Pattern 1 free case).
        assert_eq!(m.device().image().read_u64(A.add(8)), 8);
        assert_eq!(m.device().image().read_u64(A), 0, "still deferred");
        assert_eq!(m.stats().lazy_lines_deferred, 1);
        m.drain_lazy();
        assert_eq!(m.device().image().read_u64(A), 7);
        assert_eq!(m.device().image().read_u64(A.add(8)), 8);
    }

    #[test]
    fn eager_store_cancels_deferral_of_its_own_word() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::lazy_log_free());
        m.store_u64(A, 8, StoreKind::Store); // same word, eager
        m.tx_commit();
        // The overwrite supersedes the deferral: the word is logged
        // and persists in place at commit like any eager store.
        assert_eq!(m.device().image().read_u64(A), 8);
        assert_eq!(m.stats().lazy_lines_deferred, 0);
    }

    #[test]
    fn store_to_foreign_lazy_line_takes_ownership() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::lazy_log_free());
        m.tx_commit();
        // A later transaction overwrites the deferred line with an
        // eager store: the deferral is cancelled (§III-C1) and the
        // line persists at the new transaction's commit.
        m.tx_begin();
        m.store_u64(A, 9, StoreKind::Store);
        m.tx_commit();
        assert_eq!(m.device().image().read_u64(A), 9);
        // The earlier transaction no longer owns any deferred line;
        // draining it persists nothing new.
        let forced_before = m.stats().lazy_lines_forced;
        m.drain_lazy();
        assert_eq!(m.stats().lazy_lines_forced, forced_before);
        assert_eq!(m.device().image().read_u64(A), 9);
    }

    #[test]
    fn lazy_store_to_foreign_lazy_line_forces_it_first() {
        // A lazy store logs no pre-image, so it cannot re-own the line
        // as §III-C1 has it: an abort would lose the committed 7. The
        // earlier transaction's line is forced durable instead.
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::lazy_log_free());
        m.tx_commit();
        m.tx_begin();
        m.store_u64(A, 9, StoreKind::lazy_log_free());
        m.tx_commit();
        assert_eq!(m.stats().lazy_lines_forced, 1);
        assert_eq!(m.device().image().read_u64(A), 7, "forced, then deferred");
        assert_eq!(m.peek_u64(A), 9);
        m.drain_lazy();
        assert_eq!(m.device().image().read_u64(A), 9, "newest value persists");
    }

    #[test]
    fn load_of_foreign_lazy_line_forces_persistence() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::lazy_log_free());
        m.tx_commit();
        m.tx_begin();
        let v = m.load_u64(A);
        assert_eq!(v, 7);
        assert_eq!(m.device().image().read_u64(A), 7);
        m.tx_commit();
    }

    #[test]
    fn id_recycling_persists_oldest() {
        let mut m = machine(Scheme::Slpmt);
        // Five lazy transactions on distinct lines exhaust the four IDs.
        for i in 0..5u64 {
            m.tx_begin();
            m.store_u64(
                PmAddr::new(0x10000 + i * 64),
                i + 1,
                StoreKind::lazy_log_free(),
            );
            m.tx_commit();
        }
        // The first transaction's data was forced durable.
        assert_eq!(m.device().image().read_u64(PmAddr::new(0x10000)), 1);
        // The most recent is still deferred.
        assert_eq!(
            m.device().image().read_u64(PmAddr::new(0x10000 + 4 * 64)),
            0
        );
        assert_eq!(m.outstanding_lazy_txns(), 4);
    }

    #[test]
    fn sustained_lazy_transactions_bound_deferral() {
        // §III-C2/C4: with every transaction deferring data, ID
        // recycling forces each transaction durable within four
        // successors — early data can never stay volatile forever.
        let mut m = machine(Scheme::Slpmt);
        for i in 0..8u64 {
            m.tx_begin();
            m.store_u64(
                PmAddr::new(0x10000 + i * 64),
                i + 1,
                StoreKind::lazy_log_free(),
            );
            m.tx_commit();
        }
        for i in 0..4u64 {
            assert_eq!(
                m.device().image().read_u64(PmAddr::new(0x10000 + i * 64)),
                i + 1,
                "transaction {i} forced by ID recycling"
            );
        }
        // And drain_lazy flushes the tail explicitly (the paper's
        // empty-transaction idiom).
        m.drain_lazy();
        for i in 4..8u64 {
            assert_eq!(
                m.device().image().read_u64(PmAddr::new(0x10000 + i * 64)),
                i + 1
            );
        }
    }

    #[test]
    fn crash_loses_volatile_keeps_durable() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::Store);
        m.tx_commit();
        m.tx_begin();
        m.store_u64(A.add(64), 9, StoreKind::lazy_log_free());
        m.tx_commit();
        m.crash();
        assert_eq!(m.device().image().read_u64(A), 7);
        assert_eq!(m.device().image().read_u64(A.add(64)), 0, "lazy data lost");
        assert_eq!(m.peek_u64(A), 7, "reads fall back to the image");
    }

    #[test]
    fn abort_rolls_back_cached_updates() {
        let mut m = machine(Scheme::Slpmt);
        m.setup_write(A, &1u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        assert_eq!(m.peek_u64(A), 99);
        m.tx_abort();
        assert_eq!(m.peek_u64(A), 1);
        assert_eq!(m.stats().tx_aborts, 1);
    }

    #[test]
    fn abort_rolls_back_stolen_lines() {
        // Tiny caches force mid-transaction overflow (steal); the
        // persisted undo records must repair the image on abort.
        let mut m = tiny(Scheme::Fg);
        m.setup_write(A, &5u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 99, StoreKind::Store);
        // Thrash the caches so line A overflows to PM.
        for i in 0..512u64 {
            m.store_u64(PmAddr::new(0x40000 + i * 64), i, StoreKind::Store);
        }
        m.tx_abort();
        assert_eq!(m.peek_u64(A), 5, "stolen update revoked");
        assert_eq!(m.device().image().read_u64(A), 5);
    }

    #[test]
    fn overflow_persists_lazy_data_naturally() {
        let mut m = tiny(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::lazy_log_free());
        m.tx_commit();
        for i in 0..512u64 {
            m.load_u64(PmAddr::new(0x40000 + i * 64));
        }
        assert_eq!(m.device().image().read_u64(A), 7, "overflowed to PM");
        assert!(m.stats().lazy_lines_overflowed >= 1);
    }

    #[test]
    fn word_logging_creates_one_record_per_word() {
        let mut m = machine(Scheme::Fg);
        m.tx_begin();
        m.store_u64(A, 1, StoreKind::Store);
        m.store_u64(A, 2, StoreKind::Store); // same word: no new record
        m.store_u64(A.add(8), 3, StoreKind::Store); // new word: record
        m.tx_commit();
        assert_eq!(m.stats().log_records_created, 2);
    }

    #[test]
    fn line_granularity_logs_whole_line_once() {
        let mut m = machine(Scheme::FgCl);
        m.tx_begin();
        m.store_u64(A, 1, StoreKind::Store);
        m.store_u64(A.add(8), 2, StoreKind::Store);
        m.tx_commit();
        assert_eq!(m.stats().log_records_created, 1);
        // The single record covers the full 64-byte line (+8 tag).
        assert!(m.device().traffic().log_bytes >= 72);
    }

    #[test]
    fn atom_traffic_exceeds_fg_for_sparse_updates() {
        let run = |scheme| {
            let mut m = machine(scheme);
            m.tx_begin();
            for i in 0..8u64 {
                m.store_u64(PmAddr::new(0x10000 + i * 64), i, StoreKind::Store);
            }
            m.tx_commit();
            m.device().traffic().total_bytes()
        };
        assert!(
            run(Scheme::Atom) > run(Scheme::Fg),
            "line-granularity records cost more than coalesced words"
        );
    }

    #[test]
    fn ede_traffic_exceeds_fg_for_coalescible_runs() {
        // Sequential multi-word writes: the tiered buffer buddy-merges
        // each line's eight word records into one 72-byte line record,
        // while bufferless EDE pays eight 16-byte records per line.
        let run = |scheme| {
            let mut m = machine(scheme);
            m.tx_begin();
            for i in 0..32u64 {
                m.store_u64(PmAddr::new(0x10000 + i * 8), i, StoreKind::Store);
            }
            m.tx_commit();
            m.device().traffic().log_bytes
        };
        let ede = run(Scheme::Ede);
        let fg = run(Scheme::Fg);
        assert!(
            ede > fg,
            "EDE {ede} B vs FG {fg} B: buffer coalescing must win"
        );
    }

    #[test]
    fn slpmt_beats_fg_on_a_log_free_value_write() {
        let run = |scheme| {
            let mut m = machine(scheme);
            m.tx_begin();
            // A freshly allocated 256-byte value: log-free candidate.
            let val = vec![0xCD; 256];
            m.store_bytes(PmAddr::new(0x20000), &val, StoreKind::log_free());
            // One logged metadata update.
            m.store_u64(A, 1, StoreKind::Store);
            m.tx_commit();
            (m.now(), m.device().traffic().total_bytes())
        };
        let (t_slpmt, b_slpmt) = run(Scheme::Slpmt);
        let (t_fg, b_fg) = run(Scheme::Fg);
        assert!(b_slpmt < b_fg, "selective logging reduces traffic");
        assert!(t_slpmt < t_fg, "and reduces commit latency");
    }

    #[test]
    fn speculative_logging_survives_eviction_round_trip() {
        let mut m = tiny(Scheme::Slpmt);
        m.tx_begin();
        // Log three words of a group, then evict the line from L1 (but
        // not from L2: the thrash lines share A's L1 set — tiny L1 has
        // 4 sets — while landing in different L2 sets).
        for w in 0..3u64 {
            m.store_u64(A.add(w * 8), w, StoreKind::Store);
        }
        let created_before = m.stats().log_records_created;
        assert_eq!(created_before, 3);
        for line_no in [4u64, 8, 12, 20] {
            m.load_u64(PmAddr::new(line_no * 64));
        }
        assert!(m.core.l1.peek(A).is_none(), "A evicted from L1");
        assert!(m.l2.peek(A).is_some(), "A still in L2");
        // Re-store one of the words: with speculative logging the group
        // bit survived the round trip, so no duplicate record appears.
        let spec_created = m.stats().log_records_created;
        m.store_u64(A, 99, StoreKind::Store);
        assert_eq!(
            m.stats().log_records_created,
            spec_created,
            "group aggregated by speculative fill — no re-log"
        );
        m.tx_commit();
    }

    #[test]
    fn peek_bytes_merges_cache_and_image() {
        let mut m = machine(Scheme::Slpmt);
        m.setup_write(A, &[1u8; 128]);
        m.tx_begin();
        m.store_u64(A.add(64), 0xFFFF_FFFF_FFFF_FFFF, StoreKind::Store);
        let mut buf = [0u8; 128];
        m.peek_bytes(A, &mut buf);
        assert_eq!(buf[0], 1);
        assert_eq!(buf[64], 0xFF);
        assert_eq!(buf[72], 1);
        m.tx_commit();
    }

    #[test]
    fn peeks_read_the_image_after_a_crash() {
        let mut m = machine(Scheme::Slpmt);
        m.setup_write(A, &[1u8; 128]);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::Store);
        m.store_u64(A.add(64), 9, StoreKind::Store);
        m.tx_commit();
        m.tx_begin();
        m.store_u64(A.add(8), 11, StoreKind::Store);
        m.crash();
        assert!(m.is_cold());
        let (mut peeked, mut image) = ([0u8; 128], [0u8; 128]);
        m.peek_bytes(A, &mut peeked);
        m.device().image().read(A, &mut image);
        assert_eq!(peeked, image);
        for w in 0..16 {
            let at = A.add(8 * w);
            assert_eq!(m.peek_u64(at), m.device().image().read_u64(at), "{at}");
        }
    }

    #[test]
    fn peeks_see_a_parked_cores_dirty_line() {
        let mut m = Machine::with_cores(MachineConfig::for_scheme(Scheme::Slpmt), 2);
        m.setup_write(A, &[1u8; 64]);
        m.switch_core(1);
        m.tx_begin();
        m.store_u64(A, 0xABCD, StoreKind::Store);
        m.switch_core(0);
        // Only the parked core's L1 holds the line; the image is stale.
        assert!(m.core.l1.is_empty() && m.l2.is_empty() && m.l3.is_empty());
        assert_eq!(m.device().image().read_u64(A), 0x0101_0101_0101_0101);
        assert_eq!(m.peek_u64(A), 0xABCD);
        let mut buf = [0u8; 16];
        m.peek_bytes(A, &mut buf);
        assert_eq!(buf[..8], 0xABCDu64.to_le_bytes());
        assert_eq!(buf[8..], [1u8; 8]);
        m.switch_core(1);
        m.tx_commit();
    }

    #[test]
    fn peek_bytes_of_nothing_reads_nothing() {
        let mut m = machine(Scheme::Slpmt);
        m.setup_write(A, &[1u8; 64]);
        for addr in [PmAddr::new(0), A, PmAddr::new(!7)] {
            m.peek_bytes(addr, &mut []);
        }
        let mut buf = [0u8; 8];
        m.peek_bytes(A, &mut buf);
        assert_eq!(buf, [1u8; 8]);
    }

    #[test]
    #[should_panic(expected = "nested transactions")]
    fn nested_txn_rejected() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.tx_begin();
    }

    #[test]
    #[should_panic(expected = "bypass a cached copy")]
    fn setup_write_through_cache_rejected() {
        let mut m = machine(Scheme::Slpmt);
        m.load_u64(A);
        m.setup_write(A, &1u64.to_le_bytes());
    }

    #[test]
    fn timing_monotonicity_and_commit_stall() {
        let mut m = machine(Scheme::Fg);
        let t0 = m.now();
        m.tx_begin();
        m.store_u64(A, 1, StoreKind::Store);
        let t1 = m.now();
        assert!(t1 > t0);
        m.tx_commit();
        assert!(m.now() > t1);
        assert!(m.stats().commit_stall_cycles > 0);
    }

    #[test]
    fn context_switch_drains_the_log_buffer() {
        // §V-C: before a switch the kernel drains the log buffer; the
        // open transaction then resumes and commits normally.
        let mut m = machine(Scheme::Slpmt);
        m.setup_write(A, &1u64.to_le_bytes());
        m.tx_begin();
        m.store_u64(A, 2, StoreKind::Store);
        assert_eq!(m.device().log().len(), 0, "record still buffered");
        m.context_switch();
        assert_eq!(m.device().log().len(), 1, "record persisted at switch");
        // Resume: more stores, then a normal commit.
        m.store_u64(A.add(8), 3, StoreKind::Store);
        m.tx_commit();
        assert_eq!(m.device().image().read_u64(A), 2);
        assert_eq!(m.device().image().read_u64(A.add(8)), 3);
        // Crash-interruption after a switch still rolls back cleanly.
        m.tx_begin();
        m.store_u64(A, 9, StoreKind::Store);
        m.context_switch();
        m.crash();
        let report = m.recover();
        assert!(report.undo_applied >= 1, "switched-out record replayed");
        assert_eq!(m.device().image().read_u64(A), 2);
    }

    #[test]
    fn context_switch_leaves_lazy_tracking_intact() {
        let mut m = machine(Scheme::Slpmt);
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::lazy_log_free());
        m.tx_commit();
        m.context_switch();
        assert_eq!(m.outstanding_lazy_txns(), 1, "signatures survive switches");
        m.drain_lazy();
        assert_eq!(m.device().image().read_u64(A), 7);
    }

    #[test]
    fn write_latency_sweep_slows_commit() {
        let run = |ns| {
            let mut m = machine(Scheme::Fg);
            m.set_write_latency_ns(ns);
            m.tx_begin();
            for i in 0..32u64 {
                m.store_u64(PmAddr::new(0x10000 + i * 64), i, StoreKind::Store);
            }
            m.tx_commit();
            m.now()
        };
        assert!(run(2300) > run(500));
    }
}
