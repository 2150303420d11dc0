//! Benchmark driver: the [`DurableIndex`] trait and the one measured
//! run behind every figure, matrix and sharded run — [`run`] of a
//! [`RunSpec`] — plus the host worker pool it fans shards over
//! ([`par_map_with`]).

use crate::ctx::{AnnotationSource, PmContext};
use crate::sharded::{partition_mixed, partition_ops};
use crate::ycsb::{MixedOp, YcsbOp};
use slpmt_annotate::SiteId;
use slpmt_core::{MachineConfig, SchemeKind};
use slpmt_pmem::{PmAddr, WriteTraffic, LINE_BYTES};
use slpmt_ptm::PtmTraffic;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The reads of a point descent ([`DurableIndex::locate`]), in one of
/// two modes: timed through the simulated cache hierarchy
/// ([`PmContext::load`], [`PmContext::load_bytes`],
/// [`PmContext::compute`]) or untimed ([`PmContext::peek`],
/// [`PmContext::peek_bytes`], compute charges dropped). The timed mode
/// serves `get` and `update`, the untimed one `value_of` and
/// `contains`.
pub enum Reader<'a> {
    /// Timed loads and compute charges.
    Timed(&'a mut PmContext),
    /// Untimed peeks; compute is free.
    Peek(&'a PmContext),
}

/// What a search reads: words, byte runs and compute charges. A
/// [`PmContext`] reads timed; a [`Reader`] in either mode. Search
/// helpers shared by lookups and updates are generic over it.
pub trait Load {
    /// Reads the word at `addr`.
    fn load(&mut self, addr: PmAddr) -> u64;
    /// Reads `buf.len()` bytes at `addr`.
    fn load_bytes(&mut self, addr: PmAddr, buf: &mut [u8]);
    /// Charges `cycles` of compute.
    fn compute(&mut self, cycles: u64);
}

impl Load for PmContext {
    fn load(&mut self, addr: PmAddr) -> u64 {
        PmContext::load(self, addr)
    }
    fn load_bytes(&mut self, addr: PmAddr, buf: &mut [u8]) {
        PmContext::load_bytes(self, addr, buf);
    }
    fn compute(&mut self, cycles: u64) {
        PmContext::compute(self, cycles);
    }
}

impl Load for Reader<'_> {
    fn load(&mut self, addr: PmAddr) -> u64 {
        match self {
            Reader::Timed(ctx) => ctx.load(addr),
            Reader::Peek(ctx) => ctx.peek(addr),
        }
    }
    fn load_bytes(&mut self, addr: PmAddr, buf: &mut [u8]) {
        match self {
            Reader::Timed(ctx) => ctx.load_bytes(addr, buf),
            Reader::Peek(ctx) => ctx.peek_bytes(addr, buf),
        }
    }
    fn compute(&mut self, cycles: u64) {
        if let Reader::Timed(ctx) = self {
            ctx.compute(cycles);
        }
    }
}

/// Where [`DurableIndex::locate`] found a key's value, and how an
/// update rewrites it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueAt {
    /// `len` value bytes inside the key's node at `at`. An update
    /// overwrites them in place through `site`; the undo log captures
    /// the old bytes, so a crash rolls the update back atomically.
    Inline {
        /// First value byte.
        at: PmAddr,
        /// Value length in bytes.
        len: u64,
        /// Store site of the in-place overwrite.
        site: SiteId,
    },
    /// A `len`-byte value blob at `blob`, named by the pointer word at
    /// `ptr`. An update is the paper's Pattern 1 copy-on-write: a fresh
    /// blob written log-free through `blob_site`, the logged pointer
    /// swapped through `ptr_site`, the old blob freed at commit. A
    /// crash either keeps the old blob (pointer rolled back, fresh blob
    /// leaks to GC) or the new one.
    Blob {
        /// The pointer word.
        ptr: PmAddr,
        /// The blob it names.
        blob: PmAddr,
        /// Value length in bytes.
        len: u64,
        /// Store site of the fresh blob's bytes.
        blob_site: SiteId,
        /// Store site of the pointer swap.
        ptr_site: SiteId,
    },
}

impl ValueAt {
    /// Loads the blob pointer at `ptr` through `r`: the blob's
    /// [`ValueAt::Blob`], or `None` when the pointer is null.
    pub(crate) fn blob(
        r: &mut impl Load,
        ptr: PmAddr,
        len: u64,
        blob_site: SiteId,
        ptr_site: SiteId,
    ) -> Option<ValueAt> {
        let blob = r.load(ptr);
        (blob != 0).then_some(ValueAt::Blob {
            ptr,
            blob: PmAddr::new(blob),
            len,
            blob_site,
            ptr_site,
        })
    }

    /// The first value byte and the value length.
    fn bytes(self) -> (PmAddr, u64) {
        match self {
            ValueAt::Inline { at, len, .. } => (at, len),
            ValueAt::Blob { blob, len, .. } => (blob, len),
        }
    }

    /// Reads the value bytes through `r`.
    fn read(self, r: &mut impl Load) -> Vec<u8> {
        let (at, len) = self.bytes();
        let mut v = vec![0u8; len as usize];
        r.load_bytes(at, &mut v);
        v
    }

    /// Replaces the value with `value` inside the caller's transaction.
    fn write(self, ctx: &mut PmContext, value: &[u8]) {
        let (_, len) = self.bytes();
        assert_eq!(value.len() as u64, len, "value size fixed at creation");
        match self {
            ValueAt::Inline { at, site, .. } => ctx.store_bytes(at, value, site),
            ValueAt::Blob {
                ptr,
                blob,
                blob_site,
                ptr_site,
                ..
            } => {
                let fresh = ctx.alloc(len);
                ctx.store_bytes(fresh, value, blob_site);
                ctx.store(ptr, fresh.raw(), ptr_site);
                ctx.free(blob);
            }
        }
    }
}

/// One step of [`DurableIndex::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// A heap allocation the structure owns.
    Block(PmAddr),
    /// A present key and the address of its value bytes.
    Entry(u64, PmAddr),
}

/// The body of [`DurableIndex::update`]: one durable transaction that
/// descends to `key` timed ([`DurableIndex::locate`]) and, when the key
/// is present, rewrites its value ([`ValueAt`]). A miss commits its
/// empty transaction. Returns whether the key was present.
pub(crate) fn update_value<I: DurableIndex + ?Sized>(
    idx: &I,
    ctx: &mut PmContext,
    key: u64,
    value: &[u8],
) -> bool {
    ctx.tx_begin();
    let at = idx.locate(&mut Reader::Timed(ctx), key);
    if let Some(at) = at {
        at.write(ctx, value);
    }
    ctx.tx_commit();
    at.is_some()
}

/// A durable key-value index evaluated by the paper.
///
/// Each index writes two things once: its point descent,
/// [`locate`](Self::locate), and its structure walk,
/// [`walk`](Self::walk). The point operations are defaults over
/// `locate`: [`get`](Self::get) runs it timed and reads the value,
/// [`value_of`](Self::value_of) and [`contains`](Self::contains) run it
/// untimed, and [`update`](Self::update) runs it timed inside a
/// transaction and rewrites the value it finds. The untimed observers
/// [`for_each_entry`](Self::for_each_entry), [`len`](Self::len) and
/// [`reachable`](Self::reachable) are defaults over `walk`.
///
/// `insert` and `remove` run one durable transaction per call (the
/// YCSB-load operation granularity). `check_invariants` inspects the
/// structure via peeks; `recover` repairs it after
/// [`PmContext::crash_and_recover`] replayed the undo log.
pub trait DurableIndex {
    /// Benchmark name as figures print it.
    fn name(&self) -> &'static str;

    /// Inserts `key → value` in one durable transaction.
    fn insert(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]);

    /// Removes `key` in one durable transaction, returning whether it
    /// was present. Deallocated regions are the Pattern 1 *free* case:
    /// stores into them need neither log nor persistence, and the
    /// frees themselves defer to commit.
    fn remove(&mut self, ctx: &mut PmContext, key: u64) -> bool;

    /// Descends to `key`'s value, with every read and compute charge
    /// going through `r`, and returns where it lives, or `None` when
    /// the key is absent. A blob index loads the value pointer too and
    /// reports a null one as absent. The descent reads no value bytes.
    fn locate(&self, r: &mut Reader<'_>, key: u64) -> Option<ValueAt>;

    /// Calls `f` once with [`Visit::Block`] for every heap allocation
    /// the structure owns (roots included) and once with
    /// [`Visit::Entry`] for every present key, in one untimed walk in
    /// the structure's own order. The walk does not descend search
    /// paths, so it checks no placement rule:
    /// [`check_invariants`](Self::check_invariants) does.
    fn walk(&self, ctx: &PmContext, f: &mut dyn FnMut(Visit));

    /// Structure-specific invariants (chain integrity, BST/RB/AVL
    /// properties, heap order, …).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String>;

    /// Post-crash, post-undo-replay structure recovery: rebuild
    /// lazily-persistent data (parent pointers, heights, moved data,
    /// counters) from what is durable.
    fn recover(&mut self, ctx: &mut PmContext);

    /// Timed lookup: reads run through the simulated cache hierarchy
    /// (no transaction needed — reads are non-mutating).
    fn get(&self, ctx: &mut PmContext, key: u64) -> Option<Vec<u8>> {
        let mut r = Reader::Timed(ctx);
        self.locate(&mut r, key).map(|at| at.read(&mut r))
    }

    /// Replaces `key`'s value in one durable transaction, returning
    /// whether the key was present: the timed [`locate`](Self::locate)
    /// and the rewrite [`ValueAt`] describes. A miss commits its empty
    /// transaction.
    fn update(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) -> bool {
        update_value(self, ctx, key, value)
    }

    /// Whether `key` is present (untimed).
    fn contains(&self, ctx: &PmContext, key: u64) -> bool {
        self.locate(&mut Reader::Peek(ctx), key).is_some()
    }

    /// The value bytes stored for `key`, if present: the untimed
    /// [`get`](Self::get). Like `get`, it is valid on a recovered
    /// structure: after a crash, call it once [`recover`](Self::recover)
    /// has rebuilt the lazily-persistent search state (the skiplist's
    /// towers).
    fn value_of(&self, ctx: &PmContext, key: u64) -> Option<Vec<u8>> {
        let mut r = Reader::Peek(ctx);
        self.locate(&mut r, key).map(|at| at.read(&mut r))
    }

    /// Calls `f(key, value address)` once for every present key: the
    /// [`Visit::Entry`] steps of [`walk`](Self::walk). The value bytes
    /// at the address are what [`value_of`](Self::value_of) returns
    /// for the key.
    fn for_each_entry(&self, ctx: &PmContext, f: &mut dyn FnMut(u64, PmAddr)) {
        self.walk(ctx, &mut |v| {
            if let Visit::Entry(key, at) = v {
                f(key, at);
            }
        });
    }

    /// Number of keys present (untimed).
    fn len(&self, ctx: &PmContext) -> usize {
        let mut count = 0;
        self.walk(ctx, &mut |v| {
            count += usize::from(matches!(v, Visit::Entry(..)))
        });
        count
    }

    /// `true` when the index holds no keys.
    fn is_empty(&self, ctx: &PmContext) -> bool {
        self.len(ctx) == 0
    }

    /// Every heap allocation reachable from the structure's roots (the
    /// [`Visit::Block`] steps of [`walk`](Self::walk), input to the
    /// post-crash GC), in ascending address order, so
    /// [`inspect`](crate::inspect) and [`PmContext::gc`] merge it with
    /// the heap's live map without sorting it again. A block the walk
    /// meets twice is listed twice.
    fn reachable(&self, ctx: &PmContext) -> Vec<PmAddr> {
        let mut out = Vec::new();
        self.walk(ctx, &mut |v| {
            if let Visit::Block(a) = v {
                out.push(a);
            }
        });
        out.sort_unstable();
        out
    }

    /// Timed range scan: every `(key, value)` with `lo <= key <= hi`,
    /// in key order, when the index is ordered (`None` otherwise —
    /// hash-style indexes can't serve ranges, and mixed runners
    /// degrade their scans to point lookups).
    fn scan_range(&mut self, ctx: &mut PmContext, lo: u64, hi: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        let _ = (ctx, lo, hi);
        None
    }
}

/// Which index a run instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Chained hash table with resizing.
    Hashtable,
    /// Red-black tree.
    Rbtree,
    /// Array max-heap.
    Heap,
    /// AVL tree.
    Avl,
    /// PMDK-style KV store, B-tree index.
    KvBtree,
    /// PMDK-style KV store, crit-bit-tree index.
    KvCtree,
    /// PMDK-style KV store, radix-tree index.
    KvRtree,
    /// PMDK-style KV store, skiplist index (extension backend).
    KvSkiplist,
}

impl IndexKind {
    /// The four kernel benchmarks (Figure 8).
    pub const KERNELS: [IndexKind; 4] = [
        IndexKind::Hashtable,
        IndexKind::Rbtree,
        IndexKind::Heap,
        IndexKind::Avl,
    ];

    /// The PMKV backends (Figure 14).
    pub const PMKV: [IndexKind; 3] = [IndexKind::KvBtree, IndexKind::KvCtree, IndexKind::KvRtree];

    /// Every implemented index, including extension backends.
    pub const ALL: [IndexKind; 8] = [
        IndexKind::Hashtable,
        IndexKind::Rbtree,
        IndexKind::Heap,
        IndexKind::Avl,
        IndexKind::KvBtree,
        IndexKind::KvCtree,
        IndexKind::KvRtree,
        IndexKind::KvSkiplist,
    ];

    /// Builds the index (setup is untimed) and returns it with its
    /// resolved annotation table installed into `ctx`.
    pub fn build(
        self,
        ctx: &mut PmContext,
        value_size: usize,
        source: AnnotationSource,
    ) -> Box<dyn DurableIndex> {
        match self {
            IndexKind::Hashtable => {
                Box::new(crate::hashtable::Hashtable::new(ctx, value_size, source))
            }
            IndexKind::Rbtree => Box::new(crate::rbtree::Rbtree::new(ctx, value_size, source)),
            IndexKind::Heap => Box::new(crate::heap::MaxHeap::new(ctx, value_size, source)),
            IndexKind::Avl => Box::new(crate::avl::AvlTree::new(ctx, value_size, source)),
            IndexKind::KvBtree => Box::new(crate::kv::btree::BtreeKv::new(ctx, value_size, source)),
            IndexKind::KvCtree => Box::new(crate::kv::ctree::CtreeKv::new(ctx, value_size, source)),
            IndexKind::KvRtree => Box::new(crate::kv::rtree::RtreeKv::new(ctx, value_size, source)),
            IndexKind::KvSkiplist => Box::new(crate::kv::skiplist::SkiplistKv::new(
                ctx, value_size, source,
            )),
        }
    }
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IndexKind::Hashtable => "hashtable",
            IndexKind::Rbtree => "rbtree",
            IndexKind::Heap => "heap",
            IndexKind::Avl => "avl",
            IndexKind::KvBtree => "kv-btree",
            IndexKind::KvCtree => "kv-ctree",
            IndexKind::KvRtree => "kv-rtree",
            IndexKind::KvSkiplist => "kv-skiplist",
        };
        f.write_str(s)
    }
}

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme simulated (hardware design or software PTM flavour).
    pub scheme: SchemeKind,
    /// Index evaluated.
    pub kind: IndexKind,
    /// Total simulated cycles for the measured phase.
    pub cycles: u64,
    /// PM write traffic for the measured phase. For software flavours
    /// the log-arena persists are reattributed from data to log
    /// traffic (the device cannot tell a software log line from data).
    pub traffic: WriteTraffic,
    /// Logical payload bytes the workload stored during the measured
    /// phase — the write-amplification denominator.
    pub logical_bytes: u64,
    /// Machine event counters.
    pub stats: slpmt_core::MachineStats,
}

impl RunResult {
    /// Write-amplification factor: PM media bytes written (data + log)
    /// per logical payload byte stored. `NaN`-free: returns 0 when the
    /// run stored nothing.
    pub fn waf(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        (self.traffic.data_bytes + self.traffic.log_bytes) as f64 / self.logical_bytes as f64
    }

    /// Speedup of this run relative to `baseline` (baseline cycles /
    /// these cycles) — the Figure 8 metric.
    pub fn speedup_vs(&self, baseline: &RunResult) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Write-traffic reduction relative to `baseline` (1 − media
    /// bytes / baseline media bytes), the Figure 8/11 metric.
    pub fn traffic_reduction_vs(&self, baseline: &RunResult) -> f64 {
        self.traffic.reduction_vs(&baseline.traffic)
    }
}

/// The measured operation stream of a [`RunSpec`].
#[derive(Debug, Clone, Copy)]
pub enum RunOps<'a> {
    /// A YCSB-load insert stream; every operation is the `insert`
    /// latency class.
    Inserts(&'a [YcsbOp]),
    /// A mixed stream: inserts and removes are durable transactions,
    /// reads and scans are timed cache-hierarchy lookups.
    Mixed(&'a [MixedOp]),
}

impl RunOps<'_> {
    fn len(&self) -> usize {
        match self {
            RunOps::Inserts(ops) => ops.len(),
            RunOps::Mixed(ops) => ops.len(),
        }
    }

    /// The stream split by key ownership into `shards` mixed streams
    /// ([`partition_ops`], [`partition_mixed`]).
    fn partition(&self, shards: usize) -> Vec<Vec<MixedOp>> {
        match *self {
            RunOps::Inserts(ops) => partition_ops(ops, shards)
                .into_iter()
                .map(|part| part.into_iter().map(MixedOp::Insert).collect())
                .collect(),
            RunOps::Mixed(ops) => partition_mixed(ops, shards),
        }
    }
}

/// Everything one measured run depends on. [`run`] splits the keys of
/// `load` and `ops` across `shards` private machines, builds `kind`
/// on each under `cfg`, inserts the shard's `load` untimed and then
/// measures its `ops`. `shards = 1` is the single-machine run;
/// `workers = 1` runs the shards serially on the calling thread, the
/// reference every other worker count must match bit for bit.
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    /// Machine configuration; every shard gets its own copy.
    pub cfg: MachineConfig,
    /// Index evaluated (one instance per shard).
    pub kind: IndexKind,
    /// Keys inserted by the untimed load phase.
    pub load: &'a [YcsbOp],
    /// The measured stream.
    pub ops: RunOps<'a>,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Where the index's annotation table comes from.
    pub source: AnnotationSource,
    /// Check structure invariants after the measured phase (and, for
    /// insert streams, that every key is present).
    pub verify: bool,
    /// Capture each shard's measured phase as trace records.
    pub trace: bool,
    /// Keyspace shards, each on a private machine.
    pub shards: usize,
    /// Host threads the shards are spread over.
    pub workers: usize,
}

impl<'a> RunSpec<'a> {
    /// One machine, one worker, hand annotations, no load phase, no
    /// verification and no tracing: the YCSB-load run of every figure.
    pub fn inserts(
        cfg: MachineConfig,
        kind: IndexKind,
        ops: &'a [YcsbOp],
        value_size: usize,
    ) -> Self {
        RunSpec {
            cfg,
            kind,
            load: &[],
            ops: RunOps::Inserts(ops),
            value_size,
            source: AnnotationSource::Manual,
            verify: false,
            trace: false,
            shards: 1,
            workers: 1,
        }
    }

    /// [`RunSpec::inserts`] for a mixed stream measured after the
    /// untimed `load`.
    pub fn mixed(
        cfg: MachineConfig,
        kind: IndexKind,
        load: &'a [YcsbOp],
        ops: &'a [MixedOp],
        value_size: usize,
    ) -> Self {
        RunSpec {
            load,
            ops: RunOps::Mixed(ops),
            ..RunSpec::inserts(cfg, kind, &[], value_size)
        }
    }
}

/// One shard's measured phase.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Cycles, traffic and machine counters.
    pub result: RunResult,
    /// Per-class simulated-cycle latencies.
    pub lat: MixLatencies,
    /// The measured phase's trace records (empty unless
    /// [`RunSpec::trace`]).
    pub trace: Vec<slpmt_core::TraceRecord>,
}

/// Outcome of [`run`]: every shard's run in shard order, plus the
/// merged view. Shards run concurrently in simulated time, so the
/// run's makespan is its slowest shard ([`RunReport::sim_cycles`]).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-shard runs, indexed by shard.
    pub shards: Vec<ShardRun>,
    /// Measured operations across all shards.
    pub total_ops: usize,
}

impl RunReport {
    /// The run of a single-machine (`shards = 1`) spec.
    ///
    /// # Panics
    ///
    /// Panics if the run had more than one shard.
    pub fn single(self) -> ShardRun {
        let [shard] = <[ShardRun; 1]>::try_from(self.shards).expect("a single-shard run");
        shard
    }

    /// Simulated makespan: the slowest shard's cycles.
    pub fn sim_cycles(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.result.cycles)
            .max()
            .unwrap_or(0)
    }

    /// Total simulated work (the serial-equivalent cycle count).
    pub fn total_cycles(&self) -> u64 {
        self.shards.iter().map(|s| s.result.cycles).sum()
    }

    /// Simulated throughput: operations per thousand cycles of
    /// makespan. The scaling metric — doubling shards on a balanced
    /// partition roughly doubles this.
    pub fn sim_ops_per_kcycle(&self) -> f64 {
        let makespan = self.sim_cycles();
        if makespan == 0 {
            return 0.0;
        }
        self.total_ops as f64 * 1000.0 / makespan as f64
    }

    /// The run as one result: cycles are the makespan, and traffic,
    /// logical bytes and machine counters are summed over shards
    /// (order-independent). A single-shard run's result is its shard's.
    pub fn merged(&self) -> RunResult {
        let (first, rest) = self.shards.split_first().expect("at least one shard");
        let mut out = first.result.clone();
        for r in rest.iter().map(|s| &s.result) {
            out.cycles = out.cycles.max(r.cycles);
            out.traffic += r.traffic;
            out.logical_bytes += r.logical_bytes;
            out.stats.accumulate(&r.stats);
        }
        out
    }
}

/// Runs `spec`: partitions its streams by key ownership, runs each
/// shard on its own machine across `spec.workers` host threads, and
/// returns the shards in shard order whatever order they finished in.
///
/// # Panics
///
/// Panics if `spec.shards` is 0, if an operation of a mixed stream is
/// illegal at its point in the trace, or if verification fails.
pub fn run(spec: &RunSpec<'_>) -> RunReport {
    assert!(spec.shards > 0, "at least one shard");
    let loads = partition_ops(spec.load, spec.shards);
    let work: Vec<_> = loads
        .into_iter()
        .zip(spec.ops.partition(spec.shards))
        .collect();
    RunReport {
        shards: par_map_with(&work, spec.workers, |(load, ops)| {
            run_shard(spec, load, ops)
        }),
        total_ops: spec.ops.len(),
    }
}

/// [`run`] of one insert stream on one machine, serially and
/// untraced. Kept with this signature for the `perfbench` package's
/// cross-check.
pub fn run_inserts_with(
    cfg: MachineConfig,
    kind: IndexKind,
    ops: &[YcsbOp],
    value_size: usize,
    source: AnnotationSource,
    verify: bool,
) -> RunResult {
    run(&RunSpec {
        source,
        verify,
        ..RunSpec::inserts(cfg, kind, ops, value_size)
    })
    .single()
    .result
}

/// One shard of [`run`]: build, untimed load, measured phase, then
/// verification. Tracing turns on after the load, so the records
/// cover exactly the measured phase.
fn run_shard(spec: &RunSpec<'_>, load: &[YcsbOp], ops: &[MixedOp]) -> ShardRun {
    let (kind, scheme) = (spec.kind, spec.cfg.kind());
    let mut ctx = PmContext::with_config(spec.cfg.clone(), slpmt_annotate::AnnotationTable::new());
    ctx.prefault_heap(arena_estimate(load.len() + ops.len(), spec.value_size));
    let mut index = kind.build(&mut ctx, spec.value_size, spec.source);
    for op in load {
        index.insert(&mut ctx, op.key, &op.value);
    }
    if spec.trace {
        ctx.enable_tracing(1 << 20);
    }
    let start_cycles = ctx.machine().now();
    let start_traffic = *ctx.machine().device().traffic();
    let start_soft = soft_traffic(&ctx);
    let start_logical = ctx.logical_bytes();
    let mut samples: [Vec<u64>; 6] = Default::default();
    for op in ops {
        let t0 = ctx.machine().now();
        apply_mixed(index.as_mut(), &mut ctx, op, kind, scheme);
        samples[class_of(op)].push(ctx.machine().now() - t0);
    }
    let cycles = ctx.machine().now() - start_cycles;
    let traffic = measured_traffic(&ctx, &start_traffic, start_soft);
    let logical_bytes = ctx.logical_bytes() - start_logical;
    let trace = ctx.take_trace();
    if spec.verify {
        index
            .check_invariants(&ctx)
            .unwrap_or_else(|e| panic!("{kind}/{scheme}: invariant violated after run: {e}"));
        if let RunOps::Inserts(_) = spec.ops {
            let size = load.len() + ops.len();
            assert_eq!(index.len(&ctx), size, "{kind}/{scheme}: size mismatch");
            for op in ops {
                if let MixedOp::Insert(o) = op {
                    let present = index.contains(&ctx, o.key);
                    assert!(present, "{kind}/{scheme}: key {} missing", o.key);
                }
            }
        }
    }
    ShardRun {
        result: RunResult {
            scheme,
            kind,
            cycles,
            traffic,
            logical_bytes,
            stats: *ctx.machine().stats(),
        },
        lat: MixLatencies {
            classes: samples.map(|mut s| LatencySummary::from_samples(&mut s)),
        },
        trace,
    }
}

/// Up-front heap-arena estimate for an op stream: value payloads plus
/// index-node and allocator overhead per op, with slack for structure
/// roots. Only sizes the host-side page prefault (clamped to capacity
/// by the space itself) — an over- or under-estimate affects setup
/// cost, never simulated behaviour.
fn arena_estimate(ops: usize, value_size: usize) -> u64 {
    ops as u64 * (value_size as u64 + 192) + (1 << 20)
}

/// Measured-phase traffic delta. Software flavours' log-arena persists
/// arrive at the device as plain data-line writes; this reattributes
/// them to log traffic so the data/log split means the same thing for
/// every scheme column.
fn measured_traffic(ctx: &PmContext, start: &WriteTraffic, soft_start: PtmTraffic) -> WriteTraffic {
    let mut traffic = *ctx.machine().device().traffic();
    traffic.data_bytes -= start.data_bytes;
    traffic.log_bytes -= start.log_bytes;
    traffic.data_lines -= start.data_lines;
    traffic.log_records -= start.log_records;
    traffic.wpq_lines -= start.wpq_lines;
    if let Some(s) = ctx.soft() {
        let log_bytes = s.traffic.log_media_bytes - soft_start.log_media_bytes;
        let records = s.traffic.log_records - soft_start.log_records;
        traffic.data_bytes -= log_bytes;
        traffic.data_lines -= log_bytes / LINE_BYTES as u64;
        traffic.log_bytes += log_bytes;
        traffic.log_records += records;
    }
    traffic
}

fn soft_traffic(ctx: &PmContext) -> PtmTraffic {
    ctx.soft().map(|s| s.traffic).unwrap_or_default()
}

/// Executes one mixed operation, asserting it is legal at this point
/// in the trace (the generators only target live keys). Scans go
/// through [`DurableIndex::scan_range`] on ordered indexes — checking
/// the result set against the keys the generator materialised — and
/// degrade to point lookups elsewhere.
fn apply_mixed(
    index: &mut dyn DurableIndex,
    ctx: &mut PmContext,
    op: &MixedOp,
    kind: IndexKind,
    scheme: SchemeKind,
) {
    match op {
        MixedOp::Insert(o) => index.insert(ctx, o.key, &o.value),
        MixedOp::Read(k) => {
            let v = index.get(ctx, *k);
            assert!(v.is_some(), "{kind}/{scheme}: live key {k} unreadable");
        }
        MixedOp::Remove(k) => {
            let removed = index.remove(ctx, *k);
            assert!(removed, "{kind}/{scheme}: live key {k} unremovable");
        }
        MixedOp::Update(o) => {
            let updated = index.update(ctx, o.key, &o.value);
            assert!(updated, "{kind}/{scheme}: live key {} unupdatable", o.key);
        }
        MixedOp::Rmw(o) => {
            let v = index.get(ctx, o.key);
            assert!(v.is_some(), "{kind}/{scheme}: rmw key {} unreadable", o.key);
            let updated = index.update(ctx, o.key, &o.value);
            assert!(updated, "{kind}/{scheme}: rmw key {} unupdatable", o.key);
        }
        MixedOp::Scan { keys } => {
            let (lo, hi) = (keys[0], *keys.last().expect("scans are never empty"));
            match index.scan_range(ctx, lo, hi) {
                Some(got) => {
                    let got_keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
                    assert_eq!(
                        &got_keys, keys,
                        "{kind}/{scheme}: scan [{lo}, {hi}] returned wrong key set"
                    );
                }
                None => {
                    for k in keys {
                        let v = index.get(ctx, *k);
                        assert!(v.is_some(), "{kind}/{scheme}: scanned key {k} unreadable");
                    }
                }
            }
        }
    }
}

/// The operation classes a run distinguishes for latency
/// reporting.
pub const OP_CLASSES: [&str; 6] = ["read", "insert", "update", "remove", "rmw", "scan"];

/// Nearest-rank percentile summary of one class's simulated
/// latencies: an operation class of a run, or a request class of a
/// serve run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples observed.
    pub count: u64,
    /// Median simulated cycles.
    pub p50: u64,
    /// 99th-percentile simulated cycles.
    pub p99: u64,
    /// 99.9th-percentile simulated cycles.
    pub p999: u64,
    /// Worst observed sample, in cycles.
    pub max: u64,
    /// Total simulated cycles across the class.
    pub total: u64,
}

impl LatencySummary {
    /// Nearest-rank percentiles over the samples (sorted in place): the
    /// `p`-th percentile is sample `(count - 1) * p` (as a fraction)
    /// rounded down.
    pub fn from_samples(samples: &mut [u64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let pick = |num: usize, den: usize| samples[(samples.len() - 1) * num / den];
        LatencySummary {
            count: samples.len() as u64,
            p50: pick(50, 100),
            p99: pick(99, 100),
            p999: pick(999, 1000),
            max: *samples.last().unwrap(),
            total: samples.iter().sum(),
        }
    }
}

/// Per-class latency summaries of one run, in [`OP_CLASSES`]
/// order. Everything is simulated cycles, so the breakdown is
/// bit-identical across reruns and host machines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MixLatencies {
    /// One summary per [`OP_CLASSES`] entry (empty classes are
    /// all-zero).
    pub classes: [LatencySummary; 6],
}

impl MixLatencies {
    /// Iterates `(class name, summary)` pairs, skipping empty classes.
    pub fn present(&self) -> impl Iterator<Item = (&'static str, &LatencySummary)> + '_ {
        OP_CLASSES
            .iter()
            .zip(self.classes.iter())
            .filter(|(_, s)| s.count > 0)
            .map(|(n, s)| (*n, s))
    }
}

fn class_of(op: &MixedOp) -> usize {
    match op {
        MixedOp::Read(_) => 0,
        MixedOp::Insert(_) => 1,
        MixedOp::Update(_) => 2,
        MixedOp::Remove(_) => 3,
        MixedOp::Rmw(_) => 4,
        MixedOp::Scan { .. } => 5,
    }
}

/// Worker count: `SLPMT_THREADS` when set, else the machine's
/// available parallelism (1 if that cannot be determined).
pub fn threads() -> usize {
    std::env::var("SLPMT_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Applies `f` to every item across `workers` host threads and returns
/// the results **in item order**.
///
/// Workers claim items through a shared atomic cursor, so a slow item
/// never idles the other workers; each finished result is deposited
/// with its original index and the merge sorts by that index, making
/// the output independent of scheduling. With one worker (or one
/// item) no threads are spawned and the items run serially in place.
pub fn par_map_with<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                done.lock().expect("worker panicked").push((i, r));
            });
        }
    });
    let mut slots = done.into_inner().expect("worker panicked");
    slots.sort_by_key(|&(i, _)| i);
    slots.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<u64> = (0..64).collect();
        for workers in [1, 2, 7] {
            let out = par_map_with(&items, workers, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn latency_math() {
        let mut s = vec![5, 1, 9, 3, 7];
        let l = LatencySummary::from_samples(&mut s);
        assert_eq!((l.count, l.p50, l.max, l.total), (5, 5, 9, 25));
        // Nearest-rank on 5 samples: index 4*99/100 = 3.
        assert_eq!(l.p99, 7);
        assert_eq!(l.p999, 7);
        assert_eq!(
            LatencySummary::from_samples(&mut []),
            LatencySummary::default()
        );
    }

    #[test]
    fn zero_workers_degrades_to_serial() {
        let out = par_map_with(&[1, 2, 3], 0, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }
}
