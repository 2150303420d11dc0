//! Persist-event crash and media-fault sweep with oracle-checked
//! recovery — the engine-level [`CrashTarget`].
//!
//! The commit-phase crash matrix (`CommitPhase`) covers four coarse
//! points of the commit sequence; everything *between* them — the
//! individual WPQ drains, log-record pack writes, lazy-drain forced
//! persists, log truncations — is exactly where selective logging and
//! lazy persistency could silently break recoverability. This module
//! enumerates those states:
//!
//! 1. [`count_events`] runs a fixed seeded workload trace once and
//!    returns how many persist events `N` it generates (sanity-checking
//!    the crash-free end state's invariants and a volatile oracle on
//!    the way).
//! 2. [`run_at`] replays the identical trace with a [`FaultPlan`] armed
//!    and the device set to crash at event `k` (see
//!    `slpmt_core::Machine::arm_crash_at_event`): events `1..=k` are
//!    durable, every later mutation is dropped. It then crashes, runs
//!    log replay plus the structure's own recovery, and checks the
//!    result against the oracle. A clean power cut is the plan
//!    [`FaultPlan::NONE`].
//! 3. [`EngineTarget`] hands both to the generic sweep driver
//!    (`slpmt_bench::sweep`), which visits every `k ∈ 0..=N` or a
//!    seeded sample of them, across a scheme × workload × plan matrix.
//!
//! ### The oracle check
//!
//! Commit markers persist in transaction order, so the durably
//! committed transactions always form a prefix of the sequence
//! numbers. Each trace operation records the sequence number of the
//! last transaction it ran; `b` = the number of operations whose last
//! transaction has a durable marker ([`committed_prefix`]). Auxiliary
//! transactions an operation runs *before* its main one (a hashtable
//! update closing a redo window, a resize) are membership-neutral, so
//! the recovered structure must equal the [`StreamingOracle`]'s model
//! after exactly `b` operations: same length, every key mapped to its
//! exact value, structure invariants intact, and the heap clean after
//! the leak GC ([`inspect`]-verified). The model gives each of the
//! trace's keys a dense slot, its rank, once per trace, so advancing it
//! costs one array write per operation, and the recovered entries are
//! compared by scattering them into slots, with no sort.
//!
//! ### Media faults
//!
//! Real media fail messier than a clean cut — the event at the crash
//! boundary tears at 8-byte granularity, lines poison, stored log bits
//! flip. Under a plan, recovery must *degrade gracefully*:
//!
//! * **No injected faults survive undetected** ([`attribute_faults`]):
//!   torn records and markers only appear when the plan tears; every
//!   line recovery reports lost traces back to a line the plan
//!   poisoned or a record it flipped.
//! * **Absorbed faults cost nothing.** With zero lost lines — the
//!   faults hit dead state, or salvage re-materialised every poisoned
//!   line — the strict oracle above applies unchanged: a torn event is
//!   indistinguishable from crashing one event earlier, and drain
//!   jitter never changes durable state under ADR.
//! * **Unabsorbed faults degrade, deterministically.** With lost
//!   lines, log replay must still complete without panicking and
//!   report the loss honestly; the same `(case, plan, k)` always
//!   produces the same report (checked by `tests/fault_properties.rs`).
//!
//! Failures print as `faults FAIL scheme=… workload=… seed=…
//! ops=… [plan=…] k=…`, replayable via `slpmt faults --at K`, plus
//! `--plan P` when the line names a plan.
//!
//! Battery-backed configurations (§V-E) are *not* swept: with the
//! caches inside the persistence domain, the state a power failure
//! leaves behind depends on the volatile cache contents at failure
//! time, not on a prefix of the persist-event trace, so "crash at
//! event k" does not define their crash state. (No named [`Scheme`]
//! enables the battery; it is a separate `MachineConfig` flag.)

use crate::ctx::{AnnotationSource, PmContext};
use crate::inspector::inspect;
use crate::runner::{DurableIndex, IndexKind};
use crate::ycsb::{ycsb_mix, MixSpec, MixedOp};
use slpmt_annotate::AnnotationTable;
use slpmt_core::sweep::{attribute_faults, committed_prefix, guarded, panic_message};
use slpmt_core::{CrashTarget, Scheme, SchemeKind, TraceRecord};
use slpmt_pmem::fault::mix64;
use slpmt_pmem::{FaultPlan, PmAddr};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use slpmt_core::sweep::sample_points;

/// One cell of a crash sweep: a scheme × workload pair plus the trace
/// parameters that make it reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCase {
    /// Design to simulate (hardware scheme or software PTM flavour).
    pub scheme: SchemeKind,
    /// Index workload to drive.
    pub kind: IndexKind,
    /// Trace seed.
    pub seed: u64,
    /// Number of trace operations (each mutating operation is at least
    /// one durable transaction).
    pub ops: usize,
    /// Value payload size in bytes (whole words).
    pub value_size: usize,
    /// Operation mix of the trace (defaults to the legacy churn mix).
    pub mix: MixSpec,
    /// Keys inserted by the load phase before the mixed trace (their
    /// inserts are part of the sweep trace, so crash points land in
    /// the load phase too). Read-only mixes need `load > 0`.
    pub load: usize,
}

impl SweepCase {
    /// A sweep case with the standard trace shape (`ops` operations,
    /// 32-byte values, the legacy churn mix, no load phase).
    pub fn new(scheme: impl Into<SchemeKind>, kind: IndexKind, seed: u64, ops: usize) -> Self {
        SweepCase {
            scheme: scheme.into(),
            kind,
            seed,
            ops,
            value_size: 32,
            mix: MixSpec::CHURN,
            load: 0,
        }
    }

    /// [`SweepCase::new`] under a specific mix with a load phase.
    pub fn with_mix(
        scheme: impl Into<SchemeKind>,
        kind: IndexKind,
        seed: u64,
        load: usize,
        ops: usize,
        mix: MixSpec,
    ) -> Self {
        SweepCase {
            scheme: scheme.into(),
            kind,
            seed,
            ops,
            value_size: 32,
            mix,
            load,
        }
    }
}

impl fmt::Display for SweepCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheme={} workload={} seed={} ops={}",
            self.scheme, self.kind, self.seed, self.ops
        )?;
        // Keep historical failure lines byte-stable for default cases.
        if self.mix != MixSpec::CHURN || self.load != 0 {
            write!(f, " mix={} load={}", self.mix, self.load)?;
        }
        Ok(())
    }
}

/// One failed engine crash point, carrying its reproducer tuple.
pub type SweepFailure = slpmt_core::SweepFailure<SweepCase>;

/// The schemes a persist-event sweep covers: every named design,
/// undo and redo (battery-backed §V-E configurations are excluded —
/// see the module docs).
pub const SWEEP_SCHEMES: [Scheme; 10] = [
    Scheme::Fg,
    Scheme::FgLg,
    Scheme::FgLz,
    Scheme::Slpmt,
    Scheme::Atom,
    Scheme::Ede,
    Scheme::FgCl,
    Scheme::SlpmtCl,
    Scheme::FgRedo,
    Scheme::SlpmtRedo,
];

/// The default plan battery: each fault class alone, then everything
/// at once. Seeds are derived from `seed` so two sweeps with different
/// base seeds inject at different places.
pub fn default_plans(seed: u64) -> Vec<FaultPlan> {
    vec![
        // Torn crash-boundary event, clean media otherwise.
        FaultPlan {
            seed: mix64(seed ^ 0xA1),
            tear: true,
            ..FaultPlan::NONE
        },
        // One poisoned line (uncorrectable ECC), clean cut.
        FaultPlan {
            seed: mix64(seed ^ 0xA2),
            poison_lines: 1,
            ..FaultPlan::NONE
        },
        // One flipped log-record bit, clean cut.
        FaultPlan {
            seed: mix64(seed ^ 0xA3),
            flip_records: 1,
            ..FaultPlan::NONE
        },
        // Drain-order perturbation only: durable state must not move.
        FaultPlan {
            seed: mix64(seed ^ 0xA4),
            jitter: 400,
            ..FaultPlan::NONE
        },
        // Everything at once.
        FaultPlan {
            seed: mix64(seed ^ 0xA5),
            tear: true,
            poison_lines: 2,
            flip_records: 1,
            jitter: 250,
            ..FaultPlan::NONE
        },
    ]
}

/// The deterministic operation trace of a case: the mix's load-phase
/// inserts followed by its seeded operation stream, starting from an
/// empty structure. The default ([`MixSpec::CHURN`], no load) keeps
/// PR 2's trace shape: 5% reads, 15% updates, 20% removes, the rest
/// inserts — enough churn to exercise remove frees, update
/// copy-on-write swaps and (at these sizes) hashtable resizes, while
/// keeping the structure growing so later crash points see non-trivial
/// state.
pub fn trace_ops(case: &SweepCase) -> Vec<MixedOp> {
    let (loaded, mixed) = ycsb_mix(case.load, case.ops, case.value_size, case.seed, &case.mix);
    let mut all: Vec<MixedOp> = loaded.into_iter().map(MixedOp::Insert).collect();
    all.extend(mixed);
    all
}

/// Applies one trace operation to `idx`, as every sweep replay does.
pub fn apply(idx: &mut dyn DurableIndex, ctx: &mut PmContext, op: &MixedOp) {
    match op {
        MixedOp::Insert(o) => idx.insert(ctx, o.key, &o.value),
        MixedOp::Read(k) => {
            idx.get(ctx, *k);
        }
        MixedOp::Remove(k) => {
            idx.remove(ctx, *k);
        }
        MixedOp::Update(o) => {
            idx.update(ctx, o.key, &o.value);
        }
        MixedOp::Rmw(o) => {
            idx.get(ctx, o.key);
            idx.update(ctx, o.key, &o.value);
        }
        // Scans are membership- and value-neutral; in the sweep they
        // degrade to point reads of the expected keys so every index
        // kind (ordered or not) runs the same trace.
        MixedOp::Scan { keys } => {
            for k in keys {
                idx.get(ctx, *k);
            }
        }
    }
}

/// Incremental committed-prefix recovery oracle.
///
/// `oracle_after` used to rebuild a `BTreeMap<u64, Vec<u8>>` from
/// scratch — cloning every live payload — once per crash point, which
/// is O(n²) time and allocation across a sweep and unusable at
/// million-op scale. The streaming oracle exploits the sweep's
/// structure instead: crash points are visited in ascending `k`, and
/// the committed-prefix length `b` is nondecreasing in `k`, so one
/// model can advance monotonically through the trace. Values are
/// never cloned: the model maps each key to the index of the trace
/// operation that last wrote it, and checks recompute the expected
/// payload by slicing that operation's buffer ([`YcsbOp`] values are
/// themselves deterministic recomputations of `value_for` /
/// [`update_value_for`](crate::ycsb::update_value_for)).
///
/// The model is dense, laid out once per trace by [`new`](Self::new):
/// each distinct key the trace writes or removes gets a slot, its rank
/// among those keys (found by binary search), and every operation
/// records its key's slot. Advancing is one array write per operation,
/// and walking the slots in order walks the keys in order.
///
/// Total cost of a whole sweep is O(n) model mutations regardless of
/// the number of crash points — [`work`](StreamingOracle::work)
/// exposes the applied-operation counter so tests can pin the
/// linearity down.
///
/// [`YcsbOp`]: crate::ycsb::YcsbOp
#[derive(Debug)]
pub struct StreamingOracle<'a> {
    ops: &'a [MixedOp],
    applied: usize,
    /// The distinct keys the trace writes or removes, ascending; a
    /// key's slot is its index here.
    keys: Vec<u64>,
    /// Each operation's slot, [`NO_SLOT`] for reads and scans.
    op_slot: Vec<u32>,
    /// slot → index + 1 in `ops` of the operation whose value is
    /// current, or 0 when the key is absent.
    model: Vec<u32>,
    /// Number of non-zero `model` slots.
    live: usize,
    work: u64,
}

/// The slot of an operation that writes or removes no key.
const NO_SLOT: u32 = u32::MAX;

/// The key an operation writes or removes, if any.
fn written_key(op: &MixedOp) -> Option<u64> {
    match op {
        MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => Some(o.key),
        MixedOp::Remove(k) => Some(*k),
        MixedOp::Read(_) | MixedOp::Scan { .. } => None,
    }
}

/// The payload written by the operation a non-zero model entry names.
fn payload(ops: &[MixedOp], entry: u32) -> &[u8] {
    match &ops[entry as usize - 1] {
        MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => o.value.as_slice(),
        _ => unreachable!("model points at a non-writing op"),
    }
}

impl<'a> StreamingOracle<'a> {
    /// A fresh oracle over a trace, positioned before any operation.
    /// Sorts the trace's keys and gives each operation its key's slot:
    /// build one per trace, not per crash point.
    pub fn new(ops: &'a [MixedOp]) -> Self {
        assert!(u32::try_from(ops.len()).is_ok(), "trace too long");
        let mut keys: Vec<u64> = ops.iter().filter_map(written_key).collect();
        keys.sort_unstable();
        keys.dedup();
        let op_slot = ops
            .iter()
            .map(|op| match written_key(op) {
                Some(k) => keys
                    .binary_search(&k)
                    .expect("every written key is sorted in") as u32,
                None => NO_SLOT,
            })
            .collect();
        StreamingOracle {
            ops,
            applied: 0,
            model: vec![0; keys.len()],
            keys,
            op_slot,
            live: 0,
            work: 0,
        }
    }

    /// The slot of `key`, or `None` when the trace never writes it.
    fn slot(&self, key: u64) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// The trace this oracle models.
    pub fn ops(&self) -> &'a [MixedOp] {
        self.ops
    }

    /// Number of trace operations currently applied.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Total model mutations ever applied — linear in the trace
    /// length for a full ascending sweep, never quadratic.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Advances the model to the state after the first `b` operations.
    ///
    /// # Panics
    ///
    /// Panics if `b` retreats (crash points must be visited in
    /// ascending order; build a fresh oracle to go back) or exceeds
    /// the trace length.
    pub fn advance_to(&mut self, b: usize) {
        assert!(
            b >= self.applied,
            "streaming oracle cannot retreat ({} -> {b}); build a fresh oracle",
            self.applied
        );
        assert!(b <= self.ops.len(), "prefix beyond trace end");
        for i in self.applied..b {
            let slot = self.op_slot[i];
            if slot == NO_SLOT {
                continue;
            }
            let entry = &mut self.model[slot as usize];
            let was_live = *entry != 0;
            *entry = match self.ops[i] {
                MixedOp::Remove(_) => 0,
                _ => i as u32 + 1,
            };
            self.live = self.live + usize::from(*entry != 0) - usize::from(was_live);
            self.work += 1;
        }
        self.applied = b;
    }

    /// Number of live keys in the modelled prefix.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the modelled prefix has no live keys.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The expected payload of `key`, borrowed from the trace.
    pub fn expected(&self, key: u64) -> Option<&'a [u8]> {
        let entry = self.model[self.slot(key)?];
        (entry != 0).then(|| payload(self.ops, entry))
    }

    /// Iterates `(key, expected payload)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &'a [u8])> + '_ {
        let ops = self.ops;
        (self.keys.iter().zip(&self.model))
            .filter(|&(_, &entry)| entry != 0)
            .map(move |(&k, &entry)| (k, payload(ops, entry)))
    }

    /// Checks a recovered structure against the modelled prefix: same
    /// key count, every key mapped to its exact payload.
    ///
    /// One [`for_each_entry`](DurableIndex::for_each_entry) walk
    /// collects the structure's `(key, value address)` pairs; the
    /// count is compared with the model's, and
    /// [`first_mismatch`](Self::first_mismatch) compares each pair's
    /// value with one `peek_bytes` into a reused buffer. Linear in the
    /// live keys for every index when the structure is right.
    pub fn check(&self, ctx: &PmContext, idx: &dyn DurableIndex) -> Result<(), String> {
        let b = self.applied;
        let mut entries = Vec::with_capacity(self.live);
        idx.for_each_entry(ctx, &mut |k, a| entries.push((k, a)));
        if entries.len() != self.live {
            return Err(format!(
                "{} keys recovered, oracle has {} after {b} committed ops",
                entries.len(),
                self.live
            ));
        }
        let mut buf = Vec::new();
        let mismatch = self.first_mismatch(&entries, |addr, want| {
            buf.resize(want.len(), 0);
            ctx.peek_bytes(addr, &mut buf);
            buf == want
        });
        match mismatch {
            None => Ok(()),
            Some((key, got, want)) => Err(format!(
                "key {key} recovered as {:?}, oracle says {:?} (b={b})",
                got.map(|_| want.len()),
                want.len()
            )),
        }
    }

    /// Compares a structure's `(key, value address)` entries (any
    /// order) with the model and returns the first model key, in key
    /// order, that has no entry, or whose value `same(address,
    /// expected payload)` rejects, with that entry's address and the
    /// expected payload.
    ///
    /// One pass scatters the entries into their keys' slots: the first
    /// entry naming a live key has its value judged by `same`, and
    /// entries the model has no live key for (extra or removed keys,
    /// the second entry of a repeated key) are passed over. When as
    /// many values were accepted as there are live keys, every live key
    /// is matched and there is no mismatch. Otherwise the slots are
    /// walked in key order (slots are ranks, so nothing is sorted) to
    /// the first live key without an accepted entry. At equal counts
    /// each passed-over entry leaves such a key, and that key is
    /// reported — the first one in key order, as a per-key lookup loop
    /// would find it.
    pub fn first_mismatch(
        &self,
        entries: &[(u64, PmAddr)],
        mut same: impl FnMut(PmAddr, &[u8]) -> bool,
    ) -> Option<(u64, Option<PmAddr>, &'a [u8])> {
        // slot → whether `same` accepted the value of the first entry
        // naming that slot's live key; `None` while no entry has.
        let mut verdict: Vec<Option<bool>> = vec![None; self.keys.len()];
        let mut accepted = 0;
        for &(key, addr) in entries {
            let Some(slot) = self.slot(key) else { continue };
            let entry = self.model[slot];
            if entry != 0 && verdict[slot].is_none() {
                let ok = same(addr, payload(self.ops, entry));
                accepted += usize::from(ok);
                verdict[slot] = Some(ok);
            }
        }
        if accepted == self.live {
            return None;
        }
        let slot = (0..self.keys.len())
            .find(|&s| self.model[s] != 0 && verdict[s] != Some(true))
            .expect("a live key without an accepted entry");
        let key = self.keys[slot];
        let got = verdict[slot].and_then(|_| entries.iter().find(|&&(k, _)| k == key));
        let want = payload(self.ops, self.model[slot]);
        Some((key, got.map(|&(_, a)| a), want))
    }
}

fn build(case: &SweepCase) -> (PmContext, Box<dyn DurableIndex>) {
    let mut ctx = PmContext::new(case.scheme, AnnotationTable::new());
    let idx = case
        .kind
        .build(&mut ctx, case.value_size, AnnotationSource::Manual);
    (ctx, idx)
}

/// Runs the case's trace crash-free, checks the end state's structure
/// invariants (the oracle's entry walk does not check key placement),
/// the oracle and the heap (a crash-free run must not leak), and
/// returns the number of persist events the trace generated — the
/// sweep domain is `0..=N`.
///
/// # Panics
///
/// Panics if the crash-free run already breaks an invariant, disagrees
/// with the oracle or leaks an allocation (the sweep would be
/// meaningless).
pub fn count_events(case: &SweepCase) -> u64 {
    let ops = trace_ops(case);
    let (mut ctx, mut idx) = build(case);
    for op in &ops {
        apply(idx.as_mut(), &mut ctx, op);
    }
    if let Err(e) = idx.check_invariants(&ctx) {
        panic!("{case}: crash-free run breaks an invariant: {e}");
    }
    let mut oracle = StreamingOracle::new(&ops);
    oracle.advance_to(ops.len());
    if let Err(e) = oracle.check(&ctx, idx.as_ref()) {
        panic!("{case}: crash-free run disagrees with the oracle: {e}");
    }
    let heap = inspect(&ctx, &idx.reachable(&ctx));
    if !heap.is_clean() {
        panic!("{case}: crash-free run leaks: {heap}");
    }
    ctx.machine().persist_event_count()
}

/// Replays `ops` with `plan` armed and a crash at persist event `k`,
/// then cuts the power. Returns the crashed context, the index and
/// each executed operation's last transaction sequence number.
fn crash_at(
    case: &SweepCase,
    plan: &FaultPlan,
    ops: &[MixedOp],
    k: u64,
    tracing: bool,
) -> (PmContext, Box<dyn DurableIndex>, Vec<u64>) {
    let (mut ctx, mut idx) = build(case);
    if tracing {
        ctx.enable_tracing(1 << 20);
    }
    ctx.machine_mut().set_fault_plan(*plan);
    ctx.machine_mut().arm_crash_at_event(k);
    // Reads re-record the previous sequence number: they commit nothing.
    let mut op_seq = Vec::with_capacity(ops.len());
    for op in ops {
        apply(idx.as_mut(), &mut ctx, op);
        op_seq.push(ctx.txn_seq());
        if ctx.machine().crash_tripped() {
            break;
        }
    }
    // Power failure: volatile state is lost; events 1..=k survive.
    ctx.crash();
    (ctx, idx, op_seq)
}

/// Replays the case's trace with `plan` armed and a crash at persist
/// event `k`, recovers, and checks the recovered structure against a
/// caller-owned [`StreamingOracle`] over [`trace_ops`]. A sweep visiting
/// ascending `k` advances one model instead of rebuilding it per
/// point: the committed-prefix length `b` is nondecreasing in `k`.
///
/// # Errors
///
/// Describes the violation when log replay panics, a fault appears
/// that the plan cannot explain, or a loss-free recovery breaks
/// committed-prefix durability, value equality, a structure invariant
/// or heap-leak accounting.
pub fn run_at(
    case: &SweepCase,
    plan: &FaultPlan,
    oracle: &mut StreamingOracle<'_>,
    k: u64,
) -> Result<(), String> {
    let (mut ctx, mut idx, op_seq) = crash_at(case, plan, oracle.ops(), k, false);
    // A torn marker is not Valid, so it does not advance the committed
    // watermark: the transaction counts as uncommitted, which is the
    // paper's required reading of a marker that never fully persisted.
    let marker = ctx.durable_commit_seq();
    let b = committed_prefix(&op_seq, marker);
    // Faults at a later point may leave a shorter durable prefix than
    // an earlier point saw; the model then restarts from scratch.
    if !plan.is_empty() && b < oracle.applied() {
        *oracle = StreamingOracle::new(oracle.ops());
    }
    // Advance the model before recovery: if recovery panics, the
    // oracle still holds a valid prefix for the next (larger) k.
    oracle.advance_to(b);
    // Log replay itself must never panic, whatever the media did.
    let report = catch_unwind(AssertUnwindSafe(|| ctx.recover()))
        .map_err(|p| format!("log replay panicked: {}", panic_message(&*p)))?;
    attribute_faults(Some(plan), &report, ctx.machine().device())?;
    if !report.lost_lines.is_empty() {
        // Degraded and detected: the loss was reported honestly and
        // every lost line attributed to an injected fault. The
        // structure-level recovery contract assumes a coherent image —
        // the application is expected to act on the loss report — and
        // a half-rolled-back pointer graph can contain cycles that
        // make a blind structure walk diverge, so the check stops at
        // the validated log replay.
        return Ok(());
    }
    idx.recover(&mut ctx);
    let reachable = idx.reachable(&ctx);
    let leaks = inspect(&ctx, &reachable).leaks.len();
    ctx.gc(&reachable);
    idx.check_invariants(&ctx)
        .map_err(|e| format!("invariant violated after recovery: {e}"))?;
    let after_gc = inspect(&ctx, &reachable);
    if !after_gc.is_clean() {
        return Err(format!(
            "{} allocations still leaked after GC reclaimed {leaks}",
            after_gc.leaks.len()
        ));
    }
    oracle
        .check(&ctx, idx.as_ref())
        .map_err(|e| format!("{e} (marker seq {marker})"))
}

/// Replays the machine-level sequence of [`run_at`] — plan armed,
/// crash at persist event `k`, power failure, log replay — with event
/// tracing enabled, and returns the captured records.
/// Structure-level recovery is skipped (it can legitimately panic on
/// the failing tuples this capture path exists for); panics during log
/// replay are swallowed so the trace of everything up to the panic
/// still comes back. Deterministic: the same `(case, plan, k)` always
/// yields the same records.
pub fn trace_at(case: &SweepCase, plan: &FaultPlan, k: u64) -> Vec<TraceRecord> {
    let ops = trace_ops(case);
    let (mut ctx, _idx, _) = crash_at(case, plan, &ops, k, true);
    let _ = catch_unwind(AssertUnwindSafe(|| ctx.recover()));
    ctx.take_trace()
}

/// `count` distinct seeded clean-crash points of a case, ascending,
/// drawn from `1..=N` (`N` = [`count_events`]) — the sampled domain
/// the driver visits for the case under [`FaultPlan::NONE`].
pub fn sweep_points(case: &SweepCase, count: usize) -> Vec<u64> {
    sample_points(
        EngineTarget.seed(case, &FaultPlan::NONE),
        count_events(case),
        count,
    )
}

/// The engine battery as a [`CrashTarget`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTarget;

impl CrashTarget for EngineTarget {
    type Case = SweepCase;
    type Outcome = ();
    const LABEL: &'static str = "faults";

    fn count(&self, case: &SweepCase) -> u64 {
        count_events(case)
    }

    fn seed(&self, case: &SweepCase, plan: &FaultPlan) -> u64 {
        case.seed ^ plan.seed.rotate_left(17)
    }

    fn check(&self, case: &SweepCase, plan: &FaultPlan, ks: &[u64]) -> Vec<Result<(), String>> {
        let ops = trace_ops(case);
        let mut oracle = StreamingOracle::new(&ops);
        ks.iter()
            .map(|&k| guarded(|| run_at(case, plan, &mut oracle, k)))
            .collect()
    }

    fn trace(&self, case: &SweepCase, plan: &FaultPlan, k: u64) -> Vec<TraceRecord> {
        trace_at(case, plan, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn trace_is_deterministic_and_mutates_enough() {
        let case = SweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 7, 60);
        let a = trace_ops(&case);
        assert_eq!(a, trace_ops(&case));
        let mutating = a.iter().filter(|o| !matches!(o, MixedOp::Read(_))).count();
        assert!(mutating >= 50, "trace must carry ≥50 transactions");
    }

    #[test]
    fn oracle_prefix_applies_ops_in_order() {
        let case = SweepCase::new(Scheme::Slpmt, IndexKind::Rbtree, 3, 30);
        let ops = trace_ops(&case);
        let mut oracle = StreamingOracle::new(&ops);
        assert!(oracle.is_empty());
        oracle.advance_to(ops.len());
        assert!(!oracle.is_empty());
        // Work is one model mutation per mutating op — linear, and
        // independent of how many intermediate prefixes were visited.
        let mutating = ops
            .iter()
            .filter(|o| !matches!(o, MixedOp::Read(_) | MixedOp::Scan { .. }))
            .count() as u64;
        assert_eq!(oracle.work(), mutating);
    }

    #[test]
    fn oracle_matches_naive_rebuild_at_every_prefix() {
        // Equivalence with the retired `oracle_after` rebuild: advance
        // one streaming oracle through every prefix and compare against
        // a from-scratch BTreeMap model at each step.
        let case = SweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 13, 80);
        let ops = trace_ops(&case);
        let mut oracle = StreamingOracle::new(&ops);
        for b in 0..=ops.len() {
            oracle.advance_to(b);
            let mut naive: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for op in &ops[..b] {
                match op {
                    MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => {
                        naive.insert(o.key, o.value.clone());
                    }
                    MixedOp::Remove(k) => {
                        naive.remove(k);
                    }
                    MixedOp::Read(_) | MixedOp::Scan { .. } => {}
                }
            }
            assert_eq!(oracle.len(), naive.len(), "prefix {b}");
            for (k, v) in &naive {
                assert_eq!(
                    oracle.expected(*k),
                    Some(v.as_slice()),
                    "prefix {b} key {k}"
                );
            }
        }
    }

    /// The sort-and-merge `first_mismatch` ran before the dense slots,
    /// against a model rebuilt from scratch for the prefix.
    fn reference_mismatch<'a>(
        ops: &'a [MixedOp],
        b: usize,
        entries: &mut [(u64, PmAddr)],
        mut same: impl FnMut(PmAddr, &[u8]) -> bool,
    ) -> Option<(u64, Option<PmAddr>, &'a [u8])> {
        let mut model: BTreeMap<u64, &'a [u8]> = BTreeMap::new();
        for op in &ops[..b] {
            match op {
                MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => {
                    model.insert(o.key, &o.value);
                }
                MixedOp::Remove(k) => {
                    model.remove(k);
                }
                MixedOp::Read(_) | MixedOp::Scan { .. } => {}
            }
        }
        entries.sort_unstable_by_key(|&(k, _)| k);
        let mut rest = entries.iter().peekable();
        for (&key, &want) in &model {
            while rest.next_if(|&&(k, _)| k < key).is_some() {}
            match rest.next_if(|&&(k, _)| k == key) {
                Some(&(_, addr)) if same(addr, want) => {}
                got => return Some((key, got.map(|&(_, a)| a), want)),
            }
        }
        None
    }

    type Entries = Vec<(u64, PmAddr)>;

    #[test]
    fn first_mismatch_matches_the_sorted_merge_reference() {
        let mut rng = slpmt_prng::SimRng::seed_from_u64(0x0AC1E);
        let (mut compared, mut mismatches) = (0, 0);
        for seed in 0..6 {
            let case = SweepCase::with_mix(
                Scheme::Fg,
                IndexKind::Hashtable,
                seed,
                24,
                96,
                MixSpec::DELETE_HEAVY,
            );
            let ops = trace_ops(&case);
            let traced: Vec<u64> = ops.iter().filter_map(written_key).collect();
            let outside = loop {
                let k = rng.next_u64();
                if !traced.contains(&k) {
                    break k;
                }
            };
            let mut oracle = StreamingOracle::new(&ops);
            let n = ops.len();
            for b in [0, 1, n / 4, n / 2, 3 * n / 4, n - 1, n] {
                oracle.advance_to(b);
                // An entry's address names a cell; cell 0 holds no
                // payload of the trace.
                let mut cells: Vec<&[u8]> = vec![b"wrong"];
                let mut good = Vec::new();
                for (k, v) in oracle.iter() {
                    good.push((k, PmAddr::new(8 * cells.len() as u64)));
                    cells.push(v);
                }
                let wrong = PmAddr::new(0);
                let live = good.len();
                let removed = ops[..b].iter().find_map(|op| match op {
                    MixedOp::Remove(k) if oracle.expected(*k).is_none() => Some(*k),
                    _ => None,
                });
                // Two distinct entries to edit (one when only one exists).
                let i = rng.gen_usize(0..live.max(1));
                let j = (i + 1 + rng.gen_usize(0..live.max(2) - 1)) % live.max(1);
                let mut variants: Vec<(&str, Entries)> = Vec::new();
                let mut edit = |name, f: &mut dyn FnMut(&mut Entries)| {
                    let mut v = good.clone();
                    f(&mut v);
                    rng.shuffle(&mut v);
                    variants.push((name, v));
                };
                edit("correct", &mut |_| {});
                if live > 0 {
                    edit("missing", &mut |v| {
                        v.remove(i);
                    });
                    edit("outside, replacing", &mut |v| v[i].0 = outside);
                    edit("repeated", &mut |v| v[i] = v[j]);
                    for (name, at) in [("smallest", 0), ("middle", live / 2), ("largest", live - 1)]
                    {
                        edit(name, &mut |v| v[at].1 = wrong);
                    }
                    edit("smallest and largest", &mut |v| {
                        v[0].1 = wrong;
                        v[live - 1].1 = wrong;
                    });
                    if let Some(r) = removed {
                        edit("removed, replacing", &mut |v| v[i].0 = r);
                    }
                }
                edit("outside, added", &mut |v| v.push((outside, PmAddr::new(8))));
                if let Some(r) = removed {
                    edit("removed, added", &mut |v| v.push((r, PmAddr::new(8))));
                }
                let same = |addr: PmAddr, want: &[u8]| cells[(addr.raw() / 8) as usize] == want;
                for (name, v) in &variants {
                    let got = oracle.first_mismatch(v, same);
                    let want = reference_mismatch(&ops, b, &mut v.clone(), same);
                    assert_eq!(got, want, "seed {seed} b={b}: {name}");
                    if *name == "correct" {
                        assert_eq!(got, None, "seed {seed} b={b}");
                    }
                    compared += 1;
                    mismatches += usize::from(got.is_some());
                }
            }
        }
        assert!(
            compared > 300 && mismatches > 200,
            "{compared} {mismatches}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot retreat")]
    fn oracle_rejects_retreating_prefixes() {
        let case = SweepCase::new(Scheme::Fg, IndexKind::Heap, 2, 20);
        let ops = trace_ops(&case);
        let mut oracle = StreamingOracle::new(&ops);
        oracle.advance_to(10);
        oracle.advance_to(5);
    }

    #[test]
    fn sweep_points_are_ascending_and_deterministic() {
        let case = SweepCase::with_mix(
            Scheme::Slpmt,
            IndexKind::Hashtable,
            9,
            10,
            20,
            MixSpec::DELETE_HEAVY,
        );
        let a = sweep_points(&case, 8);
        assert_eq!(a, sweep_points(&case, 8));
        assert_eq!(a.len(), 8);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let n = count_events(&case);
        assert!(a.iter().all(|&k| k >= 1 && k <= n));
    }

    #[test]
    fn mixed_case_display_round_trips_the_mix() {
        let case = SweepCase::with_mix(
            Scheme::Slpmt,
            IndexKind::Rbtree,
            7,
            50,
            100,
            MixSpec::DELETE_HEAVY_ZIPF,
        );
        let line = case.to_string();
        assert!(line.contains("mix=delete-heavy-zipf"), "{line}");
        assert!(line.contains("load=50"), "{line}");
        // Default cases keep the historical four-field format.
        let legacy = SweepCase::new(Scheme::Fg, IndexKind::Heap, 1, 10).to_string();
        assert!(!legacy.contains("mix="), "{legacy}");
    }

    #[test]
    fn event_count_is_stable_for_a_case() {
        let case = SweepCase::new(Scheme::Fg, IndexKind::Heap, 11, 10);
        assert_eq!(count_events(&case), count_events(&case));
    }

    fn check_one(case: &SweepCase, plan: &FaultPlan, k: u64) -> Result<(), String> {
        let ops = trace_ops(case);
        run_at(case, plan, &mut StreamingOracle::new(&ops), k)
    }

    #[test]
    fn crash_after_all_events_recovers_everything() {
        let case = SweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 5, 15);
        let n = count_events(&case);
        check_one(&case, &FaultPlan::NONE, n).unwrap();
    }

    #[test]
    fn crash_before_any_event_recovers_empty() {
        // k = 0: the very first durable mutation is dropped, so no
        // transaction ever has a durable marker.
        let case = SweepCase::new(Scheme::Fg, IndexKind::Rbtree, 5, 10);
        check_one(&case, &FaultPlan::NONE, 0).unwrap();
    }

    #[test]
    fn failure_line_is_reproducible() {
        let f = SweepFailure {
            label: EngineTarget::LABEL,
            case: SweepCase::new(Scheme::Slpmt, IndexKind::Heap, 42, 50),
            plan: FaultPlan::NONE,
            k: Some(137),
            detail: "boom".into(),
        };
        let line = f.to_string();
        assert!(line.starts_with("faults FAIL "));
        assert!(line.contains("scheme=SLPMT"));
        assert!(line.contains("workload=heap"));
        assert!(line.contains("seed=42"));
        assert!(line.contains("k=137"));
        assert!(!line.contains("plan="));
    }

    // -----------------------------------------------------------------
    // Media-fault plans

    fn fault_case() -> SweepCase {
        SweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 9, 14)
    }

    fn fault_points(case: &SweepCase, plan: &FaultPlan, count: usize) -> Vec<u64> {
        sample_points(EngineTarget.seed(case, plan), count_events(case), count)
    }

    #[test]
    fn fault_points_move_with_the_plan_seed() {
        let c = fault_case();
        let a = fault_points(&c, &default_plans(5)[0], 4);
        assert_eq!(a.len(), 4);
        let b = fault_points(&c, &default_plans(6)[0], 4);
        assert_ne!(a, b, "different plan seeds should pick different ks");
        // The clean plan samples exactly the crash sweep's points.
        assert_eq!(fault_points(&c, &FaultPlan::NONE, 4), sweep_points(&c, 4));
    }

    #[test]
    fn torn_and_jitter_plans_pass_strict_oracle() {
        // A tear is indistinguishable from crashing one event earlier,
        // and jitter never moves durable state.
        let c = fault_case();
        for plan in [default_plans(3)[0], default_plans(3)[3]] {
            assert!(plan.tear != (plan.jitter > 0));
            for k in fault_points(&c, &plan, 3) {
                check_one(&c, &plan, k).unwrap();
            }
        }
    }

    #[test]
    fn poison_and_flip_plans_degrade_gracefully() {
        let c = fault_case();
        for plan in [
            default_plans(11)[1],
            default_plans(11)[2],
            default_plans(11)[4],
        ] {
            let ks = fault_points(&c, &plan, 3);
            for v in EngineTarget.check(&c, &plan, &ks) {
                v.unwrap();
            }
        }
    }

    #[test]
    fn fault_failure_line_round_trips_through_plan_parser() {
        let f = SweepFailure {
            label: EngineTarget::LABEL,
            case: fault_case(),
            plan: default_plans(1)[4],
            k: Some(31),
            detail: "boom".into(),
        };
        let line = f.to_string();
        let text = line.split("plan=").nth(1).unwrap();
        let text = text.split_whitespace().next().unwrap();
        assert_eq!(text.parse::<FaultPlan>().unwrap(), f.plan);
    }
}
