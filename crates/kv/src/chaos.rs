//! The service-boundary crash battery: crashes and media faults
//! during serving, client retry/backoff, and degraded-mode online
//! recovery.
//!
//! The engine-level sweep (`slpmt_workloads::crashsweep`) proves
//! committed-prefix durability for a mixed trace applied directly to a
//! [`DurableIndex`](slpmt_workloads::DurableIndex). This module proves
//! it one layer up, the way a deployment would experience it: every
//! request travels abstract request → wire encoding → session buffer →
//! codec parse → dispatch → facade transaction; the crash lands
//! **while the service is serving pipelined sessions**; recovery goes
//! through the facade's crash-to-ready sequence ([`KvStore::replay`]
//! then [`KvStore::rebuild`]); and after the restart the *same
//! clients* come back and finish their work. The oracle is the
//! engine's [`StreamingOracle`] (the request stream maps 1:1 onto a
//! mixed trace), with value checks decoding the facade's
//! length-prefixed cells. One chaos point runs three phases:
//!
//! 1. **Serve until the crash.** Sessions pipeline the whole request
//!    stream; the worker drains them in arrival order. Every response
//!    flushed while the machine is still live advances that session's
//!    ack watermark in the [`AckJournal`]. A crash armed at persist
//!    event `k` (optionally with a media [`FaultPlan`]) cuts the run
//!    mid-dispatch: the tripped request's response is never flushed,
//!    so it stays un-acked.
//! 2. **Recover and pin the contract.** The durable prefix `b` is
//!    derived from the persisted commit markers. The pinned
//!    ack-durability contract is `acked ≤ b`: every response the
//!    client provably received must be durable — **zero lost acks**.
//!    Log replay must never panic; with no fault plan armed, torn or
//!    corrupt records and lost lines are failures outright; with a
//!    plan, every anomaly must trace to an injected knob (the
//!    engine-battery attribution rules). A loss-free image proceeds to
//!    structure rebuild (guarded: recovery-to-ready never panics), the
//!    recovered state is checked against the streaming oracle at `b`,
//!    and the degraded window opens over the flagged-line scrub queue.
//! 3. **Restart, retry, converge.** Sessions are rebuilt from their
//!    journaled watermarks ([`Session::rebuilt`]); the deterministic
//!    client re-encodes its stream and re-feeds the un-acked tail.
//!    While the store is [`Recovering`](crate::store::HealthState),
//!    reads serve but retried writes are refused with
//!    `SERVER_ERROR recovering`; the client backs off on the seeded
//!    capped-exponential [`RetryPolicy`] schedule (simulated cycles)
//!    while the background scrub drains. Retries inside the replay
//!    window go through [`dispatch_replay`], which
//!    duplicate-suppresses sets/cas via value comparison against the
//!    fingerprint-CAS-token state machine and answers deletes with the
//!    idempotent `NOT_FOUND`-means-already-done convention. The final
//!    state must match the oracle at the full trace length — zero
//!    duplicate-applied retries, nothing lost.
//!
//! The `poison_contract` knob deliberately corrupts the recovered
//! state before the mid-recovery check so the battery can prove its
//! own teeth (a checker that cannot fail is vacuous).
//!
//! Everything is driven by the simulated cycle clock — backoff waits,
//! scrub costs, latencies — so a chaos point is byte-identical for a
//! `(case, plan, k)` triple no matter how many host threads the sweep
//! fans across. [`ChaosTarget`] runs the battery through the generic
//! sweep driver (`slpmt_bench::sweep`), and [`ChaosSweepReport::fold`]
//! folds the point outcomes into the order-sensitive digest alongside
//! one [`poison_caught`] probe per case.

use crate::codec::{reply, Codec, Request};
use crate::service::{digest64, dispatch, encode_request, take_request, Spans, TokenModel};
use crate::session::{AckJournal, Session};
use crate::store::{CasOutcome, KvStore};
use slpmt_core::sweep::{attribute_faults, committed_prefix, guarded, panic_message};
use slpmt_core::{CrashTarget, SchemeKind, SweepReport, TraceRecord};
use slpmt_pmem::FaultPlan;
use slpmt_trace::Event;
use slpmt_workloads::crashsweep::StreamingOracle;
use slpmt_workloads::ycsb::MixedOp;
use slpmt_workloads::{
    inspect, service_trace, session_of, IndexKind, KvRequest, MixSpec, RetryPolicy,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Flagged lines the background scrub clears between served requests
/// (one batch per drained request keeps the window finite even under a
/// read-only retry tail).
pub const SCRUB_BATCH_PER_REQUEST: usize = 1;

/// Flagged lines scrubbed while a refused client sits out its backoff
/// wait (the scrub runs *concurrently* with the wait in wall-clock
/// terms; the simulation bills both).
pub const SCRUB_BATCH_PER_BACKOFF: usize = 4;

/// One chaos configuration: a service-boundary sweep case plus the
/// session topology the crash lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosCase {
    /// Simulated logging scheme.
    pub scheme: SchemeKind,
    /// Index backend behind the facade.
    pub kind: IndexKind,
    /// Trace seed.
    pub seed: u64,
    /// Load-phase inserts (part of the request stream).
    pub load: usize,
    /// Mixed requests after the load phase.
    pub requests: usize,
    /// Value payload size.
    pub value_size: usize,
    /// Request mix.
    pub mix: MixSpec,
    /// Client sessions (round-robin request assignment).
    pub sessions: usize,
    /// Per-core trace-ring capacity; 0 disables chaos-span tracing.
    pub trace_capacity: usize,
}

impl ChaosCase {
    /// A baseline case: 30 loaded keys + `requests` YCSB-A requests of
    /// 16-byte values across 4 pipelined sessions.
    pub fn new(scheme: impl Into<SchemeKind>, kind: IndexKind, seed: u64, requests: usize) -> Self {
        ChaosCase {
            scheme: scheme.into(),
            kind,
            seed,
            load: 30,
            requests,
            value_size: 16,
            mix: MixSpec::YCSB_A,
            sessions: 4,
            trace_capacity: 0,
        }
    }

    /// Same case with a different mix.
    pub fn with_mix(mut self, mix: MixSpec) -> Self {
        self.mix = mix;
        self
    }
}

impl fmt::Display for ChaosCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kv-chaos {} {} {} seed={} load={} reqs={} val={} sess={}",
            self.scheme,
            self.kind,
            self.mix,
            self.seed,
            self.load,
            self.requests,
            self.value_size,
            self.sessions
        )
    }
}

/// The case's deterministic service trace: mixed ops (the oracle's
/// input) and the mapped request stream, index-aligned.
pub fn chaos_ops(case: &ChaosCase) -> (Vec<MixedOp>, Vec<KvRequest>) {
    service_trace(
        case.load,
        case.requests,
        case.value_size,
        case.seed,
        &case.mix,
    )
}

fn build_store(case: &ChaosCase) -> KvStore {
    let mut store = KvStore::open(case.scheme, case.kind, case.value_size);
    store.prefault(case.load + case.requests);
    store
}

/// What one strict (loss-free) chaos point measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Responses flushed (acked) before the crash landed.
    pub acked: u64,
    /// Durable prefix length `b` at the crash point.
    pub durable: u64,
    /// Requests the rebuilt clients re-fed after the restart.
    pub retried: u64,
    /// Retried writes duplicate-suppressed in the replay window.
    pub suppressed: u64,
    /// Write refusals (`SERVER_ERROR recovering`) inside the degraded
    /// window, each followed by a seeded backoff wait.
    pub refused_writes: u64,
    /// Flagged lines the scrub cleared before the store went ready.
    pub scrubbed: u64,
}

/// One chaos point's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Loss-free recovery: the full contract held end to end.
    Strict(ChaosReport),
    /// The injected faults cost lines the log could not rebuild. The
    /// loss was reported honestly and attributed to the plan; retry
    /// over a lossy image is out of contract (the engine-battery
    /// stop).
    Lossy {
        /// Lines reported lost by replay.
        lost: usize,
    },
}

/// Runs one chaos point that never crashes — its whole contract,
/// leak check included — and returns the persist-event count its
/// phase 1 served: the chaos domain is `1..=N`.
///
/// # Panics
///
/// Panics if the crash-free run already breaks the contract.
pub fn count_chaos_events(case: &ChaosCase) -> u64 {
    let mut served = 0;
    match chaos_point(
        &mut build_store(case),
        case,
        None,
        u64::MAX,
        false,
        &mut served,
    ) {
        Ok(ChaosOutcome::Strict(_)) => served,
        other => panic!("{case}: crash-free chaos run failed: {other:?}"),
    }
}

/// Decoded-state check: the store must agree with the oracle's
/// committed prefix, comparing *decoded payloads* (the facade stores
/// length-prefixed cells the raw engine oracle cannot compare
/// directly). One walk of the index, then the oracle's entry check
/// ([`StreamingOracle::first_mismatch`]: entries scattered into the
/// model's key-ordered slots, no sort).
fn check_store(store: &KvStore, oracle: &StreamingOracle<'_>) -> Result<(), String> {
    let mut entries = Vec::with_capacity(oracle.len());
    store.for_each_entry(&mut |k, a| entries.push((k, a)));
    if entries.len() != oracle.len() {
        return Err(format!(
            "{} keys recovered through the facade, oracle has {}",
            entries.len(),
            oracle.len()
        ));
    }
    let ctx = store.context();
    let mut cell = vec![0u8; store.cell_size()];
    let mismatch = oracle.first_mismatch(&entries, |addr, want| {
        ctx.peek_bytes(addr, &mut cell);
        KvStore::payload(&cell) == want
    });
    let Some((k, got, want)) = mismatch else {
        return Ok(());
    };
    let got = got.map(|addr| {
        ctx.peek_bytes(addr, &mut cell);
        KvStore::payload(&cell).len()
    });
    Err(format!(
        "key {k} decoded as {got:?} B, oracle says {} B",
        want.len()
    ))
}

/// Replays one request in the post-restart replay window, applying
/// duplicate suppression: the request may or may not have executed
/// before the crash, and either way the store must converge to
/// exactly-once state.
///
/// * `set` — if the key already holds the target value the write is
///   skipped (`STORED` without a transaction); otherwise it applies.
/// * `cas` — the token state machine does the work: a matching token
///   stores; a stale token whose *current value already equals the cas
///   target* means the pre-crash execution applied it (`STORED`,
///   suppressed); any other stale token answers `EXISTS` and leaves
///   state alone — a later replayed write owns the key.
/// * `delete` — a present key deletes; an absent key answers
///   `NOT_FOUND`, the idempotent already-done convention.
/// * reads dispatch normally.
///
/// Returns how many duplicates were suppressed (0 or 1).
pub fn dispatch_replay(store: &mut KvStore, req: &Request, out: &mut Vec<u8>) -> u64 {
    match req {
        Request::Set { key, value } => {
            if store.peek_value(*key).is_some_and(|cur| cur == *value) {
                Codec::write_line(out, reply::STORED);
                1
            } else {
                store.set(*key, value);
                Codec::write_line(out, reply::STORED);
                0
            }
        }
        Request::Cas { key, token, value } => match store.cas(*key, *token, value) {
            CasOutcome::Stored => {
                Codec::write_line(out, reply::STORED);
                0
            }
            CasOutcome::Exists => {
                if store.peek_value(*key).is_some_and(|cur| cur == *value) {
                    Codec::write_line(out, reply::STORED);
                    1
                } else {
                    Codec::write_line(out, reply::EXISTS);
                    0
                }
            }
            CasOutcome::NotFound => {
                Codec::write_line(out, reply::NOT_FOUND);
                0
            }
        },
        Request::Delete { key } => {
            if store.delete(*key) {
                Codec::write_line(out, reply::DELETED);
                0
            } else {
                Codec::write_line(out, reply::NOT_FOUND);
                1
            }
        }
        other => {
            dispatch(store, other, out);
            0
        }
    }
}

/// Deliberately corrupts the recovered state so the oracle check MUST
/// fail — the battery's non-vacuity probe.
fn poison_recovered_state(store: &mut KvStore, oracle: &StreamingOracle<'_>) {
    match oracle.iter().next() {
        Some((k, _)) => {
            store.delete(k);
        }
        None => store.set(u64::MAX ^ 0xBAD, b"poison"),
    }
}

/// Runs one chaos point: serve until the crash at persist event `k`
/// (with `plan` armed when given), recover, pin the ack-durability
/// contract, then restart the clients and drive the retry phase to
/// convergence through the degraded window.
///
/// # Errors
///
/// Returns a human-readable failure when any leg of the contract
/// breaks: an acked response is not durable, replay or rebuild panics,
/// an anomaly has no injected cause, the recovered or converged state
/// disagrees with the oracle, an invariant or leak check fails, or a
/// refused write exhausts its retry budget.
pub fn run_chaos_point(
    case: &ChaosCase,
    plan: Option<&FaultPlan>,
    k: u64,
    poison_contract: bool,
) -> Result<ChaosOutcome, String> {
    chaos_point(
        &mut build_store(case),
        case,
        plan,
        k,
        poison_contract,
        &mut 0,
    )
}

/// [`run_chaos_point`] on a caller-built store, so the trace capture
/// path can take the store's records afterwards. Sets `served` to the
/// persist-event count at the end of phase 1.
fn chaos_point(
    store: &mut KvStore,
    case: &ChaosCase,
    plan: Option<&FaultPlan>,
    k: u64,
    poison_contract: bool,
    served: &mut u64,
) -> Result<ChaosOutcome, String> {
    let (ops, reqs) = chaos_ops(case);
    let ordered = store.scan(0, 0).is_some();
    let spans = Spans::new(store, case.trace_capacity);
    if let Some(p) = plan {
        store.machine_mut().set_fault_plan(*p);
    }
    store.machine_mut().arm_crash_at_event(k);
    spans.emit(store, Event::ChaosCrashArm { k });

    // Phase 1: pipelined ingestion, then serve until the crash trips.
    let codec = Codec::new(case.value_size);
    let sessions = case.sessions.max(1);
    let mut sess: Vec<Session> = (0..sessions as u32).map(Session::new).collect();
    let mut model = TokenModel::default();
    let mut wire = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        wire.clear();
        encode_request(req, &mut model, ordered, &mut wire);
        sess[session_of(i, sessions) as usize].feed(&wire);
    }
    let mut journal = AckJournal::new(sessions);
    let mut op_seq: Vec<u64> = Vec::with_capacity(reqs.len());
    let mut acked_global = 0usize;
    for (i, _) in reqs.iter().enumerate() {
        if store.machine().crash_tripped() {
            break;
        }
        let s = session_of(i, sessions) as usize;
        let req = match take_request(&mut sess[s], &codec, i as u64) {
            Ok(Ok(req)) => req,
            Ok(Err(line)) => return Err(format!("generated request {i} refused by codec: {line}")),
            Err(e) => return Err(format!("generated stream truncated: {e}")),
        };
        let mut out = std::mem::take(&mut sess[s].wbuf);
        dispatch(store, &req, &mut out);
        sess[s].wbuf = out;
        op_seq.push(store.txn_seq());
        if store.machine().crash_tripped() {
            // The dispatch that tripped never flushed its response:
            // it stays un-acked, exactly the window the retry phase
            // must cover.
            break;
        }
        sess[s].ack_response();
        journal.record(sess[s].id(), sess[s].acked());
        acked_global = i + 1;
    }

    // Phase 2: crash, derive the durable prefix, pin the contract.
    *served = store.machine().persist_event_count();
    store.crash();
    let marker = store.durable_commit_seq();
    let b = committed_prefix(&op_seq, marker);
    if acked_global as u64 != journal.total() {
        return Err(format!(
            "ack journal total {} disagrees with acked prefix {acked_global}",
            journal.total()
        ));
    }
    // Zero lost acks: every flushed response must be durable.
    if acked_global > b {
        return Err(format!(
            "lost ack: {acked_global} responses flushed but only {b} requests durable \
             (marker seq {marker})"
        ));
    }
    // Log replay must never panic, whatever the media did.
    let report = catch_unwind(AssertUnwindSafe(|| store.replay()))
        .map_err(|p| format!("log replay panicked: {}", panic_message(&*p)))?;
    // Anomalies must not appear out of thin air.
    attribute_faults(plan, &report, store.machine().device())?;
    if !report.lost_lines.is_empty() {
        return Ok(ChaosOutcome::Lossy {
            lost: report.lost_lines.len(),
        });
    }
    // Loss-free: recovery-to-ready must never panic.
    let rebuilt = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        store.rebuild();
        store
            .check_invariants()
            .map_err(|e| format!("invariant violated after recovery: {e}"))?;
        let reachable = store.reachable();
        if !inspect(store.context(), &reachable).is_clean() {
            return Err("allocations still leaked after facade GC".into());
        }
        Ok(())
    }));
    rebuilt.map_err(|p| format!("structure recovery panicked: {}", panic_message(&*p)))??;
    store.begin_degraded_window(&report);
    spans.emit(
        store,
        Event::DegradedBegin {
            poisoned: store.scrub_pending() as u32,
        },
    );
    let mut oracle = StreamingOracle::new(&ops);
    oracle.advance_to(b);
    if poison_contract {
        poison_recovered_state(store, &oracle);
    }
    check_store(store, &oracle)
        .map_err(|e| format!("recovered state: {e} (b={b}, marker seq {marker})"))?;

    // Phase 3: rebuild the sessions from the journal, re-feed the
    // un-acked tail, retry through the degraded window to convergence.
    let mut sent = vec![0u64; sessions];
    for i in 0..reqs.len() {
        sent[session_of(i, sessions) as usize] += 1;
    }
    let mut rsess: Vec<Session> = (0..sessions as u32)
        .map(|s| Session::rebuilt(s, journal.watermark(s), sent[s as usize]))
        .collect();
    spans.emit(
        store,
        Event::ServiceRestart {
            sessions: sessions as u32,
            acked: journal.total(),
        },
    );
    // The client-side token model is deterministic, so re-encoding the
    // full stream reproduces the pre-crash wire bytes exactly; only
    // the un-acked tail is re-fed.
    let mut model = TokenModel::default();
    for (i, req) in reqs.iter().enumerate() {
        wire.clear();
        encode_request(req, &mut model, ordered, &mut wire);
        if i >= acked_global {
            rsess[session_of(i, sessions) as usize].feed(&wire);
        }
    }
    let policy = RetryPolicy::new(case.seed ^ 0xC4A0_5BAC);
    let (mut retried, mut suppressed, mut refused) = (0u64, 0u64, 0u64);
    for (i, orig) in reqs.iter().enumerate().skip(acked_global) {
        let s = session_of(i, sessions) as usize;
        let replaying = rsess[s].in_replay();
        let seq = rsess[s].next_seq();
        let req = match take_request(&mut rsess[s], &codec, i as u64) {
            Ok(Ok(req)) => req,
            Ok(Err(line)) => return Err(format!("retried request {i} refused by codec: {line}")),
            Err(e) => return Err(format!("retried stream truncated: {e}")),
        };
        // Background scrub interleaves with serving, one batch per
        // drained request, so the window closes even on a read tail.
        store.scrub_step(SCRUB_BATCH_PER_REQUEST);
        // Degraded window: reads serve, writes are refused until the
        // scrub queue drains. The client re-sends the identical bytes
        // after each seeded backoff wait, so re-dispatching the parsed
        // request is exact.
        if orig.is_write() {
            let mut attempt: u32 = 0;
            while !store.ready() {
                attempt += 1;
                if attempt > policy.max_attempts {
                    return Err(format!(
                        "request {i}: write still refused after {} attempts",
                        policy.max_attempts
                    ));
                }
                refused += 1;
                Codec::write_line(&mut rsess[s].wbuf, reply::SERVER_ERROR_RECOVERING);
                store.compute(policy.backoff(seq, attempt));
                store.scrub_step(SCRUB_BATCH_PER_BACKOFF);
            }
        }
        let mut out = std::mem::take(&mut rsess[s].wbuf);
        if replaying {
            suppressed += dispatch_replay(store, &req, &mut out);
        } else {
            dispatch(store, &req, &mut out);
        }
        rsess[s].wbuf = out;
        rsess[s].ack_response();
        journal.record(rsess[s].id(), rsess[s].acked());
        retried += 1;
    }
    // Drain any scrub residue (pure read tails may leave some), then
    // the converged state must match the oracle over the whole trace.
    while !store.ready() {
        store.scrub_step(8);
    }
    spans.emit(
        store,
        Event::DegradedEnd {
            scrubbed: store.scrubbed() as u32,
        },
    );
    oracle.advance_to(ops.len());
    check_store(store, &oracle)
        .map_err(|e| format!("converged state: {e} (acked={acked_global}, b={b})"))?;
    store
        .check_invariants()
        .map_err(|e| format!("invariant violated after retry convergence: {e}"))?;
    let reachable = store.reachable();
    if !inspect(store.context(), &reachable).is_clean() {
        return Err("allocations still leaked after retry convergence".into());
    }
    if journal.total() != reqs.len() as u64 {
        return Err(format!(
            "journal converged at {} acks, stream has {} requests",
            journal.total(),
            reqs.len()
        ));
    }
    Ok(ChaosOutcome::Strict(ChaosReport {
        acked: acked_global as u64,
        durable: b as u64,
        retried,
        suppressed,
        refused_writes: refused,
        scrubbed: store.scrubbed(),
    }))
}

/// The poisoned non-vacuity probe: `true` when a deliberately
/// corrupted recovered state at crash point `k` is rejected, as it
/// must be — a checker that cannot reject a corrupted image proves
/// nothing.
pub fn poison_caught(case: &ChaosCase, k: u64) -> bool {
    guarded(|| run_chaos_point(case, None, k, true)).is_err()
}

/// The chaos battery as a [`CrashTarget`]: an empty plan is a clean
/// crash, held to the no-fault contract (no loss at all).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosTarget;

impl CrashTarget for ChaosTarget {
    type Case = ChaosCase;
    type Outcome = ChaosOutcome;
    const LABEL: &'static str = "chaos";

    fn count(&self, case: &ChaosCase) -> u64 {
        count_chaos_events(case)
    }

    fn seed(&self, case: &ChaosCase, _plan: &FaultPlan) -> u64 {
        case.seed ^ 0xC4A0_57EE
    }

    fn check(
        &self,
        case: &ChaosCase,
        plan: &FaultPlan,
        ks: &[u64],
    ) -> Vec<Result<ChaosOutcome, String>> {
        let plan = (!plan.is_empty()).then_some(plan);
        ks.iter()
            .map(|&k| guarded(|| run_chaos_point(case, plan, k, false)))
            .collect()
    }

    fn trace(&self, case: &ChaosCase, plan: &FaultPlan, k: u64) -> Vec<TraceRecord> {
        let case = ChaosCase {
            trace_capacity: 1 << 20,
            ..*case
        };
        let plan = (!plan.is_empty()).then_some(plan);
        let mut store = build_store(&case);
        let _ = guarded(|| chaos_point(&mut store, &case, plan, k, false, &mut 0));
        store.context_mut().take_trace()
    }
}

/// The mix × scheme chaos matrix (mix-major, matching the repo's
/// kind-major matrix convention), all on the same backend.
pub fn chaos_cases<S: Into<SchemeKind> + Copy>(
    schemes: &[S],
    kind: IndexKind,
    seed: u64,
    requests: usize,
    mixes: &[MixSpec],
) -> Vec<ChaosCase> {
    let mut cases = Vec::with_capacity(schemes.len() * mixes.len());
    for &mix in mixes {
        for &scheme in schemes {
            cases.push(ChaosCase::new(scheme.into(), kind, seed, requests).with_mix(mix));
        }
    }
    cases
}

/// Aggregated outcome of a chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosSweepReport {
    /// Cases swept (mix × scheme cells).
    pub cases: usize,
    /// Chaos points checked (crash points × plan variants).
    pub points: usize,
    /// Points that recovered loss-free with the full contract held.
    pub strict: usize,
    /// Points whose injected faults cost lines, reported honestly.
    pub lossy: usize,
    /// Total lines lost across lossy points.
    pub lost_lines: u64,
    /// Sums of the strict points' [`ChaosReport`] counters.
    pub totals: ChaosReport,
    /// Poisoned (non-vacuity) probes run, one per case.
    pub poison_checked: usize,
    /// Poisoned probes the checker correctly rejected.
    pub poison_caught: usize,
    /// Order-sensitive digest of every point's outcome — the
    /// byte-identity fingerprint CI diffs across worker counts.
    pub digest: u64,
    /// Every failing point, in deterministic point order.
    pub failures: Vec<String>,
}

impl ChaosSweepReport {
    /// Folds a driver sweep of `cases` chaos cases and the poison
    /// probes' `(case, k, caught)` verdicts into the report. Every
    /// number derives from the simulated clock and the deterministic
    /// point outcomes, so the report is identical at any worker count.
    pub fn fold(
        cases: usize,
        sweep: &SweepReport<ChaosCase, ChaosOutcome>,
        poison: &[(ChaosCase, u64, bool)],
    ) -> Self {
        let (mut strict, mut lossy, mut lost_lines) = (0usize, 0usize, 0u64);
        let mut totals = ChaosReport::default();
        let mut digest_stream = Vec::with_capacity(sweep.points() * 8);
        for outcome in &sweep.outcomes {
            match outcome {
                Some(ChaosOutcome::Strict(rep)) => {
                    strict += 1;
                    totals.acked += rep.acked;
                    totals.durable += rep.durable;
                    totals.retried += rep.retried;
                    totals.suppressed += rep.suppressed;
                    totals.refused_writes += rep.refused_writes;
                    totals.scrubbed += rep.scrubbed;
                    digest_stream.push(1u8);
                    for v in [
                        rep.acked,
                        rep.durable,
                        rep.retried,
                        rep.suppressed,
                        rep.refused_writes,
                        rep.scrubbed,
                    ] {
                        digest_stream.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Some(ChaosOutcome::Lossy { lost }) => {
                    lossy += 1;
                    lost_lines += *lost as u64;
                    digest_stream.push(2u8);
                    digest_stream.extend_from_slice(&(*lost as u64).to_le_bytes());
                }
                None => digest_stream.push(0u8),
            }
        }
        let mut failures: Vec<String> = sweep.failures.iter().map(ToString::to_string).collect();
        for (case, k, _) in poison.iter().filter(|(_, _, caught)| !caught) {
            failures.push(format!(
                "{case} @k={k}: poisoned state passed the oracle check (vacuous battery)"
            ));
        }
        ChaosSweepReport {
            cases,
            points: sweep.points(),
            strict,
            lossy,
            lost_lines,
            totals,
            poison_checked: poison.len(),
            poison_caught: poison.iter().filter(|(_, _, caught)| *caught).count(),
            digest: digest64(&digest_stream),
            failures,
        }
    }

    /// `true` when every point held the contract and every poisoned
    /// probe was caught.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.poison_caught == self.poison_checked
    }
}

impl fmt::Display for ChaosSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos sweep: {} points across {} cases — {} strict, {} lossy ({} lines), \
             {} failure(s); poison probes {}/{} caught",
            self.points,
            self.cases,
            self.strict,
            self.lossy,
            self.lost_lines,
            self.failures.len(),
            self.poison_caught,
            self.poison_checked,
        )?;
        writeln!(
            f,
            "  acked={} durable={} retried={} suppressed={} refused_writes={} scrubbed={}",
            self.totals.acked,
            self.totals.durable,
            self.totals.retried,
            self.totals.suppressed,
            self.totals.refused_writes,
            self.totals.scrubbed,
        )?;
        for fail in &self.failures {
            writeln!(f, "  {fail}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpmt_core::sweep::sample_points;
    use slpmt_core::Scheme;
    use slpmt_workloads::crashsweep::default_plans;

    fn base(seed: u64, requests: usize) -> ChaosCase {
        ChaosCase::new(Scheme::Slpmt, IndexKind::KvBtree, seed, requests)
    }

    #[test]
    fn crash_free_chaos_run_matches_oracle() {
        let n = count_chaos_events(&base(11, 50));
        assert!(n > 0);
    }

    fn chaos_points(case: &ChaosCase, n: u64, count: usize) -> Vec<u64> {
        sample_points(ChaosTarget.seed(case, &FaultPlan::NONE), n, count)
    }

    #[test]
    fn sampled_chaos_points_hold_the_contract() {
        let case = base(5, 40);
        let n = count_chaos_events(&case);
        for k in chaos_points(&case, n, 6) {
            match run_chaos_point(&case, None, k, false) {
                Ok(ChaosOutcome::Strict(r)) => {
                    assert!(r.acked <= r.durable, "ack-durability inverted");
                    assert_eq!(r.acked + r.retried, (case.load + case.requests) as u64);
                }
                Ok(ChaosOutcome::Lossy { .. }) => panic!("lossy without a fault plan"),
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn chaos_point_with_fault_plan_attributes_or_converges() {
        let case = base(9, 36);
        let n = count_chaos_events(&case);
        let plans = default_plans(77);
        for k in [n / 3, 2 * n / 3] {
            if let Err(e) = run_chaos_point(&case, Some(&plans[1]), k.max(1), false) {
                panic!("{e}");
            }
        }
    }

    #[test]
    fn poisoned_contract_is_not_vacuous() {
        let case = base(5, 40);
        let n = count_chaos_events(&case);
        let k = n / 2;
        assert!(
            poison_caught(&case, k.max(1)),
            "deliberately corrupted state must fail the oracle check"
        );
    }

    #[test]
    fn store_check_names_a_wrong_and_a_missing_payload() {
        let mut store = KvStore::open(Scheme::Slpmt, IndexKind::Heap, 16);
        let write = |key: u64| {
            MixedOp::Insert(slpmt_workloads::YcsbOp {
                key,
                value: vec![key as u8; 8],
            })
        };
        let ops: Vec<MixedOp> = (2..=5).map(write).collect();
        for k in 2..=5 {
            store.set(k, &[k as u8; 8]);
        }
        let full = |ops| {
            let mut oracle = StreamingOracle::new(ops);
            oracle.advance_to(4);
            oracle
        };
        check_store(&store, &full(&ops)).unwrap();
        let mut wrong = ops.clone();
        if let MixedOp::Insert(o) = &mut wrong[1] {
            o.value[0] ^= 1;
        }
        let err = check_store(&store, &full(&wrong)).unwrap_err();
        assert_eq!(err, "key 3 decoded as Some(8) B, oracle says 8 B");
        // Same count, a key swapped for one that sorts first: the
        // missing key is named.
        store.delete(4);
        store.set(1, b"extra");
        let err = check_store(&store, &full(&ops)).unwrap_err();
        assert_eq!(err, "key 4 decoded as None B, oracle says 8 B");
    }

    #[test]
    fn replay_dispatch_suppresses_duplicates() {
        let mut store = KvStore::open(Scheme::Slpmt, IndexKind::KvBtree, 16);
        store.set(1, b"aaaa");
        let mut out = Vec::new();
        // Replayed set of the value already present: suppressed.
        let s = dispatch_replay(
            &mut store,
            &Request::Set {
                key: 1,
                value: b"aaaa".to_vec(),
            },
            &mut out,
        );
        assert_eq!(s, 1);
        // Replayed delete of an absent key: idempotent already-done.
        let s = dispatch_replay(&mut store, &Request::Delete { key: 42 }, &mut out);
        assert_eq!(s, 1);
        // A genuinely new set applies.
        let s = dispatch_replay(
            &mut store,
            &Request::Set {
                key: 2,
                value: b"bbbb".to_vec(),
            },
            &mut out,
        );
        assert_eq!(s, 0);
        assert_eq!(store.peek_value(2).as_deref(), Some(&b"bbbb"[..]));
    }

    #[cfg(not(feature = "no-trace"))]
    #[test]
    fn chaos_spans_are_traced() {
        let mut case = base(5, 40);
        case.trace_capacity = 1 << 14;
        let n = count_chaos_events(&case);
        // A mid-stream crash exercises arm + restart spans; whether a
        // degraded window opens depends on the image, so only the
        // unconditional spans are asserted.
        let outcome = run_chaos_point(&case, None, n / 2, false);
        assert!(
            matches!(outcome, Ok(ChaosOutcome::Strict(_))),
            "{outcome:?}"
        );
        let records = ChaosTarget.trace(&case, &FaultPlan::NONE, n / 2);
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::ChaosCrashArm { .. })));
        assert_eq!(records, ChaosTarget.trace(&case, &FaultPlan::NONE, n / 2));
    }
}
