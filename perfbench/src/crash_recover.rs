//! `crash-recover`: seeded persist-event crash points on delete-heavy
//! traces.
//!
//! Cases are {SLPMT, SLPMT-redo, FG, UndoLog, RedoLog} × {hashtable,
//! rbtree, kv-btree}, each driving a `DELETE_HEAVY` mix trace (35%
//! removes: the Pattern-1 free path). Every crash point replays the
//! trace to an armed seeded persist event `k`
//! (`Machine::arm_crash_at_event`), then runs `PmContext::crash` →
//! `PmContext::recover` → `DurableIndex::recover` → leak GC → the
//! `StreamingOracle` check. It is the only workload where recovery,
//! structure rebuild and the oracle run.
//!
//! Simulated metrics describe the crash-free reference run of each
//! case's trace (per trace operation). The host operation is one crash
//! point's recovery path, `crash` through the oracle check; the replay
//! to `k` is timed apart and left out of it. A failing point is
//! reported as a reproducible `(scheme, index, seed, k)` tuple.

use crate::layers::{Layers, Probe, RecoverySums, TraceFold};
use crate::spans::Spans;
use crate::stats::{percentile_u64, ratio};
use crate::{
    derive_seed, open_loop_episode, overhead_pct, report_speedup, slo_rate, HostOps, Outcome,
    Params, Setup, Trial, Versus, SLPMT,
};
use slpmt_annotate::AnnotationTable;
use slpmt_core::{MachineConfig, PtmFlavor, Scheme, SchemeKind};
use slpmt_workloads::crashsweep::sample_points;
use slpmt_workloads::{
    inspect, open_loop_arrivals, ycsb_mix, AnnotationSource, DurableIndex, IndexKind, MixSpec,
    MixedOp, PmContext, StreamingOracle,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Load-phase inserts at the head of each trace.
pub const LOAD: usize = 64;
/// Mixed operations after the load phase.
pub const OPS: usize = 128;
/// Value payload, bytes.
pub const VALUE: usize = 32;
/// Crash points per case per round.
pub const POINTS: usize = 12;
/// Rounds whose simulated results are reported (always run in full).
pub const SIM_ROUNDS: u64 = 8;
/// Rounds per host-timing batch (about 1,000 crash points, so each
/// batch's p99 has ten samples beyond it).
const BATCH_ROUNDS: u64 = 6;
/// Latency limit of the open-loop rate search, simulated cycles (75 µs
/// at 2 GHz): well above a trace operation's own p99, so the search
/// finds where queueing, not one slow operation, breaks the limit.
pub const LATENCY_LIMIT: u64 = 150_000;
const TRACE_CAPACITY: usize = 1 << 20;
const DRAIN_EVERY: usize = 16;

/// The swept schemes.
pub const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::Hardware(Scheme::Slpmt),
    SchemeKind::Hardware(Scheme::SlpmtRedo),
    SchemeKind::Hardware(Scheme::Fg),
    SchemeKind::Software(PtmFlavor::UndoLog),
    SchemeKind::Software(PtmFlavor::RedoLog),
];

/// The swept indexes.
pub const INDEXES: [IndexKind; 3] = [IndexKind::Hashtable, IndexKind::Rbtree, IndexKind::KvBtree];

/// One case of one round.
#[derive(Debug, Clone, Copy)]
struct Case {
    scheme: SchemeKind,
    kind: IndexKind,
    seed: u64,
}

fn cases(p: &Params, round: u64) -> Vec<Case> {
    let seed = derive_seed(p.seed, round);
    INDEXES
        .iter()
        .flat_map(|&kind| {
            SCHEMES
                .iter()
                .map(move |&scheme| Case { scheme, kind, seed })
        })
        .collect()
}

/// The case's trace: load-phase inserts, then the delete-heavy mix.
fn trace(seed: u64) -> Vec<MixedOp> {
    let (load, mixed) = ycsb_mix(LOAD, OPS, VALUE, seed, &MixSpec::DELETE_HEAVY);
    let mut all: Vec<MixedOp> = load.into_iter().map(MixedOp::Insert).collect();
    all.extend(mixed);
    all
}

fn build(scheme: SchemeKind, kind: IndexKind) -> (PmContext, Box<dyn DurableIndex>) {
    let mut ctx = PmContext::with_config(MachineConfig::for_kind(scheme), AnnotationTable::new());
    let idx = kind.build(&mut ctx, VALUE, AnnotationSource::Manual);
    (ctx, idx)
}

/// Applies one trace operation, inside a span for inserts and removes.
fn apply(
    spans: &mut Spans,
    sw: bool,
    idx: &mut dyn DurableIndex,
    ctx: &mut PmContext,
    op: &MixedOp,
    id: u64,
) {
    match op {
        MixedOp::Insert(o) => {
            let name = if sw { "ptm.insert" } else { "workloads.insert" };
            spans.time(name, id, || idx.insert(ctx, o.key, &o.value));
        }
        MixedOp::Remove(k) => {
            spans.time("workloads.remove", id, || idx.remove(ctx, *k));
        }
        MixedOp::Read(k) => {
            idx.get(ctx, *k);
        }
        MixedOp::Update(o) => {
            idx.update(ctx, o.key, &o.value);
        }
        MixedOp::Rmw(o) => {
            idx.get(ctx, o.key);
            idx.update(ctx, o.key, &o.value);
        }
        MixedOp::Scan { keys } => {
            for k in keys {
                idx.get(ctx, *k);
            }
        }
    }
}

/// The crash-free reference run of one case.
struct Reference {
    case: Case,
    events: u64,
    cycles: u64,
    media: u64,
    lat: Vec<u64>,
}

/// Runs the trace crash-free, checks the end state against the oracle
/// (built over `expected`, normally the trace itself), and counts the
/// persist events that define the crash-point domain.
fn reference_run(
    case: Case,
    ops: &[MixedOp],
    expected: &[MixedOp],
    spans: &mut Spans,
    layers: Option<&mut Layers>,
    out: &mut Outcome,
) -> Reference {
    let (mut ctx, mut idx) = spans.time("workloads.build", 0, || build(case.scheme, case.kind));
    let handle = layers.is_some().then(|| ctx.enable_tracing(TRACE_CAPACITY));
    let mut fold = TraceFold::default();
    let sw = case.scheme.software().is_some();
    let probe = Probe::of(&ctx);
    let mut lat = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let t0 = ctx.machine().now();
        apply(spans, sw, idx.as_mut(), &mut ctx, op, i as u64);
        lat.push(ctx.machine().now() - t0);
        if handle.is_some() && i % DRAIN_EVERY == DRAIN_EVERY - 1 {
            fold.absorb(ctx.take_trace());
        }
    }
    let phase = probe.phase(&ctx);
    if let (Some(l), Some(h)) = (layers, &handle) {
        fold.absorb(ctx.take_trace());
        l.add_trace(&fold, h.borrow().dropped());
        l.add_phase(&phase);
    }
    let mut oracle = StreamingOracle::new(expected);
    oracle.advance_to(expected.len());
    let verdict = spans.time("workloads.oracle_check", 0, || {
        idx.check_invariants(&ctx)
            .and_then(|()| oracle.check(&ctx, idx.as_ref()))
    });
    if let Err(e) = verdict {
        out.fail(
            1,
            format!(
                "crash-recover scheme={} index={} seed={} k=none (crash-free run): {e}",
                case.scheme, case.kind, case.seed
            ),
        );
    }
    Reference {
        case,
        events: ctx.machine().persist_event_count(),
        cycles: phase.cycles,
        media: phase.media_bytes(),
        lat,
    }
}

/// A case at its crash point: the context and index after the replay,
/// and the transaction sequence number each replayed operation ended at.
struct Replayed {
    ctx: PmContext,
    idx: Box<dyn DurableIndex>,
    op_seq: Vec<u64>,
}

/// Builds the case and replays its trace until persist event `k` trips
/// the armed crash.
fn replay(case: Case, ops: &[MixedOp], k: u64, spans: &mut Spans, id: u64) -> Replayed {
    let sw = case.scheme.software().is_some();
    let (mut ctx, mut idx) = spans.time("workloads.build", id, || build(case.scheme, case.kind));
    ctx.machine_mut().arm_crash_at_event(k);
    let mut op_seq = Vec::with_capacity(ops.len());
    for op in ops {
        apply(spans, sw, idx.as_mut(), &mut ctx, op, id);
        op_seq.push(ctx.txn_seq());
        if ctx.machine().crash_tripped() {
            break;
        }
    }
    Replayed { ctx, idx, op_seq }
}

/// The timed part of a crash point: crash, recover, rebuild, and check
/// against the oracle's committed prefix.
fn recover_point(
    r: &mut Replayed,
    oracle: &mut StreamingOracle<'_>,
    spans: &mut Spans,
    id: u64,
    recovery: &mut RecoverySums,
) -> Result<(), String> {
    let Replayed { ctx, idx, op_seq } = r;
    spans.time("core.crash", id, || ctx.crash());
    // Durably committed transactions form a prefix of the sequence
    // numbers, so the committed operation count is a prefix length.
    let marker = ctx.durable_commit_seq();
    let b = op_seq.iter().take_while(|&&seq| seq <= marker).count();
    oracle.advance_to(b);
    let report = spans.time("core.recover", id, || ctx.recover());
    recovery.add(&report);
    spans.time("workloads.recover", id, || idx.recover(ctx));
    spans.time("workloads.oracle_check", id, || {
        let reachable = idx.reachable(&ctx);
        let leaks = inspect(&ctx, &reachable).leaks.len();
        ctx.gc(&reachable);
        idx.check_invariants(&ctx)
            .map_err(|e| format!("invariant violated after recovery: {e}"))?;
        let after = inspect(&ctx, &reachable);
        if !after.is_clean() {
            return Err(format!(
                "{} allocations still leaked after GC reclaimed {leaks}",
                after.leaks.len()
            ));
        }
        oracle
            .check(&ctx, idx.as_ref())
            .map_err(|e| format!("{e} (marker seq {marker})"))
    })
}

/// Per-run state.
struct Run<'a> {
    p: &'a Params,
    spans: Spans,
    host: HostOps,
    out: Outcome,
    recovery: RecoverySums,
    points: u64,
    /// Host ns spent replaying traces to their crash points (not part
    /// of the timed operation).
    replay_ns: f64,
}

/// Simulated totals of the reported rounds.
#[derive(Default)]
struct SimTotals {
    cycles: u64,
    media: u64,
    ops: u64,
    lat: Vec<u64>,
    /// SLPMT against FG, per index.
    per_index: [Versus; 3],
    slpmt_traces: Vec<(IndexKind, Vec<MixedOp>)>,
}

impl SimTotals {
    fn add(&mut self, r: Reference, ops: &[MixedOp]) {
        self.cycles += r.cycles;
        self.media += r.media;
        self.ops += r.lat.len() as u64;
        self.lat.extend(r.lat);
        let i = INDEXES
            .iter()
            .position(|&k| k == r.case.kind)
            .expect("swept index");
        self.per_index[i].add(r.case.scheme, r.cycles, r.media);
        if r.case.scheme == SLPMT {
            self.slpmt_traces.push((r.case.kind, ops.to_vec()));
        }
    }
}

/// The expected trace the oracle models: the trace itself, or — for
/// the non-vacuity check — a copy with one byte of a write that stays
/// live to the end flipped.
fn expected_trace(ops: &[MixedOp], wrong: bool) -> Vec<MixedOp> {
    let mut exp = ops.to_vec();
    if wrong {
        let mut oracle = StreamingOracle::new(ops);
        oracle.advance_to(ops.len());
        let key = oracle.iter().next().map(|(k, _)| k);
        let last = exp.iter_mut().rev().find_map(|op| match op {
            MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) if Some(o.key) == key => {
                Some(o)
            }
            _ => None,
        });
        if let Some(o) = last {
            o.value[0] ^= 1;
        }
    }
    exp
}

/// Runs one round: each case's reference run, then its crash points.
fn round(
    run: &mut Run<'_>,
    r: u64,
    mut sim: Option<&mut SimTotals>,
    mut layers: Option<&mut Layers>,
) {
    for (c, case) in cases(run.p, r).into_iter().enumerate() {
        let ops = trace(case.seed);
        let expected = expected_trace(&ops, run.p.wrong_expectation);
        let refr = reference_run(
            case,
            &ops,
            &expected,
            &mut run.spans,
            layers.as_deref_mut(),
            &mut run.out,
        );
        let points = sample_points(derive_seed(case.seed, c as u64), refr.events, POINTS);
        let mut oracle = StreamingOracle::new(&expected);
        for k in points {
            let id = run.points;
            run.points += 1;
            let spans = &mut run.spans;
            let recovery = &mut run.recovery;
            let host = &mut run.host;
            let replay_ns = &mut run.replay_ns;
            let oracle = &mut oracle;
            spans.enter("workloads.point", id);
            let verdict = catch_unwind(AssertUnwindSafe(|| {
                // The replay to `k` is timed apart: only the recovery
                // path is the measured operation.
                let t0 = Instant::now();
                spans.enter("workloads.replay", id);
                let mut crashed = replay(case, &ops, k, spans, id);
                spans.exit();
                *replay_ns += t0.elapsed().as_nanos() as f64;
                host.time(|| recover_point(&mut crashed, oracle, spans, id, recovery))
            }));
            spans.exit();
            let verdict = verdict.unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".into());
                Err(format!("panic: {msg}"))
            });
            run.out.attempted += 1;
            if let Err(e) = verdict {
                run.out.fail(
                    1,
                    format!(
                        "crash-recover scheme={} index={} seed={} k={k}: {e}",
                        case.scheme, case.kind, case.seed
                    ),
                );
            }
        }
        if let Some(s) = sim.as_deref_mut() {
            s.add(refr, &ops);
        }
    }
}

/// Open-loop replay of every reported round's SLPMT traces at mean gap
/// `gap`.
fn open_loop_trial(traces: &[(IndexKind, Vec<MixedOp>)], gap: u64, seed: u64) -> Trial {
    let mut lat = Vec::new();
    let mut final_lateness = 0;
    let mut off = Spans::new(false);
    for (e, (kind, ops)) in traces.iter().enumerate() {
        let arrivals = open_loop_arrivals(ops.len(), gap, derive_seed(seed, e as u64));
        let (mut ctx, mut idx) = build(SLPMT, *kind);
        let last = open_loop_episode(&mut ctx, ops, &arrivals, &mut lat, |ctx, op| {
            apply(&mut off, false, idx.as_mut(), ctx, op, 0)
        });
        final_lateness = final_lateness.max(last);
    }
    Trial {
        p99: percentile_u64(&mut lat, 99.0),
        shed: 0,
        final_lateness,
    }
}

/// The set-up a round needs before its first crash point: every case's
/// trace and crash-free reference run, and its sampled points.
fn setup_round(p: &Params) {
    let mut spans = Spans::new(false);
    let mut check = Outcome::default();
    for (c, case) in cases(p, 0).into_iter().enumerate() {
        let ops = trace(case.seed);
        let r = reference_run(case, &ops, &ops, &mut spans, None, &mut check);
        let seed = derive_seed(case.seed, c as u64);
        std::hint::black_box(sample_points(seed, r.events, POINTS));
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut run = Run {
        p,
        spans: Spans::new(p.trace),
        host: HostOps::default(),
        out: Outcome::default(),
        recovery: RecoverySums::default(),
        points: 0,
        replay_ns: 0.0,
    };
    let mut sim = SimTotals::default();
    if p.trace {
        traced(&mut run, &mut sim);
    } else {
        untraced(&mut run, &mut sim);
    }
    run.out.fingerprint("sim_cycles", sim.cycles);
    run.out.fingerprint("pm_media_bytes", sim.media);
    let speedup = Versus::speedup(&sim.per_index);
    run.out.fingerprint("speedup_bits", speedup.to_bits());
    run.out.notes.push(format!(
        "simulated: {} trace ops over {SIM_ROUNDS} rounds x {} cases (crash-free reference \
         runs); SLPMT {speedup:.3}x over FG, traffic reduction {:.1}%",
        sim.ops,
        SCHEMES.len() * INDEXES.len(),
        Versus::reduction_pct(&sim.per_index)
    ));
    run.out
}

fn untraced(run: &mut Run<'_>, sim: &mut SimTotals) {
    let p = run.p;
    let mut setup = Setup::default();
    setup.time(|| setup_round(p));
    let t0 = Instant::now();
    let mut r = 0;
    while r < SIM_ROUNDS || t0.elapsed() < p.budget() || r % BATCH_ROUNDS != 0 {
        round(run, r, (r < SIM_ROUNDS).then_some(&mut *sim), None);
        r += 1;
        if r % BATCH_ROUNDS == 0 {
            run.host.end_batch();
            setup.time(|| setup_round(p));
        }
    }
    let out = &mut run.out;
    run.host.report(out, "crash points");
    out.notes.push(format!(
        "measured {r} rounds ({} crash points) in {:.2} s; the timed operation (crash, \
         recovery, rebuild, oracle check) is {:.1}% of a point's host time, the replay to k \
         the rest",
        run.points,
        t0.elapsed().as_secs_f64(),
        run.host.total_ns / (run.host.total_ns + run.replay_ns) * 100.0
    ));
    setup.report(out, run.host.slowdown());
    let n = sim.ops as f64;
    out.metric("sim_cycles_per_op", "cycles", ratio(sim.cycles as f64, n));
    let mut lat = std::mem::take(&mut sim.lat);
    out.metric(
        "sim_p50_cycles",
        "cycles",
        percentile_u64(&mut lat, 50.0) as f64,
    );
    out.metric(
        "sim_p99_cycles",
        "cycles",
        percentile_u64(&mut lat, 99.0) as f64,
    );
    out.metric("pm_bytes_per_op", "B", ratio(sim.media as f64, n));
    let slpmt_ops: usize = sim.slpmt_traces.iter().map(|(_, t)| t.len()).sum();
    let slpmt_cycles: u64 = sim.per_index.iter().map(Versus::slpmt_cycles).sum();
    let service = ratio(slpmt_cycles as f64, slpmt_ops as f64);
    let seed = derive_seed(p.seed, 0xA11);
    let traces = std::mem::take(&mut sim.slpmt_traces);
    let rate = slo_rate(LATENCY_LIMIT, service, |gap| {
        open_loop_trial(&traces, gap, seed)
    });
    out.fingerprint("slo_rate", rate as u64);
    out.metric("sim_slo_rate_rps", "op/s", rate);
    report_speedup(out, Versus::speedup(&sim.per_index));
}

fn traced(run: &mut Run<'_>, sim: &mut SimTotals) {
    let p = run.p;
    let mut plain = Run {
        p,
        spans: Spans::new(false),
        host: HostOps::default(),
        out: Outcome::default(),
        recovery: RecoverySums::default(),
        points: 0,
        replay_ns: 0.0,
    };
    // One unmeasured round first, so allocator and page warm-up land in
    // neither side of the overhead comparison.
    round(&mut plain, 0, None, None);
    plain.host = HostOps::default();
    let mut plain_sim = SimTotals::default();
    for r in 0..SIM_ROUNDS {
        round(&mut plain, r, Some(&mut plain_sim), None);
    }
    let mut layers = Layers::default();
    for r in 0..SIM_ROUNDS {
        round(run, r, Some(sim), Some(&mut layers));
    }
    if plain_sim.cycles != sim.cycles || plain_sim.media != sim.media {
        run.out.fail(
            0,
            format!(
                "crash-recover: tracing changed the simulation ({} vs {} cycles)",
                sim.cycles, plain_sim.cycles
            ),
        );
    }
    run.out.absorb(std::mem::take(&mut plain.out));
    layers.recovery = run.recovery;
    let overhead = overhead_pct(&plain.host, &run.host);
    let spans = run.spans.self_times();
    let recovery_ns: u64 = [
        "core.crash",
        "core.recover",
        "workloads.recover",
        "workloads.oracle_check",
    ]
    .iter()
    .filter_map(|n| spans.get(n))
    .map(|s| s.self_ns)
    .sum();
    run.out.notes.push(format!(
        "crash, recovery, rebuild and oracle check take {:.1}% of crash-point host time \
         (the replay to k the rest)",
        recovery_ns as f64 / (run.host.total_ns + run.replay_ns) * 100.0
    ));
    let reduction = Versus::reduction_pct(&sim.per_index);
    layers.report(&mut run.out, &spans, reduction, overhead);
    run.out.spans_tsv = run.spans.to_tsv();
}
