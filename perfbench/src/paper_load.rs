//! `paper-load`: the paper's YCSB-load insert matrix.
//!
//! Every cell is one scheme × one index fed 1,000 seeded unique 8-byte
//! keys with 256-byte values, one durable transaction per insert,
//! closed loop. A round runs all 88 cells (FG, FG+LG, FG+LZ, SLPMT,
//! ATOM, EDE and the five software PTMs, × all eight indexes) on one
//! key stream; the run is lengthened by further rounds on seeds derived
//! from `--seed`, never by growing a cell, so the speedup keeps the
//! paper's shape.
//!
//! Commit, log buffer and WPQ do most of the work here. The ~256 KiB
//! payload of a cell fits the modelled 2 MiB L3, so PM reads are rare,
//! and no codec, admission or recovery code runs.

use crate::layers::{Layers, Phase, Probe, TraceFold};
use crate::spans::Spans;
use crate::stats::{percentile_u64, ratio};
use crate::{
    derive_seed, open_loop_episode, overhead_pct, reference, report_speedup, slo_rate, HostOps,
    Outcome, Params, Setup, Trial, Versus, SLPMT,
};
use slpmt_annotate::AnnotationTable;
use slpmt_core::{MachineConfig, PtmFlavor, Scheme, SchemeKind};
use slpmt_workloads::runner::run_inserts_with;
use slpmt_workloads::{
    open_loop_arrivals, ycsb_load, AnnotationSource, DurableIndex, IndexKind, PmContext, YcsbOp,
};
use std::time::Instant;

/// Inserts per cell (the paper's YCSB-load size).
pub const CELL_OPS: usize = 1000;
/// Value payload, bytes (the paper's default).
pub const VALUE: usize = 256;
/// Rounds whose simulated results are reported; they always run in
/// full, so simulated metrics repeat exactly for a seed.
pub const SIM_ROUNDS: u64 = 2;
/// Latency limit of the open-loop rate search, simulated cycles (75 µs
/// at 2 GHz): well above an SLPMT insert's own p99, so the search finds
/// where queueing, not one slow insert, breaks the limit.
pub const LATENCY_LIMIT: u64 = 150_000;
/// Per-core trace ring capacity; the trace is drained every
/// [`DRAIN_EVERY`] inserts, far below it.
const TRACE_CAPACITY: usize = 1 << 20;
const DRAIN_EVERY: usize = 16;

/// The eleven scheme columns: six hardware designs, five software PTMs.
pub const SCHEMES: [SchemeKind; 11] = [
    SchemeKind::Hardware(Scheme::Fg),
    SchemeKind::Hardware(Scheme::FgLg),
    SchemeKind::Hardware(Scheme::FgLz),
    SchemeKind::Hardware(Scheme::Slpmt),
    SchemeKind::Hardware(Scheme::Atom),
    SchemeKind::Hardware(Scheme::Ede),
    SchemeKind::Software(PtmFlavor::UndoLog),
    SchemeKind::Software(PtmFlavor::RedoLog),
    SchemeKind::Software(PtmFlavor::RomulusLog),
    SchemeKind::Software(PtmFlavor::Trinity),
    SchemeKind::Software(PtmFlavor::Quadra),
];

/// Every `(scheme, index)` cell of a round, index-major.
pub fn cells() -> Vec<(SchemeKind, IndexKind)> {
    IndexKind::ALL
        .iter()
        .flat_map(|&k| SCHEMES.iter().map(move |&s| (s, k)))
        .collect()
}

fn arena_estimate(ops: usize) -> u64 {
    ops as u64 * (VALUE as u64 + 192) + (1 << 20)
}

/// A freshly built cell: context with its heap prefaulted, and the
/// index (set-up is untimed in simulated terms).
fn build(scheme: SchemeKind, kind: IndexKind, ops: usize) -> (PmContext, Box<dyn DurableIndex>) {
    let mut ctx = PmContext::with_config(MachineConfig::for_kind(scheme), AnnotationTable::new());
    ctx.prefault_heap(arena_estimate(ops));
    let idx = kind.build(&mut ctx, VALUE, AnnotationSource::Manual);
    (ctx, idx)
}

/// What one cell produced.
struct CellRun {
    scheme: SchemeKind,
    kind: IndexKind,
    phase: Phase,
    sim_lat: Vec<u64>,
}

/// Per-run state the cells feed.
struct Run<'a> {
    p: &'a Params,
    spans: Spans,
    host: HostOps,
    layers: Layers,
    out: Outcome,
    op_id: u64,
}

impl Run<'_> {
    /// Builds, fills and checks one cell.
    fn cell(&mut self, scheme: SchemeKind, kind: IndexKind, ops: &[YcsbOp]) -> CellRun {
        let id = self.op_id;
        let (mut ctx, mut idx) = self
            .spans
            .time("workloads.build", id, || build(scheme, kind, ops.len()));
        let handle = self.p.trace.then(|| ctx.enable_tracing(TRACE_CAPACITY));
        let mut fold = TraceFold::default();
        let insert_span = if scheme.software().is_some() {
            "ptm.insert"
        } else {
            "workloads.insert"
        };
        let probe = Probe::of(&ctx);
        let mut sim_lat = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let t0 = ctx.machine().now();
            let spans = &mut self.spans;
            let op_id = self.op_id;
            self.host.time(|| {
                spans.time(insert_span, op_id, || {
                    idx.insert(&mut ctx, op.key, &op.value)
                })
            });
            sim_lat.push(ctx.machine().now() - t0);
            self.op_id += 1;
            if handle.is_some() && i % DRAIN_EVERY == DRAIN_EVERY - 1 {
                fold.absorb(ctx.take_trace());
            }
        }
        let phase = probe.phase(&ctx);
        if let Some(h) = &handle {
            fold.absorb(ctx.take_trace());
            self.layers.add_trace(&fold, h.borrow().dropped());
        }
        self.layers.add_phase(&phase);
        self.spans.time("bench.check", id, || {
            check_cell(&mut self.out, &ctx, idx.as_ref(), scheme, kind, ops)
        });
        CellRun {
            scheme,
            kind,
            phase,
            sim_lat,
        }
    }
}

/// The cell's output checks: structure invariants, exact length, and
/// every inserted key present.
fn check_cell(
    out: &mut Outcome,
    ctx: &PmContext,
    idx: &dyn DurableIndex,
    scheme: SchemeKind,
    kind: IndexKind,
    ops: &[YcsbOp],
) {
    let n = ops.len() as u64;
    if let Err(e) = idx.check_invariants(ctx) {
        out.fail(
            n,
            format!("paper-load {scheme}/{kind}: invariant violated: {e}"),
        );
        return;
    }
    let len = idx.len(ctx);
    if len != ops.len() {
        out.fail(
            n,
            format!("paper-load {scheme}/{kind}: {len} keys, expected {n}"),
        );
        return;
    }
    let missing = ops.iter().filter(|o| !idx.contains(ctx, o.key)).count() as u64;
    if missing > 0 {
        out.fail(
            missing,
            format!("paper-load {scheme}/{kind}: {missing} keys missing"),
        );
    }
}

/// Re-runs one cell through `runner::run_inserts_with` and requires the
/// same simulated cycles and write traffic.
fn cross_check(out: &mut Outcome, cell: &CellRun, ops: &[YcsbOp], wrong: bool) {
    let r = run_inserts_with(
        MachineConfig::for_kind(cell.scheme),
        cell.kind,
        ops,
        VALUE,
        AnnotationSource::Manual,
        false,
    );
    let expected_cycles = r.cycles + u64::from(wrong);
    if cell.phase.cycles != expected_cycles || cell.phase.traffic != r.traffic {
        out.fail(
            ops.len() as u64,
            format!(
                "paper-load {}/{}: {} cycles / {} vs run_inserts_with {} cycles / {}",
                cell.scheme,
                cell.kind,
                cell.phase.cycles,
                cell.phase.traffic,
                expected_cycles,
                r.traffic
            ),
        );
    }
}

/// Simulated totals of the reported rounds.
#[derive(Default)]
struct SimTotals {
    cycles: u64,
    media: u64,
    inserts: u64,
    lat: Vec<u64>,
    /// SLPMT against FG, per kernel.
    kernels: [Versus; 4],
    /// SLPMT cells over every index: (cycles, inserts).
    slpmt: (u64, u64),
}

impl SimTotals {
    fn add(&mut self, c: CellRun) {
        self.cycles += c.phase.cycles;
        self.media += c.phase.media_bytes();
        self.inserts += c.sim_lat.len() as u64;
        if let Some(k) = IndexKind::KERNELS.iter().position(|&k| k == c.kind) {
            self.kernels[k].add(c.scheme, c.phase.cycles, c.phase.media_bytes());
        }
        if c.scheme == SLPMT {
            self.slpmt.0 += c.phase.cycles;
            self.slpmt.1 += c.sim_lat.len() as u64;
        }
        self.lat.extend(c.sim_lat);
    }
}

/// Inputs of round `r`: one seeded key stream shared by every cell.
fn round_ops(p: &Params, r: u64) -> Vec<YcsbOp> {
    ycsb_load(CELL_OPS, VALUE, derive_seed(p.seed, r))
}

/// The set-up a round needs before its first insert: its inputs, and
/// every cell built with its heap prefaulted.
fn setup_round(p: &Params) {
    let ops = round_ops(p, 0);
    for (scheme, kind) in cells() {
        std::hint::black_box(build(scheme, kind, ops.len()));
    }
}

/// Runs all cells of one round, folding reported rounds into `sim`.
fn round(run: &mut Run<'_>, r: u64, mut sim: Option<&mut SimTotals>) {
    let ops = round_ops(run.p, r);
    let all = cells();
    // One cell per round is re-run through the library's own runner.
    let cross = (r as usize * 7) % all.len();
    for (i, &(scheme, kind)) in all.iter().enumerate() {
        let c = run.cell(scheme, kind, &ops);
        if i == cross {
            let wrong = run.p.wrong_expectation;
            run.spans.time("bench.check", 0, || {
                cross_check(&mut run.out, &c, &ops, wrong)
            });
        }
        run.out.attempted += ops.len() as u64;
        if let Some(s) = sim.as_deref_mut() {
            s.add(c);
        }
    }
}

/// Open-loop SLPMT inserts on every index, one cell per index and key
/// stream, at mean gap `gap`.
fn open_loop_trial(streams: &[Vec<YcsbOp>], gap: u64, seed: u64) -> Trial {
    let mut lat = Vec::new();
    let mut final_lateness = 0;
    let episodes = IndexKind::ALL
        .iter()
        .flat_map(|&k| streams.iter().map(move |ops| (k, ops)));
    for (e, (kind, ops)) in episodes.enumerate() {
        let arrivals = open_loop_arrivals(ops.len(), gap, derive_seed(seed, e as u64));
        let (mut ctx, mut idx) = build(SLPMT, kind, ops.len());
        let last = open_loop_episode(&mut ctx, ops, &arrivals, &mut lat, |ctx, op| {
            idx.insert(ctx, op.key, &op.value)
        });
        final_lateness = final_lateness.max(last);
    }
    Trial {
        p99: percentile_u64(&mut lat, 99.0),
        shed: 0,
        final_lateness,
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut run = Run {
        p,
        spans: Spans::new(p.trace),
        host: HostOps::default(),
        layers: Layers::default(),
        out: Outcome::default(),
        op_id: 0,
    };
    // Sized up front: growing it would make the RSS peak depend on
    // when the reallocation happens to land.
    let mut sim = SimTotals {
        lat: Vec::with_capacity(SIM_ROUNDS as usize * cells().len() * CELL_OPS),
        ..SimTotals::default()
    };
    if p.trace {
        traced(&mut run, &mut sim);
    } else {
        untraced(&mut run, &mut sim);
    }
    let speedup = Versus::speedup(&sim.kernels);
    run.out.fingerprint("sim_cycles", sim.cycles);
    run.out.fingerprint("pm_media_bytes", sim.media);
    run.out.fingerprint("speedup_bits", speedup.to_bits());
    run.out.notes.push(format!(
        "simulated: {} inserts over {SIM_ROUNDS} rounds x {} cells; SLPMT {speedup:.3}x over FG \
         (paper {:.2}x), traffic reduction {:.1}% (paper {:.0}%)",
        sim.inserts,
        cells().len(),
        reference::SLPMT_SPEEDUP_VS_FG,
        Versus::reduction_pct(&sim.kernels),
        reference::SLPMT_TRAFFIC_REDUCTION_PCT
    ));
    run.out
}

fn untraced(run: &mut Run<'_>, sim: &mut SimTotals) {
    let p = run.p;
    let mut setup = Setup::default();
    setup.time(|| setup_round(p));
    let t0 = Instant::now();
    let mut r = 0;
    while r < SIM_ROUNDS || t0.elapsed() < p.budget() {
        round(run, r, (r < SIM_ROUNDS).then_some(&mut *sim));
        run.host.end_batch();
        setup.time(|| setup_round(p));
        r += 1;
    }
    let out = &mut run.out;
    run.host.report(out, "inserts");
    out.notes.push(format!(
        "measured {r} rounds in {:.2} s",
        t0.elapsed().as_secs_f64()
    ));
    setup.report(out, run.host.slowdown());
    let n = sim.inserts as f64;
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
    let streams: Vec<Vec<YcsbOp>> = (0..SIM_ROUNDS).map(|r| round_ops(p, r)).collect();
    let service = ratio(sim.slpmt.0 as f64, sim.slpmt.1 as f64);
    let seed = derive_seed(p.seed, 0xA11);
    let rate = slo_rate(LATENCY_LIMIT, service, |gap| {
        open_loop_trial(&streams, gap, seed)
    });
    out.fingerprint("slo_rate", rate as u64);
    out.metric("sim_slo_rate_rps", "op/s", rate);
    report_speedup(out, Versus::speedup(&sim.kernels));
}

fn traced(run: &mut Run<'_>, sim: &mut SimTotals) {
    // Untraced pass first: the host-time baseline for the overhead.
    let p = run.p;
    let mut plain = Run {
        p,
        spans: Spans::new(false),
        host: HostOps::default(),
        layers: Layers::default(),
        out: Outcome::default(),
        op_id: 0,
    };
    let mut plain_sim = SimTotals::default();
    for r in 0..SIM_ROUNDS {
        round(&mut plain, r, Some(&mut plain_sim));
    }
    for r in 0..SIM_ROUNDS {
        round(run, r, Some(sim));
    }
    if plain_sim.cycles != sim.cycles || plain_sim.media != sim.media {
        run.out.fail(
            0,
            format!(
                "paper-load: tracing changed the simulation ({} vs {} cycles)",
                sim.cycles, plain_sim.cycles
            ),
        );
    }
    run.out.absorb(std::mem::take(&mut plain.out));
    let overhead = overhead_pct(&plain.host, &run.host);
    let spans = run.spans.self_times();
    let reduction = Versus::reduction_pct(&sim.kernels);
    run.layers.report(&mut run.out, &spans, reduction, overhead);
    run.out.spans_tsv = run.spans.to_tsv();
}
