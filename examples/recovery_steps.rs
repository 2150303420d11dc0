//! Host time of each step of a crash point's recovery path.
//!
//! Runs the shape of perfbench's `crash-recover` workload — SLPMT,
//! SLPMT-redo, FG and the undo/redo software PTMs over hashtable,
//! rbtree and kv-btree, each on a delete-heavy trace of 64 load
//! inserts and 128 mixed operations with 32-byte values, 12 seeded
//! crash points per case and 16 rounds (2,880 points) — and reads the
//! clock between the steps of each point's recovery path, `crash`
//! through the oracle check, with the oracle's model advance to the
//! committed prefix timed apart from its check of the recovered
//! entries. The replay to the crash point is not timed. Prints the
//! mean host µs per point of each step and its share of the whole,
//! then the same means for each (scheme, index) case with
//! the case's p99 for the whole operation and how many of the slowest
//! 1% of all points it holds, so a tail names the case it came from;
//! every point must pass its check. Last, for each hashtable case, the
//! share of its points, and of its points among the slowest 1%, whose
//! rehash window is open after log replay: the root's word 3 (the old
//! generation) is non-zero, so `DurableIndex::recover` re-executes a
//! rehash. That one word read is timed with `DurableIndex::recover`.
//!
//! ```sh
//! cargo run --release --example recovery_steps
//! ```

use slpmt::annotate::AnnotationTable;
use slpmt::core::sweep::{committed_prefix, sample_points};
use slpmt::core::{MachineConfig, PtmFlavor, Scheme, SchemeKind};
use slpmt::pmem::PmAddr;
use slpmt::workloads::crashsweep::apply;
use slpmt::workloads::runner::{DurableIndex, IndexKind, Visit};
use slpmt::workloads::{
    inspect, ycsb_mix, AnnotationSource, MixSpec, MixedOp, PmContext, StreamingOracle,
};
use slpmt_prng::splitmix64;
use std::time::Instant;

const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::Hardware(Scheme::Slpmt),
    SchemeKind::Hardware(Scheme::SlpmtRedo),
    SchemeKind::Hardware(Scheme::Fg),
    SchemeKind::Software(PtmFlavor::UndoLog),
    SchemeKind::Software(PtmFlavor::RedoLog),
];
const INDEXES: [IndexKind; 3] = [IndexKind::Hashtable, IndexKind::Rbtree, IndexKind::KvBtree];
const LOAD: usize = 64;
const OPS: usize = 128;
const VALUE: usize = 32;
const POINTS: usize = 12;
const ROUNDS: u64 = 16;

const CASES: usize = SCHEMES.len() * INDEXES.len();

const STEPS: [&str; 10] = [
    "`crash`",
    "log replay (`PmContext::recover`)",
    "`DurableIndex::recover`",
    "`reachable`",
    "`inspect`, before GC",
    "`gc`",
    "`check_invariants`",
    "`inspect`, after GC",
    "`StreamingOracle::advance_to`",
    "`StreamingOracle::check`",
];

/// Builds the case and replays `ops`, until persist event `k` trips
/// the armed crash when there is one; returns the state and each
/// operation's last transaction sequence number.
fn replay(
    scheme: SchemeKind,
    kind: IndexKind,
    ops: &[MixedOp],
    crash_at: Option<u64>,
) -> (PmContext, Box<dyn DurableIndex>, Vec<u64>) {
    let mut ctx = PmContext::with_config(MachineConfig::for_kind(scheme), AnnotationTable::new());
    let mut idx = kind.build(&mut ctx, VALUE, AnnotationSource::Manual);
    if let Some(k) = crash_at {
        ctx.machine_mut().arm_crash_at_event(k);
    }
    let mut op_seq = Vec::with_capacity(ops.len());
    for op in ops {
        apply(idx.as_mut(), &mut ctx, op);
        op_seq.push(ctx.txn_seq());
        if ctx.machine().crash_tripped() {
            break;
        }
    }
    (ctx, idx, op_seq)
}

/// The structure's root: the first block its walk visits.
fn root(ctx: &PmContext, idx: &dyn DurableIndex) -> PmAddr {
    let mut root = None;
    idx.walk(ctx, &mut |v| {
        if let (None, Visit::Block(a)) = (root, v) {
            root = Some(a);
        }
    });
    root.expect("the walk visits the root first")
}

/// Column heads of the per-case table, one per step.
const SHORT: [&str; 10] = [
    "crash",
    "replay",
    "recover",
    "reachable",
    "inspect",
    "gc",
    "check",
    "inspect",
    "advance",
    "oracle",
];

fn main() {
    let mut ns = [[0u128; STEPS.len()]; CASES];
    let mut points = [0u64; CASES];
    // Each point's whole operation, ns, and whether its rehash window
    // was open, per case.
    let mut wholes = vec![Vec::new(); CASES];
    let mut names = vec![String::new(); CASES];
    for round in 0..ROUNDS {
        let mut state = 42 ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let seed = splitmix64(&mut state);
        let (load, mixed) = ycsb_mix(LOAD, OPS, VALUE, seed, &MixSpec::DELETE_HEAVY);
        let mut ops: Vec<MixedOp> = load.into_iter().map(MixedOp::Insert).collect();
        ops.extend(mixed);
        for (c, (kind, scheme)) in INDEXES
            .iter()
            .flat_map(|&k| SCHEMES.iter().map(move |&s| (k, s)))
            .enumerate()
        {
            names[c] = format!("{scheme} {kind}");
            let ns = &mut ns[c];
            let (ctx, idx, _) = replay(scheme, kind, &ops, None);
            let events = ctx.machine().persist_event_count();
            // The build allocates the root, so every replay shares it.
            let table = (kind == IndexKind::Hashtable).then(|| root(&ctx, idx.as_ref()));
            let mut oracle = StreamingOracle::new(&ops);
            for k in sample_points(seed ^ c as u64, events, POINTS) {
                let (mut ctx, mut idx, op_seq) = replay(scheme, kind, &ops, Some(k));
                let start = Instant::now();
                let mut lap = start;
                let mut step = |i: usize| {
                    let now = Instant::now();
                    ns[i] += (now - lap).as_nanos();
                    lap = now;
                };
                ctx.crash();
                step(0);
                let b = committed_prefix(&op_seq, ctx.durable_commit_seq());
                ctx.recover();
                step(1);
                let open = table.is_some_and(|r| ctx.peek_words::<4>(r)[3] != 0);
                idx.recover(&mut ctx);
                step(2);
                let reachable = idx.reachable(&ctx);
                step(3);
                inspect(&ctx, &reachable);
                step(4);
                ctx.gc(&reachable);
                step(5);
                let invariants = idx.check_invariants(&ctx);
                step(6);
                let clean = inspect(&ctx, &reachable).is_clean();
                step(7);
                oracle.advance_to(b);
                step(8);
                let verdict = oracle.check(&ctx, idx.as_ref());
                step(9);
                wholes[c].push(((lap - start).as_nanos(), open));
                let case = format!("{scheme} {kind} seed={seed} k={k}");
                invariants.unwrap_or_else(|e| panic!("{case}: {e}"));
                assert!(clean, "{case}: leaks after GC");
                verdict.unwrap_or_else(|e| panic!("{case}: {e}"));
                points[c] += 1;
            }
        }
    }
    let steps: [u128; STEPS.len()] = std::array::from_fn(|i| ns.iter().map(|c| c[i]).sum());
    let total: u128 = steps.iter().sum();
    let all: u64 = points.iter().sum();
    let us = |t: u128, n: u64| t as f64 / 1e3 / n as f64;
    println!("{all} crash points, mean host µs per point\n");
    println!("| step | µs | share |");
    println!("|---|---|---|");
    for (name, &t) in STEPS.iter().zip(&steps) {
        let share = 100.0 * t as f64 / total as f64;
        println!("| {name} | {:.2} | {share:.1}% |", us(t, all));
    }
    println!("| whole operation | {:.2} | |", us(total, all));
    // Nearest-rank p99 of a case's points, and the case of each of the
    // slowest 1% of all points.
    let p99 = |ts: &mut Vec<(u128, bool)>| {
        ts.sort_unstable();
        ts[(ts.len() * 99).div_ceil(100) - 1].0
    };
    let mut tail: Vec<(u128, usize, bool)> = (wholes.iter().enumerate())
        .flat_map(|(c, ts)| ts.iter().map(move |&(t, open)| (t, c, open)))
        .collect();
    tail.sort_unstable_by(|a, b| b.cmp(a));
    tail.truncate(tail.len().div_ceil(100));
    let mut in_tail = [0usize; CASES];
    let mut open_in_tail = [0usize; CASES];
    for &(_, c, open) in &tail {
        in_tail[c] += 1;
        open_in_tail[c] += usize::from(open);
    }
    println!(
        "\nPer case, mean host µs per point (steps in the order above), the whole \
         operation's p99 µs, and how many of the {} slowest points (1%) the case holds\n",
        tail.len()
    );
    println!(
        "| case | {} | whole | p99 | slowest 1% |",
        SHORT.join(" | ")
    );
    println!("|---|{}---|---|---|", "---|".repeat(SHORT.len()));
    for (c, (name, case)) in names.iter().zip(&ns).enumerate() {
        let n = points[c];
        let cells: Vec<String> = case.iter().map(|&t| format!("{:.2}", us(t, n))).collect();
        let whole = us(case.iter().sum(), n);
        let tail_us = us(p99(&mut wholes[c]), 1);
        println!(
            "| {name} | {} | {whole:.2} | {tail_us:.2} | {} |",
            cells.join(" | "),
            in_tail[c]
        );
    }
    println!(
        "\nHashtable cases: points whose rehash window is open after log replay, \
         among all the case's points and among its points in the slowest 1%\n"
    );
    println!("| case | all points | slowest 1% |");
    println!("|---|---|---|");
    let share =
        |n: usize, of: usize| format!("{n}/{of} ({:.0}%)", 100.0 * n as f64 / of.max(1) as f64);
    for (c, name) in names.iter().enumerate() {
        if name.ends_with(" hashtable") {
            let open = wholes[c].iter().filter(|&&(_, open)| open).count();
            println!(
                "| {name} | {} | {} |",
                share(open, wholes[c].len()),
                share(open_in_tail[c], in_tail[c])
            );
        }
    }
}
