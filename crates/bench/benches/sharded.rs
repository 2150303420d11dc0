//! `sharded` — self-benchmark of the share-nothing sharded mode:
//! simulated throughput scaling as the keyspace is partitioned across
//! 1 → 2 → 4 private machines.
//!
//! Shards run concurrently in *simulated* time, so the scaling metric
//! is total ops over the slowest shard's cycle count
//! (`RunReport::sim_ops_per_kcycle`); wall-clock speedup is also
//! printed but depends on the host's core count (`SLPMT_THREADS`).
//! The acceptance bar is >=2x simulated throughput going 1 -> 4 shards
//! on the hashtable YCSB-load stream.
//!
//! `SLPMT_OPS` scales the workload (default 1000).

use slpmt_bench::{compare, header, workload};
use slpmt_core::{MachineConfig, Scheme};
use slpmt_workloads::runner::{run, threads, IndexKind, RunReport, RunSpec};
use slpmt_workloads::YcsbOp;
use std::time::Instant;

/// `ops` split across `shards` keyspace shards on `SLPMT_THREADS`
/// host workers.
fn sharded(scheme: Scheme, kind: IndexKind, ops: &[YcsbOp], shards: usize) -> RunReport {
    let mut spec = RunSpec::inserts(MachineConfig::for_scheme(scheme), kind, ops, 256);
    spec.shards = shards;
    spec.workers = threads();
    run(&spec)
}

fn main() {
    let ops = workload(256);

    header("sharded", "keyspace-sharded scaling (simulated ops/kcycle)");

    for (scheme, kind) in [
        (Scheme::Slpmt, IndexKind::Hashtable),
        (Scheme::Fg, IndexKind::Hashtable),
        (Scheme::Slpmt, IndexKind::Rbtree),
    ] {
        println!("-- {kind} / {scheme}: {} inserts --", ops.len());
        let mut base = None;
        for shards in [1usize, 2, 4] {
            let start = Instant::now();
            let res = sharded(scheme, kind, &ops, shards);
            let dt = start.elapsed().as_secs_f64();
            let tput = res.sim_ops_per_kcycle();
            let base_tput = *base.get_or_insert(tput);
            println!(
                "{shards} shard(s): {tput:>8.3} sim-ops/kcycle \
                 ({:.2}x vs 1 shard; makespan {:>9} cycles, {dt:.3}s wall)",
                tput / base_tput,
                res.sim_cycles(),
            );
        }
    }

    // The acceptance measurement: hashtable/SLPMT, 1 vs 4 shards.
    let one = sharded(Scheme::Slpmt, IndexKind::Hashtable, &ops, 1);
    let four = sharded(Scheme::Slpmt, IndexKind::Hashtable, &ops, 4);
    let scaling = four.sim_ops_per_kcycle() / one.sim_ops_per_kcycle();
    compare(
        "1->4 shard sim throughput",
        ">=2x",
        format!("{scaling:.2}x"),
    );
    assert!(
        scaling >= 2.0,
        "sharded scaling regressed: {scaling:.2}x < 2x going 1 -> 4 shards"
    );
}
