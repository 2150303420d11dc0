//! Sharded execution: keyspace-partitioned scaling runs (§VI scaling).
//!
//! The multi-core engine in `slpmt_core::multi` interleaves cores over
//! *one* persistence domain; this module models the other end of the
//! design space — share-nothing scaling, where each shard owns a
//! private machine (caches + log buffer + device) and the keyspace is
//! hash-partitioned across shards. Shards never touch each other's
//! state, so [`runner::run`](crate::runner::run) can execute them on
//! any number of host threads with bit-identical results:
//! determinism comes from the partition function here and the
//! per-shard seeded traces, not from scheduling.
//!
//! Throughput is reported in *simulated* terms: shards run
//! concurrently in simulated time, so a run's makespan is the slowest
//! shard's cycle count ([`RunReport::sim_cycles`]) and scaling is
//! `total ops / makespan` ([`RunReport::sim_ops_per_kcycle`]).
//!
//! [`RunReport::sim_cycles`]: crate::runner::RunReport::sim_cycles
//! [`RunReport::sim_ops_per_kcycle`]: crate::runner::RunReport::sim_ops_per_kcycle

use crate::ycsb::{MixedOp, YcsbOp};
use slpmt_prng::splitmix64;

/// The shard owning `key`: a `splitmix64` hash keeps the partition
/// balanced even for dense or striped keyspaces.
pub fn shard_of(key: u64, shards: usize) -> usize {
    assert!(shards > 0, "at least one shard");
    let mut x = key;
    (splitmix64(&mut x) % shards as u64) as usize
}

/// Splits an operation stream by key ownership, preserving each
/// shard's relative operation order.
pub fn partition_ops(ops: &[YcsbOp], shards: usize) -> Vec<Vec<YcsbOp>> {
    let mut parts = vec![Vec::new(); shards];
    for op in ops {
        parts[shard_of(op.key, shards)].push(op.clone());
    }
    parts
}

/// Splits a mixed operation stream by key ownership, preserving each
/// shard's relative operation order. Point operations route by their
/// key; a scan's expected key set is split per shard (each shard
/// checks the slice of the range it owns), and shards with no keys in
/// the range skip the scan entirely.
pub fn partition_mixed(ops: &[MixedOp], shards: usize) -> Vec<Vec<MixedOp>> {
    let mut parts = vec![Vec::new(); shards];
    for op in ops {
        match op {
            MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => {
                parts[shard_of(o.key, shards)].push(op.clone());
            }
            MixedOp::Read(k) | MixedOp::Remove(k) => {
                parts[shard_of(*k, shards)].push(op.clone());
            }
            MixedOp::Scan { keys } => {
                let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); shards];
                for k in keys {
                    per_shard[shard_of(*k, shards)].push(*k);
                }
                for (s, keys) in per_shard.into_iter().enumerate() {
                    if !keys.is_empty() {
                        parts[s].push(MixedOp::Scan { keys });
                    }
                }
            }
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, IndexKind, RunSpec};
    use crate::ycsb::ycsb_load;
    use slpmt_core::{MachineConfig, Scheme};

    #[test]
    fn partition_is_total_and_deterministic() {
        let ops = ycsb_load(64, 8, 1);
        let parts = partition_ops(&ops, 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), ops.len());
        assert_eq!(parts, partition_ops(&ops, 4));
        for (s, part) in parts.iter().enumerate() {
            for op in part {
                assert_eq!(shard_of(op.key, 4), s);
            }
        }
    }

    #[test]
    fn partition_is_roughly_balanced() {
        let ops = ycsb_load(400, 8, 7);
        let parts = partition_ops(&ops, 4);
        for part in &parts {
            // 100 expected; a 4x imbalance would mean a broken hash.
            assert!(part.len() > 25 && part.len() < 400, "{}", part.len());
        }
    }

    #[test]
    fn mixed_partition_routes_by_key_and_splits_scans() {
        use crate::ycsb::{ycsb_mix, MixSpec};
        let (_, ops) = ycsb_mix(80, 200, 16, 5, &MixSpec::YCSB_E);
        let parts = partition_mixed(&ops, 4);
        let point_ops = ops
            .iter()
            .filter(|o| !matches!(o, MixedOp::Scan { .. }))
            .count();
        let routed_points: usize = parts
            .iter()
            .flatten()
            .filter(|o| !matches!(o, MixedOp::Scan { .. }))
            .count();
        assert_eq!(point_ops, routed_points);
        // Every scanned key lands in exactly one shard, owned by it.
        let scanned: usize = ops
            .iter()
            .filter_map(|o| match o {
                MixedOp::Scan { keys } => Some(keys.len()),
                _ => None,
            })
            .sum();
        let mut routed_scanned = 0;
        for (s, part) in parts.iter().enumerate() {
            for op in part {
                if let MixedOp::Scan { keys } = op {
                    assert!(!keys.is_empty());
                    routed_scanned += keys.len();
                    assert!(keys.iter().all(|k| shard_of(*k, 4) == s));
                }
            }
        }
        assert_eq!(scanned, routed_scanned);
    }

    #[test]
    fn sharded_mixed_run_is_deterministic() {
        use crate::ycsb::{ycsb_mix, MixSpec};
        let (load, ops) = ycsb_mix(40, 120, 16, 9, &MixSpec::DELETE_HEAVY);
        let spec = RunSpec {
            verify: true,
            shards: 3,
            ..RunSpec::mixed(
                MachineConfig::for_scheme(Scheme::Slpmt),
                IndexKind::Hashtable,
                &load,
                &ops,
                16,
            )
        };
        let (a, b) = (run(&spec), run(&spec));
        assert_eq!(a.total_ops, 120);
        assert_eq!(a.sim_cycles(), b.sim_cycles());
        assert_eq!(a.merged_stats(), b.merged_stats());
    }

    #[test]
    fn sharded_run_inserts_every_key_once() {
        let ops = ycsb_load(48, 16, 3);
        let res = run(&RunSpec {
            verify: true, // per-shard verify checks membership of its partition
            shards: 3,
            ..RunSpec::inserts(
                MachineConfig::for_scheme(Scheme::Slpmt),
                IndexKind::Hashtable,
                &ops,
                16,
            )
        });
        assert_eq!(res.total_ops, 48);
        assert_eq!(res.shards.len(), 3);
        assert!(res.merged_stats().tx_commits >= 48);
        assert!(res.sim_cycles() > 0);
        assert!(res.sim_cycles() <= res.total_cycles());
    }
}
