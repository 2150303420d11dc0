//! Range-scan correctness for the ordered indexes, model-based against
//! a `BTreeMap` oracle (the ROART-style range queries the paper cites
//! as motivation for persistent ordered indexes). Seeded loops replace
//! `proptest` (unavailable offline).

use slpmt::annotate::AnnotationTable;
use slpmt::core::Scheme;
use slpmt::workloads::runner::{DurableIndex, IndexKind};
use slpmt::workloads::{ycsb_load, AnnotationSource, PmContext};
use slpmt_prng::SimRng;
use std::collections::BTreeMap;

/// The indexes that serve range scans.
const ORDERED: [IndexKind; 6] = [
    IndexKind::Rbtree,
    IndexKind::Avl,
    IndexKind::KvBtree,
    IndexKind::KvCtree,
    IndexKind::KvRtree,
    IndexKind::KvSkiplist,
];

fn build(kind: IndexKind) -> (PmContext, Box<dyn DurableIndex>) {
    let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
    let idx = kind.build(&mut ctx, 16, AnnotationSource::Manual);
    (ctx, idx)
}

fn scan(idx: &mut dyn DurableIndex, ctx: &mut PmContext, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)> {
    idx.scan_range(ctx, lo, hi).expect("ordered index scans")
}

fn check_against_oracle(kind: IndexKind, n: usize, seed: u64, ranges: &[(u64, u64)]) {
    let (mut ctx, mut idx) = build(kind);
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for op in ycsb_load(n, 16, seed) {
        idx.insert(&mut ctx, op.key, &op.value);
        oracle.insert(op.key, op.value);
    }
    for &(a, b) in ranges {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let got = scan(idx.as_mut(), &mut ctx, lo, hi);
        let want: Vec<(u64, Vec<u8>)> = oracle
            .range(lo..=hi)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        assert_eq!(&got, &want, "{} range [{}, {}]", idx.name(), lo, hi);
    }
    // Full scan covers everything, in order.
    let all = scan(idx.as_mut(), &mut ctx, u64::MIN, u64::MAX);
    assert_eq!(all.len(), oracle.len());
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
}

#[test]
fn ordered_indexes_scan_like_the_oracle() {
    for case in 0..12u64 {
        let mut rng = SimRng::seed_from_u64(0x5CA2 ^ case);
        let n = rng.gen_usize(1..120);
        let seed = rng.gen_range(0..1000);
        let ranges: Vec<(u64, u64)> = (0..rng.gen_usize(1..6))
            .map(|_| (rng.next_u64(), rng.next_u64()))
            .collect();
        let kind = ORDERED[rng.gen_usize(0..ORDERED.len())];
        check_against_oracle(kind, n, seed, &ranges);
    }
}

#[test]
fn scans_survive_crash_recovery() {
    let (mut ctx, mut idx) = build(IndexKind::KvSkiplist);
    let ops = ycsb_load(100, 16, 5);
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for op in &ops {
        idx.insert(&mut ctx, op.key, &op.value);
        oracle.insert(op.key, op.value.clone());
    }
    ctx.crash_and_recover();
    idx.recover(&mut ctx);
    ctx.gc(&idx.reachable(&ctx));
    let all = scan(idx.as_mut(), &mut ctx, u64::MIN, u64::MAX);
    let want: Vec<(u64, Vec<u8>)> = oracle.iter().map(|(k, v)| (*k, v.clone())).collect();
    assert_eq!(all, want);
}

#[test]
fn tight_and_empty_ranges() {
    let (mut ctx, mut idx) = build(IndexKind::KvBtree);
    let ops = ycsb_load(50, 16, 6);
    for op in &ops {
        idx.insert(&mut ctx, op.key, &op.value);
    }
    let k = ops[25].key;
    assert_eq!(
        scan(idx.as_mut(), &mut ctx, k, k),
        vec![(k, ops[25].value.clone())]
    );
    // A hole between two adjacent keys is empty.
    let mut keys: Vec<u64> = ops.iter().map(|o| o.key).collect();
    keys.sort_unstable();
    for w in keys.windows(2) {
        if w[1] - w[0] > 2 {
            assert!(scan(idx.as_mut(), &mut ctx, w[0] + 1, w[1] - 1).is_empty());
            break;
        }
    }
}
