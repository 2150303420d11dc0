//! The entry walk (`DurableIndex::for_each_entry`) and the streaming
//! oracle's check built on it.
//!
//! * Equivalence: on seeded delete-heavy traces, every index's walk
//!   yields exactly the keys `value_of` finds, each once, with the
//!   bytes `value_of` returns.
//! * One lookup, two modes: on the same traces, the untimed
//!   `value_of` returns what the timed `get` returns, and moves no
//!   clock, counter or persist event.
//! * Non-vacuity: `StreamingOracle::check` rejects a flipped value
//!   byte, a missing key, an extra key, both at once, and a walk that
//!   yields one key twice at the correct count — each with its
//!   expected message.

use slpmt::annotate::AnnotationTable;
use slpmt::core::Scheme;
use slpmt::pmem::PmAddr;
use slpmt::workloads::crashsweep::{apply, trace_ops, StreamingOracle, SweepCase};
use slpmt::workloads::runner::{DurableIndex, IndexKind, Reader};
use slpmt::workloads::{AnnotationSource, MixSpec, MixedOp, PmContext};
use std::collections::BTreeSet;

const VALUE: usize = 32;

/// A delete-heavy trace of `kind`, run crash-free.
fn run(kind: IndexKind, seed: u64) -> (Vec<MixedOp>, PmContext, Box<dyn DurableIndex>) {
    let case = SweepCase::with_mix(Scheme::Slpmt, kind, seed, 40, 120, MixSpec::DELETE_HEAVY);
    let ops = trace_ops(&case);
    let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
    let mut idx = kind.build(&mut ctx, VALUE, AnnotationSource::Manual);
    for op in &ops {
        apply(idx.as_mut(), &mut ctx, op);
    }
    (ops, ctx, idx)
}

fn entries(ctx: &PmContext, idx: &dyn DurableIndex) -> Vec<(u64, PmAddr)> {
    let mut out = Vec::new();
    idx.for_each_entry(ctx, &mut |k, a| out.push((k, a)));
    out
}

fn full_oracle(ops: &[MixedOp]) -> StreamingOracle<'_> {
    let mut oracle = StreamingOracle::new(ops);
    oracle.advance_to(ops.len());
    oracle
}

#[test]
fn entry_walk_yields_exactly_the_keys_value_of_finds() {
    for kind in IndexKind::ALL {
        for seed in [3, 17, 40] {
            let (ops, ctx, idx) = run(kind, seed);
            let walked = entries(&ctx, idx.as_ref());
            let keys: BTreeSet<u64> = walked.iter().map(|&(k, _)| k).collect();
            assert_eq!(keys.len(), walked.len(), "{kind} seed {seed}: a key twice");
            assert_eq!(walked.len(), idx.len(&ctx), "{kind} seed {seed}");
            // Every key the trace touched: present exactly when walked.
            let touched: BTreeSet<u64> = ops
                .iter()
                .flat_map(|op| match op {
                    MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => vec![o.key],
                    MixedOp::Remove(k) | MixedOp::Read(k) => vec![*k],
                    MixedOp::Scan { keys } => keys.clone(),
                })
                .collect();
            assert!(keys.is_subset(&touched), "{kind} seed {seed}");
            for k in &touched {
                let found = idx.value_of(&ctx, *k).is_some();
                assert_eq!(keys.contains(k), found, "{kind} seed {seed} key {k}");
            }
            for (k, addr) in walked {
                let want = idx.value_of(&ctx, k).expect("walked key is present");
                let mut got = vec![0u8; want.len()];
                ctx.peek_bytes(addr, &mut got);
                assert_eq!(got, want, "{kind} seed {seed} key {k}");
            }
            // The walk agrees with the model, too.
            let oracle = full_oracle(&ops);
            assert!(oracle.len() > 10, "{kind} seed {seed}: trace too small");
            oracle.check(&ctx, idx.as_ref()).unwrap();
        }
    }
}

#[test]
fn value_of_is_get_without_timing() {
    for kind in IndexKind::ALL {
        for seed in [3, 17, 40] {
            let (ops, ctx, idx) = run(kind, seed);
            // Every live key, every removed key, and a few never seen.
            let mut keys: BTreeSet<u64> = entries(&ctx, idx.as_ref())
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            keys.extend(ops.iter().filter_map(|op| match op {
                MixedOp::Remove(k) => Some(*k),
                _ => None,
            }));
            keys.extend([0, 1, u64::MAX]);
            let m = ctx.machine();
            let (now, stats, events) = (m.now(), *m.stats(), m.persist_event_count());
            let mut timed = ctx.clone();
            for &k in &keys {
                let got = idx.get(&mut timed, k);
                assert_eq!(idx.value_of(&ctx, k), got, "{kind} seed {seed} key {k}");
            }
            assert!(
                timed.machine().now() > now,
                "{kind} seed {seed}: get is timed"
            );
            let m = ctx.machine();
            assert_eq!(m.now(), now, "{kind} seed {seed}");
            assert_eq!(*m.stats(), stats, "{kind} seed {seed}");
            assert_eq!(m.persist_event_count(), events, "{kind} seed {seed}");
        }
    }
}

#[test]
fn check_rejects_a_flipped_value_byte() {
    for kind in IndexKind::ALL {
        let (mut ops, ctx, idx) = run(kind, 5);
        let first = full_oracle(&ops).iter().next().expect("live keys").0;
        // Flip one byte of the write that stays live to the end.
        let last = ops.iter_mut().rev().find_map(|op| match op {
            MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) if o.key == first => Some(o),
            _ => None,
        });
        last.expect("a write of the key").value[0] ^= 1;
        let err = full_oracle(&ops).check(&ctx, idx.as_ref()).unwrap_err();
        let want = format!("key {first} recovered as Some({VALUE}), oracle says {VALUE} (b=");
        assert!(err.starts_with(&want), "{kind}: {err}");
    }
}

#[test]
fn check_rejects_a_missing_and_an_extra_key() {
    for kind in IndexKind::ALL {
        let (ops, mut ctx, mut idx) = run(kind, 8);
        let oracle = full_oracle(&ops);
        let n = oracle.len();
        let (victim, _) = oracle.iter().nth(n / 2).expect("live keys");
        assert!(idx.remove(&mut ctx, victim));
        let err = oracle.check(&ctx, idx.as_ref()).unwrap_err();
        let want = format!("{} keys recovered, oracle has {n} after", n - 1);
        assert!(err.starts_with(&want), "{kind}: {err}");

        let (ops, mut ctx, mut idx) = run(kind, 8);
        let extra = (1..).find(|k| !idx.contains(&ctx, *k)).expect("a free key");
        assert!(extra < oracle.iter().next().expect("live keys").0);
        idx.insert(&mut ctx, extra, &[7; VALUE]);
        let err = full_oracle(&ops).check(&ctx, idx.as_ref()).unwrap_err();
        let want = format!("{} keys recovered, oracle has {n} after", n + 1);
        assert!(err.starts_with(&want), "{kind}: {err}");

        // Both at once keep the count: the missing key is named, not
        // the extra one that sorts before every model key.
        assert!(idx.remove(&mut ctx, victim));
        let err = full_oracle(&ops).check(&ctx, idx.as_ref()).unwrap_err();
        let want = format!("key {victim} recovered as None, oracle says {VALUE} (b=");
        assert!(err.starts_with(&want), "{kind}: {err}");
    }
}

/// An index whose walk yields its smallest key's entry a second time
/// in place of the second-smallest key's: the count stays right.
struct RepeatsAKey<'a>(&'a dyn DurableIndex);

impl DurableIndex for RepeatsAKey<'_> {
    fn name(&self) -> &'static str {
        "repeats-a-key"
    }
    fn insert(&mut self, _: &mut PmContext, _: u64, _: &[u8]) {
        unreachable!("read-only wrapper")
    }
    fn remove(&mut self, _: &mut PmContext, _: u64) -> bool {
        unreachable!("read-only wrapper")
    }
    fn update(&mut self, _: &mut PmContext, _: u64, _: &[u8]) -> bool {
        unreachable!("read-only wrapper")
    }
    fn lookup(&self, r: &mut Reader<'_>, key: u64) -> Option<Vec<u8>> {
        self.0.lookup(r, key)
    }
    fn for_each_entry(&self, ctx: &PmContext, f: &mut dyn FnMut(u64, PmAddr)) {
        let mut all = entries(ctx, self.0);
        all.sort_unstable_by_key(|&(k, _)| k);
        all[1] = all[0];
        for (k, a) in all {
            f(k, a);
        }
    }
    fn len(&self, ctx: &PmContext) -> usize {
        self.0.len(ctx)
    }
    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String> {
        self.0.check_invariants(ctx)
    }
    fn reachable(&self, ctx: &PmContext) -> Vec<PmAddr> {
        self.0.reachable(ctx)
    }
    fn recover(&mut self, _: &mut PmContext) {
        unreachable!("read-only wrapper")
    }
}

#[test]
fn check_rejects_a_repeated_key_that_hides_a_missing_one() {
    for kind in IndexKind::ALL {
        let (ops, ctx, idx) = run(kind, 11);
        let oracle = full_oracle(&ops);
        oracle.check(&ctx, idx.as_ref()).unwrap();
        let hidden = oracle.iter().nth(1).expect("two live keys").0;
        let err = oracle.check(&ctx, &RepeatsAKey(idx.as_ref())).unwrap_err();
        let want = format!("key {hidden} recovered as None, oracle says {VALUE} (b=");
        assert!(err.starts_with(&want), "{kind}: {err}");
    }
}
