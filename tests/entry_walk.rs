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
//! * Pinned observers: on seeded delete-heavy traces, crash-free and
//!   after crash and recovery at three persist events, every index's
//!   `reachable`, entry walk, `len` and `contains` give recorded
//!   digests.

use slpmt::annotate::AnnotationTable;
use slpmt::core::Scheme;
use slpmt::pmem::PmAddr;
use slpmt::workloads::crashsweep::{apply, trace_ops, StreamingOracle, SweepCase};
use slpmt::workloads::runner::{DurableIndex, IndexKind, Reader, ValueAt, Visit};
use slpmt::workloads::{AnnotationSource, MixSpec, MixedOp, PmContext};
use std::collections::BTreeSet;

const VALUE: usize = 32;

/// A delete-heavy trace of `kind`, run crash-free.
fn run(kind: IndexKind, seed: u64) -> (Vec<MixedOp>, PmContext, Box<dyn DurableIndex>) {
    run_until(kind, seed, None)
}

/// [`run`], or with a crash armed at persist event `k`: the trace stops
/// once the crash trips, and the power stays on.
fn run_until(
    kind: IndexKind,
    seed: u64,
    crash_at: Option<u64>,
) -> (Vec<MixedOp>, PmContext, Box<dyn DurableIndex>) {
    let case = SweepCase::with_mix(Scheme::Slpmt, kind, seed, 40, 120, MixSpec::DELETE_HEAVY);
    let ops = trace_ops(&case);
    let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
    let mut idx = kind.build(&mut ctx, VALUE, AnnotationSource::Manual);
    if let Some(k) = crash_at {
        ctx.machine_mut().arm_crash_at_event(k);
    }
    for op in &ops {
        apply(idx.as_mut(), &mut ctx, op);
        if ctx.machine().crash_tripped() {
            break;
        }
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
    fn locate(&self, r: &mut Reader<'_>, key: u64) -> Option<ValueAt> {
        self.0.locate(r, key)
    }
    fn walk(&self, ctx: &PmContext, f: &mut dyn FnMut(Visit)) {
        self.0.walk(ctx, &mut |v| {
            if let Visit::Block(_) = v {
                f(v);
            }
        });
        let mut all = entries(ctx, self.0);
        all.sort_unstable_by_key(|&(k, _)| k);
        all[1] = all[0];
        for (k, a) in all {
            f(Visit::Entry(k, a));
        }
    }
    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String> {
        self.0.check_invariants(ctx)
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
        let repeats = RepeatsAKey(idx.as_ref());
        assert_eq!(repeats.len(&ctx), idx.len(&ctx), "{kind}");
        assert_eq!(repeats.reachable(&ctx), idx.reachable(&ctx), "{kind}");
        let err = oracle.check(&ctx, &repeats).unwrap_err();
        let want = format!("key {hidden} recovered as None, oracle says {VALUE} (b=");
        assert!(err.starts_with(&want), "{kind}: {err}");
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(method, digest)` for each untimed observer.
type Observed = [(&'static str, u64); 4];

/// What the untimed observers report on one state of one index:
/// `reachable()`, the sorted entry walk, `len`, and `contains` over
/// every key the trace wrote or removed plus three never seen.
fn observe(ops: &[MixedOp], ctx: &PmContext, idx: &dyn DurableIndex) -> Observed {
    let mut pairs = entries(ctx, idx);
    pairs.sort_unstable();
    let mut keys: BTreeSet<u64> = ops
        .iter()
        .map(|op| match op {
            MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => o.key,
            MixedOp::Remove(k) | MixedOp::Read(k) => *k,
            MixedOp::Scan { keys } => keys[0],
        })
        .collect();
    keys.extend([0, 1, u64::MAX]);
    [
        (
            "reachable",
            digest(idx.reachable(ctx).iter().map(|a| a.raw())),
        ),
        (
            "for_each_entry",
            digest(pairs.iter().flat_map(|&(k, a)| [k, a.raw()])),
        ),
        ("len", idx.len(ctx) as u64),
        (
            "contains",
            digest(keys.iter().map(|&k| u64::from(idx.contains(ctx, k)))),
        ),
    ]
}

/// The observers of every index on a seeded delete-heavy trace: once
/// crash-free (`k = 0` in the table), then after crash, log replay and
/// `recover` at a quarter, half and three quarters of the trace's
/// persist events.
fn observations() -> Vec<(IndexKind, u64, Observed)> {
    let mut out = Vec::new();
    for kind in IndexKind::ALL {
        let (ops, ctx, idx) = run(kind, 23);
        out.push((kind, 0, observe(&ops, &ctx, idx.as_ref())));
        let events = ctx.machine().persist_event_count();
        for k in [events / 4, events / 2, 3 * events / 4] {
            let (ops, mut ctx, mut idx) = run_until(kind, 23, Some(k));
            ctx.crash();
            ctx.recover();
            idx.recover(&mut ctx);
            out.push((kind, k, observe(&ops, &ctx, idx.as_ref())));
        }
    }
    out
}

/// `(index, k, [reachable, for_each_entry, len, contains])` for every
/// state [`observations`] visits, in its order.
const PINNED: &[(&str, u64, [u64; 4])] = &[
    (
        "hashtable",
        0,
        [
            0xc893b222c62684b7,
            0x2e13c8fde4f6c2f6,
            30,
            0x5ceeb452ff2714c5,
        ],
    ),
    (
        "hashtable",
        260,
        [
            0x1f077876503e93ae,
            0xae2fd19b9f873a8b,
            32,
            0xfe1cc5cb80a29225,
        ],
    ),
    (
        "hashtable",
        520,
        [
            0x4108b384435dccbe,
            0x070272dcef735584,
            31,
            0x4d71660de4923084,
        ],
    ),
    (
        "hashtable",
        780,
        [
            0x17d68d1de541f6b4,
            0x6cc502be6d7ed3da,
            28,
            0xbecc2a74a3938ee5,
        ],
    ),
    (
        "rbtree",
        0,
        [
            0xd4d42f645464c0c9,
            0x4f7d201c41f6ca46,
            30,
            0x5ceeb452ff2714c5,
        ],
    ),
    (
        "rbtree",
        375,
        [
            0x7ff665bc5718d729,
            0x0ba85494b429379f,
            29,
            0xf1ca388684540144,
        ],
    ),
    (
        "rbtree",
        751,
        [
            0xa38d18df19abaada,
            0x4f9aa748eb821aff,
            33,
            0xe44470778f703484,
        ],
    ),
    (
        "rbtree",
        1127,
        [
            0xc89cb686f566ddc1,
            0x4dcbb97a31a91812,
            29,
            0xd6f85e134cceb324,
        ],
    ),
    (
        "heap",
        0,
        [
            0x2f6ade4d1f345fbd,
            0xdea0382f08433202,
            30,
            0x5ceeb452ff2714c5,
        ],
    ),
    (
        "heap",
        328,
        [
            0xad8c5f40941ccf53,
            0x4ae12b2bf93fa776,
            31,
            0xa651c5f1aa101624,
        ],
    ),
    (
        "heap",
        656,
        [
            0x5c88912e2968aa6f,
            0x9563c7f63e84ad63,
            33,
            0xe44470778f703484,
        ],
    ),
    (
        "heap",
        984,
        [
            0x5786356f33e8056e,
            0xeba76c086c62a1e7,
            29,
            0x54c788f0aebe0ae4,
        ],
    ),
    (
        "avl",
        0,
        [
            0x7398b885919bfb3b,
            0xcee02ade71512c1e,
            30,
            0x5ceeb452ff2714c5,
        ],
    ),
    (
        "avl",
        441,
        [
            0xb4571ab653ebbdd5,
            0x034ff846c6fb0492,
            34,
            0x7beddc87409e0e25,
        ],
    ),
    (
        "avl",
        883,
        [
            0xab9e06f0652751e0,
            0xbefa923357c21155,
            32,
            0x38120419cc605d85,
        ],
    ),
    (
        "avl",
        1325,
        [
            0xfb381e2e8a50cadd,
            0x2f550a0758639cb3,
            30,
            0xc227df3e49ffc2a5,
        ],
    ),
    (
        "kv-btree",
        0,
        [
            0x71c540d6bb1fde61,
            0x7fdbf3e831330960,
            30,
            0x5ceeb452ff2714c5,
        ],
    ),
    (
        "kv-btree",
        374,
        [
            0x45a48d8fd234ef63,
            0x491bcdd9c5b1d558,
            28,
            0x847bbf444c46c345,
        ],
    ),
    (
        "kv-btree",
        748,
        [
            0x51b3a7b6c70a63d9,
            0x0391327d3028c508,
            34,
            0x277ffa807e0fd0c5,
        ],
    ),
    (
        "kv-btree",
        1122,
        [
            0xb8fbd9b419a95b65,
            0x24b86ea7805ef475,
            27,
            0x9c98cb39faa80484,
        ],
    ),
    (
        "kv-ctree",
        0,
        [
            0x59aa37fe0e1cc7de,
            0xabfdddd1a674a3ed,
            30,
            0x5ceeb452ff2714c5,
        ],
    ),
    (
        "kv-ctree",
        278,
        [
            0xff680fbcf1b0a071,
            0xcd7557afb8b422b9,
            34,
            0x7beddc87409e0e25,
        ],
    ),
    (
        "kv-ctree",
        556,
        [
            0xae45dd48baacc198,
            0xd0d0b2e14b8a1565,
            32,
            0x83530c9061f13f65,
        ],
    ),
    (
        "kv-ctree",
        834,
        [
            0x6556a79d390ae581,
            0x00d4d1e12e880266,
            29,
            0x7160e44694b0f0c4,
        ],
    ),
    (
        "kv-rtree",
        0,
        [
            0x15b10d77d63562e4,
            0xfe0ede38e58cf77e,
            30,
            0x5ceeb452ff2714c5,
        ],
    ),
    (
        "kv-rtree",
        330,
        [
            0xafd2eb3b5e943325,
            0x2e92c20af39678e3,
            27,
            0xdaf5aa1aa9dee984,
        ],
    ),
    (
        "kv-rtree",
        661,
        [
            0xaca2078dec83ad17,
            0x77f8f8d86e767f15,
            33,
            0x7d50a081899e97c4,
        ],
    ),
    (
        "kv-rtree",
        992,
        [
            0xb661fa2fabb3d70d,
            0x3cc69fa057d3c72d,
            29,
            0xd6f85e134cceb324,
        ],
    ),
    (
        "kv-skiplist",
        0,
        [
            0xf19d20b2bf2b544d,
            0xd8ebfd724ef0cbe8,
            30,
            0x5ceeb452ff2714c5,
        ],
    ),
    (
        "kv-skiplist",
        273,
        [
            0xaf15ec2ff82cdb58,
            0x65835a812ed1cc19,
            32,
            0xfe1cc5cb80a29225,
        ],
    ),
    (
        "kv-skiplist",
        547,
        [
            0x60a39f05f70ab230,
            0xd9953d460cc5b81b,
            31,
            0x4d71660de4923084,
        ],
    ),
    (
        "kv-skiplist",
        821,
        [
            0x1633dde42326fd93,
            0x29ba698481ea4030,
            28,
            0xbecc2a74a3938ee5,
        ],
    ),
];

#[test]
fn untimed_observers_match_their_recorded_digests() {
    let got = observations();
    assert_eq!(got.len(), PINNED.len());
    for ((kind, k, seen), &(name, at, want)) in got.into_iter().zip(PINNED) {
        assert_eq!((kind.to_string().as_str(), k), (name, at));
        for ((method, g), w) in seen.into_iter().zip(want) {
            assert_eq!(g, w, "{kind} k={k}: {method} moved");
        }
    }
}
