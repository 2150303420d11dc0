//! Skiplist backend for the PMDK-style KV store (an extension beyond
//! the paper's evaluated trio — the PMDK `map` framework the paper
//! builds on also ships a skiplist engine).
//!
//! The skiplist is a natural lazy-persistency showcase: the level-0
//! chain is the ground truth and its links are published with plain
//! logged stores, while every *upper-level* link is a search shortcut
//! whose value is fully re-derivable from level 0 plus the per-node
//! heights — so tower updates use `storeT(lazy)` and recovery rebuilds
//! all towers in one level-0 walk. A stale-but-durable upper link is
//! harmless even before recovery: search simply falls through to a
//! lower level (the link still points at a live node, since removals
//! fix towers eagerly).
//!
//! ### Persistent layout
//!
//! ```text
//! root:  [0]=head sentinel  [1]=size
//! node:  [0]=key [1]=height h (1..=MAX_LEVEL) [2]=value blob
//!        [3..3+h]=next pointers per level
//! ```
//!
//! Node heights are a deterministic function of the key, so recovery
//! can re-derive every tower without trusting lazily-persistent state.

use crate::ctx::{AnnotationSource, PmContext};
use crate::runner::{DurableIndex, Load, Reader, ValueAt, Visit};
use slpmt_annotate::{Annotation, AnnotationTable, Operand, ParamKind, TxnIr, TxnIrBuilder};
use slpmt_pmem::PmAddr;

/// Store sites of the insert/remove transactions.
pub mod sites {
    use slpmt_annotate::SiteId;
    /// Fresh node initialisation (key, height, blob pointer, links).
    pub const NEW_NODE: SiteId = SiteId(0);
    /// Value blob payload.
    pub const VALUE: SiteId = SiteId(1);
    /// Level-0 predecessor link (publishes the node).
    pub const LINK0: SiteId = SiteId(2);
    /// Upper-level predecessor link (search shortcut, re-derivable).
    pub const TOWER: SiteId = SiteId(3);
    /// KV root pointer / size.
    pub const SIZE: SiteId = SiteId(4);
    /// Unlink stores on removal (all levels, eager).
    pub const RM_UNLINK: SiteId = SiteId(5);
    /// Poison store into a node being freed (Pattern 1, free case).
    pub const RM_POISON: SiteId = SiteId(6);
    /// Value-pointer swap on update (copy-on-write blob replace).
    pub const UPD_VPTR: SiteId = SiteId(7);
}

/// Maximum tower height.
pub const MAX_LEVEL: u64 = 8;
const CMP_COST: u64 = 5;

fn fld(base: PmAddr, i: u64) -> PmAddr {
    base.add(i * 8)
}

fn next_at(node: PmAddr, level: u64) -> PmAddr {
    fld(node, 3 + level)
}

/// Deterministic tower height for `key`: geometric with p = 1/2.
pub fn height_of(key: u64) -> u64 {
    let mut h = key
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        .rotate_right(23)
        .trailing_ones() as u64
        + 1;
    if h > MAX_LEVEL {
        h = MAX_LEVEL;
    }
    h
}

/// The skiplist KV backend.
#[derive(Debug, Clone)]
pub struct SkiplistKv {
    root: PmAddr,
    head: PmAddr,
    value_bytes: u64,
}

impl SkiplistKv {
    /// Hand-written annotations: fresh nodes and blobs log-free; upper
    /// tower links lazily persistent (rebuilt from level 0).
    pub fn manual_table() -> AnnotationTable {
        use sites::*;
        [
            (NEW_NODE, Annotation::LogFree),
            (VALUE, Annotation::LogFree),
            (TOWER, Annotation::Lazy),
            (RM_POISON, Annotation::LazyLogFree),
        ]
        .into_iter()
        .collect()
    }

    /// IR of the insert transaction for the compiler pass. The upper
    /// tower link stores a *fresh node's address*, which the analysis
    /// refuses to mark lazy (allocation addresses are not stable across
    /// recovery) — so the compiler finds the Pattern 1 sites but leaves
    /// towers eager, a deliberate soundness gap the manual annotation
    /// closes with the structure-specific tower-rebuild recovery.
    pub fn ir() -> TxnIr {
        use sites::*;
        let mut b = TxnIrBuilder::new("kv-skiplist-insert");
        let root = b.param(ParamKind::PersistentPtr);
        let key = b.param(ParamKind::Key);
        let val = b.param(ParamKind::Value);
        let blob = b.alloc();
        b.store_at(VALUE, blob, 0, Operand::Value(val));
        let node = b.alloc();
        b.store_at(NEW_NODE, node, 0, Operand::Value(key));
        let head = b.load(root, 0);
        let pred = b.load(head, 3);
        let succ = b.load(pred, 3);
        b.store_at(NEW_NODE, node, 3, Operand::Value(succ));
        b.store_at(LINK0, pred, 3, Operand::Value(node));
        b.store_at(TOWER, head, 4, Operand::Value(node));
        let size = b.load(root, 1);
        let size2 = b.compute_opaque(vec![Operand::Value(size)]);
        b.store_at(SIZE, root, 1, Operand::Value(size2));
        b.build()
    }

    /// Builds an empty skiplist (untimed setup).
    ///
    /// # Panics
    ///
    /// Panics if `value_size` is not a multiple of 8.
    pub fn new(ctx: &mut PmContext, value_size: usize, source: AnnotationSource) -> Self {
        assert!(
            value_size.is_multiple_of(8),
            "value size must be whole words"
        );
        ctx.set_table(source.resolve(&Self::manual_table(), &Self::ir()));
        let root = ctx.setup_alloc(2 * 8);
        let head = ctx.setup_alloc((3 + MAX_LEVEL) * 8);
        ctx.recovery_write(fld(root, 0), head.raw());
        ctx.recovery_write(fld(head, 1), MAX_LEVEL);
        SkiplistKv {
            root,
            head,
            value_bytes: value_size as u64,
        }
    }

    /// Finds the predecessor of `key` at every level.
    fn predecessors(&self, ctx: &mut impl Load, key: u64) -> [PmAddr; MAX_LEVEL as usize] {
        let mut preds = [self.head; MAX_LEVEL as usize];
        let mut cur = self.head;
        for level in (0..MAX_LEVEL).rev() {
            loop {
                let nxt = ctx.load(next_at(cur, level));
                if nxt == 0 {
                    break;
                }
                ctx.compute(CMP_COST);
                if ctx.load(fld(PmAddr::new(nxt), 0)) >= key {
                    break;
                }
                cur = PmAddr::new(nxt);
            }
            preds[level as usize] = cur;
        }
        preds
    }
}

impl DurableIndex for SkiplistKv {
    fn name(&self) -> &'static str {
        "kv-skiplist"
    }

    fn scan_range(&mut self, ctx: &mut PmContext, lo: u64, hi: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        // Towers find the range start; level 0 streams it.
        let preds = self.predecessors(ctx, lo);
        let mut out = Vec::new();
        let mut cur = ctx.load(next_at(preds[0], 0));
        while cur != 0 {
            let node = PmAddr::new(cur);
            let k = ctx.load(fld(node, 0));
            if k > hi {
                break;
            }
            let blob = PmAddr::new(ctx.load(fld(node, 2)));
            let mut v = vec![0u8; self.value_bytes as usize];
            ctx.load_bytes(blob, &mut v);
            out.push((k, v));
            cur = ctx.load(next_at(node, 0));
        }
        Some(out)
    }

    fn insert(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) {
        use sites::*;
        assert_eq!(value.len() as u64, self.value_bytes);
        ctx.tx_begin();
        let preds = self.predecessors(ctx, key);
        let h = height_of(key);
        let blob = ctx.alloc(self.value_bytes);
        ctx.store_bytes(blob, value, VALUE);
        let node = ctx.alloc((3 + h) * 8);
        ctx.store(fld(node, 0), key, NEW_NODE);
        ctx.store(fld(node, 1), h, NEW_NODE);
        ctx.store(fld(node, 2), blob.raw(), NEW_NODE);
        for level in 0..h {
            let succ = ctx.load(next_at(preds[level as usize], level));
            ctx.store(next_at(node, level), succ, NEW_NODE);
        }
        // Publish: level 0 is the ground truth (logged, eager); upper
        // levels are re-derivable shortcuts (lazy).
        ctx.store(next_at(preds[0], 0), node.raw(), LINK0);
        for level in 1..h {
            ctx.store(next_at(preds[level as usize], level), node.raw(), TOWER);
        }
        let size = ctx.load(fld(self.root, 1)) + 1;
        ctx.store(fld(self.root, 1), size, SIZE);
        ctx.tx_commit();
    }

    fn remove(&mut self, ctx: &mut PmContext, key: u64) -> bool {
        use sites::*;
        ctx.tx_begin();
        let preds = self.predecessors(ctx, key);
        let cand = ctx.load(next_at(preds[0], 0));
        if cand == 0 {
            ctx.tx_commit();
            return false;
        }
        let node = PmAddr::new(cand);
        if ctx.load(fld(node, 0)) != key {
            ctx.tx_commit();
            return false;
        }
        let h = ctx.load(fld(node, 1));
        // Unlink every level eagerly: stale tower links must never
        // point at freed memory.
        for level in 0..h {
            let p = preds[level as usize];
            if ctx.load(next_at(p, level)) == node.raw() {
                let succ = ctx.load(next_at(node, level));
                ctx.store(next_at(p, level), succ, RM_UNLINK);
            }
        }
        let blob = ctx.load(fld(node, 2));
        ctx.store(fld(node, 2), 0, RM_POISON);
        ctx.free(node);
        ctx.free(PmAddr::new(blob));
        let size = ctx.load(fld(self.root, 1)) - 1;
        ctx.store(fld(self.root, 1), size, SIZE);
        ctx.tx_commit();
        true
    }

    fn locate(&self, r: &mut Reader<'_>, key: u64) -> Option<ValueAt> {
        let preds = self.predecessors(r, key);
        let cand = r.load(next_at(preds[0], 0));
        if cand == 0 {
            return None;
        }
        let node = PmAddr::new(cand);
        if r.load(fld(node, 0)) != key {
            return None;
        }
        let vptr = fld(node, 2);
        ValueAt::blob(r, vptr, self.value_bytes, sites::VALUE, sites::UPD_VPTR)
    }

    fn walk(&self, ctx: &PmContext, f: &mut dyn FnMut(Visit)) {
        f(Visit::Block(self.root));
        f(Visit::Block(self.head));
        let mut cur = ctx.peek(next_at(self.head, 0));
        while cur != 0 {
            let node = PmAddr::new(cur);
            let [key, _, blob, next] = ctx.peek_words(node);
            f(Visit::Block(node));
            f(Visit::Block(PmAddr::new(blob)));
            f(Visit::Entry(key, PmAddr::new(blob)));
            cur = next;
        }
    }

    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String> {
        // Level 0: strictly sorted. Upper levels: strictly sorted and a
        // subset of the level below, with heights matching the
        // deterministic function.
        let mut level0 = Vec::new();
        let mut prev_key = None;
        let mut cur = ctx.peek(fld(self.head, 3));
        while cur != 0 {
            let node = PmAddr::new(cur);
            let k = ctx.peek(fld(node, 0));
            if let Some(p) = prev_key {
                if k <= p {
                    return Err(format!("level 0 not sorted: {k} after {p}"));
                }
            }
            let h = ctx.peek(fld(node, 1));
            if h != height_of(k) {
                return Err(format!("height of {k} is {h}, expected {}", height_of(k)));
            }
            prev_key = Some(k);
            level0.push(cur);
            cur = ctx.peek(next_at(node, 0));
        }
        for level in 1..MAX_LEVEL {
            let mut cur = ctx.peek(next_at(self.head, level));
            let mut prev = None;
            while cur != 0 {
                let node = PmAddr::new(cur);
                if !level0.contains(&cur) {
                    return Err(format!("level {level} references node outside level 0"));
                }
                let h = ctx.peek(fld(node, 1));
                if h <= level {
                    return Err(format!("node at level {level} has height {h}"));
                }
                let k = ctx.peek(fld(node, 0));
                if let Some(p) = prev {
                    if k <= p {
                        return Err(format!("level {level} not sorted"));
                    }
                }
                prev = Some(k);
                cur = ctx.peek(next_at(node, level));
            }
        }
        let size = ctx.peek(fld(self.root, 1));
        if size as usize != level0.len() {
            return Err(format!("size {size} != node count {}", level0.len()));
        }
        Ok(())
    }

    fn recover(&mut self, ctx: &mut PmContext) {
        // Towers are lazily persistent: rebuild every upper level from
        // the durable level-0 chain and the deterministic heights.
        let mut preds = [self.head; MAX_LEVEL as usize];
        let mut count = 0u64;
        let mut cur = ctx.peek(fld(self.head, 3));
        // Clear the head's upper links first.
        for level in 1..MAX_LEVEL {
            ctx.recovery_write(next_at(self.head, level), 0);
        }
        while cur != 0 {
            count += 1;
            let node = PmAddr::new(cur);
            let k = ctx.peek(fld(node, 0));
            let h = height_of(k);
            ctx.recovery_write(fld(node, 1), h);
            for level in 1..h {
                ctx.recovery_write(next_at(preds[level as usize], level), cur);
                ctx.recovery_write(next_at(node, level), 0);
                preds[level as usize] = node;
            }
            cur = ctx.peek(next_at(node, 0));
        }
        ctx.recovery_write(fld(self.root, 1), count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::{value_for, ycsb_load};
    use slpmt_core::Scheme;

    fn fresh(source: AnnotationSource) -> (PmContext, SkiplistKv) {
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let t = SkiplistKv::new(&mut ctx, 32, source);
        (ctx, t)
    }

    #[test]
    fn heights_are_deterministic_and_bounded() {
        for k in 0..10_000u64 {
            let h = height_of(k);
            assert!((1..=MAX_LEVEL).contains(&h));
            assert_eq!(h, height_of(k));
        }
        // Roughly geometric: about half the keys have height 1.
        let ones = (0..10_000u64).filter(|&k| height_of(k) == 1).count();
        assert!(
            (3800..6200).contains(&ones),
            "height-1 fraction: {ones}/10000"
        );
    }

    #[test]
    fn insert_lookup_and_invariants() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(300, 32, 1);
        for op in &ops {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
        assert_eq!(t.len(&ctx), 300);
        for op in &ops {
            assert_eq!(t.value_of(&ctx, op.key).unwrap(), op.value);
        }
        assert!(!t.contains(&ctx, 1));
    }

    #[test]
    fn towers_accelerate_search() {
        // With 300 keys the expected search path touches far fewer
        // than 300 nodes thanks to the towers.
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        for op in ycsb_load(300, 32, 2) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        let before = ctx.machine().stats().loads;
        let probe = ycsb_load(300, 32, 2)[150].key;
        assert!(t.get(&mut ctx, probe).is_some());
        let loads = ctx.machine().stats().loads - before;
        assert!(
            loads < 150,
            "search touched {loads} words — towers not working"
        );
    }

    #[test]
    fn crash_recovery_rebuilds_towers() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(150, 32, 3);
        for op in &ops {
            t.insert(&mut ctx, op.key, &op.value);
        }
        ctx.crash_and_recover();
        t.recover(&mut ctx);
        ctx.gc(&t.reachable(&ctx));
        t.check_invariants(&ctx).unwrap();
        assert_eq!(t.len(&ctx), 150);
        for op in &ops {
            assert_eq!(t.value_of(&ctx, op.key).unwrap(), value_for(op.key, 32));
        }
        // Usable afterwards.
        for op in ycsb_load(30, 32, 77) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn removals_fix_towers_eagerly() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(120, 32, 4);
        for op in &ops {
            t.insert(&mut ctx, op.key, &op.value);
        }
        for op in ops.iter().step_by(3) {
            assert!(t.remove(&mut ctx, op.key));
        }
        t.check_invariants(&ctx).unwrap();
        assert_eq!(t.len(&ctx), 80);
        // Crash after removals: no resurrection, towers rebuilt.
        ctx.crash_and_recover();
        t.recover(&mut ctx);
        ctx.gc(&t.reachable(&ctx));
        t.check_invariants(&ctx).unwrap();
        assert_eq!(t.len(&ctx), 80);
        for op in ops.iter().step_by(3) {
            assert!(!t.contains(&ctx, op.key));
        }
    }

    #[test]
    fn lazy_towers_reduce_persists() {
        let run = |source| {
            let (mut ctx, mut t) = fresh(source);
            for op in ycsb_load(100, 32, 5) {
                t.insert(&mut ctx, op.key, &op.value);
            }
            ctx.machine().stats().lazy_lines_deferred
        };
        assert!(
            run(AnnotationSource::Manual) > 0,
            "towers defer persistence"
        );
        assert_eq!(run(AnnotationSource::None), 0);
    }

    #[test]
    fn compiler_annotations_preserve_correctness() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Compiler);
        for op in ycsb_load(100, 32, 6) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
        // The compiler leaves towers eager (fresh-address rule).
        let (table, _) = slpmt_annotate::analyze(&SkiplistKv::ir());
        assert_eq!(table.get(sites::TOWER), Annotation::Plain);
        assert!(table.get(sites::NEW_NODE).is_selective());
    }

    #[test]
    fn ir_is_valid() {
        assert!(SkiplistKv::ir().validate().is_ok());
    }
}
