//! AVL self-balancing tree (Table II: "no parent pointer in the
//! node").
//!
//! Without parent pointers the descent path lives on the (volatile)
//! call stack. The lazy-persistency candidates are the per-node
//! *heights*: they are recomputable from the children, so height
//! updates use `storeT(lazy)` and recovery re-derives them bottom-up.
//! Rotations update child pointers of existing nodes and stay logged.
//!
//! ### Persistent layout
//!
//! ```text
//! root:  [0]=tree root pointer  [1]=size
//! node:  [0]=key [1]=left [2]=right [3]=height [4..]=value
//! ```

use crate::ctx::{AnnotationSource, PmContext};
use crate::runner::{DurableIndex, Load, Reader, ValueAt, Visit};
use slpmt_annotate::{Annotation, AnnotationTable, Operand, ParamKind, TxnIr, TxnIrBuilder};
use slpmt_pmem::PmAddr;

/// Store sites of the insert transaction.
pub mod sites {
    use slpmt_annotate::SiteId;
    /// New node's key.
    pub const NODE_KEY: SiteId = SiteId(0);
    /// New node's value payload.
    pub const NODE_VALUE: SiteId = SiteId(1);
    /// New node's child initialisation.
    pub const NODE_CHILD_INIT: SiteId = SiteId(2);
    /// New node's height initialisation.
    pub const NODE_HEIGHT_NEW: SiteId = SiteId(3);
    /// Existing node's child pointer (link or rotation).
    pub const CHILD_UPD: SiteId = SiteId(4);
    /// Root object's tree-root pointer.
    pub const ROOT_PTR: SiteId = SiteId(5);
    /// Root object's size counter.
    pub const SIZE: SiteId = SiteId(6);
    /// Height update on an existing node.
    pub const HEIGHT_UPD: SiteId = SiteId(7);
    /// Successor key copy into the removed slot.
    pub const RM_COPY_KEY: SiteId = SiteId(8);
    /// Successor value copy into the removed slot.
    pub const RM_COPY_VALUE: SiteId = SiteId(9);
    /// Poison store into the node being freed (Pattern 1, free case).
    pub const RM_POISON: SiteId = SiteId(10);
    /// In-place value overwrite on update (logged).
    pub const UPD_VALUE: SiteId = SiteId(11);
}

const CMP_COST: u64 = 6;

fn fld(base: PmAddr, i: u64) -> PmAddr {
    base.add(i * 8)
}

/// The durable AVL tree.
#[derive(Debug, Clone)]
pub struct AvlTree {
    root: PmAddr,
    value_words: u64,
}

impl AvlTree {
    /// Hand-written annotations: new-node fields log-free; heights and
    /// the size counter lazily persistent (recomputable).
    pub fn manual_table() -> AnnotationTable {
        use sites::*;
        [
            (NODE_KEY, Annotation::LogFree),
            (NODE_VALUE, Annotation::LogFree),
            (NODE_CHILD_INIT, Annotation::LogFree),
            (NODE_HEIGHT_NEW, Annotation::LogFree),
            (HEIGHT_UPD, Annotation::Lazy),
            (RM_POISON, Annotation::LazyLogFree),
        ]
        .into_iter()
        .collect()
    }

    /// IR for the compiler: the height recomputation is an analysable
    /// max-plus-one over recoverable loads, so the compiler *does*
    /// find `HEIGHT_UPD` lazy; the size counter hides behind opaque
    /// bookkeeping and is missed.
    pub fn ir() -> TxnIr {
        use sites::*;
        let mut b = TxnIrBuilder::new("avl-insert");
        let root = b.param(ParamKind::PersistentPtr);
        let key = b.param(ParamKind::Key);
        let val = b.param(ParamKind::Value);
        let pos = b.load(root, 0);
        let node = b.alloc();
        b.store_at(NODE_KEY, node, 0, Operand::Value(key));
        b.store_at(NODE_CHILD_INIT, node, 1, Operand::Const(0));
        b.store_at(NODE_HEIGHT_NEW, node, 3, Operand::Const(1));
        b.store_at(NODE_VALUE, node, 4, Operand::Value(val));
        b.store_at(CHILD_UPD, pos, 1, Operand::Value(node));
        let size = b.load(root, 1);
        let size2 = b.compute_opaque(vec![Operand::Value(size)]);
        b.store_at(SIZE, root, 1, Operand::Value(size2));
        // Height recomputation on the path back up: the parent's new
        // height derives from the *children's* heights, which stay
        // intact — a stable, analysable source.
        let l = b.load(pos, 2);
        let lh = b.load(l, 3);
        let h2 = b.compute(vec![Operand::Value(lh), Operand::Const(1)]);
        b.store_at(HEIGHT_UPD, pos, 3, Operand::Value(h2));
        // The new root after a rotation is chosen by opaque
        // re-balancing logic: the compiler must keep it eager.
        let new_root = b.compute_opaque(vec![Operand::Value(pos)]);
        b.store_at(ROOT_PTR, root, 0, Operand::Value(new_root));
        b.build()
    }

    /// Builds an empty tree (untimed setup).
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
        AvlTree {
            root,
            value_words: (value_size / 8) as u64,
        }
    }

    fn node_bytes(&self) -> u64 {
        (4 + self.value_words) * 8
    }

    fn height(&self, ctx: &mut PmContext, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            ctx.load(fld(PmAddr::new(n), 3))
        }
    }

    fn update_height(&self, ctx: &mut PmContext, n: PmAddr) -> (u64, i64) {
        let lh = {
            let l = ctx.load(fld(n, 1));
            self.height(ctx, l)
        };
        let rh = {
            let r = ctx.load(fld(n, 2));
            self.height(ctx, r)
        };
        let h = lh.max(rh) + 1;
        ctx.store(fld(n, 3), h, sites::HEIGHT_UPD);
        (h, lh as i64 - rh as i64)
    }

    /// Rotates around `n` (dir 0 = left rotation, 1 = right rotation),
    /// returning the new subtree root.
    fn rotate(&self, ctx: &mut PmContext, n: PmAddr, dir: u64) -> PmAddr {
        use sites::*;
        let pivot = PmAddr::new(ctx.load(fld(n, 2 - dir)));
        let inner = ctx.load(fld(pivot, 1 + dir));
        ctx.store(fld(n, 2 - dir), inner, CHILD_UPD);
        ctx.store(fld(pivot, 1 + dir), n.raw(), CHILD_UPD);
        self.update_height(ctx, n);
        self.update_height(ctx, pivot);
        pivot
    }

    /// Rebalances `n` after an insert, returning the subtree root.
    fn rebalance(&self, ctx: &mut PmContext, n: PmAddr) -> PmAddr {
        let (_, balance) = self.update_height(ctx, n);
        if balance > 1 {
            // Left-heavy.
            let l = PmAddr::new(ctx.load(fld(n, 1)));
            let ll = ctx.load(fld(l, 1));
            let lh = self.height(ctx, ll);
            let lr = ctx.load(fld(l, 2));
            let rh = self.height(ctx, lr);
            if lh < rh {
                let nl = self.rotate(ctx, l, 0);
                ctx.store(fld(n, 1), nl.raw(), sites::CHILD_UPD);
            }
            self.rotate(ctx, n, 1)
        } else if balance < -1 {
            // Right-heavy.
            let r = PmAddr::new(ctx.load(fld(n, 2)));
            let rl = ctx.load(fld(r, 1));
            let lh = self.height(ctx, rl);
            let rr = ctx.load(fld(r, 2));
            let rh = self.height(ctx, rr);
            if rh < lh {
                let nr = self.rotate(ctx, r, 1);
                ctx.store(fld(n, 2), nr.raw(), sites::CHILD_UPD);
            }
            self.rotate(ctx, n, 0)
        } else {
            n
        }
    }

    fn check_node(&self, ctx: &PmContext, n: u64, lo: u64, hi: u64) -> Result<u64, String> {
        if n == 0 {
            return Ok(0);
        }
        let a = PmAddr::new(n);
        let key = ctx.peek(fld(a, 0));
        if key < lo || key > hi {
            return Err(format!("BST violation: key {key} outside [{lo}, {hi}]"));
        }
        let lh = self.check_node(ctx, ctx.peek(fld(a, 1)), lo, key.saturating_sub(1))?;
        let rh = self.check_node(ctx, ctx.peek(fld(a, 2)), key.saturating_add(1), hi)?;
        let h = ctx.peek(fld(a, 3));
        if h != lh.max(rh) + 1 {
            return Err(format!(
                "height of {n:#x} is {h}, expected {}",
                lh.max(rh) + 1
            ));
        }
        if (lh as i64 - rh as i64).abs() > 1 {
            return Err(format!("AVL balance violated at {n:#x}: {lh} vs {rh}"));
        }
        Ok(h)
    }
}

impl DurableIndex for AvlTree {
    fn name(&self) -> &'static str {
        "avl"
    }

    fn scan_range(&mut self, ctx: &mut PmContext, lo: u64, hi: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut stack = vec![(ctx.load(fld(self.root, 0)), false)];
        while let Some((n, expanded)) = stack.pop() {
            if n == 0 {
                continue;
            }
            let a = PmAddr::new(n);
            if expanded {
                let k = ctx.load(fld(a, 0));
                if (lo..=hi).contains(&k) {
                    let mut v = vec![0u8; (self.value_words * 8) as usize];
                    ctx.load_bytes(fld(a, 4), &mut v);
                    out.push((k, v));
                }
                continue;
            }
            ctx.compute(CMP_COST);
            let k = ctx.load(fld(a, 0));
            if k < hi {
                stack.push((ctx.load(fld(a, 2)), false));
            }
            stack.push((n, true));
            if k > lo {
                stack.push((ctx.load(fld(a, 1)), false));
            }
        }
        Some(out)
    }

    fn insert(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) {
        use sites::*;
        assert_eq!(value.len() as u64, self.value_words * 8);
        ctx.tx_begin();
        // Descend, recording the path (volatile).
        let mut path: Vec<(PmAddr, u64)> = Vec::new();
        let mut cur = ctx.load(fld(self.root, 0));
        while cur != 0 {
            ctx.compute(CMP_COST);
            let a = PmAddr::new(cur);
            let k = ctx.load(fld(a, 0));
            let dir = if key < k { 1u64 } else { 2u64 };
            path.push((a, dir));
            cur = ctx.load(fld(a, dir));
        }
        // Build the new node.
        let node = ctx.alloc(self.node_bytes());
        ctx.store(fld(node, 0), key, NODE_KEY);
        ctx.store(fld(node, 1), 0, NODE_CHILD_INIT);
        ctx.store(fld(node, 2), 0, NODE_CHILD_INIT);
        ctx.store(fld(node, 3), 1, NODE_HEIGHT_NEW);
        ctx.store_bytes(fld(node, 4), value, NODE_VALUE);
        // Link and rebalance back up the path.
        if let Some(&(parent, dir)) = path.last() {
            ctx.store(fld(parent, dir), node.raw(), CHILD_UPD);
            for idx in (0..path.len()).rev() {
                let (n, _) = path[idx];
                let new_sub = self.rebalance(ctx, n);
                if new_sub != n {
                    if idx == 0 {
                        ctx.store(fld(self.root, 0), new_sub.raw(), ROOT_PTR);
                    } else {
                        let (p, pdir) = path[idx - 1];
                        ctx.store(fld(p, pdir), new_sub.raw(), CHILD_UPD);
                    }
                }
            }
        } else {
            ctx.store(fld(self.root, 0), node.raw(), ROOT_PTR);
        }
        let size = ctx.load(fld(self.root, 1)) + 1;
        ctx.store(fld(self.root, 1), size, SIZE);
        ctx.tx_commit();
    }

    fn remove(&mut self, ctx: &mut PmContext, key: u64) -> bool {
        use sites::*;
        ctx.tx_begin();
        // Descend to the key, recording the path.
        let mut path: Vec<(PmAddr, u64)> = Vec::new();
        let mut cur = ctx.load(fld(self.root, 0));
        let mut target = PmAddr::new(0);
        while cur != 0 {
            ctx.compute(CMP_COST);
            let a = PmAddr::new(cur);
            let k = ctx.load(fld(a, 0));
            if k == key {
                target = a;
                break;
            }
            let dir = if key < k { 1u64 } else { 2u64 };
            path.push((a, dir));
            cur = ctx.load(fld(a, dir));
        }
        if target.raw() == 0 {
            ctx.tx_commit();
            return false;
        }
        // Two children: replace the key/value with the in-order
        // successor's, then delete the successor instead.
        let (l, r) = (ctx.load(fld(target, 1)), ctx.load(fld(target, 2)));
        let victim = if l != 0 && r != 0 {
            path.push((target, 2));
            let mut s = PmAddr::new(r);
            loop {
                let sl = ctx.load(fld(s, 1));
                if sl == 0 {
                    break;
                }
                path.push((s, 1));
                s = PmAddr::new(sl);
            }
            let sk = ctx.load(fld(s, 0));
            ctx.store(fld(target, 0), sk, RM_COPY_KEY);
            let mut val = vec![0u8; (self.value_words * 8) as usize];
            ctx.load_bytes(fld(s, 4), &mut val);
            ctx.store_bytes(fld(target, 4), &val, RM_COPY_VALUE);
            s
        } else {
            target
        };
        // The victim has at most one child: splice it out.
        let vl = ctx.load(fld(victim, 1));
        let child = if vl != 0 {
            vl
        } else {
            ctx.load(fld(victim, 2))
        };
        match path.last() {
            Some(&(p, dir)) => ctx.store(fld(p, dir), child, CHILD_UPD),
            None => ctx.store(fld(self.root, 0), child, ROOT_PTR),
        }
        // Poison the dying node (Pattern 1, free case) and retire it.
        ctx.store(fld(victim, 0), 0, RM_POISON);
        ctx.free(victim);
        // Rebalance back up the path.
        for idx in (0..path.len()).rev() {
            let (n, _) = path[idx];
            let new_sub = self.rebalance(ctx, n);
            if new_sub != n {
                if idx == 0 {
                    ctx.store(fld(self.root, 0), new_sub.raw(), ROOT_PTR);
                } else {
                    let (p, pdir) = path[idx - 1];
                    ctx.store(fld(p, pdir), new_sub.raw(), CHILD_UPD);
                }
            }
        }
        let size = ctx.load(fld(self.root, 1)) - 1;
        ctx.store(fld(self.root, 1), size, SIZE);
        ctx.tx_commit();
        true
    }

    fn locate(&self, r: &mut Reader<'_>, key: u64) -> Option<ValueAt> {
        let mut cur = r.load(fld(self.root, 0));
        while cur != 0 {
            r.compute(CMP_COST);
            let a = PmAddr::new(cur);
            let k = r.load(fld(a, 0));
            if k == key {
                return Some(ValueAt::Inline {
                    at: fld(a, 4),
                    len: self.value_words * 8,
                    site: sites::UPD_VALUE,
                });
            }
            cur = r.load(fld(a, if key < k { 1 } else { 2 }));
        }
        None
    }

    fn walk(&self, ctx: &PmContext, f: &mut dyn FnMut(Visit)) {
        f(Visit::Block(self.root));
        let mut stack = vec![ctx.peek(fld(self.root, 0))];
        while let Some(n) = stack.pop() {
            if n == 0 {
                continue;
            }
            let [key, l, r] = ctx.peek_words(PmAddr::new(n));
            f(Visit::Block(PmAddr::new(n)));
            f(Visit::Entry(key, fld(PmAddr::new(n), 4)));
            stack.push(l);
            stack.push(r);
        }
    }

    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String> {
        self.check_node(ctx, ctx.peek(fld(self.root, 0)), u64::MIN, u64::MAX)?;
        let size = ctx.peek(fld(self.root, 1));
        let count = self.len(ctx);
        if size as usize != count {
            return Err(format!("size {size} != node count {count}"));
        }
        Ok(())
    }

    fn recover(&mut self, ctx: &mut PmContext) {
        // Heights are lazily persistent: recompute bottom-up.
        fn fix(ctx: &mut PmContext, n: u64) -> u64 {
            if n == 0 {
                return 0;
            }
            let a = PmAddr::new(n);
            let lh = fix(ctx, ctx.peek(fld(a, 1)));
            let rh = fix(ctx, ctx.peek(fld(a, 2)));
            let h = lh.max(rh) + 1;
            ctx.recovery_write(fld(a, 3), h);
            h
        }
        let r = ctx.peek(fld(self.root, 0));
        fix(ctx, r);
        let count = self.len(ctx) as u64;
        ctx.recovery_write(fld(self.root, 1), count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::{value_for, ycsb_load};
    use slpmt_core::Scheme;

    fn fresh(source: AnnotationSource) -> (PmContext, AvlTree) {
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let t = AvlTree::new(&mut ctx, 32, source);
        (ctx, t)
    }

    #[test]
    fn insert_lookup_and_invariants() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(200, 32, 1);
        for op in &ops {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
        assert_eq!(t.len(&ctx), 200);
        for op in &ops {
            assert_eq!(t.value_of(&ctx, op.key).unwrap(), op.value);
        }
    }

    #[test]
    fn sequential_inserts_stay_balanced() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let v = value_for(1, 32);
        for k in 1..=256u64 {
            t.insert(&mut ctx, k, &v);
        }
        t.check_invariants(&ctx).unwrap();
        let h = ctx.peek(fld(PmAddr::new(ctx.peek(fld(t.root, 0))), 3));
        assert!(h <= 12, "AVL height {h} too large for 256 keys");
    }

    #[test]
    fn crash_recovery_recomputes_heights() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(120, 32, 2);
        for op in &ops {
            t.insert(&mut ctx, op.key, &op.value);
        }
        ctx.crash_and_recover();
        t.recover(&mut ctx);
        ctx.gc(&t.reachable(&ctx));
        t.check_invariants(&ctx).unwrap();
        assert_eq!(t.len(&ctx), 120);
        for op in &ops {
            assert_eq!(t.value_of(&ctx, op.key).unwrap(), value_for(op.key, 32));
        }
        for op in ycsb_load(30, 32, 77) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn compiler_finds_heights_misses_counter() {
        let (table, _) = slpmt_annotate::analyze(&AvlTree::ir());
        assert!(table.get(sites::NODE_KEY).is_selective());
        assert_eq!(table.get(sites::HEIGHT_UPD), Annotation::Lazy);
        assert_eq!(table.get(sites::SIZE), Annotation::Plain);
        assert_eq!(table.get(sites::CHILD_UPD), Annotation::Plain);
    }

    #[test]
    fn compiler_annotations_preserve_correctness() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Compiler);
        for op in ycsb_load(100, 32, 3) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
        ctx.crash_and_recover();
        t.recover(&mut ctx);
        ctx.gc(&t.reachable(&ctx));
        t.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn ir_is_valid() {
        assert!(AvlTree::ir().validate().is_ok());
    }
}
