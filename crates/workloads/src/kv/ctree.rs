//! Crit-bit tree backend for the PMDK-style KV store.
//!
//! A crit-bit (PATRICIA) tree over 64-bit keys: internal nodes name
//! the most significant bit at which their two subtrees differ, leaves
//! carry the key and value pointer. An insert allocates exactly one
//! leaf and one internal node and performs a *single* logged store
//! (the parent link), so nearly every store is log-free under SLPMT —
//! this is the backend where selective logging pays most (§VI-E:
//! highest speedup on kv-ctree).
//!
//! ### Persistent layout
//!
//! ```text
//! root:     [0]=index root  [1]=size
//! internal: [0]=1 [1]=crit-bit index (0 = MSB) [2]=left [3]=right
//! leaf:     [0]=0 [1]=key [2]=value blob
//! ```

use crate::ctx::{AnnotationSource, PmContext};
use crate::runner::{DurableIndex, Load, Reader, ValueAt, Visit};
use slpmt_annotate::{Annotation, AnnotationTable, Operand, ParamKind, TxnIr, TxnIrBuilder};
use slpmt_pmem::PmAddr;

/// Store sites of the insert transaction.
pub mod sites {
    use slpmt_annotate::SiteId;
    /// Fresh leaf initialisation.
    pub const LEAF_INIT: SiteId = SiteId(0);
    /// Fresh internal-node initialisation.
    pub const INTERNAL_INIT: SiteId = SiteId(1);
    /// Value blob payload.
    pub const VALUE: SiteId = SiteId(2);
    /// The single logged link in an existing node (or the root).
    pub const LINK: SiteId = SiteId(3);
    /// KV root pointer.
    pub const ROOT_PTR: SiteId = SiteId(4);
    /// KV size counter.
    pub const SIZE: SiteId = SiteId(5);
    /// Poison store into a node being freed (Pattern 1, free case).
    pub const RM_POISON: SiteId = SiteId(6);
    /// Value-pointer swap on update (copy-on-write blob replace).
    pub const UPD_VPTR: SiteId = SiteId(7);
}

const CMP_COST: u64 = 4;

fn fld(base: PmAddr, i: u64) -> PmAddr {
    base.add(i * 8)
}

fn bit_of(key: u64, bit: u64) -> u64 {
    (key >> (63 - bit)) & 1
}

/// The crit-bit-tree KV backend.
#[derive(Debug, Clone)]
pub struct CtreeKv {
    root: PmAddr,
    value_bytes: u64,
}

impl CtreeKv {
    /// Hand-written annotations.
    pub fn manual_table() -> AnnotationTable {
        use sites::*;
        [
            (LEAF_INIT, Annotation::LogFree),
            (INTERNAL_INIT, Annotation::LogFree),
            (VALUE, Annotation::LogFree),
            (RM_POISON, Annotation::LazyLogFree),
        ]
        .into_iter()
        .collect()
    }

    /// IR for the compiler pass.
    pub fn ir() -> TxnIr {
        use sites::*;
        let mut b = TxnIrBuilder::new("kv-ctree-insert");
        let root = b.param(ParamKind::PersistentPtr);
        let key = b.param(ParamKind::Key);
        let val = b.param(ParamKind::Value);
        let blob = b.alloc();
        b.store_at(VALUE, blob, 0, Operand::Value(val));
        let leaf = b.alloc();
        b.store_at(LEAF_INIT, leaf, 0, Operand::Value(key));
        let node = b.alloc();
        let parent = b.load(root, 0);
        let sibling = b.load(parent, 2);
        b.store_at(INTERNAL_INIT, node, 2, Operand::Value(sibling));
        b.store_at(LINK, parent, 2, Operand::Value(node));
        let size = b.load(root, 1);
        let size2 = b.compute_opaque(vec![Operand::Value(size)]);
        b.store_at(SIZE, root, 1, Operand::Value(size2));
        b.store_at(ROOT_PTR, root, 0, Operand::Value(node));
        b.build()
    }

    /// Builds an empty crit-bit KV store (untimed setup).
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
        CtreeKv {
            root,
            value_bytes: value_size as u64,
        }
    }

    fn new_leaf(&self, ctx: &mut PmContext, key: u64, value: &[u8]) -> PmAddr {
        use sites::*;
        let blob = ctx.alloc(self.value_bytes);
        ctx.store_bytes(blob, value, VALUE);
        let leaf = ctx.alloc(3 * 8);
        ctx.store(fld(leaf, 0), 0, LEAF_INIT);
        ctx.store(fld(leaf, 1), key, LEAF_INIT);
        ctx.store(fld(leaf, 2), blob.raw(), LEAF_INIT);
        leaf
    }

    /// Finds the closest leaf for `key`.
    fn closest_leaf(&self, ctx: &mut impl Load, key: u64) -> PmAddr {
        let mut n = PmAddr::new(ctx.load(fld(self.root, 0)));
        loop {
            if ctx.load(fld(n, 0)) == 0 {
                return n;
            }
            ctx.compute(CMP_COST);
            let bit = ctx.load(fld(n, 1));
            n = PmAddr::new(ctx.load(fld(n, 2 + bit_of(key, bit))));
        }
    }
}

impl DurableIndex for CtreeKv {
    fn name(&self) -> &'static str {
        "kv-ctree"
    }

    fn scan_range(&mut self, ctx: &mut PmContext, lo: u64, hi: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        // MSB-first crit-bit tries are ordered: an in-order DFS (0-bit
        // child first) emits keys in ascending order.
        let mut out = Vec::new();
        let r = ctx.load(fld(self.root, 0));
        if r == 0 {
            return Some(out);
        }
        let mut stack = vec![r];
        while let Some(n) = stack.pop() {
            let a = PmAddr::new(n);
            if ctx.load(fld(a, 0)) == 0 {
                let k = ctx.load(fld(a, 1));
                if (lo..=hi).contains(&k) {
                    let blob = PmAddr::new(ctx.load(fld(a, 2)));
                    let mut v = vec![0u8; self.value_bytes as usize];
                    ctx.load_bytes(blob, &mut v);
                    out.push((k, v));
                }
                continue;
            }
            ctx.compute(CMP_COST);
            stack.push(ctx.load(fld(a, 3)));
            stack.push(ctx.load(fld(a, 2)));
        }
        Some(out)
    }

    fn insert(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) {
        use sites::*;
        assert_eq!(value.len() as u64, self.value_bytes);
        ctx.tx_begin();
        let r = ctx.load(fld(self.root, 0));
        if r == 0 {
            let leaf = self.new_leaf(ctx, key, value);
            ctx.store(fld(self.root, 0), leaf.raw(), ROOT_PTR);
            let size = ctx.load(fld(self.root, 1)) + 1;
            ctx.store(fld(self.root, 1), size, SIZE);
            ctx.tx_commit();
            return;
        }
        let near = self.closest_leaf(ctx, key);
        let near_key = ctx.load(fld(near, 1));
        assert_ne!(near_key, key, "duplicate keys unsupported");
        ctx.compute(CMP_COST);
        let crit = (near_key ^ key).leading_zeros() as u64;
        // Build the new leaf + internal node (log-free).
        let leaf = self.new_leaf(ctx, key, value);
        let node = ctx.alloc(4 * 8);
        ctx.store(fld(node, 0), 1, INTERNAL_INIT);
        ctx.store(fld(node, 1), crit, INTERNAL_INIT);
        // Walk again to the insertion point: the first edge whose
        // target has a crit-bit below (i.e. index above) `crit`.
        let mut parent: Option<(PmAddr, u64)> = None;
        let mut cur = PmAddr::new(ctx.load(fld(self.root, 0)));
        loop {
            if ctx.load(fld(cur, 0)) == 0 {
                break;
            }
            let bit = ctx.load(fld(cur, 1));
            if bit > crit {
                break;
            }
            ctx.compute(CMP_COST);
            let dir = bit_of(key, bit);
            parent = Some((cur, dir));
            cur = PmAddr::new(ctx.load(fld(cur, 2 + dir)));
        }
        let dir_new = bit_of(key, crit);
        ctx.store(fld(node, 2 + dir_new), leaf.raw(), INTERNAL_INIT);
        ctx.store(fld(node, 2 + (1 - dir_new)), cur.raw(), INTERNAL_INIT);
        // The single logged store: the link that publishes the subtree.
        match parent {
            Some((p, dir)) => ctx.store(fld(p, 2 + dir), node.raw(), LINK),
            None => ctx.store(fld(self.root, 0), node.raw(), ROOT_PTR),
        }
        let size = ctx.load(fld(self.root, 1)) + 1;
        ctx.store(fld(self.root, 1), size, SIZE);
        ctx.tx_commit();
    }

    fn remove(&mut self, ctx: &mut PmContext, key: u64) -> bool {
        use sites::*;
        ctx.tx_begin();
        let r = ctx.load(fld(self.root, 0));
        if r == 0 {
            ctx.tx_commit();
            return false;
        }
        // Walk to the leaf, remembering the parent internal node and
        // its grandparent link.
        let mut gp: Option<(PmAddr, u64)> = None;
        let mut parent: Option<(PmAddr, u64)> = None;
        let mut cur = PmAddr::new(r);
        while ctx.load(fld(cur, 0)) == 1 {
            ctx.compute(CMP_COST);
            let bit = ctx.load(fld(cur, 1));
            let dir = bit_of(key, bit);
            gp = parent;
            parent = Some((cur, dir));
            cur = PmAddr::new(ctx.load(fld(cur, 2 + dir)));
        }
        if ctx.load(fld(cur, 1)) != key {
            ctx.tx_commit();
            return false;
        }
        let blob = ctx.load(fld(cur, 2));
        match parent {
            None => {
                // The root is the only leaf.
                ctx.store(fld(self.root, 0), 0, ROOT_PTR);
            }
            Some((p, dir)) => {
                // Splice the parent internal node out: its other child
                // takes its place.
                let sibling = ctx.load(fld(p, 2 + (1 - dir)));
                match gp {
                    Some((g, gdir)) => ctx.store(fld(g, 2 + gdir), sibling, LINK),
                    None => ctx.store(fld(self.root, 0), sibling, ROOT_PTR),
                }
                // Poison the dying internal node (freed this txn).
                ctx.store(fld(p, 2), 0, RM_POISON);
                ctx.free(p);
            }
        }
        ctx.store(fld(cur, 1), 0, RM_POISON);
        ctx.free(cur);
        ctx.free(PmAddr::new(blob));
        let size = ctx.load(fld(self.root, 1)) - 1;
        ctx.store(fld(self.root, 1), size, SIZE);
        ctx.tx_commit();
        true
    }

    fn locate(&self, r: &mut Reader<'_>, key: u64) -> Option<ValueAt> {
        if r.load(fld(self.root, 0)) == 0 {
            return None;
        }
        let leaf = self.closest_leaf(r, key);
        if r.load(fld(leaf, 1)) != key {
            return None;
        }
        let vptr = fld(leaf, 2);
        ValueAt::blob(r, vptr, self.value_bytes, sites::VALUE, sites::UPD_VPTR)
    }

    fn walk(&self, ctx: &PmContext, f: &mut dyn FnMut(Visit)) {
        f(Visit::Block(self.root));
        let r = ctx.peek(fld(self.root, 0));
        let mut stack = if r == 0 { vec![] } else { vec![r] };
        while let Some(n) = stack.pop() {
            let a = PmAddr::new(n);
            f(Visit::Block(a));
            // Leaf: [0, key, blob]; internal: [1, bit, left, right].
            let [internal, w1, w2] = ctx.peek_words(a);
            if internal == 0 {
                f(Visit::Block(PmAddr::new(w2)));
                f(Visit::Entry(w1, PmAddr::new(w2)));
            } else {
                stack.push(w2);
                stack.push(ctx.peek(fld(a, 3)));
            }
        }
    }

    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String> {
        // Crit-bit indices strictly increase along every path, and each
        // leaf must be reachable by following its own key's bits: its
        // key agrees with every bit its path fixes (`mask` marks them,
        // `bits` holds their values).
        let r = ctx.peek(fld(self.root, 0));
        let mut count = 0usize;
        if r != 0 {
            // (node, min bit, bound active, mask, bits)
            let mut stack = vec![(r, 0u64, false, 0u64, 0u64)];
            while let Some((n, min_bit, active, mask, bits)) = stack.pop() {
                let a = PmAddr::new(n);
                if ctx.peek(fld(a, 0)) == 0 {
                    count += 1;
                    let key = ctx.peek(fld(a, 1));
                    if key & mask != bits {
                        return Err(format!("leaf key {key} not reachable by its own bits"));
                    }
                    continue;
                }
                let bit = ctx.peek(fld(a, 1));
                if active && bit <= min_bit {
                    return Err(format!("crit-bit order violated: {bit} after {min_bit}"));
                }
                if bit > 63 {
                    return Err(format!("crit-bit {bit} out of range"));
                }
                let m = 1u64 << (63 - bit);
                stack.push((ctx.peek(fld(a, 2)), bit, true, mask | m, bits));
                stack.push((ctx.peek(fld(a, 3)), bit, true, mask | m, bits | m));
            }
        }
        let size = ctx.peek(fld(self.root, 1));
        if size as usize != count {
            return Err(format!("size {size} != leaf count {count}"));
        }
        Ok(())
    }

    fn recover(&mut self, ctx: &mut PmContext) {
        let count = self.len(ctx) as u64;
        ctx.recovery_write(fld(self.root, 1), count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::{value_for, ycsb_load};
    use slpmt_core::Scheme;

    fn fresh(source: AnnotationSource) -> (PmContext, CtreeKv) {
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let t = CtreeKv::new(&mut ctx, 32, source);
        (ctx, t)
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
    }

    #[test]
    fn adjacent_keys_diverge_on_low_bits() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let v = value_for(0, 32);
        for k in 1..=64u64 {
            t.insert(&mut ctx, k, &v);
        }
        t.check_invariants(&ctx).unwrap();
        for k in 1..=64u64 {
            assert!(t.contains(&ctx, k));
        }
        assert!(!t.contains(&ctx, 65));
    }

    #[test]
    fn one_logged_store_per_insert() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(32, 32, 2);
        for op in &ops {
            t.insert(&mut ctx, op.key, &op.value);
        }
        // Per insert: one logged link + (lazily logged) size counter.
        // All leaf/internal/value stores are log-free.
        let per_op = ctx.machine().stats().log_records_created as f64 / ops.len() as f64;
        assert!(per_op <= 3.0, "too many log records per insert: {per_op}");
    }

    #[test]
    fn crash_recovery() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(150, 32, 3);
        for op in &ops {
            t.insert(&mut ctx, op.key, &op.value);
        }
        ctx.crash_and_recover();
        t.recover(&mut ctx);
        ctx.gc(&t.reachable(&ctx));
        t.check_invariants(&ctx).unwrap();
        for op in &ops {
            assert_eq!(t.value_of(&ctx, op.key).unwrap(), value_for(op.key, 32));
        }
    }

    #[test]
    fn swapped_children_are_unreachable_by_their_bits() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        for op in ycsb_load(40, 32, 5) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        ctx.crash_and_recover();
        t.recover(&mut ctx);
        t.check_invariants(&ctx).unwrap();
        let r = PmAddr::new(ctx.peek(fld(t.root, 0)));
        let (left, right) = (ctx.peek(fld(r, 2)), ctx.peek(fld(r, 3)));
        ctx.recovery_write(fld(r, 2), right);
        ctx.recovery_write(fld(r, 3), left);
        let err = t.check_invariants(&ctx).unwrap_err();
        assert!(err.ends_with("not reachable by its own bits"), "{err}");
    }

    #[test]
    fn compiler_annotations_preserve_correctness() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Compiler);
        for op in ycsb_load(100, 32, 4) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn ir_is_valid() {
        assert!(CtreeKv::ir().validate().is_ok());
    }
}
