//! B-tree backend for the PMDK-style KV store.
//!
//! An order-8 B-tree (up to 7 keys and 8 children per node) with
//! preemptive top-down splitting. Splits move the upper half of a full
//! node into a fresh allocation — Pattern 1 log-free stores — while
//! in-node shifts overwrite live cells and stay logged.
//!
//! ### Persistent layout
//!
//! ```text
//! root:  [0]=index root  [1]=size
//! node:  [0]=nkeys [1]=leaf? [2..9]=keys[7] [9..17]=slots[8]
//!        (slots are children for internal nodes, value blobs for
//!        leaves)
//! ```

use crate::ctx::{AnnotationSource, PmContext};
use crate::runner::{DurableIndex, Load, Reader, ValueAt, Visit};
use slpmt_annotate::{Annotation, AnnotationTable, Operand, ParamKind, TxnIr, TxnIrBuilder};
use slpmt_pmem::PmAddr;

/// Store sites of the insert transaction.
pub mod sites {
    use slpmt_annotate::SiteId;
    /// Fresh node's meta fields (nkeys/leaf).
    pub const NEW_META: SiteId = SiteId(0);
    /// Key moved into a fresh node during a split.
    pub const SPLIT_COPY_KEY: SiteId = SiteId(1);
    /// Slot moved into a fresh node during a split.
    pub const SPLIT_COPY_SLOT: SiteId = SiteId(2);
    /// Value blob payload.
    pub const VALUE: SiteId = SiteId(3);
    /// Existing node's nkeys update.
    pub const NKEYS_UPD: SiteId = SiteId(4);
    /// Key shift within an existing node.
    pub const SHIFT_KEY: SiteId = SiteId(5);
    /// Slot shift within an existing node.
    pub const SHIFT_SLOT: SiteId = SiteId(6);
    /// Key insertion into an existing node.
    pub const INS_KEY: SiteId = SiteId(7);
    /// Slot insertion into an existing node.
    pub const INS_SLOT: SiteId = SiteId(8);
    /// KV root pointer update.
    pub const ROOT_PTR: SiteId = SiteId(9);
    /// KV size counter.
    pub const SIZE: SiteId = SiteId(10);
    /// Left-shift within a leaf on removal.
    pub const RM_SHIFT: SiteId = SiteId(11);
    /// Value-pointer swap on update (copy-on-write blob replace).
    pub const UPD_VPTR: SiteId = SiteId(12);
}

/// Maximum keys per node (order 8).
pub const MAX_KEYS: u64 = 7;
const CMP_COST: u64 = 5;

fn fld(base: PmAddr, i: u64) -> PmAddr {
    base.add(i * 8)
}

fn key_at(n: PmAddr, i: u64) -> PmAddr {
    fld(n, 2 + i)
}

fn slot_at(n: PmAddr, i: u64) -> PmAddr {
    fld(n, 9 + i)
}

const NODE_WORDS: u64 = 17;

/// A node's words, read untimed in one go.
type NodeWords = [u64; NODE_WORDS as usize];

/// A node's key count (clamped to the node's capacity, so a corrupt
/// count cannot index past it; `check_node` reports such a count),
/// keys and slots.
fn parts(node: &NodeWords) -> (usize, &[u64], &[u64]) {
    let nk = node[0].min(MAX_KEYS) as usize;
    (nk, &node[2..9], &node[9..])
}

/// The B-tree KV backend.
#[derive(Debug, Clone)]
pub struct BtreeKv {
    root: PmAddr,
    value_bytes: u64,
}

impl BtreeKv {
    /// Hand-written annotations: fresh-node stores and value blobs are
    /// log-free; the size counter is lazily persistent.
    pub fn manual_table() -> AnnotationTable {
        use sites::*;
        [
            (NEW_META, Annotation::LogFree),
            (SPLIT_COPY_KEY, Annotation::LogFree),
            (SPLIT_COPY_SLOT, Annotation::LogFree),
            (VALUE, Annotation::LogFree),
        ]
        .into_iter()
        .collect()
    }

    /// IR for the compiler (the PMKV benchmarks run compiler-annotated
    /// by default, §VI-A).
    pub fn ir() -> TxnIr {
        use sites::*;
        let mut b = TxnIrBuilder::new("kv-btree-insert");
        let root = b.param(ParamKind::PersistentPtr);
        let key = b.param(ParamKind::Key);
        let val = b.param(ParamKind::Value);
        let node = b.load(root, 0);
        let blob = b.alloc();
        b.store_at(VALUE, blob, 0, Operand::Value(val));
        // Split: fresh sibling receives the upper half.
        let sib = b.alloc();
        let mk = b.load(node, 5);
        let ms = b.load(node, 12);
        b.store_at(NEW_META, sib, 0, Operand::Const(3));
        b.store_at(SPLIT_COPY_KEY, sib, 2, Operand::Value(mk));
        b.store_at(SPLIT_COPY_SLOT, sib, 9, Operand::Value(ms));
        let nk = b.load(node, 0);
        let nk2 = b.compute(vec![Operand::Value(nk), Operand::Const(3)]);
        b.store_at(NKEYS_UPD, node, 0, Operand::Value(nk2));
        // In-node shift and insert.
        let k1 = b.load(node, 3);
        b.store_at(SHIFT_KEY, node, 4, Operand::Value(k1));
        let s1 = b.load(node, 10);
        b.store_at(SHIFT_SLOT, node, 11, Operand::Value(s1));
        b.store_at(INS_KEY, node, 3, Operand::Value(key));
        b.store_at(INS_SLOT, node, 10, Operand::Value(blob));
        b.store_at(ROOT_PTR, root, 0, Operand::Value(sib));
        let size = b.load(root, 1);
        let size2 = b.compute_opaque(vec![Operand::Value(size)]);
        b.store_at(SIZE, root, 1, Operand::Value(size2));
        b.build()
    }

    /// Builds an empty B-tree KV store (untimed setup).
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
        BtreeKv {
            root,
            value_bytes: value_size as u64,
        }
    }

    fn new_node(&self, ctx: &mut PmContext, leaf: bool) -> PmAddr {
        use sites::*;
        let n = ctx.alloc(NODE_WORDS * 8);
        ctx.store(fld(n, 0), 0, NEW_META);
        ctx.store(fld(n, 1), leaf as u64, NEW_META);
        for i in 0..8 {
            ctx.store(slot_at(n, i), 0, NEW_META);
        }
        n
    }

    /// Splits the full child at `idx` of `parent` (both resident),
    /// B+-tree style: a leaf keeps keys 0..3 and its sibling receives
    /// keys 3..7 (the separator is duplicated upward); an internal node
    /// keeps keys 0..3, promotes key 3, and its sibling receives keys
    /// 4..7 with children 4..=7.
    fn split_child(&self, ctx: &mut PmContext, parent: PmAddr, idx: u64) {
        use sites::*;
        let child = PmAddr::new(ctx.load(slot_at(parent, idx)));
        let leaf = ctx.load(fld(child, 1)) == 1;
        let sib = self.new_node(ctx, leaf);
        let separator = ctx.load(key_at(child, 3));
        if leaf {
            for i in 0..4u64 {
                let k = ctx.load(key_at(child, 3 + i));
                ctx.store(key_at(sib, i), k, SPLIT_COPY_KEY);
                let s = ctx.load(slot_at(child, 3 + i));
                ctx.store(slot_at(sib, i), s, SPLIT_COPY_SLOT);
            }
            ctx.store(fld(sib, 0), 4, NEW_META);
        } else {
            for i in 0..3u64 {
                let k = ctx.load(key_at(child, 4 + i));
                ctx.store(key_at(sib, i), k, SPLIT_COPY_KEY);
            }
            for i in 0..4u64 {
                let s = ctx.load(slot_at(child, 4 + i));
                ctx.store(slot_at(sib, i), s, SPLIT_COPY_SLOT);
            }
            ctx.store(fld(sib, 0), 3, NEW_META);
        }
        ctx.store(fld(child, 0), 3, NKEYS_UPD);
        // Shift the parent's keys/slots right of idx and link in.
        let pn = ctx.load(fld(parent, 0));
        let mut i = pn;
        while i > idx {
            let k = ctx.load(key_at(parent, i - 1));
            ctx.store(key_at(parent, i), k, SHIFT_KEY);
            let s = ctx.load(slot_at(parent, i));
            ctx.store(slot_at(parent, i + 1), s, SHIFT_SLOT);
            i -= 1;
        }
        ctx.store(key_at(parent, idx), separator, INS_KEY);
        ctx.store(slot_at(parent, idx + 1), sib.raw(), INS_SLOT);
        ctx.store(fld(parent, 0), pn + 1, NKEYS_UPD);
    }

    /// First index whose key exceeds `key` — the descent child for
    /// internal nodes and the insert position for leaves (separator
    /// equality descends right, where B+-style leaf keys live).
    fn find_idx(&self, ctx: &mut impl Load, n: PmAddr, key: u64) -> u64 {
        let nk = ctx.load(fld(n, 0));
        let mut i = 0;
        while i < nk {
            ctx.compute(CMP_COST);
            if key < ctx.load(key_at(n, i)) {
                break;
            }
            i += 1;
        }
        i
    }

    #[allow(clippy::too_many_arguments)]
    fn check_node(
        &self,
        ctx: &PmContext,
        n: u64,
        lo: u64,
        hi: u64,
        depth: usize,
        leaf_depth: &mut Option<usize>,
        count: &mut usize,
    ) -> Result<(), String> {
        let node: NodeWords = ctx.peek_words(PmAddr::new(n));
        if node[0] > MAX_KEYS {
            return Err(format!("node {n:#x} has {} keys", node[0]));
        }
        let (nk, keys, slots) = parts(&node);
        let leaf = node[1] == 1;
        let mut prev = lo;
        for &k in &keys[..nk] {
            if k < prev || k > hi {
                return Err(format!("key {k} out of order in node {n:#x}"));
            }
            prev = k;
        }
        if leaf {
            *count += nk;
            match leaf_depth {
                Some(d) if *d != depth => {
                    return Err(format!("leaf depth {depth} != {d}"));
                }
                None => *leaf_depth = Some(depth),
                _ => {}
            }
        } else {
            for (i, &c) in slots[..=nk].iter().enumerate() {
                if c == 0 {
                    return Err(format!("missing child {i} in internal node {n:#x}"));
                }
                let clo = if i == 0 { lo } else { keys[i - 1] };
                let chi = if i == nk { hi } else { keys[i] };
                self.check_node(ctx, c, clo, chi, depth + 1, leaf_depth, count)?;
            }
        }
        Ok(())
    }
}

impl DurableIndex for BtreeKv {
    fn name(&self) -> &'static str {
        "kv-btree"
    }

    fn scan_range(&mut self, ctx: &mut PmContext, lo: u64, hi: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        let r = ctx.load(fld(self.root, 0));
        if r == 0 {
            return Some(out);
        }
        // DFS in key order, pruning children whose separator window
        // cannot intersect [lo, hi].
        let mut stack = vec![(r, u64::MIN, u64::MAX)];
        while let Some((n, nlo, nhi)) = stack.pop() {
            if nhi < lo || nlo > hi {
                continue;
            }
            let a = PmAddr::new(n);
            let nk = ctx.load(fld(a, 0));
            if ctx.load(fld(a, 1)) == 1 {
                for i in 0..nk {
                    ctx.compute(CMP_COST);
                    let k = ctx.load(key_at(a, i));
                    if (lo..=hi).contains(&k) {
                        let blob = PmAddr::new(ctx.load(slot_at(a, i)));
                        let mut v = vec![0u8; self.value_bytes as usize];
                        ctx.load_bytes(blob, &mut v);
                        out.push((k, v));
                    }
                }
                continue;
            }
            // Children load left to right, then flip on the stack so the
            // leftmost pops first: leaves come out in key order.
            let first = stack.len();
            for i in 0..=nk {
                let clo = if i == 0 {
                    nlo
                } else {
                    ctx.load(key_at(a, i - 1))
                };
                let chi = if i == nk { nhi } else { ctx.load(key_at(a, i)) };
                stack.push((ctx.load(slot_at(a, i)), clo, chi));
            }
            stack[first..].reverse();
        }
        Some(out)
    }

    fn insert(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) {
        use sites::*;
        assert_eq!(value.len() as u64, self.value_bytes);
        ctx.tx_begin();
        let blob = ctx.alloc(self.value_bytes);
        ctx.store_bytes(blob, value, VALUE);
        let mut r = ctx.load(fld(self.root, 0));
        if r == 0 {
            let leaf = self.new_node(ctx, true);
            ctx.store(fld(self.root, 0), leaf.raw(), ROOT_PTR);
            r = leaf.raw();
        } else if ctx.load(fld(PmAddr::new(r), 0)) == MAX_KEYS {
            // Preemptive root split.
            let new_root = self.new_node(ctx, false);
            ctx.store(slot_at(new_root, 0), r, INS_SLOT);
            self.split_child(ctx, new_root, 0);
            ctx.store(fld(self.root, 0), new_root.raw(), ROOT_PTR);
            r = new_root.raw();
        }
        // Descend, splitting full children preemptively.
        let mut n = PmAddr::new(r);
        loop {
            if ctx.load(fld(n, 1)) == 1 {
                break;
            }
            let mut idx = self.find_idx(ctx, n, key);
            let child = PmAddr::new(ctx.load(slot_at(n, idx)));
            if ctx.load(fld(child, 0)) == MAX_KEYS {
                self.split_child(ctx, n, idx);
                idx = self.find_idx(ctx, n, key);
            }
            n = PmAddr::new(ctx.load(slot_at(n, idx)));
        }
        // Insert into the (non-full) leaf.
        let nk = ctx.load(fld(n, 0));
        let idx = self.find_idx(ctx, n, key);
        let mut i = nk;
        while i > idx {
            let k = ctx.load(key_at(n, i - 1));
            ctx.store(key_at(n, i), k, SHIFT_KEY);
            let s = ctx.load(slot_at(n, i - 1));
            ctx.store(slot_at(n, i), s, SHIFT_SLOT);
            i -= 1;
        }
        ctx.store(key_at(n, idx), key, INS_KEY);
        ctx.store(slot_at(n, idx), blob.raw(), INS_SLOT);
        ctx.store(fld(n, 0), nk + 1, NKEYS_UPD);
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
        // Descend to the leaf (B+ style: no rebalancing on deletion —
        // leaves may underflow, separators may go stale; both are
        // tolerated by lookups and the invariant checker).
        let mut n = PmAddr::new(r);
        while ctx.load(fld(n, 1)) != 1 {
            let idx = self.find_idx(ctx, n, key);
            n = PmAddr::new(ctx.load(slot_at(n, idx)));
        }
        let nk = ctx.load(fld(n, 0));
        let mut pos = None;
        for i in 0..nk {
            ctx.compute(CMP_COST);
            if ctx.load(key_at(n, i)) == key {
                pos = Some(i);
                break;
            }
        }
        let Some(i) = pos else {
            ctx.tx_commit();
            return false;
        };
        let blob = ctx.load(slot_at(n, i));
        ctx.free(PmAddr::new(blob));
        for j in i..nk - 1 {
            let k = ctx.load(key_at(n, j + 1));
            ctx.store(key_at(n, j), k, RM_SHIFT);
            let v = ctx.load(slot_at(n, j + 1));
            ctx.store(slot_at(n, j), v, RM_SHIFT);
        }
        ctx.store(fld(n, 0), nk - 1, NKEYS_UPD);
        let size = ctx.load(fld(self.root, 1)) - 1;
        ctx.store(fld(self.root, 1), size, SIZE);
        ctx.tx_commit();
        true
    }

    fn locate(&self, r: &mut Reader<'_>, key: u64) -> Option<ValueAt> {
        let root = r.load(fld(self.root, 0));
        if root == 0 {
            return None;
        }
        let mut n = PmAddr::new(root);
        while r.load(fld(n, 1)) != 1 {
            let idx = self.find_idx(r, n, key);
            n = PmAddr::new(r.load(slot_at(n, idx)));
        }
        let nk = r.load(fld(n, 0));
        for i in 0..nk {
            r.compute(CMP_COST);
            if r.load(key_at(n, i)) == key {
                let vptr = slot_at(n, i);
                return ValueAt::blob(r, vptr, self.value_bytes, sites::VALUE, sites::UPD_VPTR);
            }
        }
        None
    }

    fn walk(&self, ctx: &PmContext, f: &mut dyn FnMut(Visit)) {
        // Each node is read once, whole.
        f(Visit::Block(self.root));
        let r = ctx.peek(fld(self.root, 0));
        let mut stack = if r == 0 { vec![] } else { vec![r] };
        while let Some(n) = stack.pop() {
            f(Visit::Block(PmAddr::new(n)));
            let node: NodeWords = ctx.peek_words(PmAddr::new(n));
            let (nk, keys, slots) = parts(&node);
            if node[1] == 1 {
                for (&k, &v) in keys[..nk].iter().zip(slots) {
                    f(Visit::Block(PmAddr::new(v)));
                    f(Visit::Entry(k, PmAddr::new(v)));
                }
            } else {
                stack.extend(slots[..=nk].iter().filter(|&&c| c != 0));
            }
        }
    }

    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String> {
        let r = ctx.peek(fld(self.root, 0));
        let mut count = 0;
        if r != 0 {
            let mut leaf_depth = None;
            self.check_node(ctx, r, u64::MIN, u64::MAX, 0, &mut leaf_depth, &mut count)?;
        }
        let size = ctx.peek(fld(self.root, 1));
        if size as usize != count {
            return Err(format!("size {size} != key count {count}"));
        }
        Ok(())
    }

    fn recover(&mut self, ctx: &mut PmContext) {
        // Only the size counter is lazily persistent: recount from each
        // node's two header words (key count, leaf flag), reading child
        // slots of internal nodes only. Counts are clamped as in `walk`.
        let mut count = 0;
        let mut stack = vec![ctx.peek(fld(self.root, 0))];
        while let Some(n) = stack.pop() {
            if n == 0 {
                continue;
            }
            let [nk, leaf] = ctx.peek_words(PmAddr::new(n));
            let nk = nk.min(MAX_KEYS);
            if leaf == 1 {
                count += nk;
            } else {
                let slots: [u64; 8] = ctx.peek_words(slot_at(PmAddr::new(n), 0));
                stack.extend(&slots[..=nk as usize]);
            }
        }
        ctx.recovery_write(fld(self.root, 1), count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::{value_for, ycsb_load};
    use slpmt_core::Scheme;

    fn fresh(source: AnnotationSource) -> (PmContext, BtreeKv) {
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let t = BtreeKv::new(&mut ctx, 32, source);
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
        assert!(!t.contains(&ctx, 1));
    }

    #[test]
    fn sequential_keys_split_correctly() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let v = value_for(0, 32);
        for k in 1..=100u64 {
            t.insert(&mut ctx, k * 10, &v);
        }
        t.check_invariants(&ctx).unwrap();
        assert_eq!(t.len(&ctx), 100);
    }

    #[test]
    fn crash_recovery() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(150, 32, 2);
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
        for op in ycsb_load(50, 32, 55) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn compiler_annotations_preserve_correctness() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Compiler);
        for op in ycsb_load(100, 32, 3) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn compiler_finds_split_copies() {
        let (table, _) = slpmt_annotate::analyze(&BtreeKv::ir());
        assert!(table.get(sites::VALUE).is_selective());
        assert!(table.get(sites::SPLIT_COPY_KEY).is_selective());
        assert_eq!(table.get(sites::SHIFT_KEY), Annotation::Plain);
        assert_eq!(table.get(sites::SIZE), Annotation::Plain);
    }

    #[test]
    fn ir_is_valid() {
        assert!(BtreeKv::ir().validate().is_ok());
    }
}
