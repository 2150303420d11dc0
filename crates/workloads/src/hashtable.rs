//! Chained hash table with load-factor-3 resizing (Table II).
//!
//! The STAMP-derived kernel: a chained hash table that resizes when
//! buckets average three records. Inserts push at the front of a
//! bucket chain; the resize *moves* every record into a freshly
//! allocated node block — the data-movement pattern §VI-D1 highlights:
//! the copies are `storeT(lazy, log-free)` because the old table is
//! neither deleted nor overwritten inside the transaction, so a crash
//! that loses the deferred copies is repaired by re-executing the
//! rehash from the (durable) old generation.
//!
//! ### Persistent layout
//!
//! ```text
//! root:  [0]=buckets  [1]=nbuckets  [2]=size
//!        [3]=old_buckets [4]=old_nbuckets (previous generation, kept
//!            for rehash re-execution) [5]=block [6]=block_count
//!        [7]=old_block (the block holding the previous generation's
//!            resize copies, 0 for the first generation)
//! node:  [0]=key [1]=next [2]=value-blob pointer
//! blob:  value bytes
//! ```
//!
//! Nodes created by a resize live densely inside one `block`
//! allocation at deterministic offsets, so recovery can re-derive
//! every copied node's address from the durable `block` pointer and
//! the old generation's iteration order.
//!
//! The previous generation stays recorded (words 3, 4 and 7) until the
//! *redo window* closes: an update or removal, or the next resize,
//! retires it. The retiring transaction frees its bucket array, its
//! individually allocated nodes and its block; the frees are deferred
//! to commit, so a crash before then keeps the generation for rehash
//! re-execution.

use crate::ctx::{AnnotationSource, PmContext};
use crate::runner::{update_value, DurableIndex, Load, Reader, ValueAt, Visit};
use slpmt_annotate::{Annotation, AnnotationTable, Operand, ParamKind, TxnIr, TxnIrBuilder};
use slpmt_pmem::PmAddr;

/// Store sites of the insert (and embedded resize) transaction.
pub mod sites {
    use slpmt_annotate::SiteId;
    /// New node's key field.
    pub const NODE_KEY: SiteId = SiteId(0);
    /// New node's next pointer.
    pub const NODE_NEXT: SiteId = SiteId(1);
    /// New node's value payload.
    pub const NODE_VALUE: SiteId = SiteId(2);
    /// Bucket-array head update (publishes the new node).
    pub const BUCKET_HEAD: SiteId = SiteId(3);
    /// Root size counter.
    pub const SIZE: SiteId = SiteId(4);
    /// New bucket-array entry written during resize.
    pub const RS_ARRAY: SiteId = SiteId(5);
    /// Moved node's key (resize copy).
    pub const RS_COPY_KEY: SiteId = SiteId(6);
    /// Moved node's next pointer (resize copy).
    pub const RS_COPY_NEXT: SiteId = SiteId(7);
    /// Moved node's value payload (resize copy).
    pub const RS_COPY_VALUE: SiteId = SiteId(8);
    /// Root bucket-array pointer switch.
    pub const RS_ROOT_BUCKETS: SiteId = SiteId(9);
    /// Root bucket-count switch.
    pub const RS_ROOT_NB: SiteId = SiteId(10);
    /// Root old-generation array pointer.
    pub const RS_OLD_BUCKETS: SiteId = SiteId(11);
    /// Root old-generation bucket count.
    pub const RS_OLD_NB: SiteId = SiteId(12);
    /// Root node-block pointer.
    pub const RS_BLOCK: SiteId = SiteId(13);
    /// Root node-block population count.
    pub const RS_BLOCK_COUNT: SiteId = SiteId(14);
    /// New node's value-blob pointer.
    pub const NODE_VPTR: SiteId = SiteId(15);
    /// Unlink store on removal (predecessor's next or bucket head).
    pub const RM_UNLINK: SiteId = SiteId(16);
    /// Poison store into the node being freed (Pattern 1, free case).
    pub const RM_POISON: SiteId = SiteId(17);
    /// Value-pointer swap on update (copy-on-write blob replace).
    pub const UPD_VPTR: SiteId = SiteId(18);
}

const INITIAL_BUCKETS: u64 = 8;
const LOAD_FACTOR: u64 = 3;
const HASH_COST: u64 = 12;
const CMP_COST_RM: u64 = 5;

fn fld(base: PmAddr, i: u64) -> PmAddr {
    base.add(i * 8)
}

fn hash(key: u64, nbuckets: u64) -> u64 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % nbuckets
}

/// Bucket heads one untimed read of the bucket array fetches.
const HEADS_PER_READ: usize = 64;

/// The `n` bucket heads of the array at `buckets`, in bucket order,
/// read untimed [`HEADS_PER_READ`] words at a time.
struct Heads<'a> {
    ctx: &'a PmContext,
    buckets: PmAddr,
    n: u64,
    next: u64,
    block: [[u8; 8]; HEADS_PER_READ],
}

impl<'a> Heads<'a> {
    fn new(ctx: &'a PmContext, buckets: PmAddr, n: u64) -> Self {
        Heads {
            ctx,
            buckets,
            n,
            next: 0,
            block: [[0; 8]; HEADS_PER_READ],
        }
    }
}

impl Iterator for Heads<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.next == self.n {
            return None;
        }
        let i = self.next as usize % HEADS_PER_READ;
        if i == 0 {
            let len = (self.n - self.next).min(HEADS_PER_READ as u64) as usize;
            let block = self.block[..len].as_flattened_mut();
            self.ctx.peek_bytes(fld(self.buckets, self.next), block);
        }
        self.next += 1;
        Some(u64::from_le_bytes(self.block[i]))
    }
}

/// The durable chained hash table.
#[derive(Debug, Clone)]
pub struct Hashtable {
    root: PmAddr,
    value_bytes: u64,
}

impl Hashtable {
    /// Hand-written annotations (§VI-A): new-node and new-array stores
    /// are log-free; resize copies are lazy log-free (data movement);
    /// the size counter is lazily persistent (recountable).
    pub fn manual_table() -> AnnotationTable {
        use sites::*;
        [
            (NODE_KEY, Annotation::LogFree),
            (NODE_NEXT, Annotation::LogFree),
            (NODE_VALUE, Annotation::LogFree),
            (NODE_VPTR, Annotation::LogFree),
            (RS_ARRAY, Annotation::LogFree),
            (RS_COPY_KEY, Annotation::LazyLogFree),
            (RS_COPY_NEXT, Annotation::LazyLogFree),
            (RS_COPY_VALUE, Annotation::LazyLogFree),
            (RM_POISON, Annotation::LazyLogFree),
        ]
        .into_iter()
        .collect()
    }

    /// IR description of the insert-with-resize transaction for the
    /// compiler pass. The resize loop is represented by one iteration;
    /// the load-factor bookkeeping is opaque (the compiler cannot see
    /// that `size` is recountable), so the compiler misses the counter
    /// — the Figure 13 gap.
    pub fn ir() -> TxnIr {
        use sites::*;
        let mut b = TxnIrBuilder::new("hashtable-insert");
        let root = b.param(ParamKind::PersistentPtr);
        let key = b.param(ParamKind::Key);
        let val = b.param(ParamKind::Value);
        let buckets = b.load(root, 0);
        let n = b.load(root, 1);
        let h = b.compute(vec![Operand::Value(key), Operand::Value(n)]);
        let slot = b.compute(vec![Operand::Value(buckets), Operand::Value(h)]);
        let head = b.load(slot, 0);
        let blob = b.alloc();
        b.store_at(NODE_VALUE, blob, 0, Operand::Value(val));
        let node = b.alloc();
        b.store_at(NODE_KEY, node, 0, Operand::Value(key));
        b.store_at(NODE_NEXT, node, 1, Operand::Value(head));
        b.store_at(NODE_VPTR, node, 2, Operand::Value(blob));
        b.store_at(BUCKET_HEAD, slot, 0, Operand::Value(node));
        let size = b.load(root, 2);
        let size2 = b.compute_opaque(vec![Operand::Value(size)]);
        b.store_at(SIZE, root, 2, Operand::Value(size2));
        // Resize portion (one representative moved node).
        let newarr = b.alloc();
        let block = b.alloc();
        let onode = b.load(slot, 0); // a node of the old generation
        let ok = b.load(onode, 0);
        let ov = b.load(onode, 2);
        let bn = b.compute(vec![Operand::Value(block), Operand::Const(0)]);
        let nh = b.compute(vec![Operand::Value(ok), Operand::Const(2)]);
        let nslot = b.compute(vec![Operand::Value(newarr), Operand::Value(nh)]);
        let nhead = b.load(nslot, 0);
        b.store_at(RS_COPY_KEY, bn, 0, Operand::Value(ok));
        b.store_at(RS_COPY_NEXT, bn, 1, Operand::Value(nhead));
        b.store_at(RS_COPY_VALUE, bn, 2, Operand::Value(ov));
        b.store_at(RS_ARRAY, nslot, 1, Operand::Value(bn));
        // The root words `resize` writes, in its order: the previous
        // generation (3, 4), the retiring block (7), the new block (5,
        // 6), then the switch to the new bucket array (0, 1).
        let old_block = b.load(root, 5);
        b.store_at(RS_OLD_BUCKETS, root, 3, Operand::Value(buckets));
        b.store_at(RS_OLD_NB, root, 4, Operand::Value(n));
        b.store_at(RS_BLOCK, root, 7, Operand::Value(old_block));
        b.store_at(RS_BLOCK, root, 5, Operand::Value(block));
        b.store_at(RS_BLOCK_COUNT, root, 6, Operand::Value(size2));
        b.store_at(RS_ROOT_BUCKETS, root, 0, Operand::Value(newarr));
        b.store_at(RS_ROOT_NB, root, 1, Operand::Const(16));
        b.build()
    }

    /// Builds an empty table (setup is untimed) and installs the
    /// resolved annotation table into `ctx`.
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
        let root = ctx.setup_alloc(9 * 8);
        let buckets = ctx.setup_alloc(INITIAL_BUCKETS * 8);
        ctx.recovery_write(fld(root, 0), buckets.raw());
        ctx.recovery_write(fld(root, 1), INITIAL_BUCKETS);
        Hashtable {
            root,
            value_bytes: value_size as u64,
        }
    }

    fn node_bytes(&self) -> u64 {
        3 * 8
    }

    fn resize(&self, ctx: &mut PmContext, old_buckets: PmAddr, old_n: u64, size: u64) {
        use sites::*;
        let new_n = old_n * 2;
        let new_arr = ctx.alloc(new_n * 8);
        let block = ctx.alloc(size * self.node_bytes());
        // Compute the new chains while copying nodes into the block at
        // deterministic offsets (old-generation iteration order).
        let mut heads = vec![0u64; new_n as usize];
        let mut bi = 0u64;
        for bkt in 0..old_n {
            let mut cur = ctx.load(fld(old_buckets, bkt));
            while cur != 0 {
                let node = PmAddr::new(cur);
                let k = ctx.load(fld(node, 0));
                let next = ctx.load(fld(node, 1));
                let vptr = ctx.load(fld(node, 2));
                ctx.compute(HASH_COST);
                let nh = hash(k, new_n) as usize;
                let copy = block.add(bi * self.node_bytes());
                bi += 1;
                ctx.store(fld(copy, 0), k, RS_COPY_KEY);
                ctx.store(fld(copy, 1), heads[nh], RS_COPY_NEXT);
                ctx.store(fld(copy, 2), vptr, RS_COPY_VALUE);
                heads[nh] = copy.raw();
                cur = next;
            }
        }
        for (i, &head) in heads.iter().enumerate() {
            ctx.store(fld(new_arr, i as u64), head, RS_ARRAY);
        }
        // No update or removal closed the previous window: this resize
        // retires that generation as it records the new one.
        self.retire(ctx);
        let root = self.root;
        let old_block = ctx.load(fld(root, 5));
        ctx.store(fld(root, 3), old_buckets.raw(), RS_OLD_BUCKETS);
        ctx.store(fld(root, 4), old_n, RS_OLD_NB);
        if old_block != 0 {
            ctx.store(fld(root, 7), old_block, RS_BLOCK);
        }
        ctx.store(fld(root, 5), block.raw(), RS_BLOCK);
        ctx.store(fld(root, 6), bi, RS_BLOCK_COUNT);
        ctx.store(fld(root, 0), new_arr.raw(), RS_ROOT_BUCKETS);
        ctx.store(fld(root, 1), new_n, RS_ROOT_NB);
    }

    /// Frees the generation recorded at root words 3, 4 and 7, if any:
    /// its bucket array, its individually allocated nodes and the block
    /// of its resize copies. Runs inside the transaction that
    /// overwrites or clears those words; the frees apply at commit.
    fn retire(&self, ctx: &mut PmContext) {
        let root = self.root;
        let old = ctx.load(fld(root, 3));
        if old == 0 {
            return;
        }
        let old = PmAddr::new(old);
        let old_n = ctx.load(fld(root, 4));
        for bkt in 0..old_n {
            let mut cur = ctx.load(fld(old, bkt));
            while cur != 0 {
                let node = PmAddr::new(cur);
                cur = ctx.load(fld(node, 1));
                // Block residents go with their block (slot 0 shares
                // the block's start address, so match the size too).
                if ctx.heap().allocation_size(node) == Some(self.node_bytes()) {
                    ctx.free(node);
                }
            }
        }
        ctx.free(old);
        let old_block = ctx.load(fld(root, 7));
        if old_block != 0 {
            ctx.free(PmAddr::new(old_block));
        }
    }

    /// Closes the rehash redo window before an update or removal
    /// rewrites a moved node, which the re-execution recovery would
    /// clobber: forces the moved data durable, then retires the old
    /// generation.
    fn close_window(&self, ctx: &mut PmContext) {
        use sites::*;
        let root = self.root;
        if ctx.peek(fld(root, 3)) == 0 {
            return;
        }
        ctx.drain_lazy();
        ctx.tx_begin();
        self.retire(ctx);
        ctx.store(fld(root, 3), 0, RS_OLD_BUCKETS);
        ctx.store(fld(root, 4), 0, RS_OLD_NB);
        if ctx.peek(fld(root, 7)) != 0 {
            ctx.store(fld(root, 7), 0, RS_BLOCK);
        }
        ctx.tx_commit();
    }

    /// Walks one generation's chains, calling `f(node, [key, next,
    /// value-blob pointer])` on each node; every node is read once.
    fn nodes(&self, ctx: &PmContext, buckets: PmAddr, n: u64, mut f: impl FnMut(PmAddr, [u64; 3])) {
        for mut cur in Heads::new(ctx, buckets, n) {
            let mut guard = 0;
            while cur != 0 {
                let node = ctx.peek_words(PmAddr::new(cur));
                f(PmAddr::new(cur), node);
                cur = node[1];
                guard += 1;
                assert!(guard < 1_000_000, "cycle in hashtable chain");
            }
        }
    }
}

impl DurableIndex for Hashtable {
    fn name(&self) -> &'static str {
        "hashtable"
    }

    fn insert(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) {
        use sites::*;
        assert_eq!(
            value.len() as u64,
            self.value_bytes,
            "value size fixed at creation"
        );
        ctx.tx_begin();
        let root = self.root;
        let buckets = PmAddr::new(ctx.load(fld(root, 0)));
        let n = ctx.load(fld(root, 1));
        ctx.compute(HASH_COST);
        let slot = fld(buckets, hash(key, n));
        let head = ctx.load(slot);
        let blob = ctx.alloc(self.value_bytes);
        ctx.store_bytes(blob, value, NODE_VALUE);
        let node = ctx.alloc(self.node_bytes());
        ctx.store(fld(node, 0), key, NODE_KEY);
        ctx.store(fld(node, 1), head, NODE_NEXT);
        ctx.store(fld(node, 2), blob.raw(), NODE_VPTR);
        ctx.store(slot, node.raw(), BUCKET_HEAD);
        let size = ctx.load(fld(root, 2)) + 1;
        ctx.store(fld(root, 2), size, SIZE);
        if size > LOAD_FACTOR * n {
            self.resize(ctx, buckets, n, size);
        }
        ctx.tx_commit();
    }

    fn remove(&mut self, ctx: &mut PmContext, key: u64) -> bool {
        use sites::*;
        // A removal may rewrite chain links inside the resize block.
        self.close_window(ctx);
        ctx.tx_begin();
        let buckets = PmAddr::new(ctx.load(fld(self.root, 0)));
        let n = ctx.load(fld(self.root, 1));
        ctx.compute(HASH_COST);
        let slot = fld(buckets, hash(key, n));
        let mut prev: Option<PmAddr> = None;
        let mut cur = ctx.load(slot);
        while cur != 0 {
            let node = PmAddr::new(cur);
            ctx.compute(CMP_COST_RM);
            if ctx.load(fld(node, 0)) == key {
                let next = ctx.load(fld(node, 1));
                match prev {
                    Some(p) => ctx.store(fld(p, 1), next, RM_UNLINK),
                    None => ctx.store(slot, next, RM_UNLINK),
                }
                // Poison the dying node: a store into a region the
                // transaction frees needs neither log nor persistence.
                let blob = ctx.load(fld(node, 2));
                ctx.store(fld(node, 2), 0, RM_POISON);
                ctx.free(PmAddr::new(blob));
                // Resize-block residents are not separate allocations
                // (careful: the block's slot 0 shares the block's own
                // start address); only free an allocation that is
                // exactly one node.
                if ctx.heap().allocation_size(node) == Some(self.node_bytes()) {
                    ctx.free(node);
                }
                let size = ctx.load(fld(self.root, 2)) - 1;
                ctx.store(fld(self.root, 2), size, SIZE);
                ctx.tx_commit();
                return true;
            }
            prev = Some(node);
            cur = ctx.load(fld(node, 1));
        }
        ctx.tx_commit();
        false
    }

    fn update(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) -> bool {
        // An update rewrites a moved node's value-blob pointer inside
        // the resize block.
        self.close_window(ctx);
        update_value(self, ctx, key, value)
    }

    fn locate(&self, r: &mut Reader<'_>, key: u64) -> Option<ValueAt> {
        use sites::*;
        let buckets = PmAddr::new(r.load(fld(self.root, 0)));
        let n = r.load(fld(self.root, 1));
        r.compute(HASH_COST);
        let mut cur = r.load(fld(buckets, hash(key, n)));
        while cur != 0 {
            let node = PmAddr::new(cur);
            r.compute(CMP_COST_RM);
            if r.load(fld(node, 0)) == key {
                let vptr = fld(node, 2);
                return ValueAt::blob(r, vptr, self.value_bytes, NODE_VALUE, UPD_VPTR);
            }
            cur = r.load(fld(node, 1));
        }
        None
    }

    fn walk(&self, ctx: &PmContext, f: &mut dyn FnMut(Visit)) {
        let [buckets, n, _, old, old_n, block, _, old_block] = ctx.peek_words(self.root);
        f(Visit::Block(self.root));
        f(Visit::Block(PmAddr::new(buckets)));
        self.nodes(ctx, PmAddr::new(buckets), n, |node, [key, _, vptr]| {
            f(Visit::Block(node));
            f(Visit::Block(PmAddr::new(vptr)));
            f(Visit::Entry(key, PmAddr::new(vptr)));
        });
        if block != 0 {
            f(Visit::Block(PmAddr::new(block)));
        }
        if old != 0 {
            f(Visit::Block(PmAddr::new(old)));
            self.nodes(ctx, PmAddr::new(old), old_n, |node, _| {
                f(Visit::Block(node))
            });
            if old_block != 0 {
                f(Visit::Block(PmAddr::new(old_block)));
            }
        }
    }

    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String> {
        let [buckets, n, size] = ctx.peek_words(self.root);
        if n == 0 || buckets == 0 {
            return Err("root not initialised".into());
        }
        let mut count = 0usize;
        for (bkt, head) in (0..).zip(Heads::new(ctx, PmAddr::new(buckets), n)) {
            // Brent's cycle detection: `mark` is the node at the last
            // power-of-two step of the chain, so a cycle brings the walk
            // back to it within twice the cycle's reach. A node linked
            // from another bucket's chain fails the bucket check first.
            let (mut cur, mut mark, mut steps, mut power) = (head, 0, 0u64, 1u64);
            while cur != 0 {
                let [key, next, _] = ctx.peek_words(PmAddr::new(cur));
                if hash(key, n) != bkt {
                    return Err(format!("key {key} in wrong bucket {bkt}"));
                }
                count += 1;
                steps += 1;
                if steps == power {
                    (mark, power, steps) = (cur, power * 2, 0);
                }
                cur = next;
                if cur == mark {
                    return Err(format!("node {cur:#x} appears twice (cycle or cross-link)"));
                }
            }
        }
        if size as usize != count {
            return Err(format!("size counter {size} != node count {count}"));
        }
        Ok(())
    }

    fn recover(&mut self, ctx: &mut PmContext) {
        let root = self.root;
        let old = ctx.peek(fld(root, 3));
        if old != 0 {
            // Re-execute the rehash from the durable old generation:
            // identical iteration order reproduces every block offset
            // and chain, so the writes are idempotent repairs of any
            // lazily-lost copy.
            let old_buckets = PmAddr::new(old);
            let old_n = ctx.peek(fld(root, 4));
            let block = PmAddr::new(ctx.peek(fld(root, 5)));
            let new_arr = PmAddr::new(ctx.peek(fld(root, 0)));
            let new_n = ctx.peek(fld(root, 1));
            let mut heads = vec![0u64; new_n as usize];
            let mut bi = 0u64;
            let mut copies: Vec<(PmAddr, u64, u64, u64)> = Vec::new();
            self.nodes(ctx, old_buckets, old_n, |_, [k, _, vptr]| {
                let nh = hash(k, new_n) as usize;
                let copy = block.add(bi * self.node_bytes());
                bi += 1;
                copies.push((copy, k, heads[nh], vptr));
                heads[nh] = copy.raw();
            });
            for (copy, k, next, vptr) in copies {
                ctx.recovery_write(fld(copy, 0), k);
                ctx.recovery_write(fld(copy, 1), next);
                ctx.recovery_write(fld(copy, 2), vptr);
            }
            // The bucket-array entries were written eagerly (log-free,
            // Pattern 1) and are durable — and inserts committed after
            // the resize may have prepended to them — so they must NOT
            // be rewritten to the resize-time heads.
            let _ = (heads, new_arr);
            // The old generation is no longer needed: everything it
            // backs is now durably in the image, and the caller's GC
            // reclaims it.
            ctx.recovery_write(fld(root, 3), 0);
            ctx.recovery_write(fld(root, 4), 0);
            ctx.recovery_write(fld(root, 7), 0);
        }
        // The size counter is lazily persistent: recount the current
        // generation (the old one, if any, is retired above).
        let [buckets, n] = ctx.peek_words(root);
        let mut count = 0u64;
        self.nodes(ctx, PmAddr::new(buckets), n, |_, _| count += 1);
        ctx.recovery_write(fld(root, 2), count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VS: usize = 32;
    use crate::inspector::inspect;
    use crate::runner::DurableIndex;
    use crate::ycsb::{value_for, ycsb_load};
    use slpmt_core::Scheme;
    use std::collections::BTreeSet;

    fn fresh(source: AnnotationSource, value_size: usize) -> (PmContext, Hashtable) {
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let ht = Hashtable::new(&mut ctx, value_size, source);
        (ctx, ht)
    }

    /// A recovered table of 40 keys whose caches are empty, and the
    /// nodes of its longest chain in chain order.
    fn recovered_longest_chain() -> (PmContext, Hashtable, Vec<u64>) {
        let (mut ctx, mut ht) = fresh(AnnotationSource::Manual, VS);
        for op in ycsb_load(40, 32, 7) {
            ht.insert(&mut ctx, op.key, &op.value);
        }
        ctx.crash_and_recover();
        ht.recover(&mut ctx);
        ht.check_invariants(&ctx).unwrap();
        let [buckets, n] = ctx.peek_words(ht.root);
        let mut longest = Vec::new();
        for head in Heads::new(&ctx, PmAddr::new(buckets), n) {
            let mut chain = Vec::new();
            let mut cur = head;
            while cur != 0 {
                chain.push(cur);
                cur = ctx.peek(fld(PmAddr::new(cur), 1));
            }
            if chain.len() > longest.len() {
                longest = chain;
            }
        }
        (ctx, ht, longest)
    }

    #[test]
    fn node_linked_to_itself_appears_twice() {
        let (mut ctx, ht, chain) = recovered_longest_chain();
        let node = chain[0];
        ctx.recovery_write(fld(PmAddr::new(node), 1), node);
        let err = ht.check_invariants(&ctx).unwrap_err();
        assert_eq!(
            err,
            format!("node {node:#x} appears twice (cycle or cross-link)")
        );
    }

    #[test]
    fn chain_tail_linked_to_its_head_appears_twice() {
        let (mut ctx, ht, chain) = recovered_longest_chain();
        assert!(chain.len() >= 3, "a chain of {} nodes", chain.len());
        let tail = *chain.last().unwrap();
        ctx.recovery_write(fld(PmAddr::new(tail), 1), chain[0]);
        let err = ht.check_invariants(&ctx).unwrap_err();
        assert!(
            err.ends_with("appears twice (cycle or cross-link)"),
            "{err}"
        );
        assert!(chain
            .iter()
            .any(|n| err.starts_with(&format!("node {n:#x} "))));
    }

    #[test]
    fn insert_and_lookup() {
        let (mut ctx, mut ht) = fresh(AnnotationSource::Manual, VS);
        for op in ycsb_load(50, 32, 1) {
            ht.insert(&mut ctx, op.key, &op.value);
        }
        assert_eq!(ht.len(&ctx), 50);
        for op in ycsb_load(50, 32, 1) {
            assert_eq!(ht.value_of(&ctx, op.key).unwrap(), op.value);
        }
        assert!(!ht.contains(&ctx, 0xDEAD_BEEF));
        ht.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn resize_happens_and_preserves_content() {
        let (mut ctx, mut ht) = fresh(AnnotationSource::Manual, VS);
        // 8 initial buckets × load factor 3 = resize beyond 24 keys.
        for op in ycsb_load(100, 32, 2) {
            ht.insert(&mut ctx, op.key, &op.value);
        }
        let n = ctx.peek(fld(ht.root, 1));
        assert!(n > INITIAL_BUCKETS, "table resized (n = {n})");
        assert_eq!(ht.len(&ctx), 100);
        ht.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn selective_logging_reduces_records_vs_plain() {
        let count = |source| {
            let (mut ctx, mut ht) = fresh(source, VS);
            for op in ycsb_load(30, 32, 3) {
                ht.insert(&mut ctx, op.key, &op.value);
            }
            ctx.machine().stats().log_records_created
        };
        assert!(count(AnnotationSource::Manual) < count(AnnotationSource::None));
    }

    #[test]
    fn crash_recovery_mid_stream() {
        let (mut ctx, mut ht) = fresh(AnnotationSource::Manual, VS);
        let ops = ycsb_load(60, 32, 4);
        for op in &ops[..40] {
            ht.insert(&mut ctx, op.key, &op.value);
        }
        ctx.crash_and_recover();
        ht.recover(&mut ctx);
        let reachable = ht.reachable(&ctx);
        ctx.gc(&reachable);
        ht.check_invariants(&ctx).unwrap();
        assert_eq!(ht.len(&ctx), 40);
        for op in &ops[..40] {
            assert_eq!(
                ht.value_of(&ctx, op.key).unwrap(),
                value_for(op.key, 32),
                "committed key {} lost",
                op.key
            );
        }
        // The table remains usable after recovery.
        for op in &ops[40..] {
            ht.insert(&mut ctx, op.key, &op.value);
        }
        assert_eq!(ht.len(&ctx), 60);
        ht.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn crash_right_after_resize_commit_recovers_lazy_copies() {
        let (mut ctx, mut ht) = fresh(AnnotationSource::Manual, VS);
        let ops = ycsb_load(25, 32, 5);
        // 25 inserts: the 25th (> 3 × 8) triggers the first resize.
        for op in &ops {
            ht.insert(&mut ctx, op.key, &op.value);
        }
        assert!(ctx.peek(fld(ht.root, 3)) != 0, "old generation recorded");
        // Crash with the lazy copies still volatile.
        ctx.crash_and_recover();
        ht.recover(&mut ctx);
        ctx.gc(&ht.reachable(&ctx));
        ht.check_invariants(&ctx).unwrap();
        assert_eq!(ht.len(&ctx), 25);
        for op in &ops {
            assert_eq!(ht.value_of(&ctx, op.key).unwrap(), value_for(op.key, 32));
        }
    }

    #[test]
    fn retired_generations_are_freed() {
        let (mut ctx, mut ht) = fresh(AnnotationSource::Manual, VS);
        let assert_clean = |ctx: &PmContext, ht: &Hashtable, when: &str| {
            let report = inspect(ctx, &ht.reachable(ctx));
            assert!(report.is_clean(), "{when}: {report}");
        };
        // Resizes at 25, 49 and 97 keys: each one retires the
        // generation the one before recorded.
        let ops = ycsb_load(220, 32, 7);
        for op in &ops[..100] {
            ht.insert(&mut ctx, op.key, &op.value);
        }
        assert_ne!(ctx.peek(fld(ht.root, 7)), 0, "window open over a block");
        assert_clean(&ctx, &ht, "three resizes");
        // The first update closes the window and frees the generation.
        assert!(ht.update(&mut ctx, ops[3].key, &value_for(1, 32)));
        assert_eq!(ctx.peek(fld(ht.root, 3)), 0, "window closed");
        assert_clean(&ctx, &ht, "update");
        for op in &ops[10..20] {
            assert!(ht.remove(&mut ctx, op.key));
        }
        assert_clean(&ctx, &ht, "removals");
        // A resize over a closed window (at 193 keys), then a removal
        // that closes the new window.
        for op in &ops[100..] {
            ht.insert(&mut ctx, op.key, &op.value);
        }
        assert_eq!(ctx.peek(fld(ht.root, 1)), 128, "fourth resize");
        assert_clean(&ctx, &ht, "resize after close");
        assert!(ht.remove(&mut ctx, ops[150].key));
        assert_clean(&ctx, &ht, "second close");
        ht.check_invariants(&ctx).unwrap();
        assert_eq!(ht.len(&ctx), 209);
    }

    #[test]
    fn compiler_annotations_preserve_correctness() {
        let (mut ctx, mut ht) = fresh(AnnotationSource::Compiler, VS);
        let ops = ycsb_load(40, 32, 6);
        for op in &ops {
            ht.insert(&mut ctx, op.key, &op.value);
        }
        ht.check_invariants(&ctx).unwrap();
        ctx.crash_and_recover();
        ht.recover(&mut ctx);
        ctx.gc(&ht.reachable(&ctx));
        ht.check_invariants(&ctx).unwrap();
        assert_eq!(ht.len(&ctx), 40);
    }

    #[test]
    fn compiler_finds_log_free_misses_lazy_movement() {
        let (table, _) = slpmt_annotate::analyze(&Hashtable::ir());
        assert!(table.get(sites::NODE_KEY).is_selective());
        assert!(table.get(sites::NODE_VALUE).is_selective());
        assert!(table.get(sites::RS_COPY_KEY).is_selective());
        // The opaque load-factor bookkeeping hides the counter.
        assert_eq!(table.get(sites::SIZE), Annotation::Plain);
        // The linking store must stay plain.
        assert_eq!(table.get(sites::BUCKET_HEAD), Annotation::Plain);
        let report = table.compare_to_manual(&Hashtable::manual_table());
        // The compiler analyses the insert transaction: it finds every
        // insert-path annotation in some form but not the removal-path
        // poison site, and the movement copies only as eager log-free.
        assert_eq!(report.found, report.total_manual - 1);
        assert!(report.exact < report.found);
    }

    #[test]
    fn ir_is_valid() {
        assert!(Hashtable::ir().validate().is_ok());
    }

    /// The IR describes the transaction that runs: the root words its
    /// stores name are the root words an insert that resizes changes.
    /// The second resize is the one observed, since the first has no
    /// earlier block to retire into word 7.
    #[test]
    fn ir_root_stores_are_the_words_a_resize_changes() {
        use slpmt_annotate::Inst;
        let ir = Hashtable::ir();
        let root = ir
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::Param {
                    dst,
                    kind: ParamKind::PersistentPtr,
                } => Some(*dst),
                _ => None,
            })
            .expect("root parameter");
        let ir_words: BTreeSet<u64> = ir
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Store { base, field, .. } if *base == root => Some(u64::from(*field)),
                _ => None,
            })
            .collect();
        let (mut ctx, mut ht) = fresh(AnnotationSource::Manual, VS);
        let root_addr = ht.root;
        let words = |ctx: &PmContext| {
            (0..9)
                .map(|w| ctx.peek(fld(root_addr, w)))
                .collect::<Vec<_>>()
        };
        let mut resizes = 0;
        for op in ycsb_load(200, VS, 3) {
            let before = words(&ctx);
            ht.insert(&mut ctx, op.key, &op.value);
            let after = words(&ctx);
            if after[1] == before[1] {
                continue;
            }
            resizes += 1;
            if resizes == 2 {
                let changed: BTreeSet<u64> = (0..9)
                    .filter(|&w| before[w as usize] != after[w as usize])
                    .collect();
                assert_eq!(ir_words, changed);
                return;
            }
        }
        panic!("200 inserts resize the table twice");
    }
}
