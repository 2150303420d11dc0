//! Radix-tree backend for the PMDK-style KV store.
//!
//! A path-compressed radix tree over 64-bit keys split into sixteen
//! 4-bit nibbles. Splitting a compressed edge *copies* the split node
//! into a fresh allocation instead of modifying it — the key-movement
//! pattern §VI-E describes ("kv-rtree may create more than one node in
//! one insertion. It thus gives more opportunities for selective
//! logging. The data structure, however, devotes a substantial
//! computation time") — so an insert can allocate a branch node, a
//! copy of the split node, a leaf and a value blob, all written
//! log-free, with a single logged link store.
//!
//! ### Persistent layout
//!
//! ```text
//! root:  [0]=index root  [1]=size
//! node:  [0]=prefix_len (nibbles) [1]=prefix (packed, MSB-first)
//!        [2]=value blob (when a key terminates here) [3..19]=children
//! ```

use crate::ctx::{AnnotationSource, PmContext};
use crate::runner::{DurableIndex, Load, Reader, ValueAt, Visit};
use slpmt_annotate::{Annotation, AnnotationTable, Operand, ParamKind, TxnIr, TxnIrBuilder};
use slpmt_pmem::PmAddr;

/// Store sites of the insert transaction.
pub mod sites {
    use slpmt_annotate::SiteId;
    /// Fresh node initialisation (leaf or branch).
    pub const NEW_NODE: SiteId = SiteId(0);
    /// Node copy during an edge split (key movement).
    pub const SPLIT_COPY: SiteId = SiteId(1);
    /// Value blob payload.
    pub const VALUE: SiteId = SiteId(2);
    /// Child link in an existing node.
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

/// Nibbles per key (64 bits / 4).
pub const KEY_NIBBLES: u64 = 16;
const NODE_WORDS: u64 = 19;
const NIBBLE_COST: u64 = 110;

fn fld(base: PmAddr, i: u64) -> PmAddr {
    base.add(i * 8)
}

fn child_at(n: PmAddr, nib: u64) -> PmAddr {
    fld(n, 3 + nib)
}

fn nibble(key: u64, i: u64) -> u64 {
    (key >> ((KEY_NIBBLES - 1 - i) * 4)) & 0xF
}

/// Packs `nibs` (MSB-first) into a prefix word.
fn pack(nibs: &[u64]) -> u64 {
    let mut p = 0u64;
    for (i, &n) in nibs.iter().enumerate() {
        p |= n << ((KEY_NIBBLES as usize - 1 - i) * 4);
    }
    p
}

/// Nibble `i` of a packed prefix.
fn prefix_nibble(prefix: u64, i: u64) -> u64 {
    (prefix >> ((KEY_NIBBLES - 1 - i) * 4)) & 0xF
}

/// The radix-tree KV backend.
#[derive(Debug, Clone)]
pub struct RtreeKv {
    root: PmAddr,
    value_bytes: u64,
}

impl RtreeKv {
    /// Hand-written annotations: every fresh-node store (including the
    /// split copies) is log-free; the size counter is lazy.
    pub fn manual_table() -> AnnotationTable {
        use sites::*;
        [
            (NEW_NODE, Annotation::LogFree),
            (SPLIT_COPY, Annotation::LogFree),
            (VALUE, Annotation::LogFree),
            (RM_POISON, Annotation::LazyLogFree),
        ]
        .into_iter()
        .collect()
    }

    /// IR for the compiler pass.
    pub fn ir() -> TxnIr {
        use sites::*;
        let mut b = TxnIrBuilder::new("kv-rtree-insert");
        let root = b.param(ParamKind::PersistentPtr);
        let key = b.param(ParamKind::Key);
        let val = b.param(ParamKind::Value);
        let blob = b.alloc();
        b.store_at(VALUE, blob, 0, Operand::Value(val));
        let leaf = b.alloc();
        b.store_at(NEW_NODE, leaf, 0, Operand::Value(key));
        // Edge split: copy the old node into a fresh allocation.
        let parent = b.load(root, 0);
        let old = b.load(parent, 3);
        let old_prefix = b.load(old, 1);
        let copy = b.alloc();
        b.store_at(SPLIT_COPY, copy, 1, Operand::Value(old_prefix));
        let branch = b.alloc();
        b.store_at(NEW_NODE, branch, 3, Operand::Value(copy));
        b.store_at(LINK, parent, 4, Operand::Value(branch));
        let size = b.load(root, 1);
        let size2 = b.compute_opaque(vec![Operand::Value(size)]);
        b.store_at(SIZE, root, 1, Operand::Value(size2));
        b.store_at(ROOT_PTR, root, 0, Operand::Value(branch));
        b.build()
    }

    /// Builds an empty radix KV store (untimed setup).
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
        RtreeKv {
            root,
            value_bytes: value_size as u64,
        }
    }

    /// Allocates a node with the given prefix (and zeroed children),
    /// written through `site`.
    fn new_node(
        &self,
        ctx: &mut PmContext,
        prefix: &[u64],
        site: slpmt_annotate::SiteId,
    ) -> PmAddr {
        let n = ctx.alloc(NODE_WORDS * 8);
        ctx.store(fld(n, 0), prefix.len() as u64, site);
        ctx.store(fld(n, 1), pack(prefix), site);
        ctx.store(fld(n, 2), 0, site);
        for nib in 0..16 {
            ctx.store(child_at(n, nib), 0, site);
        }
        n
    }

    fn remaining_nibbles(key: u64, from: u64) -> Vec<u64> {
        (from..KEY_NIBBLES).map(|i| nibble(key, i)).collect()
    }
}

impl DurableIndex for RtreeKv {
    fn name(&self) -> &'static str {
        "kv-rtree"
    }

    fn scan_range(&mut self, ctx: &mut PmContext, lo: u64, hi: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        // DFS in nibble order; a node whose consumed-prefix key window
        // is disjoint from [lo, hi] is pruned.
        let mut out = Vec::new();
        let r = ctx.load(fld(self.root, 0));
        if r == 0 {
            return Some(out);
        }
        // (node, partial key value, nibbles consumed)
        let mut stack: Vec<(u64, u64, u64)> = vec![(r, 0, 0)];
        while let Some((n, partial, consumed)) = stack.pop() {
            let a = PmAddr::new(n);
            let plen = ctx.load(fld(a, 0));
            let prefix = ctx.load(fld(a, 1));
            let mut value = partial;
            for i in 0..plen {
                ctx.compute(NIBBLE_COST);
                value = (value << 4) | prefix_nibble(prefix, i);
            }
            let depth = consumed + plen;
            let rem = (KEY_NIBBLES - depth) * 4;
            let window_lo = if rem == 64 { 0 } else { value << rem };
            let window_hi = if rem == 64 {
                u64::MAX
            } else {
                window_lo | ((1u64 << rem) - 1)
            };
            if window_hi < lo || window_lo > hi {
                continue;
            }
            if depth == KEY_NIBBLES {
                let blob = ctx.load(fld(a, 2));
                if blob != 0 {
                    let mut v = vec![0u8; self.value_bytes as usize];
                    ctx.load_bytes(PmAddr::new(blob), &mut v);
                    out.push((value, v));
                }
                continue;
            }
            for nib in (0..16u64).rev() {
                let c = ctx.load(child_at(a, nib));
                if c != 0 {
                    stack.push((c, (value << 4) | nib, depth + 1));
                }
            }
        }
        Some(out)
    }

    fn insert(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) {
        use sites::*;
        assert_eq!(value.len() as u64, self.value_bytes);
        ctx.tx_begin();
        let blob = ctx.alloc(self.value_bytes);
        ctx.store_bytes(blob, value, VALUE);

        let r = ctx.load(fld(self.root, 0));
        if r == 0 {
            let leaf = self.new_node(ctx, &Self::remaining_nibbles(key, 0), NEW_NODE);
            ctx.store(fld(leaf, 2), blob.raw(), NEW_NODE);
            ctx.store(fld(self.root, 0), leaf.raw(), ROOT_PTR);
            let size = ctx.load(fld(self.root, 1)) + 1;
            ctx.store(fld(self.root, 1), size, SIZE);
            ctx.tx_commit();
            return;
        }

        // Descend, consuming nibbles.
        let mut consumed = 0u64;
        let mut link: Option<(PmAddr, u64)> = None; // parent node + nibble
        let mut cur = PmAddr::new(r);
        loop {
            let plen = ctx.load(fld(cur, 0));
            let prefix = ctx.load(fld(cur, 1));
            // Compare the compressed prefix nibble by nibble.
            let mut matched = 0u64;
            while matched < plen {
                ctx.compute(NIBBLE_COST);
                if nibble(key, consumed + matched) != prefix_nibble(prefix, matched) {
                    break;
                }
                matched += 1;
            }
            if matched < plen {
                // Edge split: branch at `matched`. Copy the old node
                // with a shortened prefix (key movement into a fresh
                // allocation — the original is never modified).
                ctx.compute(NIBBLE_COST * plen); // copy bookkeeping
                let old_tail: Vec<u64> = (matched + 1..plen)
                    .map(|i| prefix_nibble(prefix, i))
                    .collect();
                let copy = self.new_node(ctx, &old_tail, SPLIT_COPY);
                // Copy value pointer and children of the split node.
                let v = ctx.load(fld(cur, 2));
                ctx.store(fld(copy, 2), v, SPLIT_COPY);
                for nib in 0..16 {
                    let c = ctx.load(child_at(cur, nib));
                    if c != 0 {
                        ctx.store(child_at(copy, nib), c, SPLIT_COPY);
                    }
                }
                // Fresh branch holding the common prefix.
                let common: Vec<u64> = (0..matched).map(|i| prefix_nibble(prefix, i)).collect();
                let branch = self.new_node(ctx, &common, NEW_NODE);
                ctx.store(
                    child_at(branch, prefix_nibble(prefix, matched)),
                    copy.raw(),
                    NEW_NODE,
                );
                // Fresh leaf for the inserted key.
                let key_nib = nibble(key, consumed + matched);
                let leaf = self.new_node(
                    ctx,
                    &Self::remaining_nibbles(key, consumed + matched + 1),
                    NEW_NODE,
                );
                ctx.store(fld(leaf, 2), blob.raw(), NEW_NODE);
                ctx.store(child_at(branch, key_nib), leaf.raw(), NEW_NODE);
                // The single logged store publishes the branch.
                match link {
                    Some((p, nib)) => ctx.store(child_at(p, nib), branch.raw(), LINK),
                    None => ctx.store(fld(self.root, 0), branch.raw(), ROOT_PTR),
                }
                // The split node is retired; recovery GC reclaims it if
                // the transaction is interrupted.
                ctx.free(cur);
                break;
            }
            consumed += plen;
            if consumed == KEY_NIBBLES {
                panic!("duplicate key {key:#x} unsupported");
            }
            let nib = nibble(key, consumed);
            let c = ctx.load(child_at(cur, nib));
            if c == 0 {
                // Extend: a fresh leaf under an existing node.
                let leaf =
                    self.new_node(ctx, &Self::remaining_nibbles(key, consumed + 1), NEW_NODE);
                ctx.store(fld(leaf, 2), blob.raw(), NEW_NODE);
                ctx.store(child_at(cur, nib), leaf.raw(), LINK);
                break;
            }
            link = Some((cur, nib));
            consumed += 1;
            cur = PmAddr::new(c);
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
        let mut link: Option<(PmAddr, u64)> = None;
        let mut consumed = 0u64;
        let mut cur = PmAddr::new(r);
        loop {
            let plen = ctx.load(fld(cur, 0));
            let prefix = ctx.load(fld(cur, 1));
            for i in 0..plen {
                ctx.compute(NIBBLE_COST);
                if nibble(key, consumed + i) != prefix_nibble(prefix, i) {
                    ctx.tx_commit();
                    return false;
                }
            }
            consumed += plen;
            if consumed == KEY_NIBBLES {
                break;
            }
            let nib = nibble(key, consumed);
            let c = ctx.load(child_at(cur, nib));
            if c == 0 {
                ctx.tx_commit();
                return false;
            }
            link = Some((cur, nib));
            consumed += 1;
            cur = PmAddr::new(c);
        }
        let blob = ctx.load(fld(cur, 2));
        if blob == 0 {
            ctx.tx_commit();
            return false;
        }
        // A terminal node consumed all sixteen nibbles, so it has no
        // children: unlink, poison and free it with its blob. Interior
        // pass-through nodes are left un-merged (path compression is
        // re-established by later splits).
        match link {
            Some((p, nib)) => ctx.store(child_at(p, nib), 0, LINK),
            None => ctx.store(fld(self.root, 0), 0, ROOT_PTR),
        }
        ctx.store(fld(cur, 2), 0, RM_POISON);
        ctx.free(cur);
        ctx.free(PmAddr::new(blob));
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
        let mut consumed = 0u64;
        let mut cur = PmAddr::new(root);
        loop {
            let plen = r.load(fld(cur, 0));
            let prefix = r.load(fld(cur, 1));
            for i in 0..plen {
                r.compute(NIBBLE_COST);
                if consumed + i >= KEY_NIBBLES
                    || nibble(key, consumed + i) != prefix_nibble(prefix, i)
                {
                    return None;
                }
            }
            consumed += plen;
            if consumed == KEY_NIBBLES {
                let vptr = fld(cur, 2);
                return ValueAt::blob(r, vptr, self.value_bytes, sites::VALUE, sites::UPD_VPTR);
            }
            let c = r.load(child_at(cur, nibble(key, consumed)));
            if c == 0 {
                return None;
            }
            consumed += 1;
            cur = PmAddr::new(c);
        }
    }

    fn walk(&self, ctx: &PmContext, f: &mut dyn FnMut(Visit)) {
        f(Visit::Block(self.root));
        self.for_each_node(ctx, |key, _, node, terminal| {
            f(Visit::Block(node));
            let blob = if terminal { ctx.peek(fld(node, 2)) } else { 0 };
            if blob != 0 {
                f(Visit::Block(PmAddr::new(blob)));
                f(Visit::Entry(key, PmAddr::new(blob)));
            }
        });
    }

    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String> {
        // Path depths must not exceed the key length, and every
        // terminal's key must be found by a lookup. The walk builds each
        // key from the prefixes and child slots that lookup follows, so
        // the lookup can only miss on a zero value blob.
        let mut err = None;
        let mut count = 0usize;
        self.for_each_node(ctx, |key, depth, node, terminal| {
            if err.is_some() {
                return;
            }
            if depth > KEY_NIBBLES {
                err = Some(format!("path longer than key: {depth} nibbles"));
                return;
            }
            if terminal {
                count += 1;
                if ctx.peek(fld(node, 2)) == 0 {
                    err = Some(format!("key {key:#x} not reachable by its own nibbles"));
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        let size = ctx.peek(fld(self.root, 1));
        if size as usize != count {
            return Err(format!("size {size} != terminal count {count}"));
        }
        Ok(())
    }

    fn recover(&mut self, ctx: &mut PmContext) {
        let count = self.len(ctx) as u64;
        ctx.recovery_write(fld(self.root, 1), count);
    }
}

impl RtreeKv {
    /// Depth-first walk; `f(key, depth, node, is_terminal)`, where
    /// `key` packs the `depth` nibbles on the path to `node`
    /// right-aligned, so a terminal's `key` is its full key.
    fn for_each_node(&self, ctx: &PmContext, mut f: impl FnMut(u64, u64, PmAddr, bool)) {
        let r = ctx.peek(fld(self.root, 0));
        if r == 0 {
            return;
        }
        let mut stack = vec![(r, 0u64, 0u64)];
        while let Some((n, mut key, mut depth)) = stack.pop() {
            let a = PmAddr::new(n);
            let plen = ctx.peek(fld(a, 0));
            let prefix = ctx.peek(fld(a, 1));
            for i in 0..plen {
                key = (key << 4) | prefix_nibble(prefix, i);
            }
            depth += plen;
            let terminal = depth == KEY_NIBBLES;
            f(key, depth, a, terminal);
            if !terminal {
                for nib in 0..16u64 {
                    let c = ctx.peek(child_at(a, nib));
                    if c != 0 {
                        stack.push((c, (key << 4) | nib, depth + 1));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::{value_for, ycsb_load};
    use slpmt_core::Scheme;

    fn fresh(source: AnnotationSource) -> (PmContext, RtreeKv) {
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let t = RtreeKv::new(&mut ctx, 32, source);
        (ctx, t)
    }

    #[test]
    fn nibble_packing_round_trips() {
        let key = 0x0123_4567_89AB_CDEF;
        let nibs: Vec<u64> = (0..16).map(|i| nibble(key, i)).collect();
        assert_eq!(nibs[0], 0x0);
        assert_eq!(nibs[15], 0xF);
        assert_eq!(pack(&nibs), key);
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
        assert!(!t.contains(&ctx, 0));
    }

    #[test]
    fn shared_prefixes_split_edges() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let v = value_for(0, 32);
        // Keys sharing long prefixes force edge splits.
        for k in [0x1111_0000u64, 0x1111_0001, 0x1111_1000, 0x2222_0000] {
            t.insert(&mut ctx, k, &v);
        }
        t.check_invariants(&ctx).unwrap();
        for k in [0x1111_0000u64, 0x1111_0001, 0x1111_1000, 0x2222_0000] {
            assert!(t.contains(&ctx, k));
        }
    }

    #[test]
    fn split_frees_the_original_node() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let v = value_for(0, 32);
        t.insert(&mut ctx, 0x1111_0000, &v);
        let first = PmAddr::new(ctx.peek(fld(t.root, 0)));
        t.insert(&mut ctx, 0x1111_0001, &v); // splits the leaf's edge
        assert!(!ctx.heap().is_live(first), "split node retired");
        t.check_invariants(&ctx).unwrap();
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
    }

    #[test]
    fn terminal_without_a_blob_is_unreachable() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        for op in ycsb_load(40, 32, 5) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        ctx.crash_and_recover();
        t.recover(&mut ctx);
        t.check_invariants(&ctx).unwrap();
        let mut victim = None;
        t.for_each_node(&ctx, |_, _, node, terminal| {
            if terminal {
                victim.get_or_insert(node);
            }
        });
        ctx.recovery_write(fld(victim.expect("a terminal"), 2), 0);
        let err = t.check_invariants(&ctx).unwrap_err();
        assert!(err.ends_with("not reachable by its own nibbles"), "{err}");
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
    fn ir_is_valid() {
        assert!(RtreeKv::ir().validate().is_ok());
    }
}
