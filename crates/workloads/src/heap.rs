//! Array-based max-heap (Table II: "max heap using an array to store
//! all the nodes").
//!
//! The log-free opportunity here is the *append beyond the committed
//! count*: the slot at index `count` holds dead data until the logged
//! `count` update commits, so writing it needs no undo record —
//! rolling back `count` is the undo. Sift-up swaps touch live entries
//! and stay logged. Growing the array copies into a fresh allocation
//! (log-free) and frees the old one (the Pattern 1 `free` case; the
//! free is deferred to commit).
//!
//! ### Persistent layout
//!
//! ```text
//! root:  [0]=array [1]=capacity [2]=count
//! entry: 2 words: [0]=key [1]=value-blob pointer
//! blob:  value bytes
//! ```

use crate::ctx::{AnnotationSource, PmContext};
use crate::runner::{DurableIndex, Load, Reader, ValueAt, Visit};
use slpmt_annotate::{Annotation, AnnotationTable, Operand, ParamKind, TxnIr, TxnIrBuilder};
use slpmt_pmem::PmAddr;

/// Store sites of the insert transaction.
pub mod sites {
    use slpmt_annotate::SiteId;
    /// New entry's key, written at index `count` (dead slot).
    pub const SLOT_KEY: SiteId = SiteId(0);
    /// New entry's value pointer (dead slot).
    pub const SLOT_VPTR: SiteId = SiteId(1);
    /// Value blob payload (fresh allocation).
    pub const VALUE: SiteId = SiteId(2);
    /// The count commit point (always logged and eager).
    pub const COUNT: SiteId = SiteId(3);
    /// Sift-up swap: key of a live entry.
    pub const SWAP_KEY: SiteId = SiteId(4);
    /// Sift-up swap: value pointer of a live entry.
    pub const SWAP_VPTR: SiteId = SiteId(5);
    /// Growth copy into the fresh, larger array.
    pub const GROW_COPY: SiteId = SiteId(6);
    /// Root array pointer switch after growth.
    pub const GROW_ROOT_ARR: SiteId = SiteId(7);
    /// Root capacity update after growth.
    pub const GROW_CAP: SiteId = SiteId(8);
    /// Entry moved into the vacated slot on removal.
    pub const RM_MOVE: SiteId = SiteId(9);
    /// Value-pointer swap on update (copy-on-write blob replace).
    pub const UPD_VPTR: SiteId = SiteId(10);
}

const INITIAL_CAPACITY: u64 = 16;
const CMP_COST: u64 = 5;

fn fld(base: PmAddr, i: u64) -> PmAddr {
    base.add(i * 8)
}

fn entry(array: PmAddr, i: u64) -> PmAddr {
    array.add(i * 16)
}

/// The durable array max-heap.
#[derive(Debug, Clone)]
pub struct MaxHeap {
    root: PmAddr,
    value_bytes: u64,
}

impl MaxHeap {
    /// Hand-written annotations: appends beyond `count` and the fresh
    /// value blob are log-free; growth copies are log-free (fresh
    /// array).
    pub fn manual_table() -> AnnotationTable {
        use sites::*;
        [
            (SLOT_KEY, Annotation::LogFree),
            (SLOT_VPTR, Annotation::LogFree),
            (VALUE, Annotation::LogFree),
            (GROW_COPY, Annotation::LogFree),
        ]
        .into_iter()
        .collect()
    }

    /// IR for the compiler. The append-beyond-count slots require the
    /// semantic knowledge that `count` guards slot validity, which the
    /// compiler does not have: it sees stores into an existing array
    /// and leaves them plain (a Figure 13 miss). The value blob and
    /// the growth copy are ordinary Pattern 1 hits.
    pub fn ir() -> TxnIr {
        use sites::*;
        let mut b = TxnIrBuilder::new("heap-insert");
        let root = b.param(ParamKind::PersistentPtr);
        let key = b.param(ParamKind::Key);
        let val = b.param(ParamKind::Value);
        let arr = b.load(root, 0);
        let count = b.load(root, 2);
        let slot = b.compute(vec![Operand::Value(arr), Operand::Value(count)]);
        let blob = b.alloc();
        b.store_at(VALUE, blob, 0, Operand::Value(val));
        b.store_at(SLOT_KEY, slot, 0, Operand::Value(key));
        b.store_at(SLOT_VPTR, slot, 1, Operand::Value(blob));
        let count2 = b.compute(vec![Operand::Value(count), Operand::Const(1)]);
        b.store_at(COUNT, root, 2, Operand::Value(count2));
        // Sift-up swap of a live entry: a two-way *exchange*. The
        // parent cell is read and then overwritten by the other half
        // of the swap, so the moved values' pre-images are destroyed —
        // the location-stability rule keeps both halves eager.
        let pslot = b.compute(vec![Operand::Value(arr), Operand::Value(count)]);
        let pk = b.load(pslot, 0);
        let pv = b.load(pslot, 1);
        b.store_at(SWAP_KEY, slot, 2, Operand::Value(pk));
        b.store_at(SWAP_VPTR, slot, 3, Operand::Value(pv));
        b.store_at(SWAP_KEY, pslot, 0, Operand::Value(key));
        b.store_at(SWAP_VPTR, pslot, 1, Operand::Value(blob));
        // Growth: copy into a fresh array, retire the old one.
        let newarr = b.alloc();
        let ok = b.load(arr, 0);
        b.store_at(GROW_COPY, newarr, 0, Operand::Value(ok));
        b.store_at(GROW_ROOT_ARR, root, 0, Operand::Value(newarr));
        b.store_at(GROW_CAP, root, 1, Operand::Const(32));
        b.free(arr);
        b.build()
    }

    /// Builds an empty heap (untimed setup).
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
        let root = ctx.setup_alloc(3 * 8);
        let arr = ctx.setup_alloc(INITIAL_CAPACITY * 16);
        ctx.recovery_write(fld(root, 0), arr.raw());
        ctx.recovery_write(fld(root, 1), INITIAL_CAPACITY);
        MaxHeap {
            root,
            value_bytes: value_size as u64,
        }
    }

    fn grow(&self, ctx: &mut PmContext, arr: PmAddr, capacity: u64, count: u64) -> PmAddr {
        use sites::*;
        let new_cap = capacity * 2;
        let new_arr = ctx.alloc(new_cap * 16);
        for i in 0..count {
            let k = ctx.load(entry(arr, i));
            let v = ctx.load(entry(arr, i).add(8));
            ctx.store(entry(new_arr, i), k, GROW_COPY);
            ctx.store(entry(new_arr, i).add(8), v, GROW_COPY);
        }
        ctx.store(fld(self.root, 0), new_arr.raw(), GROW_ROOT_ARR);
        ctx.store(fld(self.root, 1), new_cap, GROW_CAP);
        ctx.free(arr);
        new_arr
    }
}

impl DurableIndex for MaxHeap {
    fn name(&self) -> &'static str {
        "heap"
    }

    fn insert(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) {
        use sites::*;
        assert_eq!(value.len() as u64, self.value_bytes);
        ctx.tx_begin();
        let mut arr = PmAddr::new(ctx.load(fld(self.root, 0)));
        let capacity = ctx.load(fld(self.root, 1));
        let count = ctx.load(fld(self.root, 2));
        if count == capacity {
            arr = self.grow(ctx, arr, capacity, count);
        }
        // Value blob + append into the dead slot at index `count`.
        let blob = ctx.alloc(self.value_bytes);
        ctx.store_bytes(blob, value, VALUE);
        ctx.store(entry(arr, count), key, SLOT_KEY);
        ctx.store(entry(arr, count).add(8), blob.raw(), SLOT_VPTR);
        ctx.store(fld(self.root, 2), count + 1, COUNT);
        // Sift up (swaps of live entries are logged).
        let mut i = count;
        let ikey = key;
        let iv = blob.raw();
        while i > 0 {
            let p = (i - 1) / 2;
            ctx.compute(CMP_COST);
            let pk = ctx.load(entry(arr, p));
            if pk >= ikey {
                break;
            }
            let pv = ctx.load(entry(arr, p).add(8));
            ctx.store(entry(arr, i), pk, SWAP_KEY);
            ctx.store(entry(arr, i).add(8), pv, SWAP_VPTR);
            ctx.store(entry(arr, p), ikey, SWAP_KEY);
            ctx.store(entry(arr, p).add(8), iv, SWAP_VPTR);
            // The inserted element now sits at p with unchanged fields.
            i = p;
        }
        ctx.tx_commit();
    }

    fn remove(&mut self, ctx: &mut PmContext, key: u64) -> bool {
        use sites::*;
        ctx.tx_begin();
        let arr = PmAddr::new(ctx.load(fld(self.root, 0)));
        let count = ctx.load(fld(self.root, 2));
        // Linear scan for the key (heaps do not index by key).
        let mut pos = None;
        for i in 0..count {
            ctx.compute(CMP_COST);
            if ctx.load(entry(arr, i)) == key {
                pos = Some(i);
                break;
            }
        }
        let Some(i) = pos else {
            ctx.tx_commit();
            return false;
        };
        let blob = ctx.load(entry(arr, i).add(8));
        ctx.free(PmAddr::new(blob));
        let last = count - 1;
        ctx.store(fld(self.root, 2), last, COUNT);
        if i != last {
            // Move the final entry into the vacated slot, then restore
            // heap order by sifting in whichever direction is needed.
            let mk = ctx.load(entry(arr, last));
            let mv = ctx.load(entry(arr, last).add(8));
            ctx.store(entry(arr, i), mk, RM_MOVE);
            ctx.store(entry(arr, i).add(8), mv, RM_MOVE);
            // Sift up.
            let mut j = i;
            while j > 0 {
                let p = (j - 1) / 2;
                ctx.compute(CMP_COST);
                let pk = ctx.load(entry(arr, p));
                let jk = ctx.load(entry(arr, j));
                if pk >= jk {
                    break;
                }
                let pv = ctx.load(entry(arr, p).add(8));
                let jv = ctx.load(entry(arr, j).add(8));
                ctx.store(entry(arr, j), pk, SWAP_KEY);
                ctx.store(entry(arr, j).add(8), pv, SWAP_VPTR);
                ctx.store(entry(arr, p), jk, SWAP_KEY);
                ctx.store(entry(arr, p).add(8), jv, SWAP_VPTR);
                j = p;
            }
            // Sift down.
            loop {
                let (l, r) = (2 * j + 1, 2 * j + 2);
                let mut largest = j;
                let mut lk = ctx.load(entry(arr, j));
                if l < last {
                    ctx.compute(CMP_COST);
                    let k = ctx.load(entry(arr, l));
                    if k > lk {
                        largest = l;
                        lk = k;
                    }
                }
                if r < last {
                    ctx.compute(CMP_COST);
                    let k = ctx.load(entry(arr, r));
                    if k > lk {
                        largest = r;
                    }
                }
                if largest == j {
                    break;
                }
                let jk = ctx.load(entry(arr, j));
                let jv = ctx.load(entry(arr, j).add(8));
                let gk = ctx.load(entry(arr, largest));
                let gv = ctx.load(entry(arr, largest).add(8));
                ctx.store(entry(arr, j), gk, SWAP_KEY);
                ctx.store(entry(arr, j).add(8), gv, SWAP_VPTR);
                ctx.store(entry(arr, largest), jk, SWAP_KEY);
                ctx.store(entry(arr, largest).add(8), jv, SWAP_VPTR);
                j = largest;
            }
        }
        ctx.tx_commit();
        true
    }

    fn locate(&self, r: &mut Reader<'_>, key: u64) -> Option<ValueAt> {
        let arr = PmAddr::new(r.load(fld(self.root, 0)));
        let count = r.load(fld(self.root, 2));
        for i in 0..count {
            r.compute(CMP_COST);
            if r.load(entry(arr, i)) == key {
                let vptr = entry(arr, i).add(8);
                return ValueAt::blob(r, vptr, self.value_bytes, sites::VALUE, sites::UPD_VPTR);
            }
        }
        None
    }

    fn walk(&self, ctx: &PmContext, f: &mut dyn FnMut(Visit)) {
        let [arr, _, count] = ctx.peek_words(self.root);
        f(Visit::Block(self.root));
        f(Visit::Block(PmAddr::new(arr)));
        for i in 0..count {
            let [key, vptr] = ctx.peek_words(entry(PmAddr::new(arr), i));
            f(Visit::Block(PmAddr::new(vptr)));
            f(Visit::Entry(key, PmAddr::new(vptr)));
        }
    }

    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String> {
        let arr = PmAddr::new(ctx.peek(fld(self.root, 0)));
        let capacity = ctx.peek(fld(self.root, 1));
        let count = ctx.peek(fld(self.root, 2));
        if count > capacity {
            return Err(format!("count {count} exceeds capacity {capacity}"));
        }
        for i in 1..count {
            let p = (i - 1) / 2;
            let pk = ctx.peek(entry(arr, p));
            let ck = ctx.peek(entry(arr, i));
            if pk < ck {
                return Err(format!(
                    "heap order violated: parent {pk} < child {ck} at {i}"
                ));
            }
        }
        Ok(())
    }

    fn recover(&mut self, _ctx: &mut PmContext) {
        // Nothing is lazily persistent: the logged count is the commit
        // point and undo replay already restored it.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::{value_for, ycsb_load};
    use slpmt_core::Scheme;

    fn fresh(source: AnnotationSource) -> (PmContext, MaxHeap) {
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let h = MaxHeap::new(&mut ctx, 32, source);
        (ctx, h)
    }

    #[test]
    fn insert_preserves_heap_order_and_content() {
        let (mut ctx, mut h) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(100, 32, 1);
        for op in &ops {
            h.insert(&mut ctx, op.key, &op.value);
        }
        h.check_invariants(&ctx).unwrap();
        assert_eq!(h.len(&ctx), 100);
        for op in &ops {
            assert_eq!(h.value_of(&ctx, op.key).unwrap(), op.value);
        }
        // Growth happened (initial capacity 16).
        assert!(ctx.peek(fld(h.root, 1)) > INITIAL_CAPACITY);
    }

    #[test]
    fn max_is_at_the_top() {
        let (mut ctx, mut h) = fresh(AnnotationSource::Manual);
        let v = value_for(0, 32);
        for k in [5u64, 99, 3, 42, 100, 7] {
            h.insert(&mut ctx, k, &v);
        }
        let arr = PmAddr::new(ctx.peek(fld(h.root, 0)));
        assert_eq!(ctx.peek(entry(arr, 0)), 100);
    }

    #[test]
    fn crash_mid_stream_recovers() {
        let (mut ctx, mut h) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(50, 32, 2);
        for op in &ops[..30] {
            h.insert(&mut ctx, op.key, &op.value);
        }
        ctx.crash_and_recover();
        h.recover(&mut ctx);
        ctx.gc(&h.reachable(&ctx));
        h.check_invariants(&ctx).unwrap();
        assert_eq!(h.len(&ctx), 30);
        for op in &ops[..30] {
            assert_eq!(h.value_of(&ctx, op.key).unwrap(), value_for(op.key, 32));
        }
        for op in &ops[30..] {
            h.insert(&mut ctx, op.key, &op.value);
        }
        assert_eq!(h.len(&ctx), 50);
        h.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn growth_frees_old_array() {
        let (mut ctx, mut h) = fresh(AnnotationSource::Manual);
        let first_arr = PmAddr::new(ctx.peek(fld(h.root, 0)));
        let v = value_for(0, 32);
        for k in 0..=INITIAL_CAPACITY {
            h.insert(&mut ctx, k + 1, &v);
        }
        assert!(!ctx.heap().is_live(first_arr), "old array freed at commit");
    }

    #[test]
    fn compiler_finds_blob_and_copy_misses_dead_slots() {
        let (table, _) = slpmt_annotate::analyze(&MaxHeap::ir());
        assert!(table.get(sites::VALUE).is_selective());
        assert!(table.get(sites::GROW_COPY).is_selective());
        assert_eq!(
            table.get(sites::SLOT_KEY),
            Annotation::Plain,
            "needs count semantics"
        );
        assert_eq!(table.get(sites::COUNT), Annotation::Plain);
    }

    #[test]
    fn selective_logging_reduces_records() {
        let count = |source| {
            let (mut ctx, mut h) = fresh(source);
            for op in ycsb_load(40, 32, 3) {
                h.insert(&mut ctx, op.key, &op.value);
            }
            ctx.machine().stats().log_records_created
        };
        assert!(count(AnnotationSource::Manual) < count(AnnotationSource::None));
    }

    #[test]
    fn ir_is_valid() {
        assert!(MaxHeap::ir().validate().is_ok());
    }
}
