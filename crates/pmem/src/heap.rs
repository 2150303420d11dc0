//! Persistent-heap allocator.
//!
//! Durable data structures allocate their nodes from a [`PmHeap`]
//! managing a range of the persistent address space. Matching the
//! paper's recovery story (§IV-B, Pattern 1), the allocator metadata
//! itself is *volatile*: after a crash the heap is reconstructed by a
//! mark phase that walks the recovered structure and a
//! [`rebuild`](PmHeap::rebuild) call — anything not reachable (nodes
//! allocated by an interrupted transaction whose linking store was
//! rolled back) is thereby garbage-collected, exactly the "persistent
//! inspector / GC reclaims the leaked variable x" behaviour.
//!
//! Allocation policy is first-fit over an address-ordered free list
//! with coalescing on free, which keeps placement deterministic — a
//! property the simulator's reproducible traces rely on.

use crate::addr::{PmAddr, WORD_BYTES};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// First-fit allocator over a persistent address range.
///
/// ```
/// use slpmt_pmem::{PmHeap, PmAddr};
/// let mut heap = PmHeap::new(PmAddr::new(4096), 4096);
/// let a = heap.alloc(24).unwrap();
/// let b = heap.alloc(100).unwrap();
/// assert_ne!(a, b);
/// heap.free(a);
/// // First-fit reuses the earliest hole that fits.
/// assert_eq!(heap.alloc(24).unwrap(), a);
/// ```
#[derive(Debug, Clone)]
pub struct PmHeap {
    base: PmAddr,
    len: u64,
    /// Free extents keyed by start address → length: exactly the
    /// maximal gaps between live allocations (coalesced, disjoint).
    free: BTreeMap<u64, u64>,
    /// Live allocations keyed by start address → length.
    live: BTreeMap<u64, u64>,
}

fn align_up(n: u64) -> u64 {
    let a = WORD_BYTES as u64;
    n.div_ceil(a) * a
}

impl PmHeap {
    /// Creates a heap managing `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned or `len` is zero.
    pub fn new(base: PmAddr, len: u64) -> Self {
        assert!(base.is_word_aligned(), "heap base must be word-aligned");
        assert!(len > 0, "heap must be non-empty");
        let mut free = BTreeMap::new();
        free.insert(base.raw(), len);
        PmHeap {
            base,
            len,
            free,
            live: BTreeMap::new(),
        }
    }

    /// Base address of the managed range.
    pub fn base(&self) -> PmAddr {
        self.base
    }

    /// Length in bytes of the managed range.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no allocation is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.live.values().sum()
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Allocates `size` bytes (rounded up to whole words), first-fit.
    ///
    /// Returns `None` when no hole fits.
    pub fn alloc(&mut self, size: u64) -> Option<PmAddr> {
        let size = align_up(size.max(1));
        let (&start, &hole) = self.free.iter().find(|(_, &l)| l >= size)?;
        self.free.remove(&start);
        if hole > size {
            self.free.insert(start + size, hole - size);
        }
        self.live.insert(start, size);
        Some(PmAddr::new(start))
    }

    /// Frees the allocation starting at `addr`, coalescing neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not the start of a live allocation (double
    /// free or wild pointer).
    pub fn free(&mut self, addr: PmAddr) {
        let size = self
            .live
            .remove(&addr.raw())
            .unwrap_or_else(|| panic!("free of non-live allocation at {addr}"));
        self.insert_free(addr.raw(), size);
    }

    fn insert_free(&mut self, mut start: u64, mut size: u64) {
        // Coalesce with predecessor.
        if let Some((&p_start, &p_len)) = self.free.range(..start).next_back() {
            if p_start + p_len == start {
                self.free.remove(&p_start);
                start = p_start;
                size += p_len;
            }
        }
        // Coalesce with successor.
        if let Some(&s_len) = self.free.get(&(start + size)) {
            self.free.remove(&(start + size));
            size += s_len;
        }
        self.free.insert(start, size);
    }

    /// Size of the live allocation starting at `addr`, if any.
    pub fn allocation_size(&self, addr: PmAddr) -> Option<u64> {
        self.live.get(&addr.raw()).copied()
    }

    /// `true` if `addr` is the start of a live allocation.
    pub fn is_live(&self, addr: PmAddr) -> bool {
        self.live.contains_key(&addr.raw())
    }

    /// Iterates live allocations as `(start, size)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (PmAddr, u64)> + '_ {
        self.live.iter().map(|(&a, &s)| (PmAddr::new(a), s))
    }

    /// Post-crash garbage collection: rebuilds the heap so that exactly
    /// the allocations rooted in `reachable` survive. Returns the number
    /// of *leaked* allocations reclaimed (allocations that were live at
    /// crash time but are no longer reachable — e.g. nodes created by an
    /// interrupted transaction).
    ///
    /// Addresses in `reachable` that were not live are ignored: the
    /// caller may conservatively pass every pointer it finds, in any
    /// order (ascending input is merged without a sort).
    pub fn rebuild(&mut self, reachable: &[PmAddr]) -> usize {
        // Free extents are exactly the gaps between live allocations
        // (`alloc` splits a hole, `free` coalesces), so one ordered pass
        // drops the unreached allocations and collects the survivors'
        // gaps as the new free list: no per-leak coalescing.
        let mut marks = Marks::new(reachable);
        let mut gaps = Vec::new();
        let mut end = self.base.raw();
        let before = self.live.len();
        self.live.retain(|&start, &mut size| {
            let reached = marks.reached(start);
            if reached {
                if start > end {
                    gaps.push((end, start - end));
                }
                end = start + size;
            }
            reached
        });
        let reclaimed = before - self.live.len();
        if reclaimed > 0 {
            let limit = self.base.raw() + self.len;
            if limit > end {
                gaps.push((end, limit - end));
            }
            self.free = gaps.into_iter().collect();
        }
        reclaimed
    }

    /// Classifies `reachable` (any order, duplicates allowed) against
    /// the live allocations in one address-ordered pass: sorts the
    /// addresses unless they are already ascending, then merge-joins
    /// them with the live map. Calls
    /// `visit(start, size, reached)` for every live allocation in
    /// address order and returns the number of `reachable` entries that
    /// are not the start of a live allocation (interior, freed or
    /// out-of-heap pointers), duplicates included.
    pub fn classify(
        &self,
        reachable: &[PmAddr],
        mut visit: impl FnMut(PmAddr, u64, bool),
    ) -> usize {
        let mut marks = Marks::new(reachable);
        for (&start, &size) in &self.live {
            visit(PmAddr::new(start), size, marks.reached(start));
        }
        marks.not_live()
    }
}

/// A mark set in ascending order, merge-joined against the live
/// allocations in address order. Ascending input (what a structure's
/// root walk hands the inspector and the GC) is borrowed as is; only
/// unsorted input is copied and sorted.
struct Marks<'a> {
    sorted: Cow<'a, [PmAddr]>,
    /// Marks before `next` have been passed over.
    next: usize,
    not_live: usize,
}

impl<'a> Marks<'a> {
    fn new(reachable: &'a [PmAddr]) -> Self {
        let sorted = if reachable.is_sorted() {
            Cow::Borrowed(reachable)
        } else {
            let mut owned = reachable.to_vec();
            owned.sort_unstable();
            Cow::Owned(owned)
        };
        Marks {
            sorted,
            next: 0,
            not_live: 0,
        }
    }

    /// Whether the live allocation at `start` — later than every start
    /// asked about before — is marked. Marks passed over on the way are
    /// not live starts.
    fn reached(&mut self, start: u64) -> bool {
        let rest = &self.sorted[self.next..];
        let below = rest.iter().take_while(|m| m.raw() < start).count();
        let at = rest[below..]
            .iter()
            .take_while(|m| m.raw() == start)
            .count();
        self.next += below + at;
        self.not_live += below;
        at > 0
    }

    /// Marks that are not live starts, duplicates included.
    fn not_live(self) -> usize {
        self.not_live + self.sorted.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> PmHeap {
        PmHeap::new(PmAddr::new(0x1000), 0x1000)
    }

    #[test]
    fn alloc_is_word_aligned_and_disjoint() {
        let mut h = heap();
        let a = h.alloc(10).unwrap();
        let b = h.alloc(10).unwrap();
        assert!(a.is_word_aligned());
        assert!(b.is_word_aligned());
        assert!(b.raw() >= a.raw() + 16, "10 rounds up to 16");
        assert_eq!(h.live_count(), 2);
    }

    #[test]
    fn free_then_realloc_first_fit() {
        let mut h = heap();
        let a = h.alloc(64).unwrap();
        let _b = h.alloc(64).unwrap();
        h.free(a);
        let c = h.alloc(32).unwrap();
        assert_eq!(c, a, "first fit reuses the earliest hole");
    }

    #[test]
    fn coalescing_restores_full_extent() {
        let mut h = heap();
        let a = h.alloc(100).unwrap();
        let b = h.alloc(100).unwrap();
        let c = h.alloc(100).unwrap();
        h.free(b);
        h.free(a);
        h.free(c);
        // Everything coalesced back into one extent covering the heap.
        let big = h.alloc(0x1000).unwrap();
        assert_eq!(big, PmAddr::new(0x1000));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut h = PmHeap::new(PmAddr::new(0), 64);
        assert!(h.alloc(64).is_some());
        assert!(h.alloc(8).is_none());
    }

    #[test]
    #[should_panic(expected = "non-live")]
    fn double_free_panics() {
        let mut h = heap();
        let a = h.alloc(8).unwrap();
        h.free(a);
        h.free(a);
    }

    #[test]
    fn rebuild_reclaims_leaks() {
        let mut h = heap();
        let keep1 = h.alloc(32).unwrap();
        let leak = h.alloc(32).unwrap();
        let keep2 = h.alloc(32).unwrap();
        let reclaimed = h.rebuild(&[keep1, keep2, PmAddr::new(0xdead000)]);
        assert_eq!(reclaimed, 1);
        assert!(h.is_live(keep1));
        assert!(!h.is_live(leak));
        assert!(h.is_live(keep2));
        // The hole is reusable.
        assert_eq!(h.alloc(32).unwrap(), leak);
    }

    #[test]
    fn coalescing_at_range_boundaries() {
        // Exactly fill the heap with three allocations so the first
        // and last touch the range boundaries, then free in an order
        // that exercises predecessor-only, successor-only and both-
        // sided coalescing against the boundary extents.
        let mut h = PmHeap::new(PmAddr::new(0x2000), 0x300);
        let lo = h.alloc(0x100).unwrap();
        let mid = h.alloc(0x100).unwrap();
        let hi = h.alloc(0x100).unwrap();
        assert_eq!(lo.raw(), 0x2000, "first allocation starts at base");
        assert_eq!(hi.raw() + 0x100, 0x2300, "last allocation ends at top");
        assert!(h.alloc(8).is_none(), "heap is exactly full");
        // Free the boundary blocks: two disjoint extents, nothing to
        // coalesce with beyond the range (no wraparound, no panic).
        h.free(lo);
        h.free(hi);
        assert!(h.alloc(0x101).is_none(), "holes must not merge across mid");
        // Freeing the middle merges all three into the original range.
        h.free(mid);
        assert_eq!(h.alloc(0x300).unwrap(), PmAddr::new(0x2000));
    }

    #[test]
    fn rebuild_with_empty_mark_set_reclaims_everything() {
        let mut h = heap();
        let a = h.alloc(40).unwrap();
        let b = h.alloc(40).unwrap();
        let reclaimed = h.rebuild(&[]);
        assert_eq!(reclaimed, 2);
        assert!(!h.is_live(a) && !h.is_live(b));
        assert!(h.is_empty());
        assert_eq!(h.live_bytes(), 0);
        // The reclaimed extents coalesced back into the whole range.
        assert_eq!(h.alloc(0x1000).unwrap(), h.base());
    }

    #[test]
    fn rebuild_with_empty_mark_set_on_empty_heap_is_noop() {
        let mut h = heap();
        assert_eq!(h.rebuild(&[]), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn exhaustion_returns_none_without_disturbing_state() {
        // A fragmented heap with enough total free bytes but no single
        // hole large enough must return None — not panic — and leave
        // both holes intact for later fitting requests.
        let mut h = PmHeap::new(PmAddr::new(0x1000), 0x100);
        let a = h.alloc(0x40).unwrap();
        let b = h.alloc(0x40).unwrap();
        let c = h.alloc(0x40).unwrap();
        let _d = h.alloc(0x40).unwrap();
        h.free(a);
        h.free(c);
        // 0x80 bytes free in two 0x40 holes: a 0x80 request has no fit.
        assert!(h.alloc(0x80).is_none());
        assert_eq!(h.live_bytes(), 0x80);
        assert_eq!(h.alloc(0x40).unwrap(), a, "first hole still usable");
        assert_eq!(h.alloc(0x40).unwrap(), c, "second hole still usable");
        assert!(h.alloc(1).is_none(), "now genuinely exhausted");
        assert_eq!(h.live_count(), 4);
        let _ = b;
    }

    #[test]
    fn accounting() {
        let mut h = heap();
        let a = h.alloc(24).unwrap();
        assert_eq!(h.allocation_size(a), Some(24));
        assert_eq!(h.live_bytes(), 24);
        h.free(a);
        assert!(h.is_empty());
        assert_eq!(h.live_bytes(), 0);
    }
}
