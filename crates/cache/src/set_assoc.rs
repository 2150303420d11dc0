//! Generic set-associative cache container with LRU replacement.
//!
//! All three levels of the simulated hierarchy instantiate this
//! container; the hierarchy itself (exclusive placement, eviction
//! cascades, metadata transforms) is orchestrated by `slpmt-core`.

use crate::config::CacheGeometry;
use crate::meta::LineMeta;
use crate::stats::CacheStats;
use slpmt_pmem::addr::{PmAddr, LINE_BYTES};

/// One cached line: address tag, data, and SLPMT metadata.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Line-aligned address of the cached data.
    pub addr: PmAddr,
    /// Current (possibly newer-than-persistent) line contents.
    pub data: [u8; LINE_BYTES],
    /// SLPMT per-line metadata bits.
    pub meta: LineMeta,
    lru: u64,
}

impl Entry {
    /// Creates an entry for `addr` with the given data and metadata.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned.
    pub fn new(addr: PmAddr, data: [u8; LINE_BYTES], meta: LineMeta) -> Self {
        assert!(addr.is_line_aligned(), "cache entries are whole lines");
        Entry {
            addr,
            data,
            meta,
            lru: 0,
        }
    }
}

/// Where a resident line sits: its set and its way within the set.
///
/// A slot stays valid until the next insert into or removal from its
/// set (an eviction or removal moves the set's last way into the freed
/// one); accesses to other sets leave it valid. It lets a caller that
/// has just searched for a line read and write it again without a
/// second search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    set: usize,
    way: usize,
}

/// A set-associative, LRU-replacement cache of 64-byte lines.
///
/// ```
/// use slpmt_cache::{CacheGeometry, SetAssocCache, Entry, LineMeta};
/// use slpmt_pmem::PmAddr;
/// let geo = CacheGeometry { capacity: 256, ways: 2, hit_cycles: 4 };
/// let mut c = SetAssocCache::new(geo);
/// let e = Entry::new(PmAddr::new(0), [0; 64], LineMeta::clean());
/// let (filled, victim) = c.insert(e);
/// assert!(victim.is_none());
/// assert_eq!(c.lookup(PmAddr::new(0)), Some(filled));
/// assert_eq!(c.at(filled).addr, PmAddr::new(0));
/// assert!(c.lookup(PmAddr::new(64)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    sets: Vec<Vec<Entry>>,
    /// `sets.len() - 1`: the set count is a power of two.
    set_mask: u64,
    /// Resident lines across all sets.
    len: usize,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        // Sets grow on first use, so a fresh `Machine` (one per crash
        // point) allocates nothing proportional to cache size.
        let sets = vec![Vec::new(); geometry.sets()];
        SetAssocCache {
            geometry,
            set_mask: sets.len() as u64 - 1,
            sets,
            len: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Access counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_index(&self, line: PmAddr) -> usize {
        ((line.raw() / LINE_BYTES as u64) & self.set_mask) as usize
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `addr`'s line, counting a hit or miss and refreshing
    /// LRU state on a hit. Returns the line's slot.
    pub fn lookup(&mut self, addr: PmAddr) -> Option<Slot> {
        let line = addr.line();
        let tick = self.bump();
        let set = self.set_index(line);
        match self.sets[set]
            .iter_mut()
            .enumerate()
            .find(|(_, e)| e.addr == line)
        {
            Some((way, e)) => {
                e.lru = tick;
                self.stats.hits += 1;
                Some(Slot { set, way })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up `addr`'s line and removes it, counting the hit or miss
    /// exactly as [`lookup`](Self::lookup) does: one search where
    /// `lookup` then [`remove`](Self::remove) would take two.
    pub fn take(&mut self, addr: PmAddr) -> Option<Entry> {
        let slot = self.lookup(addr)?;
        self.len -= 1;
        Some(self.sets[slot.set].swap_remove(slot.way))
    }

    /// The line in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot's set has fewer ways than the slot names
    /// (the slot outlived an insert or removal in its set).
    pub fn at(&self, slot: Slot) -> &Entry {
        &self.sets[slot.set][slot.way]
    }

    /// Like [`at`](Self::at) but mutable; statistics-neutral.
    pub fn at_mut(&mut self, slot: Slot) -> &mut Entry {
        &mut self.sets[slot.set][slot.way]
    }

    /// Inspects `addr`'s line without touching LRU state or counters.
    /// Free on an empty level (every level is empty after a crash).
    pub fn peek(&self, addr: PmAddr) -> Option<&Entry> {
        if self.len == 0 {
            return None;
        }
        let line = addr.line();
        self.sets[self.set_index(line)]
            .iter()
            .find(|e| e.addr == line)
    }

    /// Like [`peek`](Self::peek) but mutable; still statistics-neutral.
    /// Used by commit/flush scans that are not program accesses.
    pub fn peek_mut(&mut self, addr: PmAddr) -> Option<&mut Entry> {
        let line = addr.line();
        let idx = self.set_index(line);
        self.sets[idx].iter_mut().find(|e| e.addr == line)
    }

    /// `true` if the line containing `addr` is present.
    pub fn contains(&self, addr: PmAddr) -> bool {
        self.peek(addr).is_some()
    }

    /// Inserts `entry`, returning the slot it fills and, if the set was
    /// full, the set's evicted LRU victim.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present — the hierarchy is
    /// exclusive, duplicates indicate a policy bug upstream.
    pub fn insert(&mut self, mut entry: Entry) -> (Slot, Option<Entry>) {
        let tick = self.bump();
        let idx = self.set_index(entry.addr);
        let set = &mut self.sets[idx];
        // One pass checks for a duplicate and finds the LRU way.
        let mut lru_way = 0;
        let mut oldest = u64::MAX;
        for (way, e) in set.iter().enumerate() {
            assert!(
                e.addr != entry.addr,
                "duplicate insert of line {}",
                entry.addr
            );
            if e.lru < oldest {
                oldest = e.lru;
                lru_way = way;
            }
        }
        entry.lru = tick;
        let victim = if set.len() == self.geometry.ways {
            self.stats.evictions += 1;
            Some(set.swap_remove(lru_way))
        } else {
            self.len += 1;
            None
        };
        set.push(entry);
        let slot = Slot {
            set: idx,
            way: set.len() - 1,
        };
        (slot, victim)
    }

    /// Removes and returns the line containing `addr` (statistics
    /// neutral; used to migrate lines between levels).
    pub fn remove(&mut self, addr: PmAddr) -> Option<Entry> {
        let line = addr.line();
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|e| e.addr == line)?;
        self.len -= 1;
        Some(set.swap_remove(pos))
    }

    /// Removes and returns the line containing `addr` for a
    /// cache-to-cache transfer into *another core's* private cache,
    /// counting the migration. The entry's metadata travels with it —
    /// a migrated line keeps its lazy/transaction tags so the
    /// receiving core's coherence checks see them.
    pub fn migrate_out(&mut self, addr: PmAddr) -> Option<Entry> {
        let e = self.remove(addr);
        if e.is_some() {
            self.stats.migrations += 1;
        }
        e
    }

    /// Invalidates the line containing `addr`, counting the event.
    /// Returns the dropped entry, if any.
    pub fn invalidate(&mut self, addr: PmAddr) -> Option<Entry> {
        let e = self.remove(addr);
        if e.is_some() {
            self.stats.invalidations += 1;
        }
        e
    }

    /// Iterates all resident entries (set order, then way order).
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.sets.iter().flatten()
    }

    /// Mutably iterates all resident entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Entry> {
        self.sets.iter_mut().flatten()
    }

    /// Drops every entry (e.g. simulated power loss). Returns at once
    /// on an empty level and stops after the set holding the last
    /// resident line, so a crash costs what the caches held, not the
    /// number of sets.
    pub fn clear(&mut self) {
        let mut left = self.len;
        for set in &mut self.sets {
            if left == 0 {
                break;
            }
            left -= set.len();
            set.clear();
        }
        self.len = 0;
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no line is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(capacity: usize, ways: usize) -> CacheGeometry {
        CacheGeometry {
            capacity,
            ways,
            hit_cycles: 1,
        }
    }

    fn entry(line: u64) -> Entry {
        Entry::new(PmAddr::new(line * 64), [line as u8; 64], LineMeta::clean())
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        assert!(c.lookup(PmAddr::new(0)).is_some());
        assert!(c.lookup(PmAddr::new(8)).is_some(), "same line, any offset");
        assert!(c.lookup(PmAddr::new(64)).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        // 2 sets × 2 ways; lines 0,2,4 map to set 0.
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        c.insert(entry(2));
        // Touch line 0 so line 2 becomes LRU.
        c.lookup(PmAddr::new(0));
        let victim = c.insert(entry(4)).1.expect("set full → eviction");
        assert_eq!(victim.addr, PmAddr::new(2 * 64));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn insert_without_conflict_returns_none() {
        let mut c = SetAssocCache::new(geo(256, 2));
        assert!(c.insert(entry(0)).1.is_none());
        assert!(c.insert(entry(1)).1.is_none(), "different set");
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate insert")]
    fn duplicate_insert_panics() {
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        c.insert(entry(0));
    }

    #[test]
    fn remove_and_invalidate() {
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        c.insert(entry(1));
        assert!(c.remove(PmAddr::new(0)).is_some());
        assert!(c.remove(PmAddr::new(0)).is_none());
        assert!(c.invalidate(PmAddr::new(64)).is_some());
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_is_stat_neutral() {
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        assert!(c.peek(PmAddr::new(0)).is_some());
        assert!(c.peek_mut(PmAddr::new(64)).is_none());
        assert_eq!(c.stats().hits + c.stats().misses, 0);
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        c.insert(entry(2));
        // Peek at line 0 (no LRU refresh) → line 0 remains LRU.
        c.peek(PmAddr::new(0));
        let victim = c.insert(entry(4)).1.unwrap();
        assert_eq!(victim.addr, PmAddr::new(0));
    }

    #[test]
    fn iteration_and_clear() {
        let mut c = SetAssocCache::new(geo(256, 2));
        for i in 0..4 {
            c.insert(entry(i));
        }
        assert_eq!(c.iter().count(), 4);
        for e in c.iter_mut() {
            e.meta.persist = true;
        }
        assert!(c.iter().all(|e| e.meta.persist));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn clear_reaches_the_last_set_and_skips_emptied_ones() {
        // 4 sets × 2 ways. Line 1 sits in set 1 and is then removed,
        // so set 1 is empty; lines 3 and 7 fill the last set.
        let mut c = SetAssocCache::new(geo(512, 2));
        for line in [1, 3, 7] {
            c.insert(entry(line));
        }
        assert!(c.remove(PmAddr::new(64)).is_some());
        assert_eq!(c.len(), 2);
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.iter().count(), 0);
        for line in 0..8 {
            assert!(c.peek(PmAddr::new(line * 64)).is_none(), "line {line}");
            assert!(c.peek_mut(PmAddr::new(line * 64)).is_none(), "line {line}");
        }
        // Clearing an empty level is a no-op, and the sets refill.
        c.clear();
        for line in [3, 7, 1] {
            assert!(c.insert(entry(line)).1.is_none());
        }
        assert_eq!(c.len(), 3);
        assert!(c.lookup(PmAddr::new(7 * 64)).is_some());
    }

    #[test]
    #[should_panic(expected = "whole lines")]
    fn unaligned_entry_rejected() {
        let _ = Entry::new(PmAddr::new(8), [0; 64], LineMeta::clean());
    }
}
