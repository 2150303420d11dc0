//! Randomized tests for the cache substrate (seeded loops replace
//! `proptest`, which is unavailable offline).

use slpmt_cache::{
    l1_logbits_to_l2, l2_logbits_to_l1, speculative_fill_words, CacheGeometry, Entry, LineMeta,
    SetAssocCache, Slot,
};
use slpmt_pmem::PmAddr;
use slpmt_prng::SimRng;
use std::collections::BTreeMap;

/// Replication inverts conjunction exactly on group-complete
/// bitmaps, and a round trip through L2 only ever *loses* bits.
#[test]
fn logbit_transforms() {
    // u8 is small enough to test exhaustively.
    for l1 in 0u8..=255 {
        let l2 = l1_logbits_to_l2(l1);
        let back = l2_logbits_to_l1(l2);
        assert_eq!(back & l1, back, "round trip never invents bits");
        assert_eq!(l1_logbits_to_l2(back), l2, "stable after one trip");
        // Speculative fill makes every partially-logged group complete.
        let mut filled = l1;
        for w in speculative_fill_words(l1) {
            assert_eq!(filled & (1 << w), 0, "fills only clean words");
            filled |= 1 << w;
        }
        for g in 0..2 {
            let bits = (l1 >> (g * 4)) & 0xF;
            if bits != 0 {
                assert!(l1_logbits_to_l2(filled) & (1 << g) != 0);
            }
        }
    }
}

/// The set-associative cache behaves like a bounded map: lookups
/// agree with a model restricted to resident lines, occupancy per
/// set never exceeds the ways, and every inserted line is either
/// resident or was explicitly evicted. A slot names its line until an
/// insert or removal in its set, whatever happens to other sets, and
/// `take` is `lookup` then `remove` in one search: a twin cache that
/// runs the pair wherever this one takes keeps the same counters, the
/// same resident lines and the same LRU victims.
#[test]
fn cache_is_a_bounded_map() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(0xCACE ^ case);
        let geo = CacheGeometry {
            capacity: 1024,
            ways: 2,
            hit_cycles: 1,
        };
        let sets = geo.sets() as u64;
        let set_of = |a: u64| (a / 64) % sets;
        let mut cache = SetAssocCache::new(geo);
        let mut twin = cache.clone();
        let mut resident: BTreeMap<u64, u8> = BTreeMap::new();
        // Slots handed out whose set has not changed since.
        let mut slots: BTreeMap<u64, Slot> = BTreeMap::new();
        for i in 0..rng.gen_usize(1..200) {
            let addr = PmAddr::new(rng.gen_range(0..64) * 64);
            let tag = i as u8;
            if rng.gen_range(0..4) == 0 {
                let taken = cache.take(addr).map(|e| (e.addr, e.data[0]));
                let twin_taken = match twin.lookup(addr) {
                    Some(_) => twin.remove(addr).map(|e| (e.addr, e.data[0])),
                    None => None,
                };
                assert_eq!(taken, twin_taken, "case {case}, step {i}: take");
                let model = resident.remove(&addr.raw()).map(|t| (addr, t));
                assert_eq!(taken, model, "case {case}, step {i}: take");
                if taken.is_some() {
                    slots.retain(|&a, _| set_of(a) != set_of(addr.raw()));
                }
            } else if let Some(slot) = cache.lookup(addr) {
                assert!(twin.lookup(addr).is_some(), "case {case}, step {i}");
                let e = cache.at(slot);
                assert_eq!(
                    (e.addr, Some(&e.data[0])),
                    (addr, resident.get(&addr.raw())),
                    "case {case}, step {i}: at(lookup) is the model's line"
                );
                cache.at_mut(slot).data[0] = tag;
                twin.peek_mut(addr).unwrap().data[0] = tag;
                resident.insert(addr.raw(), tag);
                slots.insert(addr.raw(), slot);
            } else {
                assert!(twin.lookup(addr).is_none(), "case {case}, step {i}");
                let mut data = [0u8; 64];
                data[0] = tag;
                let (slot, victim) = cache.insert(Entry::new(addr, data, LineMeta::clean()));
                let (_, twin_victim) = twin.insert(Entry::new(addr, data, LineMeta::clean()));
                assert_eq!(
                    victim.as_ref().map(|v| v.addr),
                    twin_victim.map(|v| v.addr),
                    "case {case}, step {i}: same LRU victim"
                );
                if let Some(victim) = victim {
                    let removed = resident.remove(&victim.addr.raw());
                    assert_eq!(
                        removed,
                        Some(victim.data[0]),
                        "case {case}: evicted data intact"
                    );
                }
                resident.insert(addr.raw(), tag);
                slots.retain(|&a, _| set_of(a) != set_of(addr.raw()));
                slots.insert(addr.raw(), slot);
            }
            assert_eq!(
                cache.peek(addr).map(|e| e.data[0]),
                resident.get(&addr.raw()).copied(),
                "case {case}, step {i}: peek sees the line just written or taken"
            );
            for (&a, &slot) in &slots {
                let e = cache.at(slot);
                assert_eq!(
                    (e.addr.raw(), Some(&e.data[0])),
                    (a, resident.get(&a)),
                    "case {case}, step {i}: slot of line {a} outlived other sets' changes"
                );
            }
            assert_eq!(cache.stats(), twin.stats(), "case {case}, step {i}");
            let lines = |c: &SetAssocCache| {
                c.iter()
                    .map(|e| (e.addr.raw(), e.data[0]))
                    .collect::<BTreeMap<_, _>>()
            };
            assert_eq!(lines(&cache), resident, "case {case}, step {i}");
            assert_eq!(lines(&twin), resident, "case {case}, step {i}");
            assert!(cache.len() <= geo.lines(), "case {case}");
            assert_eq!(cache.len(), resident.len(), "case {case}, step {i}");
            assert_eq!(twin.len(), resident.len(), "case {case}, step {i}");
            assert_eq!(cache.is_empty(), resident.is_empty(), "case {case}");
        }
        for (&a, &tag) in &resident {
            let e = cache.peek(PmAddr::new(a)).expect("model says resident");
            assert_eq!(e.data[0], tag, "case {case}");
        }
        assert_eq!(cache.len(), resident.len(), "case {case}");
        // Later victims: fresh lines through every way of every set
        // evict in the same LRU order from both caches.
        let mut fill = (cache.clone(), twin.clone());
        for n in 0..geo.lines() as u64 {
            let e = Entry::new(PmAddr::new((64 + n) * 64), [0; 64], LineMeta::clean());
            let v = fill.0.insert(e.clone()).1.map(|v| v.addr);
            let w = fill.1.insert(e).1.map(|v| v.addr);
            assert_eq!(v, w, "case {case}: victim of fill {n}");
        }
        cache.clear();
        assert_eq!(cache.len(), 0, "case {case}: cleared");
        assert!(cache.is_empty(), "case {case}: cleared");
        for &a in resident.keys() {
            assert!(cache.peek(PmAddr::new(a)).is_none(), "case {case}: cleared");
        }
    }
}

/// Lines map to sets by mask, so a geometry whose set count is not a
/// power of two is rejected up front.
#[test]
#[should_panic(expected = "power of two")]
fn non_power_of_two_set_count_rejected() {
    // 384 B / (2 ways × 64 B) = 3 sets.
    let _ = SetAssocCache::new(CacheGeometry {
        capacity: 384,
        ways: 2,
        hit_cycles: 1,
    });
}
