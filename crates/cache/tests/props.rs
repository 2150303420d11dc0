//! Randomized tests for the cache substrate (seeded loops replace
//! `proptest`, which is unavailable offline).

use slpmt_cache::{
    l1_logbits_to_l2, l2_logbits_to_l1, speculative_fill_words, CacheGeometry, Entry, LineMeta,
    SetAssocCache,
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
/// resident or was explicitly evicted.
#[test]
fn cache_is_a_bounded_map() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(0xCACE ^ case);
        let geo = CacheGeometry {
            capacity: 1024,
            ways: 2,
            hit_cycles: 1,
        };
        let mut cache = SetAssocCache::new(geo);
        let mut resident: BTreeMap<u64, u8> = BTreeMap::new();
        for i in 0..rng.gen_usize(1..200) {
            let addr = PmAddr::new(rng.gen_range(0..64) * 64);
            let tag = i as u8;
            if cache.lookup(addr).is_some() {
                let e = cache.peek_mut(addr).unwrap();
                e.data[0] = tag;
                resident.insert(addr.raw(), tag);
            } else {
                let mut data = [0u8; 64];
                data[0] = tag;
                if let Some(victim) = cache.insert(Entry::new(addr, data, LineMeta::clean())) {
                    let removed = resident.remove(&victim.addr.raw());
                    assert_eq!(
                        removed,
                        Some(victim.data[0]),
                        "case {case}: evicted data intact"
                    );
                }
                resident.insert(addr.raw(), tag);
            }
            assert_eq!(
                cache.peek(addr).map(|e| e.data[0]),
                Some(tag),
                "case {case}, step {i}: the line just written is resident"
            );
            assert!(cache.len() <= geo.lines(), "case {case}");
            assert_eq!(cache.len(), resident.len(), "case {case}, step {i}");
            assert_eq!(cache.is_empty(), resident.is_empty(), "case {case}");
        }
        for (&a, &tag) in &resident {
            let e = cache.peek(PmAddr::new(a)).expect("model says resident");
            assert_eq!(e.data[0], tag, "case {case}");
        }
        assert_eq!(cache.len(), resident.len(), "case {case}");
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
