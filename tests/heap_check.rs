//! Differential check of the linear post-crash heap check: `inspect`
//! and `PmHeap::rebuild` (via `PmContext::gc`) merge-join a sorted
//! reachable vector against the live map. Here they are compared with
//! the obvious `BTreeSet` reference on seeded random heaps, over
//! reachable sets mixing live starts, duplicates, interior pointers,
//! freed and out-of-heap addresses.

use slpmt::annotate::AnnotationTable;
use slpmt::core::Scheme;
use slpmt::pmem::{PmAddr, PmHeap};
use slpmt::workloads::inspector::Leak;
use slpmt::workloads::{inspect, HeapReport, PmContext};
use slpmt_prng::SimRng;
use std::collections::BTreeSet;

fn reference_report(heap: &PmHeap, reachable: &[PmAddr]) -> HeapReport {
    let reach: BTreeSet<u64> = reachable.iter().map(|a| a.raw()).collect();
    let mut report = HeapReport::default();
    for (addr, bytes) in heap.iter() {
        report.live += 1;
        if reach.contains(&addr.raw()) {
            report.reachable += 1;
        } else {
            report.leaks.push(Leak { addr, bytes });
        }
    }
    report.interior_pointers = reachable.iter().filter(|a| !heap.is_live(**a)).count();
    report
}

/// Frees every live allocation missing from `reachable`, one `free` at
/// a time in address order; returns the heap and the count freed.
fn reference_rebuild(heap: &PmHeap, reachable: &[PmAddr]) -> (PmHeap, usize) {
    let reach: BTreeSet<u64> = reachable.iter().map(|a| a.raw()).collect();
    let doomed: Vec<PmAddr> = heap
        .iter()
        .map(|(a, _)| a)
        .filter(|a| !reach.contains(&a.raw()))
        .collect();
    let mut heap = heap.clone();
    for &a in &doomed {
        heap.free(a);
    }
    (heap, doomed.len())
}

/// What a case puts in the reachable set besides live starts.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Nothing at all.
    Empty,
    /// Only addresses that are not live starts: every allocation leaks.
    AllLeaked,
    /// Live starts (some twice) mixed with every kind of non-live
    /// address.
    Mixed,
    /// Every live start, some twice, nothing else: nothing leaks.
    AllReached,
}

/// A heap of random allocations with a random subset freed again, and
/// the addresses that were freed.
fn random_heap(rng: &mut SimRng) -> (PmContext, Vec<PmAddr>) {
    let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
    let allocs: Vec<PmAddr> = (0..rng.gen_usize(0..80))
        .map(|_| ctx.alloc(rng.gen_range(1..200)))
        .collect();
    let mut freed = Vec::new();
    for a in allocs {
        if rng.gen_bool(0.3) {
            ctx.free(a);
            freed.push(a);
        }
    }
    (ctx, freed)
}

fn non_live(rng: &mut SimRng, heap: &PmHeap, freed: &[PmAddr], out: &mut Vec<PmAddr>) {
    // Interior pointers: a word inside a multi-word live allocation.
    for (a, size) in heap.iter() {
        if size > 8 && rng.gen_bool(0.3) {
            out.push(PmAddr::new(a.raw() + 8 * rng.gen_range(1..size / 8)));
        }
    }
    // Freed allocation starts.
    out.extend(freed.iter().filter(|_| rng.gen_bool(0.5)));
    // Out of the heap on both sides.
    let base = heap.base().raw();
    for _ in 0..rng.gen_usize(0..4) {
        out.push(PmAddr::new(8 * rng.gen_range(0..base / 8)));
        out.push(PmAddr::new(base + heap.len() + 8 * rng.gen_range(0..1024)));
    }
}

fn reachable_set(rng: &mut SimRng, shape: Shape, heap: &PmHeap, freed: &[PmAddr]) -> Vec<PmAddr> {
    let mut out = Vec::new();
    let p_live = match shape {
        Shape::Empty => return out,
        Shape::AllLeaked => 0.0,
        Shape::Mixed => 0.6,
        Shape::AllReached => 1.0,
    };
    for (a, _) in heap.iter() {
        if rng.gen_bool(p_live) {
            out.push(a);
            if rng.gen_bool(0.2) {
                out.push(a);
            }
        }
    }
    if matches!(shape, Shape::AllLeaked | Shape::Mixed) {
        non_live(rng, heap, freed, &mut out);
    }
    rng.shuffle(&mut out);
    out
}

#[test]
fn linear_heap_check_matches_btreeset_reference() {
    let shapes = [
        Shape::Empty,
        Shape::AllLeaked,
        Shape::Mixed,
        Shape::AllReached,
    ];
    for case in 0..400u64 {
        let shape = shapes[case as usize % shapes.len()];
        let mut rng = SimRng::seed_from_u64(0x4ea9_0000 + case);
        let (mut ctx, freed) = random_heap(&mut rng);
        let reachable = reachable_set(&mut rng, shape, ctx.heap(), &freed);
        let at = format!("case {case} ({shape:?}, {} reachable)", reachable.len());

        let expected = reference_report(ctx.heap(), &reachable);
        assert_eq!(inspect(&ctx, &reachable), expected, "{at}");
        match shape {
            Shape::Empty | Shape::AllLeaked => assert_eq!(expected.reachable, 0, "{at}"),
            Shape::AllReached => assert!(expected.is_clean(), "{at}"),
            Shape::Mixed => {}
        }

        let (ref_heap, ref_reclaimed) = reference_rebuild(ctx.heap(), &reachable);
        assert_eq!(ctx.gc(&reachable), ref_reclaimed, "{at}");
        assert_eq!(ref_reclaimed, expected.leaks.len(), "{at}");
        assert!(
            ctx.heap().iter().eq(ref_heap.iter()),
            "{at}: live set differs"
        );
        // The free extents are private; the Debug form shows them.
        assert_eq!(
            format!("{:?}", ctx.heap()),
            format!("{ref_heap:?}"),
            "{at}: free state differs"
        );
        let after = inspect(&ctx, &reachable);
        assert!(after.is_clean(), "{at}: {after}");
        assert_eq!(after.interior_pointers, expected.interior_pointers, "{at}");
    }
}
