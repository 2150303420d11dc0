//! Host-heap budgets of the insert path, counted by this binary's own
//! global allocator.
//!
//! For each of the eleven paper-load scheme columns, one hashtable
//! cell (256-byte values, heap prefaulted, manual annotations, as in a
//! paper-load cell) runs 400 seeded inserts. Two budgets hold:
//!
//! * **allocations per insert** over all 400 inserts: the simulated
//!   hot path (store, log, commit, persist) must not allocate per word
//!   or per record;
//! * **live-heap growth per insert** from insert 100 to insert 400
//!   (the 100-insert run and the 400-insert run of one key stream):
//!   what a loaded store keeps per insert must stay small. A 4× span
//!   covers at least one doubling of any `Vec` that grows with the
//!   run, so a per-event history cannot hide between doublings.
//!
//! The machine runs with tiny caches. Cache sets grow on first use, so
//! with the default 2 MiB L3 the window would mostly measure cache
//! warm-up, which stops at the cache's size; tiny caches fill within
//! the first inserts.
//!
//! The counters are per thread, so the harness's own threads do not
//! disturb them; everything measured runs on the test thread.

use slpmt::annotate::AnnotationTable;
use slpmt::core::{MachineConfig, PtmFlavor, Scheme, SchemeKind};
use slpmt::workloads::runner::IndexKind;
use slpmt::workloads::{ycsb_load, AnnotationSource, PmContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations and live bytes of threads that opted in.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: i64) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ON.try_with(|on| {
        if on.get() {
            ALLOCS.with(|a| a.set(a.get() + allocs));
            LIVE.with(|l| l.set(l.get() + bytes));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the bookkeeping touches only const-initialised thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, live bytes)` of this thread so far.
fn counters() -> (u64, i64) {
    (ALLOCS.with(Cell::get), LIVE.with(Cell::get))
}

const VALUE: usize = 256;
const EARLY: usize = 100;
const LATE: usize = 400;

/// One cell's measurement.
struct Cost {
    /// Allocations per insert over all `LATE` inserts.
    allocs_per_insert: f64,
    /// Live-heap growth per insert from insert `EARLY` to `LATE`.
    live_per_insert: f64,
}

fn measure(scheme: SchemeKind) -> Cost {
    let ops = ycsb_load(LATE, VALUE, 42);
    let mut ctx = PmContext::with_config(
        MachineConfig::for_kind(scheme).with_tiny_caches(),
        AnnotationTable::new(),
    );
    ctx.prefault_heap(LATE as u64 * (VALUE as u64 + 192) + (1 << 20));
    let mut idx = IndexKind::Hashtable.build(&mut ctx, VALUE, AnnotationSource::Manual);
    ON.with(|on| on.set(true));
    let (allocs0, _) = counters();
    let mut live_early = 0;
    for (i, op) in ops.iter().enumerate() {
        if i == EARLY {
            live_early = counters().1;
        }
        idx.insert(&mut ctx, op.key, &op.value);
    }
    let (allocs1, live_late) = counters();
    ON.with(|on| on.set(false));
    Cost {
        allocs_per_insert: (allocs1 - allocs0) as f64 / LATE as f64,
        live_per_insert: (live_late - live_early) as f64 / (LATE - EARLY) as f64,
    }
}

/// Each paper-load scheme column with its budgets: (allocations per
/// insert, live-heap bytes per insert). Each is the count measured on
/// this cell (debug build) plus 50 % headroom, rounded up:
///
/// | scheme   | allocs | live B |
/// |----------|-------:|-------:|
/// | FG       |   5.17 |  144.0 |
/// | FG+LG    |   3.15 |  144.0 |
/// | FG+LZ    |   5.20 |  144.0 |
/// | SLPMT    |   4.08 |  145.3 |
/// | ATOM     |   4.08 |  145.3 |
/// | EDE      |   1.66 |  611.2 |
/// | UNDOLOG  |  13.62 |   53.1 |
/// | REDOLOG  |   9.59 |   53.1 |
/// | ROMULUS  |   9.59 |   53.1 |
/// | TRINITY  |  13.62 |   53.1 |
/// | QUADRA   |   9.59 |   53.1 |
///
/// The live heap that remains is the PM heap's allocation map and the
/// durable log region's high-water mark; EDE's is the largest, since
/// the table-resize transaction logs one record per word. A device
/// that kept a per-event persist history exceeds every live budget
/// (it retained 650–2,700 B per insert on this cell).
const BUDGETS: [(SchemeKind, f64, f64); 11] = [
    (SchemeKind::Hardware(Scheme::Fg), 7.8, 220.0),
    (SchemeKind::Hardware(Scheme::FgLg), 4.8, 220.0),
    (SchemeKind::Hardware(Scheme::FgLz), 7.8, 220.0),
    (SchemeKind::Hardware(Scheme::Slpmt), 6.2, 220.0),
    (SchemeKind::Hardware(Scheme::Atom), 6.2, 220.0),
    (SchemeKind::Hardware(Scheme::Ede), 2.5, 920.0),
    (SchemeKind::Software(PtmFlavor::UndoLog), 20.5, 80.0),
    (SchemeKind::Software(PtmFlavor::RedoLog), 14.4, 80.0),
    (SchemeKind::Software(PtmFlavor::RomulusLog), 14.4, 80.0),
    (SchemeKind::Software(PtmFlavor::Trinity), 20.5, 80.0),
    (SchemeKind::Software(PtmFlavor::Quadra), 14.4, 80.0),
];

#[test]
fn inserts_stay_within_their_heap_budgets() {
    let mut failures = Vec::new();
    for (scheme, alloc_budget, live_budget) in BUDGETS {
        let cost = measure(scheme);
        eprintln!(
            "{scheme}: {:.2} allocations/insert (budget {alloc_budget}), \
             {:.1} live B/insert (budget {live_budget})",
            cost.allocs_per_insert, cost.live_per_insert
        );
        if cost.allocs_per_insert > alloc_budget {
            failures.push(format!(
                "{scheme}: {:.2} allocations per insert, budget {alloc_budget}",
                cost.allocs_per_insert
            ));
        }
        if cost.live_per_insert > live_budget {
            failures.push(format!(
                "{scheme}: live heap grows {:.1} B per insert, budget {live_budget}",
                cost.live_per_insert
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
