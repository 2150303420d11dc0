//! Figure 4 persist-ordering assertions, checked against the device's
//! persist history (read back from the trace, so every machine here
//! traces from its first instruction).
//!
//! Undo discipline: within a transaction's persist window (just after
//! the previous transaction's commit marker up to its own), the *data*
//! of a logged line must not reach the persistence domain before the
//! transaction's first log record for that line — and the commit
//! marker must follow every record. Log-free lines may persist at any
//! point.

use slpmt::core::{Machine, MachineConfig, Scheme, StoreKind};
use slpmt::pmem::{PersistEvent, PmAddr};
use std::collections::BTreeMap;

/// Per-transaction window check (for schemes without lazy persistency,
/// where no foreign forced persist can interleave and transactions
/// persist one after another): inside txn T's window, which opens just
/// after the commit marker before T's first record, `DataLine(L)`
/// events for lines T logs must come after T's first record for L.
fn assert_undo_windows(m: &Machine) {
    let events = m.device().persist_history();
    // Find each txn's window and first-record-per-line map.
    let mut window_start: BTreeMap<u64, usize> = BTreeMap::new();
    let mut window_end: BTreeMap<u64, usize> = BTreeMap::new();
    let mut first_record: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    let mut after_marker = 0;
    for (i, e) in events.iter().enumerate() {
        match e {
            PersistEvent::LogRecord { txn, addr, .. } => {
                window_start.entry(*txn).or_insert(after_marker);
                first_record.entry((*txn, addr.line().raw())).or_insert(i);
            }
            PersistEvent::CommitMarker { txn } => {
                window_end.insert(*txn, i);
                after_marker = i + 1;
            }
            PersistEvent::DataLine { .. } | PersistEvent::LogTruncate => {}
        }
    }
    assert!(!window_end.is_empty(), "trace must contain commits");
    for (&txn, &start) in &window_start {
        let end = *window_end
            .get(&txn)
            .unwrap_or_else(|| panic!("txn {txn} logged but never committed in trace"));
        assert!(start < end, "txn {txn}: marker before its first record");
        // Every record of txn must precede the marker.
        for (i, e) in events.iter().enumerate() {
            if let PersistEvent::LogRecord { txn: t, .. } = e {
                if *t == txn {
                    assert!(i < end, "txn {txn}: record at {i} after marker at {end}");
                }
            }
        }
        // Data of logged lines must not persist inside the window
        // before the first covering record.
        for (i, e) in events.iter().enumerate().take(end).skip(start) {
            if let PersistEvent::DataLine { addr } = e {
                if let Some(&r) = first_record.get(&(txn, addr.line().raw())) {
                    assert!(
                        r <= i || r >= end,
                        "txn {txn}: data of line {addr} at {i} precedes its record at {r}"
                    );
                }
            }
        }
    }
}

/// Marker-after-records check, valid for every scheme.
fn assert_markers_follow_records(m: &Machine) {
    let events = m.device().persist_history();
    let mut last_record: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        match e {
            PersistEvent::LogRecord { txn, .. } => {
                last_record.insert(*txn, i);
            }
            PersistEvent::CommitMarker { txn } => {
                if let Some(&r) = last_record.get(txn) {
                    assert!(r < i, "txn {txn}: marker at {i} before record at {r}");
                }
            }
            PersistEvent::DataLine { .. } | PersistEvent::LogTruncate => {}
        }
    }
}

/// Per-core trace capacity: far above what any test here emits.
const TRACE_CAPACITY: usize = 1 << 20;

/// A fresh machine tracing from its first instruction.
fn traced(cfg: MachineConfig) -> Machine {
    let mut m = Machine::new(cfg);
    m.enable_tracing(TRACE_CAPACITY);
    m
}

#[test]
fn simple_commit_orders_log_before_data() {
    let mut m = traced(MachineConfig::for_scheme(Scheme::Fg));
    m.tx_begin();
    for i in 0..16u64 {
        m.store_u64(PmAddr::new(0x10000 + i * 8), i, StoreKind::Store);
    }
    m.tx_commit();
    assert_undo_windows(&m);
    assert_markers_follow_records(&m);
}

#[test]
fn stolen_lines_are_ordered_too() {
    // Tiny caches force mid-transaction overflow: even then, a line's
    // log records must beat its data to the persistence domain.
    let mut m = traced(MachineConfig::for_scheme(Scheme::Fg).with_tiny_caches());
    m.tx_begin();
    for i in 0..256u64 {
        m.store_u64(PmAddr::new(0x10000 + i * 64), i, StoreKind::Store);
    }
    m.tx_commit();
    assert_undo_windows(&m);
}

#[test]
fn ordering_holds_across_many_transactions_and_schemes() {
    for scheme in [Scheme::Fg, Scheme::Atom, Scheme::Ede, Scheme::FgCl] {
        let mut m = traced(MachineConfig::for_scheme(scheme).with_tiny_caches());
        for t in 0..32u64 {
            m.tx_begin();
            for i in 0..8u64 {
                let a = PmAddr::new(0x10000 + ((t * 13 + i * 7) % 128) * 64);
                m.store_u64(a, t * 100 + i, StoreKind::Store);
            }
            m.tx_commit();
        }
        assert_undo_windows(&m);
        assert_markers_follow_records(&m);
    }
}

#[test]
fn selective_logging_keeps_marker_ordering() {
    let mut m = traced(MachineConfig::for_scheme(Scheme::Slpmt).with_tiny_caches());
    for t in 0..24u64 {
        m.tx_begin();
        let base = PmAddr::new(0x10000 + (t % 32) * 256);
        m.store_u64(base, t, StoreKind::Store); // logged
        m.store_u64(base.add(64), t, StoreKind::log_free()); // log-free, any order
        m.store_u64(base.add(128), t, StoreKind::lazy_log_free()); // deferred
        m.tx_commit();
    }
    m.drain_lazy();
    assert_markers_follow_records(&m);
}

#[test]
fn workload_level_ordering() {
    use slpmt::workloads::runner::IndexKind;
    use slpmt::workloads::{ycsb_load, AnnotationSource, PmContext};
    for kind in [IndexKind::Hashtable, IndexKind::Rbtree, IndexKind::KvBtree] {
        let mut ctx = PmContext::new(Scheme::Slpmt, slpmt::annotate::AnnotationTable::new());
        ctx.enable_tracing(TRACE_CAPACITY);
        let mut idx = kind.build(&mut ctx, 32, AnnotationSource::Manual);
        for op in ycsb_load(80, 32, 3) {
            idx.insert(&mut ctx, op.key, &op.value);
        }
        assert_markers_follow_records(ctx.machine());
    }
    // Without lazy features the strict window discipline holds at the
    // workload level too.
    for kind in [IndexKind::Hashtable, IndexKind::KvBtree] {
        let mut ctx = PmContext::new(Scheme::Fg, slpmt::annotate::AnnotationTable::new());
        ctx.enable_tracing(TRACE_CAPACITY);
        let mut idx = kind.build(&mut ctx, 32, AnnotationSource::None);
        for op in ycsb_load(80, 32, 3) {
            idx.insert(&mut ctx, op.key, &op.value);
        }
        assert_undo_windows(ctx.machine());
    }
}
