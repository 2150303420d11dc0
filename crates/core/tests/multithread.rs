//! §V-C multi-threading: transactions of switched-out threads coexist
//! with the running thread's transaction via the per-line 2-bit IDs,
//! conflicts abort the switched-out victim, and crash recovery treats
//! suspended transactions as unfinished.

use slpmt_core::{Machine, MachineConfig, Scheme, StoreKind};
#[cfg(not(feature = "no-trace"))]
use slpmt_pmem::PersistEvent;
use slpmt_pmem::PmAddr;

const A: PmAddr = PmAddr::new(0x10000);
const B: PmAddr = PmAddr::new(0x20000);

fn machine() -> Machine {
    Machine::new(MachineConfig::for_scheme(Scheme::Slpmt))
}

#[test]
fn two_threads_interleave_disjoint_transactions() {
    let mut m = machine();
    // Thread 1 starts a transaction, is switched out mid-way.
    m.tx_begin();
    m.store_u64(A, 1, StoreKind::Store);
    let t1 = m.suspend_txn();
    // Thread 2 runs a full transaction on disjoint data.
    m.tx_begin();
    m.store_u64(B, 2, StoreKind::Store);
    m.tx_commit();
    assert_eq!(m.device().image().read_u64(B), 2);
    // Thread 1 resumes and completes.
    m.resume_txn(t1);
    m.store_u64(A.add(8), 11, StoreKind::Store);
    m.tx_commit();
    assert_eq!(m.device().image().read_u64(A), 1);
    assert_eq!(m.device().image().read_u64(A.add(8)), 11);
    assert_eq!(m.stats().tx_commits, 2);
    assert_eq!(m.stats().suspended_aborts, 0);
}

#[test]
fn conflicting_access_aborts_the_suspended_transaction() {
    let mut m = machine();
    m.setup_write(A, &5u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(A, 99, StoreKind::Store);
    let _t1 = m.suspend_txn();
    // Thread 2 touches the same line: requester wins, thread 1 aborts.
    m.tx_begin();
    let v = m.load_u64(A);
    assert_eq!(v, 5, "the aborted transaction's update is revoked");
    m.store_u64(A, 7, StoreKind::Store);
    m.tx_commit();
    assert_eq!(m.stats().suspended_aborts, 1);
    assert_eq!(m.device().image().read_u64(A), 7);
}

#[test]
fn conflict_after_steal_repairs_the_image() {
    // The suspended transaction's dirty line overflowed to PM before
    // the conflict: the abort must apply the persisted undo records.
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt).with_tiny_caches());
    m.setup_write(A, &5u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(A, 99, StoreKind::Store);
    for i in 0..512u64 {
        m.load_u64(PmAddr::new(0x80000 + i * 64));
    }
    assert_eq!(m.device().image().read_u64(A), 99, "stolen");
    let _t1 = m.suspend_txn();
    m.tx_begin();
    let v = m.load_u64(A);
    assert_eq!(v, 5, "undo applied on conflict abort");
    m.tx_commit();
    assert_eq!(m.device().image().read_u64(A), 5);
}

#[test]
fn conflict_abort_after_takeover_keeps_the_committed_lazy_word() {
    // Regression: the suspended transaction took over a line holding
    // an earlier transaction's committed lazy word (§III-C1). The
    // conflict abort must roll back only its own word: the cached line
    // is the lazy word's only copy, so a store that logs no pre-image
    // must have forced it durable first. Suspension is undo-only.
    for scheme in [Scheme::FgLz, Scheme::Slpmt, Scheme::SlpmtCl] {
        for kind in StoreKind::ALL {
            let case = format!("{scheme} {kind:?}");
            let mut m = Machine::new(MachineConfig::for_scheme(scheme));
            m.tx_begin();
            m.store_u64(A, 55, StoreKind::lazy_log_free());
            m.tx_commit();
            m.tx_begin();
            m.store_u64(A.add(8), 66, kind);
            let _t2 = m.suspend_txn();
            m.tx_begin();
            assert_eq!(m.load_u64(A), 55, "{case}: committed lazy word survives");
            assert_eq!(m.load_u64(A.add(8)), 0, "{case}: aborted word rolled back");
            m.tx_commit();
            assert_eq!(m.stats().suspended_aborts, 1, "{case}");
            assert_eq!(m.peek_u64(A), 55, "{case}");
            m.drain_lazy();
            assert_eq!(m.device().image().read_u64(A), 55, "{case}: durable");
            assert_eq!(m.device().image().read_u64(A.add(8)), 0, "{case}: durable");
        }
    }
}

/// The `conflict_after_steal_repairs_the_image` trace plus a store to
/// `B` in the winning transaction, with the persist-event crash
/// scheduler armed at `k` when given. Returns the machine and the
/// winner's sequence number.
#[cfg(not(feature = "no-trace"))]
fn conflict_after_steal(k: Option<u64>) -> (Machine, u64) {
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt).with_tiny_caches());
    m.setup_write(A, &5u64.to_le_bytes());
    match k {
        Some(k) => m.arm_crash_at_event(k),
        // The crash-free twin: its persist history is read back.
        None => {
            m.enable_tracing(1 << 20);
        }
    }
    m.tx_begin();
    m.store_u64(A, 99, StoreKind::Store);
    for i in 0..512u64 {
        m.load_u64(PmAddr::new(0x80000 + i * 64));
    }
    let _t1 = m.suspend_txn();
    m.tx_begin();
    let winner = m.txn_seq();
    m.load_u64(A);
    m.store_u64(B, 2, StoreKind::Store);
    m.tx_commit();
    (m, winner)
}

#[cfg(not(feature = "no-trace"))]
#[test]
fn conflict_after_steal_recovers_at_every_persist_event() {
    // The conflict abort repairs through the event-gated persist path,
    // so a crash may cut it anywhere: recovery must still roll the
    // victim back, and the winner is committed exactly when its marker
    // is durable.
    let (twin, winner) = conflict_after_steal(None);
    assert_eq!(twin.stats().suspended_aborts, 1);
    let marker = twin
        .device()
        .persist_history()
        .iter()
        .position(|e| matches!(e, PersistEvent::CommitMarker { txn } if *txn == winner))
        .expect("the winner commits") as u64
        + 1;
    for k in 0..=twin.persist_event_count() {
        let (mut m, _) = conflict_after_steal(Some(k));
        m.crash();
        m.recover();
        let image = m.device().image();
        assert_eq!(image.read_u64(A), 5, "k={k}: victim rolled back");
        let want = if k >= marker { 2 } else { 0 };
        assert_eq!(image.read_u64(B), want, "k={k}: winner's store");
    }
}

#[test]
fn crash_with_suspended_transaction_rolls_it_back() {
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt).with_tiny_caches());
    m.setup_write(A, &5u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(A, 99, StoreKind::Store);
    for i in 0..512u64 {
        m.store_u64(PmAddr::new(0x80000 + i * 64), i, StoreKind::Store);
    }
    let _t1 = m.suspend_txn();
    m.tx_begin();
    m.store_u64(B, 2, StoreKind::Store);
    m.tx_commit();
    m.crash();
    m.recover();
    assert_eq!(
        m.device().image().read_u64(A),
        5,
        "suspended txn rolled back"
    );
    assert_eq!(m.device().image().read_u64(B), 2, "committed txn durable");
}

#[test]
fn several_suspensions_round_robin() {
    let mut m = machine();
    let mut seqs = Vec::new();
    for i in 0..3u64 {
        m.tx_begin();
        m.store_u64(PmAddr::new(0x10000 + i * 0x1000), i + 1, StoreKind::Store);
        seqs.push(m.suspend_txn());
    }
    // Resume and commit in a scrambled order.
    for &seq in [seqs[1], seqs[2], seqs[0]].iter() {
        m.resume_txn(seq);
        m.tx_commit();
    }
    for i in 0..3u64 {
        assert_eq!(
            m.device()
                .image()
                .read_u64(PmAddr::new(0x10000 + i * 0x1000)),
            i + 1
        );
    }
    assert_eq!(m.stats().tx_commits, 3);
}

#[test]
#[should_panic(expected = "no suspended transaction")]
fn resume_of_unknown_txn_rejected() {
    let mut m = machine();
    m.resume_txn(42);
}

#[test]
#[should_panic(expected = "undo discipline")]
fn redo_suspension_rejected() {
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::FgRedo));
    m.tx_begin();
    m.store_u64(A, 1, StoreKind::Store);
    m.suspend_txn();
}

#[test]
fn four_contexts_is_the_hardware_limit() {
    // 2-bit IDs: three suspended threads plus the running one exhaust
    // the contexts.
    let mut m = machine();
    for i in 0..3u64 {
        m.tx_begin();
        m.store_u64(PmAddr::new(0x10000 + i * 0x1000), i, StoreKind::Store);
        m.suspend_txn();
    }
    m.tx_begin(); // fourth context: OK
    m.tx_commit();
    // With the fourth committed clean, a new transaction fits again.
    m.tx_begin();
    m.tx_commit();
}

#[test]
#[should_panic(expected = "transaction contexts are in use")]
fn fifth_context_rejected() {
    let mut m = machine();
    for i in 0..4u64 {
        m.tx_begin();
        m.store_u64(PmAddr::new(0x10000 + i * 0x1000), i, StoreKind::Store);
        m.suspend_txn();
    }
    m.tx_begin();
}

#[test]
#[should_panic(expected = "battery-backed caches is unsupported")]
fn battery_suspension_rejected() {
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt).with_battery_backed_cache());
    m.tx_begin();
    m.store_u64(A, 1, StoreKind::Store);
    m.suspend_txn();
}
