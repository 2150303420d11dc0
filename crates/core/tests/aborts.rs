//! Transaction abort (§V-B) across every scheme, including aborts
//! after mid-transaction steals.

use slpmt_core::{Machine, MachineConfig, Scheme, StoreKind};
#[cfg(not(feature = "no-trace"))]
use slpmt_pmem::PersistEvent;
use slpmt_pmem::PmAddr;

const WORDS: u64 = 10;

fn word(i: u64) -> PmAddr {
    PmAddr::new(0x10000 + i * 64)
}

fn abort_case(scheme: Scheme, tiny: bool, thrash: bool) {
    let mut cfg = MachineConfig::for_scheme(scheme);
    if tiny {
        cfg = cfg.with_tiny_caches();
    }
    let mut m = Machine::new(cfg);
    // Committed base state.
    m.tx_begin();
    for i in 0..WORDS {
        m.store_u64(word(i), 7, StoreKind::Store);
    }
    m.tx_commit();
    // Aborted transaction, optionally with mid-transaction overflow.
    m.tx_begin();
    for i in 0..WORDS {
        m.store_u64(word(i), 999, StoreKind::Store);
    }
    if thrash {
        for i in 0..512u64 {
            m.load_u64(PmAddr::new(0x80000 + i * 64));
        }
    }
    m.tx_abort();
    for i in 0..WORDS {
        assert_eq!(
            m.peek_u64(word(i)),
            7,
            "{scheme} tiny={tiny} thrash={thrash}: word {i} logical"
        );
        assert_eq!(
            m.device().image().read_u64(word(i)),
            7,
            "{scheme} tiny={tiny} thrash={thrash}: word {i} durable"
        );
    }
    // The machine keeps working after the abort.
    m.tx_begin();
    m.store_u64(word(0), 42, StoreKind::Store);
    m.tx_commit();
    assert_eq!(m.device().image().read_u64(word(0)), 42);
}

#[test]
fn abort_restores_state_under_every_scheme() {
    for scheme in Scheme::ALL.into_iter().chain(Scheme::REDO) {
        abort_case(scheme, false, false);
        abort_case(scheme, true, true);
    }
}

#[test]
fn abort_with_selective_stores() {
    // Log-free updates are revoked by the caller's own recovery; the
    // hardware guarantees logged data. Aborting a mixed transaction
    // must restore every logged word; log-free words are left to the
    // application (here: still cached, so invalidation restores them
    // too when they never left the cache).
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
    m.setup_write(word(0), &1u64.to_le_bytes());
    m.setup_write(word(1), &2u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(word(0), 10, StoreKind::Store);
    m.store_u64(word(1), 20, StoreKind::log_free());
    m.tx_abort();
    assert_eq!(m.peek_u64(word(0)), 1, "logged word revoked");
    assert_eq!(
        m.peek_u64(word(1)),
        2,
        "cache-resident log-free word dropped"
    );
}

#[test]
fn abort_does_not_disturb_outstanding_lazy_data() {
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
    m.tx_begin();
    m.store_u64(word(5), 55, StoreKind::lazy_log_free());
    m.tx_commit();
    m.tx_begin();
    m.store_u64(word(6), 66, StoreKind::Store);
    m.tx_abort();
    assert_eq!(m.outstanding_lazy_txns(), 1, "lazy txn unaffected");
    assert_eq!(m.peek_u64(word(5)), 55);
    m.drain_lazy();
    assert_eq!(m.device().image().read_u64(word(5)), 55);
}

#[test]
#[should_panic(expected = "mutually exclusive")]
fn battery_plus_redo_rejected() {
    let _ = Machine::new(MachineConfig::for_scheme(Scheme::FgRedo).with_battery_backed_cache());
}

#[test]
fn crash_after_abort_does_not_replay_stale_records() {
    // Regression: the aborted transaction's persisted undo records
    // must not survive into the next recovery, or they would roll a
    // later committed value back to the aborted transaction's
    // pre-image.
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Fg).with_tiny_caches());
    m.setup_write(word(0), &7u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(word(0), 999, StoreKind::Store);
    // Overflow so the record persists (steal).
    for i in 0..512u64 {
        m.store_u64(PmAddr::new(0x80000 + i * 64), i, StoreKind::Store);
    }
    m.tx_abort();
    // A later transaction commits a new value at the same word.
    m.tx_begin();
    m.store_u64(word(0), 42, StoreKind::Store);
    m.tx_commit();
    m.crash();
    let report = m.recover();
    assert_eq!(
        m.device().image().read_u64(word(0)),
        42,
        "stale abort record replayed: {report:?}"
    );
}

/// The schemes with lazy persistency (§III-C): only under these can a
/// line hold an earlier transaction's committed lazy word.
const LAZY: [Scheme; 4] = [
    Scheme::FgLz,
    Scheme::Slpmt,
    Scheme::SlpmtCl,
    Scheme::SlpmtRedo,
];

/// Commits 55 to `word(0)` with a lazy log-free store, then stores 66
/// to the sibling word `word(0) + 8` with `kind` in a second
/// transaction and aborts it — the store takes over the lazy line
/// (§III-C1). Arms the persist-event crash scheduler at `k` when given.
fn abort_after_takeover(scheme: Scheme, kind: StoreKind, k: Option<u64>) -> Machine {
    let mut m = Machine::new(MachineConfig::for_scheme(scheme));
    arm_or_trace(&mut m, k);
    let a = word(0);
    m.tx_begin();
    m.store_u64(a, 55, StoreKind::lazy_log_free());
    m.tx_commit();
    m.tx_begin();
    m.store_u64(a.add(8), 66, kind);
    m.tx_abort();
    m
}

#[test]
fn abort_after_takeover_keeps_the_committed_lazy_word() {
    // Regression: a store takes over a line holding an earlier
    // transaction's committed lazy word. Aborting the new owner must
    // roll back only its own word: the cached line is the lazy word's
    // only copy. An undo-logged store keeps it in its pre-image; every
    // other store must force it durable before overwriting the line.
    let a = word(0);
    for scheme in LAZY {
        for kind in StoreKind::ALL {
            let mut m = abort_after_takeover(scheme, kind, None);
            let case = format!("{scheme} {kind:?}");
            assert_eq!(m.peek_u64(a), 55, "{case}: committed lazy word survives");
            assert_eq!(m.peek_u64(a.add(8)), 0, "{case}: aborted word rolled back");
            m.drain_lazy();
            assert_eq!(m.device().image().read_u64(a), 55, "{case}: durable");
            assert_eq!(m.device().image().read_u64(a.add(8)), 0, "{case}: durable");
        }
    }
}

#[cfg(not(feature = "no-trace"))]
#[test]
fn abort_after_takeover_recovers_at_every_persist_event() {
    // A takeover without an undo pre-image — a log-free store, or any
    // store under redo — forces the lazy line durable before the store
    // lands. A crash anywhere in the trace must recover the aborted
    // word to 0, and the lazy word is durable exactly once the forced
    // write-back is in the durable prefix.
    let a = word(0);
    let cases = [
        (Scheme::Slpmt, StoreKind::log_free()),
        (Scheme::Slpmt, StoreKind::lazy_log_free()),
        (Scheme::SlpmtRedo, StoreKind::Store),
        (Scheme::SlpmtRedo, StoreKind::log_free()),
    ];
    for (scheme, kind) in cases {
        let twin = abort_after_takeover(scheme, kind, None);
        assert_eq!(twin.stats().lazy_lines_forced, 1, "{scheme} {kind:?}");
        // The committing transaction deferred the line, so its first
        // data persist is the forced write-back.
        let forced = twin
            .device()
            .persist_history()
            .iter()
            .position(|e| matches!(e, PersistEvent::DataLine { addr } if *addr == a.line()))
            .expect("the takeover forces the lazy line") as u64
            + 1;
        for k in 0..=twin.persist_event_count() {
            let mut m = abort_after_takeover(scheme, kind, Some(k));
            m.crash();
            m.recover();
            let image = m.device().image();
            let case = format!("{scheme} {kind:?} k={k}");
            let want = if k >= forced { 55 } else { 0 };
            assert_eq!(image.read_u64(a), want, "{case}: committed lazy word");
            assert_eq!(image.read_u64(a.add(8)), 0, "{case}: aborted word");
        }
    }
}

/// Arms the persist-event crash scheduler at `k`, or — for the
/// crash-free twin, whose persist history the test reads back — turns
/// tracing on.
fn arm_or_trace(m: &mut Machine, k: Option<u64>) {
    match k {
        Some(k) => m.arm_crash_at_event(k),
        None => {
            m.enable_tracing(1 << 20);
        }
    }
}

/// Persist-event number (1-based) of `seq`'s commit marker.
#[cfg(not(feature = "no-trace"))]
fn marker_event(m: &Machine, seq: u64) -> u64 {
    let pos = m
        .device()
        .persist_history()
        .iter()
        .position(|e| matches!(e, PersistEvent::CommitMarker { txn } if *txn == seq))
        .expect("the later transaction commits");
    pos as u64 + 1
}

/// The `crash_after_abort_does_not_replay_stale_records` trace, with
/// the persist-event crash scheduler armed at `k` when given. Returns
/// the machine and the later transaction's sequence number.
#[cfg(not(feature = "no-trace"))]
fn abort_after_steal(k: Option<u64>) -> (Machine, u64) {
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Fg).with_tiny_caches());
    m.setup_write(word(0), &7u64.to_le_bytes());
    arm_or_trace(&mut m, k);
    m.tx_begin();
    m.store_u64(word(0), 999, StoreKind::Store);
    for i in 0..512u64 {
        m.store_u64(PmAddr::new(0x80000 + i * 64), i + 1, StoreKind::Store);
    }
    m.tx_abort();
    m.tx_begin();
    let later = m.txn_seq();
    m.store_u64(word(0), 42, StoreKind::Store);
    m.tx_commit();
    (m, later)
}

#[cfg(not(feature = "no-trace"))]
#[test]
fn abort_after_steal_recovers_at_every_persist_event() {
    // The abort repairs through the event-gated persist path, so a
    // crash may cut it anywhere: recovery must still roll the aborted
    // transaction back, and the later one is committed exactly when
    // its marker is durable.
    let (twin, later) = abort_after_steal(None);
    let marker = marker_event(&twin, later);
    for k in 0..=twin.persist_event_count() {
        let (mut m, _) = abort_after_steal(Some(k));
        m.crash();
        m.recover();
        let image = m.device().image();
        let want = if k >= marker { 42 } else { 7 };
        assert_eq!(image.read_u64(word(0)), want, "k={k}");
        for i in 0..512u64 {
            let v = image.read_u64(PmAddr::new(0x80000 + i * 64));
            assert_eq!(v, 0, "k={k}: aborted word {i} keeps its pre-image");
        }
    }
}
