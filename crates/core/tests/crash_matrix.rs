//! Systematic crash matrix: every scheme × every commit phase.
//!
//! Atomic durability means a transaction interrupted at *any* commit
//! phase is either entirely rolled back (no durable marker) or
//! entirely durable (marker persisted) after recovery — the property
//! Figure 4's orderings exist to guarantee. The matrix crashes one
//! victim transaction at each phase under each scheme and checks both
//! the victim and its committed predecessors.

use slpmt_core::{CommitStage, Machine, MachineConfig, Scheme, StoreKind};
#[cfg(not(feature = "no-trace"))]
use slpmt_pmem::PersistEvent;
use slpmt_pmem::PmAddr;

const WORDS: u64 = 12;

fn word(i: u64) -> PmAddr {
    PmAddr::new(0x10000 + i * 64)
}

/// Runs three committed transactions, then a victim transaction
/// crashed at `phase`; returns the recovered machine.
fn run_matrix_case(scheme: Scheme, phase: CommitStage, tiny: bool) -> Machine {
    let mut cfg = MachineConfig::for_scheme(scheme);
    if tiny {
        cfg = cfg.with_tiny_caches();
    }
    let mut m = Machine::new(cfg);
    // Predecessors: words i get value 100 + t.
    for t in 0..3u64 {
        m.tx_begin();
        for i in 0..WORDS {
            m.store_u64(word(i), 100 + t, StoreKind::Store);
        }
        m.tx_commit();
    }
    // Victim.
    m.tx_begin();
    for i in 0..WORDS {
        m.store_u64(word(i), 999, StoreKind::Store);
    }
    m.set_commit_crash_point(Some(phase));
    m.tx_commit();
    m.recover();
    m
}

fn check_all(m: &Machine, expected: u64, label: &str) {
    for i in 0..WORDS {
        assert_eq!(
            m.device().image().read_u64(word(i)),
            expected,
            "{label}: word {i}"
        );
    }
}

#[test]
fn undo_schemes_roll_back_before_marker_and_keep_after() {
    for scheme in [
        Scheme::Fg,
        Scheme::Slpmt,
        Scheme::FgCl,
        Scheme::Atom,
        Scheme::Ede,
    ] {
        for tiny in [false, true] {
            let m = run_matrix_case(scheme, CommitStage::Records, tiny);
            check_all(&m, 102, &format!("{scheme} tiny={tiny} after-records"));
            let m = run_matrix_case(scheme, CommitStage::Data, tiny);
            check_all(&m, 102, &format!("{scheme} tiny={tiny} after-data"));
            let m = run_matrix_case(scheme, CommitStage::Marker, tiny);
            check_all(&m, 999, &format!("{scheme} tiny={tiny} after-marker"));
        }
    }
}

#[test]
fn redo_schemes_discard_before_marker_and_replay_after() {
    for scheme in Scheme::REDO {
        for tiny in [false, true] {
            let m = run_matrix_case(scheme, CommitStage::LogFree, tiny);
            check_all(&m, 102, &format!("{scheme} tiny={tiny} after-log-free"));
            let m = run_matrix_case(scheme, CommitStage::Records, tiny);
            check_all(&m, 102, &format!("{scheme} tiny={tiny} after-records"));
            let m = run_matrix_case(scheme, CommitStage::Marker, tiny);
            check_all(&m, 999, &format!("{scheme} tiny={tiny} after-marker"));
        }
    }
}

/// Word counts of the spilled line: whole and partial 4-word groups.
const SPILL_WORDS: [u64; 5] = [2, 3, 4, 5, 8];

/// One redo transaction stores 999 into the first `n` words of one
/// line, loads 512 other lines so the tiny caches spill that line to
/// the redo shadow, reloads it and commits. Arms the persist-event
/// crash scheduler at `k` when given, else the commit crash point
/// after the log-free pass. `k = u64::MAX` is the crash-free twin: it
/// traces instead, so its persist history can be read back.
fn redo_spill_case(scheme: Scheme, n: u64, k: Option<u64>) -> Machine {
    let mut m = Machine::new(MachineConfig::for_scheme(scheme).with_tiny_caches());
    match k {
        Some(u64::MAX) => {
            m.enable_tracing(1 << 20);
        }
        Some(k) => m.arm_crash_at_event(k),
        None => m.set_commit_crash_point(Some(CommitStage::LogFree)),
    }
    m.tx_begin();
    for w in 0..n {
        m.store_u64(word(0).add(w * 8), 999, StoreKind::Store);
    }
    for i in 0..512u64 {
        m.load_u64(PmAddr::new(0x80000 + i * 64));
    }
    m.load_u64(word(0));
    m.tx_commit();
    m
}

#[test]
fn redo_spill_keeps_every_logged_word_behind_the_marker() {
    // Regression: the spill at L2→L3 kept the victim's per-group L2 log
    // bits, and the reload read them back as per-word L1 bits, so the
    // commit's pre-marker pass persisted logged words as log-free.
    for scheme in [Scheme::FgRedo, Scheme::SlpmtRedo] {
        for n in SPILL_WORDS {
            let mut m = redo_spill_case(scheme, n, None);
            m.recover();
            for w in 0..8 {
                let v = m.device().image().read_u64(word(0).add(w * 8));
                assert_eq!(v, 0, "{scheme} n={n}: word {w} of an uncommitted txn");
            }
        }
    }
}

#[cfg(not(feature = "no-trace"))]
#[test]
fn redo_spill_recovers_at_every_persist_event() {
    // The same trace cut at every persist event: each stored word is
    // durable exactly when the commit marker is.
    for scheme in [Scheme::FgRedo, Scheme::SlpmtRedo] {
        for n in SPILL_WORDS {
            let twin = redo_spill_case(scheme, n, Some(u64::MAX));
            let marker = twin
                .device()
                .persist_history()
                .iter()
                .position(|e| matches!(e, PersistEvent::CommitMarker { .. }))
                .expect("the transaction commits") as u64
                + 1;
            for k in 0..=twin.persist_event_count() {
                let mut m = redo_spill_case(scheme, n, Some(k));
                m.crash();
                m.recover();
                let want = if k >= marker { 999 } else { 0 };
                for w in 0..8 {
                    let v = m.device().image().read_u64(word(0).add(w * 8));
                    let want = if w < n { want } else { 0 };
                    assert_eq!(v, want, "{scheme} n={n} k={k}: word {w}");
                }
            }
        }
    }
}

#[test]
fn selective_stores_stay_atomic_at_every_phase() {
    // Mixed-flavour victim transaction under the full design: logged,
    // log-free and lazy words. After a pre-marker crash the logged
    // word must roll back; after the marker it must be durable. The
    // log-free word may land either way pre-marker (its recovery is
    // application-specific) but must be durable post-marker.
    for phase in [CommitStage::Records, CommitStage::Data, CommitStage::Marker] {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
        m.tx_begin();
        m.store_u64(word(0), 7, StoreKind::Store);
        m.store_u64(word(1), 8, StoreKind::log_free());
        m.store_u64(word(2), 9, StoreKind::lazy_log_free());
        m.tx_commit();
        m.drain_lazy();
        m.tx_begin();
        m.store_u64(word(0), 70, StoreKind::Store);
        m.store_u64(word(1), 80, StoreKind::log_free());
        m.store_u64(word(2), 90, StoreKind::lazy_log_free());
        m.set_commit_crash_point(Some(phase));
        m.tx_commit();
        m.recover();
        let logged = m.device().image().read_u64(word(0));
        let log_free = m.device().image().read_u64(word(1));
        let lazy = m.device().image().read_u64(word(2));
        if phase == CommitStage::Marker {
            assert_eq!(logged, 70, "{phase:?}");
            assert_eq!(log_free, 80, "{phase:?}");
            // Lazy data may still be deferred at the crash.
            assert!(lazy == 9 || lazy == 90, "{phase:?}: lazy {lazy}");
        } else {
            assert_eq!(logged, 7, "{phase:?}: logged word rolled back");
            assert!(
                log_free == 8 || log_free == 80,
                "{phase:?}: log-free {log_free}"
            );
            assert!(lazy == 9 || lazy == 90, "{phase:?}: lazy {lazy}");
        }
    }
}

#[test]
fn battery_machine_is_atomic_at_every_phase() {
    for phase in [CommitStage::Records, CommitStage::Marker] {
        let mut m =
            Machine::new(MachineConfig::for_scheme(Scheme::Slpmt).with_battery_backed_cache());
        m.tx_begin();
        for i in 0..WORDS {
            m.store_u64(word(i), 1, StoreKind::Store);
        }
        m.tx_commit();
        m.tx_begin();
        for i in 0..WORDS {
            m.store_u64(word(i), 999, StoreKind::Store);
        }
        m.set_commit_crash_point(Some(phase));
        m.tx_commit();
        m.recover();
        let expect = if phase == CommitStage::Marker { 999 } else { 1 };
        check_all(&m, expect, &format!("battery {phase:?}"));
    }
}
