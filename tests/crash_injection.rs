//! Crash-injection regression tests (issue 2 satellites): commit-phase
//! validation per discipline, recovery write accounting through the
//! device, crash-during-recovery idempotence, and signature
//! false-positive behaviour.

use slpmt::core::{CommitStage, Machine, MachineConfig, Scheme, Signature, StoreKind};
use slpmt::pmem::{FaultPlan, MarkerState, PersistEvent, PmAddr};

const A: PmAddr = PmAddr::new(0x10000);
const B: PmAddr = PmAddr::new(0x10080);

fn machine(scheme: Scheme) -> Machine {
    Machine::new(MachineConfig::for_scheme(scheme))
}

fn battery(scheme: Scheme) -> Machine {
    Machine::new(MachineConfig::for_scheme(scheme).with_battery_backed_cache())
}

// -------------------------------------------------------------------
// Commit-phase validation: arming a phase the discipline never visits
// must fail loudly instead of letting the commit complete with the
// crash point still armed (a vacuously passing test).

#[test]
fn undo_accepts_its_phases() {
    let mut m = machine(Scheme::Fg);
    for p in [CommitStage::Records, CommitStage::Data, CommitStage::Marker] {
        m.set_commit_crash_point(Some(p));
    }
    m.set_commit_crash_point(None);
}

#[test]
#[should_panic(expected = "never visited")]
fn undo_rejects_after_log_free() {
    machine(Scheme::Fg).set_commit_crash_point(Some(CommitStage::LogFree));
}

#[test]
fn redo_accepts_its_phases() {
    let mut m = machine(Scheme::FgRedo);
    for p in [
        CommitStage::LogFree,
        CommitStage::Records,
        CommitStage::Marker,
    ] {
        m.set_commit_crash_point(Some(p));
    }
}

#[test]
#[should_panic(expected = "never visited")]
fn redo_rejects_after_data() {
    machine(Scheme::FgRedo).set_commit_crash_point(Some(CommitStage::Data));
}

#[test]
fn battery_accepts_records_and_marker() {
    let mut m = battery(Scheme::Slpmt);
    m.set_commit_crash_point(Some(CommitStage::Records));
    m.set_commit_crash_point(Some(CommitStage::Marker));
}

#[test]
#[should_panic(expected = "never visited")]
fn battery_rejects_data_phase() {
    // Battery commit persists no data lines (§V-E).
    battery(Scheme::Slpmt).set_commit_crash_point(Some(CommitStage::Data));
}

// -------------------------------------------------------------------
// Recovery write accounting: replay goes through the device's persist
// path, so it shows up in write traffic and the persist-event trace.

#[test]
fn recovery_replay_counts_in_device_traffic() {
    let mut m = machine(Scheme::Fg);
    m.setup_write(A, &5u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(A, 99, StoreKind::Store);
    m.set_commit_crash_point(Some(CommitStage::Data));
    m.tx_commit();
    let data_before = m.device().traffic().data_lines;
    let events_before = m.device().event_count();
    let report = m.recover();
    assert!(report.undo_applied > 0);
    assert!(report.lines_persisted > 0);
    assert_eq!(
        m.device().traffic().data_lines,
        data_before + report.lines_persisted as u64,
        "every replayed line is counted as data-line write traffic"
    );
    assert!(
        m.device().event_count() > events_before,
        "replay persists are numbered persist events"
    );
    assert_eq!(m.device().image().read_u64(A), 5, "rolled back");
}

// -------------------------------------------------------------------
// Crash during recovery: a persist-event crash mid-replay must leave a
// state from which a second recovery converges (replay is idempotent
// and the log survives until the post-replay reset).

#[test]
fn undo_recovery_crash_is_idempotent() {
    let mut m = machine(Scheme::Fg);
    m.setup_write(A, &5u64.to_le_bytes());
    m.setup_write(B, &6u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(A, 99, StoreKind::Store);
    m.store_u64(B, 100, StoreKind::Store);
    m.set_commit_crash_point(Some(CommitStage::Data));
    m.tx_commit();
    // First recovery attempt dies after its first replay persist:
    // every later durable mutation (more replays, the log reset) is
    // dropped.
    m.arm_crash_at_event(m.device().event_count() + 1);
    let _ = m.recover();
    assert!(m.crash_tripped(), "the replay tripped the scheduler");
    m.crash();
    let report = m.recover();
    assert!(report.undo_applied > 0, "log survived the interrupted pass");
    assert_eq!(m.device().image().read_u64(A), 5);
    assert_eq!(m.device().image().read_u64(B), 6);
    // A third pass finds a clean log.
    assert_eq!(m.recover().undo_applied, 0);
}

#[test]
fn redo_recovery_crash_is_idempotent() {
    let mut m = machine(Scheme::FgRedo);
    m.setup_write(A, &5u64.to_le_bytes());
    m.setup_write(B, &6u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(A, 99, StoreKind::Store);
    m.store_u64(B, 100, StoreKind::Store);
    m.set_commit_crash_point(Some(CommitStage::Marker));
    m.tx_commit();
    m.arm_crash_at_event(m.device().event_count() + 1);
    let _ = m.recover();
    assert!(m.crash_tripped());
    m.crash();
    let report = m.recover();
    assert_eq!(report.replayed, vec![1]);
    assert_eq!(m.device().image().read_u64(A), 99);
    assert_eq!(m.device().image().read_u64(B), 100);
    assert_eq!(m.recover().redo_applied, 0);
}

// -------------------------------------------------------------------
// Torn commit markers: the 16-byte marker can tear at either of its
// two 8-byte words. In every discipline × persistency combination a
// torn marker must read as *absent* — the transaction stays
// uncommitted, recovery rolls it back (undo) or skips its replay
// (redo), and the pre-transaction value survives.

#[test]
fn torn_marker_leaves_txn_uncommitted_in_every_discipline() {
    for scheme in [Scheme::Fg, Scheme::FgLz, Scheme::FgRedo, Scheme::SlpmtRedo] {
        let run = |tear: Option<(u8, u64)>| -> Machine {
            let mut m = machine(scheme);
            m.setup_write(A, &5u64.to_le_bytes());
            if tear.is_none() {
                // The twin: its persist history is read back below.
                m.enable_tracing(1 << 16);
            }
            if let Some((w, k)) = tear {
                m.set_fault_plan(FaultPlan {
                    seed: 7,
                    tear: true,
                    tear_word: Some(w),
                    ..FaultPlan::NONE
                });
                m.arm_crash_at_event(k);
            }
            m.tx_begin();
            m.store_u64(A, 99, StoreKind::Store);
            m.tx_commit();
            m
        };
        // Twin run locates the marker's persist-event number.
        let twin = run(None);
        let marker_k = twin
            .device()
            .persist_history()
            .iter()
            .position(|e| matches!(e, PersistEvent::CommitMarker { .. }))
            .expect("commit persists a marker") as u64
            + 1;
        for w in [0u8, 1] {
            let mut m = run(Some((w, marker_k)));
            assert!(m.crash_tripped(), "{scheme} w={w}: tear trips the crash");
            m.crash();
            let log = m.device().log();
            assert!(
                matches!(log.marker_state(1), Some(MarkerState::Torn(_))),
                "{scheme} w={w}: marker must be durably torn"
            );
            assert!(
                !log.is_committed(1),
                "{scheme} w={w}: torn marker must not commit"
            );
            assert_eq!(
                log.max_committed_seq(),
                0,
                "{scheme} w={w}: no durably committed transaction"
            );
            let report = m.recover();
            assert_eq!(report.torn_markers, 1, "{scheme} w={w}");
            assert!(
                report.lost_lines.is_empty(),
                "{scheme} w={w}: no media loss"
            );
            assert_eq!(
                m.device().image().read_u64(A),
                5,
                "{scheme} w={w}: pre-transaction value survives"
            );
        }
    }
}

// -------------------------------------------------------------------
// Batched WPQ drains: with tracing off, the device timing-batches a
// log pack through `WritePendingQueue::push_chain` instead of looping
// per-record pushes. The batch must be invisible to everything the
// crash and fault machinery observes — persist-event numbering, WPQ
// stall/drain accounting, and the durable state an armed crash or
// fault plan leaves behind. Each test drives a plain machine (batched
// path) and a tracing twin (per-push path) through identical inputs
// and demands identical observables.

/// Commit-heavy FG workload: every store logs, every commit flushes a
/// multi-record pack through the batched drain.
fn drive(m: &mut Machine) {
    for t in 0..6u64 {
        m.tx_begin();
        for i in 0..10u64 {
            m.store_u64(
                PmAddr::new(0x2_0000 + (t * 10 + i) * 64),
                t * 100 + i + 1,
                StoreKind::Store,
            );
        }
        m.tx_commit();
    }
}

#[test]
fn batched_drain_matches_per_push_timing_and_numbering() {
    let mut plain = machine(Scheme::Fg);
    let mut traced = machine(Scheme::Fg);
    let _h = traced.enable_tracing(1 << 14);
    drive(&mut plain);
    drive(&mut traced);
    assert_eq!(plain.now(), traced.now(), "simulated clock");
    assert_eq!(
        plain.persist_event_count(),
        traced.persist_event_count(),
        "persist-event numbering"
    );
    assert_eq!(
        plain.device().wpq_stall_cycles(),
        traced.device().wpq_stall_cycles(),
        "full-queue stall accounting"
    );
    assert_eq!(
        plain.device().drained_by(plain.now()),
        traced.device().drained_by(traced.now()),
        "drained_by horizon"
    );
    assert_eq!(plain.device().traffic(), traced.device().traffic());
    assert_eq!(plain.stats(), traced.stats());
}

#[test]
fn batched_drain_matches_per_push_under_drain_jitter() {
    // A non-zero jitter window perturbs every drain completion via the
    // per-push counter — the exact state push_chain must thread
    // through the batch.
    let plan = FaultPlan {
        seed: 23,
        jitter: 700,
        ..FaultPlan::NONE
    };
    let mut plain = machine(Scheme::Fg);
    plain.set_fault_plan(plan);
    let mut traced = machine(Scheme::Fg);
    traced.set_fault_plan(plan);
    let _h = traced.enable_tracing(1 << 14);
    drive(&mut plain);
    drive(&mut traced);
    assert_eq!(plain.now(), traced.now());
    assert_eq!(
        plain.device().drained_by(plain.now()),
        traced.device().drained_by(traced.now())
    );
    assert_eq!(
        plain.device().wpq_stall_cycles(),
        traced.device().wpq_stall_cycles()
    );
}

#[test]
fn batched_drain_preserves_crash_point_semantics() {
    // Sweep every persist-event crash point of the workload: the
    // batched path must trip at the same event and leave the same
    // durable state as the per-push path, and both must recover to the
    // same image.
    let total = {
        let mut m = machine(Scheme::Fg);
        drive(&mut m);
        m.persist_event_count()
    };
    assert!(total > 12, "workload persists enough events to sweep");
    for k in 1..=total {
        let run = |tracing: bool| -> (bool, u64, Machine) {
            let mut m = machine(Scheme::Fg);
            if tracing {
                let _h = m.enable_tracing(1 << 14);
            }
            m.arm_crash_at_event(k);
            drive(&mut m);
            let tripped = m.crash_tripped();
            m.crash();
            (tripped, m.device().event_count(), m)
        };
        let (pt, pe, mut plain) = run(false);
        let (tt, te, mut traced) = run(true);
        assert_eq!(pt, tt, "k={k}: trip");
        assert_eq!(pe, te, "k={k}: durable event count");
        let pr = plain.recover();
        let tr = traced.recover();
        assert_eq!(pr.undo_applied, tr.undo_applied, "k={k}");
        assert_eq!(pr.rolled_back, tr.rolled_back, "k={k}");
        for t in 0..6u64 {
            for i in 0..10u64 {
                let a = PmAddr::new(0x2_0000 + (t * 10 + i) * 64);
                assert_eq!(
                    plain.device().image().read_u64(a),
                    traced.device().image().read_u64(a),
                    "k={k}: post-recovery image at {a:?}"
                );
            }
        }
    }
}

#[test]
fn batched_drain_preserves_fault_plan_outcomes() {
    // Tear + poison + flip at a mid-pack crash point: the injected
    // damage derives from persist-event numbering and the touched-line
    // set, both of which the batch must keep identical.
    let plan = FaultPlan {
        seed: 11,
        tear: true,
        tear_word: None,
        poison_lines: 2,
        flip_records: 1,
        jitter: 0,
    };
    let k = 9;
    let run = |tracing: bool| -> Machine {
        let mut m = machine(Scheme::Fg);
        if tracing {
            let _h = m.enable_tracing(1 << 14);
        }
        m.set_fault_plan(plan);
        m.arm_crash_at_event(k);
        drive(&mut m);
        assert!(m.crash_tripped());
        m.crash();
        m
    };
    let mut plain = run(false);
    let mut traced = run(true);
    assert_eq!(
        plain.device().poisoned_line_addrs(),
        traced.device().poisoned_line_addrs(),
        "poison targets"
    );
    let pr = plain.recover();
    let tr = traced.recover();
    assert_eq!(pr.torn_records, tr.torn_records);
    assert_eq!(pr.corrupt_records, tr.corrupt_records);
    assert_eq!(pr.salvaged_lines, tr.salvaged_lines);
    assert_eq!(pr.lost_lines, tr.lost_lines);
    for t in 0..6u64 {
        for i in 0..10u64 {
            let a = PmAddr::new(0x2_0000 + (t * 10 + i) * 64);
            assert_eq!(
                plain.device().image().read_u64(a),
                traced.device().image().read_u64(a),
                "post-recovery image at {a:?}"
            );
        }
    }
}

// -------------------------------------------------------------------
// Signature false positives: aliasing in the dependency signature may
// force-persist transactions that were not actually depended on, but
// must never change post-recovery values.

#[test]
fn signature_aliasing_forces_but_preserves_values() {
    // Find a line that aliases `probe` in a fresh signature.
    let probe = PmAddr::new(0x8000);
    let mut sig = Signature::new();
    sig.insert(probe);
    let alias = (1..1_000_000u64)
        .map(|i| PmAddr::new(0x8000 + i * 64))
        .find(|a| sig.maybe_contains(*a))
        .expect("a finite signature must alias some other line");

    let mut m = machine(Scheme::Slpmt);
    m.setup_write(probe, &1u64.to_le_bytes());
    // Txn 1 derives a lazily-persistent value from `probe`.
    m.tx_begin();
    let v = m.load_u64(probe);
    m.store_u64(A, v + 10, StoreKind::lazy_logged());
    m.tx_commit();
    assert_eq!(m.device().image().read_u64(A), 0, "deferred, not durable");
    // Txn 2 persists an unrelated line that merely *aliases* the
    // signature: the false positive forces txn 1's deferral durable.
    m.tx_begin();
    m.store_u64(alias, 42, StoreKind::Store);
    m.tx_commit();
    assert!(
        m.stats().lazy_lines_forced > 0,
        "the aliased persist forced the deferred line"
    );
    m.crash();
    m.recover();
    assert_eq!(m.device().image().read_u64(A), 11, "forced value correct");
    assert_eq!(m.device().image().read_u64(alias), 42);
}
