//! Crash and media-fault sweeps *through the service facade* (issue 8
//! satellite): every operation travels request → wire encoding →
//! codec parse → dispatch → facade transaction before the crash
//! lands, and recovery goes through the facade's crash-to-ready
//! sequence (`KvStore::replay` then `rebuild`), driven by the generic
//! sweep driver (`slpmt::bench::sweep`). The oracle is the engine's
//! `StreamingOracle`, advanced monotonically over each case so the
//! whole sweep pays O(trace) model work.
//!
//! The battery samples ≥ 200 crash points across schemes, backends
//! and mixes, then runs the five-plan media-fault battery at sampled
//! points with the engine's degradation rules (no torn/corrupt state
//! without a matching knob, every lost line traced to an injected
//! fault, strict oracle when nothing was lost).

use slpmt::bench::sweep::{run_sweep, Points, CLEAN};
use slpmt::core::sweep::guarded;
use slpmt::core::Scheme;
use slpmt::kv::sweep::{count_service_events, run_at, service_ops, KvSweepCase, ServiceTarget};
use slpmt::pmem::FaultPlan;
use slpmt::workloads::crashsweep::{default_plans, StreamingOracle};
use slpmt::workloads::runner::IndexKind;
use slpmt::workloads::ycsb::MixSpec;

/// The sweep matrix: schemes × backends × mixes chosen to cover the
/// ordered and unordered dispatch paths, the delete-heavy free path,
/// and the CAS (read-modify-write) path.
fn cases() -> Vec<KvSweepCase> {
    vec![
        KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 101, 70),
        KvSweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 102, 70),
        KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 103, 70).with_mix(MixSpec::YCSB_F),
        KvSweepCase::new(Scheme::Fg, IndexKind::KvBtree, 104, 70).with_mix(MixSpec::DELETE_HEAVY),
        KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 105, 60).with_mix(MixSpec::YCSB_E),
    ]
}

#[test]
fn service_crash_battery_two_hundred_points() {
    const POINTS_PER_CASE: usize = 48;
    let cases = cases();
    let report = run_sweep(
        &ServiceTarget,
        &cases,
        &CLEAN,
        Points::Sampled(POINTS_PER_CASE),
    );
    for (case, n) in cases.iter().zip(&report.events) {
        assert!(n.is_some_and(|n| n > 0), "{case}: no persist events");
    }
    let total = report.points();
    assert!(
        total >= 200,
        "battery must sample at least 200 crash points, got {total}"
    );
    assert!(
        report.is_clean(),
        "{} of {total} facade crash points failed:\n{report}",
        report.failures.len()
    );
}

#[test]
fn service_fault_battery_five_plans() {
    // Two cases through every default plan: the write-heavy CAS mix on
    // the ordered backend and delete churn on the hash backend.
    let fault_cases = [
        KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 201, 50).with_mix(MixSpec::YCSB_F),
        KvSweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 202, 50)
            .with_mix(MixSpec::DELETE_HEAVY),
    ];
    let plans = default_plans(0x8EED_FA17);
    assert_eq!(plans.len(), 5, "the battery is defined as five plans");
    let report = run_sweep(&ServiceTarget, &fault_cases, &plans, Points::Sampled(6));
    assert!(report.points() > 0);
    assert!(
        report.is_clean(),
        "{} fault points failed:\n{report}",
        report.failures.len()
    );
}

#[test]
fn crash_point_failures_would_be_reported() {
    // Sanity for the harness itself: an oracle advanced beyond the
    // committed prefix must make the check fail, proving the battery
    // can actually detect divergence (no vacuous pass).
    let case = KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 301, 50);
    assert!(count_service_events(&case) > 0);
    let (ops, _) = service_ops(&case);
    let mut poisoned = StreamingOracle::new(&ops);
    // Advance the model to the full trace, then crash at the very
    // first persist event: the recovered store cannot match.
    poisoned.advance_to(ops.len());
    let fail = guarded(|| run_at(&case, &FaultPlan::NONE, &mut poisoned, 1));
    assert!(
        fail.is_err(),
        "a maximally advanced oracle must flag an early crash"
    );
}

#[test]
fn recovery_to_ready_is_idempotent() {
    // Crash-to-ready through the facade twice in a row: the second
    // recovery must see the same state (recovery leaves a committed
    // image behind).
    use slpmt::kv::store::KvStore;
    let mut s = KvStore::open(Scheme::Slpmt, IndexKind::KvBtree, 16);
    s.prefault(32);
    for k in 0..20u64 {
        s.set(k, format!("v{k:013}").as_bytes());
    }
    s.delete(3);
    s.crash();
    s.recover();
    let first: Vec<_> = s.scan(0, u64::MAX).expect("ordered");
    s.crash();
    s.recover();
    let second: Vec<_> = s.scan(0, u64::MAX).expect("ordered");
    assert_eq!(first, second, "second recovery diverged");
    assert_eq!(first.len(), 19);
    s.check_invariants()
        .expect("invariants after double recovery");
}
