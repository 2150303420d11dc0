//! The service-boundary crash battery: crash and media-fault sweeps
//! through the chaos harness (`slpmt::kv::chaos::ChaosTarget`), driven
//! by the generic sweep driver (`slpmt::bench::sweep`). Every request
//! travels request → wire encoding → session buffer → codec parse →
//! dispatch → facade transaction over 4 pipelined sessions before the
//! crash lands; recovery goes through the facade's crash-to-ready
//! sequence; the clients then retry their un-acked tail to
//! convergence. Each point checks the durable prefix and the converged
//! state against the engine's `StreamingOracle`, the structure's
//! invariants and the heap (no allocation may leak).
//!
//! The battery samples ≥ 200 crash points across schemes, backends
//! and mixes, then runs the five-plan media-fault battery at sampled
//! points with the engine's degradation rules (no torn/corrupt state
//! without a matching knob, every lost line traced to an injected
//! fault, strict oracle when nothing was lost).

use slpmt::bench::sweep::{run_sweep, Points, CLEAN};
use slpmt::core::Scheme;
use slpmt::kv::chaos::{
    count_chaos_events, poison_caught, run_chaos_point, ChaosCase, ChaosOutcome, ChaosTarget,
};
use slpmt::workloads::crashsweep::default_plans;
use slpmt::workloads::runner::IndexKind;
use slpmt::workloads::ycsb::MixSpec;

/// The sweep matrix: schemes × backends × mixes chosen to cover the
/// ordered and unordered dispatch paths, the delete-heavy free path,
/// and the CAS (read-modify-write) path.
fn cases() -> Vec<ChaosCase> {
    vec![
        ChaosCase::new(Scheme::Slpmt, IndexKind::KvBtree, 101, 70),
        ChaosCase::new(Scheme::Slpmt, IndexKind::Hashtable, 102, 70),
        ChaosCase::new(Scheme::Slpmt, IndexKind::KvBtree, 103, 70).with_mix(MixSpec::YCSB_F),
        ChaosCase::new(Scheme::Fg, IndexKind::KvBtree, 104, 70).with_mix(MixSpec::DELETE_HEAVY),
        ChaosCase::new(Scheme::Slpmt, IndexKind::KvBtree, 105, 60).with_mix(MixSpec::YCSB_E),
    ]
}

#[test]
fn service_crash_battery_two_hundred_points() {
    const POINTS_PER_CASE: usize = 48;
    let cases = cases();
    let report = run_sweep(
        &ChaosTarget,
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
        ChaosCase::new(Scheme::Slpmt, IndexKind::KvBtree, 201, 50).with_mix(MixSpec::YCSB_F),
        ChaosCase::new(Scheme::Slpmt, IndexKind::Hashtable, 202, 50)
            .with_mix(MixSpec::DELETE_HEAVY),
    ];
    let plans = default_plans(0x8EED_FA17);
    assert_eq!(plans.len(), 5, "the battery is defined as five plans");
    let report = run_sweep(&ChaosTarget, &fault_cases, &plans, Points::Sampled(6));
    assert!(report.points() > 0);
    assert!(
        report.is_clean(),
        "{} fault points failed:\n{report}",
        report.failures.len()
    );
}

#[test]
fn crash_point_failures_would_be_reported() {
    // Sanity for the harness itself: a recovered state corrupted
    // before the oracle check must fail the point, at the first
    // persist event, mid-stream and at the end, while the same points
    // pass unpoisoned — the battery can detect divergence (no vacuous
    // pass).
    let case = ChaosCase::new(Scheme::Slpmt, IndexKind::KvBtree, 301, 50);
    let n = count_chaos_events(&case);
    assert!(n > 0);
    for k in [1, n / 2, n] {
        assert!(
            matches!(
                run_chaos_point(&case, None, k, false),
                Ok(ChaosOutcome::Strict(_))
            ),
            "{case} @k={k}: the unpoisoned point must hold the contract"
        );
        assert!(
            poison_caught(&case, k),
            "{case} @k={k}: a poisoned recovered state must fail the check"
        );
    }
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
