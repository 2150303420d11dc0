//! Crash and media-fault sweeps under the named YCSB mixes — the
//! adversarial-traffic battery for the Pattern-1 free path.
//!
//! The delete-heavy mixes (≥ 30% removes plus the inserts that refill
//! the keyspace) keep lines cycling through free → reallocate → free,
//! which is exactly where deferred-free bookkeeping bugs live; the
//! zipfian variants concentrate that churn on a migrating hot set so
//! the *same* lines are recycled across phases. Every point is checked
//! by the streaming recovery oracle (`slpmt::workloads::crashsweep::
//! StreamingOracle`) — one model advanced monotonically through each
//! chunk of sampled crash points, never rebuilt per point.
//!
//! Failures print reproducible `(scheme, workload, seed, k, mix)`
//! tuples; replay one with `slpmt faults --scheme S --workload W
//! --seed N --at K` after switching the case to the same mix, or
//! through `slpmt ycsb --mix M --scheme S --workload W --sweep`.

use slpmt::bench::sweep::{run_sweep, sweep_cases_mixed, Points, CLEAN};
use slpmt::core::sweep::SweepReport;
use slpmt::core::Scheme;
use slpmt::pmem::FaultPlan;
use slpmt::workloads::crashsweep::{
    default_plans, run_at, sweep_points, trace_ops, EngineTarget, StreamingOracle, SweepCase,
    SWEEP_SCHEMES,
};
use slpmt::workloads::runner::IndexKind;
use slpmt::workloads::ycsb::MixSpec;

const SEED: u64 = 42;

/// The sampled clean-crash sweep of a case matrix.
fn sampled(cases: &[SweepCase], points: usize) -> SweepReport<SweepCase> {
    run_sweep(&EngineTarget, cases, &CLEAN, Points::Sampled(points))
}

/// The four in-place kernels of the paper's Figure 8 matrix.
const KERNELS: [IndexKind; 4] = [
    IndexKind::Hashtable,
    IndexKind::Rbtree,
    IndexKind::Heap,
    IndexKind::Avl,
];

/// The four PMKV tree backends (Figure 14).
const KV_TREES: [IndexKind; 4] = [
    IndexKind::KvBtree,
    IndexKind::KvCtree,
    IndexKind::KvRtree,
    IndexKind::KvSkiplist,
];

#[test]
fn gate_delete_heavy_kernels_all_schemes() {
    // All ten schemes × the four kernels under uniform delete-heavy
    // traffic: 40 cells × 6 sampled points ≥ 200 oracle-checked
    // crash points hammering the deferred-free path.
    let cases = sweep_cases_mixed(
        &SWEEP_SCHEMES,
        &KERNELS,
        SEED,
        10,
        30,
        MixSpec::DELETE_HEAVY,
    );
    let report = sampled(&cases, 6);
    assert!(report.points() >= 200, "only {} points", report.points());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn gate_delete_heavy_kv_trees_all_schemes() {
    // Same battery over the PMKV tree backends, whose node splits /
    // merges allocate and free internal lines of their own.
    let cases = sweep_cases_mixed(
        &SWEEP_SCHEMES,
        &KV_TREES,
        SEED,
        10,
        30,
        MixSpec::DELETE_HEAVY,
    );
    let report = sampled(&cases, 6);
    assert!(report.points() >= 200, "only {} points", report.points());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn gate_zipfian_churn_concentrates_recycling() {
    // Zipfian delete-heavy churn: the hot set migrates every 64 ops,
    // so the same lines are freed, reallocated and re-freed. A smaller
    // scheme subset (each Figure 4 commit sequence represented) at
    // more points per cell.
    let schemes = [
        Scheme::Fg,
        Scheme::FgLz,
        Scheme::Slpmt,
        Scheme::SlpmtCl,
        Scheme::FgRedo,
        Scheme::SlpmtRedo,
    ];
    let kinds = [IndexKind::Hashtable, IndexKind::Rbtree];
    let cases = sweep_cases_mixed(&schemes, &kinds, SEED, 16, 40, MixSpec::DELETE_HEAVY_ZIPF);
    let report = sampled(&cases, 8);
    assert!(report.points() >= 90, "only {} points", report.points());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn gate_scan_and_rmw_mixes_survive_crashes() {
    // YCSB E (range scans) and F (read-modify-write) on ordered
    // backends: scans are membership-neutral but stress recovery of
    // the link structure; RMW doubles the update pressure per key.
    let mut cases = sweep_cases_mixed(
        &[Scheme::Slpmt, Scheme::SlpmtRedo],
        &[IndexKind::KvBtree, IndexKind::KvSkiplist],
        SEED,
        20,
        40,
        MixSpec::YCSB_E,
    );
    cases.extend(sweep_cases_mixed(
        &[Scheme::Slpmt, Scheme::Fg],
        &[IndexKind::Rbtree, IndexKind::Avl],
        SEED,
        20,
        40,
        MixSpec::YCSB_F,
    ));
    let report = sampled(&cases, 6);
    assert!(report.points() >= 40, "only {} points", report.points());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn gate_delete_heavy_media_faults() {
    // The media-fault battery (torn boundary event, poisoned lines,
    // flipped log bits, drain jitter) under delete-heavy traffic:
    // recovery must degrade by the rules even while the free path is
    // churning.
    let bases = sweep_cases_mixed(
        &[Scheme::Fg, Scheme::Slpmt, Scheme::SlpmtRedo],
        &[IndexKind::Hashtable, IndexKind::Heap],
        SEED,
        8,
        20,
        MixSpec::DELETE_HEAVY,
    );
    let plans = default_plans(SEED);
    let report = run_sweep(&EngineTarget, &bases, &plans, Points::Sampled(2));
    assert!(report.points() > 0);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn oracle_work_stays_linear_across_a_sweep() {
    // One oracle serving every sampled point of a case accumulates at
    // most one model mutation per trace operation — the O(n) bound
    // that replaced the per-point rebuild (which cost O(points · n)).
    let case = SweepCase::with_mix(
        Scheme::Slpmt,
        IndexKind::Hashtable,
        SEED,
        50,
        400,
        MixSpec::DELETE_HEAVY_ZIPF,
    );
    let ops = trace_ops(&case);
    let points = sweep_points(&case, 32);
    assert!(points.len() >= 16);
    let mut oracle = StreamingOracle::new(&ops);
    for &k in &points {
        run_at(&case, &FaultPlan::NONE, &mut oracle, k).unwrap();
    }
    assert!(
        oracle.work() <= ops.len() as u64,
        "oracle did {} mutations over a {}-op trace",
        oracle.work(),
        ops.len()
    );
}

/// Nightly: a million delete-heavy operations swept at sampled crash
/// points, proving the streaming oracle's cost is linear in the trace
/// (the retired `oracle_after` rebuilt an owned model per point —
/// O(points · n) — and cloned every payload). Run with
/// `cargo test --release --test ycsb_sweeps -- --ignored`.
#[test]
#[ignore = "million-op trace; run nightly or on demand"]
fn nightly_million_op_delete_heavy_sweep() {
    let case = SweepCase::with_mix(
        Scheme::Slpmt,
        IndexKind::Hashtable,
        SEED,
        1000,
        1_000_000,
        MixSpec::DELETE_HEAVY_ZIPF,
    );
    let ops = trace_ops(&case);
    assert_eq!(ops.len(), 1000 + 1_000_000);
    let points = sweep_points(&case, 4);
    let mut oracle = StreamingOracle::new(&ops);
    for &k in &points {
        run_at(&case, &FaultPlan::NONE, &mut oracle, k).unwrap();
    }
    assert!(
        oracle.work() <= ops.len() as u64,
        "oracle did {} mutations over a {}-op trace",
        oracle.work(),
        ops.len()
    );
}

/// Nightly: the full named-mix × scheme matrix on the kernels, wider
/// than the PR gate. Run with
/// `cargo test --release --test ycsb_sweeps -- --ignored`.
#[test]
#[ignore = "wide matrix; run nightly or on demand"]
fn nightly_named_mix_matrix() {
    for (name, mix) in MixSpec::NAMED {
        let cases = sweep_cases_mixed(&SWEEP_SCHEMES, &KERNELS, SEED, 30, 120, *mix);
        let report = sampled(&cases, 8);
        println!("mix {name}: {report}");
        assert!(report.is_clean(), "mix {name}: {report}");
    }
}
