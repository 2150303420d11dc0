//! Crash-during-serve chaos battery (issue 9 tentpole gate).
//!
//! Every point serves the pipelined session stream until a crash armed
//! at persist event `k` trips mid-dispatch (optionally with a media
//! fault plan), recovers, pins the zero-lost-acks contract, then
//! restarts the clients from their ack-journal watermarks and drives
//! the seeded retry/backoff tail through the degraded window to
//! oracle-checked convergence.
//!
//! The battery crosses three YCSB mixes with both SLPMT logging
//! disciplines (undo and redo), a clean crash plus the five-plan media
//! battery at nine sampled crash points each — 324 points — and
//! additionally proves:
//!
//! * non-vacuity: a deliberately poisoned recovered state fails;
//! * feature coverage: duplicate suppression, write refusal with
//!   backoff, and background scrub all actually fire;
//! * determinism: the whole sweep is byte-identical across worker
//!   counts (the `SLPMT_THREADS` contract).

use slpmt::bench::sweep::run_chaos_sweep_with;
use slpmt::core::Scheme;
use slpmt::kv::chaos::{chaos_cases, ChaosSweepReport};
use slpmt::workloads::crashsweep::default_plans;
use slpmt::workloads::runner::IndexKind;
use slpmt::workloads::ycsb::MixSpec;

const SEED: u64 = 0x009C_4A05;
const REQUESTS: usize = 40;
const POINTS_PER_PLAN: usize = 9;

fn battery(workers: usize) -> ChaosSweepReport {
    let cases = chaos_cases(
        &[Scheme::Slpmt, Scheme::SlpmtRedo],
        IndexKind::KvBtree,
        SEED,
        REQUESTS,
        &[MixSpec::YCSB_A, MixSpec::YCSB_B, MixSpec::DELETE_HEAVY],
    );
    let plans = default_plans(SEED ^ 0xFA17);
    run_chaos_sweep_with(&cases, &plans, POINTS_PER_PLAN, workers)
}

#[test]
fn chaos_battery_three_hundred_points() {
    let report = battery(0);
    assert!(
        report.points >= 300,
        "battery must sample at least 300 chaos points, got {}",
        report.points
    );
    assert!(report.is_clean(), "{report}");
    assert_eq!(
        report.strict + report.lossy,
        report.points,
        "every point must resolve strict or lossy"
    );
    assert_eq!(
        report.poison_caught, report.poison_checked,
        "every poisoned probe must be rejected"
    );
    assert!(report.poison_checked >= 6, "one poison probe per case");
    // The contract holds per point (a violation is a failure above);
    // the aggregate must also be consistent: every ack durable.
    assert!(
        report.totals.acked <= report.totals.durable,
        "aggregate ack-durability inverted: {} acked, {} durable",
        report.totals.acked,
        report.totals.durable
    );
    // Feature non-vacuity: the battery is only evidence if the paths
    // under test actually fire somewhere in the matrix.
    assert!(
        report.totals.suppressed > 0,
        "no retry was duplicate-suppressed — replay window untested"
    );
    assert!(
        report.totals.refused_writes > 0,
        "no write was refused — degraded window untested"
    );
    assert!(
        report.totals.scrubbed > 0,
        "no line was scrubbed — background scrub untested"
    );
    assert!(
        report.lossy > 0,
        "no injected plan cost a line — fault attribution untested"
    );
}

#[test]
fn chaos_battery_is_byte_identical_across_worker_counts() {
    let small = |workers: usize| {
        let cases = chaos_cases(
            &[Scheme::Slpmt, Scheme::SlpmtRedo],
            IndexKind::KvBtree,
            SEED ^ 1,
            24,
            &[MixSpec::YCSB_A],
        );
        let plans = default_plans(SEED);
        run_chaos_sweep_with(&cases, &plans, 3, workers)
    };
    let r1 = small(1);
    let r4 = small(4);
    assert_eq!(r1.digest, r4.digest);
    assert_eq!(r1.totals, r4.totals);
    assert_eq!(r1.strict, r4.strict);
    assert_eq!(r1.lossy, r4.lossy);
    assert_eq!(r1.failures, r4.failures);
    assert_eq!(r1.poison_caught, r4.poison_caught);
}
