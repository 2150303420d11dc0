//! The generic crash-sweep driver against a fake [`CrashTarget`]: a
//! battery whose verdicts are chosen up front, so the driver's own
//! contract — failure order, crash-free failures, chunking, worker
//! invariance, panic-hook hygiene — is checked without simulating
//! anything.

use slpmt_bench::sweep::{run_sweep_with, Points, CLEAN};
use slpmt_core::{CrashTarget, TraceRecord};
use slpmt_pmem::FaultPlan;
use std::collections::BTreeSet;
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The driver silences the process-wide panic hook while it runs, so
/// the tests in this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Case `c` has `60 + 20·c` persist events; counting case
/// `PANICKING` panics; points in `fail_at` fail; a chunk holding a
/// point in `panic_at` panics as a whole. Every chunk it is handed is
/// recorded.
struct Fake {
    fail_at: BTreeSet<u64>,
    panic_at: BTreeSet<u64>,
    chunks: Mutex<Vec<(u64, FaultPlan, Vec<u64>)>>,
}

const PANICKING: u64 = 7;

impl Fake {
    fn new(fail_at: &[u64], panic_at: &[u64]) -> Self {
        Fake {
            fail_at: fail_at.iter().copied().collect(),
            panic_at: panic_at.iter().copied().collect(),
            chunks: Mutex::new(Vec::new()),
        }
    }

    fn sorted_chunks(&self) -> Vec<(u64, FaultPlan, Vec<u64>)> {
        let mut chunks = self.chunks.lock().unwrap().clone();
        chunks.sort_by_key(|(case, plan, ks)| (*case, plan.seed, ks.first().copied()));
        chunks
    }
}

impl CrashTarget for Fake {
    type Case = u64;
    type Outcome = u64;
    const LABEL: &'static str = "fake";

    fn count(&self, case: &u64) -> u64 {
        assert_ne!(*case, PANICKING, "count exploded");
        60 + 20 * case
    }

    fn seed(&self, case: &u64, plan: &FaultPlan) -> u64 {
        case ^ plan.seed
    }

    fn check(&self, case: &u64, plan: &FaultPlan, ks: &[u64]) -> Vec<Result<u64, String>> {
        self.chunks
            .lock()
            .unwrap()
            .push((*case, *plan, ks.to_vec()));
        if ks.iter().any(|k| self.panic_at.contains(k)) {
            panic!("chunk exploded");
        }
        ks.iter()
            .map(|&k| {
                if self.fail_at.contains(&k) {
                    Err(format!("bad point {k}"))
                } else {
                    Ok(k)
                }
            })
            .collect()
    }

    fn trace(&self, _case: &u64, _plan: &FaultPlan, _k: u64) -> Vec<TraceRecord> {
        Vec::new()
    }
}

/// A second plan, so cell order is visible in the failure order.
const TEAR: FaultPlan = FaultPlan {
    seed: 5,
    tear: true,
    ..FaultPlan::NONE
};

#[test]
fn failures_come_back_once_each_in_point_order() {
    let _turn = serial();
    let fake = Fake::new(&[0, 17, 40, 99], &[]);
    let plans = [FaultPlan::NONE, TEAR];
    let report = run_sweep_with(&fake, &[1, 2], &plans, Points::Exhaustive, 4);
    let got: Vec<(u64, u64, Option<u64>)> = report
        .failures
        .iter()
        .map(|f| (f.case, f.plan.seed, f.k))
        .collect();
    // Case-major, then plan order, then ascending k; case 1 has only
    // 80 events, so k = 99 fails in case 2 alone.
    let mut want = Vec::new();
    for (case, ks) in [(1, &[0, 17, 40][..]), (2, &[0, 17, 40, 99][..])] {
        for plan in &plans {
            want.extend(ks.iter().map(|&k| (case, plan.seed, Some(k))));
        }
    }
    assert_eq!(got, want);
    assert_eq!(
        report.failures[1].to_string(),
        "fake FAIL 1 k=17: bad point 17"
    );
    // Exhaustive domains are 0..=N: 81 + 101 points per plan.
    assert_eq!(report.points(), 2 * (81 + 101));
    assert_eq!(report.events, vec![Some(80), Some(100)]);
    // Passing outcomes keep point order around the failures.
    let case1: Vec<Option<u64>> = report.outcomes[..19].to_vec();
    let mut want1: Vec<Option<u64>> = (0..19).map(Some).collect();
    want1[0] = None;
    want1[17] = None;
    assert_eq!(case1, want1);
}

#[test]
fn a_panicking_count_is_one_crash_free_failure_and_no_points() {
    let _turn = serial();
    let fake = Fake::new(&[], &[]);
    let plans = [FaultPlan::NONE, TEAR];
    let report = run_sweep_with(&fake, &[PANICKING, 1], &plans, Points::Sampled(6), 2);
    assert_eq!(report.failures.len(), 1, "{report}");
    let fail = &report.failures[0];
    assert_eq!((fail.case, fail.k), (PANICKING, None));
    assert!(fail.detail.contains("count exploded"), "{}", fail.detail);
    assert_eq!(report.events, vec![None, Some(80)]);
    assert_eq!(report.cases, 4);
    assert_eq!(report.points(), 2 * 6, "only case 1 yields points");
    assert!(fake.sorted_chunks().iter().all(|(case, _, _)| *case == 1));
}

#[test]
fn a_panicking_chunk_fails_each_of_its_points() {
    let _turn = serial();
    let fake = Fake::new(&[], &[3]);
    let report = run_sweep_with(&fake, &[1], &CLEAN, Points::Exhaustive, 1);
    // Chunks of 16 points: the first chunk (0..=15) panics as a whole.
    assert_eq!(report.failures.len(), 16);
    assert!(report
        .failures
        .iter()
        .all(|f| f.detail == "panic: chunk exploded"));
    assert_eq!(report.outcomes[16], Some(16));
}

#[test]
fn chunks_and_report_are_identical_at_one_and_four_workers() {
    let _turn = serial();
    let plans = [
        FaultPlan::NONE,
        FaultPlan {
            seed: 9,
            poison_lines: 1,
            ..FaultPlan::NONE
        },
    ];
    for points in [Points::Exhaustive, Points::Sampled(40)] {
        let one = Fake::new(&[5, 600, 1201], &[]);
        let four = Fake::new(&[5, 600, 1201], &[]);
        let r1 = run_sweep_with(&one, &[3, 60, 2], &plans, points, 1);
        let r4 = run_sweep_with(&four, &[3, 60, 2], &plans, points, 4);
        assert_eq!(r1, r4);
        assert_eq!(one.sorted_chunks(), four.sorted_chunks());
        // Every chunk is ascending, and the big case spans several.
        let chunks = one.sorted_chunks();
        assert!(chunks
            .iter()
            .all(|(_, _, ks)| ks.windows(2).all(|w| w[0] < w[1])));
        if points == Points::Exhaustive {
            assert!(chunks.iter().filter(|(case, _, _)| *case == 60).count() > 2);
        }
    }
}

#[test]
fn the_panic_hook_is_silenced_then_restored() {
    let _turn = serial();
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| {
        seen.fetch_add(1, Ordering::SeqCst);
    }));
    let fake = Fake::new(&[], &[1]);
    let report = run_sweep_with(&fake, &[PANICKING, 1], &CLEAN, Points::Exhaustive, 2);
    assert_eq!(report.failures.len(), 1 + 16);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        0,
        "sweep panics reached the hook"
    );
    assert!(catch_unwind(|| panic!("after the sweep")).is_err());
    assert_eq!(calls.load(Ordering::SeqCst), 1, "hook not restored");
    std::panic::set_hook(previous);
}
