//! The generic crash-sweep driver.
//!
//! Every crash battery — engine crash and media-fault sweeps
//! ([`EngineTarget`](slpmt_workloads::crashsweep::EngineTarget)), the
//! service boundary's crash-during-serve chaos ([`ChaosTarget`]) and
//! multi-core interleavings ([`McTarget`](slpmt_core::McTarget)) — is a
//! [`CrashTarget`]. This module sweeps any of them over a case × plan
//! matrix on the [`runner`](crate::runner) worker pool:
//!
//! 1. The default panic hook is silenced for the sweep: every panic is
//!    caught and reported as a failure tuple, so backtraces are noise.
//! 2. One [`par_map_with`] pass counts each case's persist events `N`
//!    (the crash-free run is itself oracle-checked). A panic there is
//!    one crash-free failure, and the case generates no points. Plans
//!    never change the event trace, so this runs once per case.
//! 3. Each cell's points — every `k ∈ 0..=N`, or a seeded sample from
//!    the target's seed — split into ascending chunks whose length
//!    depends on the point count only, never the worker count. A
//!    second pass checks the chunks, each against one streaming
//!    oracle.
//! 4. Verdicts merge back in point order, so the report is identical
//!    for any `SLPMT_THREADS`.

use slpmt_core::sweep::{panic_message, sample_points};
use slpmt_core::{CrashTarget, SchemeKind, SweepFailure, SweepReport};
use slpmt_kv::chaos::{poison_caught, ChaosCase, ChaosSweepReport, ChaosTarget};
use slpmt_pmem::FaultPlan;
use slpmt_workloads::crashsweep::SweepCase;
use slpmt_workloads::runner::IndexKind;
use slpmt_workloads::runner::{par_map_with, threads};
use slpmt_workloads::ycsb::MixSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The plan list of a clean crash sweep.
pub const CLEAN: [FaultPlan; 1] = [FaultPlan::NONE];

/// Which crash points of each cell a sweep visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Points {
    /// Every persist event, `0..=N`.
    Exhaustive,
    /// Up to this many seeded points from `1..=N` (see
    /// [`sample_points`]).
    Sampled(usize),
}

/// The crash points of one cell whose crash-free run has `n` persist
/// events, ascending.
fn crash_points<T: CrashTarget>(
    target: &T,
    case: &T::Case,
    plan: &FaultPlan,
    n: u64,
    points: Points,
) -> Vec<u64> {
    match points {
        Points::Exhaustive => (0..=n).collect(),
        Points::Sampled(count) => sample_points(target.seed(case, plan), n, count),
    }
}

/// Work-unit size: a function of the cell's point count only, so chunk
/// boundaries — and therefore the exact per-chunk oracle advances —
/// are identical at any worker count.
fn chunk_len(points: usize) -> usize {
    (points / 64).max(16)
}

type Hook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// Sweeps in flight and the hook they displaced.
static QUIET: Mutex<(usize, Option<Hook>)> = Mutex::new((0, None));

/// Silences the panic hook while alive. Nested and concurrent sweeps
/// share one silence: the first saves the hook, the last restores it.
/// A guard dropped during unwinding cannot touch the hook, so the
/// saved hook then waits for the next sweep's last guard.
struct QuietPanics;

impl QuietPanics {
    fn new() -> Self {
        let mut quiet = QUIET.lock().unwrap_or_else(|e| e.into_inner());
        if quiet.0 == 0 {
            let current = std::panic::take_hook();
            quiet.1.get_or_insert(current);
            std::panic::set_hook(Box::new(|_| {}));
        }
        quiet.0 += 1;
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let mut quiet = QUIET.lock().unwrap_or_else(|e| e.into_inner());
        quiet.0 -= 1;
        if quiet.0 == 0 && !std::thread::panicking() {
            if let Some(hook) = quiet.1.take() {
                std::panic::set_hook(hook);
            }
        }
    }
}

/// Sweeps every case under every plan across [`threads`] workers.
pub fn run_sweep<T: CrashTarget>(
    target: &T,
    cases: &[T::Case],
    plans: &[FaultPlan],
    points: Points,
) -> SweepReport<T::Case, T::Outcome> {
    run_sweep_with(target, cases, plans, points, threads())
}

/// [`run_sweep`] with an explicit worker count (the determinism gates
/// diff reports across counts). Cells are case-major: each case under
/// each plan in turn.
pub fn run_sweep_with<T: CrashTarget>(
    target: &T,
    cases: &[T::Case],
    plans: &[FaultPlan],
    points: Points,
    workers: usize,
) -> SweepReport<T::Case, T::Outcome> {
    let _quiet = QuietPanics::new();
    let failure = |case: &T::Case, plan: &FaultPlan, k, detail| SweepFailure {
        label: T::LABEL,
        case: *case,
        plan: *plan,
        k,
        detail,
    };
    let counts = par_map_with(cases, workers, |case| {
        catch_unwind(AssertUnwindSafe(|| target.count(case))).map_err(|p| panic_message(&*p))
    });
    let mut failures = Vec::new();
    let mut work = Vec::new();
    for (case, count) in cases.iter().zip(&counts) {
        let n = match count {
            Ok(n) => *n,
            Err(msg) => {
                failures.push(failure(case, &FaultPlan::NONE, None, msg.clone()));
                continue;
            }
        };
        for plan in plans {
            let ks = crash_points(target, case, plan, n, points);
            for chunk in ks.chunks(chunk_len(ks.len())) {
                work.push((*case, *plan, chunk.to_vec()));
            }
        }
    }
    let verdicts = par_map_with(&work, workers, |(case, plan, ks)| {
        catch_unwind(AssertUnwindSafe(|| target.check(case, plan, ks))).unwrap_or_else(|p| {
            let detail = format!("panic: {}", panic_message(&*p));
            ks.iter().map(|_| Err(detail.clone())).collect()
        })
    });
    let mut outcomes = Vec::with_capacity(work.iter().map(|(_, _, ks)| ks.len()).sum());
    for ((case, plan, ks), chunk) in work.iter().zip(verdicts) {
        assert_eq!(chunk.len(), ks.len(), "one verdict per crash point");
        for (&k, verdict) in ks.iter().zip(chunk) {
            match verdict {
                Ok(outcome) => outcomes.push(Some(outcome)),
                Err(detail) => {
                    outcomes.push(None);
                    failures.push(failure(case, plan, Some(k), detail));
                }
            }
        }
    }
    SweepReport {
        cases: cases.len() * plans.len(),
        events: counts.into_iter().map(Result::ok).collect(),
        outcomes,
        failures,
    }
}

/// The scheme × workload matrix of engine sweep cases (kind-major),
/// all sharing the trace parameters.
pub fn sweep_cases<S: Into<SchemeKind> + Copy>(
    schemes: &[S],
    kinds: &[IndexKind],
    seed: u64,
    ops: usize,
) -> Vec<SweepCase> {
    sweep_cases_mixed(schemes, kinds, seed, 0, ops, MixSpec::CHURN)
}

/// [`sweep_cases`] under a named mix with a load phase — the YCSB
/// adversarial-traffic matrix.
pub fn sweep_cases_mixed<S: Into<SchemeKind> + Copy>(
    schemes: &[S],
    kinds: &[IndexKind],
    seed: u64,
    load: usize,
    ops: usize,
    mix: MixSpec,
) -> Vec<SweepCase> {
    let mut cases = Vec::with_capacity(schemes.len() * kinds.len());
    for &kind in kinds {
        for &scheme in schemes {
            cases.push(SweepCase::with_mix(scheme, kind, seed, load, ops, mix));
        }
    }
    cases
}

/// Runs `points_per_plan` seeded crash points of every chaos case
/// under a clean crash plus each entry of `plans` (none for a
/// clean-only sweep), plus one poisoned non-vacuity probe per case,
/// across [`threads`] workers.
pub fn run_chaos_sweep(
    cases: &[ChaosCase],
    plans: &[FaultPlan],
    points_per_plan: usize,
) -> ChaosSweepReport {
    run_chaos_sweep_with(cases, plans, points_per_plan, threads())
}

/// [`run_chaos_sweep`] with an explicit worker count.
pub fn run_chaos_sweep_with(
    cases: &[ChaosCase],
    plans: &[FaultPlan],
    points_per_plan: usize,
    workers: usize,
) -> ChaosSweepReport {
    let _quiet = QuietPanics::new();
    let mut variants = CLEAN.to_vec();
    variants.extend_from_slice(plans);
    let points = Points::Sampled(points_per_plan);
    let sweep = run_sweep_with(&ChaosTarget, cases, &variants, points, workers);
    // One poisoned probe per case, at the median clean crash point.
    let probes: Vec<(ChaosCase, u64)> = cases
        .iter()
        .zip(&sweep.events)
        .filter_map(|(case, n)| {
            let ks = crash_points(&ChaosTarget, case, &FaultPlan::NONE, (*n)?, points);
            ks.get(ks.len() / 2).map(|&k| (*case, k))
        })
        .collect();
    let caught = par_map_with(&probes, workers, |(case, k)| poison_caught(case, *k));
    let poison: Vec<(ChaosCase, u64, bool)> = probes
        .into_iter()
        .zip(caught)
        .map(|((case, k), caught)| (case, k, caught))
        .collect();
    ChaosSweepReport::fold(cases.len(), &sweep, &poison)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpmt_core::Scheme;
    use slpmt_kv::chaos::chaos_cases;
    use slpmt_workloads::crashsweep::{count_events, default_plans, EngineTarget};

    #[test]
    fn matrix_is_kind_major_and_complete() {
        let cases = sweep_cases(
            &[Scheme::Fg, Scheme::Slpmt],
            &[IndexKind::Hashtable, IndexKind::Heap],
            7,
            10,
        );
        assert_eq!(cases.len(), 4);
        assert_eq!(cases[0].kind, IndexKind::Hashtable);
        assert_eq!(cases[1].scheme, Scheme::Slpmt.into());
        assert_eq!(cases[2].kind, IndexKind::Heap);
    }

    #[test]
    fn tiny_exhaustive_sweep_covers_zero_through_n() {
        let case =
            SweepCase::with_mix(Scheme::Fg, IndexKind::Heap, 5, 4, 10, MixSpec::DELETE_HEAVY);
        let report = run_sweep(&EngineTarget, &[case], &CLEAN, Points::Exhaustive);
        assert!(report.is_clean(), "{report}");
        let n = count_events(&case);
        assert_eq!(report.events, vec![Some(n)]);
        assert_eq!(report.points() as u64, n + 1);
    }

    #[test]
    fn sampled_mixed_sweep_is_clean_and_counts_points() {
        let cases = sweep_cases_mixed(
            &[Scheme::Slpmt],
            &[IndexKind::Hashtable],
            11,
            8,
            16,
            MixSpec::DELETE_HEAVY,
        );
        let report = run_sweep(&EngineTarget, &cases, &CLEAN, Points::Sampled(6));
        assert_eq!(report.cases, 1);
        assert_eq!(report.points(), 6);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn tiny_fault_sweep_crosses_plans_and_is_clean() {
        let cases = sweep_cases(&[Scheme::Fg], &[IndexKind::Heap], 3, 4);
        let plans = default_plans(3);
        let report = run_sweep(&EngineTarget, &cases, &plans, Points::Sampled(2));
        assert_eq!(report.cases, plans.len());
        assert_eq!(report.points(), 2 * plans.len());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn chaos_matrix_is_mix_major() {
        let cases = chaos_cases(
            &[Scheme::Slpmt, Scheme::SlpmtRedo],
            IndexKind::KvBtree,
            7,
            10,
            &[MixSpec::YCSB_A, MixSpec::YCSB_B],
        );
        assert_eq!(cases.len(), 4);
        assert_eq!(cases[0].mix, MixSpec::YCSB_A);
        assert_eq!(cases[0].scheme, Scheme::Slpmt.into());
        assert_eq!(cases[1].scheme, Scheme::SlpmtRedo.into());
        assert_eq!(cases[2].mix, MixSpec::YCSB_B);
    }

    #[test]
    fn tiny_chaos_sweep_is_clean_and_worker_invariant() {
        let cases = chaos_cases(
            &[Scheme::Slpmt],
            IndexKind::KvBtree,
            13,
            24,
            &[MixSpec::YCSB_B],
        );
        let plans = [FaultPlan::NONE];
        let r1 = run_chaos_sweep_with(&cases, &plans, 2, 1);
        assert!(r1.is_clean(), "{r1}");
        assert_eq!(r1.points, 4, "2 points × (clean + 1 plan)");
        assert_eq!(r1.poison_checked, 1);
        let r2 = run_chaos_sweep_with(&cases, &plans, 2, 4);
        assert_eq!(r1.digest, r2.digest);
        assert_eq!(r1.totals, r2.totals);
        assert_eq!(r1.strict, r2.strict);
        let r0 = run_chaos_sweep_with(&cases, &[], 2, 1);
        assert!(r0.is_clean(), "{r0}");
        assert_eq!(r0.points, 2, "no plans: 2 points × the clean variant");
    }
}
