//! The crash-sweep contract every battery implements, and the rules
//! they share.
//!
//! Three batteries prove committed-prefix recovery at three layers: the
//! engine crash/fault sweep (`slpmt_workloads::crashsweep`), the
//! service-boundary crash-during-serve battery (`slpmt_kv::chaos`) and
//! the multi-core sweep ([`multi`](crate::multi)). Each is a
//! [`CrashTarget`]: it counts the
//! persist events of a crash-free run, names the seed of its sampled
//! crash points, checks an ascending chunk of crash points, and traces
//! one point. One generic driver (`slpmt_bench::sweep`) owns
//! everything else — panic capture, the count pass, the point domain,
//! chunked fan-out and failure order.
//!
//! The rules every battery applies live here exactly once:
//! [`committed_prefix`], [`attribute_faults`], [`sample_points`] and
//! [`panic_message`].

use crate::recovery::RecoveryReport;
use slpmt_pmem::{FaultPlan, PmDevice};
use slpmt_prng::splitmix64;
use slpmt_trace::TraceRecord;
use std::any::Any;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One crash battery, swept by the generic driver.
///
/// A swept *cell* is a case under one [`FaultPlan`];
/// [`FaultPlan::NONE`] is a clean power cut. A crash point `k` arms
/// the device to crash at persist event `k`: events `1..=k` are
/// durable, every later mutation is dropped.
pub trait CrashTarget: Sync {
    /// One reproducible configuration of the battery.
    type Case: Copy + fmt::Display + Send + Sync;
    /// What a passing point reports (`()` for pass/fail batteries).
    type Outcome: Send;
    /// Prefix of every failure line the battery prints.
    const LABEL: &'static str;

    /// Runs the case crash-free, checks the end state against the
    /// oracle, and returns its persist-event count `N`; the exhaustive
    /// crash domain is `0..=N`. A fault plan never changes the event
    /// trace, so this runs once per case, whatever the plans.
    ///
    /// # Panics
    ///
    /// Panics when the crash-free run already disagrees with the
    /// oracle (the sweep would be meaningless).
    fn count(&self, case: &Self::Case) -> u64;

    /// Seed of the cell's sampled crash points (see
    /// [`sample_points`]).
    fn seed(&self, case: &Self::Case, plan: &FaultPlan) -> u64;

    /// Checks an ascending chunk of crash points of one cell against
    /// one owned oracle, returning one verdict per point in order. A
    /// point that panics yields an `Err` verdict; the chunk goes on.
    fn check(
        &self,
        case: &Self::Case,
        plan: &FaultPlan,
        ks: &[u64],
    ) -> Vec<Result<Self::Outcome, String>>;

    /// Replays one point's machine-level sequence — trace, crash at
    /// `k`, log replay — with event tracing on, and returns the
    /// records. Deterministic, and never panics: this is the capture
    /// path for failing tuples.
    fn trace(&self, case: &Self::Case, plan: &FaultPlan, k: u64) -> Vec<TraceRecord>;
}

/// One failed cell or crash point, carrying its reproducer tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure<C> {
    /// The battery's [`CrashTarget::LABEL`].
    pub label: &'static str,
    /// The failing case.
    pub case: C,
    /// Fault plan armed with the crash ([`FaultPlan::NONE`] = clean).
    pub plan: FaultPlan,
    /// Crash point; `None` when the crash-free run itself failed.
    pub k: Option<u64>,
    /// What went wrong.
    pub detail: String,
}

impl<C: fmt::Display> fmt::Display for SweepFailure<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} FAIL {}", self.label, self.case)?;
        // Clean-crash failure lines keep their historical shape.
        if !self.plan.is_empty() {
            write!(f, " plan={}", self.plan)?;
        }
        match self.k {
            Some(k) => write!(f, " k={k}: {}", self.detail),
            None => write!(f, " crash-free: {}", self.detail),
        }
    }
}

/// Outcome of one sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport<C, O = ()> {
    /// Cells swept (cases × plans).
    pub cases: usize,
    /// Crash-free persist-event count per case, in case order (`None`
    /// when the crash-free run failed).
    pub events: Vec<Option<u64>>,
    /// Every checked point's outcome in point order (`None` = failed).
    pub outcomes: Vec<Option<O>>,
    /// Every failure: crash-free failures first, then failing points
    /// in point order.
    pub failures: Vec<SweepFailure<C>>,
}

impl<C, O> SweepReport<C, O> {
    /// Crash points checked.
    pub fn points(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` when every cell ran and every point passed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl<C: fmt::Display, O> fmt::Display for SweepReport<C, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sweep: {} points across {} cells, {} failure(s)",
            self.points(),
            self.cases,
            self.failures.len()
        )?;
        for fail in &self.failures {
            writeln!(f, "  {fail}")?;
        }
        Ok(())
    }
}

/// Committed-prefix length: how many leading operations have a
/// durable commit marker for the last transaction they ran.
///
/// `op_seq[i]` is the transaction sequence number after operation `i`
/// (a read re-records the previous one). Commit markers persist in
/// transaction order, so the durably committed transactions form a
/// prefix of the sequence numbers up to `marker`, and the committed
/// operations form a prefix of the trace.
pub fn committed_prefix(op_seq: &[u64], marker: u64) -> usize {
    op_seq.iter().take_while(|&&seq| seq <= marker).count()
}

/// The fault-attribution rule: torn or corrupt state appears only
/// with the matching plan knob, and every line recovery reports lost
/// traces back to a line the plan poisoned or a record it flipped (the
/// device keeps the ground truth). `None` means no plan was armed, so
/// any lost line at all is a failure.
///
/// # Errors
///
/// Describes the first anomaly the plan cannot explain.
pub fn attribute_faults(
    plan: Option<&FaultPlan>,
    report: &RecoveryReport,
    dev: &PmDevice,
) -> Result<(), String> {
    let (tear, flips) = plan.map_or((false, 0), |p| (p.tear, p.flip_records));
    if !tear && report.torn_records + report.torn_markers != 0 {
        return Err(format!(
            "{} torn records / {} torn markers without a tear in the plan",
            report.torn_records, report.torn_markers
        ));
    }
    if flips == 0 && report.corrupt_records != 0 {
        return Err(format!(
            "{} corrupt records without a flip in the plan",
            report.corrupt_records
        ));
    }
    if plan.is_none() && !report.lost_lines.is_empty() {
        return Err(format!(
            "{} lines lost with no fault plan armed",
            report.lost_lines.len()
        ));
    }
    let tainted: BTreeSet<u64> = dev
        .fault_poisoned_lines()
        .iter()
        .chain(dev.fault_flipped_lines())
        .copied()
        .collect();
    match report.lost_lines.iter().find(|l| !tainted.contains(l)) {
        Some(stray) => Err(format!(
            "line {stray:#x} reported lost but no injected fault touched it"
        )),
        None => Ok(()),
    }
}

/// `count` distinct seeded crash points drawn from `1..=n`, ascending
/// (so one streaming oracle serves all of them) and deterministic for
/// a `(seed, n, count)` triple. Fewer when `n < count`.
pub fn sample_points(seed: u64, n: u64, count: usize) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let mut points = BTreeSet::new();
    let mut i = 0u64;
    while points.len() < count.min(n as usize) {
        let mut s = seed.rotate_left(23).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
        points.insert(1 + splitmix64(&mut s) % n);
        i += 1;
    }
    points.into_iter().collect()
}

/// The message of a caught panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// Runs one crash-point check, turning a panic into an `Err` verdict
/// (`"panic: <message>"`), so a sweep reports the tuple instead of
/// dying mid-matrix.
pub fn guarded<R>(check: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(check))
        .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(&*p))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_points_are_ascending_distinct_and_in_range() {
        let a = sample_points(9, 500, 20);
        assert_eq!(a, sample_points(9, 500, 20));
        assert_eq!(a.len(), 20);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&k| (1..=500).contains(&k)));
        assert_eq!(sample_points(9, 3, 20), vec![1, 2, 3]);
        assert!(sample_points(9, 0, 20).is_empty());
    }

    #[test]
    fn committed_prefix_stops_at_the_first_uncommitted_op() {
        assert_eq!(committed_prefix(&[1, 1, 2, 3, 4], 2), 3);
        assert_eq!(committed_prefix(&[1, 2], 0), 0);
        assert_eq!(committed_prefix(&[], 9), 0);
    }

    #[test]
    fn panics_become_verdicts() {
        assert_eq!(guarded(|| Ok::<_, String>(3)), Ok(3));
        let e = guarded::<()>(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(e, "panic: boom 7");
        let e = guarded::<()>(|| std::panic::panic_any(5u8)).unwrap_err();
        assert_eq!(e, "panic: panic with non-string payload");
    }

    #[test]
    fn unarmed_recovery_must_report_nothing() {
        let dev = PmDevice::new(Default::default());
        let mut report = RecoveryReport::default();
        attribute_faults(None, &report, &dev).unwrap();
        report.lost_lines.push(0x40);
        assert!(attribute_faults(None, &report, &dev).is_err());
        assert!(attribute_faults(Some(&FaultPlan::NONE), &report, &dev).is_err());
        report.lost_lines.clear();
        report.torn_markers = 1;
        let tear = FaultPlan {
            tear: true,
            ..FaultPlan::NONE
        };
        assert!(attribute_faults(None, &report, &dev).is_err());
        attribute_faults(Some(&tear), &report, &dev).unwrap();
    }

    #[test]
    fn failure_lines_print_the_plan_only_when_armed() {
        let mut fail = SweepFailure {
            label: "faults",
            case: "scheme=SLPMT",
            plan: FaultPlan::NONE,
            k: Some(7),
            detail: "boom".into(),
        };
        assert_eq!(fail.to_string(), "faults FAIL scheme=SLPMT k=7: boom");
        fail.plan.poison_lines = 1;
        assert!(fail.to_string().contains(" plan="));
        fail.k = None;
        assert!(fail.to_string().ends_with("crash-free: boom"));
    }
}
