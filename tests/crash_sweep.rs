//! Exhaustive persist-event crash sweep (oracle-checked recovery).
//!
//! Every test enumerates *all* persist events `0..=N` of a fixed
//! seeded trace and crashes at each one — there is no sampling; see
//! `slpmt::workloads::crashsweep` for the crash-state model and the
//! oracle, and `slpmt::bench::sweep` for the driver. Failures print
//! reproducible `(scheme, workload, seed, k)` tuples; re-run one with
//! `slpmt faults --scheme S --workload W --seed N --ops N --at K`.
//!
//! The un-ignored tests are the PR gate: a scheme subset × every
//! index at a trace size that keeps the whole file comfortably
//! inside the CI budget (the sweep fans across `SLPMT_THREADS`
//! workers). The `#[ignore]`d test is the nightly exhaustive matrix:
//! all ten schemes × every index, ≥50-transaction traces.

use slpmt::bench::sweep::{run_sweep, run_sweep_with, sweep_cases, Points, CLEAN};
use slpmt::core::multi::mc_count_events;
use slpmt::core::{McSweepCase, McTarget, Schedule, Scheme};
use slpmt::workloads::crashsweep::{count_events, EngineTarget, SweepCase};
use slpmt::workloads::runner::IndexKind;

const SEED: u64 = 42;

/// Gate subset: the undo baseline, each single-feature variant (the
/// `storeT` operand-degrade paths are where annotation soundness bugs
/// hide), full SLPMT, the line-granularity variant, and both redo
/// designs — every commit sequence in Figure 4 is represented.
const GATE_SCHEMES: [Scheme; 7] = [
    Scheme::Fg,
    Scheme::FgLg,
    Scheme::FgLz,
    Scheme::Slpmt,
    Scheme::SlpmtCl,
    Scheme::FgRedo,
    Scheme::SlpmtRedo,
];

#[test]
fn gate_sweep_every_persist_event() {
    let cases = sweep_cases(&GATE_SCHEMES, &IndexKind::ALL, SEED, 12);
    let report = run_sweep(&EngineTarget, &cases, &CLEAN, Points::Exhaustive);
    assert!(report.points() > 0);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn sweep_covers_lazy_and_selective_features() {
    // Serial spot-check of the scheme that exercises most machinery
    // (signatures, log-free stores, lazy drains) on the structure with
    // the most auxiliary transactions (hashtable resize + close-window
    // preliminary transactions).
    let case = SweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 7, 10);
    let report = run_sweep_with(&EngineTarget, &[case], &CLEAN, Points::Exhaustive, 1);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn event_counts_grow_with_trace_length() {
    let short = count_events(&SweepCase::new(Scheme::Fg, IndexKind::Heap, SEED, 5));
    let long = count_events(&SweepCase::new(Scheme::Fg, IndexKind::Heap, SEED, 20));
    assert!(short > 0);
    assert!(
        long > short,
        "longer traces must persist more ({short} vs {long})"
    );
}

// ---------------------------------------------------------------------
// Multi-core crash sweeps: two interleaved cores, a crash armed at
// every persist event, recovery checked against the admissible-value
// oracle (`slpmt::core::multi::mc_run_crash_at`). Failures print
// reproducible `(scheme, cores, seed, schedule, k)` tuples.

#[test]
fn gate_mc_sweep_every_persist_event() {
    let cases = [
        McSweepCase::new(Scheme::Slpmt, 2, SEED, Schedule::round_robin(3)),
        McSweepCase::new(Scheme::SlpmtRedo, 2, SEED, Schedule::weighted(3)),
        McSweepCase::new(Scheme::Fg, 2, SEED, Schedule::weighted(9)),
    ];
    let report = run_sweep(&McTarget, &cases, &CLEAN, Points::Exhaustive);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn mc_event_counts_grow_with_cores() {
    let one = mc_count_events(&McSweepCase::new(
        Scheme::Fg,
        1,
        SEED,
        Schedule::round_robin(0),
    ));
    let three = mc_count_events(&McSweepCase::new(
        Scheme::Fg,
        3,
        SEED,
        Schedule::round_robin(0),
    ));
    assert!(one > 0);
    assert!(
        three > one,
        "more cores must persist more ({one} vs {three})"
    );
}

/// Nightly exhaustive multi-core matrix: the gate schemes × 2–3 cores
/// × both scheduler policies, every persist event of every case. Run
/// with `cargo test --release --test crash_sweep -- --ignored`.
#[test]
#[ignore = "exhaustive matrix; run nightly or on demand"]
fn full_mc_sweep_all_schemes() {
    let mut cases = Vec::new();
    for scheme in GATE_SCHEMES {
        for cores in [2, 3] {
            for seed in [SEED, 7] {
                cases.push(McSweepCase::new(
                    scheme,
                    cores,
                    seed,
                    Schedule::round_robin(seed),
                ));
                cases.push(McSweepCase::new(
                    scheme,
                    cores,
                    seed,
                    Schedule::weighted(seed + 1),
                ));
            }
        }
    }
    let report = run_sweep(&McTarget, &cases, &CLEAN, Points::Exhaustive);
    assert!(report.is_clean(), "{report}");
}

/// Nightly exhaustive matrix: all ten schemes × every index, ≥50
/// operations per trace, every persist event. Run with
/// `cargo test --release --test crash_sweep -- --ignored`.
#[test]
#[ignore = "exhaustive matrix; run nightly or on demand"]
fn full_sweep_all_schemes() {
    use slpmt::workloads::crashsweep::SWEEP_SCHEMES;
    let cases = sweep_cases(&SWEEP_SCHEMES, &IndexKind::ALL, SEED, 50);
    let report = run_sweep(&EngineTarget, &cases, &CLEAN, Points::Exhaustive);
    println!("{report}");
    assert!(report.is_clean(), "{report}");
}

/// Nightly seed diversity: shorter traces, but several seeds, so trace
/// shapes the fixed seed never produces (different resize points,
/// removal orders, signature collisions) still get swept.
#[test]
#[ignore = "exhaustive matrix; run nightly or on demand"]
fn full_sweep_multiple_seeds() {
    use slpmt::workloads::crashsweep::SWEEP_SCHEMES;
    for seed in [1, 7, 99, 1234] {
        let cases = sweep_cases(&SWEEP_SCHEMES, &IndexKind::ALL, seed, 30);
        let report = run_sweep(&EngineTarget, &cases, &CLEAN, Points::Exhaustive);
        println!("seed {seed}: {report}");
        assert!(report.is_clean(), "seed {seed}: {report}");
    }
}
