//! Software-PTM baseline gates: golden fence budgets, WAF invariants,
//! worker-count determinism, and the UndoLog/RedoLog crash batteries.
//!
//! The software flavours (`slpmt::ptm`) run as explicit
//! store/flush/fence instruction streams over the same simulated cache
//! hierarchy and PM device as the hardware schemes, so every gate here
//! goes through the full stack: `PmContext` dispatch, the bench
//! matrix/sweep drivers, and the streaming recovery oracle.

use slpmt::bench::runner::matrix;
use slpmt::bench::sweep::{run_sweep, sweep_cases, sweep_cases_mixed, Points, CLEAN};
use slpmt::core::{MachineConfig, PtmFlavor, Scheme, SchemeKind};
use slpmt::workloads::crashsweep::{default_plans, EngineTarget};
use slpmt::workloads::runner::{par_map_with, run, IndexKind, RunResult, RunSpec};
use slpmt::workloads::ycsb::MixSpec;
use slpmt::workloads::ycsb_load;

const SEED: u64 = 42;

fn insert_run(kind: impl Into<SchemeKind>, ops: usize, value: usize) -> RunResult {
    let (cfg, ops) = (MachineConfig::for_kind(kind), ycsb_load(ops, value, SEED));
    let mut spec = RunSpec::inserts(cfg, IndexKind::Hashtable, &ops, value);
    spec.verify = true;
    run(&spec).single().result
}

/// Golden per-transaction commit-fence budgets, measured through the
/// full workload stack: Quadra = 1, Trinity = 2, RedoLog = RomulusLog
/// = 4 — exactly, since every insert transaction runs the full commit
/// protocol — and UndoLog pays its per-record fences on top of the
/// 2-fence commit, so it lands strictly above 2 per transaction.
#[test]
fn golden_commit_fence_budgets() {
    for (flavor, budget) in [
        (PtmFlavor::Quadra, 1),
        (PtmFlavor::Trinity, 2),
        (PtmFlavor::RedoLog, 4),
        (PtmFlavor::RomulusLog, 4),
    ] {
        let r = insert_run(flavor, 200, 32);
        assert!(r.stats.tx_commits > 0);
        assert_eq!(
            r.stats.fences,
            budget * r.stats.tx_commits,
            "{flavor:?}: {} fences over {} txns (budget {budget})",
            r.stats.fences,
            r.stats.tx_commits
        );
    }
    let undo = insert_run(PtmFlavor::UndoLog, 200, 32);
    assert!(
        undo.stats.fences > 2 * undo.stats.tx_commits,
        "UndoLog must fence per record on top of the 2-fence commit: \
         {} fences over {} txns",
        undo.stats.fences,
        undo.stats.tx_commits
    );
}

/// Hardware schemes never execute explicit fences — commit ordering is
/// the hardware log's job — so the fence counter stays zero for every
/// registry entry with a hardware scheme.
#[test]
fn hardware_schemes_count_zero_fences() {
    for scheme in [Scheme::Fg, Scheme::Slpmt, Scheme::SlpmtRedo, Scheme::Atom] {
        let r = insert_run(scheme, 100, 32);
        assert_eq!(r.stats.fences, 0, "{scheme}: hardware scheme fenced");
        assert_eq!(r.stats.flushes, 0, "{scheme}: hardware scheme flushed");
    }
}

/// Write amplification is ≥ 1 for every registry entry: the media
/// cannot write fewer bytes than the workload logically stored, and
/// the denominator is non-trivial on an insert trace.
#[test]
fn waf_is_at_least_one_for_every_scheme() {
    for kind in SchemeKind::REGISTRY {
        let r = insert_run(kind, 150, 64);
        assert!(r.logical_bytes > 0, "{kind}: no logical bytes counted");
        assert!(
            r.waf() >= 1.0,
            "{kind}: waf {} < 1 ({} media bytes / {} logical)",
            r.waf(),
            r.traffic.data_bytes + r.traffic.log_bytes,
            r.logical_bytes
        );
    }
}

/// Software log traffic is reattributed from data to log bytes: every
/// flavour reports non-zero log bytes and records, and the split sums
/// to the same media total the device counted.
#[test]
fn software_log_traffic_is_reattributed() {
    for flavor in PtmFlavor::ALL {
        let r = insert_run(flavor, 100, 32);
        assert!(r.traffic.log_bytes > 0, "{flavor:?}: no log traffic");
        assert!(r.traffic.log_records > 0, "{flavor:?}: no log records");
    }
}

/// The software matrix is deterministic for any worker count — the
/// bit-identity property `slpmt ptm --json` relies on in CI.
#[test]
fn software_matrix_identical_across_worker_counts() {
    let cells = matrix(
        &SchemeKind::SOFTWARE,
        &[IndexKind::Hashtable, IndexKind::Heap],
    );
    let stream = ycsb_load(120, 32, SEED);
    let matrix_at = |workers| {
        par_map_with(&cells, workers, |c| {
            run(&c.spec(&stream, 32)).single().result
        })
    };
    let (serial, parallel) = (matrix_at(1), matrix_at(4));
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.logical_bytes, b.logical_bytes);
        assert_eq!(a.stats.fences, b.stats.fences);
        assert_eq!(a.stats.flushes, b.stats.flushes);
    }
}

/// ≥200-point sampled crash battery for UndoLog and RedoLog against
/// the streaming recovery oracle, under both YCSB-A and delete-heavy
/// traffic: 2 flavours × 2 workloads × 2 mixes × 26 points = 208
/// oracle-checked crash points through the software commit protocols.
#[test]
fn undo_and_redo_crash_battery_200_points() {
    let flavors = [PtmFlavor::UndoLog, PtmFlavor::RedoLog];
    let kinds = [IndexKind::Hashtable, IndexKind::Heap];
    let mut cases = Vec::new();
    for mix in [MixSpec::YCSB_A, MixSpec::DELETE_HEAVY] {
        cases.extend(sweep_cases_mixed(&flavors, &kinds, SEED, 8, 24, mix));
    }
    let report = run_sweep(&EngineTarget, &cases, &CLEAN, Points::Sampled(26));
    assert!(report.points() >= 200, "only {} points", report.points());
    assert!(report.is_clean(), "{report}");
}

/// Exhaustive (every persist event) tiny sweep across all five
/// software flavours — the unsampled analogue of the battery above,
/// kept small enough to enumerate the whole crash domain.
#[test]
fn every_flavor_survives_exhaustive_tiny_sweep() {
    let cases = sweep_cases(&SchemeKind::SOFTWARE, &[IndexKind::Hashtable], 7, 8);
    let report = run_sweep(&EngineTarget, &cases, &CLEAN, Points::Exhaustive);
    assert!(report.points() > 0);
    assert!(report.is_clean(), "{report}");
}

/// Nightly soak: every software flavour × three workloads × three
/// adversarial mixes, sampled deep against the streaming oracle. Run
/// with `cargo test --release --test ptm_baselines -- --ignored`.
#[test]
#[ignore = "deep software crash battery; run nightly or on demand"]
fn nightly_software_crash_soak() {
    let kinds = [IndexKind::Hashtable, IndexKind::Rbtree, IndexKind::Heap];
    let mut cases = Vec::new();
    for mix in [MixSpec::YCSB_A, MixSpec::YCSB_F, MixSpec::DELETE_HEAVY] {
        cases.extend(sweep_cases_mixed(
            &SchemeKind::SOFTWARE,
            &kinds,
            1234,
            30,
            120,
            mix,
        ));
    }
    let report = run_sweep(&EngineTarget, &cases, &CLEAN, Points::Sampled(40));
    assert!(report.points() >= 1000, "only {} points", report.points());
    assert!(report.is_clean(), "{report}");
}

/// Media-fault battery over the software logs: torn records, poisoned
/// lines and drain jitter must degrade within the documented rules
/// (CRC-caught tears, lost lines only under injected faults).
#[test]
fn software_fault_battery_degrades_within_rules() {
    let cases = sweep_cases(
        &[
            SchemeKind::from(PtmFlavor::UndoLog),
            PtmFlavor::RedoLog.into(),
        ],
        &[IndexKind::Heap],
        11,
        12,
    );
    let report = run_sweep(
        &EngineTarget,
        &cases,
        &default_plans(11),
        Points::Sampled(3),
    );
    assert!(report.points() > 0);
    assert!(report.is_clean(), "{report}");
}
