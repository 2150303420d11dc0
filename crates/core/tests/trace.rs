//! Event-tracing integration: coverage, determinism and zero-cost of
//! the disabled path at the `Machine` level.

#![cfg(not(feature = "no-trace"))]

use slpmt_core::multi::{gen_programs, run_programs, ProgramSpec, Schedule, TraceOp};
use slpmt_core::{
    Machine, MachineConfig, Scheme, StoreKind, TraceEvent, TraceMetrics, TraceRecord,
};
use slpmt_pmem::PmAddr;

const A: PmAddr = PmAddr::new(0x10000);

fn traced_run(scheme: Scheme) -> Vec<TraceRecord> {
    let mut m = Machine::new(MachineConfig::for_scheme(scheme));
    m.enable_tracing(1 << 16);
    m.setup_write(A, &5u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(A, 7, StoreKind::Store);
    m.store_u64(A.add(64), 8, StoreKind::lazy_logged());
    m.store_u64(A.add(128), 9, StoreKind::log_free());
    m.tx_commit();
    m.drain_lazy();
    m.take_trace()
}

#[test]
fn trace_covers_the_pipeline() {
    let recs = traced_run(Scheme::Slpmt);
    assert!(!recs.is_empty());
    let has = |name: &str| recs.iter().any(|r| r.event.name() == name);
    for name in [
        "store_issue",
        "log_bit",
        "tier_append",
        "tier_drain",
        "tier_occupancy",
        "wpq_enqueue",
        "persist",
        "commit_begin",
        "commit_stage",
        "commit_end",
        "txn_id_alloc",
        "cache_fetch",
    ] {
        assert!(has(name), "expected a {name} event in the trace");
    }
    // Commit spans are well-formed: begin before stages before end.
    let pos = |name: &str| recs.iter().position(|r| r.event.name() == name).unwrap();
    assert!(pos("commit_begin") < pos("commit_stage"));
    assert!(pos("commit_stage") < pos("commit_end"));
}

#[test]
fn same_seeded_run_traces_identically() {
    let a = traced_run(Scheme::Slpmt);
    let b = traced_run(Scheme::Slpmt);
    assert_eq!(a, b, "a trace must replay bit-identically");
}

#[test]
fn disabled_tracing_returns_empty_and_changes_nothing() {
    let run = |trace: bool| {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
        if trace {
            m.enable_tracing(1 << 16);
        }
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::Store);
        m.tx_commit();
        (m.now(), *m.stats(), m.take_trace())
    };
    let (now_on, stats_on, trace_on) = run(true);
    let (now_off, stats_off, trace_off) = run(false);
    assert!(!trace_on.is_empty());
    assert!(trace_off.is_empty());
    assert_eq!(now_on, now_off, "tracing must not change timing");
    assert_eq!(stats_on, stats_off, "tracing must not change behaviour");
}

#[test]
fn multi_core_events_carry_core_attribution() {
    let spec = ProgramSpec::small(3, 21);
    let programs = gen_programs(&spec);
    let mut m = Machine::with_cores(MachineConfig::for_scheme(Scheme::Slpmt), 3);
    m.enable_tracing(1 << 16);
    for step in 0..programs.iter().map(Vec::len).max().unwrap() {
        for (core, prog) in programs.iter().enumerate() {
            if let Some(op) = prog.get(step) {
                m.switch_core(core);
                if m.in_txn() || matches!(op, TraceOp::Begin) {
                    match *op {
                        TraceOp::Begin => m.tx_begin(),
                        TraceOp::Load { addr } => {
                            m.load_u64(PmAddr::new(addr));
                        }
                        TraceOp::Store { addr, value, kind } => {
                            m.store_u64(PmAddr::new(addr), value, kind);
                        }
                        TraceOp::Commit => m.tx_commit(),
                    }
                }
            }
        }
    }
    let recs = m.take_trace();
    let cores: std::collections::BTreeSet<u8> = recs.iter().map(|r| r.core).collect();
    assert!(cores.len() >= 2, "events from several cores: {cores:?}");
    // Per-core sequence numbers are dense from 0.
    for &c in &cores {
        let mut seqs: Vec<u64> = recs.iter().filter(|r| r.core == c).map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
    }
}

#[test]
fn metrics_fold_a_real_trace() {
    let recs = traced_run(Scheme::Slpmt);
    let m = TraceMetrics::from_records(&recs);
    assert_eq!(m.records, recs.len());
    assert_eq!(m.commits, 1);
    assert!(m.persists.iter().sum::<u64>() > 0);
    assert!(m.tier_appends > 0);
    // The lazy store deferred its line, so a signature was inserted
    // and the trace's ground-truth false-positive accounting holds.
    assert!(m.sig_inserts <= 1);
}

#[test]
fn tracing_survives_run_programs_when_disabled() {
    // run_programs builds its machine internally (no tracing): the
    // trace drain must stay empty rather than capturing stale state.
    let spec = ProgramSpec::small(2, 9);
    let programs = gen_programs(&spec);
    let (mut m, outcome) = run_programs(
        MachineConfig::for_scheme(Scheme::Slpmt),
        &programs,
        Schedule::round_robin(4),
    );
    assert!(!outcome.crashed);
    assert!(m.take_trace().is_empty());
}

#[test]
fn cross_core_events_name_the_victim_core() {
    // Core 0 holds A in an open transaction; core 2's store to A
    // aborts it (requester wins). Every cross-core event and the
    // drained abort must name core 0, not the position its parked
    // context happens to occupy.
    let mut m = Machine::with_cores(MachineConfig::for_scheme(Scheme::Slpmt), 3);
    m.enable_tracing(1 << 16);
    m.tx_begin();
    m.store_u64(A, 7, StoreKind::Store);
    m.switch_core(2);
    m.tx_begin();
    m.store_u64(A, 8, StoreKind::Store);
    m.tx_commit();
    let aborts = m.take_conflict_aborts();
    assert_eq!(aborts.len(), 1, "one conflict abort: {aborts:?}");
    assert_eq!(aborts[0].0, 0, "the abort names the victim core");
    let recs = m.take_trace();
    let named: Vec<(&str, u8, u8)> = recs
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::CrossConflict { holder, .. } => Some(("cross_conflict", r.core, holder)),
            TraceEvent::CrossAbort { victim, .. } => Some(("cross_abort", r.core, victim)),
            TraceEvent::CrossRepair { victim, .. } => Some(("cross_repair", r.core, victim)),
            _ => None,
        })
        .collect();
    assert_eq!(
        named,
        [
            ("cross_conflict", 2, 0),
            ("cross_abort", 2, 0),
            ("cross_repair", 2, 0)
        ],
        "(event, issuing core, named core)"
    );
    assert_eq!(m.peek_u64(A), 8);
}

#[test]
fn recovery_emits_stage_events() {
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Fg).with_tiny_caches());
    m.enable_tracing(1 << 16);
    m.setup_write(A, &5u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(A, 99, StoreKind::Store);
    for i in 0..512u64 {
        m.store_u64(PmAddr::new(0x40000 + i * 64), i, StoreKind::Store);
    }
    m.crash();
    let report = m.recover();
    assert!(report.undo_applied > 0);
    let recs = m.take_trace();
    let stages: Vec<String> = recs
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Recovery { stage, .. } => Some(stage.label().to_string()),
            _ => None,
        })
        .collect();
    for want in ["validate", "truncate", "skip", "replay", "salvage", "scrub"] {
        assert!(stages.iter().any(|s| s == want), "missing stage {want}");
    }
    // The one-line report formatter carries the same counts.
    let line = report.to_string();
    assert!(line.contains(&format!("undo {}", report.undo_applied)));
}

#[test]
fn every_abort_is_traced_and_retires_its_id() {
    // One abort of each victim kind: the running transaction's own, a
    // switched-out thread's (a conflicting store aborts it) and a
    // parked core's (a cross-core conflict aborts it).
    let mut m = Machine::with_cores(MachineConfig::for_scheme(Scheme::Slpmt), 2);
    m.enable_tracing(1 << 16);
    m.tx_begin();
    m.store_u64(A, 1, StoreKind::Store);
    m.tx_abort();
    m.tx_begin();
    m.store_u64(A, 2, StoreKind::Store);
    m.suspend_txn();
    m.tx_begin();
    m.store_u64(A, 3, StoreKind::lazy_logged());
    m.tx_commit();
    m.tx_begin();
    m.store_u64(A.add(64), 4, StoreKind::Store);
    m.switch_core(1);
    m.tx_begin();
    m.store_u64(A.add(64), 5, StoreKind::Store);
    m.tx_commit();
    m.drain_lazy();
    let stats = *m.stats();
    assert_eq!(
        (
            stats.tx_aborts,
            stats.suspended_aborts,
            stats.cross_core_aborts
        ),
        (3, 1, 1),
        "one abort of each kind"
    );
    let recs = m.take_trace();
    assert_eq!(TraceMetrics::from_records(&recs).aborts, stats.tx_aborts);
    let mut live = std::collections::BTreeSet::new();
    for r in &recs {
        match r.event {
            TraceEvent::TxnIdAlloc { txn, id } => assert!(live.insert((txn, id))),
            TraceEvent::TxnIdRetire { txn, id } => {
                assert!(
                    live.remove(&(txn, id)),
                    "txn {txn} retired ID {id} it never held"
                )
            }
            _ => {}
        }
    }
    assert!(
        live.is_empty(),
        "(txn, ID) allocated, never retired: {live:?}"
    );
}
