//! Backpressure property battery (issue 8 satellite): under a
//! forced-stall WPQ (tiny queue, huge media latency) the admission
//! loop must terminate for every request (no deadlock), its live
//! decisions must agree exactly with the pure reference model replayed
//! over the recorded depth samples, and shed/queued counts must be
//! first-class, exactly-reproducible statistics. Drain jitter may only
//! push the latency tail upward.

use slpmt::bench::serve::run_serve;
use slpmt::core::{MachineConfig, Scheme};
use slpmt::kv::admission::{admit, reference_decision, Admission, AdmissionConfig, AdmissionStats};
use slpmt::kv::service::ServeConfig;
use slpmt::kv::store::KvStore;
use slpmt::pmem::PmConfig;
use slpmt::workloads::runner::IndexKind;
use slpmt::workloads::ycsb::MixSpec;

/// A device that backs up immediately: two WPQ entries draining at
/// 20k cycles each, so any write burst saturates the queue.
fn stall_pm() -> PmConfig {
    PmConfig {
        wpq_entries: 2,
        pm_write_cycles: 20_000,
        ..PmConfig::default()
    }
}

fn stall_cfg(queue_limit: u64) -> ServeConfig {
    let mut c = ServeConfig::new(Scheme::Slpmt, IndexKind::KvBtree, MixSpec::YCSB_A);
    c.load = 20;
    c.requests = 120;
    c.value_size = 16;
    c.seed = 33;
    c.shards = 1;
    c.pm = Some(stall_pm());
    c.admission = AdmissionConfig {
        high_watermark: 1,
        queue_limit,
        poll_cycles: 200,
    };
    c
}

// -------------------------------------------------------------------
// No deadlock + exact shed/queued accounting.

#[test]
fn forced_stall_terminates_and_counts_are_exact() {
    // Tight queueing budget: the loop is bounded by construction, so
    // this test *finishing* is the no-deadlock property; the counts
    // must then be exactly reproducible.
    let c = stall_cfg(2_000);
    let (row, reports) = run_serve(&c, 1);
    assert_eq!(row.requests, row.served + row.shed, "every request decided");
    assert!(row.shed > 0, "forced stall must shed under a tight budget");
    assert!(row.queued > 0, "forced stall must queue some admissions");
    assert_eq!(row.served, reports.iter().map(|r| r.served).sum::<u64>());
    // Exact reproducibility of the counts (same run, same numbers).
    let (again, _) = run_serve(&c, 4);
    assert_eq!(row.shed, again.shed);
    assert_eq!(row.queued, again.queued);
    assert_eq!(row.queued_cycles, again.queued_cycles);
    assert_eq!(row.digest, again.digest);
    // Shed responses are visible on the wire as SERVER_ERROR busy.
    let busy = reports[0]
        .responses
        .windows(17)
        .filter(|w| w == b"SERVER_ERROR busy")
        .count() as u64;
    assert_eq!(busy, row.shed, "one busy line per shed request");
}

#[test]
fn generous_budget_never_sheds() {
    // With an effectively unbounded budget the same stalled device
    // queues but never sheds — admission is work-conserving.
    let c = stall_cfg(100_000_000);
    let (row, _) = run_serve(&c, 1);
    assert_eq!(row.shed, 0, "nothing may be shed with budget to spare");
    assert_eq!(row.served, row.requests);
    assert!(row.queued > 0, "the stall still forces queueing");
}

// -------------------------------------------------------------------
// Live admission loop ≡ pure reference model on recorded depths.

/// Instrumented twin of `admit`: records the WPQ depth at every poll
/// step (the sample sequence the reference model consumes), then
/// returns both the live decision and the recorded depths.
fn admit_recording(store: &mut KvStore, cfg: &AdmissionConfig) -> (Admission, Vec<usize>) {
    let mut depths = Vec::new();
    let mut queued = 0u64;
    let decision = loop {
        depths.push(store.wpq_depth());
        if *depths.last().unwrap() < cfg.high_watermark {
            break Admission::Admit { queued };
        }
        if queued >= cfg.queue_limit {
            break Admission::Shed { queued };
        }
        let step = cfg.poll_cycles.max(1);
        store.compute(step);
        queued += step;
    };
    (decision, depths)
}

#[test]
fn live_decisions_match_the_reference_model() {
    let acfg = AdmissionConfig {
        high_watermark: 1,
        queue_limit: 1_800,
        poll_cycles: 200,
    };
    let mcfg = MachineConfig::for_scheme(Scheme::Slpmt).with_pm(stall_pm());
    let mut store = KvStore::with_config(mcfg, IndexKind::KvBtree, 16);
    store.prefault(160);
    let mut stats = AdmissionStats::default();
    let (mut admits, mut sheds) = (0u64, 0u64);
    for k in 0..120u64 {
        let (live, depths) = admit_recording(&mut store, &acfg);
        assert_eq!(
            live,
            reference_decision(&depths, &acfg),
            "live admission diverged from the reference at request {k} (depths {depths:?})"
        );
        stats.record(live);
        match live {
            Admission::Admit { .. } => {
                admits += 1;
                store.set(k, b"0123456789abcdef");
            }
            Admission::Shed { .. } => sheds += 1,
        }
    }
    assert_eq!(stats.decisions(), 120);
    assert_eq!(stats.immediate + stats.queued, admits);
    assert_eq!(stats.shed, sheds);
    assert!(sheds > 0, "the stalled device must shed at this budget");
    assert!(stats.queued > 0, "and queue");
}

#[test]
fn recording_twin_matches_plain_admit() {
    // The instrumented loop above must be behaviourally identical to
    // the production `admit` on an identical machine.
    let acfg = AdmissionConfig {
        high_watermark: 1,
        queue_limit: 2_000,
        poll_cycles: 150,
    };
    let build = || {
        let mcfg = MachineConfig::for_scheme(Scheme::Slpmt).with_pm(stall_pm());
        let mut s = KvStore::with_config(mcfg, IndexKind::KvBtree, 16);
        s.prefault(64);
        s
    };
    let mut a = build();
    let mut b = build();
    for k in 0..40u64 {
        let (da, _) = admit_recording(&mut a, &acfg);
        let db = admit(&mut b, &acfg);
        assert_eq!(da, db, "request {k}");
        assert_eq!(a.now(), b.now(), "clocks diverged at request {k}");
        if matches!(da, Admission::Admit { .. }) {
            a.set(k, b"0123456789abcdef");
            b.set(k, b"0123456789abcdef");
        }
    }
}

// -------------------------------------------------------------------
// Drain jitter only lengthens the tail.

#[test]
fn p999_is_monotone_in_drain_jitter() {
    // Same stream, same device, increasing drain-jitter windows: the
    // p999 request latency must be non-decreasing (jitter only ever
    // delays drains, never accelerates them).
    let mut base = ServeConfig::new(Scheme::Slpmt, IndexKind::KvBtree, MixSpec::YCSB_A);
    base.load = 30;
    base.requests = 200;
    base.value_size = 16;
    base.seed = 77;
    base.shards = 1;
    base.pm = Some(PmConfig {
        wpq_entries: 4,
        pm_write_cycles: 1_500,
        ..PmConfig::default()
    });
    let mut last_p999 = 0u64;
    let mut tails = Vec::new();
    for window in [0u64, 4_000, 40_000] {
        let mut c = base.clone();
        c.drain_jitter = window;
        let (row, _) = run_serve(&c, 1);
        assert_eq!(row.served, row.requests, "defaults must not shed");
        assert!(
            row.overall.p999 >= last_p999,
            "p999 regressed as jitter grew: {} cycles at window {window} \
             after {last_p999} (tails so far {tails:?})",
            row.overall.p999
        );
        last_p999 = row.overall.p999;
        tails.push((window, row.overall.p999));
    }
    assert!(
        tails.last().unwrap().1 > tails[0].1,
        "a 40k-cycle jitter window must visibly stretch the tail: {tails:?}"
    );
}
