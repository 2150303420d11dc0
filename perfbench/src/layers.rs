//! Per-layer accounting: simulated counters read from each layer's
//! public state, folded runtime-event traces, and host self times.
//!
//! Sources, by layer:
//!
//! * `core` — `MachineStats` (hardware cells) and `RecoveryReport`s;
//! * `logbuf`, `cache` and the signature false-hit ratio — the runtime
//!   event trace folded by `slpmt_trace::Metrics` (the program exposes
//!   no public cache or log-buffer counters);
//! * `pmem` — `PmDevice::{traffic, wpq_stall_cycles}` plus the trace's
//!   WPQ depth samples;
//! * `ptm` — `MachineStats` fence/flush counters of software cells;
//! * `kv` — admission statistics and response bytes;
//! * host times — self times of the benchmark's spans.
//!
//! Stall counters overlap (a WPQ stall inside a commit counts in both),
//! so none of them is ever summed with another.

use crate::spans::SelfTime;
use crate::stats::ratio;
use crate::Outcome;
use slpmt_core::{MachineStats, RecoveryReport, TraceRecord};
use slpmt_kv::AdmissionStats;
use slpmt_pmem::{WriteTraffic, LINE_BYTES};
use slpmt_ptm::PtmTraffic;
use slpmt_trace::{Event, Metrics};
use slpmt_workloads::PmContext;
use std::collections::BTreeMap;

macro_rules! stats_fields {
    ($mac:ident) => {
        $mac!(
            loads,
            stores,
            store_ts,
            tx_begins,
            tx_commits,
            tx_aborts,
            suspended_aborts,
            cross_core_aborts,
            cross_core_repair_aborts,
            log_records_created,
            log_records_discarded,
            commit_line_persists,
            lazy_lines_deferred,
            lazy_lines_forced,
            lazy_lines_overflowed,
            signature_hits,
            commit_stall_cycles,
            compute_cycles,
            fences,
            flushes,
            fence_stall_cycles
        )
    };
}

/// `a - b`, field by field.
pub fn stats_delta(a: &MachineStats, b: &MachineStats) -> MachineStats {
    let mut d = MachineStats::new();
    macro_rules! sub {
        ($($f:ident),*) => { $(d.$f = a.$f - b.$f;)* };
    }
    stats_fields!(sub);
    d
}

/// A context's cumulative counters at the start of a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    now: u64,
    stats: MachineStats,
    traffic: WriteTraffic,
    soft: PtmTraffic,
    wpq_stall: u64,
}

/// What one measured phase of one context did, in simulated terms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// Machine counters.
    pub stats: MachineStats,
    /// PM write traffic, with software-PTM log-arena persists counted
    /// as log traffic (as `runner::run_inserts_with` reports it).
    pub traffic: WriteTraffic,
    /// Cycles requesters stalled on a full WPQ.
    pub wpq_stall: u64,
    /// Whether the context simulated a software PTM.
    pub software: bool,
}

impl Phase {
    /// PM media bytes written (whole WPQ lines, data and log).
    pub fn media_bytes(&self) -> u64 {
        self.traffic.media_bytes()
    }
}

impl Probe {
    /// Snapshots `ctx`'s counters.
    pub fn of(ctx: &PmContext) -> Probe {
        let m = ctx.machine();
        Probe {
            now: m.now(),
            stats: *m.stats(),
            traffic: *m.device().traffic(),
            soft: ctx.soft().map(|s| s.traffic).unwrap_or_default(),
            wpq_stall: m.device().wpq_stall_cycles(),
        }
    }

    /// The phase from this snapshot up to `ctx`'s current state.
    pub fn phase(&self, ctx: &PmContext) -> Phase {
        let now = Probe::of(ctx);
        let mut t = now.traffic;
        let s = &self.traffic;
        t.data_bytes -= s.data_bytes;
        t.log_bytes -= s.log_bytes;
        t.data_lines -= s.data_lines;
        t.log_records -= s.log_records;
        t.wpq_lines -= s.wpq_lines;
        let soft_log = now.soft.log_media_bytes - self.soft.log_media_bytes;
        t.data_bytes -= soft_log;
        t.data_lines -= soft_log / LINE_BYTES as u64;
        t.log_bytes += soft_log;
        t.log_records += now.soft.log_records - self.soft.log_records;
        Phase {
            cycles: now.now - self.now,
            stats: stats_delta(&now.stats, &self.stats),
            traffic: t,
            wpq_stall: now.wpq_stall - self.wpq_stall,
            software: ctx.soft().is_some(),
        }
    }
}

/// Folds a machine's event trace chunk by chunk into one
/// `slpmt_trace::Metrics`. The signature ground truth (the newest exact
/// line set per live transaction ID) is carried across chunks, so a
/// hit is judged against the same set whether or not a chunk boundary
/// fell between the insert and the hit.
#[derive(Debug, Default)]
pub struct TraceFold {
    /// The folded metrics so far.
    pub metrics: Metrics,
    carry: Vec<TraceRecord>,
}

impl TraceFold {
    /// Folds the next chunk of records (in emission order).
    pub fn absorb(&mut self, records: Vec<TraceRecord>) {
        if records.is_empty() {
            return;
        }
        let carried = self.carry.len();
        let mut all = std::mem::take(&mut self.carry);
        all.extend(records);
        let mut m = Metrics::from_records(&all);
        m.records -= carried;
        m.sig_inserts -= carried as u64;
        merge(&mut self.metrics, &m);
        let mut live: BTreeMap<u8, Option<&TraceRecord>> = BTreeMap::new();
        for rec in &all {
            match &rec.event {
                Event::SigInsert { id, .. } => {
                    live.insert(*id, Some(rec));
                }
                Event::TxnIdRetire { id, .. } => {
                    live.insert(*id, None);
                }
                _ => {}
            }
        }
        self.carry = live.into_values().flatten().cloned().collect();
    }
}

/// Adds `m`'s counts into `into` (maxima take the maximum).
pub fn merge(into: &mut Metrics, m: &Metrics) {
    into.records += m.records;
    for (a, b) in into.tier_hist.iter_mut().zip(&m.tier_hist) {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
    }
    into.wpq_depth_max = into.wpq_depth_max.max(m.wpq_depth_max);
    into.wpq_depth_sum += m.wpq_depth_sum;
    into.wpq_depth_samples += m.wpq_depth_samples;
    into.wpq_stall_cycles += m.wpq_stall_cycles;
    for (a, b) in into.persists.iter_mut().zip(&m.persists) {
        *a += b;
    }
    into.sig_inserts += m.sig_inserts;
    into.sig_hits += m.sig_hits;
    into.sig_false_hits += m.sig_false_hits;
    into.forced_persists += m.forced_persists;
    into.forced_lines += m.forced_lines;
    into.commits += m.commits;
    into.aborts += m.aborts;
    into.cross_conflicts += m.cross_conflicts;
    for (a, b) in into.cache_evicts.iter_mut().zip(&m.cache_evicts) {
        *a += b;
    }
    into.cache_dirty_evicts += m.cache_dirty_evicts;
    into.cache_logged_evicts += m.cache_logged_evicts;
    for (a, b) in into.cache_fetches.iter_mut().zip(&m.cache_fetches) {
        *a += b;
    }
    into.cache_fetch_replications += m.cache_fetch_replications;
    into.tier_appends += m.tier_appends;
    into.tier_coalesces += m.tier_coalesces;
    into.tier_overflow_drains += m.tier_overflow_drains;
    into.requests += m.requests;
    into.requests_shed += m.requests_shed;
    into.request_queued_cycles += m.request_queued_cycles;
}

/// Everything a traced run accumulates for the per-layer report.
#[derive(Debug, Default)]
pub struct Layers {
    /// Machine counters of hardware-scheme phases.
    pub hw_stats: MachineStats,
    /// Simulated cycles of hardware-scheme phases.
    pub hw_cycles: u64,
    /// Machine counters of software-PTM phases.
    pub sw_stats: MachineStats,
    /// PM write traffic of every phase.
    pub traffic: WriteTraffic,
    /// WPQ stall cycles of every phase.
    pub wpq_stall: u64,
    /// Folded event traces.
    pub trace: Metrics,
    /// Trace records dropped by full rings (must stay 0).
    pub dropped: u64,
    /// Log-replay totals.
    pub recovery: RecoverySums,
    /// Admission decisions (kv-serve).
    pub admission: AdmissionStats,
    /// Response bytes sent (kv-serve).
    pub response_bytes: u64,
}

/// Summed `RecoveryReport` counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoverySums {
    /// Undo records applied.
    pub undo_applied: u64,
    /// Redo records applied.
    pub redo_applied: u64,
    /// Transactions rolled back.
    pub rolled_back: u64,
    /// Lines persisted by replay.
    pub lines_persisted: u64,
}

impl RecoverySums {
    /// Adds one report.
    pub fn add(&mut self, r: &RecoveryReport) {
        self.undo_applied += r.undo_applied as u64;
        self.redo_applied += r.redo_applied as u64;
        self.rolled_back += r.rolled_back.len() as u64;
        self.lines_persisted += r.lines_persisted as u64;
    }
}

impl Layers {
    /// Adds one measured phase.
    pub fn add_phase(&mut self, ph: &Phase) {
        if ph.software {
            self.sw_stats.accumulate(&ph.stats);
        } else {
            self.hw_stats.accumulate(&ph.stats);
            self.hw_cycles += ph.cycles;
        }
        self.traffic += ph.traffic;
        self.wpq_stall += ph.wpq_stall;
    }

    /// Adds one machine's folded trace and its drop count.
    pub fn add_trace(&mut self, fold: &TraceFold, dropped: u64) {
        merge(&mut self.trace, &fold.metrics);
        self.dropped += dropped;
    }

    /// Records every per-layer metric into `out`. `spans` are the
    /// traced run's self times; `reduction_pct` is SLPMT's PM traffic
    /// reduction over FG on this workload; `overhead_pct` is the traced
    /// run's host-time overhead over the untraced run.
    pub fn report(
        &self,
        out: &mut Outcome,
        spans: &BTreeMap<&'static str, SelfTime>,
        reduction_pct: f64,
        overhead_pct: f64,
    ) {
        let us = |name: &str| spans.get(name).copied().unwrap_or_default().mean_us();
        let hw = &self.hw_stats;
        let sw = &self.sw_stats;
        let t = &self.trace;
        let n = |v: u64| v as f64;

        out.metric("core.tx_commits", "count", n(hw.tx_commits));
        out.metric(
            "core.commit_stall_cycles",
            "cycles",
            n(hw.commit_stall_cycles),
        );
        out.metric("core.compute_cycles", "cycles", n(hw.compute_cycles));
        out.metric(
            "core.fence_stall_cycles",
            "cycles",
            n(hw.fence_stall_cycles),
        );
        let attributed = hw.commit_stall_cycles + hw.compute_cycles + hw.fence_stall_cycles;
        out.metric(
            "core.unattributed_cycles",
            "cycles",
            self.hw_cycles as f64 - attributed as f64,
        );
        out.metric(
            "core.log_records_created",
            "count",
            n(hw.log_records_created),
        );
        out.metric(
            "core.log_discard_ratio",
            "ratio",
            ratio(n(hw.log_records_discarded), n(hw.log_records_created)),
        );
        out.metric(
            "core.commit_line_persists",
            "count",
            n(hw.commit_line_persists),
        );
        out.metric(
            "core.lazy_lines_deferred",
            "count",
            n(hw.lazy_lines_deferred),
        );
        out.metric("core.lazy_lines_forced", "count", n(hw.lazy_lines_forced));
        out.metric("core.signature_hits", "count", n(hw.signature_hits));
        out.metric(
            "core.sig_false_hit_ratio",
            "ratio",
            ratio(n(t.sig_false_hits), n(t.sig_hits)),
        );

        let r = &self.recovery;
        out.metric("core.recover_us", "us", us("core.recover"));
        out.metric("core.undo_applied", "count", n(r.undo_applied));
        out.metric("core.redo_applied", "count", n(r.redo_applied));
        out.metric("core.rolled_back_txns", "count", n(r.rolled_back));
        out.metric(
            "core.recovery_lines_persisted",
            "count",
            n(r.lines_persisted),
        );

        out.metric("logbuf.appends", "count", n(t.tier_appends));
        out.metric("logbuf.coalesces", "count", n(t.tier_coalesces));
        out.metric(
            "logbuf.coalesce_ratio",
            "ratio",
            ratio(n(t.tier_coalesces), n(t.tier_appends)),
        );
        out.metric("logbuf.overflow_drains", "count", n(t.tier_overflow_drains));
        out.metric(
            "logbuf.tier_occupancy_mean",
            "records",
            (0..4).map(|tier| t.tier_mean(tier)).sum(),
        );

        out.metric("cache.evicts_l1", "count", n(t.cache_evicts[1]));
        out.metric("cache.evicts_l2", "count", n(t.cache_evicts[2]));
        out.metric("cache.evicts_l3", "count", n(t.cache_evicts[3]));
        out.metric("cache.fetch_l2", "count", n(t.cache_fetches[2]));
        out.metric("cache.fetch_l3", "count", n(t.cache_fetches[3]));
        out.metric("cache.fetch_pm", "count", n(t.cache_fetches[4]));
        out.metric(
            "cache.llc_miss_ratio",
            "ratio",
            ratio(
                n(t.cache_fetches[4]),
                n(t.cache_fetches[3] + t.cache_fetches[4]),
            ),
        );
        out.metric("cache.dirty_evicts", "count", n(t.cache_dirty_evicts));
        out.metric("cache.logged_evicts", "count", n(t.cache_logged_evicts));

        out.metric("pmem.wpq_stall_cycles", "cycles", n(self.wpq_stall));
        out.metric("pmem.wpq_depth_mean", "entries", t.wpq_depth_mean());
        out.metric("pmem.wpq_depth_max", "entries", f64::from(t.wpq_depth_max));
        out.metric("pmem.data_bytes", "B", n(self.traffic.data_bytes));
        out.metric("pmem.log_bytes", "B", n(self.traffic.log_bytes));
        out.metric("pmem.slpmt_traffic_reduction_pct", "%", reduction_pct);

        out.metric("ptm.insert_us", "us", us("ptm.insert"));
        out.metric("ptm.fences", "count", n(sw.fences));
        out.metric("ptm.flushes", "count", n(sw.flushes));
        out.metric("ptm.fence_stall_cycles", "cycles", n(sw.fence_stall_cycles));

        let a = &self.admission;
        out.metric("kv.parse_us", "us", us("kv.parse"));
        out.metric("kv.admit_us", "us", us("kv.admit"));
        out.metric("kv.dispatch_us", "us", us("kv.dispatch"));
        out.metric("kv.respond_us", "us", us("kv.respond"));
        out.metric("kv.queued", "count", n(a.queued));
        out.metric("kv.queued_cycles", "cycles", n(a.queued_cycles));
        out.metric("kv.shed", "count", n(a.shed));
        out.metric("kv.response_bytes", "B", n(self.response_bytes));

        // Inserts on software cells are the `ptm.insert` span; the
        // workloads layer's insert figure covers both kinds of cell.
        let ins = [spans.get("workloads.insert"), spans.get("ptm.insert")]
            .into_iter()
            .flatten()
            .fold(SelfTime::default(), |acc, s| SelfTime {
                calls: acc.calls + s.calls,
                self_ns: acc.self_ns + s.self_ns,
            });
        out.metric("workloads.build_us", "us", us("workloads.build"));
        out.metric("workloads.insert_us", "us", ins.mean_us());
        out.metric("workloads.remove_us", "us", us("workloads.remove"));
        out.metric("workloads.recover_us", "us", us("workloads.recover"));
        out.metric(
            "workloads.oracle_check_us",
            "us",
            us("workloads.oracle_check"),
        );

        out.metric("trace.overhead_pct", "%", overhead_pct);
        out.metric("trace.dropped", "count", n(self.dropped));
        if self.dropped > 0 {
            // A dropped record would undercount every trace-folded metric.
            out.fail(0, format!("event trace dropped {} records", self.dropped));
        }
    }
}

/// Every per-layer metric name, in report order (the traced run reports
/// each of them on every workload; layers a workload never enters
/// read 0).
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    let mut out = Outcome::default();
    Layers::default().report(&mut out, &BTreeMap::new(), 0.0, 0.0);
    out.metrics.iter().map(|m| (m.name, m.unit)).collect()
}
