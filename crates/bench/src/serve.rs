//! Parallel serve fan-out + request-latency aggregation.
//!
//! One serve run fans a [`ServeConfig`]'s shards across host workers
//! with [`par_map_with`] — each shard is an independent
//! single-threaded simulation, so the merged reports
//! are byte-identical to the serial run at any worker count — and
//! folds the per-shard latency samples into p50/p99/p999 percentiles
//! of simulated cycles. No figure is taken from the host clock.

use slpmt_kv::service::{
    digest64, run_shard_service, shard_streams, ServeConfig, ShardServeReport, VERB_CLASSES,
};
use slpmt_workloads::runner::par_map_with;

/// Simulated-cycle latency percentiles for one request class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeLatency {
    /// Samples aggregated.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Worst observed.
    pub max: u64,
}

impl ServeLatency {
    /// Nearest-rank percentiles over the samples (sorted in place).
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return ServeLatency::default();
        }
        samples.sort_unstable();
        let pick = |num: usize, den: usize| samples[(samples.len() - 1) * num / den];
        ServeLatency {
            count: samples.len() as u64,
            p50: pick(50, 100),
            p99: pick(99, 100),
            p999: pick(999, 1000),
            max: *samples.last().unwrap(),
        }
    }
}

/// One aggregated serve run.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// The configuration that ran.
    pub cfg: ServeConfig,
    /// Requests across all shards (scan splitting may push this above
    /// `cfg.requests`).
    pub requests: u64,
    /// Requests dispatched.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests that queued before admission.
    pub queued: u64,
    /// Total cycles spent queueing.
    pub queued_cycles: u64,
    /// Sum of per-shard service-phase cycles.
    pub total_sim_cycles: u64,
    /// Slowest shard's service-phase cycles (the sharded makespan).
    pub makespan_cycles: u64,
    /// Total WPQ stall cycles across shards.
    pub wpq_stall_cycles: u64,
    /// Response bytes across shards.
    pub response_bytes: u64,
    /// Order-sensitive digest of every shard's response digest — the
    /// byte-identity fingerprint CI diffs across worker counts.
    pub digest: u64,
    /// All-verb latency percentiles.
    pub overall: ServeLatency,
    /// Per-verb percentiles, `VERB_CLASSES` order, absent classes
    /// zeroed.
    pub per_verb: Vec<ServeLatency>,
    /// Simulated requests per simulated second, from the makespan
    /// (cycles at 2 GHz), for quick cross-run comparison.
    pub sim_req_per_s: f64,
}

/// Runs every shard of `cfg` across `workers` host threads (callers
/// pass [`threads`] for the default pool) and returns the aggregate
/// row with the raw per-shard reports (determinism tests diff their
/// response bytes).
///
/// [`threads`]: slpmt_workloads::runner::threads
pub fn run_serve(cfg: &ServeConfig, workers: usize) -> (ServeRow, Vec<ShardServeReport>) {
    let (loads, reqs) = shard_streams(cfg);
    let shards: Vec<usize> = (0..cfg.shards.max(1)).collect();
    let reports = par_map_with(&shards, workers, |&s| {
        run_shard_service(cfg, s, &loads[s], &reqs[s])
    });
    (aggregate(cfg, &reports), reports)
}

/// Folds per-shard reports into one [`ServeRow`].
pub fn aggregate(cfg: &ServeConfig, reports: &[ShardServeReport]) -> ServeRow {
    let mut overall = Vec::new();
    let mut per_class: Vec<Vec<u64>> = vec![Vec::new(); VERB_CLASSES.len()];
    let mut digest_stream = Vec::with_capacity(reports.len() * 8);
    let (mut requests, mut served, mut shed, mut queued, mut queued_cycles) = (0, 0, 0, 0, 0);
    let (mut total_sim_cycles, mut makespan_cycles, mut wpq_stall_cycles) = (0, 0u64, 0);
    let mut response_bytes = 0;
    for r in reports {
        requests += r.requests;
        served += r.served;
        shed += r.admission.shed;
        queued += r.admission.queued;
        queued_cycles += r.admission.queued_cycles;
        total_sim_cycles += r.sim_cycles;
        makespan_cycles = makespan_cycles.max(r.sim_cycles);
        wpq_stall_cycles += r.wpq_stall_cycles;
        response_bytes += r.responses.len() as u64;
        digest_stream.extend_from_slice(&r.response_digest.to_le_bytes());
        for (class, samples) in r.samples.iter().enumerate() {
            per_class[class].extend_from_slice(samples);
            overall.extend_from_slice(samples);
        }
    }
    let sim_req_per_s = if makespan_cycles > 0 {
        served as f64 / (makespan_cycles as f64 / 2.0e9)
    } else {
        0.0
    };
    ServeRow {
        cfg: cfg.clone(),
        requests,
        served,
        shed,
        queued,
        queued_cycles,
        total_sim_cycles,
        makespan_cycles,
        wpq_stall_cycles,
        response_bytes,
        digest: digest64(&digest_stream),
        overall: ServeLatency::from_samples(&mut overall),
        per_verb: per_class
            .iter_mut()
            .map(|v| ServeLatency::from_samples(v))
            .collect(),
        sim_req_per_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpmt_core::Scheme;
    use slpmt_workloads::{IndexKind, MixSpec};

    fn cfg(shards: usize) -> ServeConfig {
        let mut c = ServeConfig::new(Scheme::Slpmt, IndexKind::KvBtree, MixSpec::YCSB_B);
        c.load = 80;
        c.requests = 300;
        c.value_size = 16;
        c.seed = 5;
        c.shards = shards;
        c
    }

    #[test]
    fn worker_count_is_invisible() {
        let c = cfg(4);
        let (row1, rep1) = run_serve(&c, 1);
        let (row4, rep4) = run_serve(&c, 4);
        assert_eq!(row1.digest, row4.digest);
        assert_eq!(row1.overall, row4.overall);
        assert_eq!(row1.total_sim_cycles, row4.total_sim_cycles);
        assert_eq!(row1.makespan_cycles, row4.makespan_cycles);
        for (a, b) in rep1.iter().zip(&rep4) {
            assert_eq!(a.responses, b.responses);
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        let (row, _) = run_serve(&cfg(2), 2);
        assert_eq!(row.served, row.requests);
        let l = row.overall;
        assert!(l.count > 0);
        assert!(l.p50 <= l.p99 && l.p99 <= l.p999 && l.p999 <= l.max);
        assert!(l.p50 > 0, "request latency cannot be free");
        let sampled: u64 = row.per_verb.iter().map(|v| v.count).sum();
        assert_eq!(sampled, row.served);
    }

    #[test]
    fn latency_math() {
        let mut s = vec![5, 1, 9, 3, 7];
        let l = ServeLatency::from_samples(&mut s);
        assert_eq!((l.count, l.p50, l.max), (5, 5, 9));
        // Nearest-rank on 5 samples: index 4*99/100 = 3.
        assert_eq!(l.p99, 7);
        assert_eq!(l.p999, 7);
        let mut empty = Vec::new();
        assert_eq!(
            ServeLatency::from_samples(&mut empty),
            ServeLatency::default()
        );
    }
}
