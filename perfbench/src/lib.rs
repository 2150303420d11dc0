//! End-to-end and per-layer benchmark of the SLPMT simulator.
//!
//! Three workloads drive the simulator's layers through their public
//! functions only:
//!
//! * [`paper_load`] — the paper's YCSB-load insert matrix (eleven
//!   schemes × eight indexes, 1,000 inserts per cell);
//! * [`kv_serve`] — memcached-text YCSB-B requests served open loop by
//!   one `KvStore`, latency timed from each request's due time;
//! * [`crash_recover`] — seeded persist-event crash points on
//!   delete-heavy traces, each recovered and checked by the streaming
//!   oracle.
//!
//! Each reports simulated time (what the modelled design takes) and
//! host time (what the simulator takes), checks its outputs, and in a
//! traced run attributes both to layers (see [`layers`]). The model is
//! validated only against the paper's gem5 figures; the
//! [`reference`] values are those figures.

#![forbid(unsafe_code)]

pub mod crash_recover;
pub mod kv_serve;
pub mod layers;
pub mod paper_load;
pub mod spans;
pub mod stats;

use slpmt_core::{Scheme, SchemeKind};
use slpmt_workloads::PmContext;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// The paper's headline figures (HPCA 2023, gem5 evaluation) — the only
/// reference the simulator's model is checked against.
pub mod reference {
    /// SLPMT's mean speedup over the FG baseline on the four kernels.
    pub const SLPMT_SPEEDUP_VS_FG: f64 = 1.57;
    /// SLPMT's mean PM write-traffic reduction over FG, percent.
    pub const SLPMT_TRAFFIC_REDUCTION_PCT: f64 = 35.0;
    /// Core clock of the modelled machine (Table III), Hz.
    pub const CLOCK_HZ: f64 = 2.0e9;
}

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 3] = ["paper-load", "kv-serve", "crash-recover"];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, e.g. `us` or `cycles`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Host seconds the measured phase lasts (at least one full round
    /// always runs).
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics), `false` for the
    /// untraced run (end-to-end metrics).
    pub trace: bool,
    /// Non-vacuity hook: corrupts one expected value so the workload's
    /// output check must fail.
    pub wrong_expectation: bool,
}

impl Params {
    /// Parameters for `seed` with every check expecting the right
    /// values.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Params {
            seed,
            seconds,
            trace,
            wrong_expectation: false,
        }
    }

    /// The measured-phase budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (inserts, requests or crash points).
    pub attempted: u64,
    /// Operations that failed a check, were shed or got an error reply.
    pub failed: u64,
    /// Reproducible description of every failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run).
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (sample counts, check verdicts).
    pub notes: Vec<String>,
    /// Simulated quantities that must repeat exactly for a seed.
    pub sim_fingerprint: Vec<(String, u64)>,
    /// Host spans of a traced run, as tab-separated text.
    pub spans_tsv: String,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a failed check covering `ops` operations.
    pub fn fail(&mut self, ops: u64, detail: String) {
        self.failed += ops;
        self.failures.push(detail);
    }

    /// Adds a sub-run's operations and failures to this outcome.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Records a simulated quantity for the determinism check.
    pub fn fingerprint(&mut self, name: impl Into<String>, value: u64) {
        self.sim_fingerprint.push((name.into(), value));
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// Runs the named workload.
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    match workload {
        "paper-load" => Ok(paper_load::run(p)),
        "kv-serve" => Ok(kv_serve::run(p)),
        "crash-recover" => Ok(crash_recover::run(p)),
        other => Err(format!(
            "unknown workload {other:?} (want one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Derives an independent sub-seed from the run seed (one per round,
/// cell or trial) with the SplitMix64 finaliser.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    slpmt_prng::splitmix64(&mut s)
}

/// Host set-up timing. Set-up is repeated several times in a run,
/// spread between the measured batches so the repetitions sample
/// different moments of a noisy host, and the median is reported.
#[derive(Debug, Default)]
pub struct Setup {
    secs: Vec<f64>,
}

impl Setup {
    /// Runs one set-up repetition and records its host time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.secs.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Records `setup_s`: the median repetition, scaled like the other
    /// host metrics by the run's host `slowdown` (see [`HostOps`]).
    pub fn report(&self, out: &mut Outcome, slowdown: f64) {
        let median = stats::median(&self.secs);
        out.metric("setup_s", "s", median / slowdown);
        out.notes.push(format!(
            "set-up: median of {} repetitions, unscaled {median:.6} s",
            self.secs.len()
        ));
    }
}

/// One open-loop trial at a fixed offered rate, in simulated cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trial {
    /// p99 latency from each operation's due time.
    pub p99: u64,
    /// Operations shed or refused.
    pub shed: u64,
    /// How late the worker picked up the last operation (the latest of
    /// several episodes).
    pub final_lateness: u64,
}

impl Trial {
    /// Whether the trial meets latency limit `limit` with nothing shed
    /// and no backlog left at the end.
    pub fn meets(&self, limit: u64) -> bool {
        self.p99 <= limit && self.shed == 0 && self.final_lateness <= limit
    }
}

/// The highest offered rate, in operations per simulated second, at
/// which `trial(mean_gap)` meets `limit`. Bisects the mean inter-arrival
/// gap (cycles) between half and a few times `service` (the mean busy
/// cycles per operation). Deterministic for deterministic trials.
pub fn slo_rate(limit: u64, service: f64, mut trial: impl FnMut(u64) -> Trial) -> f64 {
    let mut lo = (service * 0.5).max(1.0) as u64;
    let mut hi = (service * 4.0).max(2.0) as u64;
    let mut doublings = 0;
    while !trial(hi).meets(limit) {
        lo = hi;
        hi *= 2;
        doublings += 1;
        if doublings == 6 {
            return reference::CLOCK_HZ / hi as f64;
        }
    }
    for _ in 0..8 {
        if hi - lo <= 1 {
            break;
        }
        let mid = lo + (hi - lo) / 2;
        if trial(mid).meets(limit) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    reference::CLOCK_HZ / hi as f64
}

/// Host per-operation timing, in batches.
///
/// Host time on a shared machine slows by up to a third for seconds to
/// minutes at a time. Two measures keep the reported figures steady:
/// each metric is computed per batch and the median over batches is
/// reported, and a fixed workload ([`calibration_pass`]), timed every
/// [`CALIBRATE_EVERY`] between operations, scales the result by the
/// run's median calibration time to the speed the host has when it runs
/// the calibration in [`CALIBRATION_REF_NS`]. The unscaled figures are
/// printed beside them.
#[derive(Debug, Default)]
pub struct HostOps {
    /// Host ns of each operation of the open batch.
    batch: Vec<f64>,
    /// Per closed batch: (ops per second, p50 µs, p99 µs).
    closed: Vec<(f64, f64, f64)>,
    /// Summed host ns of every operation timed.
    pub total_ns: f64,
    ops: u64,
    smallest: usize,
    calibration_ns: Vec<f64>,
    last_calibration: Option<Instant>,
}

/// Host time between two calibration passes. A single pass varies by
/// 15–25% on a shared host, so the run's median needs many of them; at
/// this interval the passes take about 1% of a run.
pub const CALIBRATE_EVERY: Duration = Duration::from_millis(500);

/// Host ns of one [`calibration_pass`] that the reported host metrics
/// are scaled to (the pass's typical time on an unloaded 2-vCPU Xeon
/// VM, the host the benchmark's bounds were set on).
pub const CALIBRATION_REF_NS: f64 = 3.3e6;

impl HostOps {
    /// Times one operation.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.push(t0.elapsed().as_nanos() as f64);
        r
    }

    /// Records one operation's host time, and times a calibration pass
    /// when [`CALIBRATE_EVERY`] has passed since the last one.
    pub fn push(&mut self, ns: f64) {
        self.batch.push(ns);
        self.total_ns += ns;
        self.ops += 1;
        if self
            .last_calibration
            .map_or(true, |t| t.elapsed() >= CALIBRATE_EVERY)
        {
            self.calibration_ns.push(calibration_pass());
            self.last_calibration = Some(Instant::now());
        }
    }

    /// Closes the open batch (a no-op when it is empty).
    pub fn end_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let n = self.batch.len();
        let total_s = self.batch.iter().sum::<f64>() / 1e9;
        // In place: the batch buffer is reused, not reallocated.
        let us = &mut self.batch;
        us.iter_mut().for_each(|ns| *ns /= 1e3);
        let p50 = stats::percentile(us, 50.0);
        let p99 = stats::percentile(us, 99.0);
        us.clear();
        self.closed
            .push((stats::ratio(n as f64, total_s), p50, p99));
        self.smallest = if self.closed.len() == 1 {
            n
        } else {
            self.smallest.min(n)
        };
    }

    /// How much slower than the reference the host ran the calibration
    /// over this run (median of its passes).
    pub fn slowdown(&self) -> f64 {
        stats::median(&self.calibration_ns) / CALIBRATION_REF_NS
    }

    /// Records the end-to-end host metrics: the median over batches of
    /// each batch's throughput (operations over summed operation time)
    /// and of its p50 and p99 operation time, scaled by the run's
    /// median calibration time against [`CALIBRATION_REF_NS`].
    pub fn report(&mut self, out: &mut Outcome, what: &str) {
        self.end_batch();
        let pick = |f: fn(&(f64, f64, f64)) -> f64| {
            stats::median(&self.closed.iter().map(f).collect::<Vec<_>>())
        };
        let (thr, p50, p99) = (pick(|b| b.0), pick(|b| b.1), pick(|b| b.2));
        let slowdown = self.slowdown();
        out.metric("ops_per_s", "op/s", thr * slowdown);
        out.metric("op_p50_us", "us", p50 / slowdown);
        out.metric("op_p99_us", "us", p99 / slowdown);
        out.notes.push(format!(
            "host timing: {} {what} in {} batches of at least {} ({} beyond each p99); \
             medians over batches; host ran the calibration {slowdown:.3}x the reference \
             time (median of {} passes); unscaled {thr:.0} op/s, p50 {p50:.3} us, p99 {p99:.3} us",
            self.ops,
            self.closed.len(),
            self.smallest,
            self.smallest / 100,
            self.calibration_ns.len()
        ));
    }
}

/// Host ns of one fixed calibration pass: 150,000 inserts and lookups
/// on a hash map of at most 16,384 keys with a fixed hasher. It shares
/// no code with the simulator, so its time tracks how fast the host is
/// at the moment, not how fast the simulator is. Like the simulator it
/// is branchy, hashing, cache-resident work, which a busy neighbour on
/// the same core slows as it slows the simulator (a memory-latency-bound
/// pass tracked the host worse); each pass builds its map afresh, so
/// what the simulator left in the caches barely moves it.
pub fn calibration_pass() -> f64 {
    let t0 = Instant::now();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut key = 0x5EED_u64;
    for i in 0..150_000_u64 {
        let k = slpmt_prng::splitmix64(&mut key) & 0x3FFF;
        if i % 3 == 0 {
            map.insert(k, i);
        } else {
            std::hint::black_box(map.get(&k));
        }
    }
    std::hint::black_box(map.len());
    t0.elapsed().as_nanos() as f64
}

/// Relative host-time overhead of `traced` over `plain`, percent.
pub fn overhead_pct(plain: &HostOps, traced: &HostOps) -> f64 {
    (traced.total_ns - plain.total_ns) / plain.total_ns * 100.0
}

/// SLPMT against the FG baseline on one input (a kernel, an index or a
/// request stream): simulated cycles and PM media bytes of each.
#[derive(Debug, Default, Clone, Copy)]
pub struct Versus {
    fg_cycles: u64,
    slpmt_cycles: u64,
    fg_media: u64,
    slpmt_media: u64,
}

impl Versus {
    /// Adds one phase of `scheme` (schemes other than FG and SLPMT are
    /// ignored).
    pub fn add(&mut self, scheme: SchemeKind, cycles: u64, media: u64) {
        if scheme == FG {
            self.fg_cycles += cycles;
            self.fg_media += media;
        } else if scheme == SLPMT {
            self.slpmt_cycles += cycles;
            self.slpmt_media += media;
        }
    }

    /// Simulated cycles of the SLPMT side.
    pub fn slpmt_cycles(&self) -> u64 {
        self.slpmt_cycles
    }

    /// Geometric mean over inputs of FG ÷ SLPMT cycles.
    pub fn speedup(inputs: &[Versus]) -> f64 {
        stats::geomean(
            inputs
                .iter()
                .map(|v| stats::ratio(v.fg_cycles as f64, v.slpmt_cycles as f64)),
        )
    }

    /// Mean over inputs of SLPMT's PM media-byte reduction against FG,
    /// percent.
    pub fn reduction_pct(inputs: &[Versus]) -> f64 {
        let sum: f64 = inputs
            .iter()
            .map(|v| 1.0 - stats::ratio(v.slpmt_media as f64, v.fg_media as f64))
            .sum();
        sum / inputs.len().max(1) as f64 * 100.0
    }
}

/// The FG baseline.
pub const FG: SchemeKind = SchemeKind::Hardware(Scheme::Fg);
/// The full design.
pub const SLPMT: SchemeKind = SchemeKind::Hardware(Scheme::Slpmt);

/// Records `slpmt_speedup_vs_fg` and its distance from the paper's
/// figure, `paper_speedup_error_pct`.
pub fn report_speedup(out: &mut Outcome, speedup: f64) {
    let paper = reference::SLPMT_SPEEDUP_VS_FG;
    out.metric("slpmt_speedup_vs_fg", "x", speedup);
    out.metric(
        "paper_speedup_error_pct",
        "%",
        (speedup - paper).abs() / paper * 100.0,
    );
}

/// Serves `ops` open loop on one context: op `i` is due at the
/// context's current clock plus `arrivals[i]`, and the worker idles
/// forward when it is early. Pushes each op's latency from its due time
/// into `lat` and returns how late the worker picked up the last op.
pub fn open_loop_episode<T>(
    ctx: &mut PmContext,
    ops: &[T],
    arrivals: &[u64],
    lat: &mut Vec<u64>,
    mut step: impl FnMut(&mut PmContext, &T),
) -> u64 {
    let base = ctx.machine().now();
    let mut last = 0;
    for (op, &at) in ops.iter().zip(arrivals) {
        let due = base + at;
        let now = ctx.machine().now();
        if now < due {
            ctx.compute(due - now);
        }
        last = ctx.machine().now() - due;
        step(ctx, op);
        lat.push(ctx.machine().now() - due);
    }
    last
}
