//! The paper's evaluation as one gated claim table.
//!
//! Every claim EXPERIMENTS.md makes about Table I, Figs. 4 and 8–14,
//! the ablations and the two extension experiments is one [`Claim`]:
//! the paper's value, the measured text, an acceptance [`Check`] and a
//! declared [`Status`]. [`table`] simulates every cell the figures
//! read exactly once, in one [`par_map_with`] over `SLPMT_THREADS`
//! workers; figures that read the same cell share its run. Runs are
//! always the paper's 1,000 YCSB-load inserts at seed 42
//! ([`DEFAULT_OPS`], [`SEED`]), whatever the environment says.
//! [`markdown`] renders the tables `slpmt paper` prints and
//! EXPERIMENTS.md embeds; `tests/paper_claims.rs` asserts every check
//! and that the embedded copy is current.
//!
//! A ✓ claim reproduces the paper: its band is the paper's value or
//! range widened by 10 % ([`near`]), or the qualitative claim written
//! as a predicate. A ≈ claim holds in direction only: its check is
//! that direction, and EXPERIMENTS.md explains the magnitude gap.
//! Each figure's table ends with its cell count and the cells' summed
//! simulated cycles, so drift below print precision still shows.

use crate::{geomean, DEFAULT_OPS, SEED};
use slpmt_annotate::{AnnotationTable, TxnIr};
use slpmt_cache::CacheConfig;
use slpmt_core::{HardwareOverhead, Machine, MachineConfig, MachineStats, Scheme, StoreKind};
use slpmt_pmem::{PersistEvent, PmAddr, WriteTraffic};
use slpmt_workloads::runner::{
    par_map_with, run, threads, IndexKind, RunReport, RunResult, RunSpec, ShardRun,
};
use slpmt_workloads::{ycsb_load, ycsb_mix, AnnotationSource, KeyDist, MixSpec};
use std::cell::RefCell;
use std::fmt::{self, Write as _};
use IndexKind::{Hashtable, KvCtree, Rbtree};
use Scheme::{Atom, Ede, Fg, FgCl, FgLg, FgLz, Slpmt, SlpmtCl};
use Status::{Approx, Holds};

const KERNELS: [IndexKind; 4] = IndexKind::KERNELS;
const PMKV: [IndexKind; 3] = IndexKind::PMKV;
/// Figs. 10 and 11's value sizes, in bytes.
const SIZES: [usize; 5] = [16, 32, 64, 128, 256];
/// The mixed extension: (label, read %, update %, remove %); the rest
/// of each stream is fresh inserts, at 64 B values.
const MIXES: [(&str, u8, u8, u8); 5] = [
    ("load (insert-only)", 0, 0, 0),
    ("write-heavy (30r/10d)", 30, 0, 10),
    ("YCSB-A (50r/50u)", 50, 50, 0),
    ("YCSB-B (95r/5u)", 95, 5, 0),
    ("read-heavy (90r/5d)", 90, 0, 5),
];
const MIXED_KINDS: [IndexKind; 3] = [Hashtable, Rbtree, KvCtree];

/// A figure's claims, computed from the outcomes it reads.
type Claims = fn(&Runs) -> Vec<Claim>;

/// Every figure, in table order.
const FIGURES: [(&str, Claims); 13] = [
    ("Table I — `store`/`storeT` bits", table_i),
    ("Figure 4 — undo persist order", fig04),
    ("§III-D — hardware budget", iii_d),
    ("Figure 8 — kernels", fig08),
    ("Figure 9 — line granularity", fig09),
    ("Figure 10 — speedup vs value size", fig10),
    ("Figure 11 — traffic vs value size", fig11),
    ("Figure 12 — speedup vs PM write latency", fig12),
    ("Figure 13 — compiler annotations", fig13),
    ("Figure 14 — PMKV, compiler-annotated", fig14),
    ("Ablations", ablations),
    ("Mixed workloads (beyond the paper)", mixed),
    ("Sharded scaling (beyond the paper)", sharded),
];

/// Whether a claim reproduces the paper or only its direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// ✓ — within the paper's band.
    Holds,
    /// ≈ — right direction, magnitude explained in EXPERIMENTS.md.
    Approx,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Holds => "✓",
            Approx => "≈",
        })
    }
}

/// A claim's acceptance predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// Every value lies in `[lo, hi]` (either end may be infinite).
    Band {
        /// The measured values the claim is about.
        values: Vec<f64>,
        /// Lower bound, inclusive.
        lo: f64,
        /// Upper bound, inclusive.
        hi: f64,
    },
    /// The measured outcome equals the expected one.
    Equal {
        /// What the simulator produced.
        got: String,
        /// What the claim requires.
        want: String,
    },
}

impl Check {
    /// Whether the measured values satisfy the predicate.
    pub fn holds(&self) -> bool {
        match self {
            Check::Band { values, lo, hi } => values.iter().all(|v| (lo..=hi).contains(&v)),
            Check::Equal { got, want } => got == want,
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Check::Band { lo, hi, .. } if *hi == f64::INFINITY => write!(f, "≥ {lo}"),
            Check::Band { lo, hi, .. } if *lo == f64::NEG_INFINITY => write!(f, "≤ {hi}"),
            Check::Band { lo, hi, .. } => write!(f, "[{lo}, {hi}]"),
            Check::Equal { want, .. } => write!(f, "= {want}"),
        }
    }
}

/// One row of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What is measured.
    pub metric: String,
    /// The paper's value (`—` for claims beyond the paper).
    pub paper: String,
    /// The measured value, as printed.
    pub measured: String,
    /// The acceptance predicate.
    pub check: Check,
    /// The declared status.
    pub status: Status,
}

/// One row: `claim!(status, metric, paper; check; measured format…)`.
macro_rules! claim {
    ($status:expr, $metric:expr, $paper:expr; $check:expr; $($measured:tt)+) => {
        Claim {
            metric: $metric.to_string(),
            paper: $paper.to_string(),
            measured: format!($($measured)+),
            check: $check,
            status: $status,
        }
    };
}

/// One figure's table: its claims plus the cells it read.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Heading, e.g. `Figure 8 — kernels`.
    pub name: &'static str,
    /// The figure's rows.
    pub claims: Vec<Claim>,
    /// Distinct simulation cells the figure read.
    cells: usize,
    /// Those cells' simulated cycles, summed (shards included).
    cycles: u64,
}

fn band(values: impl IntoIterator<Item = f64>, lo: f64, hi: f64) -> Check {
    Check::Band {
        values: values.into_iter().collect(),
        lo,
        hi,
    }
}

fn at_least(values: impl IntoIterator<Item = f64>, lo: f64) -> Check {
    band(values, lo, f64::INFINITY)
}

fn at_most(values: impl IntoIterator<Item = f64>, hi: f64) -> Check {
    band(values, f64::NEG_INFINITY, hi)
}

/// The paper's value (`lo == hi`) or range widened by 10 %, each end
/// rounded to two decimals.
fn near(values: impl IntoIterator<Item = f64>, lo: f64, hi: f64) -> Check {
    let round = |x: f64| (x * 100.0).round() / 100.0;
    band(values, round(lo * 0.9), round(hi * 1.1))
}

fn equal(got: impl fmt::Display, want: impl fmt::Display) -> Check {
    Check::Equal {
        got: got.to_string(),
        want: want.to_string(),
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// `values` as `a / b / c`, each with `prec` decimals.
fn slashed(values: &[f64], prec: usize) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.prec$}")).collect();
    parts.join(" / ")
}

/// Consecutive differences of a series.
fn steps(series: &[f64]) -> Vec<f64> {
    series.windows(2).map(|w| w[1] - w[0]).collect()
}

/// The index of the largest value.
fn argmax(values: &[f64]) -> usize {
    (0..values.len())
        .max_by(|&a, &b| values[a].total_cmp(&values[b]))
        .expect("a non-empty series")
}

/// A measured run through [`run`]: `scheme` on `kind` under Table III
/// timing unless a field says otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunCell {
    scheme: Scheme,
    kind: IndexKind,
    value: usize,
    latency_ns: u64,
    source: AnnotationSource,
    /// An index into [`MIXES`]; `None` is the YCSB-load stream.
    mix: Option<usize>,
    shards: usize,
    /// `Some(on)`: tiny caches with speculative logging on or off.
    speculative: Option<bool>,
}

/// The YCSB-load run of `scheme` on `kind` at 256 B and 500 ns.
fn load(scheme: Scheme, kind: IndexKind) -> RunCell {
    RunCell {
        scheme,
        kind,
        value: 256,
        latency_ns: 500,
        source: AnnotationSource::Manual,
        mix: None,
        shards: 1,
        speculative: None,
    }
}

impl RunCell {
    fn value(self, value: usize) -> Self {
        RunCell { value, ..self }
    }

    fn latency(self, latency_ns: u64) -> Self {
        RunCell { latency_ns, ..self }
    }

    fn source(self, source: AnnotationSource) -> Self {
        RunCell { source, ..self }
    }

    fn mix(self, mix: usize) -> Self {
        RunCell {
            mix: Some(mix),
            value: 64,
            ..self
        }
    }

    fn shards(self, shards: usize) -> Self {
        RunCell { shards, ..self }
    }

    fn speculative(self, on: bool) -> Self {
        RunCell {
            speculative: Some(on),
            ..self
        }
    }

    fn simulate(&self) -> RunReport {
        let mut cfg = MachineConfig::for_scheme(self.scheme);
        cfg.pm = cfg.pm.with_write_latency_ns(self.latency_ns);
        if let Some(on) = self.speculative {
            cfg = cfg.with_tiny_caches();
            cfg.features.speculative_logging = on;
        }
        let (inserts, mixed);
        let mut spec = match self.mix {
            None => {
                inserts = ycsb_load(DEFAULT_OPS, self.value, SEED);
                RunSpec::inserts(cfg, self.kind, &inserts, self.value)
            }
            Some(i) => {
                let (_, read, update, remove) = MIXES[i];
                let (n, vs) = (DEFAULT_OPS, self.value);
                let mix = MixSpec {
                    read_pct: read,
                    update_pct: update,
                    rmw_pct: 0,
                    scan_pct: 0,
                    remove_pct: remove,
                    max_scan_len: 0,
                    dist: KeyDist::Uniform,
                };
                mixed = ycsb_mix(n / 2, n, vs, SEED, &mix);
                RunSpec {
                    verify: true,
                    ..RunSpec::mixed(cfg, self.kind, &mixed.0, &mixed.1, vs)
                }
            }
        };
        spec.source = self.source;
        spec.shards = self.shards;
        run(&spec)
    }
}

/// Fig. 4's logged line; the log-free line is the next one.
const FIG4_LINE: u64 = 0x10000;

/// Runs `body` as one committed SLPMT transaction on a fresh, traced
/// machine and returns its cycles, media bytes and persist events (read
/// back from the trace; tracing moves no simulated figure). These
/// transactions take microseconds and no two figures share one, so
/// they run inline rather than as cells.
fn committed_txn(body: impl FnOnce(&mut Machine)) -> (u64, u64, Vec<PersistEvent>) {
    let mut m = Machine::new(MachineConfig::for_scheme(Slpmt));
    m.enable_tracing(1 << 16);
    m.tx_begin();
    body(&mut m);
    m.tx_commit();
    let bytes = m.device().traffic().media_bytes();
    (m.now(), bytes, m.device().persist_history())
}

/// The reports the figures read, and which cells they read.
///
/// [`table`] evaluates every figure twice. The planning pass has no
/// reports: each read returns a blank one and only records its cell.
/// The evaluation pass reads the simulated reports. So a cell is
/// named only where a claim reads it, and no list of cells can drift
/// from the claims.
struct Runs {
    simulated: Vec<(RunCell, RunReport)>,
    reads: RefCell<Vec<RunCell>>,
    /// What a planning read returns.
    blank: RunReport,
}

impl Runs {
    fn new(simulated: Vec<(RunCell, RunReport)>) -> Self {
        let result = RunResult {
            scheme: Fg.into(),
            kind: Hashtable,
            cycles: 0,
            traffic: WriteTraffic::new(),
            logical_bytes: 0,
            stats: MachineStats::new(),
        };
        let shard = ShardRun {
            result,
            lat: Default::default(),
            trace: Vec::new(),
        };
        let blank = RunReport {
            shards: vec![shard],
            total_ops: 0,
        };
        Runs {
            simulated,
            reads: RefCell::new(Vec::new()),
            blank,
        }
    }

    /// Records the read of `cell` and returns its report.
    fn report(&self, cell: RunCell) -> &RunReport {
        let mut reads = self.reads.borrow_mut();
        if !reads.contains(&cell) {
            reads.push(cell);
        }
        self.simulated_report(cell)
    }

    fn simulated_report(&self, cell: RunCell) -> &RunReport {
        if self.simulated.is_empty() {
            return &self.blank;
        }
        let (_, report) = self
            .simulated
            .iter()
            .find(|(c, _)| *c == cell)
            .expect("the planning pass read every cell");
        report
    }

    fn result(&self, cell: RunCell) -> &RunResult {
        &self.report(cell).shards[0].result
    }

    /// `cell(kind)`'s speedup over `base(kind)` for each kind.
    fn speedups(
        &self,
        kinds: &[IndexKind],
        cell: impl Fn(IndexKind) -> RunCell,
        base: impl Fn(IndexKind) -> RunCell,
    ) -> Vec<f64> {
        let sp = |k| self.result(cell(k)).speedup_vs(self.result(base(k)));
        kinds.iter().map(|&k| sp(k)).collect()
    }

    /// `cell(kind)`'s traffic reduction over `base(kind)`, in percent.
    fn reductions(
        &self,
        kinds: &[IndexKind],
        cell: impl Fn(IndexKind) -> RunCell,
        base: impl Fn(IndexKind) -> RunCell,
    ) -> Vec<f64> {
        let red = |k| {
            100.0
                * self
                    .result(cell(k))
                    .traffic_reduction_vs(self.result(base(k)))
        };
        kinds.iter().map(|&k| red(k)).collect()
    }
}

/// Simulates every cell the figures read once and evaluates every
/// claim.
pub fn table() -> Vec<Figure> {
    let plan = Runs::new(Vec::new());
    for (_, claims) in FIGURES {
        claims(&plan);
    }
    let cells = plan.reads.into_inner();
    let reports = par_map_with(&cells, threads(), RunCell::simulate);
    let runs = Runs::new(cells.into_iter().zip(reports).collect());
    FIGURES
        .iter()
        .map(|&(name, claims)| {
            let claims = claims(&runs);
            let read = runs.reads.take();
            let cycles = read
                .iter()
                .map(|&c| runs.simulated_report(c).total_cycles())
                .sum();
            Figure {
                name,
                claims,
                cells: read.len(),
                cycles,
            }
        })
        .collect()
}

/// The tables as markdown: one `###` section per figure. The last
/// column is a row's declared [`Status`] when its check holds and ✗
/// when it fails.
pub fn markdown(figures: &[Figure]) -> String {
    let mut out = String::new();
    for (i, f) in figures.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = writeln!(out, "### {}\n", f.name);
        let _ = writeln!(out, "| metric | paper | measured | accepts | |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for c in &f.claims {
            let (m, p, v, k) = (&c.metric, &c.paper, &c.measured, &c.check);
            // A failing check reads ✗ whatever its declared status.
            let s = if k.holds() {
                c.status.to_string()
            } else {
                "✗".into()
            };
            let _ = writeln!(out, "| {m} | {p} | {v} | {k} | {s} |");
        }
        let plural = if f.cells == 1 { "" } else { "s" };
        let _ = writeln!(
            out,
            "\n_{} cell{plural}, {} simulated cycles._",
            f.cells, f.cycles
        );
    }
    out
}

fn table_i(_: &Runs) -> Vec<Claim> {
    // Table I's (persist, log) bits, in `StoreKind::ALL` order.
    let paper = [(1, 1), (1, 1), (1, 0), (0, 1), (0, 0)];
    let row = |(kind, (p, l)): (&StoreKind, (u8, u8))| {
        let e = kind.effects(true, true);
        let got = format!(
            "persist {}, log {}",
            u8::from(e.set_persist),
            u8::from(e.set_log)
        );
        let want = format!("persist {p}, log {l}");
        claim!(Holds, format!("`{kind}`"), want; equal(&got, &want); "{got}")
    };
    StoreKind::ALL.iter().zip(paper).map(row).collect()
}

fn fig04(_: &Runs) -> Vec<Claim> {
    use PersistEvent::{CommitMarker, DataLine, LogRecord};
    let logged = PmAddr::new(FIG4_LINE);
    let free = logged.add(64);
    let (cycles, _, events) = committed_txn(|m| {
        m.store_u64(logged, 1, StoreKind::Store);
        m.store_u64(free, 2, StoreKind::log_free());
    });
    let is_record = |e: &PersistEvent, line: PmAddr| match e {
        LogRecord { addr, .. } => addr.line() == line,
        _ => false,
    };
    let is_data = |e: &PersistEvent, line| *e == DataLine { addr: line };
    // 1-based event numbers; `None` when the event is missing.
    let at = |hit: &dyn Fn(&PersistEvent) -> bool| events.iter().position(hit).map(|i| i + 1);
    let order = [
        ("record", at(&|e| is_record(e, logged))),
        ("data", at(&|e| is_data(e, logged))),
        ("marker", at(&|e| matches!(e, CommitMarker { .. }))),
    ];
    // Every event present, each after the one before.
    let ordered =
        order.iter().all(|(_, i)| i.is_some()) && order.windows(2).all(|w| w[0].1 < w[1].1);
    let want = "record → data → marker";
    let got = if ordered {
        want
    } else {
        "missing or out of order"
    };
    let shown: Vec<String> = order
        .iter()
        .map(|(n, i)| i.map_or(format!("{n} missing"), |i| format!("{n} #{i}")))
        .collect();
    let free_records = events.iter().filter(|e| is_record(e, free)).count();
    let free_data = events.iter().filter(|e| is_data(e, free)).count();
    let free_counts = format!("{free_records} / {free_data}");
    vec![
        claim!(Holds, "logged line", "log record → data line → commit marker";
            equal(got, want); "{} ({cycles} cycles)", shown.join(" → ")),
        claim!(Holds, "log-free line: log records / data lines", "none / persisted";
            equal(&free_counts, "0 / 1"); "{free_counts}"),
    ]
}

fn iii_d(_: &Runs) -> Vec<Claim> {
    let caches = CacheConfig::default();
    let oh = HardwareOverhead::for_config(&caches);
    let kb = |bytes: usize| format!("{:.1} KB", bytes as f64 / 1024.0);
    let (meta, total) = (oh.cache_meta_bytes, oh.total_bytes());
    let naive = HardwareOverhead::naive_uniform_l2_bytes(&caches);
    // Word-granularity L2 log bits: 8 per line.
    let saving = 100 * (naive - meta) / caches.l2.lines();
    let (l1, l2) = (oh.l1_bits_per_line, oh.l2_bits_per_line);
    vec![
        claim!(Holds, "cache metadata", "~3.9 KB"; equal(meta, 3264);
            "{} ({meta} B; {l1} b/L1 line, {l2} b/L2 line, no tag/ECC padding)", kb(meta)),
        claim!(Holds, "log buffer", "1.2 KB"; equal(oh.log_buffer_bytes, 1216);
            "{} B", oh.log_buffer_bytes),
        claim!(Holds, "signatures", "1 KB"; equal(oh.signature_bytes, 1024);
            "{} B (4 × 2048 bit)", oh.signature_bytes),
        claim!(Holds, "total", "6.1 KB"; equal(total, 5504); "{} ({total} B)", kb(total)),
        claim!(Holds, "mixed-granularity L2 log-bit saving", "75 %"; equal(saving, 75);
            "{saving} % ({meta} B vs {naive} B naive)"),
    ]
}

fn fig08(r: &Runs) -> Vec<Claim> {
    let sp = |s| r.speedups(&KERNELS, |k| load(s, k), |k| load(Fg, k));
    // Extra media traffic over FG, in percent: a negative reduction.
    let extra = |s| {
        let red = r.reductions(&KERNELS, |k| load(s, k), |k| load(Fg, k));
        red.iter().map(|x| -x).collect::<Vec<_>>()
    };
    let g = |s| geomean(sp(s));
    let (slpmt, atom, ede) = (g(Slpmt), g(Atom), g(Ede));
    let per_kernel: Vec<String> = KERNELS
        .iter()
        .zip(sp(Slpmt))
        .map(|(k, v)| format!("{k} {v:.2}"))
        .collect();
    let red = mean(&r.reductions(&KERNELS, |k| load(Slpmt, k), |k| load(Fg, k)));
    let span = |v: &[f64]| format!("+{:.0}…+{:.0} %", min(v), max(v));
    let ht = |s| {
        r.result(load(s, Hashtable))
            .speedup_vs(r.result(load(Fg, Hashtable)))
    };
    let (lg, lz, both) = (ht(FgLg), ht(FgLz), ht(Slpmt));
    vec![
        claim!(Holds, "SLPMT over FG", "1.57× avg"; near([slpmt], 1.57, 1.57);
            "{slpmt:.2}× geomean ({})", per_kernel.join(", ")),
        claim!(Holds, "SLPMT traffic reduction", "35 % avg"; near([red], 35.0, 35.0);
            "{red:.0} % avg"),
        claim!(Approx, "SLPMT over ATOM", "1.65× avg"; at_least([slpmt / atom], 1.0);
            "{:.2}×", slpmt / atom),
        claim!(Holds, "SLPMT over EDE", "1.78× avg"; near([slpmt / ede], 1.78, 1.78);
            "{:.2}×", slpmt / ede),
        claim!(Approx, "FG over ATOM", "1.05×"; at_least([1.0 / atom], 1.0);
            "{:.2}×", 1.0 / atom),
        claim!(Holds, "FG over EDE", "1.13×"; near([1.0 / ede], 1.13, 1.13);
            "{:.2}×", 1.0 / ede),
        claim!(Holds, "ATOM, EDE traffic over FG", "above FG";
            at_least([extra(Atom), extra(Ede)].concat(), 0.0);
            "{} (ATOM), {} (EDE)", span(&extra(Atom)), span(&extra(Ede))),
        claim!(Approx, "LG+LZ over LG alone, LZ alone (hashtable)",
            "+24 %, +17 %, together +52 %"; at_least([both / lg, both / lz], 1.0);
            "{:.2}×, {:.2}× (FG+LG {lg:.2}×, FG+LZ {lz:.2}×, SLPMT {both:.2}×; D1)",
            both / lg, both / lz),
    ]
}

fn fig09(r: &Runs) -> Vec<Claim> {
    let sp = geomean(r.speedups(&KERNELS, |k| load(SlpmtCl, k), |k| load(FgCl, k)));
    let extra = -mean(&r.reductions(&KERNELS, |k| load(FgCl, k), |k| load(Fg, k)));
    vec![
        claim!(Approx, "SLPMT-CL over FG-CL", "1.27× avg"; at_least([sp], 1.0);
            "{sp:.2}× geomean"),
        claim!(Approx, "FG-CL traffic over FG", "+15 %"; at_least([extra], 0.0);
            "+{extra:.0} % avg"),
    ]
}

/// `metric(SLPMT, FG)` per kernel, one series over [`SIZES`] each.
fn size_series(r: &Runs, metric: impl Fn(&RunResult, &RunResult) -> f64) -> Vec<Vec<f64>> {
    let at = |k, vs| {
        metric(
            r.result(load(Slpmt, k).value(vs)),
            r.result(load(Fg, k).value(vs)),
        )
    };
    KERNELS
        .iter()
        .map(|&k| SIZES.iter().map(|&vs| at(k, vs)).collect())
        .collect()
}

fn fig10(r: &Runs) -> Vec<Claim> {
    let series = size_series(r, |s, base| s.speedup_vs(base));
    let at16 = geomean(series.iter().map(|s| s[0]));
    let all_steps: Vec<f64> = series.iter().flat_map(|s| steps(s)).collect();
    let ht = &series[0];
    vec![
        claim!(Holds, "speedup at 16 B", "1.22× avg"; near([at16], 1.22, 1.22);
            "{at16:.2}× geomean"),
        claim!(Holds, "step to the next value size", "gains grow with value size";
            at_least(all_steps.clone(), 0.0);
            "smallest step of any kernel {:+.2}× (hashtable {:.2}→{:.2}× from 16→256 B)",
            min(&all_steps), ht[0], ht[4]),
    ]
}

fn fig11(r: &Runs) -> Vec<Claim> {
    let series = size_series(r, |s, base| 100.0 * s.traffic_reduction_vs(base));
    let small = mean(&series.iter().map(|s| s[1] - s[0]).collect::<Vec<_>>());
    let large = mean(&series.iter().map(|s| s[4] - s[3]).collect::<Vec<_>>());
    let all_steps: Vec<f64> = series.iter().flat_map(|s| steps(s)).collect();
    vec![
        claim!(Holds, "16→32 B change", "mostly constant (pointers dominate)";
            band([small], -5.0, 5.0); "{small:+.1} pp avg"),
        claim!(Holds, "step to the next value size", "reduction grows ≈ linearly with size";
            at_least(all_steps.clone(), 0.0);
            "smallest step of any kernel {:+.1} pp (128→256 B {large:+.1} pp avg)",
            min(&all_steps)),
    ]
}

fn fig12(r: &Runs) -> Vec<Claim> {
    let sp = |k, ns| {
        r.result(load(Slpmt, k).latency(ns))
            .speedup_vs(r.result(load(Fg, k).latency(ns)))
    };
    // The middle latencies are read though no check tests them, so
    // that drift in them shows in the footer.
    let series = |k| [500, 1100, 1700, 2300].map(|ns| sp(k, ns));
    let others: Vec<f64> = KERNELS[1..]
        .iter()
        .map(|&k| (series(k)[3] - series(k)[0]).abs())
        .collect();
    let ht = series(Hashtable);
    vec![
        claim!(Holds, "non-hashtable kernels, largest change 500→2300 ns", "largely stable";
            band(others.clone(), 0.0, 0.05);
            "{}× (rbtree / heap / avl)", slashed(&others, 2)),
        claim!(Holds, "hashtable, change 500→2300 ns",
            "grows (lazy persistence off the commit path)"; at_least([ht[3] - ht[0]], 0.05);
            "{:+.2}× ({:.2}→{:.2}×)", ht[3] - ht[0], ht[0], ht[3]),
    ]
}

/// A kernel's transaction IR, as the compiler pass sees it.
pub fn kernel_ir(kind: IndexKind) -> TxnIr {
    use slpmt_workloads::{avl::AvlTree, hashtable::Hashtable, heap::MaxHeap, rbtree::Rbtree};
    match kind {
        IndexKind::Hashtable => Hashtable::ir(),
        IndexKind::Rbtree => Rbtree::ir(),
        IndexKind::Heap => MaxHeap::ir(),
        IndexKind::Avl => AvlTree::ir(),
        _ => unreachable!("kernels only"),
    }
}

fn kernel_manual(kind: IndexKind) -> AnnotationTable {
    use slpmt_workloads::{avl::AvlTree, hashtable::Hashtable, heap::MaxHeap, rbtree::Rbtree};
    match kind {
        IndexKind::Hashtable => Hashtable::manual_table(),
        IndexKind::Rbtree => Rbtree::manual_table(),
        IndexKind::Heap => MaxHeap::manual_table(),
        IndexKind::Avl => AvlTree::manual_table(),
        _ => unreachable!("kernels only"),
    }
}

fn fig13(r: &Runs) -> Vec<Claim> {
    let over_fg = |source| {
        let sp = r.speedups(&KERNELS, |k| load(Slpmt, k).source(source), |k| load(Fg, k));
        geomean(sp)
    };
    let (manual, compiler) = (
        over_fg(AnnotationSource::Manual),
        over_fg(AnnotationSource::Compiler),
    );
    let (mut found, mut exact, mut total) = (0, 0, 0);
    for k in KERNELS {
        let (table, _) = slpmt_annotate::analyze(&kernel_ir(k));
        let report = table.compare_to_manual(&kernel_manual(k));
        found += report.found;
        exact += report.exact;
        total += report.total_manual;
    }
    let share = 100.0 * found as f64 / total as f64;
    vec![
        claim!(Holds, "compiler over manual speedup", "similar";
            band([compiler / manual], 0.95, 1.05);
            "{:.2}× ({compiler:.2}× vs {manual:.2}× geomean)", compiler / manual),
        // The direction: the analysis finds some manual sites, not all.
        claim!(Approx, "manual sites the compiler finds", "16 of 26 variables";
            band([found as f64], 1.0, (total - 1) as f64);
            "{found} of {total} ({share:.0} %; {exact} in the identical form)"),
    ]
}

fn fig14(r: &Runs) -> Vec<Claim> {
    let cell = |s, k, vs| load(s, k).source(AnnotationSource::Compiler).value(vs);
    let over = |vs, base| r.speedups(&PMKV, |k| cell(Slpmt, k, vs), |k| cell(base, k, vs));
    let red = |vs| r.reductions(&PMKV, |k| cell(Slpmt, k, vs), |k| cell(Fg, k, vs));
    let (red256, red16, fg256) = (red(256), red(16), over(256, Fg));
    let (atom256, ede256) = (over(256, Atom), over(256, Ede));
    let shrink: Vec<f64> = red16.iter().zip(&red256).map(|(a, b)| a - b).collect();
    let kept: Vec<f64> = red16.iter().zip(&red256).map(|(a, b)| a / b).collect();
    let (a16, e16) = (geomean(over(16, Atom)), geomean(over(16, Ede)));
    let (top_red, top_fg, top_kept) = (
        PMKV[argmax(&red256)],
        PMKV[argmax(&fg256)],
        PMKV[argmax(&kept)],
    );
    vec![
        claim!(Holds, "256 B: SLPMT over ATOM", "1.4–2×"; near(atom256.clone(), 1.4, 2.0);
            "{}× (btree / ctree / rtree)", slashed(&atom256, 2)),
        claim!(Approx, "256 B: SLPMT over EDE", "1.35–1.87×"; at_least(ede256.clone(), 1.0);
            "{}× (top end higher)", slashed(&ede256, 2)),
        claim!(Holds, "256 B: traffic reduction", "32.6–47.6 %"; near(red256.clone(), 32.6, 47.6);
            "{} %", slashed(&red256, 1)),
        claim!(Holds, "256 B: largest reduction", "kv-rtree"; equal(top_red, "kv-rtree");
            "{top_red}"),
        claim!(Holds, "256 B: largest speedup over FG", "kv-ctree (rtree computes more)";
            equal(top_fg, "kv-ctree");
            "{top_fg} (kv-ctree {:.2}×, kv-rtree {:.2}×)", fg256[1], fg256[2]),
        claim!(Approx, "16 B: SLPMT over ATOM", "1.58× avg"; at_least([a16], 1.0);
            "{a16:.2}× geomean"),
        claim!(Holds, "16 B: SLPMT over EDE", "1.35× avg"; near([e16], 1.35, 1.35);
            "{e16:.2}× geomean"),
        claim!(Holds, "16 B minus 256 B traffic reduction", "fine-grain logging dominates";
            at_most(shrink.clone(), 0.0);
            "{} pp ({} % at 16 B)", slashed(&shrink, 1), slashed(&red16, 1)),
        claim!(Holds, "16 B: least-affected backend", "kv-rtree (§VI-E)";
            equal(top_kept, "kv-rtree");
            "{top_kept} (keeps {:.0} % of its 256 B reduction)", 100.0 * kept[2]),
    ]
}

fn ablations(r: &Runs) -> Vec<Claim> {
    let tiny = |on| r.result(load(Slpmt, Rbtree).speculative(on));
    let (on, off) = (tiny(true), tiny(false));
    let (rec_on, rec_off) = (on.stats.log_records_created, off.stats.log_records_created);
    let fills = rec_on as f64 / rec_off as f64;
    let logged = |s| {
        r.result(load(s, Rbtree).source(AnnotationSource::None))
            .traffic
    };
    let (tiered, atom, ede) = (logged(Fg), logged(Atom), logged(Ede));
    let log_over = [atom, ede].map(|t| t.log_bytes as f64 / tiered.log_bytes as f64);
    // §V-A: 256 in-place updates in one transaction, eager or through
    // the lazy+logged data and a log-free record array.
    let in_place = |optimised: bool| {
        committed_txn(|m| {
            let array = PmAddr::new(0x80000);
            for i in 0..256u64 {
                let a = PmAddr::new(0x10000 + (i * 7 % 256) * 64);
                if optimised {
                    // The data lazily persistent but logged, plus a
                    // log-free (addr, value) record appended to a
                    // sequential array that persists at commit.
                    m.store_u64(a, i, StoreKind::lazy_logged());
                    m.store_u64(array.add(i * 16), a.raw(), StoreKind::log_free());
                    m.store_u64(array.add(i * 16 + 8), i, StoreKind::log_free());
                } else {
                    m.store_u64(a, i, StoreKind::Store);
                }
            }
        })
    };
    let (eager_cycles, eager_bytes, _) = in_place(false);
    let (opt_cycles, opt_bytes, _) = in_place(true);
    let faster = eager_cycles as f64 / opt_cycles as f64;
    let saved = 100.0 * (1.0 - opt_bytes as f64 / eager_bytes as f64);
    // Drain banks are emulated by scaling the per-line write latency
    // against the WPQ's default bank count.
    let banks = [1, 2, 4, 8].map(|b| {
        let ns = 500 * slpmt_pmem::wpq::DEFAULT_DRAIN_BANKS as u64 / b;
        let cell = |s| r.result(load(s, Hashtable).latency(ns));
        cell(Slpmt).speedup_vs(cell(Fg))
    });
    let bank_steps = steps(&banks);
    vec![
        claim!(Holds, "speculative logging: records on over off (rbtree, tiny caches)",
            "extra fills at eviction (§III-B1)"; at_least([fills], 1.0);
            "{fills:.2}× ({rec_on} vs {rec_off}; log bytes {} vs {})",
            on.traffic.log_bytes, off.traffic.log_bytes),
        claim!(Holds, "ATOM, EDE log bytes over the tiered buffer (rbtree, all logged)",
            "coalescing writes the least log (§VI-D1)"; at_least(log_over, 1.0);
            "{}× (tiered {} B in {} records; ATOM {} B in {}; EDE {} B in {})",
            slashed(&log_over, 2), tiered.log_bytes, tiered.log_records,
            atom.log_bytes, atom.log_records, ede.log_bytes, ede.log_records),
        claim!(Holds, "§V-A in-place updates: eager over optimised cycles",
            "random writes leave the critical path"; at_least([faster], 1.0);
            "{faster:.2}× ({eager_cycles} vs {opt_cycles})"),
        claim!(Holds, "§V-A in-place updates: commit media bytes saved",
            "sequential record array instead of random lines"; at_least([saved], 0.0);
            "{saved:.0} % ({eager_bytes} → {opt_bytes} B)"),
        claim!(Holds, "WPQ drain banks 1→2→4→8: change in SLPMT over FG (hashtable)", "—";
            at_most(bank_steps.clone(), 0.0);
            "{}× ({:.2}× at 1 bank, {:.2}× at 8)", slashed(&bank_steps, 2), banks[0], banks[3]),
    ]
}

fn mixed(r: &Runs) -> Vec<Claim> {
    let sp = |m| {
        r.speedups(
            &MIXED_KINDS,
            |k| load(Slpmt, k).mix(m),
            |k| load(Fg, k).mix(m),
        )
    };
    let geo: Vec<f64> = (0..MIXES.len()).map(|m| geomean(sp(m))).collect();
    let mut claims: Vec<Claim> = MIXES
        .iter()
        .enumerate()
        .map(|(m, (label, ..))| {
            claim!(Holds, format!("SLPMT over FG, {label}"), "—"; at_least([geo[m]], 1.0);
                "{:.2}× geomean ({}×)", geo[m], slashed(&sp(m), 2))
        })
        .collect();
    let ycsb_b = sp(3);
    let worst = (0..ycsb_b.len())
        .min_by(|&a, &b| ycsb_b[a].total_cmp(&ycsb_b[b]))
        .expect("three kinds");
    claims.extend([
        claim!(Holds, "read-heavy minus insert-only geomean", "—";
            at_most([geo[4] - geo[0]], 0.0); "{:+.2}×", geo[4] - geo[0]),
        claim!(Holds, "YCSB-B: worst kernel (load-forced lazy lines)", "—";
            at_most([ycsb_b[worst]], 1.0); "{:.2}× ({})", ycsb_b[worst], MIXED_KINDS[worst]),
    ]);
    claims
}

fn sharded(r: &Runs) -> Vec<Claim> {
    let scaling = |(s, k): (Scheme, IndexKind)| {
        let tput = [1, 2, 4].map(|n| r.report(load(s, k).shards(n)).sim_ops_per_kcycle());
        let x = tput[2] / tput[0];
        claim!(Holds, format!("1→4 shard scaling, {k} / {s}"), "—"; at_least([x], 2.0);
            "{x:.2}× ({} ops/kcycle at 1 / 2 / 4 shards)", slashed(&tput, 3))
    };
    [(Slpmt, Hashtable), (Fg, Hashtable), (Slpmt, Rbtree)]
        .map(scaling)
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_row_renders_a_cross() {
        let figure = Figure {
            name: "Figure 0 — rendering",
            claims: vec![
                claim!(Holds, "holds", "1"; equal("a", "a"); "a"),
                claim!(Holds, "fails", "1"; equal("b", "a"); "b"),
                claim!(Approx, "fails too", "1"; at_least([0.5], 1.0); "0.5"),
            ],
            cells: 1,
            cycles: 10,
        };
        let table = markdown(&[figure]);
        assert!(table.contains("| holds | 1 | a | = a | ✓ |"), "{table}");
        assert!(table.contains("| fails | 1 | b | = a | ✗ |"), "{table}");
        assert!(
            table.contains("| fails too | 1 | 0.5 | ≥ 1 | ✗ |"),
            "{table}"
        );
    }
}
