//! The simulated snapshot behind `BENCH_<n>.json` (`slpmt bench`,
//! `scripts/bench.sh`, DESIGN.md §12).
//!
//! Runs seven drivers once each — the scheme×index matrix, the
//! multi-core engine, the 16-way sharded driver, the YCSB mix matrix,
//! the KV serve front end, the chaos battery and the software-PTM
//! baselines. Each phase writes its section of the schema-stable JSON
//! object and its line of the text report. Every figure is simulated
//! (cycles, counts, digests), so the snapshot is byte-identical across
//! reruns and `SLPMT_THREADS` settings, and `scripts/bench_gate.py`
//! gates it hard. Host speed is measured by `perfbench/` alone.

use slpmt_core::multi::{gen_programs, run_programs};
use slpmt_core::{MachineConfig, ProgramSpec, Schedule, Scheme, SchemeKind};
use slpmt_kv::chaos::chaos_cases;
use slpmt_kv::service::ServeConfig;
use slpmt_trace::JsonWriter;
use slpmt_workloads::runner::{par_map_with, run as run_spec, threads, IndexKind, RunSpec};
use slpmt_workloads::ycsb::MixSpec;
use slpmt_workloads::ycsb_load;

use crate::runner::{fig08_cells, matrix};
use crate::serve::run_serve;
use crate::sweep::run_chaos_sweep;
use crate::ycsb::{run_ycsb_matrix, ycsb_cells, YcsbConfig};

/// Keyspace shards in the sharded phase.
const SHARDS: usize = 16;
/// Value size of the YCSB, serve and PTM phases.
const SMALL_VALUE: usize = 32;

/// One recorded snapshot, rendered both ways.
pub struct Snapshot {
    /// The `BENCH_<n>.json` object `scripts/bench_gate.py` reads.
    pub json: String,
    /// The report `slpmt bench` prints without `--json`.
    pub text: String,
}

/// FNV-1a over `values`, in order: the digest the matrix and PTM
/// sections fold their cells' deterministic columns into.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |d, v| {
        (d ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Short git revision for tagging snapshots, `unknown` outside a work
/// tree.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Records a snapshot at `ops` operations per phase and `value`-byte
/// matrix/shard payloads. Fails if the chaos battery is not clean.
///
/// # Panics
///
/// Panics if `value` is not a multiple of 8.
pub fn run(ops: usize, value: usize) -> Result<Snapshot, String> {
    let stream = ycsb_load(ops, value, 42);
    let workers = threads();
    let sha = git_sha();
    let mut w = JsonWriter::new();
    let mut text = Vec::new();
    w.begin_obj();
    w.key("command");
    w.string("bench");
    w.key("schema");
    w.u64(2);
    w.key("git_sha");
    w.string(&sha);
    w.key("ops");
    w.u64(ops as u64);
    w.key("value_bytes");
    w.u64(value as u64);
    text.push(format!(
        "bench snapshot @ {sha} ({ops} × {value} B inserts)"
    ));

    // Matrix: every fig08 cell once, fanned across the default worker
    // pool. The digest folds each cell's cycles, media bytes and log
    // records in cell order.
    let cells = fig08_cells(&IndexKind::ALL);
    let rows = par_map_with(&cells, workers, |c| {
        run_spec(&c.spec(&stream, value)).single().result
    });
    let matrix_cycles: u64 = rows.iter().map(|r| r.cycles).sum();
    let matrix_digest = fnv1a(
        rows.iter()
            .flat_map(|r| [r.cycles, r.traffic.media_bytes(), r.traffic.log_records]),
    );
    w.key("matrix");
    w.begin_obj();
    w.key("cells");
    w.u64(rows.len() as u64);
    w.key("sim_ops");
    w.u64((rows.len() * ops) as u64);
    w.key("total_sim_cycles");
    w.u64(matrix_cycles);
    w.key("digest");
    w.string(&format!("{matrix_digest:016x}"));
    w.end_obj();
    text.push(format!(
        "  matrix : {} cells, {matrix_cycles} total cycles (digest {matrix_digest:016x})",
        rows.len()
    ));

    // Multi-core engine: a fixed 4-core round-robin program mix.
    let mut spec = ProgramSpec::small(4, 42);
    spec.txns_per_core = 64;
    spec.stores_per_txn = 8;
    let programs = gen_programs(&spec);
    let mc_ops: u64 = programs.iter().map(|p| p.len() as u64).sum();
    let (mm, _) = run_programs(
        MachineConfig::for_scheme(Scheme::Slpmt),
        &programs,
        Schedule::round_robin(42),
    );
    let (mc_cycles, mc_commits) = (mm.machine().now(), mm.machine().stats().tx_commits);
    w.key("mc");
    w.begin_obj();
    w.key("cores");
    w.u64(4);
    w.key("commits");
    w.u64(mc_commits);
    w.key("sim_ops");
    w.u64(mc_ops);
    w.key("sim_cycles");
    w.u64(mc_cycles);
    w.end_obj();
    text.push(format!(
        "  mc     : {mc_ops} trace ops, {mc_commits} commits, {mc_cycles} cycles"
    ));

    // Sharded run: 16 keyspace shards. The simulated makespan is the
    // same at any worker count (the bit-identity the sharded tests pin).
    let cfg = MachineConfig::for_scheme(Scheme::Slpmt);
    let mut spec = RunSpec::inserts(cfg, IndexKind::Hashtable, &stream, value);
    spec.shards = SHARDS;
    spec.workers = workers;
    let r = run_spec(&spec);
    let (shard_makespan, shard_kcycle) = (r.sim_cycles(), r.sim_ops_per_kcycle());
    w.key("shards");
    w.begin_obj();
    w.key("shards");
    w.u64(SHARDS as u64);
    w.key("makespan_cycles");
    w.u64(shard_makespan);
    w.key("sim_ops_per_kcycle");
    w.f64(shard_kcycle);
    w.end_obj();
    text.push(format!(
        "  shards : {SHARDS} shards, makespan {shard_makespan} cycles \
         ({shard_kcycle:.3} ops/kcycle)"
    ));

    // YCSB mix matrix: the named mixes (A–F + delete-heavy adversaries)
    // on the reference scheme/index.
    let mixes: Vec<MixSpec> = MixSpec::NAMED.iter().map(|&(_, m)| m).collect();
    let cfg = YcsbConfig {
        load: ops.min(500),
        ops,
        value_size: SMALL_VALUE,
        seed: 42,
    };
    let cells = ycsb_cells(&mixes, &[Scheme::Slpmt], &[IndexKind::Hashtable]);
    let rows = run_ycsb_matrix(&cells, &cfg, false);
    let ycsb_cycles: u64 = rows.iter().map(|r| r.result.cycles).sum();
    w.key("ycsb");
    w.begin_obj();
    w.key("cells");
    w.u64(cells.len() as u64);
    w.key("load");
    w.u64(cfg.load as u64);
    w.key("ops");
    w.u64(cfg.ops as u64);
    w.key("value_bytes");
    w.u64(cfg.value_size as u64);
    w.key("sim_ops");
    w.u64((cells.len() * ops) as u64);
    w.key("total_sim_cycles");
    w.u64(ycsb_cycles);
    w.end_obj();
    text.push(format!(
        "  ycsb   : {} mix cells, {ycsb_cycles} total cycles",
        cells.len()
    ));

    // KV serve: YCSB-B through the memcached-text facade at 4 shards.
    let mut cfg = ServeConfig::new(Scheme::Slpmt, IndexKind::KvBtree, MixSpec::YCSB_B);
    cfg.load = ops.min(500);
    cfg.requests = ops;
    cfg.value_size = SMALL_VALUE;
    cfg.shards = 4;
    let (row, _) = run_serve(&cfg, workers);
    w.key("serve");
    w.begin_obj();
    w.key("mix");
    w.string("b");
    w.key("shards");
    w.u64(cfg.shards as u64);
    w.key("load");
    w.u64(cfg.load as u64);
    w.key("requests");
    w.u64(row.requests);
    w.key("served");
    w.u64(row.served);
    w.key("shed");
    w.u64(row.shed);
    w.key("total_sim_cycles");
    w.u64(row.total_sim_cycles);
    w.key("makespan_cycles");
    w.u64(row.makespan_cycles);
    w.key("digest");
    w.string(&format!("{:016x}", row.digest));
    w.key("p50");
    w.u64(row.overall.p50);
    w.key("p99");
    w.u64(row.overall.p99);
    w.key("p999");
    w.u64(row.overall.p999);
    w.end_obj();
    text.push(format!(
        "  serve  : mix b × {} shards, {} served ({} total cycles, digest {:016x}) \
         [p50 {} p99 {} p999 {}]",
        cfg.shards,
        row.served,
        row.total_sim_cycles,
        row.digest,
        row.overall.p50,
        row.overall.p99,
        row.overall.p999
    ));

    // Chaos: the crash-during-serve battery at a fixed modest shape
    // (its cost scales with points × trace length, not `ops`).
    let cases = chaos_cases(
        &[Scheme::Slpmt, Scheme::SlpmtRedo],
        IndexKind::KvBtree,
        42,
        40,
        &[MixSpec::YCSB_A, MixSpec::YCSB_B],
    );
    let report = run_chaos_sweep(&cases, &[], 4);
    if !report.is_clean() {
        return Err(format!("chaos bench sweep failed:\n{report}"));
    }
    w.key("chaos");
    w.begin_obj();
    w.key("cases");
    w.u64(report.cases as u64);
    w.key("points");
    w.u64(report.points as u64);
    w.key("strict");
    w.u64(report.strict as u64);
    w.key("lossy");
    w.u64(report.lossy as u64);
    w.key("suppressed");
    w.u64(report.totals.suppressed);
    w.key("refused_writes");
    w.u64(report.totals.refused_writes);
    w.key("scrubbed");
    w.u64(report.totals.scrubbed);
    w.key("digest");
    w.string(&format!("{:016x}", report.digest));
    w.end_obj();
    text.push(format!(
        "  chaos  : {} points across {} cases ({} strict / {} lossy, digest {:016x})",
        report.points, report.cases, report.strict, report.lossy, report.digest
    ));

    // Software-PTM baselines: the five flavours on the hashtable at a
    // fixed shape.
    let ptm_ops = ops.min(500);
    let ptm_stream = ycsb_load(ptm_ops, SMALL_VALUE, 42);
    let cells = matrix(&SchemeKind::SOFTWARE, &[IndexKind::Hashtable]);
    let rows = par_map_with(&cells, workers, |c| {
        run_spec(&c.spec(&ptm_stream, SMALL_VALUE)).single().result
    });
    let ptm_cycles: u64 = rows.iter().map(|r| r.cycles).sum();
    let ptm_fences: u64 = rows.iter().map(|r| r.stats.fences).sum();
    let ptm_digest = fnv1a(rows.iter().flat_map(|r| {
        [
            r.cycles,
            r.stats.fences,
            r.stats.flushes,
            r.traffic.log_bytes,
            r.logical_bytes,
        ]
    }));
    w.key("ptm");
    w.begin_obj();
    w.key("cells");
    w.u64(cells.len() as u64);
    w.key("ops");
    w.u64(ptm_ops as u64);
    w.key("value_bytes");
    w.u64(SMALL_VALUE as u64);
    w.key("total_sim_cycles");
    w.u64(ptm_cycles);
    w.key("fences");
    w.u64(ptm_fences);
    w.key("digest");
    w.string(&format!("{ptm_digest:016x}"));
    w.end_obj();
    text.push(format!(
        "  ptm    : {} flavour cells, {ptm_cycles} total cycles, {ptm_fences} fences \
         (digest {ptm_digest:016x})",
        cells.len()
    ));

    w.end_obj();
    Ok(Snapshot {
        json: w.finish(),
        text: text.join("\n") + "\n",
    })
}
