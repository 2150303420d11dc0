//! `slpmt` — command-line front end for the simulator.
//!
//! ```text
//! slpmt schemes                         list hardware designs
//! slpmt overhead                        §III-D hardware budget
//! slpmt run <index> [options]           run YCSB-load inserts
//! slpmt compare <index> [options]       all schemes side by side
//! slpmt matrix [options]                full scheme × index matrix (parallel)
//! slpmt trace [trace options]           capture an event trace (Perfetto JSON)
//! slpmt crashsweep [sweep options]      exhaustive persist-event crash sweep
//! slpmt faults [fault options]          media-fault sweep (tear/poison/flip/jitter)
//! slpmt mc [mc options]                 deterministic multi-core run
//! slpmt shards <index> [shard options]  keyspace-sharded scaling run
//! slpmt ycsb [ycsb options]             named-mix matrix (A–F, delete-heavy, …)
//! slpmt serve [serve options]           KV service front end (memcached-text facade)
//! slpmt ptm [ptm options]               software-PTM baseline matrix (fences, WAF)
//!
//! options: --scheme <name> --ops <n> --value <bytes>
//!          --annotations <manual|compiler|none> --latency <ns>
//! trace options: --scheme <name> --workload <name> --ops <n>
//!                --value <bytes> --seed <n> --out <file>
//! sweep options: --scheme <name|all> --workload <name|all>
//!                --seed <n> --ops <n> [--at <k>]
//! fault options: sweep options plus --points <n> and
//!                --plan s<seed>:t<0|1>[:w<word>]:p<n>:f<n>:j<n>
//!                (repeatable; `--plan P --at K` replays one point)
//! mc options: --scheme <name> --cores <2-4> --seed <n>
//!             --sched <rr:K|weighted:K> --txns <n> --stores <n>
//!             --skew <theta-milli> [--crash-at <k>]
//! shard options: --scheme <name> --ops <n> --value <bytes> --shards <n>
//! ycsb options: --mix <a..f|delete-heavy|delete-heavy-zipf|churn|all>
//!               --scheme <name|all> --workload <name|all> --load <n>
//!               --ops <n> --value <bytes> --seed <n> [--sweep] [--faults]
//!               [--points <n>] [--shards <n>] [--json]
//! serve options: --mix <m[,m..]|all> --scheme <name|all> --workload <name>
//!                --shards <n[,n..]> --load <n> --requests <n> --value <bytes>
//!                --seed <n> --sessions <n> [--open-loop] [--gap <cycles>]
//!                [--jitter <window>] [--queue-limit <n>] [--json]
//! ptm options: --scheme <name|all> --workload <name|all> --ops <n>
//!              --value <bytes> [--json]
//!
//! `matrix` and `crashsweep` fan their cells across worker threads
//! (one per available core; override with SLPMT_THREADS, where 1
//! forces a serial run); the merged output is identical for any
//! worker count. `crashsweep --at K` replays exactly one failing
//! `(scheme, workload, seed, k)` tuple from a sweep report; `mc`
//! replays one `(scheme, cores, seed, schedule)` interleaving tuple
//! from an interleaving-sweep report (`--crash-at K` additionally arms
//! a crash at persist event K and oracle-checks recovery). `shards`
//! runs share-nothing keyspace shards on `SLPMT_THREADS` host workers
//! and reports *simulated* scaling (ops per kilocycle of makespan).
//! ```

use slpmt::cache::CacheConfig;
use slpmt::core::{
    CrashTarget, HardwareOverhead, MachineConfig, MachineStats, PtmFlavor, Scheme, SchemeKind,
    SweepFailure,
};
use slpmt::pmem::FaultPlan;
use slpmt::trace::{export_chrome_trace, JsonWriter, Metrics, TraceRecord};
use slpmt::workloads::runner::{run_inserts_with, IndexKind};
use slpmt::workloads::{ycsb_load, AnnotationSource};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The deterministic dump path for a captured trace: a sanitised stem
/// under `target/traces/`. The same reproducer tuple always maps to
/// the same path, so replaying `--at K` overwrites byte-identically.
fn trace_path(stem: &str) -> PathBuf {
    let safe: String = stem
        .to_ascii_lowercase()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect();
    Path::new("target/traces").join(format!("{safe}.json"))
}

/// Exports `records` as Chrome-trace JSON at `path` (parent created).
fn dump_trace(records: &[TraceRecord], path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, export_chrome_trace(records))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Failing tuples a sweep re-runs with tracing on; the rest stay
/// replayable one at a time.
const CAPTURE_CAP: usize = 16;

/// Replays one crash point of a battery — the `--at K` / `--crash-at K`
/// path. Replays are capture runs: the trace always goes to the same
/// deterministic path the sweep's auto-capture uses (`name` maps a
/// tuple to it), so a re-run reproduces the file byte-identically.
fn replay_point<T: CrashTarget>(
    target: &T,
    case: &T::Case,
    plan: &FaultPlan,
    k: u64,
    held: &str,
    name: impl Fn(&T::Case, &FaultPlan, u64) -> String,
) -> Result<ExitCode, String> {
    let verdict = target.check(case, plan, &[k]).remove(0);
    let path = trace_path(&name(case, plan, k));
    dump_trace(&target.trace(case, plan, k), &path)?;
    let fail = SweepFailure {
        label: T::LABEL,
        case: *case,
        plan: *plan,
        k: Some(k),
        detail: held.to_string(),
    };
    let code = match verdict {
        Ok(_) => {
            // The failure line's shape with the verdict swapped in.
            println!("{}", fail.to_string().replacen(" FAIL ", " OK ", 1));
            ExitCode::SUCCESS
        }
        Err(detail) => {
            println!("{}", SweepFailure { detail, ..fail });
            ExitCode::FAILURE
        }
    };
    println!("  trace: {}", path.display());
    Ok(code)
}

/// Auto-capture after a sweep: re-runs the first [`CAPTURE_CAP`]
/// failing tuples with tracing on and dumps each trace to its replay
/// path (`replay` names the flags that re-run one). Prints the paths
/// unless `quiet`; returns them in failure order.
fn capture_failures<T: CrashTarget>(
    target: &T,
    failures: &[SweepFailure<T::Case>],
    replay: &str,
    quiet: bool,
    name: impl Fn(&T::Case, &FaultPlan, u64) -> String,
) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::new();
    for fail in failures.iter().take(CAPTURE_CAP) {
        let k = fail.k.unwrap_or(0);
        let path = trace_path(&name(&fail.case, &fail.plan, k));
        dump_trace(&target.trace(&fail.case, &fail.plan, k), &path)?;
        if !quiet {
            println!("  trace for k={k}: {}", path.display());
        }
        paths.push(path);
    }
    if !quiet && failures.len() > CAPTURE_CAP {
        println!(
            "  ({} more failure(s) not auto-captured; replay with {replay})",
            failures.len() - CAPTURE_CAP
        );
    }
    Ok(paths)
}

fn exit_code(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Emits every [`MachineStats`] counter under `key` in the current
/// JSON object (the machine-readable twin of `MachineStats::summary`).
fn json_stats(w: &mut JsonWriter, key: &str, s: &MachineStats) {
    w.key(key);
    w.begin_obj();
    for (name, v) in [
        ("loads", s.loads),
        ("stores", s.stores),
        ("store_ts", s.store_ts),
        ("tx_begins", s.tx_begins),
        ("tx_commits", s.tx_commits),
        ("tx_aborts", s.tx_aborts),
        ("suspended_aborts", s.suspended_aborts),
        ("cross_core_aborts", s.cross_core_aborts),
        ("cross_core_repair_aborts", s.cross_core_repair_aborts),
        ("log_records_created", s.log_records_created),
        ("log_records_discarded", s.log_records_discarded),
        ("commit_line_persists", s.commit_line_persists),
        ("lazy_lines_deferred", s.lazy_lines_deferred),
        ("lazy_lines_forced", s.lazy_lines_forced),
        ("lazy_lines_overflowed", s.lazy_lines_overflowed),
        ("signature_hits", s.signature_hits),
        ("commit_stall_cycles", s.commit_stall_cycles),
        ("fences", s.fences),
        ("flushes", s.flushes),
        ("fence_stall_cycles", s.fence_stall_cycles),
        ("compute_cycles", s.compute_cycles),
    ] {
        w.key(name);
        w.u64(v);
    }
    w.end_obj();
}

struct Options {
    scheme: Scheme,
    ops: usize,
    value: usize,
    annotations: AnnotationSource,
    latency_ns: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scheme: Scheme::Slpmt,
            ops: 1000,
            value: 256,
            annotations: AnnotationSource::Manual,
            latency_ns: None,
        }
    }
}

/// Hardware-only scheme lookup, resolved through the shared
/// [`SchemeKind::REGISTRY`] (the single source of scheme names).
fn parse_scheme(name: &str) -> Option<Scheme> {
    SchemeKind::parse(name).and_then(SchemeKind::hardware)
}

fn parse_kind(name: &str) -> Option<IndexKind> {
    IndexKind::ALL
        .into_iter()
        .find(|k| k.to_string().eq_ignore_ascii_case(name))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scheme" => {
                let v = value()?;
                o.scheme = parse_scheme(&v).ok_or_else(|| format!("unknown scheme {v}"))?;
            }
            "--ops" => o.ops = value()?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--value" => o.value = value()?.parse().map_err(|e| format!("--value: {e}"))?,
            "--annotations" => {
                o.annotations = match value()?.as_str() {
                    "manual" => AnnotationSource::Manual,
                    "compiler" => AnnotationSource::Compiler,
                    "none" => AnnotationSource::None,
                    other => return Err(format!("unknown annotation source {other}")),
                }
            }
            "--latency" => {
                o.latency_ns = Some(value()?.parse().map_err(|e| format!("--latency: {e}"))?)
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn config_for(o: &Options, scheme: Scheme) -> MachineConfig {
    let mut cfg = MachineConfig::for_scheme(scheme);
    if let Some(ns) = o.latency_ns {
        cfg.pm = cfg.pm.with_write_latency_ns(ns);
    }
    cfg
}

fn cmd_schemes() {
    println!(
        "{:<10} {:<6} {:<8} {:<9} {:<6} {:<11}",
        "scheme", "gran.", "buffer", "log-free", "lazy", "discipline"
    );
    for k in SchemeKind::REGISTRY {
        match k.hardware() {
            Some(s) => {
                let f = s.features();
                println!(
                    "{:<10} {:<6} {:<8} {:<9} {:<6} {:<11}",
                    s.to_string(),
                    format!("{:?}", f.granularity),
                    format!("{:?}", f.buffer),
                    f.log_free,
                    f.lazy,
                    format!("{:?}", f.discipline),
                );
            }
            None => {
                let flavor = k.software().expect("registry entry is hw or sw");
                println!(
                    "{:<10} {:<6} {:<8} {:<9} {:<6} {:<11}",
                    k.to_string(),
                    "Word",
                    "SwArena",
                    false,
                    false,
                    format!(
                        "Sw{} ({} commit fence{})",
                        if flavor.is_redo() { "Redo" } else { "Undo" },
                        flavor.commit_fences(),
                        if flavor.commit_fences() == 1 { "" } else { "s" },
                    ),
                );
            }
        }
    }
}

fn cmd_overhead() {
    let oh = HardwareOverhead::for_config(&CacheConfig::default());
    println!("per-core SLPMT storage (§III-D):");
    println!(
        "  cache metadata : {} B ({} b/L1 line, {} b/L2 line)",
        oh.cache_meta_bytes, oh.l1_bits_per_line, oh.l2_bits_per_line
    );
    println!("  log buffer     : {} B", oh.log_buffer_bytes);
    println!("  signatures     : {} B", oh.signature_bytes);
    println!(
        "  total          : {:.1} KB (paper: 6.1 KB)",
        oh.total_bytes() as f64 / 1024.0
    );
}

fn cmd_run(kind: IndexKind, o: &Options) {
    let ops = ycsb_load(o.ops, o.value, 42);
    let r = run_inserts_with(
        config_for(o, o.scheme),
        kind,
        &ops,
        o.value,
        o.annotations,
        true,
    );
    println!(
        "{kind} under {} ({} × {} B inserts, verified)",
        o.scheme, o.ops, o.value
    );
    println!("  cycles        : {}", r.cycles);
    println!(
        "  media traffic : {} B ({} data lines, {} log records)",
        r.traffic.media_bytes(),
        r.traffic.data_lines,
        r.traffic.log_records
    );
    println!("{}", r.stats);
}

fn cmd_compare(kind: IndexKind, o: &Options) {
    let ops = ycsb_load(o.ops, o.value, 42);
    let base = run_inserts_with(
        config_for(o, Scheme::Fg),
        kind,
        &ops,
        o.value,
        o.annotations,
        false,
    );
    println!(
        "{kind}: {} × {} B inserts (speedup and traffic vs FG)",
        o.ops, o.value
    );
    for s in [
        Scheme::Fg,
        Scheme::FgLg,
        Scheme::FgLz,
        Scheme::Slpmt,
        Scheme::Atom,
        Scheme::Ede,
    ] {
        let r = run_inserts_with(config_for(o, s), kind, &ops, o.value, o.annotations, false);
        println!(
            "  {:<8} {:>12} cycles  {:>5.2}x  {:>9} media B  {:>+6.1}%",
            s.to_string(),
            r.cycles,
            r.speedup_vs(&base),
            r.traffic.media_bytes(),
            -r.traffic_reduction_vs(&base) * 100.0,
        );
    }
}

fn cmd_matrix(o: &Options, json: bool) {
    use slpmt::bench::runner::{fig08_cells, run_matrix, threads};
    let ops = ycsb_load(o.ops, o.value, 42);
    let cells = fig08_cells(&IndexKind::ALL);
    let start = std::time::Instant::now();
    let results = run_matrix(&cells, &ops, o.value, o.annotations, o.latency_ns);
    let elapsed = start.elapsed();
    let row = 1 + 5; // FG baseline + the five compared schemes
    if json {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("command");
        w.string("matrix");
        w.key("ops");
        w.u64(o.ops as u64);
        w.key("value_bytes");
        w.u64(o.value as u64);
        w.key("workers");
        w.u64(threads() as u64);
        w.key("elapsed_s");
        w.f64(elapsed.as_secs_f64());
        w.key("cells");
        w.begin_arr();
        for (k, chunk) in results.chunks_exact(row).enumerate() {
            let base = &chunk[0];
            for r in chunk {
                w.begin_obj();
                w.key("workload");
                w.string(&IndexKind::ALL[k].to_string());
                w.key("scheme");
                w.string(&r.scheme.to_string());
                w.key("cycles");
                w.u64(r.cycles);
                w.key("speedup_vs_fg");
                w.f64(r.speedup_vs(base));
                w.key("media_bytes");
                w.u64(r.traffic.media_bytes());
                w.key("data_lines");
                w.u64(r.traffic.data_lines);
                w.key("log_records");
                w.u64(r.traffic.log_records);
                w.key("logical_bytes");
                w.u64(r.logical_bytes);
                w.key("waf");
                w.f64(r.waf());
                json_stats(&mut w, "stats", &r.stats);
                w.end_obj();
            }
        }
        w.end_arr();
        w.end_obj();
        println!("{}", w.finish());
        return;
    }
    println!(
        "scheme × index matrix: {} cells, {} × {} B inserts, {} worker(s), {:.2}s",
        cells.len(),
        o.ops,
        o.value,
        threads(),
        elapsed.as_secs_f64(),
    );
    println!(
        "{:<18} {:>12} {:>8} {:>12} {:>10} {:>7}",
        "cell", "cycles", "vs FG", "media B", "log recs", "waf"
    );
    for (k, chunk) in results.chunks_exact(row).enumerate() {
        let kind = IndexKind::ALL[k];
        let base = &chunk[0];
        for r in chunk {
            println!(
                "{:<18} {:>12} {:>7.2}x {:>12} {:>10} {:>7.2}",
                format!("{kind}/{}", r.scheme),
                r.cycles,
                r.speedup_vs(base),
                r.traffic.media_bytes(),
                r.traffic.log_records,
                r.waf(),
            );
        }
    }
}

/// `slpmt trace`: run a seeded workload with event tracing on, export
/// the Chrome/Perfetto trace to `--out`, and print the metrics
/// snapshot folded from the very same records.
fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    use slpmt::workloads::runner::run_inserts_traced;

    let mut scheme = Scheme::Slpmt;
    let mut kind = IndexKind::Hashtable;
    let mut ops = 50usize;
    let mut value = 64usize;
    let mut seed = 42u64;
    let mut out = PathBuf::from("trace.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scheme" => {
                let v = val()?;
                scheme = parse_scheme(&v).ok_or_else(|| format!("unknown scheme {v}"))?;
            }
            "--workload" => {
                let v = val()?;
                kind = parse_kind(&v).ok_or_else(|| format!("unknown workload {v}"))?;
            }
            "--ops" => ops = val()?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--value" => value = val()?.parse().map_err(|e| format!("--value: {e}"))?,
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => out = PathBuf::from(val()?),
            other => return Err(format!("unknown option {other}")),
        }
    }

    let stream = ycsb_load(ops, value, seed);
    let (r, records) = run_inserts_traced(
        MachineConfig::for_scheme(scheme),
        kind,
        &stream,
        value,
        AnnotationSource::Manual,
    );
    dump_trace(&records, &out)?;
    println!(
        "captured {} events: {kind} under {scheme}, {ops} × {value} B inserts (seed {seed})",
        records.len()
    );
    println!(
        "trace written to {} (open in Perfetto / chrome://tracing)",
        out.display()
    );
    println!("  {}", r.stats.summary());
    println!("{}", Metrics::from_records(&records));
    Ok(ExitCode::SUCCESS)
}

/// `slpmt crashsweep`: the exhaustive persist-event crash sweep, or a
/// single reproduced `(scheme, workload, seed, k)` point with `--at`.
fn cmd_crashsweep(args: &[String]) -> Result<ExitCode, String> {
    use slpmt::bench::sweep::{run_sweep, sweep_cases, Points, CLEAN};
    use slpmt::workloads::crashsweep::{count_events, EngineTarget, SweepCase, SWEEP_SCHEMES};

    let mut schemes: Vec<SchemeKind> = SWEEP_SCHEMES.iter().map(|&s| s.into()).collect();
    let mut kinds = vec![IndexKind::Hashtable, IndexKind::Rbtree, IndexKind::Heap];
    let mut seed = 42u64;
    let mut ops = 50usize;
    let mut at: Option<u64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scheme" => {
                let v = value()?;
                if v.eq_ignore_ascii_case("all") {
                    schemes = SchemeKind::REGISTRY.to_vec();
                } else {
                    schemes =
                        vec![SchemeKind::parse(&v).ok_or_else(|| format!("unknown scheme {v}"))?];
                }
            }
            "--workload" => {
                let v = value()?;
                if !v.eq_ignore_ascii_case("all") {
                    kinds = vec![parse_kind(&v).ok_or_else(|| format!("unknown workload {v}"))?];
                }
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--ops" => ops = value()?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--at" => at = Some(value()?.parse().map_err(|e| format!("--at: {e}"))?),
            other => return Err(format!("unknown option {other}")),
        }
    }

    let name = |c: &SweepCase, _: &FaultPlan, k: u64| {
        format!("crashsweep-{}-{}-s{}-k{k}", c.scheme, c.kind, c.seed)
    };
    if let Some(k) = at {
        // Reproduce one tuple: exactly one scheme and workload.
        let (&scheme, &kind) = match (&schemes[..], &kinds[..]) {
            ([s], [w]) => (s, w),
            _ => return Err("--at needs exactly one --scheme and one --workload".into()),
        };
        let case = SweepCase::new(scheme, kind, seed, ops);
        return replay_point(
            &EngineTarget,
            &case,
            &FaultPlan::NONE,
            k,
            "recovered to the oracle state",
            name,
        );
    }

    let cases = sweep_cases(&schemes, &kinds, seed, ops);
    let total: u64 = cases.iter().map(count_events).sum();
    println!(
        "sweeping {} case(s), {} persist events total (seed {seed}, {ops} ops) ...",
        cases.len(),
        total
    );
    let start = std::time::Instant::now();
    let report = run_sweep(&EngineTarget, &cases, &CLEAN, Points::Exhaustive);
    print!("crash {report}");
    capture_failures(&EngineTarget, &report.failures, "--at K", false, name)?;
    println!("({:.2}s)", start.elapsed().as_secs_f64());
    Ok(exit_code(report.is_clean()))
}

/// `slpmt faults`: the media-fault sweep — seeded crash points under
/// torn-write / poison / bit-flip / jitter plans — or a single
/// reproduced `(scheme, workload, seed, k, plan)` point with
/// `--plan … --at …`.
fn cmd_faults(args: &[String]) -> Result<ExitCode, String> {
    use slpmt::bench::sweep::{run_sweep, sweep_cases, Points};
    use slpmt::workloads::crashsweep::{default_plans, EngineTarget, SweepCase, SWEEP_SCHEMES};

    let mut schemes: Vec<SchemeKind> = SWEEP_SCHEMES.iter().map(|&s| s.into()).collect();
    let mut kinds = vec![IndexKind::Hashtable, IndexKind::Rbtree, IndexKind::Heap];
    let mut seed = 42u64;
    let mut ops = 20usize;
    let mut points = 2usize;
    let mut plans: Vec<FaultPlan> = Vec::new();
    let mut at: Option<u64> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--json" {
            json = true;
            continue;
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scheme" => {
                let v = value()?;
                if v.eq_ignore_ascii_case("all") {
                    schemes = SchemeKind::REGISTRY.to_vec();
                } else {
                    schemes =
                        vec![SchemeKind::parse(&v).ok_or_else(|| format!("unknown scheme {v}"))?];
                }
            }
            "--workload" => {
                let v = value()?;
                if !v.eq_ignore_ascii_case("all") {
                    kinds = vec![parse_kind(&v).ok_or_else(|| format!("unknown workload {v}"))?];
                }
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--ops" => ops = value()?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--points" => points = value()?.parse().map_err(|e| format!("--points: {e}"))?,
            "--plan" => plans.push(value()?.parse().map_err(|e| format!("--plan: {e}"))?),
            "--at" => at = Some(value()?.parse().map_err(|e| format!("--at: {e}"))?),
            other => return Err(format!("unknown option {other}")),
        }
    }

    let name = |c: &SweepCase, plan: &FaultPlan, k: u64| {
        format!(
            "faultsweep-{}-{}-s{}-p{plan}-k{k}",
            c.scheme, c.kind, c.seed
        )
    };
    if let Some(k) = at {
        // Reproduce one failure tuple verbatim.
        let (&scheme, &kind, &plan) = match (&schemes[..], &kinds[..], &plans[..]) {
            ([s], [w], [p]) => (s, w, p),
            _ => return Err("--at needs exactly one --scheme, --workload and --plan".into()),
        };
        let case = SweepCase::new(scheme, kind, seed, ops);
        return replay_point(
            &EngineTarget,
            &case,
            &plan,
            k,
            "degradation rules held",
            name,
        );
    }

    if plans.is_empty() {
        plans = default_plans(seed);
    }
    let cases = sweep_cases(&schemes, &kinds, seed, ops);
    if !json {
        println!(
            "fault-sweeping {} cell(s) × {points} crash point(s) (seed {seed}, {ops} ops) ...",
            cases.len() * plans.len()
        );
    }
    let start = std::time::Instant::now();
    let report = run_sweep(&EngineTarget, &cases, &plans, Points::Sampled(points));
    if !json {
        print!("fault {report}");
    }
    let captured = capture_failures(
        &EngineTarget,
        &report.failures,
        "--plan P --at K",
        json,
        name,
    )?;
    if json {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("command");
        w.string("faults");
        w.key("seed");
        w.u64(seed);
        w.key("ops");
        w.u64(ops as u64);
        w.key("points_per_case");
        w.u64(points as u64);
        w.key("cases");
        w.u64(report.cases as u64);
        w.key("points");
        w.u64(report.points() as u64);
        w.key("clean");
        w.bool(report.is_clean());
        w.key("failures");
        w.begin_arr();
        for (i, fail) in report.failures.iter().enumerate() {
            let b = &fail.case;
            w.begin_obj();
            w.key("scheme");
            w.string(&b.scheme.to_string());
            w.key("workload");
            w.string(&b.kind.to_string());
            w.key("seed");
            w.u64(b.seed);
            w.key("ops");
            w.u64(b.ops as u64);
            w.key("plan");
            w.string(&fail.plan.to_string());
            w.key("k");
            w.u64(fail.k.unwrap_or(0));
            w.key("detail");
            w.string(&fail.detail);
            if let Some(path) = captured.get(i) {
                w.key("trace");
                w.string(&path.display().to_string());
            }
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        println!("{}", w.finish());
    } else {
        println!("({:.2}s)", start.elapsed().as_secs_f64());
    }
    Ok(exit_code(report.is_clean()))
}

/// `rr:SEED` or `weighted:SEED`, the format sweep reports print.
fn parse_sched(v: &str) -> Result<slpmt::core::Schedule, String> {
    use slpmt::core::Schedule;
    let (policy, seed) = v
        .split_once(':')
        .ok_or_else(|| format!("schedule {v} is not <rr|weighted>:<seed>"))?;
    let seed: u64 = seed.parse().map_err(|e| format!("schedule seed: {e}"))?;
    match policy {
        "rr" => Ok(Schedule::round_robin(seed)),
        "weighted" => Ok(Schedule::weighted(seed)),
        other => Err(format!("unknown schedule policy {other}")),
    }
}

/// `slpmt mc`: one deterministic multi-core run — the replay side of
/// the interleaving and multi-core crash sweeps.
fn cmd_mc(args: &[String]) -> Result<ExitCode, String> {
    use slpmt::core::multi::{check_serialized_oracle, gen_programs, run_programs};
    use slpmt::core::{McEvent, McSweepCase, McTarget, ProgramSpec, Schedule};

    let mut case = McSweepCase::new(Scheme::Slpmt, 2, 42, Schedule::round_robin(42));
    let mut crash_at: Option<u64> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--json" {
            json = true;
            continue;
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scheme" => {
                let v = value()?;
                case.scheme = parse_scheme(&v).ok_or_else(|| format!("unknown scheme {v}"))?;
            }
            "--cores" => case.cores = value()?.parse().map_err(|e| format!("--cores: {e}"))?,
            "--seed" => case.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--sched" => case.sched = parse_sched(&value()?)?,
            "--txns" => {
                case.txns_per_core = value()?.parse().map_err(|e| format!("--txns: {e}"))?
            }
            "--stores" => {
                case.stores_per_txn = value()?.parse().map_err(|e| format!("--stores: {e}"))?
            }
            "--skew" => case.skew = value()?.parse().map_err(|e| format!("--skew: {e}"))?,
            "--crash-at" => {
                crash_at = Some(value()?.parse().map_err(|e| format!("--crash-at: {e}"))?)
            }
            other => return Err(format!("unknown option {other}")),
        }
    }

    if let Some(k) = crash_at {
        return replay_point(
            &McTarget,
            &case,
            &FaultPlan::NONE,
            k,
            "recovered within the admissible set",
            |c: &McSweepCase, _: &FaultPlan, k: u64| {
                format!("mc-{}-c{}-s{}-{}-k{k}", c.scheme, c.cores, c.seed, c.sched)
            },
        );
    }

    let mut spec = ProgramSpec::small(case.cores, case.seed);
    spec.txns_per_core = case.txns_per_core;
    spec.stores_per_txn = case.stores_per_txn;
    spec.shared_skew_milli = case.skew;
    let programs = gen_programs(&spec);
    let (mm, outcome) = run_programs(
        MachineConfig::for_scheme(case.scheme),
        &programs,
        case.sched,
    );
    let aborts = outcome
        .events
        .iter()
        .filter(|e| matches!(e, McEvent::ConflictAborted { .. }))
        .count();
    let oracle = check_serialized_oracle(&mm, &outcome);
    if json {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("command");
        w.string("mc");
        w.key("scheme");
        w.string(&case.scheme.to_string());
        w.key("cores");
        w.u64(case.cores as u64);
        w.key("seed");
        w.u64(case.seed);
        w.key("sched");
        w.string(&case.sched.to_string());
        w.key("txns_per_core");
        w.u64(case.txns_per_core as u64);
        w.key("stores_per_txn");
        w.u64(case.stores_per_txn as u64);
        w.key("skew_milli");
        w.u64(case.skew as u64);
        w.key("committed");
        w.u64(outcome.committed.len() as u64);
        w.key("cross_core_aborts");
        w.u64(aborts as u64);
        w.key("cycles");
        w.u64(outcome.now);
        w.key("image_digest");
        w.string(&format!("{:#018x}", outcome.image_digest));
        w.key("oracle_ok");
        w.bool(oracle.is_ok());
        if let Err(e) = &oracle {
            w.key("oracle_error");
            w.string(e);
        }
        json_stats(&mut w, "stats", &outcome.stats);
        w.end_obj();
        println!("{}", w.finish());
        return Ok(exit_code(oracle.is_ok()));
    }
    println!(
        "{case}: {} txns/core × {} stores",
        case.txns_per_core, case.stores_per_txn
    );
    println!(
        "  committed     : {} txns ({} cross-core aborts)",
        outcome.committed.len(),
        aborts
    );
    println!("  cycles        : {}", outcome.now);
    println!("  image digest  : {:#018x}", outcome.image_digest);
    for e in &outcome.events {
        match e {
            McEvent::Committed { core, seq } => println!("  core {core} committed txn {seq}"),
            McEvent::ConflictAborted {
                core,
                seq,
                by_core,
                line,
                is_write,
            } => println!(
                "  core {core} txn {seq} aborted by core {by_core} ({} line {line:#x})",
                if *is_write { "write to" } else { "read of" }
            ),
        }
    }
    Ok(match oracle {
        Ok(report) => {
            println!(
                "oracle OK: {} words checked, {} skipped",
                report.words_checked, report.words_skipped
            );
            println!("  {}", outcome.stats.summary());
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("oracle FAILED: {e}");
            ExitCode::FAILURE
        }
    })
}

/// `slpmt shards`: the share-nothing scaling run.
fn cmd_shards(kind: IndexKind, args: &[String]) -> Result<ExitCode, String> {
    use slpmt::bench::sharded::run_sharded;

    let mut scheme = Scheme::Slpmt;
    let mut ops = 1000usize;
    let mut value = 256usize;
    let mut shards = 4usize;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--json" {
            json = true;
            continue;
        }
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scheme" => {
                let v = val()?;
                scheme = parse_scheme(&v).ok_or_else(|| format!("unknown scheme {v}"))?;
            }
            "--ops" => ops = val()?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--value" => value = val()?.parse().map_err(|e| format!("--value: {e}"))?,
            "--shards" => shards = val()?.parse().map_err(|e| format!("--shards: {e}"))?,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }

    let stream = ycsb_load(ops, value, 42);
    let run = |n: usize| {
        run_sharded(
            MachineConfig::for_scheme(scheme),
            kind,
            &stream,
            value,
            AnnotationSource::Manual,
            n,
            false,
        )
    };
    let base = run(1);
    let res = run(shards);
    if json {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("command");
        w.string("shards");
        w.key("workload");
        w.string(&kind.to_string());
        w.key("scheme");
        w.string(&scheme.to_string());
        w.key("ops");
        w.u64(ops as u64);
        w.key("value_bytes");
        w.u64(value as u64);
        w.key("shards");
        w.u64(shards as u64);
        w.key("makespan_cycles");
        w.u64(res.sim_cycles());
        w.key("total_cycles");
        w.u64(res.total_cycles());
        w.key("sim_ops_per_kcycle");
        w.f64(res.sim_ops_per_kcycle());
        w.key("speedup_vs_1_shard");
        w.f64(res.sim_ops_per_kcycle() / base.sim_ops_per_kcycle());
        w.key("media_bytes");
        w.u64(res.merged_traffic().media_bytes());
        w.key("per_shard");
        w.begin_arr();
        for r in &res.shards {
            w.begin_obj();
            w.key("commits");
            w.u64(r.stats.tx_commits);
            w.key("cycles");
            w.u64(r.cycles);
            w.end_obj();
        }
        w.end_arr();
        json_stats(&mut w, "stats", &res.merged_stats());
        w.end_obj();
        println!("{}", w.finish());
        return Ok(ExitCode::SUCCESS);
    }
    println!("{kind} under {scheme}: {ops} × {value} B inserts across {shards} shard(s)");
    for (s, r) in res.shards.iter().enumerate() {
        println!(
            "  shard {s}: {:>6} ops {:>12} cycles",
            r.stats.tx_commits, r.cycles
        );
    }
    println!(
        "  makespan      : {} cycles (slowest shard)",
        res.sim_cycles()
    );
    println!(
        "  sim throughput: {:.3} ops/kcycle ({:.2}x vs 1 shard)",
        res.sim_ops_per_kcycle(),
        res.sim_ops_per_kcycle() / base.sim_ops_per_kcycle()
    );
    println!(
        "  media traffic : {} B across shards",
        res.merged_traffic().media_bytes()
    );
    println!("  {}", res.merged_stats().summary());
    Ok(ExitCode::SUCCESS)
}

/// Short git revision for tagging benchmark snapshots, `unknown`
/// outside a work tree.
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

/// `slpmt bench`: the performance snapshot behind `BENCH_<n>.json`
/// (`scripts/bench.sh`). Times three hot-path drivers — the
/// scheme×index matrix, the multi-core engine, and the 16-way sharded
/// driver at 1/4/8/16 workers — plus the per-op microbenches, and
/// emits one schema-stable JSON object. Simulated columns (cycles,
/// ops/kcycle) are deterministic; wall-clock columns are best-of
/// `--reps`, mirroring `scripts/trace_overhead.sh`'s best-of-N
/// discipline so one noisy run cannot fake a regression.
fn cmd_bench(args: &[String]) -> Result<ExitCode, String> {
    use slpmt::bench::micro;
    use slpmt::bench::runner::{fig08_cells, run_matrix_with, threads};
    use slpmt::bench::sharded::run_sharded_with;
    use slpmt::core::multi::{gen_programs, run_programs};
    use slpmt::core::{ProgramSpec, Schedule};
    use std::time::Instant;

    let mut ops = 1000usize;
    let mut value = 256usize;
    let mut reps = 3u32;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--json" {
            json = true;
            continue;
        }
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--ops" => ops = val()?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--value" => value = val()?.parse().map_err(|e| format!("--value: {e}"))?,
            "--reps" => reps = val()?.parse().map_err(|e| format!("--reps: {e}"))?,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }

    let stream = ycsb_load(ops, value, 42);
    let workers = threads();

    // Matrix: every fig08 cell once, fanned across the default worker
    // pool. Sim-throughput = simulated inserts retired per host second.
    let cells = fig08_cells(&IndexKind::ALL);
    let mut matrix_wall = f64::INFINITY;
    let mut matrix_cells = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        let results = run_matrix_with(
            &cells,
            workers,
            &stream,
            value,
            AnnotationSource::Manual,
            None,
        );
        matrix_wall = matrix_wall.min(t0.elapsed().as_secs_f64());
        matrix_cells = results.len();
    }
    let matrix_sim_ops = (matrix_cells * ops) as f64;
    let matrix_ops_per_s = matrix_sim_ops / matrix_wall;

    // Multi-core engine: a fixed 4-core round-robin program mix.
    let mut spec = ProgramSpec::small(4, 42);
    spec.txns_per_core = 64;
    spec.stores_per_txn = 8;
    let programs = gen_programs(&spec);
    let mc_ops: u64 = programs.iter().map(|p| p.len() as u64).sum();
    let mut mc_wall = f64::INFINITY;
    let mut mc_cycles = 0u64;
    let mut mc_commits = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (mm, _outcome) = run_programs(
            MachineConfig::for_scheme(Scheme::Slpmt),
            &programs,
            Schedule::round_robin(42),
        );
        mc_wall = mc_wall.min(t0.elapsed().as_secs_f64());
        mc_cycles = mm.machine().now();
        mc_commits = mm.machine().stats().tx_commits;
    }
    // Conflict aborts make commit counts schedule-dependent, so the
    // throughput metric is trace operations executed per host second.
    let mc_ops_per_s = mc_ops as f64 / mc_wall;

    // Sharded driver: 16 keyspace shards, worker sweep. The simulated
    // makespan is identical at every worker count (the bit-identity
    // property the sharded tests pin); only wall-clock moves.
    const SHARDS: usize = 16;
    let mut shard_makespan = 0u64;
    let mut shard_kcycle = 0.0f64;
    let mut scaling: Vec<(usize, f64)> = Vec::new();
    for &w in &[1usize, 4, 8, 16] {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = run_sharded_with(
                MachineConfig::for_scheme(Scheme::Slpmt),
                IndexKind::Hashtable,
                &stream,
                value,
                AnnotationSource::Manual,
                SHARDS,
                w,
                false,
            );
            best = best.min(t0.elapsed().as_secs_f64());
            if shard_makespan != 0 && shard_makespan != r.sim_cycles() {
                return Err(format!(
                    "sharded makespan diverged across worker counts: {} vs {}",
                    shard_makespan,
                    r.sim_cycles()
                ));
            }
            shard_makespan = r.sim_cycles();
            shard_kcycle = r.sim_ops_per_kcycle();
        }
        scaling.push((w, best));
    }

    // YCSB mix matrix: the named mixes (A–F + delete-heavy adversaries)
    // on the reference scheme/index. The summed simulated cycle count
    // is deterministic — any drift is a semantic change — while
    // sim-ops/s tracks host throughput of the mixed-op path.
    let ycsb_mixes: Vec<slpmt::workloads::ycsb::MixSpec> = slpmt::workloads::ycsb::MixSpec::NAMED
        .iter()
        .map(|&(_, m)| m)
        .collect();
    let ycsb_cfg = slpmt::bench::ycsb::YcsbConfig {
        load: ops.min(500),
        ops,
        value_size: 32,
        seed: 42,
    };
    let ycsb_cells =
        slpmt::bench::ycsb::ycsb_cells(&ycsb_mixes, &[Scheme::Slpmt], &[IndexKind::Hashtable]);
    let mut ycsb_wall = f64::INFINITY;
    let mut ycsb_sim_cycles = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let rows = slpmt::bench::ycsb::run_ycsb_matrix(&ycsb_cells, &ycsb_cfg, false);
        ycsb_wall = ycsb_wall.min(t0.elapsed().as_secs_f64());
        ycsb_sim_cycles = rows.iter().map(|r| r.result.cycles).sum();
    }
    let ycsb_sim_ops = (ycsb_cells.len() * ops) as f64;
    let ycsb_ops_per_s = ycsb_sim_ops / ycsb_wall;

    // KV serve: YCSB-B through the memcached-text facade at 4 shards.
    // The simulated cycle count and the response digest are
    // deterministic (bench.sh hard-gates both); wall time tracks host
    // throughput of the full parse/admit/dispatch service loop.
    let mut serve_cfg = slpmt::kv::service::ServeConfig::new(
        Scheme::Slpmt,
        IndexKind::KvBtree,
        slpmt::workloads::ycsb::MixSpec::YCSB_B,
    );
    serve_cfg.load = ops.min(500);
    serve_cfg.requests = ops;
    serve_cfg.value_size = 32;
    serve_cfg.shards = 4;
    let mut serve_wall = f64::INFINITY;
    let mut serve_row = slpmt::bench::serve::run_serve(&serve_cfg);
    serve_wall = serve_wall.min(serve_row.wall_s);
    for _ in 1..reps {
        let row = slpmt::bench::serve::run_serve(&serve_cfg);
        if row.digest != serve_row.digest || row.total_sim_cycles != serve_row.total_sim_cycles {
            return Err(format!(
                "serve run diverged across reps: digest {:016x} vs {:016x}, cycles {} vs {}",
                serve_row.digest, row.digest, serve_row.total_sim_cycles, row.total_sim_cycles
            ));
        }
        serve_wall = serve_wall.min(row.wall_s);
        serve_row = row;
    }
    let serve_req_per_s = serve_row.served as f64 / serve_wall;

    // Chaos: the crash-during-serve battery at a fixed modest shape
    // (its cost scales with points × trace length, not --ops). The
    // sweep digest, point counts and contract counters are
    // deterministic — bench.sh hard-gates them — while wall time
    // tracks host throughput of the full serve/recover/retry path.
    let chaos_cases_v = slpmt::kv::chaos::chaos_cases(
        &[Scheme::Slpmt, Scheme::SlpmtRedo],
        IndexKind::KvBtree,
        42,
        40,
        &[
            slpmt::workloads::ycsb::MixSpec::YCSB_A,
            slpmt::workloads::ycsb::MixSpec::YCSB_B,
        ],
    );
    let mut chaos_wall = f64::INFINITY;
    let mut chaos_report = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = slpmt::bench::sweep::run_chaos_sweep(&chaos_cases_v, &[], 4);
        chaos_wall = chaos_wall.min(t0.elapsed().as_secs_f64());
        if let Some(prev) = &chaos_report {
            let prev: &slpmt::kv::ChaosSweepReport = prev;
            if prev.digest != r.digest {
                return Err(format!(
                    "chaos sweep diverged across reps: digest {:016x} vs {:016x}",
                    prev.digest, r.digest
                ));
            }
        }
        chaos_report = Some(r);
    }
    let chaos_report = chaos_report.expect("reps >= 1");
    if !chaos_report.is_clean() {
        return Err(format!("chaos bench sweep failed:\n{chaos_report}"));
    }
    let chaos_points_per_s = chaos_report.points as f64 / chaos_wall;

    // Software-PTM baselines: the five flavours on the hashtable at a
    // fixed shape. Cycles, fence counts and the folded digest are all
    // simulated and deterministic — bench.sh hard-gates total cycles
    // and the digest — while wall time tracks host throughput of the
    // explicit store/flush/fence instruction streams.
    let ptm_ops = ops.min(500);
    let ptm_stream = ycsb_load(ptm_ops, 32, 42);
    let ptm_cells = slpmt::bench::runner::matrix(&SchemeKind::SOFTWARE, &[IndexKind::Hashtable]);
    let mut ptm_wall = f64::INFINITY;
    let mut ptm_rows = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        ptm_rows = run_matrix_with(
            &ptm_cells,
            workers,
            &ptm_stream,
            32,
            AnnotationSource::Manual,
            None,
        );
        ptm_wall = ptm_wall.min(t0.elapsed().as_secs_f64());
    }
    let ptm_sim_cycles: u64 = ptm_rows.iter().map(|r| r.cycles).sum();
    let ptm_fences: u64 = ptm_rows.iter().map(|r| r.stats.fences).sum();
    let ptm_digest = {
        // FNV-1a over each row's deterministic columns, in cell order.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for r in &ptm_rows {
            fold(r.cycles);
            fold(r.stats.fences);
            fold(r.stats.flushes);
            fold(r.traffic.log_bytes);
            fold(r.logical_bytes);
        }
        h
    };
    let ptm_ops_per_s = (ptm_cells.len() * ptm_ops) as f64 / ptm_wall;

    let micro_rows = micro::run_all(4096, reps);

    if json {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("command");
        w.string("bench");
        w.key("schema");
        w.u64(1);
        w.key("git_sha");
        w.string(&git_sha());
        w.key("ops");
        w.u64(ops as u64);
        w.key("value_bytes");
        w.u64(value as u64);
        w.key("reps");
        w.u64(reps as u64);
        w.key("host_workers");
        w.u64(workers as u64);
        w.key("matrix");
        w.begin_obj();
        w.key("cells");
        w.u64(matrix_cells as u64);
        w.key("workers");
        w.u64(workers as u64);
        w.key("wall_s");
        w.f64(matrix_wall);
        w.key("sim_ops");
        w.u64(matrix_sim_ops as u64);
        w.key("sim_ops_per_s");
        w.f64(matrix_ops_per_s);
        w.end_obj();
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
        w.key("wall_s");
        w.f64(mc_wall);
        w.key("sim_ops_per_s");
        w.f64(mc_ops_per_s);
        w.end_obj();
        w.key("shards");
        w.begin_obj();
        w.key("shards");
        w.u64(SHARDS as u64);
        w.key("makespan_cycles");
        w.u64(shard_makespan);
        w.key("sim_ops_per_kcycle");
        w.f64(shard_kcycle);
        w.key("scaling");
        w.begin_arr();
        for &(wk, wall) in &scaling {
            w.begin_obj();
            w.key("workers");
            w.u64(wk as u64);
            w.key("wall_s");
            w.f64(wall);
            w.key("ops_per_s");
            w.f64(ops as f64 / wall);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.key("ycsb");
        w.begin_obj();
        w.key("cells");
        w.u64(ycsb_cells.len() as u64);
        w.key("load");
        w.u64(ycsb_cfg.load as u64);
        w.key("ops");
        w.u64(ycsb_cfg.ops as u64);
        w.key("value_bytes");
        w.u64(ycsb_cfg.value_size as u64);
        w.key("wall_s");
        w.f64(ycsb_wall);
        w.key("sim_ops");
        w.u64(ycsb_sim_ops as u64);
        w.key("sim_ops_per_s");
        w.f64(ycsb_ops_per_s);
        w.key("total_sim_cycles");
        w.u64(ycsb_sim_cycles);
        w.end_obj();
        w.key("serve");
        w.begin_obj();
        w.key("mix");
        w.string("b");
        w.key("shards");
        w.u64(serve_cfg.shards as u64);
        w.key("load");
        w.u64(serve_cfg.load as u64);
        w.key("requests");
        w.u64(serve_row.requests);
        w.key("served");
        w.u64(serve_row.served);
        w.key("shed");
        w.u64(serve_row.shed);
        w.key("total_sim_cycles");
        w.u64(serve_row.total_sim_cycles);
        w.key("makespan_cycles");
        w.u64(serve_row.makespan_cycles);
        w.key("digest");
        w.string(&format!("{:016x}", serve_row.digest));
        w.key("p50");
        w.u64(serve_row.overall.p50);
        w.key("p99");
        w.u64(serve_row.overall.p99);
        w.key("p999");
        w.u64(serve_row.overall.p999);
        w.key("wall_s");
        w.f64(serve_wall);
        w.key("req_per_s");
        w.f64(serve_req_per_s);
        w.end_obj();
        w.key("chaos");
        w.begin_obj();
        w.key("cases");
        w.u64(chaos_report.cases as u64);
        w.key("points");
        w.u64(chaos_report.points as u64);
        w.key("strict");
        w.u64(chaos_report.strict as u64);
        w.key("lossy");
        w.u64(chaos_report.lossy as u64);
        w.key("suppressed");
        w.u64(chaos_report.totals.suppressed);
        w.key("refused_writes");
        w.u64(chaos_report.totals.refused_writes);
        w.key("scrubbed");
        w.u64(chaos_report.totals.scrubbed);
        w.key("digest");
        w.string(&format!("{:016x}", chaos_report.digest));
        w.key("wall_s");
        w.f64(chaos_wall);
        w.key("points_per_s");
        w.f64(chaos_points_per_s);
        w.end_obj();
        w.key("ptm");
        w.begin_obj();
        w.key("cells");
        w.u64(ptm_cells.len() as u64);
        w.key("ops");
        w.u64(ptm_ops as u64);
        w.key("value_bytes");
        w.u64(32);
        w.key("total_sim_cycles");
        w.u64(ptm_sim_cycles);
        w.key("fences");
        w.u64(ptm_fences);
        w.key("digest");
        w.string(&format!("{ptm_digest:016x}"));
        w.key("wall_s");
        w.f64(ptm_wall);
        w.key("sim_ops_per_s");
        w.f64(ptm_ops_per_s);
        w.end_obj();
        w.key("micro");
        w.begin_arr();
        for row in &micro_rows {
            w.begin_obj();
            w.key("name");
            w.string(row.name);
            w.key("iters");
            w.u64(row.iters);
            w.key("sim_cycles_per_op");
            w.f64(row.sim_cycles_per_op);
            w.key("host_ns_per_op");
            w.f64(row.host_ns_per_op);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        println!("{}", w.finish());
        return Ok(ExitCode::SUCCESS);
    }

    println!(
        "bench snapshot @ {} ({} × {} B inserts, best of {} reps)",
        git_sha(),
        ops,
        value,
        reps
    );
    println!(
        "  matrix : {matrix_cells} cells in {matrix_wall:.3}s @ {workers} workers \
         → {matrix_ops_per_s:.0} sim-ops/s"
    );
    println!(
        "  mc     : {mc_ops} trace ops ({mc_commits} commits, {mc_cycles} cycles) \
         in {mc_wall:.3}s → {mc_ops_per_s:.0} sim-ops/s"
    );
    println!(
        "  shards : {SHARDS} shards, makespan {shard_makespan} cycles \
         ({shard_kcycle:.3} ops/kcycle)"
    );
    for &(wk, wall) in &scaling {
        println!(
            "    {wk:>2} workers: {wall:.3}s wall ({:.0} ops/s)",
            ops as f64 / wall
        );
    }
    println!(
        "  ycsb   : {} mix cells in {ycsb_wall:.3}s → {ycsb_ops_per_s:.0} sim-ops/s \
         ({ycsb_sim_cycles} total cycles)",
        ycsb_cells.len()
    );
    println!(
        "  serve  : mix b × {} shards, {} served ({} total cycles, digest {:016x}) \
         in {serve_wall:.3}s → {serve_req_per_s:.0} req/s \
         [p50 {} p99 {} p999 {}]",
        serve_cfg.shards,
        serve_row.served,
        serve_row.total_sim_cycles,
        serve_row.digest,
        serve_row.overall.p50,
        serve_row.overall.p99,
        serve_row.overall.p999
    );
    println!(
        "  chaos  : {} points across {} cases ({} strict / {} lossy, digest {:016x}) \
         in {chaos_wall:.3}s → {chaos_points_per_s:.0} points/s",
        chaos_report.points,
        chaos_report.cases,
        chaos_report.strict,
        chaos_report.lossy,
        chaos_report.digest
    );
    println!(
        "  ptm    : {} flavour cells, {ptm_sim_cycles} total cycles, {ptm_fences} fences \
         (digest {ptm_digest:016x}) in {ptm_wall:.3}s → {ptm_ops_per_s:.0} sim-ops/s",
        ptm_cells.len()
    );
    println!("  micro  :");
    for row in &micro_rows {
        println!(
            "    {:<8} {:>8} iters  {:>10.1} sim-cycles/op  {:>9.1} host-ns/op",
            row.name, row.iters, row.sim_cycles_per_op, row.host_ns_per_op
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `slpmt ptm`: the software persistent-transaction baseline matrix.
/// Every PTM flavour (plus the SLPMT hardware reference point) runs
/// the same insert workload over the selected indexes; each cell
/// reports simulated cycles, fence and flush counts, log traffic and
/// the write-amplification factor. Every column is simulated, so
/// output — including `--json` — is byte-identical across reruns and
/// `SLPMT_THREADS` settings.
fn cmd_ptm(args: &[String]) -> Result<ExitCode, String> {
    use slpmt::bench::runner::{matrix, run_matrix};

    let mut schemes: Vec<SchemeKind> = std::iter::once(Scheme::Slpmt.into())
        .chain(SchemeKind::SOFTWARE)
        .collect();
    let mut kinds = vec![IndexKind::Hashtable];
    let mut ops = 500usize;
    let mut value = 64usize;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--json" {
            json = true;
            continue;
        }
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scheme" => {
                let v = val()?;
                if v.eq_ignore_ascii_case("all") {
                    schemes = SchemeKind::REGISTRY.to_vec();
                } else {
                    schemes =
                        vec![SchemeKind::parse(&v).ok_or_else(|| format!("unknown scheme {v}"))?];
                }
            }
            "--workload" => {
                let v = val()?;
                if v.eq_ignore_ascii_case("all") {
                    kinds = IndexKind::ALL.to_vec();
                } else {
                    kinds = vec![parse_kind(&v).ok_or_else(|| format!("unknown workload {v}"))?];
                }
            }
            "--ops" => ops = val()?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--value" => value = val()?.parse().map_err(|e| format!("--value: {e}"))?,
            other => return Err(format!("unknown option {other}")),
        }
    }

    let stream = ycsb_load(ops, value, 42);
    let cells = matrix(&schemes, &kinds);
    let results = run_matrix(&cells, &stream, value, AnnotationSource::Manual, None);

    if json {
        // Deliberately no wall-clock or worker-count field: this object
        // is diffed byte-for-byte across SLPMT_THREADS values in CI.
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("command");
        w.string("ptm");
        w.key("schema");
        w.u64(1);
        w.key("ops");
        w.u64(ops as u64);
        w.key("value_bytes");
        w.u64(value as u64);
        w.key("rows");
        w.begin_arr();
        for r in &results {
            w.begin_obj();
            w.key("scheme");
            w.string(&r.scheme.to_string());
            w.key("workload");
            w.string(&r.kind.to_string());
            w.key("sim_cycles");
            w.u64(r.cycles);
            w.key("txns");
            w.u64(r.stats.tx_commits);
            w.key("fences");
            w.u64(r.stats.fences);
            w.key("flushes");
            w.u64(r.stats.flushes);
            w.key("fence_stall_cycles");
            w.u64(r.stats.fence_stall_cycles);
            w.key("data_bytes");
            w.u64(r.traffic.data_bytes);
            w.key("log_bytes");
            w.u64(r.traffic.log_bytes);
            w.key("log_records");
            w.u64(r.traffic.log_records);
            w.key("logical_bytes");
            w.u64(r.logical_bytes);
            w.key("waf");
            w.f64(r.waf());
            w.key("fences_per_txn");
            w.f64(if r.stats.tx_commits == 0 {
                0.0
            } else {
                r.stats.fences as f64 / r.stats.tx_commits as f64
            });
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        println!("{}", w.finish());
        return Ok(ExitCode::SUCCESS);
    }

    println!(
        "ptm matrix: {} cell(s), {} × {} B inserts",
        cells.len(),
        ops,
        value
    );
    println!(
        "{:<22} {:>12} {:>8} {:>7} {:>8} {:>10} {:>7}",
        "cell", "cycles", "fences", "f/txn", "flushes", "log B", "waf"
    );
    for r in &results {
        let per_txn = if r.stats.tx_commits == 0 {
            0.0
        } else {
            r.stats.fences as f64 / r.stats.tx_commits as f64
        };
        println!(
            "{:<22} {:>12} {:>8} {:>7.2} {:>8} {:>10} {:>7.2}",
            format!("{}/{}", r.kind, r.scheme),
            r.cycles,
            r.stats.fences,
            per_txn,
            r.stats.flushes,
            r.traffic.log_bytes,
            r.waf(),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `slpmt ycsb`: the named-mix perf matrix — YCSB A–F plus the
/// delete-heavy / zipfian adversaries — with per-class simulated
/// p50/p99 latencies, optional sampled crash / media-fault sweeps over
/// the same cells (streaming recovery oracle), and an optional sharded
/// run. Every reported number is simulated (cycles, counts), never
/// wall-clock, so output — including `--json` — is bit-identical
/// across reruns and `SLPMT_THREADS` settings.
fn cmd_ycsb(args: &[String]) -> Result<ExitCode, String> {
    use slpmt::bench::sharded::run_sharded_mixed;
    use slpmt::bench::sweep::{run_sweep, Points, CLEAN};
    use slpmt::bench::ycsb::{run_ycsb_matrix, sweep_case_of, ycsb_cells, YcsbConfig};
    use slpmt::workloads::crashsweep::{default_plans, EngineTarget};
    use slpmt::workloads::ycsb::{ycsb_mix, MixSpec};

    let mut mixes: Vec<MixSpec> = MixSpec::NAMED.iter().map(|&(_, m)| m).collect();
    let mut schemes: Vec<SchemeKind> = vec![Scheme::Slpmt.into()];
    let mut kinds = vec![IndexKind::Hashtable];
    let mut cfg = YcsbConfig::default();
    let mut points = 50usize;
    let mut sweep = false;
    let mut faults = false;
    let mut shards = 0usize;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => {
                json = true;
                continue;
            }
            "--sweep" => {
                sweep = true;
                continue;
            }
            "--faults" => {
                faults = true;
                continue;
            }
            _ => {}
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--mix" => {
                let v = value()?;
                if !v.eq_ignore_ascii_case("all") {
                    mixes = vec![v.parse().map_err(|e| format!("--mix: {e}"))?];
                }
            }
            "--scheme" => {
                let v = value()?;
                if v.eq_ignore_ascii_case("all") {
                    schemes = SchemeKind::REGISTRY.to_vec();
                } else {
                    schemes =
                        vec![SchemeKind::parse(&v).ok_or_else(|| format!("unknown scheme {v}"))?];
                }
            }
            "--workload" => {
                let v = value()?;
                if v.eq_ignore_ascii_case("all") {
                    kinds = IndexKind::ALL.to_vec();
                } else {
                    kinds = vec![parse_kind(&v).ok_or_else(|| format!("unknown workload {v}"))?];
                }
            }
            "--load" => cfg.load = value()?.parse().map_err(|e| format!("--load: {e}"))?,
            "--ops" => cfg.ops = value()?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--value" => cfg.value_size = value()?.parse().map_err(|e| format!("--value: {e}"))?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--points" => points = value()?.parse().map_err(|e| format!("--points: {e}"))?,
            "--shards" => shards = value()?.parse().map_err(|e| format!("--shards: {e}"))?,
            other => return Err(format!("unknown option {other}")),
        }
    }
    let mix_label = |m: &MixSpec| {
        m.name()
            .map(str::to_string)
            .unwrap_or_else(|| m.to_string())
    };
    let cells = ycsb_cells(&mixes, &schemes, &kinds);
    let rows = run_ycsb_matrix(&cells, &cfg, true);

    // Optional sharded pass: the same mixes through the keyspace-
    // sharded driver, one run per (mix, scheme, kind) cell.
    let mut shard_rows: Vec<(String, String, String, u64, f64)> = Vec::new();
    if shards > 0 {
        for cell in &cells {
            let (load, ops) = ycsb_mix(cfg.load, cfg.ops, cfg.value_size, cfg.seed, &cell.mix);
            let r = run_sharded_mixed(
                MachineConfig::for_kind(cell.scheme),
                cell.kind,
                &load,
                &ops,
                cfg.value_size,
                AnnotationSource::Manual,
                shards,
                true,
            );
            shard_rows.push((
                mix_label(&cell.mix),
                cell.scheme.to_string(),
                cell.kind.to_string(),
                r.sim_cycles(),
                r.sim_ops_per_kcycle(),
            ));
        }
    }

    // Optional durability gates over the same cells: sampled
    // persist-event crash sweep, then the media-fault battery.
    let cases: Vec<_> = cells.iter().map(|c| sweep_case_of(c, &cfg)).collect();
    let points = Points::Sampled(points);
    let sweep_report = sweep.then(|| run_sweep(&EngineTarget, &cases, &CLEAN, points));
    let fault_report = faults.then(|| {
        let plans = default_plans(cases.first().map_or(0, |c| c.seed));
        run_sweep(&EngineTarget, &cases, &plans, points)
    });

    if json {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("command");
        w.string("ycsb");
        w.key("schema");
        w.u64(1);
        w.key("load");
        w.u64(cfg.load as u64);
        w.key("ops");
        w.u64(cfg.ops as u64);
        w.key("value_bytes");
        w.u64(cfg.value_size as u64);
        w.key("seed");
        w.u64(cfg.seed);
        w.key("rows");
        w.begin_arr();
        for row in &rows {
            w.begin_obj();
            w.key("mix");
            w.string(&mix_label(&row.cell.mix));
            w.key("spec");
            w.string(&row.cell.mix.to_string());
            w.key("scheme");
            w.string(&row.cell.scheme.to_string());
            w.key("workload");
            w.string(&row.cell.kind.to_string());
            w.key("sim_cycles");
            w.u64(row.result.cycles);
            w.key("data_bytes");
            w.u64(row.result.traffic.data_bytes);
            w.key("log_bytes");
            w.u64(row.result.traffic.log_bytes);
            w.key("fences");
            w.u64(row.result.stats.fences);
            w.key("flushes");
            w.u64(row.result.stats.flushes);
            w.key("logical_bytes");
            w.u64(row.result.logical_bytes);
            w.key("waf");
            w.f64(row.result.waf());
            w.key("latencies");
            w.begin_obj();
            for (name, s) in row.lat.present() {
                w.key(name);
                w.begin_obj();
                w.key("count");
                w.u64(s.count);
                w.key("p50");
                w.u64(s.p50);
                w.key("p99");
                w.u64(s.p99);
                w.key("max");
                w.u64(s.max);
                w.key("total");
                w.u64(s.total);
                w.end_obj();
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        if !shard_rows.is_empty() {
            w.key("shards");
            w.begin_obj();
            w.key("shards");
            w.u64(shards as u64);
            w.key("rows");
            w.begin_arr();
            for (mix, scheme, kind, makespan, kcycle) in &shard_rows {
                w.begin_obj();
                w.key("mix");
                w.string(mix);
                w.key("scheme");
                w.string(scheme);
                w.key("workload");
                w.string(kind);
                w.key("makespan_cycles");
                w.u64(*makespan);
                w.key("sim_ops_per_kcycle");
                w.f64(*kcycle);
                w.end_obj();
            }
            w.end_arr();
            w.end_obj();
        }
        let mut sweep_json =
            |key: &str, points: usize, cases: u64, clean: bool, fails: &[String]| {
                w.key(key);
                w.begin_obj();
                w.key("points");
                w.u64(points as u64);
                w.key("cases");
                w.u64(cases);
                w.key("clean");
                w.bool(clean);
                w.key("failures");
                w.begin_arr();
                for f in fails {
                    w.string(f);
                }
                w.end_arr();
                w.end_obj();
            };
        if let Some(report) = &sweep_report {
            let fails: Vec<String> = report.failures.iter().map(|f| f.to_string()).collect();
            sweep_json(
                "crash_sweep",
                report.points(),
                report.cases as u64,
                report.is_clean(),
                &fails,
            );
        }
        if let Some(report) = &fault_report {
            let fails: Vec<String> = report.failures.iter().map(|f| f.to_string()).collect();
            sweep_json(
                "fault_sweep",
                report.points(),
                report.cases as u64,
                report.is_clean(),
                &fails,
            );
        }
        w.end_obj();
        println!("{}", w.finish());
    } else {
        println!(
            "ycsb matrix: {} cell(s) ({} load + {} ops, {} B values, seed {})",
            rows.len(),
            cfg.load,
            cfg.ops,
            cfg.value_size,
            cfg.seed
        );
        for row in &rows {
            println!(
                "  {:<18} {:<10} {:<10} {:>9} cycles  {:>7} fences  waf {:.2}",
                mix_label(&row.cell.mix),
                row.cell.scheme.to_string(),
                row.cell.kind.to_string(),
                row.result.cycles,
                row.result.stats.fences,
                row.result.waf()
            );
            for (name, s) in row.lat.present() {
                println!(
                    "      {name:<7} n={:<5} p50={:<6} p99={:<6} max={}",
                    s.count, s.p50, s.p99, s.max
                );
            }
        }
        for (mix, scheme, kind, makespan, kcycle) in &shard_rows {
            println!(
                "  shards={shards} {mix:<14} {scheme:<10} {kind:<10} makespan {makespan} \
                 cycles ({kcycle:.3} ops/kcycle)"
            );
        }
        if let Some(report) = &sweep_report {
            print!("crash {report}");
        }
        if let Some(report) = &fault_report {
            print!("fault {report}");
        }
    }
    let clean = sweep_report.as_ref().is_none_or(|r| r.is_clean())
        && fault_report.as_ref().is_none_or(|r| r.is_clean());
    Ok(exit_code(clean))
}

/// `slpmt serve`: the deterministic KV request-serving front end — the
/// memcached-text facade over the simulated machine. Each (mix,
/// shards) cell runs the full load/encode/admit/dispatch loop and
/// reports simulated p50/p99/p999 request latencies plus the
/// response-byte digest CI diffs across `SLPMT_THREADS` settings.
/// Every reported figure is simulated (cycles, counts, digests), never
/// wall-clock, so output — including `--json` — is byte-identical at
/// any host worker count.
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    use slpmt::bench::serve::run_serve;
    use slpmt::kv::service::{ServeConfig, VERB_CLASSES};
    use slpmt::workloads::ycsb::MixSpec;

    let mut mixes = vec![MixSpec::YCSB_A, MixSpec::YCSB_B, MixSpec::YCSB_C];
    let mut schemes: Vec<SchemeKind> = vec![Scheme::Slpmt.into()];
    let mut kinds = vec![IndexKind::KvBtree];
    let mut shard_counts = vec![1usize, 4];
    let mut proto = ServeConfig::new(Scheme::Slpmt, IndexKind::KvBtree, MixSpec::YCSB_A);
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => {
                json = true;
                continue;
            }
            "--open-loop" => {
                proto.open_loop = true;
                continue;
            }
            _ => {}
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--mix" => {
                let v = value()?;
                if v.eq_ignore_ascii_case("all") {
                    mixes = MixSpec::NAMED.iter().map(|&(_, m)| m).collect();
                } else {
                    mixes = v
                        .split(',')
                        .map(|s| s.parse().map_err(|e| format!("--mix: {e}")))
                        .collect::<Result<_, _>>()?;
                }
            }
            "--scheme" => {
                let v = value()?;
                if v.eq_ignore_ascii_case("all") {
                    schemes = SchemeKind::REGISTRY.to_vec();
                } else {
                    schemes =
                        vec![SchemeKind::parse(&v).ok_or_else(|| format!("unknown scheme {v}"))?];
                }
            }
            "--workload" => {
                let v = value()?;
                kinds = vec![parse_kind(&v).ok_or_else(|| format!("unknown workload {v}"))?];
            }
            "--shards" => {
                shard_counts = value()?
                    .split(',')
                    .map(|s| s.parse::<usize>().map_err(|e| format!("--shards: {e}")))
                    .collect::<Result<_, _>>()?;
                if shard_counts.contains(&0) {
                    return Err("--shards: shard counts must be at least 1".into());
                }
            }
            "--load" => proto.load = value()?.parse().map_err(|e| format!("--load: {e}"))?,
            "--requests" => {
                proto.requests = value()?.parse().map_err(|e| format!("--requests: {e}"))?
            }
            "--value" => {
                proto.value_size = value()?.parse().map_err(|e| format!("--value: {e}"))?
            }
            "--seed" => proto.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--sessions" => {
                proto.sessions = value()?.parse().map_err(|e| format!("--sessions: {e}"))?
            }
            "--gap" => proto.mean_gap = value()?.parse().map_err(|e| format!("--gap: {e}"))?,
            "--jitter" => {
                proto.drain_jitter = value()?.parse().map_err(|e| format!("--jitter: {e}"))?
            }
            "--queue-limit" => {
                proto.admission.queue_limit = value()?
                    .parse()
                    .map_err(|e| format!("--queue-limit: {e}"))?
            }
            other => return Err(format!("unknown option {other}")),
        }
    }

    let mix_label = |m: &MixSpec| {
        m.name()
            .map(str::to_string)
            .unwrap_or_else(|| m.to_string())
    };
    let mut rows = Vec::new();
    for scheme in &schemes {
        for kind in &kinds {
            for mix in &mixes {
                for &shards in &shard_counts {
                    let mut cfg = proto.clone();
                    cfg.scheme = *scheme;
                    cfg.kind = *kind;
                    cfg.mix = *mix;
                    cfg.shards = shards;
                    rows.push(run_serve(&cfg));
                }
            }
        }
    }

    if json {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("command");
        w.string("serve");
        w.key("schema");
        w.u64(1);
        w.key("load");
        w.u64(proto.load as u64);
        w.key("requests");
        w.u64(proto.requests as u64);
        w.key("value_bytes");
        w.u64(proto.value_size as u64);
        w.key("seed");
        w.u64(proto.seed);
        w.key("sessions");
        w.u64(proto.sessions as u64);
        w.key("open_loop");
        w.bool(proto.open_loop);
        w.key("mean_gap");
        w.u64(proto.mean_gap);
        w.key("drain_jitter");
        w.u64(proto.drain_jitter);
        w.key("rows");
        w.begin_arr();
        for row in &rows {
            w.begin_obj();
            w.key("mix");
            w.string(&mix_label(&row.cfg.mix));
            w.key("scheme");
            w.string(&row.cfg.scheme.to_string());
            w.key("workload");
            w.string(&row.cfg.kind.to_string());
            w.key("shards");
            w.u64(row.cfg.shards as u64);
            w.key("requests");
            w.u64(row.requests);
            w.key("served");
            w.u64(row.served);
            w.key("shed");
            w.u64(row.shed);
            w.key("queued");
            w.u64(row.queued);
            w.key("queued_cycles");
            w.u64(row.queued_cycles);
            w.key("total_sim_cycles");
            w.u64(row.total_sim_cycles);
            w.key("makespan_cycles");
            w.u64(row.makespan_cycles);
            w.key("wpq_stall_cycles");
            w.u64(row.wpq_stall_cycles);
            w.key("response_bytes");
            w.u64(row.response_bytes);
            w.key("digest");
            w.string(&format!("{:016x}", row.digest));
            w.key("latency");
            w.begin_obj();
            w.key("overall");
            let lat_obj = |w: &mut JsonWriter, l: &slpmt::bench::serve::ServeLatency| {
                w.begin_obj();
                w.key("count");
                w.u64(l.count);
                w.key("p50");
                w.u64(l.p50);
                w.key("p99");
                w.u64(l.p99);
                w.key("p999");
                w.u64(l.p999);
                w.key("max");
                w.u64(l.max);
                w.end_obj();
            };
            lat_obj(&mut w, &row.overall);
            for (class, lat) in VERB_CLASSES.iter().zip(&row.per_verb) {
                if lat.count > 0 {
                    w.key(class);
                    lat_obj(&mut w, lat);
                }
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        println!("{}", w.finish());
    } else {
        println!(
            "serve matrix: {} cell(s) ({} load + {} requests, {} B values, seed {}, {} sessions)",
            rows.len(),
            proto.load,
            proto.requests,
            proto.value_size,
            proto.seed,
            proto.sessions
        );
        for row in &rows {
            println!(
                "  {:<14} {:<10} {:<10} shards={:<2} served {}/{} (shed {}, queued {}) \
                 makespan {} cycles digest {:016x}",
                mix_label(&row.cfg.mix),
                row.cfg.scheme.to_string(),
                row.cfg.kind.to_string(),
                row.cfg.shards,
                row.served,
                row.requests,
                row.shed,
                row.queued,
                row.makespan_cycles,
                row.digest
            );
            let print_lat = |name: &str, l: &slpmt::bench::serve::ServeLatency| {
                println!(
                    "      {name:<8} n={:<6} p50={:<6} p99={:<6} p999={:<6} max={}",
                    l.count, l.p50, l.p99, l.p999, l.max
                );
            };
            print_lat("overall", &row.overall);
            for (class, lat) in VERB_CLASSES.iter().zip(&row.per_verb) {
                if lat.count > 0 {
                    print_lat(class, lat);
                }
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_chaos(args: &[String]) -> Result<ExitCode, String> {
    use slpmt::bench::sweep::run_chaos_sweep;
    use slpmt::kv::chaos::chaos_cases;
    use slpmt::workloads::crashsweep::default_plans;
    use slpmt::workloads::ycsb::MixSpec;

    let mut mixes = vec![MixSpec::YCSB_A, MixSpec::YCSB_B, MixSpec::DELETE_HEAVY];
    let mut schemes: Vec<SchemeKind> = vec![Scheme::Slpmt.into(), Scheme::SlpmtRedo.into()];
    let mut kind = IndexKind::KvBtree;
    let mut seed = 42u64;
    let mut requests = 40usize;
    let mut points = 3usize;
    let mut faults: Option<usize> = None;
    let mut plans: Vec<FaultPlan> = Vec::new();
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--json" {
            json = true;
            continue;
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--mix" => {
                let v = value()?;
                if v.eq_ignore_ascii_case("all") {
                    mixes = MixSpec::NAMED.iter().map(|&(_, m)| m).collect();
                } else {
                    mixes = v
                        .split(',')
                        .map(|s| s.parse().map_err(|e| format!("--mix: {e}")))
                        .collect::<Result<_, _>>()?;
                }
            }
            "--scheme" => {
                let v = value()?;
                if v.eq_ignore_ascii_case("all") {
                    schemes = vec![
                        Scheme::Slpmt.into(),
                        Scheme::SlpmtRedo.into(),
                        PtmFlavor::UndoLog.into(),
                        PtmFlavor::RedoLog.into(),
                    ];
                } else {
                    schemes =
                        vec![SchemeKind::parse(&v).ok_or_else(|| format!("unknown scheme {v}"))?];
                }
            }
            "--workload" => {
                let v = value()?;
                kind = parse_kind(&v).ok_or_else(|| format!("unknown workload {v}"))?;
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--requests" => requests = value()?.parse().map_err(|e| format!("--requests: {e}"))?,
            "--points" => points = value()?.parse().map_err(|e| format!("--points: {e}"))?,
            "--faults" => faults = Some(value()?.parse().map_err(|e| format!("--faults: {e}"))?),
            "--plan" => plans.push(value()?.parse().map_err(|e| format!("--plan: {e}"))?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if plans.is_empty() {
        let defaults = default_plans(seed);
        let n = faults.unwrap_or(defaults.len()).min(defaults.len());
        plans = defaults[..n].to_vec();
    }

    let cases = chaos_cases(&schemes, kind, seed, requests, &mixes);
    if !json {
        println!(
            "chaos-sweeping {} case(s) × {points} crash point(s) × {} plan variant(s) \
             (seed {seed}, {requests} requests) ...",
            cases.len(),
            plans.len() + 1
        );
    }
    let report = run_chaos_sweep(&cases, &plans, points);
    let mix_label = |m: &MixSpec| {
        m.name()
            .map(str::to_string)
            .unwrap_or_else(|| m.to_string())
    };
    if json {
        // Deliberately no wall-clock field: this object is diffed
        // byte-for-byte across SLPMT_THREADS values in CI.
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("command");
        w.string("chaos");
        w.key("schema");
        w.u64(1);
        w.key("seed");
        w.u64(seed);
        w.key("requests");
        w.u64(requests as u64);
        w.key("points_per_plan");
        w.u64(points as u64);
        w.key("plans");
        w.u64(plans.len() as u64);
        w.key("workload");
        w.string(&kind.to_string());
        w.key("mixes");
        w.begin_arr();
        for m in &mixes {
            w.string(&mix_label(m));
        }
        w.end_arr();
        w.key("schemes");
        w.begin_arr();
        for s in &schemes {
            w.string(&s.to_string());
        }
        w.end_arr();
        w.key("cases");
        w.u64(report.cases as u64);
        w.key("points");
        w.u64(report.points as u64);
        w.key("strict");
        w.u64(report.strict as u64);
        w.key("lossy");
        w.u64(report.lossy as u64);
        w.key("lost_lines");
        w.u64(report.lost_lines);
        w.key("acked");
        w.u64(report.totals.acked);
        w.key("durable");
        w.u64(report.totals.durable);
        w.key("retried");
        w.u64(report.totals.retried);
        w.key("suppressed");
        w.u64(report.totals.suppressed);
        w.key("refused_writes");
        w.u64(report.totals.refused_writes);
        w.key("scrubbed");
        w.u64(report.totals.scrubbed);
        w.key("poison_checked");
        w.u64(report.poison_checked as u64);
        w.key("poison_caught");
        w.u64(report.poison_caught as u64);
        w.key("digest");
        w.string(&format!("{:016x}", report.digest));
        w.key("clean");
        w.bool(report.is_clean());
        w.key("failures");
        w.begin_arr();
        for fail in &report.failures {
            w.string(fail);
        }
        w.end_arr();
        w.end_obj();
        println!("{}", w.finish());
    } else {
        print!("{report}");
        println!("  digest {:016x}", report.digest);
    }
    Ok(exit_code(report.is_clean()))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: slpmt <schemes|overhead|run <index>|compare <index>|matrix|trace|crashsweep|faults|mc|shards <index>|ycsb|serve|ptm|chaos|bench> \
         [--scheme S] [--ops N] [--value B] [--annotations manual|compiler|none] [--latency NS]\n\
         trace: [--scheme S] [--workload W] [--ops N] [--value B] [--seed N] [--out FILE]\n\
         crashsweep: [--scheme S|all] [--workload W|all] [--seed N] [--ops N] [--at K]\n\
         faults: [--scheme S|all] [--workload W|all] [--seed N] [--ops N] \
         [--points N] [--plan s<seed>:t<0|1>:p<n>:f<n>:j<n>] [--at K] [--json]\n\
         mc: [--scheme S] [--cores 2-4] [--seed N] [--sched rr:K|weighted:K] \
         [--txns N] [--stores N] [--skew THETA_MILLI] [--crash-at K] [--json]\n\
         shards: [--scheme S] [--ops N] [--value B] [--shards N] [--json]\n\
         ycsb: [--mix M|all] [--scheme S|all] [--workload W|all] [--load N] [--ops N] \
         [--value B] [--seed N] [--sweep] [--faults] [--points N] [--shards N] [--json]\n\
         serve: [--mix M[,M..]|all] [--scheme S|all] [--workload W] [--shards N[,N..]] \
         [--load N] [--requests N] [--value B] [--seed N] [--sessions N] \
         [--open-loop] [--gap CYCLES] [--jitter WINDOW] [--queue-limit N] [--json]\n\
         chaos: [--mix M[,M..]|all] [--scheme S|all] [--workload W] [--seed N] \
         [--requests N] [--points N] [--faults N] [--plan s<seed>:t<0|1>:p<n>:f<n>:j<n>] [--json]\n\
         ptm: [--scheme S|all] [--workload W|all] [--ops N] [--value B] [--json]\n\
         bench: [--ops N] [--value B] [--reps N] [--json]\n\
         matrix also accepts --json; sweep failures auto-dump traces to target/traces/\n\
         indices: {}",
        IndexKind::ALL.map(|k| k.to_string()).join(", ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "schemes" => {
            cmd_schemes();
            ExitCode::SUCCESS
        }
        "overhead" => {
            cmd_overhead();
            ExitCode::SUCCESS
        }
        "run" | "compare" => {
            let Some(kind) = args.get(1).and_then(|k| parse_kind(k)) else {
                return usage();
            };
            match parse_options(&args[2..]) {
                Ok(o) => {
                    if cmd == "run" {
                        cmd_run(kind, &o);
                    } else {
                        cmd_compare(kind, &o);
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "matrix" => {
            let json = args[1..].iter().any(|a| a == "--json");
            let rest: Vec<String> = args[1..]
                .iter()
                .filter(|a| *a != "--json")
                .cloned()
                .collect();
            match parse_options(&rest) {
                Ok(o) => {
                    cmd_matrix(&o, json);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "crashsweep" => match cmd_crashsweep(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "faults" => match cmd_faults(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "mc" => match cmd_mc(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "shards" => {
            let Some(kind) = args.get(1).and_then(|k| parse_kind(k)) else {
                return usage();
            };
            match cmd_shards(kind, &args[2..]) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "ycsb" => match cmd_ycsb(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "ptm" => match cmd_ptm(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "serve" => match cmd_serve(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "chaos" => match cmd_chaos(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "bench" => match cmd_bench(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "trace" => match cmd_trace(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
