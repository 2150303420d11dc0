//! `slpmt` — command-line front end for the simulator.
//!
//! Every subcommand, its flags and its one-line description live in
//! one table, `COMMANDS`; `slpmt` with no (or an unknown) command
//! prints it via `usage()`. Each command's synopsis is also its flag
//! spec for the one parser, `Flags`, so the help text cannot drift
//! from what is accepted. Every argument is a flag.
//!
//! `matrix` and the sweeps fan their cells across worker threads (one
//! per available core; override with SLPMT_THREADS, where 1 forces a
//! serial run); the merged output is identical for any worker count.
//! `faults [--plan P] --at K` replays exactly one failing
//! `(scheme, workload, seed, k)` tuple from a sweep report (no `--plan`
//! is the clean crash); `mc`
//! replays one `(scheme, cores, seed, schedule)` interleaving tuple
//! from an interleaving-sweep report (`--crash-at K` additionally arms
//! a crash at persist event K and oracle-checks recovery). `shards`
//! runs share-nothing keyspace shards on `SLPMT_THREADS` host workers
//! and reports *simulated* scaling (ops per kilocycle of makespan).

use slpmt::bench::serve::ServeRow;
use slpmt::cache::TxnId;
use slpmt::core::{
    CrashTarget, MachineConfig, PtmFlavor, Scheme, SchemeKind, SweepFailure, SweepReport,
};
use slpmt::kv::service::VERB_CLASSES;
use slpmt::pmem::FaultPlan;
use slpmt::trace::json::{Fields, Obj};
use slpmt::trace::{export_chrome_trace, json_obj, Metrics, ToJson, TraceRecord};
use slpmt::workloads::runner::{par_map_with, run, threads, IndexKind, RunSpec};
use slpmt::workloads::ycsb::MixSpec;
use slpmt::workloads::{ycsb_load, AnnotationSource, LatencySummary};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

// `print!`/`println!` for this file shadow std's. Rust ignores SIGPIPE,
// so once a reader such as `head` closes stdout every write fails with
// `BrokenPipe`, which std's macros turn into a panic; `write_stdout`
// ends the process quietly instead.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes command output to stdout. A closed stdout ends the process
/// with no message and status 141, the status a shell reports for a
/// process ended by SIGPIPE: the output was cut short, so the run
/// claims neither success nor a failed check.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        panic!("failed printing to stdout: {e}");
    }
}

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

/// Prints one `--json` object on one line.
fn print_json(value: impl ToJson) {
    println!("{}", value.to_json());
}

/// `Display` forms of `items`, for JSON arrays of names.
fn names<T: Display>(items: impl IntoIterator<Item = T>) -> Vec<String> {
    items.into_iter().map(|x| x.to_string()).collect()
}

/// A `ycsb` per-class latency object.
fn ycsb_latency(s: &LatencySummary) -> Fields<'static> {
    json_obj! {
        "count": s.count,
        "p50": s.p50,
        "p99": s.p99,
        "max": s.max,
        "total": s.total,
    }
}

/// `serve`'s latency classes: `overall`, then each verb class that saw
/// a request.
fn serve_classes(row: &ServeRow) -> impl Iterator<Item = (&'static str, &LatencySummary)> {
    let verbs = VERB_CLASSES.into_iter().zip(&row.per_verb);
    std::iter::once(("overall", &row.overall)).chain(verbs.filter(|(_, l)| l.count > 0))
}

/// A `serve` latency object.
fn serve_latency(l: &LatencySummary) -> Fields<'static> {
    json_obj! {
        "count": l.count,
        "p50": l.p50,
        "p99": l.p99,
        "p999": l.p999,
        "max": l.max,
    }
}

/// One command's flags, split in a single pass against its synopsis
/// and read back through typed getters. Errors are collected with
/// their argument position rather than returned, so [`Flags::finish`]
/// reports the first one in argument order — the message a
/// left-to-right parse stops at — whatever order the getters run in.
struct Flags {
    /// `(position, flag, value)` per given flag; a getter takes the
    /// entries it reads, so whatever is left at `finish` is unknown.
    given: Vec<(usize, String, String)>,
    /// Every error so far, with the argument position it belongs to.
    errors: Vec<(usize, String)>,
}

impl Flags {
    /// Splits `args` into flags by `synopsis` (a [`Command::synopsis`]):
    /// `[--flag X]` takes a value and `[--flag]` is a switch.
    fn parse(synopsis: &str, args: &[String]) -> Flags {
        let mut flags = Flags {
            given: Vec::new(),
            errors: Vec::new(),
        };
        let tokens: Vec<&str> = synopsis.split_whitespace().collect();
        let mut args = args.iter().enumerate();
        while let Some((pos, flag)) = args.next() {
            let named = flag.starts_with("--");
            if named && tokens.contains(&format!("[{flag}]").as_str()) {
                flags.given.push((pos, flag.clone(), String::new()));
            } else if named
                && tokens
                    .iter()
                    .any(|t| t.strip_prefix('[') == Some(flag.as_str()))
            {
                match args.next() {
                    Some((_, value)) => flags.given.push((pos, flag.clone(), value.clone())),
                    None => flags.errors.push((pos, format!("{flag} needs a value"))),
                }
            } else {
                flags.errors.push((pos, format!("unknown option {flag}")));
            }
        }
        flags
    }

    /// Every value given for `flag`, in order, each mapped by `parse`;
    /// a failure is kept as an error at that flag's position.
    fn each<T>(&mut self, flag: &str, parse: impl Fn(&str) -> Result<T, String>) -> Vec<T> {
        let mut out = Vec::new();
        for (pos, _, value) in self.given.extract_if(.., |(_, f, _)| f == flag) {
            match parse(&value) {
                Ok(v) => out.push(v),
                Err(e) => self.errors.push((pos, e)),
            }
        }
        out
    }

    /// The last value of `flag` mapped by `parse` (earlier ones are
    /// still checked), `None` if it is absent.
    fn last<T>(&mut self, flag: &str, parse: impl Fn(&str) -> Result<T, String>) -> Option<T> {
        self.each(flag, parse).pop()
    }

    /// Whether the switch `flag` was given.
    fn flag(&mut self, flag: &str) -> bool {
        !self.each(flag, |_| Ok(())).is_empty()
    }

    /// Every value of the repeatable `flag`, parsed as `T`.
    fn all<T: FromStr>(&mut self, flag: &str) -> Vec<T>
    where
        T::Err: Display,
    {
        self.each(flag, |v| v.parse().map_err(|e| format!("{flag}: {e}")))
    }

    /// The last value of `flag` parsed as `T`, if given.
    fn opt<T: FromStr>(&mut self, flag: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.all(flag).pop()
    }

    /// `flag` parsed as `T`, or `default`.
    fn get<T: FromStr>(&mut self, flag: &str, default: T) -> T
    where
        T::Err: Display,
    {
        self.opt(flag).unwrap_or(default)
    }

    /// [`get`](Self::get), rejecting a value outside `ok` with
    /// "`flag` `rule`".
    fn checked<T: FromStr + Copy>(
        &mut self,
        flag: &str,
        default: T,
        ok: impl Fn(T) -> bool,
        rule: &str,
    ) -> T
    where
        T::Err: Display,
    {
        self.last(flag, |v| match v.parse() {
            Ok(n) if ok(n) => Ok(n),
            Ok(_) => Err(format!("{flag} {rule}")),
            Err(e) => Err(format!("{flag}: {e}")),
        })
        .unwrap_or(default)
    }

    /// A count that must be at least 1 (`--ops`, `--points`,
    /// `--shards`, `--txns`, `--requests`, …): zero would make a sweep
    /// or an oracle check vacuous, or a run empty.
    fn positive<T: FromStr + Copy + PartialOrd + From<u8>>(&mut self, flag: &str, default: T) -> T
    where
        T::Err: Display,
    {
        self.checked(flag, default, |n| n >= T::from(1), "must be at least 1")
    }

    /// `--value`: payload bytes, in whole 8-byte words (stores are
    /// issued a word at a time).
    fn value(&mut self, default: usize) -> usize {
        self.checked(
            "--value",
            default,
            |b| b % 8 == 0,
            "must be a multiple of 8",
        )
    }

    /// `flag` as one `parse`d name (`unknown <what> X` otherwise), or
    /// the command's `all` set for `all` where it has one.
    fn pick<T: Copy>(
        &mut self,
        flag: &str,
        what: &str,
        default: &[T],
        all: Option<&[T]>,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Vec<T> {
        self.last(flag, |v| match all {
            Some(all) if v.eq_ignore_ascii_case("all") => Ok(all.to_vec()),
            _ => parse(v)
                .map(|x| vec![x])
                .ok_or_else(|| format!("unknown {what} {v}")),
        })
        .unwrap_or_else(|| default.to_vec())
    }

    /// `--scheme`: any registry scheme, or `all`.
    fn schemes(&mut self, default: &[SchemeKind], all: &[SchemeKind]) -> Vec<SchemeKind> {
        self.pick("--scheme", "scheme", default, Some(all), SchemeKind::parse)
    }

    /// `--scheme` for the hardware-only commands (no `all`).
    fn hw_scheme(&mut self, default: Scheme) -> Scheme {
        self.pick("--scheme", "scheme", &[default], None, |v| {
            SchemeKind::parse(v).and_then(SchemeKind::hardware)
        })[0]
    }

    /// `--workload`: one index, or `all`.
    fn kinds(&mut self, default: &[IndexKind], all: &[IndexKind]) -> Vec<IndexKind> {
        self.pick("--workload", "workload", default, Some(all), parse_kind)
    }

    /// `--workload` for the single-index commands (no `all`).
    fn kind(&mut self, default: IndexKind) -> IndexKind {
        self.pick("--workload", "workload", &[default], None, parse_kind)[0]
    }

    /// `--mix`: a registry name or `r..u..w..s..d..l..:dist` spec, or
    /// `all` for every named mix; with `list`, comma-separated mixes.
    fn mixes(&mut self, default: &[MixSpec], list: bool) -> Vec<MixSpec> {
        self.last("--mix", |v| {
            if v.eq_ignore_ascii_case("all") {
                return Ok(named_mixes());
            }
            let parts: Vec<&str> = if list {
                v.split(',').collect()
            } else {
                vec![v]
            };
            parts
                .into_iter()
                .map(|m| m.parse().map_err(|e| format!("--mix: {e}")))
                .collect()
        })
        .unwrap_or_else(|| default.to_vec())
    }

    /// `--mix` and `--value` together: updates and read-modify-writes
    /// write `(key, version)` payloads of two words, so a mix with
    /// either needs at least 16-byte values; read-only mixes take any
    /// whole-word size.
    fn mixes_and_value(
        &mut self,
        default: &[MixSpec],
        list: bool,
        value: usize,
    ) -> (Vec<MixSpec>, usize) {
        let mixes = self.mixes(default, list);
        let value = self.value(value);
        if let Some(m) = mixes.iter().find(|m| m.update_pct + m.rmw_pct > 0) {
            if value < 16 {
                self.errors.push((
                    usize::MAX,
                    format!("--value must be at least 16 for mix {m} (updates write two words)"),
                ));
            }
        }
        (mixes, value)
    }

    /// Fails with the first error in argument order, counting any
    /// flag no getter read as unknown.
    fn finish(&mut self) -> Result<(), String> {
        for (pos, flag, _) in self.given.drain(..) {
            self.errors.push((pos, format!("unknown option {flag}")));
        }
        match self.errors.iter().min_by_key(|(pos, _)| *pos) {
            Some((_, e)) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

fn parse_kind(name: &str) -> Option<IndexKind> {
    IndexKind::ALL
        .into_iter()
        .find(|k| k.to_string().eq_ignore_ascii_case(name))
}

fn named_mixes() -> Vec<MixSpec> {
    MixSpec::NAMED.iter().map(|&(_, m)| m).collect()
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

fn parse_annotations(v: &str) -> Result<AnnotationSource, String> {
    match v {
        "manual" => Ok(AnnotationSource::Manual),
        "compiler" => Ok(AnnotationSource::Compiler),
        "none" => Ok(AnnotationSource::None),
        other => Err(format!("unknown annotation source {other}")),
    }
}

fn cmd_schemes(f: &mut Flags) -> Result<ExitCode, String> {
    f.finish()?;
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_paper(f: &mut Flags) -> Result<ExitCode, String> {
    f.finish()?;
    let figures = slpmt::bench::claims::table();
    print!("{}", slpmt::bench::claims::markdown(&figures));
    Ok(exit_code(
        figures
            .iter()
            .flat_map(|fig| &fig.claims)
            .all(|c| c.check.holds()),
    ))
}

/// `slpmt matrix`: Fig. 8's grid. Each selected index runs under FG,
/// the baseline every row's speedup is against, and then each selected
/// hardware scheme in registry order. Every cell is verified.
fn cmd_matrix(f: &mut Flags) -> Result<ExitCode, String> {
    use slpmt::bench::runner::matrix;

    let hardware: Vec<Scheme> = SchemeKind::REGISTRY
        .into_iter()
        .filter_map(SchemeKind::hardware)
        .collect();
    // By default Fig. 8's five: FG+LG, FG+LZ, SLPMT, ATOM and EDE.
    let picked = f.pick(
        "--scheme",
        "scheme",
        &hardware[1..6],
        Some(&hardware),
        |v| SchemeKind::parse(v).and_then(SchemeKind::hardware),
    );
    let kinds = f.kinds(&IndexKind::ALL, &IndexKind::ALL);
    let ops = f.positive("--ops", 1000usize);
    let value = f.value(256);
    let source = f
        .last("--annotations", parse_annotations)
        .unwrap_or(AnnotationSource::Manual);
    let latency_ns: Option<u64> = f.opt("--latency");
    let json = f.flag("--json");
    f.finish()?;

    let schemes: Vec<Scheme> = hardware
        .into_iter()
        .filter(|s| *s == Scheme::Fg || picked.contains(s))
        .collect();
    let stream = ycsb_load(ops, value, 42);
    let cells = matrix(&schemes, &kinds);
    let start = std::time::Instant::now();
    let results = par_map_with(&cells, threads(), |c| {
        let mut spec = c.spec(&stream, value);
        if let Some(ns) = latency_ns {
            spec.cfg.pm = spec.cfg.pm.with_write_latency_ns(ns);
        }
        let spec = RunSpec {
            source,
            verify: true,
            ..spec
        };
        run(&spec).single().result
    });
    let elapsed = start.elapsed();
    // Each index's chunk starts with its FG baseline; a row is
    // (result, speedup vs that FG, write amplification).
    let rows: Vec<_> = results
        .chunks_exact(schemes.len())
        .flat_map(|chunk| chunk.iter().map(|r| (r, r.speedup_vs(&chunk[0]), r.waf())))
        .collect();
    if json {
        // Deliberately no wall-clock or worker-count field: this object
        // is diffed byte-for-byte across SLPMT_THREADS values in CI.
        print_json(json_obj! {
            "command": "matrix",
            "ops": ops,
            "value_bytes": value,
            "cells": rows.iter().map(|&(r, speedup, waf)| json_obj! {
                "workload": r.kind.to_string(),
                "scheme": r.scheme.to_string(),
                "cycles": r.cycles,
                "speedup_vs_fg": speedup,
                "media_bytes": r.traffic.media_bytes(),
                "data_lines": r.traffic.data_lines,
                "log_records": r.traffic.log_records,
                "logical_bytes": r.logical_bytes,
                "waf": waf,
                "stats": &r.stats,
            }).collect::<Vec<_>>(),
        });
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "scheme × index matrix: {} cells, {ops} × {value} B inserts, {} worker(s), {:.2}s",
        cells.len(),
        threads(),
        elapsed.as_secs_f64(),
    );
    println!(
        "{:<18} {:>12} {:>8} {:>12} {:>10} {:>7}",
        "cell", "cycles", "vs FG", "media B", "log recs", "waf"
    );
    for &(r, speedup, waf) in &rows {
        println!(
            "{:<18} {:>12} {:>7.2}x {:>12} {:>10} {:>7.2}",
            format!("{}/{}", r.kind, r.scheme),
            r.cycles,
            speedup,
            r.traffic.media_bytes(),
            r.traffic.log_records,
            waf,
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `slpmt trace`: run a seeded workload with event tracing on, export
/// the Chrome/Perfetto trace to `--out`, and print the metrics
/// snapshot folded from the very same records.
fn cmd_trace(f: &mut Flags) -> Result<ExitCode, String> {
    let scheme = f.hw_scheme(Scheme::Slpmt);
    let kind = f.kind(IndexKind::Hashtable);
    let ops = f.positive("--ops", 50usize);
    let value = f.value(64);
    let seed = f.get("--seed", 42u64);
    let out = f.get("--out", PathBuf::from("trace.json"));
    f.finish()?;

    let stream = ycsb_load(ops, value, seed);
    let mut spec = RunSpec::inserts(MachineConfig::for_scheme(scheme), kind, &stream, value);
    spec.trace = true;
    let shard = run(&spec).single();
    let (r, records) = (shard.result, shard.trace);
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

/// `slpmt faults`: the persist-event crash sweep under media-fault
/// plans (torn writes, poison, bit flips, jitter; `--plan s0` is the
/// clean crash) at seeded crash points, or at every point with
/// `--points all`; or one reproduced `(scheme, workload, seed, k,
/// plan)` point with `[--plan P] --at K`, where no plan is the clean
/// crash.
fn cmd_faults(f: &mut Flags) -> Result<ExitCode, String> {
    use slpmt::bench::sweep::{run_sweep, sweep_cases, Points};
    use slpmt::workloads::crashsweep::{default_plans, EngineTarget, SweepCase, SWEEP_SCHEMES};

    let schemes: Vec<SchemeKind> = SWEEP_SCHEMES.iter().map(|&s| s.into()).collect();
    let schemes = f.schemes(&schemes, &SchemeKind::REGISTRY);
    let default_kinds = [IndexKind::Hashtable, IndexKind::Rbtree, IndexKind::Heap];
    let kinds = f.kinds(&default_kinds, &IndexKind::ALL);
    let seed = f.get("--seed", 42);
    let ops = f.positive("--ops", 20);
    let points = f
        .last("--points", |v| match v.parse() {
            _ if v.eq_ignore_ascii_case("all") => Ok(Points::Exhaustive),
            Ok(0) => Err("--points must be at least 1".to_string()),
            Ok(n) => Ok(Points::Sampled(n)),
            Err(e) => Err(format!("--points: {e}")),
        })
        .unwrap_or(Points::Sampled(2));
    let mut plans: Vec<FaultPlan> = f.all("--plan");
    let at: Option<u64> = f.opt("--at");
    let json = f.flag("--json");
    f.finish()?;

    let name = |c: &SweepCase, plan: &FaultPlan, k: u64| {
        format!(
            "faultsweep-{}-{}-s{}-p{plan}-k{k}",
            c.scheme, c.kind, c.seed
        )
    };
    if let Some(k) = at {
        if json {
            return Err("--json does not apply to an --at K replay".into());
        }
        // Reproduce one failure tuple verbatim: a clean failure line
        // prints no plan.
        let (&scheme, &kind, plan) = match (&schemes[..], &kinds[..], &plans[..]) {
            ([s], [w], []) => (s, w, FaultPlan::NONE),
            ([s], [w], [p]) => (s, w, *p),
            _ => return Err("--at needs one --scheme, one --workload, at most one --plan".into()),
        };
        let held = if plan.is_empty() {
            "recovered to the oracle state"
        } else {
            "degradation rules held"
        };
        let case = SweepCase::new(scheme, kind, seed, ops);
        return replay_point(&EngineTarget, &case, &plan, k, held, name);
    }

    if plans.is_empty() {
        plans = default_plans(seed);
    }
    let cases = sweep_cases(&schemes, &kinds, seed, ops);
    let (per_case, each) = match points {
        Points::Sampled(n) => (Some(n), format!("{n} crash point(s)")),
        Points::Exhaustive => (None, "every crash point".to_string()),
    };
    if !json {
        println!(
            "fault-sweeping {} cell(s) × {each} (seed {seed}, {ops} ops) ...",
            cases.len() * plans.len()
        );
    }
    let start = std::time::Instant::now();
    let report = run_sweep(&EngineTarget, &cases, &plans, points);
    if !json {
        print!("fault {report}");
    }
    let captured = capture_failures(
        &EngineTarget,
        &report.failures,
        "[--plan P] --at K",
        json,
        name,
    )?;
    if json {
        print_json(json_obj! {
            "command": "faults",
            "seed": seed,
            "ops": ops,
            "points_per_case": per_case,
            "cases": report.cases,
            "points": report.points(),
            "clean": report.is_clean(),
            "failures": report.failures.iter().enumerate().map(|(i, fail)| json_obj! {
                "scheme": fail.case.scheme.to_string(),
                "workload": fail.case.kind.to_string(),
                "seed": fail.case.seed,
                "ops": fail.case.ops,
                "plan": fail.plan.to_string(),
                "k": fail.k.unwrap_or(0),
                "detail": &fail.detail,
                "trace": captured.get(i).map(|path| path.display().to_string()),
            }).collect::<Vec<_>>(),
        });
    } else {
        println!("({:.2}s)", start.elapsed().as_secs_f64());
    }
    Ok(exit_code(report.is_clean()))
}

/// `slpmt mc`: one deterministic multi-core run — the replay side of
/// the interleaving and multi-core crash sweeps.
fn cmd_mc(f: &mut Flags) -> Result<ExitCode, String> {
    use slpmt::core::multi::{check_serialized_oracle, gen_programs, run_programs};
    use slpmt::core::{McEvent, McSweepCase, McTarget, ProgramSpec, Schedule};

    let mut case = McSweepCase::new(Scheme::Slpmt, 2, 42, Schedule::round_robin(42));
    let max_cores = TxnId::COUNT as usize;
    case.scheme = f.hw_scheme(case.scheme);
    case.cores = f.checked(
        "--cores",
        case.cores,
        |c| (1..=max_cores).contains(&c),
        &format!("must be in 1..={max_cores} (one transaction context per core)"),
    );
    case.seed = f.get("--seed", case.seed);
    case.sched = f.last("--sched", parse_sched).unwrap_or(case.sched);
    case.txns_per_core = f.positive("--txns", case.txns_per_core);
    case.stores_per_txn = f.positive("--stores", case.stores_per_txn);
    // 0 is uniform; the zipfian sampler needs a skew in (0, 1).
    case.skew = f.checked("--skew", case.skew, |s| s <= 999, "must be in 0..=999");
    let crash_at: Option<u64> = f.opt("--crash-at");
    let json = f.flag("--json");
    f.finish()?;

    if let Some(k) = crash_at {
        if json {
            return Err("--json does not apply to a --crash-at K replay".into());
        }
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
    let (m, outcome) = run_programs(
        MachineConfig::for_scheme(case.scheme),
        &programs,
        case.sched,
    );
    let aborts = outcome
        .events
        .iter()
        .filter(|e| matches!(e, McEvent::ConflictAborted { .. }))
        .count();
    let oracle = check_serialized_oracle(&m, &outcome);
    let digest = format!("{:#018x}", outcome.image_digest);
    if json {
        print_json(json_obj! {
            "command": "mc",
            "scheme": case.scheme.to_string(),
            "cores": case.cores,
            "seed": case.seed,
            "sched": case.sched.to_string(),
            "txns_per_core": case.txns_per_core,
            "stores_per_txn": case.stores_per_txn,
            "skew_milli": case.skew,
            "committed": outcome.committed.len(),
            "cross_core_aborts": aborts,
            "cycles": outcome.now,
            "image_digest": &digest,
            "oracle_ok": oracle.is_ok(),
            "oracle_error": oracle.as_ref().err(),
            "stats": &outcome.stats,
        });
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
    println!("  image digest  : {digest}");
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
fn cmd_shards(f: &mut Flags) -> Result<ExitCode, String> {
    let kind = f.kind(IndexKind::Hashtable);
    let scheme = f.hw_scheme(Scheme::Slpmt);
    let ops = f.positive("--ops", 1000usize);
    let value = f.value(256);
    let shards = f.positive("--shards", 4);
    let json = f.flag("--json");
    f.finish()?;

    let stream = ycsb_load(ops, value, 42);
    let run_shards = |shards: usize| {
        let mut spec = RunSpec::inserts(MachineConfig::for_scheme(scheme), kind, &stream, value);
        spec.shards = shards;
        spec.workers = threads();
        run(&spec)
    };
    let base = run_shards(1);
    let res = run_shards(shards);
    let kcycle = res.sim_ops_per_kcycle();
    let speedup = kcycle / base.sim_ops_per_kcycle();
    let media_bytes = res.merged_traffic().media_bytes();
    let stats = res.merged_stats();
    if json {
        print_json(json_obj! {
            "command": "shards",
            "workload": kind.to_string(),
            "scheme": scheme.to_string(),
            "ops": ops,
            "value_bytes": value,
            "shards": shards,
            "makespan_cycles": res.sim_cycles(),
            "total_cycles": res.total_cycles(),
            "sim_ops_per_kcycle": kcycle,
            "speedup_vs_1_shard": speedup,
            "media_bytes": media_bytes,
            "per_shard": res.shards.iter().map(|s| json_obj! {
                "commits": s.result.stats.tx_commits,
                "cycles": s.result.cycles,
            }).collect::<Vec<_>>(),
            "stats": &stats,
        });
        return Ok(ExitCode::SUCCESS);
    }
    println!("{kind} under {scheme}: {ops} × {value} B inserts across {shards} shard(s)");
    for (s, r) in res.shards.iter().map(|s| &s.result).enumerate() {
        println!(
            "  shard {s}: {:>6} ops {:>12} cycles",
            r.stats.tx_commits, r.cycles
        );
    }
    println!(
        "  makespan      : {} cycles (slowest shard)",
        res.sim_cycles()
    );
    println!("  sim throughput: {kcycle:.3} ops/kcycle ({speedup:.2}x vs 1 shard)");
    println!("  media traffic : {media_bytes} B across shards");
    println!("  {}", stats.summary());
    Ok(ExitCode::SUCCESS)
}

/// `slpmt ptm`: the software persistent-transaction baseline matrix.
/// Every PTM flavour (plus the SLPMT hardware reference point) runs
/// the same insert workload over the selected indexes; each cell
/// reports simulated cycles, fence and flush counts, log traffic and
/// the write-amplification factor. Every column is simulated, so
/// output — including `--json` — is byte-identical across reruns and
/// `SLPMT_THREADS` settings.
fn cmd_ptm(f: &mut Flags) -> Result<ExitCode, String> {
    use slpmt::bench::runner::matrix;

    let default: Vec<SchemeKind> = std::iter::once(Scheme::Slpmt.into())
        .chain(SchemeKind::SOFTWARE)
        .collect();
    let schemes = f.schemes(&default, &SchemeKind::REGISTRY);
    let kinds = f.kinds(&[IndexKind::Hashtable], &IndexKind::ALL);
    let ops = f.positive("--ops", 500usize);
    let value = f.value(64);
    let json = f.flag("--json");
    f.finish()?;

    let stream = ycsb_load(ops, value, 42);
    let cells = matrix(&schemes, &kinds);
    let results = par_map_with(&cells, threads(), |c| {
        run(&c.spec(&stream, value)).single().result
    });
    // (result, write amplification, fences per committed transaction)
    let rows: Vec<_> = results
        .iter()
        .map(|r| {
            let per_txn = match r.stats.tx_commits {
                0 => 0.0,
                txns => r.stats.fences as f64 / txns as f64,
            };
            (r, r.waf(), per_txn)
        })
        .collect();

    if json {
        // Deliberately no wall-clock or worker-count field: this object
        // is diffed byte-for-byte across SLPMT_THREADS values in CI.
        print_json(json_obj! {
            "command": "ptm",
            "schema": 1,
            "ops": ops,
            "value_bytes": value,
            "rows": rows.iter().map(|&(r, waf, per_txn)| json_obj! {
                "scheme": r.scheme.to_string(),
                "workload": r.kind.to_string(),
                "sim_cycles": r.cycles,
                "txns": r.stats.tx_commits,
                "fences": r.stats.fences,
                "flushes": r.stats.flushes,
                "fence_stall_cycles": r.stats.fence_stall_cycles,
                "data_bytes": r.traffic.data_bytes,
                "log_bytes": r.traffic.log_bytes,
                "log_records": r.traffic.log_records,
                "logical_bytes": r.logical_bytes,
                "waf": waf,
                "fences_per_txn": per_txn,
            }).collect::<Vec<_>>(),
        });
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
    for &(r, waf, per_txn) in &rows {
        println!(
            "{:<22} {:>12} {:>8} {:>7.2} {:>8} {:>10} {:>7.2}",
            format!("{}/{}", r.kind, r.scheme),
            r.cycles,
            r.stats.fences,
            per_txn,
            r.stats.flushes,
            r.traffic.log_bytes,
            waf,
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
fn cmd_ycsb(f: &mut Flags) -> Result<ExitCode, String> {
    use slpmt::bench::sweep::{run_sweep, Points, CLEAN};
    use slpmt::bench::ycsb::{run_ycsb_matrix, sweep_case_of, ycsb_cells, YcsbConfig};
    use slpmt::workloads::crashsweep::{default_plans, EngineTarget};
    use slpmt::workloads::ycsb::ycsb_mix;

    let mut cfg = YcsbConfig::default();
    let (mixes, value) = f.mixes_and_value(&named_mixes(), false, cfg.value_size);
    cfg.value_size = value;
    let schemes = f.schemes(&[Scheme::Slpmt.into()], &SchemeKind::REGISTRY);
    let kinds = f.kinds(&[IndexKind::Hashtable], &IndexKind::ALL);
    cfg.load = f.get("--load", cfg.load);
    cfg.ops = f.positive("--ops", cfg.ops);
    cfg.seed = f.get("--seed", cfg.seed);
    let points = f.positive("--points", 50);
    let shards = f.get("--shards", 0usize);
    let (sweep, faults, json) = (f.flag("--sweep"), f.flag("--faults"), f.flag("--json"));
    f.finish()?;

    let cells = ycsb_cells(&mixes, &schemes, &kinds);
    let rows = run_ycsb_matrix(&cells, &cfg, true);

    // Optional sharded pass: the same mixes through the keyspace-
    // sharded driver, one run per (mix, scheme, kind) cell, as
    // (cell, makespan cycles, ops per kilocycle).
    let mut shard_rows = Vec::new();
    if shards > 0 {
        for cell in &cells {
            let (load, ops) = ycsb_mix(cfg.load, cfg.ops, cfg.value_size, cfg.seed, &cell.mix);
            let machine = MachineConfig::for_kind(cell.scheme);
            let r = run(&RunSpec {
                verify: true,
                shards,
                workers: threads(),
                ..RunSpec::mixed(machine, cell.kind, &load, &ops, cfg.value_size)
            });
            shard_rows.push((cell, r.sim_cycles(), r.sim_ops_per_kcycle()));
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
    let wafs: Vec<f64> = rows.iter().map(|row| row.result.waf()).collect();

    if json {
        let sweep_json = |report: &SweepReport<_, _>| {
            json_obj! {
                "points": report.points(),
                "cases": report.cases,
                "clean": report.is_clean(),
                "failures": names(&report.failures),
            }
        };
        print_json(json_obj! {
            "command": "ycsb",
            "schema": 1,
            "load": cfg.load,
            "ops": cfg.ops,
            "value_bytes": cfg.value_size,
            "seed": cfg.seed,
            "rows": rows.iter().zip(&wafs).map(|(row, &waf)| json_obj! {
                "mix": row.cell.mix.to_string(),
                "spec": row.cell.mix.to_string(),
                "scheme": row.cell.scheme.to_string(),
                "workload": row.cell.kind.to_string(),
                "sim_cycles": row.result.cycles,
                "data_bytes": row.result.traffic.data_bytes,
                "log_bytes": row.result.traffic.log_bytes,
                "fences": row.result.stats.fences,
                "flushes": row.result.stats.flushes,
                "logical_bytes": row.result.logical_bytes,
                "waf": waf,
                "latencies": Obj(row.lat.present().map(|(n, s)| (n, ycsb_latency(s))).collect()),
            }).collect::<Vec<_>>(),
            "shards": (shards > 0).then(|| json_obj! {
                "shards": shards,
                "rows": shard_rows.iter().map(|&(cell, makespan, kcycle)| json_obj! {
                    "mix": cell.mix.to_string(),
                    "scheme": cell.scheme.to_string(),
                    "workload": cell.kind.to_string(),
                    "makespan_cycles": makespan,
                    "sim_ops_per_kcycle": kcycle,
                }).collect::<Vec<_>>(),
            }),
            "crash_sweep": sweep_report.as_ref().map(sweep_json),
            "fault_sweep": fault_report.as_ref().map(sweep_json),
        });
    } else {
        println!(
            "ycsb matrix: {} cell(s) ({} load + {} ops, {} B values, seed {})",
            rows.len(),
            cfg.load,
            cfg.ops,
            cfg.value_size,
            cfg.seed
        );
        for (row, waf) in rows.iter().zip(&wafs) {
            println!(
                "  {:<18} {:<10} {:<10} {:>9} cycles  {:>7} fences  waf {waf:.2}",
                row.cell.mix.to_string(),
                row.cell.scheme.to_string(),
                row.cell.kind.to_string(),
                row.result.cycles,
                row.result.stats.fences,
            );
            for (name, s) in row.lat.present() {
                println!(
                    "      {name:<7} n={:<5} p50={:<6} p99={:<6} max={}",
                    s.count, s.p50, s.p99, s.max
                );
            }
        }
        for (cell, makespan, kcycle) in &shard_rows {
            println!(
                "  shards={shards} {:<14} {:<10} {:<10} makespan {makespan} \
                 cycles ({kcycle:.3} ops/kcycle)",
                cell.mix.to_string(),
                cell.scheme.to_string(),
                cell.kind.to_string(),
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
fn cmd_serve(f: &mut Flags) -> Result<ExitCode, String> {
    use slpmt::bench::serve::run_serve;
    use slpmt::kv::service::ServeConfig;

    let mut proto = ServeConfig::new(Scheme::Slpmt, IndexKind::KvBtree, MixSpec::YCSB_A);
    let default_mixes = [MixSpec::YCSB_A, MixSpec::YCSB_B, MixSpec::YCSB_C];
    let (mixes, value) = f.mixes_and_value(&default_mixes, true, proto.value_size);
    proto.value_size = value;
    let schemes = f.schemes(&[Scheme::Slpmt.into()], &SchemeKind::REGISTRY);
    let kinds = [f.kind(IndexKind::KvBtree)];
    let shard_counts = f
        .last("--shards", |v| {
            let counts = v
                .split(',')
                .map(|s| s.parse().map_err(|e| format!("--shards: {e}")))
                .collect::<Result<Vec<usize>, _>>()?;
            if counts.contains(&0) {
                return Err("--shards: shard counts must be at least 1".into());
            }
            Ok(counts)
        })
        .unwrap_or_else(|| vec![1, 4]);
    proto.load = f.get("--load", proto.load);
    proto.requests = f.positive("--requests", proto.requests);
    proto.seed = f.get("--seed", proto.seed);
    proto.sessions = f.positive("--sessions", proto.sessions);
    proto.open_loop = f.flag("--open-loop");
    proto.mean_gap = f.get("--gap", proto.mean_gap);
    proto.drain_jitter = f.get("--jitter", proto.drain_jitter);
    proto.admission.queue_limit = f.get("--queue-limit", proto.admission.queue_limit);
    let json = f.flag("--json");
    f.finish()?;

    // (response digest, row)
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
                    let row = run_serve(&cfg, threads()).0;
                    rows.push((format!("{:016x}", row.digest), row));
                }
            }
        }
    }

    if json {
        print_json(json_obj! {
            "command": "serve",
            "schema": 1,
            "load": proto.load,
            "requests": proto.requests,
            "value_bytes": proto.value_size,
            "seed": proto.seed,
            "sessions": proto.sessions,
            "open_loop": proto.open_loop,
            "mean_gap": proto.mean_gap,
            "drain_jitter": proto.drain_jitter,
            "rows": rows.iter().map(|(digest, row)| json_obj! {
                "mix": row.cfg.mix.to_string(),
                "scheme": row.cfg.scheme.to_string(),
                "workload": row.cfg.kind.to_string(),
                "shards": row.cfg.shards,
                "requests": row.requests,
                "served": row.served,
                "shed": row.shed,
                "queued": row.queued,
                "queued_cycles": row.queued_cycles,
                "total_sim_cycles": row.total_sim_cycles,
                "makespan_cycles": row.makespan_cycles,
                "wpq_stall_cycles": row.wpq_stall_cycles,
                "response_bytes": row.response_bytes,
                "digest": digest,
                "latency": Obj(serve_classes(row).map(|(n, l)| (n, serve_latency(l))).collect()),
            }).collect::<Vec<_>>(),
        });
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
        for (digest, row) in &rows {
            println!(
                "  {:<14} {:<10} {:<10} shards={:<2} served {}/{} (shed {}, queued {}) \
                 makespan {} cycles digest {digest}",
                row.cfg.mix.to_string(),
                row.cfg.scheme.to_string(),
                row.cfg.kind.to_string(),
                row.cfg.shards,
                row.served,
                row.requests,
                row.shed,
                row.queued,
                row.makespan_cycles,
            );
            for (name, l) in serve_classes(row) {
                println!(
                    "      {name:<8} n={:<6} p50={:<6} p99={:<6} p999={:<6} max={}",
                    l.count, l.p50, l.p99, l.p999, l.max
                );
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_chaos(f: &mut Flags) -> Result<ExitCode, String> {
    use slpmt::bench::sweep::run_chaos_sweep;
    use slpmt::kv::chaos::chaos_cases;
    use slpmt::workloads::crashsweep::default_plans;

    let mixes = f.mixes(
        &[MixSpec::YCSB_A, MixSpec::YCSB_B, MixSpec::DELETE_HEAVY],
        true,
    );
    let schemes = f.schemes(
        &[Scheme::Slpmt.into(), Scheme::SlpmtRedo.into()],
        &[
            Scheme::Slpmt.into(),
            Scheme::SlpmtRedo.into(),
            PtmFlavor::UndoLog.into(),
            PtmFlavor::RedoLog.into(),
        ],
    );
    let kind = f.kind(IndexKind::KvBtree);
    let seed = f.get("--seed", 42u64);
    let requests = f.positive("--requests", 40usize);
    let points = f.positive("--points", 3);
    let defaults = default_plans(seed);
    let faults = f.checked(
        "--faults",
        defaults.len(),
        |n| n <= defaults.len(),
        &format!(
            "must be in 0..={} (the default fault plans)",
            defaults.len()
        ),
    );
    let mut plans: Vec<FaultPlan> = f.all("--plan");
    let json = f.flag("--json");
    f.finish()?;
    if plans.is_empty() {
        plans = defaults[..faults].to_vec();
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
    let digest = format!("{:016x}", report.digest);
    if json {
        // Deliberately no wall-clock field: this object is diffed
        // byte-for-byte across SLPMT_THREADS values in CI.
        print_json(json_obj! {
            "command": "chaos",
            "schema": 1,
            "seed": seed,
            "requests": requests,
            "points_per_plan": points,
            "plans": plans.len(),
            "workload": kind.to_string(),
            "mixes": names(&mixes),
            "schemes": names(&schemes),
            "cases": report.cases,
            "points": report.points,
            "strict": report.strict,
            "lossy": report.lossy,
            "lost_lines": report.lost_lines,
            "acked": report.totals.acked,
            "durable": report.totals.durable,
            "retried": report.totals.retried,
            "suppressed": report.totals.suppressed,
            "refused_writes": report.totals.refused_writes,
            "scrubbed": report.totals.scrubbed,
            "poison_checked": report.poison_checked,
            "poison_caught": report.poison_caught,
            "digest": &digest,
            "clean": report.is_clean(),
            "failures": &report.failures,
        });
    } else {
        print!("{report}");
        println!("  digest {digest}");
    }
    Ok(exit_code(report.is_clean()))
}

/// One `slpmt` subcommand. The synopsis is both the help text and the
/// flag spec [`Flags::parse`] splits arguments by.
struct Command {
    name: &'static str,
    about: &'static str,
    synopsis: &'static str,
    run: fn(&mut Flags) -> Result<ExitCode, String>,
}

/// Every subcommand: `main` dispatches through it and [`usage`] prints
/// it.
const COMMANDS: &[Command] = &[
    Command {
        name: "schemes",
        about: "list hardware designs",
        synopsis: "",
        run: cmd_schemes,
    },
    Command {
        name: "paper",
        about: "the paper's claim table (markdown, exit 1 if one fails)",
        synopsis: "",
        run: cmd_paper,
    },
    Command {
        name: "matrix",
        about: "scheme × index matrix of verified inserts (parallel)",
        synopsis: "[--scheme S|all] [--workload W|all] [--ops N] [--value B] \
                   [--annotations manual|compiler|none] [--latency NS] [--json]",
        run: cmd_matrix,
    },
    Command {
        name: "trace",
        about: "capture an event trace (Perfetto JSON)",
        synopsis: "[--scheme S] [--workload W] [--ops N] [--value B] [--seed N] [--out FILE]",
        run: cmd_trace,
    },
    Command {
        name: "faults",
        about: "crash sweep: clean (--plan s0) or media faults (tear/poison/flip/jitter)",
        synopsis: "[--scheme S|all] [--workload W|all] [--seed N] [--ops N] [--points N|all] \
                   [--plan s<seed>:t<0|1>[:w<word>]:p<n>:f<n>:j<n>] [--at K] [--json]",
        run: cmd_faults,
    },
    Command {
        name: "mc",
        about: "deterministic multi-core run",
        synopsis: "[--scheme S] [--cores 1-4] [--seed N] [--sched rr:K|weighted:K] [--txns N] \
                   [--stores N] [--skew THETA_MILLI] [--crash-at K] [--json]",
        run: cmd_mc,
    },
    Command {
        name: "shards",
        about: "keyspace-sharded scaling run",
        synopsis: "[--workload W] [--scheme S] [--ops N] [--value B] [--shards N] [--json]",
        run: cmd_shards,
    },
    Command {
        name: "ycsb",
        about: "named-mix matrix (A–F, delete-heavy, …)",
        synopsis: "[--mix M|all] [--scheme S|all] [--workload W|all] [--load N] [--ops N] \
                   [--value B] [--seed N] [--sweep] [--faults] [--points N] [--shards N] [--json]",
        run: cmd_ycsb,
    },
    Command {
        name: "serve",
        about: "KV service front end (memcached-text facade)",
        synopsis: "[--mix M[,M..]|all] [--scheme S|all] [--workload W] [--shards N[,N..]] \
                   [--load N] [--requests N] [--value B] [--seed N] [--sessions N] \
                   [--open-loop] [--gap CYCLES] [--jitter WINDOW] [--queue-limit N] [--json]",
        run: cmd_serve,
    },
    Command {
        name: "chaos",
        about: "crash-during-serve battery (ack/retry contract)",
        synopsis: "[--mix M[,M..]|all] [--scheme S|all] [--workload W] [--seed N] \
                   [--requests N] [--points N] [--faults N] \
                   [--plan s<seed>:t<0|1>[:w<word>]:p<n>:f<n>:j<n>] [--json]",
        run: cmd_chaos,
    },
    Command {
        name: "ptm",
        about: "software-PTM baseline matrix (fences, WAF)",
        synopsis: "[--scheme S|all] [--workload W|all] [--ops N] [--value B] [--json]",
        run: cmd_ptm,
    },
];

fn usage() -> ExitCode {
    eprintln!("usage: slpmt <command> [options]");
    for c in COMMANDS {
        eprintln!("  {:<10} {}", c.name, c.about);
        if !c.synopsis.is_empty() {
            eprintln!("    {} {}", c.name, c.synopsis);
        }
    }
    eprintln!(
        "--plan is repeatable (`[--plan P] --at K` replays one point); sweep failures\n\
         auto-dump traces to target/traces/\n\
         indices: {}",
        IndexKind::ALL.map(|k| k.to_string()).join(", ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name))
    else {
        return usage();
    };
    let mut flags = Flags::parse(cmd.synopsis, &args[1..]);
    (cmd.run)(&mut flags).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
