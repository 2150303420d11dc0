//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-load|kv-serve|crash-recover> --seed N \
//!     --seconds S --trace <0|1> [--spans-dir DIR]
//! ```
//!
//! Prints the run's environment, every metric with its unit, the check
//! verdict, and as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones (and writes the host spans to `--spans-dir`).

use slpmt_perfbench::{run, Outcome, Params, WORKLOADS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Host threads the benchmark drives load from: one process, one
/// thread, so two workers cannot double the spread on a small host.
const HOST_THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans-dir" => args.spans_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The commit the checkout was built from, read from `.git` when the
/// checkout is a repository.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Peak resident set size of this process, MiB: the kernel's
/// high-water mark for this process image (`VmHWM`), which, unlike
/// `getrusage`, does not carry over the peak of a launcher that exec'd
/// the benchmark.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    if HOST_THREADS > cores {
        eprintln!("perfbench: refusing to run {HOST_THREADS} host threads on {cores} cores");
        return ExitCode::from(2);
    }
    println!(
        "env {{\"available_parallelism\": {cores}, \"git_sha\": \"{}\", \"profile\": \"{}\", \
         \"no_trace\": {}, \"seed\": {}, \"threads\": {HOST_THREADS}, \"workload\": \"{}\", \
         \"trace\": {}, \"validation\": \"model checked only against the paper's gem5 figures\"}}",
        git_sha(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        cfg!(feature = "no-trace"),
        args.seed,
        args.workload,
        u8::from(args.trace)
    );
    let p = Params::new(args.seed, args.seconds, args.trace);
    let mut out: Outcome = match run(&args.workload, &p) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        out.metric("peak_rss_mb", "MiB", peak_rss_mb());
    }
    for note in &out.notes {
        println!("note {note}");
    }
    for f in &out.failures {
        println!("FAIL {f}");
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("metric failed_ratio = {failed_ratio} ratio");
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = args.spans_dir.join(format!("spans-{}.tsv", args.workload));
        match std::fs::create_dir_all(&args.spans_dir)
            .and_then(|()| std::fs::write(&path, &out.spans_tsv))
        {
            Ok(()) => println!("note host spans written to {}", path.display()),
            Err(e) => println!("note host spans not written ({}: {e})", path.display()),
        }
    }
    let correct = out.correct();
    println!(
        "verdict {} ({} of {} operations failed)",
        if correct { "PASS" } else { "FAIL" },
        out.failed,
        out.attempted
    );
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    );
    ExitCode::SUCCESS
}
