//! Shared harness support for the figure-regeneration benches.
//!
//! Every table and figure of the paper's evaluation (§VI) has a
//! `harness = false` bench target in this crate that re-runs the
//! corresponding experiment on the simulator and prints measured
//! numbers next to the paper's reported values:
//!
//! | target   | reproduces |
//! |----------|------------|
//! | `table1` | Table I semantics, Figure 4 ordering, §III-D overhead |
//! | `fig08`  | kernel speedups + write-traffic reduction |
//! | `fig09`  | cache-line-granularity variants |
//! | `fig10`  | speedup vs value size |
//! | `fig11`  | traffic reduction vs value size |
//! | `fig12`  | speedup vs PM write latency |
//! | `fig13`  | compiler vs manual annotations + analysis time |
//! | `fig14`  | PMKV backends at 256 B and 16 B values |
//! | `ablation` | design-choice ablations (§V-A demo, speculative logging, buffer) |
//! | `sim_throughput` | wall-clock simulator throughput (self-benchmark) |
//!
//! [`snapshot`] records the simulated `BENCH_<n>.json` snapshot behind
//! `slpmt bench`.
//!
//! The operation count defaults to the paper's 1,000 inserts; set
//! `SLPMT_OPS` to shrink runs (e.g. in CI). Set `SLPMT_CSV=<path>` to
//! append every comparison row as CSV for plotting. Every run goes
//! through [`slpmt_workloads::runner::run`]; matrix-style harnesses
//! fan their [`runner`] cells across host threads (`SLPMT_THREADS`
//! overrides the worker count; results are merged deterministically,
//! so any worker count prints identical output).

use slpmt_workloads::{ycsb_load, YcsbOp};

pub mod runner;
pub mod serve;
pub mod snapshot;
pub mod sweep;
pub mod ycsb;

/// Default operation count (the paper's YCSB-load size).
pub const DEFAULT_OPS: usize = 1000;
/// Seed used by every figure run.
pub const SEED: u64 = 42;

/// Operation count, overridable via `SLPMT_OPS`.
pub fn ops_count() -> usize {
    std::env::var("SLPMT_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_OPS)
}

/// Generates the standard workload for a value size.
pub fn workload(value_size: usize) -> Vec<YcsbOp> {
    ycsb_load(ops_count(), value_size, SEED)
}

/// Geometric mean of an iterator of ratios.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Prints the standard bench header.
pub fn header(figure: &str, what: &str) {
    println!();
    println!("================================================================");
    println!("{figure} — {what}");
    println!("({} inserts, seed {}, Table III timing)", ops_count(), SEED);
    println!("================================================================");
}

/// Prints a paper-vs-measured comparison line, and appends it to the
/// CSV file named by `SLPMT_CSV` when set.
pub fn compare(label: &str, paper: &str, measured: String) {
    println!("{label:<28} paper: {paper:<26} measured: {measured}");
    if let Ok(path) = std::env::var("SLPMT_CSV") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let esc = |s: &str| s.replace('"', "'");
            let _ = writeln!(
                f,
                "\"{}\",\"{}\",\"{}\"",
                esc(label),
                esc(paper),
                esc(&measured)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_math() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 1.0);
    }

    #[test]
    fn workload_respects_env_default() {
        // Without SLPMT_OPS the default applies (test env may set it).
        let n = ops_count();
        assert!(n > 0);
        assert_eq!(workload(16).len(), n);
    }
}
