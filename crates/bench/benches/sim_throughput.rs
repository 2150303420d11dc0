//! `sim_throughput` — self-benchmark of the **simulator itself**:
//! wall-clock simulated operations per second, not simulated cycles.
//!
//! Future performance work regresses against these numbers. Two
//! sections:
//!
//! 1. **Hot path**: single-cell insert throughput per scheme — the
//!    store → log-buffer → WPQ → log-region pipeline this PR made
//!    allocation-free.
//! 2. **Matrix fan-out**: the full Figure-8 scheme matrix, serial
//!    (1 worker) vs parallel (`threads()` workers), with a check that
//!    the merged results are identical.
//!
//! `SLPMT_OPS` scales the workload (default 1000).

use slpmt_bench::runner::fig08_cells;
use slpmt_bench::{DEFAULT_OPS, SEED};
use slpmt_core::{MachineConfig, Scheme};
use slpmt_workloads::runner::{par_map_with, run, threads, IndexKind, RunSpec};
use slpmt_workloads::ycsb_load;
use std::time::Instant;

fn main() {
    let n_ops = std::env::var("SLPMT_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_OPS);
    let ops = ycsb_load(n_ops, 256, SEED);

    println!("sim_throughput — wall-clock simulator throughput (host ops/sec)");
    println!("({n_ops} inserts, seed {SEED}, Table III timing)");

    println!("-- hot path: {} hashtable inserts per cell --", ops.len());
    for scheme in [Scheme::Fg, Scheme::Slpmt, Scheme::Atom, Scheme::Ede] {
        // Warm up once (page-directory materialization, code paths),
        // then time a fresh run.
        let spec = RunSpec::inserts(
            MachineConfig::for_scheme(scheme),
            IndexKind::Hashtable,
            &ops,
            256,
        );
        let cell = || run(&spec).single().result;
        cell();
        let start = Instant::now();
        let r = cell();
        let dt = start.elapsed().as_secs_f64();
        println!(
            "{:<8} {:>10.0} sim-ops/s  ({:>6.1} Msim-cycles/s, {:.3}s wall)",
            scheme.to_string(),
            ops.len() as f64 / dt,
            r.cycles as f64 / dt / 1e6,
            dt,
        );
    }

    println!();
    println!("-- matrix fan-out: full Figure-8 scheme matrix --");
    let cells = fig08_cells(&IndexKind::KERNELS);
    let run_with = |workers: usize| {
        let start = Instant::now();
        let results = par_map_with(&cells, workers, |c| run(&c.spec(&ops, 256)).single().result);
        (results, start.elapsed().as_secs_f64())
    };
    let (serial, t_serial) = run_with(1);
    let workers = threads();
    let (parallel, t_parallel) = run_with(workers);
    let identical = serial.len() == parallel.len()
        && serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.cycles == b.cycles && a.traffic == b.traffic);
    println!(
        "{} cells: serial {t_serial:.2}s, {workers} worker(s) {t_parallel:.2}s \
         ({:.2}x), merged results {}",
        cells.len(),
        t_serial / t_parallel,
        if identical { "identical" } else { "DIVERGED" },
    );
    assert!(identical, "parallel matrix must merge deterministically");
    println!(
        "matrix wall-clock speedup: {:.2}x with {workers} worker(s) (target >=3x on >=4 cores)",
        t_serial / t_parallel
    );

    println!();
    println!("-- scaling: matrix wall-clock vs worker count --");
    let counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&n| n <= workers.max(1))
        .collect();
    for &n in &counts {
        // Re-runs the same matrix at a fixed worker count.
        let start = Instant::now();
        let _ = par_map_with(&cells, n, |c| run(&c.spec(&ops, 256)));
        let dt = start.elapsed().as_secs_f64();
        println!(
            "{n:>2} worker(s): {dt:.2}s  ({:.0} sim-ops/s aggregate)",
            cells.len() as f64 * ops.len() as f64 / dt
        );
    }
}
