//! Figure 8 — kernel benchmarks: speedup over the FG baseline (left)
//! and PM write-traffic reduction (right), for FG+LG, FG+LZ, SLPMT,
//! ATOM and EDE.
//!
//! Paper headline numbers: SLPMT averages 1.57× over FG, 1.65× over
//! ATOM and 1.78× over EDE, with ~35 % average write-traffic
//! reduction; FG itself beats ATOM by 1.05× and EDE by 1.13×;
//! log-free and lazy complement each other (hashtable: +24 % and
//! +17 %, together +52 %).

use slpmt_bench::runner::fig08_cells;
use slpmt_bench::{compare, geomean, header, workload};
use slpmt_core::Scheme;
use slpmt_workloads::runner::{par_map_with, run, threads, IndexKind};

fn main() {
    header(
        "Figure 8",
        "kernel speedup (left) and write-traffic reduction (right)",
    );
    let ops = workload(256);
    let schemes = [
        Scheme::FgLg,
        Scheme::FgLz,
        Scheme::Slpmt,
        Scheme::Atom,
        Scheme::Ede,
    ];

    // All 24 cells (FG baseline + 5 schemes × 4 kernels) simulate in
    // parallel; the merge is deterministic, kind-major, FG first.
    let cells = fig08_cells(&IndexKind::KERNELS);
    let results = par_map_with(&cells, threads(), |c| {
        run(&c.spec(&ops, 256)).single().result
    });
    let row = 1 + schemes.len();

    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9}   (speedup over FG / traffic reduction)",
        "kernel", "FG+LG", "FG+LZ", "SLPMT", "ATOM", "EDE"
    );
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut slpmt_red = Vec::new();
    for (k, kind) in IndexKind::KERNELS.into_iter().enumerate() {
        let base = &results[k * row];
        print!("{:<10}", kind.to_string());
        for (i, s) in schemes.iter().enumerate() {
            let r = &results[k * row + 1 + i];
            let sp = r.speedup_vs(base);
            per_scheme[i].push(sp);
            if *s == Scheme::Slpmt {
                slpmt_red.push(r.traffic_reduction_vs(base));
            }
            print!(" {sp:>5.2}x");
            print!("/{:>+3.0}%", r.traffic_reduction_vs(base) * 100.0);
        }
        println!();
    }
    println!();
    let g = |i: usize| geomean(per_scheme[i].iter().copied());
    compare(
        "SLPMT speedup over FG",
        "1.57x avg",
        format!("{:.2}x geomean", g(2)),
    );
    compare(
        "SLPMT speedup over ATOM",
        "1.65x avg",
        format!("{:.2}x", g(2) / g(3)),
    );
    compare(
        "SLPMT speedup over EDE",
        "1.78x avg",
        format!("{:.2}x", g(2) / g(4)),
    );
    compare("FG over ATOM", "1.05x", format!("{:.2}x", 1.0 / g(3)));
    compare("FG over EDE", "1.13x", format!("{:.2}x", 1.0 / g(4)));
    compare(
        "SLPMT traffic reduction",
        "35% avg",
        format!(
            "{:.0}% avg",
            slpmt_red.iter().sum::<f64>() / slpmt_red.len() as f64 * 100.0
        ),
    );
    compare(
        "ATOM/EDE traffic",
        "above baseline (negative)",
        "negative reductions above".into(),
    );
}
