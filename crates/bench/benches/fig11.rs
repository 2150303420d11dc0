//! Figure 11 — write-traffic reduction sensitivity to the value size.
//!
//! Paper: with large values, storing and logging the value dominates,
//! so SLPMT's reduction grows roughly linearly with the value size;
//! from 16 to 32 bytes the reduction is mostly flat because pointer
//! and counter updates dominate small-value inserts.

use slpmt_bench::{compare, header, workload};
use slpmt_core::{MachineConfig, Scheme};
use slpmt_workloads::runner::{run, IndexKind, RunSpec};

const SIZES: [usize; 5] = [16, 32, 64, 128, 256];

fn main() {
    header("Figure 11", "SLPMT write-traffic reduction vs value size");
    print!("{:<10}", "kernel");
    for vs in SIZES {
        print!(" {vs:>6}B");
    }
    println!();
    let mut small_delta = Vec::new();
    let mut large_delta = Vec::new();
    for kind in IndexKind::KERNELS {
        print!("{:<10}", kind.to_string());
        let mut series = Vec::new();
        for vs in SIZES {
            let ops = workload(vs);
            let cell = |s| {
                let spec = RunSpec::inserts(MachineConfig::for_scheme(s), kind, &ops, vs);
                run(&spec).single().result
            };
            let base = cell(Scheme::Fg);
            let r = cell(Scheme::Slpmt);
            let red = r.traffic_reduction_vs(&base);
            series.push(red);
            print!(" {:>6.1}%", red * 100.0);
        }
        println!();
        small_delta.push(series[1] - series[0]); // 16 → 32
        large_delta.push(series[4] - series[3]); // 128 → 256
    }
    println!();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    compare(
        "16→32 B change",
        "mostly constant",
        format!("{:+.1} pp avg", avg(&small_delta) * 100.0),
    );
    compare(
        "128→256 B change",
        "keeps growing (≈ linear in size)",
        format!("{:+.1} pp avg", avg(&large_delta) * 100.0),
    );
}
