//! Figure 12 — SLPMT speedup sensitivity to the PM write latency
//! (500 ns Optane-class up to 2300 ns flash-backed CXL devices).
//!
//! Paper: the gain is largely stable with latency for most kernels
//! (it is dominated by the write-traffic reduction, which does not
//! change), while *hashtable* — the lazy-persistence-heavy benchmark —
//! grows more sensitive because deferral takes data persistence off
//! the commit critical path.

use slpmt_bench::{compare, header, workload};
use slpmt_core::{MachineConfig, Scheme};
use slpmt_workloads::runner::{run, IndexKind, RunSpec};

const LATENCIES_NS: [u64; 4] = [500, 1100, 1700, 2300];

fn main() {
    header("Figure 12", "SLPMT speedup over FG vs PM write latency");
    let ops = workload(256);
    print!("{:<10}", "kernel");
    for ns in LATENCIES_NS {
        print!(" {ns:>6}ns");
    }
    println!();
    let mut spreads = Vec::new();
    let mut hashtable_spread = 0.0;
    for kind in IndexKind::KERNELS {
        print!("{:<10}", kind.to_string());
        let mut series = Vec::new();
        for ns in LATENCIES_NS {
            let cell = |s| {
                let mut cfg = MachineConfig::for_scheme(s);
                cfg.pm = cfg.pm.with_write_latency_ns(ns);
                run(&RunSpec::inserts(cfg, kind, &ops, 256)).single().result
            };
            let (base, r) = (cell(Scheme::Fg), cell(Scheme::Slpmt));
            let sp = r.speedup_vs(&base);
            series.push(sp);
            print!(" {sp:>7.2}x");
        }
        println!();
        let spread = series.last().unwrap() - series.first().unwrap();
        if kind == IndexKind::Hashtable {
            hashtable_spread = spread;
        } else {
            spreads.push(spread.abs());
        }
    }
    println!();
    compare(
        "non-hashtable stability",
        "largely stable",
        format!(
            "max |500→2300ns change| {:.2}x",
            spreads.iter().cloned().fold(0.0, f64::max)
        ),
    );
    compare(
        "hashtable sensitivity",
        "grows with latency (lazy persistence)",
        format!("{:+.2}x from 500 to 2300 ns", hashtable_spread),
    );
}
