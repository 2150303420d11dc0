//! Figure 9 — SLPMT restricted to cache-line-granularity logging:
//! selective logging still pays without fine-grain records.
//!
//! Paper: SLPMT-CL gains 1.27× over the line-granularity baseline
//! (FG-CL), which itself incurs ~15 % more write traffic than the
//! word-granularity design.

use slpmt_bench::{compare, geomean, header, workload};
use slpmt_core::{MachineConfig, Scheme};
use slpmt_workloads::runner::{run, IndexKind, RunSpec};

fn main() {
    header(
        "Figure 9",
        "line-granularity variants: speedup and traffic vs FG-CL",
    );
    let ops = workload(256);
    println!(
        "{:<10} {:>14} {:>14} {:>22}",
        "kernel", "SLPMT-CL", "traffic red.", "FG-CL extra vs FG"
    );
    let mut speedups = Vec::new();
    let mut extra = Vec::new();
    for kind in IndexKind::KERNELS {
        let cell = |s| {
            let spec = RunSpec::inserts(MachineConfig::for_scheme(s), kind, &ops, 256);
            run(&spec).single().result
        };
        let fg = cell(Scheme::Fg);
        let fg_cl = cell(Scheme::FgCl);
        let slpmt_cl = cell(Scheme::SlpmtCl);
        let sp = slpmt_cl.speedup_vs(&fg_cl);
        let red = slpmt_cl.traffic_reduction_vs(&fg_cl);
        let ex = fg_cl.traffic.media_bytes() as f64 / fg.traffic.media_bytes() as f64 - 1.0;
        speedups.push(sp);
        extra.push(ex);
        println!(
            "{:<10} {:>12.2}x {:>13.0}% {:>21.0}%",
            kind.to_string(),
            sp,
            red * 100.0,
            ex * 100.0
        );
    }
    println!();
    compare(
        "SLPMT-CL over FG-CL",
        "1.27x avg",
        format!("{:.2}x geomean", geomean(speedups)),
    );
    compare(
        "line-granularity traffic cost",
        "+15% without features",
        format!(
            "{:+.0}% avg",
            extra.iter().sum::<f64>() / extra.len() as f64 * 100.0
        ),
    );
}
