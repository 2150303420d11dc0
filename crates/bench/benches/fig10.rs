//! Figure 10 — SLPMT speedup sensitivity to the value size.
//!
//! Paper: SLPMT still accelerates the baseline by 1.22× on average at
//! 16-byte values, and every benchmark gains more as values grow
//! (more log-free variables per insert).

use slpmt_bench::{compare, geomean, header, workload};
use slpmt_core::{MachineConfig, Scheme};
use slpmt_workloads::runner::{run, IndexKind, RunSpec};

const SIZES: [usize; 5] = [16, 32, 64, 128, 256];

fn main() {
    header("Figure 10", "SLPMT speedup over FG vs value size");
    print!("{:<10}", "kernel");
    for vs in SIZES {
        print!(" {vs:>6}B");
    }
    println!();
    let mut at16 = Vec::new();
    for kind in IndexKind::KERNELS {
        print!("{:<10}", kind.to_string());
        let mut prev = 0.0;
        let mut monotone = true;
        for vs in SIZES {
            let ops = workload(vs);
            let cell = |s| {
                let spec = RunSpec::inserts(MachineConfig::for_scheme(s), kind, &ops, vs);
                run(&spec).single().result
            };
            let base = cell(Scheme::Fg);
            let r = cell(Scheme::Slpmt);
            let sp = r.speedup_vs(&base);
            if vs == 16 {
                at16.push(sp);
            }
            monotone &= sp + 0.03 >= prev;
            prev = sp;
            print!(" {sp:>6.2}x");
        }
        println!(
            "{}",
            if monotone {
                "   (grows with value size)"
            } else {
                "   (non-monotone!)"
            }
        );
    }
    println!();
    compare(
        "speedup at 16 B values",
        "1.22x avg",
        format!("{:.2}x geomean", geomean(at16)),
    );
    compare(
        "trend",
        "gains grow with value size",
        "see rows above".into(),
    );
}
