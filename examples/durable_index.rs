//! Run the paper's YCSB-load workload on a durable index and compare
//! hardware schemes.
//!
//! ```sh
//! cargo run --release --example durable_index
//! ```

use slpmt::core::{MachineConfig, Scheme};
use slpmt::workloads::runner::{run, IndexKind, RunResult, RunSpec};
use slpmt::workloads::ycsb_load;

fn main() {
    let ops = ycsb_load(500, 256, 7);
    let kind = IndexKind::KvCtree;

    let verified = |scheme: Scheme| -> RunResult {
        let spec = RunSpec::inserts(MachineConfig::for_scheme(scheme), kind, &ops, 256);
        run(&RunSpec {
            verify: true,
            ..spec
        })
        .single()
        .result
    };

    println!("{kind}: {} inserts of 256-byte values\n", ops.len());
    let base = verified(Scheme::Fg);
    println!(
        "{:<8} {:>12} cycles {:>10} media B  (baseline)",
        base.scheme.to_string(),
        base.cycles,
        base.traffic.media_bytes()
    );
    for scheme in [Scheme::Slpmt, Scheme::Atom, Scheme::Ede] {
        let r = verified(scheme);
        println!(
            "{:<8} {:>12} cycles {:>10} media B  ({:.2}x, traffic {:+.1}%)",
            r.scheme.to_string(),
            r.cycles,
            r.traffic.media_bytes(),
            r.speedup_vs(&base),
            -r.traffic_reduction_vs(&base) * 100.0
        );
    }
    println!("\nevery run verified: invariants held and all keys present");
}
