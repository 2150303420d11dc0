//! Extension experiment (beyond the paper's YCSB-load evaluation):
//! mixed read/insert/update/remove workloads in the style of YCSB's
//! run phases. Selective logging's advantage shrinks as the read share
//! grows (reads create no logs to skip) and persists under removal
//! pressure (the Pattern 1 free case keeps the dying nodes' poison
//! stores free of logging and persistence). On nearly-pure-read mixes
//! lazy persistency can even cost a little: the deferred lines are
//! load-forced durable during the read phase, when eager persistence
//! would already have paid for them during loading — a trade-off the
//! paper's insert-only evaluation never exposes.

use slpmt_bench::{compare, geomean, header, ops_count, SEED};
use slpmt_core::{MachineConfig, Scheme};
use slpmt_workloads::runner::{run, IndexKind, RunSpec};
use slpmt_workloads::ycsb::ycsb_mixed_with_updates;

fn main() {
    header(
        "Extension",
        "mixed YCSB-style workloads (read% / remove% / insert%)",
    );
    let n = ops_count();
    // (label, read%, update%, remove%) — the rest are fresh inserts.
    let mixes = [
        ("load (insert-only)", 0u8, 0u8, 0u8),
        ("write-heavy (30r/10d)", 30, 0, 10),
        ("YCSB-A (50r/50u)", 50, 50, 0),
        ("YCSB-B (95r/5u)", 95, 5, 0),
        ("read-heavy (90r/5d)", 90, 0, 5),
    ];
    println!(
        "{:<24} {:>10} {:>10} {:>10}   (SLPMT speedup over FG)",
        "mix", "hashtable", "rbtree", "kv-ctree"
    );
    let mut first_geo = 0.0;
    let mut last_geo = 0.0;
    for (i, (label, read_pct, update_pct, remove_pct)) in mixes.iter().enumerate() {
        let (load, ops) =
            ycsb_mixed_with_updates(n / 2, n, 64, SEED, *read_pct, *update_pct, *remove_pct);
        print!("{label:<24}");
        let mut speedups = Vec::new();
        for kind in [IndexKind::Hashtable, IndexKind::Rbtree, IndexKind::KvCtree] {
            let cell = |s| {
                let cfg = MachineConfig::for_scheme(s);
                let mut spec = RunSpec::mixed(cfg, kind, &load, &ops, 64);
                spec.verify = true;
                run(&spec).single().result
            };
            let (base, r) = (cell(Scheme::Fg), cell(Scheme::Slpmt));
            let sp = r.speedup_vs(&base);
            speedups.push(sp);
            print!(" {sp:>9.2}x");
        }
        println!();
        let g = geomean(speedups);
        if i == 0 {
            first_geo = g;
        }
        last_geo = g;
    }
    println!();
    compare(
        "read-share trend",
        "advantage shrinks with read share",
        format!("{first_geo:.2}x at pure-insert → {last_geo:.2}x read-heavy"),
    );
}
