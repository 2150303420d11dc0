//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Speculative logging** (§III-B1): disabling the eviction-time
//!    group fill shows the duplicate-logging cost it avoids.
//! 2. **Log path**: the four-tier coalescing buffer vs ATOM's line
//!    records vs EDE's bufferless per-word records, isolated as log
//!    bytes on one workload.
//! 3. **§V-A in-place update optimisation**: lazy+logged data plus an
//!    eager log-free sequential record array, versus conventional
//!    eager undo.
//! 4. **WPQ drain banks**: how medium parallelism shifts the regime
//!    from throughput-bound to burst-stall-bound.

use slpmt_bench::{compare, header, workload};
use slpmt_core::{Machine, MachineConfig, Scheme, StoreKind};
use slpmt_pmem::PmAddr;
use slpmt_workloads::runner::{par_map_with, run, threads, IndexKind, RunSpec};
use slpmt_workloads::AnnotationSource;

fn main() {
    let ops = workload(256);

    header("Ablation 1", "speculative logging (§III-B1)");
    let run_spec = |on: bool| {
        let mut cfg = MachineConfig::for_scheme(Scheme::Slpmt).with_tiny_caches();
        cfg.features.speculative_logging = on;
        let spec = RunSpec::inserts(cfg, IndexKind::Rbtree, &ops, 256);
        let r = run(&spec).single().result;
        (r.stats.log_records_created, r.traffic.log_bytes)
    };
    let (rec_on, bytes_on) = run_spec(true);
    let (rec_off, bytes_off) = run_spec(false);
    compare(
        "records created (tiny caches)",
        "trade-off: fills vs re-log dedup",
        format!("{rec_on} with vs {rec_off} without ({bytes_on} vs {bytes_off} log B)"),
    );
    println!("speculative fills create extra records at eviction so the L2");
    println!("group bits survive; the payoff is avoiding duplicate logging");
    println!("when evicted lines are re-stored (coalesced into the same packs).");

    header(
        "Ablation 2",
        "log path: tiered buffer vs ATOM lines vs EDE direct",
    );
    let paths = [
        ("tiered (FG)", Scheme::Fg),
        ("ATOM lines", Scheme::Atom),
        ("EDE direct", Scheme::Ede),
    ];
    let path_runs = par_map_with(&paths, threads(), |&(_, scheme)| {
        let cfg = MachineConfig::for_scheme(scheme);
        let mut spec = RunSpec::inserts(cfg, IndexKind::Rbtree, &ops, 256);
        spec.source = AnnotationSource::None;
        run(&spec).single().result
    });
    for ((name, _), r) in paths.iter().zip(&path_runs) {
        println!(
            "{name:<14} {:>9} log records, {:>9} log B, {:>7} media lines",
            r.traffic.log_records, r.traffic.log_bytes, r.traffic.wpq_lines
        );
    }

    header("Ablation 3", "§V-A in-place update optimisation");
    // Conventional: N random in-place updates, each logged and
    // persisted eagerly at commit.
    let updates: Vec<PmAddr> = (0..256u64)
        .map(|i| PmAddr::new(0x10000 + (i * 7 % 256) * 64))
        .collect();
    let conventional = {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
        m.tx_begin();
        for (i, &a) in updates.iter().enumerate() {
            m.store_u64(a, i as u64, StoreKind::Store);
        }
        m.tx_commit();
        (m.now(), m.device().traffic().media_bytes())
    };
    // §V-A: update the data with lazily-persistent-but-logged storeT
    // and append a log-free record of the new value to a sequential
    // array persisted at commit — random writes leave the critical
    // path, the sequential array persists fast.
    let optimized = {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
        let array = PmAddr::new(0x80000);
        m.tx_begin();
        for (i, &a) in updates.iter().enumerate() {
            m.store_u64(a, i as u64, StoreKind::lazy_logged());
            // record = (addr, value), appended sequentially.
            m.store_u64(array.add(i as u64 * 16), a.raw(), StoreKind::log_free());
            m.store_u64(
                array.add(i as u64 * 16 + 8),
                i as u64,
                StoreKind::log_free(),
            );
        }
        m.tx_commit();
        (m.now(), m.device().traffic().media_bytes())
    };
    compare(
        "commit-path cycles",
        "random writes leave critical path",
        format!("{} eager vs {} optimised", conventional.0, optimized.0),
    );
    compare(
        "media bytes at commit",
        "sequential redo array instead of random lines",
        format!("{} vs {}", conventional.1, optimized.1),
    );

    header("Ablation 4", "WPQ drain banks (medium parallelism)");
    // Recreate the device-level experiment by scaling write latency
    // inversely — one bank at 500 ns equals the serial model; more
    // banks approach latency-bound behaviour. All 8 cells (FG + SLPMT
    // per bank count) simulate in parallel.
    let bank_cells: Vec<(usize, Scheme)> = [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|banks| [(banks, Scheme::Fg), (banks, Scheme::Slpmt)])
        .collect();
    let bank_runs = par_map_with(&bank_cells, threads(), |&(banks, scheme)| {
        let mut cfg = MachineConfig::for_scheme(scheme);
        // The WPQ uses DEFAULT_DRAIN_BANKS; emulate bank count by
        // scaling the per-line drain latency.
        let eff_ns = 500 * slpmt_pmem::wpq::DEFAULT_DRAIN_BANKS as u64 / banks as u64;
        cfg.pm = cfg.pm.with_write_latency_ns(eff_ns);
        let spec = RunSpec::inserts(cfg, IndexKind::Hashtable, &ops, 256);
        run(&spec).single().result
    });
    for (cells, pair) in bank_cells.chunks_exact(2).zip(bank_runs.chunks_exact(2)) {
        let banks = cells[0].0;
        let (base, r) = (&pair[0], &pair[1]);
        println!(
            "{banks} bank(s) equivalent: SLPMT {:.2}x over FG (hashtable)",
            r.speedup_vs(base)
        );
    }
}
