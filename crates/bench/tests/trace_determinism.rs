//! Determinism of the one run driver across execution strategies:
//! every shard's simulated results and trace records are identical for
//! any worker count, the deterministic shard-order merge therefore
//! exports byte-identically, and turning tracing on changes no
//! simulated result.

use slpmt_core::{MachineConfig, Scheme, SchemeKind};
use slpmt_workloads::runner::{par_map_with, run, threads, IndexKind, RunReport, RunSpec};
use slpmt_workloads::ycsb::{ycsb_mix, MixSpec};
use slpmt_workloads::ycsb_load;

/// Asserts two runs agree shard by shard on every simulated output:
/// cycles, machine counters, PM traffic, logical bytes and per-class
/// latencies.
fn assert_same_results(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.shards.len(), b.shards.len(), "{what}: shard count");
    assert_eq!(a.total_ops, b.total_ops, "{what}: total ops");
    for (i, (x, y)) in a.shards.iter().zip(&b.shards).enumerate() {
        let (r, s) = (&x.result, &y.result);
        assert_eq!(r.cycles, s.cycles, "{what}: shard {i} cycles");
        assert_eq!(r.stats, s.stats, "{what}: shard {i} stats");
        assert_eq!(r.traffic, s.traffic, "{what}: shard {i} traffic");
        assert_eq!(
            r.logical_bytes, s.logical_bytes,
            "{what}: shard {i} logical bytes"
        );
        assert_eq!(x.lat, y.lat, "{what}: shard {i} latencies");
    }
}

/// {inserts, mixed} × {untraced, traced} × shards {1, 3, 16} × workers
/// {1, 2, 8}: every shard equals the serial (`workers = 1`) run,
/// trace records included.
#[test]
fn every_shard_matches_the_serial_run_for_any_worker_count() {
    let ops = ycsb_load(48, 32, 11);
    let (load, mixed) = ycsb_mix(40, 120, 32, 7, &MixSpec::DELETE_HEAVY_ZIPF);
    let cfg = MachineConfig::for_scheme(Scheme::Slpmt);
    let streams = [
        (
            "inserts",
            RunSpec::inserts(cfg.clone(), IndexKind::Hashtable, &ops, 32),
        ),
        (
            "mixed",
            RunSpec::mixed(cfg, IndexKind::Hashtable, &load, &mixed, 32),
        ),
    ];
    for (name, base) in &streams {
        for trace in [false, true] {
            for shards in [1, 3, 16] {
                let at = |workers| {
                    run(&RunSpec {
                        verify: true,
                        trace,
                        shards,
                        workers,
                        ..base.clone()
                    })
                };
                let serial = at(1);
                let records: usize = serial.shards.iter().map(|s| s.trace.len()).sum();
                assert_eq!(
                    records > 0,
                    trace,
                    "{name}: trace={trace} captured {records} records"
                );
                for workers in [2, 8] {
                    let what = format!("{name} trace={trace} shards={shards} workers={workers}");
                    let par = at(workers);
                    assert_same_results(&serial, &par, &what);
                    for (i, (a, b)) in serial.shards.iter().zip(&par.shards).enumerate() {
                        assert!(
                            a.trace == b.trace,
                            "{what}: shard {i} trace records diverged"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn merged_shard_trace_exports_byte_identically() {
    let ops = ycsb_load(30, 16, 5);
    let cfg = MachineConfig::for_scheme(Scheme::Slpmt);
    let export = |workers: usize| {
        let report = run(&RunSpec {
            trace: true,
            shards: 4,
            workers,
            ..RunSpec::inserts(cfg.clone(), IndexKind::Heap, &ops, 16)
        });
        // The deterministic merge: shard order, then each shard's own
        // record order (already totally ordered per machine).
        let merged: Vec<_> = report.shards.into_iter().flat_map(|s| s.trace).collect();
        slpmt_trace::export_chrome_trace(&merged)
    };
    let a = export(1);
    let b = export(4);
    assert!(!a.is_empty());
    assert_eq!(a, b, "merged export must be byte-identical");
}

/// Tracing observes and never steers: for every scheme (hardware and
/// software PTM) on every kernel, an insert stream and a YCSB-A mix
/// return the same cycles, traffic, counters and latencies traced as
/// untraced.
#[test]
fn tracing_changes_no_simulated_result() {
    let ops = ycsb_load(40, 16, 3);
    let (load, mixed) = ycsb_mix(30, 60, 16, 3, &MixSpec::YCSB_A);
    let cells: Vec<(SchemeKind, IndexKind)> = SchemeKind::REGISTRY
        .iter()
        .flat_map(|&s| IndexKind::KERNELS.map(|k| (s, k)))
        .collect();
    par_map_with(&cells, threads(), |&(scheme, kind)| {
        let cfg = MachineConfig::for_kind(scheme);
        for (name, base) in [
            ("inserts", RunSpec::inserts(cfg.clone(), kind, &ops, 16)),
            ("ycsb-a", RunSpec::mixed(cfg, kind, &load, &mixed, 16)),
        ] {
            let plain = run(&base);
            let traced = run(&RunSpec {
                trace: true,
                ..base
            });
            let what = format!("{kind}/{scheme} {name}");
            assert_same_results(&plain, &traced, &what);
            assert!(
                traced.shards[0].trace.len() > plain.shards[0].trace.len(),
                "{what}: no records"
            );
        }
    });
}
