//! The parallel matrix fan-out must be a pure performance
//! optimisation: for any worker count the merged results are
//! identical — same order, same cycles, same traffic, same
//! machine-event counters — to a serial run.

use slpmt_bench::runner::{fig08_cells, Cell};
use slpmt_workloads::runner::{par_map_with, run, IndexKind, RunResult};
use slpmt_workloads::{ycsb_load, YcsbOp};

/// Every cell's insert run of `ops`, at `latency_ns` when set, across
/// `workers` host threads.
fn matrix(
    cells: &[Cell],
    workers: usize,
    ops: &[YcsbOp],
    latency_ns: Option<u64>,
) -> Vec<RunResult> {
    par_map_with(cells, workers, |c| {
        let mut spec = c.spec(ops, 64);
        if let Some(ns) = latency_ns {
            spec.cfg.pm = spec.cfg.pm.with_write_latency_ns(ns);
        }
        run(&spec).single().result
    })
}

#[test]
fn parallel_matrix_matches_serial_exactly() {
    let ops = ycsb_load(60, 64, 42);
    let cells = fig08_cells(&[IndexKind::Hashtable, IndexKind::Rbtree]);
    let serial = matrix(&cells, 1, &ops, None);
    for workers in [2, 3, 8] {
        let parallel = matrix(&cells, workers, &ops, None);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.scheme, b.scheme, "cell {i} order ({workers} workers)");
            assert_eq!(a.kind, b.kind, "cell {i} order ({workers} workers)");
            assert_eq!(a.cycles, b.cycles, "cell {i} cycles ({workers} workers)");
            assert_eq!(a.traffic, b.traffic, "cell {i} traffic ({workers} workers)");
            assert_eq!(
                format!("{:?}", a.stats),
                format!("{:?}", b.stats),
                "cell {i} stats ({workers} workers)"
            );
        }
    }
}

#[test]
fn latency_override_reaches_every_cell() {
    let ops = ycsb_load(30, 64, 42);
    let cells = fig08_cells(&[IndexKind::Hashtable]);
    let fast = matrix(&cells, 2, &ops, Some(100));
    let slow = matrix(&cells, 2, &ops, Some(2000));
    for (f, s) in fast.iter().zip(&slow) {
        assert!(
            f.cycles < s.cycles,
            "{}/{}: higher PM write latency must cost cycles",
            f.kind,
            f.scheme
        );
    }
}
