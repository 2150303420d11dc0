//! Figure 13 — effectiveness and cost of the compiler pass.
//!
//! Left: compiler-inserted annotations achieve speedups similar to the
//! manual ones; across the kernels the paper's pass identifies 16 of
//! the 26 manually annotated variables (it finds the allocation
//! pattern and a few lazy pointers such as the rbtree parent, but
//! misses deep-semantics variables like colours and counters).
//! Right: the analysis adds marginal compile time (≤ 1.23×, < 0.15 s
//! absolute).

use slpmt_bench::{compare, geomean, header, workload};
use slpmt_core::{MachineConfig, Scheme};
use slpmt_workloads::runner::{run, IndexKind, RunSpec};
use slpmt_workloads::AnnotationSource;
use std::time::Instant;

fn kernel_ir(kind: IndexKind) -> slpmt_annotate::TxnIr {
    match kind {
        IndexKind::Hashtable => slpmt_workloads::hashtable::Hashtable::ir(),
        IndexKind::Rbtree => slpmt_workloads::rbtree::Rbtree::ir(),
        IndexKind::Heap => slpmt_workloads::heap::MaxHeap::ir(),
        IndexKind::Avl => slpmt_workloads::avl::AvlTree::ir(),
        _ => unreachable!("kernels only"),
    }
}

fn kernel_manual(kind: IndexKind) -> slpmt_annotate::AnnotationTable {
    match kind {
        IndexKind::Hashtable => slpmt_workloads::hashtable::Hashtable::manual_table(),
        IndexKind::Rbtree => slpmt_workloads::rbtree::Rbtree::manual_table(),
        IndexKind::Heap => slpmt_workloads::heap::MaxHeap::manual_table(),
        IndexKind::Avl => slpmt_workloads::avl::AvlTree::manual_table(),
        _ => unreachable!("kernels only"),
    }
}

fn main() {
    header(
        "Figure 13 (left)",
        "compiler vs manual annotation speedups over FG",
    );
    let ops = workload(256);
    println!("{:<10} {:>9} {:>9}", "kernel", "manual", "compiler");
    let mut manual_sp = Vec::new();
    let mut compiler_sp = Vec::new();
    let mut found = 0;
    let mut exact = 0;
    let mut total = 0;
    for kind in IndexKind::KERNELS {
        let cell = |s, source| {
            let spec = RunSpec::inserts(MachineConfig::for_scheme(s), kind, &ops, 256);
            run(&RunSpec { source, ..spec }).single().result
        };
        let base = cell(Scheme::Fg, AnnotationSource::Manual);
        let m = cell(Scheme::Slpmt, AnnotationSource::Manual);
        let c = cell(Scheme::Slpmt, AnnotationSource::Compiler);
        manual_sp.push(m.speedup_vs(&base));
        compiler_sp.push(c.speedup_vs(&base));
        println!(
            "{:<10} {:>8.2}x {:>8.2}x",
            kind.to_string(),
            m.speedup_vs(&base),
            c.speedup_vs(&base)
        );
        let (table, _) = slpmt_annotate::analyze(&kernel_ir(kind));
        let report = table.compare_to_manual(&kernel_manual(kind));
        found += report.found;
        exact += report.exact;
        total += report.total_manual;
    }
    println!();
    compare(
        "compiler vs manual speedup",
        "similar",
        format!(
            "{:.2}x vs {:.2}x geomean",
            geomean(compiler_sp),
            geomean(manual_sp)
        ),
    );
    compare(
        "annotations identified",
        "16 of 26 variables",
        format!("{found} of {total} sites annotated ({exact} with the identical form)"),
    );

    header("Figure 13 (right)", "compile-time overhead of the analysis");
    const REPS: usize = 20_000;
    // Baseline compilation = front-end work (IR construction from the
    // source description + SSA validation); the optimised build runs
    // the Pattern 1/2 analyses on top.
    let t0 = Instant::now();
    for _ in 0..REPS {
        for &k in &IndexKind::KERNELS {
            let ir = kernel_ir(k);
            ir.validate().unwrap();
            std::hint::black_box(ir);
        }
    }
    let base_t = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..REPS {
        for &k in &IndexKind::KERNELS {
            let ir = kernel_ir(k);
            ir.validate().unwrap();
            std::hint::black_box(slpmt_annotate::analyze(&ir));
        }
    }
    let opt_t = t1.elapsed();
    let ratio = opt_t.as_secs_f64() / base_t.as_secs_f64().max(1e-9);
    let absolute = (opt_t - base_t).as_secs_f64() / REPS as f64;
    compare(
        "compile-time ratio",
        "≤1.23x (worst: btree)",
        format!("{ratio:.2}x over IR construction + validation"),
    );
    compare(
        "absolute added time",
        "<0.15 s",
        format!("{:.6} s per compilation of all four kernels", absolute),
    );
}
