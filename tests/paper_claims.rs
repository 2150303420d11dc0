//! The paper's claim table (`slpmt paper`, `slpmt::bench::claims`):
//! every claim holds, and EXPERIMENTS.md embeds the current table.
//!
//! The table is simulated once per test binary at the paper's 1,000
//! inserts and seed 42. CI runs this file at
//! `SLPMT_THREADS=1` and `4`, so the byte comparison also pins the
//! table as independent of the worker count.

use slpmt::bench::claims::{self, Figure};
use slpmt::workloads::runner::IndexKind;
use std::sync::OnceLock;
use std::time::Instant;

const BEGIN: &str = "<!-- BEGIN slpmt paper -->\n";
const END: &str = "<!-- END slpmt paper -->";

fn table() -> &'static [Figure] {
    static TABLE: OnceLock<Vec<Figure>> = OnceLock::new();
    TABLE.get_or_init(claims::table)
}

#[test]
fn every_claim_holds() {
    let failed: Vec<String> = table()
        .iter()
        .flat_map(|f| {
            f.claims.iter().filter(|c| !c.check.holds()).map(move |c| {
                format!(
                    "{} / {} ({}): measured {}, accepts {}",
                    f.name, c.metric, c.status, c.measured, c.check
                )
            })
        })
        .collect();
    assert!(
        failed.is_empty(),
        "{} claim(s) no longer hold:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

#[test]
fn experiments_md_embeds_the_current_table() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md");
    let start = doc.find(BEGIN).expect("BEGIN marker") + BEGIN.len();
    let stop = start + doc[start..].find(END).expect("END marker after BEGIN");
    let embedded = &doc[start..stop];
    let current = claims::markdown(table());
    if embedded != current {
        let (n, want, got) = current
            .lines()
            .zip(embedded.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| (i + 1, a, b))
            .unwrap_or((0, "(lengths differ)", ""));
        panic!(
            "EXPERIMENTS.md's generated block is stale; replace it with the output of \
             `slpmt paper`.\nfirst difference at block line {n}:\n  slpmt paper: {want}\n  \
             EXPERIMENTS:  {got}"
        );
    }
}

/// Fig. 13 (right): the compile-time cost of the Pattern 1/2 analyses.
/// Host-timed, so it stays out of the byte-compared table.
#[test]
#[ignore = "host-timed; run with --ignored (nightly)"]
fn annotation_analysis_costs_under_the_papers_bound() {
    const REPS: usize = 20_000;
    // Baseline compilation = front-end work (IR construction from the
    // source description + SSA validation); the optimised build runs
    // the Pattern 1/2 analyses on top.
    let t0 = Instant::now();
    for _ in 0..REPS {
        for &k in &IndexKind::KERNELS {
            let ir = claims::kernel_ir(k);
            ir.validate().unwrap();
            std::hint::black_box(ir);
        }
    }
    let base_t = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..REPS {
        for &k in &IndexKind::KERNELS {
            let ir = claims::kernel_ir(k);
            ir.validate().unwrap();
            std::hint::black_box(slpmt::annotate::analyze(&ir));
        }
    }
    let opt_t = t1.elapsed();
    let ratio = opt_t.as_secs_f64() / base_t.as_secs_f64().max(1e-9);
    let absolute = opt_t.saturating_sub(base_t).as_secs_f64() / REPS as f64;
    println!("compile-time ratio: {ratio:.2}x over IR construction + validation (paper: ≤1.23x)");
    println!(
        "absolute added time: {absolute:.6} s per compilation of all four kernels (paper: <0.15 s)"
    );
    assert!(
        absolute < 0.15,
        "the analyses add {absolute:.6} s per compilation, over the paper's 0.15 s"
    );
}
