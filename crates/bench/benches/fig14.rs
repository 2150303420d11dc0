//! Figure 14 — the PMDK-style KV store with btree/ctree/rtree index
//! backends, compiler-annotated (§VI-A), at 256-byte (left) and
//! 16-byte (right) values.
//!
//! Paper: at 256 B SLPMT gains 1.35–1.87× over EDE and 1.4–2× over
//! ATOM, reducing baseline write traffic by 32.6–47.6 %; kv-rtree has
//! the largest traffic reduction but kv-ctree the largest speedup
//! (rtree spends more time computing). At 16 B SLPMT still beats EDE
//! and ATOM by 1.35× and 1.58× on average, with fine-grain logging
//! contributing most and log-free + lazy adding ~26 % on top.

use slpmt_bench::runner::matrix;
use slpmt_bench::{compare, geomean, header, workload};
use slpmt_core::Scheme;
use slpmt_workloads::runner::{par_map_with, run, threads, IndexKind};
use slpmt_workloads::AnnotationSource;

fn main() {
    for (vs, label, atom_paper, ede_paper, red_paper) in [
        (
            256usize,
            "left: 256 B values",
            "1.4x–2x",
            "1.35x–1.87x",
            "32.6%–47.6%",
        ),
        (
            16usize,
            "right: 16 B values",
            "1.58x avg",
            "1.35x avg",
            "(fine-grain dominates)",
        ),
    ] {
        header("Figure 14", label);
        let ops = workload(vs);
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>10}",
            "backend", "vs FG", "vs ATOM", "vs EDE", "red. vs FG"
        );
        let mut vs_atom = Vec::new();
        let mut vs_ede = Vec::new();
        let mut reds = Vec::new();
        let mut speedups = Vec::new();
        // 12 cells (4 schemes × 3 backends) simulate in parallel with
        // a deterministic kind-major merge.
        let schemes = [Scheme::Fg, Scheme::Slpmt, Scheme::Atom, Scheme::Ede];
        let cells = matrix(&schemes, &IndexKind::PMKV);
        let results = par_map_with(&cells, threads(), |c| {
            let mut spec = c.spec(&ops, vs);
            spec.source = AnnotationSource::Compiler;
            run(&spec).single().result
        });
        for (k, kind) in IndexKind::PMKV.into_iter().enumerate() {
            let row = &results[k * schemes.len()..(k + 1) * schemes.len()];
            let (base, s, a, e) = (&row[0], &row[1], &row[2], &row[3]);
            let sa = a.cycles as f64 / s.cycles as f64;
            let se = e.cycles as f64 / s.cycles as f64;
            let red = s.traffic_reduction_vs(base);
            vs_atom.push(sa);
            vs_ede.push(se);
            reds.push((kind, red));
            speedups.push((kind, s.speedup_vs(base)));
            println!(
                "{:<10} {:>8.2}x {:>8.2}x {:>8.2}x {:>9.1}%",
                kind.to_string(),
                s.speedup_vs(base),
                sa,
                se,
                red * 100.0
            );
        }
        println!();
        compare(
            "SLPMT over ATOM",
            atom_paper,
            format!("{:.2}x geomean", geomean(vs_atom)),
        );
        compare(
            "SLPMT over EDE",
            ede_paper,
            format!("{:.2}x geomean", geomean(vs_ede)),
        );
        compare(
            "traffic reduction",
            red_paper,
            reds.iter()
                .map(|(k, r)| format!("{k} {:.1}%", r * 100.0))
                .collect::<Vec<_>>()
                .join(", ")
                .to_string(),
        );
        if vs == 256 {
            let max_red = reds.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
            let max_sp = speedups
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap()
                .0;
            compare(
                "largest reduction / speedup",
                "kv-rtree / kv-ctree",
                format!("{max_red} / {max_sp}"),
            );
        }
    }
}
