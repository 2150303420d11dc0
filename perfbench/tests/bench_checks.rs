//! Checks of the benchmark itself, on full-size inputs with no timed
//! phase beyond the runs simulated metrics come from: simulated
//! metrics repeat exactly for a seed, another seed passes every check,
//! a deliberately wrong expected value fails each workload's check, and
//! the traced run reports every per-layer metric with nothing dropped.

use slpmt_perfbench::layers::per_layer_names;
use slpmt_perfbench::{run, Outcome, Params, WORKLOADS};

/// Simulated end-to-end metrics: host-independent for a seed.
const SIMULATED: [&str; 7] = [
    "sim_cycles_per_op",
    "sim_p50_cycles",
    "sim_p99_cycles",
    "pm_bytes_per_op",
    "sim_slo_rate_rps",
    "slpmt_speedup_vs_fg",
    "paper_speedup_error_pct",
];

fn small(seed: u64) -> Params {
    Params::new(seed, 0.0, false)
}

fn run_ok(workload: &str, p: &Params) -> Outcome {
    let out = run(workload, p).expect("known workload");
    assert!(
        out.correct(),
        "{workload} seed {}: checks failed: {:?}",
        p.seed,
        out.failures
    );
    out
}

fn simulated(out: &Outcome) -> Vec<(String, u64)> {
    let mut v = out.sim_fingerprint.clone();
    for name in SIMULATED {
        let value = out
            .value(name)
            .unwrap_or_else(|| panic!("{name} not reported"));
        v.push((name.to_string(), value.to_bits()));
    }
    v
}

#[test]
fn same_seed_repeats_simulated_metrics_bit_for_bit() {
    for w in WORKLOADS {
        let a = run_ok(w, &small(7));
        let b = run_ok(w, &small(7));
        assert_eq!(simulated(&a), simulated(&b), "{w}");
    }
}

#[test]
fn second_seed_passes_every_check() {
    for w in WORKLOADS {
        let a = run_ok(w, &small(7));
        let b = run_ok(w, &small(8));
        assert_ne!(
            simulated(&a),
            simulated(&b),
            "{w}: the seed must change the inputs"
        );
        for m in &b.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{w}: {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn wrong_expectation_fails_each_workload() {
    for w in WORKLOADS {
        let p = Params {
            wrong_expectation: true,
            ..small(7)
        };
        let out = run(w, &p).expect("known workload");
        assert!(!out.correct(), "{w}: a wrong expected value went unnoticed");
        assert!(out.failed > 0, "{w}");
    }
}

#[test]
fn traced_run_reports_every_layer_metric() {
    let names: Vec<&str> = per_layer_names().iter().map(|(n, _)| *n).collect();
    for w in WORKLOADS {
        let p = Params {
            trace: true,
            ..small(7)
        };
        let out = run_ok(w, &p);
        let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(got, names, "{w}");
        assert_eq!(out.value("trace.dropped"), Some(0.0), "{w}");
        assert!(!out.spans_tsv.is_empty(), "{w}");
    }
}
