//! The paper's evaluation and the simulator's measured batteries.
//!
//! [`claims`] is the paper's evaluation (§VI: Table I, Figs. 4 and
//! 8–14, the ablations and two extension experiments) as one gated
//! claim table; `slpmt paper` prints it and EXPERIMENTS.md embeds it.
//! [`sweep`], [`ycsb`] and [`serve`] drive the crash, YCSB and service
//! batteries. Every run goes through
//! [`slpmt_workloads::runner::run`]; matrices fan their [`runner`]
//! cells across host threads (`SLPMT_THREADS` overrides the worker
//! count; results are merged deterministically, so any worker count
//! prints identical output).

pub mod claims;
pub mod runner;
pub mod serve;
pub mod sweep;
pub mod ycsb;

/// Default operation count (the paper's YCSB-load size).
pub const DEFAULT_OPS: usize = 1000;
/// Seed used by every figure run.
pub const SEED: u64 = 42;

/// Geometric mean of an iterator of ratios.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_math() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 1.0);
    }
}
