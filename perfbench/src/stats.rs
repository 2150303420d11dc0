//! Small numeric helpers shared by the workloads.

/// Nearest-rank percentile `p` (0–100) of `samples`, sorting them in
/// place. Returns 0 for an empty sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((samples.len() - 1) as f64 * p / 100.0).round() as usize;
    samples[rank]
}

/// Nearest-rank percentile of integer samples (simulated cycles).
pub fn percentile_u64(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() - 1) as f64 * p / 100.0).round() as usize;
    samples[rank]
}

/// Median of `values` (upper median for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    percentile(&mut v, 50.0)
}

/// Geometric mean; 1 for an empty input.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_u64(&mut v, 50.0), 51);
        assert_eq!(percentile_u64(&mut v, 99.0), 99);
        assert_eq!(percentile_u64(&mut [], 99.0), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn geomean_math() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }
}
