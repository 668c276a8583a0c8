//! Exact order statistics over kept samples. The program's own
//! `rsm.request_latency` histogram is log₂-bucketed, so its quantiles
//! are powers of two; the benchmark keeps every sample instead.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// An exact sample, never an interpolation. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and returns its `q`-quantile in
/// milliseconds from nanosecond samples (0 when empty).
pub fn percentile_ms(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, q).map_or(0.0, |ns| ns as f64 / 1e6)
}

/// Median of float samples (mean of the middle two when even; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_returns_exact_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        assert_eq!(percentile(&s, 0.95), Some(95));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        // Not a power of two, not interpolated: one of the samples.
        let odd = [3u64, 1_000_003, 7_777_777];
        assert_eq!(percentile(&odd, 0.5), Some(1_000_003));
        assert_eq!(percentile(&odd, 0.95), Some(7_777_777));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[42], 0.95), Some(42));
    }

    #[test]
    fn percentile_ms_sorts_first() {
        let mut s = vec![9_000_000u64, 1_000_000, 5_000_000];
        assert_eq!(percentile_ms(&mut s, 0.5), 5.0);
        assert_eq!(percentile_ms(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
