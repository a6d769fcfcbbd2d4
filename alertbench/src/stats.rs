//! Exact order statistics over raw samples.
//!
//! Percentiles are read straight from the sorted samples (nearest rank),
//! never from a bucketed histogram, so a reported p50 moves only when the
//! samples move.

/// The `p`-quantile (`0 < p < 1`) of `samples` by nearest rank: the
/// smallest sample with at least `ceil(p·n)` samples at or below it.
/// `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of the `p`-quantile among `n >= 1` samples.
/// The small slack keeps products such as `0.999 · 10_000` from rounding
/// up a whole rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-quantile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether the `p`-quantile of `n` samples is a usable tail: at least ten
/// samples lie beyond it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= 10
}

/// The highest of `candidates` with at least ten samples beyond it, or
/// `None` when even the lowest has fewer.
pub fn highest_tail(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| tail_supported(n, p))
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// The median (nearest rank, lower middle for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The arithmetic mean (0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.99), Some(99.0));
        assert_eq!(percentile(&samples, 0.001), Some(1.0));
        assert_eq!(percentile(&[7.5], 0.99), Some(7.5));
        assert_eq!(percentile(&[], 0.5), None);
        // No interpolation: the answer is always one of the samples.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(0, 0.5));
        assert!(tail_supported(20, 0.5));
    }

    #[test]
    fn highest_tail_picks_the_largest_supported_percentile() {
        let candidates = [0.5, 0.9, 0.99, 0.999];
        assert_eq!(highest_tail(10_000, &candidates), Some(0.999));
        assert_eq!(highest_tail(9_999, &candidates), Some(0.99));
        assert_eq!(highest_tail(1_000, &candidates), Some(0.99));
        assert_eq!(highest_tail(999, &candidates), Some(0.9));
        assert_eq!(highest_tail(100, &candidates), Some(0.9));
        assert_eq!(highest_tail(99, &candidates), Some(0.5));
        assert_eq!(highest_tail(19, &candidates), None);
        // Order of the candidate list does not matter.
        assert_eq!(highest_tail(1_000, &[0.99, 0.5, 0.999]), Some(0.99));
    }
}
