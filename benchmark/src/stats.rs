//! Order statistics for latency samples and the median-of-segments rule.

/// Sorts samples ascending (NaN-free input).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    xs
}

/// Nearest-rank percentile of an ascending slice; `q` in 0..=1.
/// Returns 0 for an empty slice so a workload without samples of some
/// kind (no cache hits, no partials) reports a plain zero.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank, 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// Typical value of unsorted samples: the mean of the middle half (the
/// interquartile mean), 0 when empty. This is what the `…_p50_us` metrics
/// report. On a one-humped distribution it sits on the median; it differs
/// where the median is ill-defined: ops that alternate between two costs
/// (a fresh-seed assessment on a 27K-host table pays for page faults every
/// second call) have their median in the empty gap between the humps,
/// where adding or losing one sample moves it by the whole gap. The middle
/// half moves by that sample's share instead, and still ignores both tails.
pub fn typical(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let cut = s.len() / 4;
    let middle = &s[cut..s.len() - cut];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// The value a timing metric reports: the median of its per-segment
/// values, with the extremes alongside.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentStat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl SegmentStat {
    /// (max − min) / median: how far the segments of one run disagree.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median
        }
    }
}

/// Median/min/max over per-segment values.
///
/// # Panics
/// Panics on an empty slice: a run always has at least one segment.
pub fn median_of_segments(values: &[f64]) -> SegmentStat {
    assert!(!values.is_empty(), "a run has at least one segment");
    let s = sorted(values.to_vec());
    SegmentStat { median: percentile(&s, 0.5), min: s[0], max: s[s.len() - 1] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn typical_sits_on_the_median_of_one_hump_and_between_two() {
        let hump: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(typical(&hump), median(&hump));
        // A heavy tail does not move it.
        let mut tailed = hump.clone();
        tailed[100] = 1e9;
        assert!((typical(&tailed) - 51.0).abs() < 1.0);
        // Alternating 70/90: the median flips between the humps with the
        // parity of the count, the middle half stays put.
        let alternating = |n: usize| -> Vec<f64> {
            (0..n).map(|i| if i % 2 == 0 { 70.0 } else { 90.0 }).collect()
        };
        assert_eq!(median(&alternating(101)), 70.0);
        assert_eq!(median(&alternating(100).split_off(1)), 90.0);
        for n in [99, 100, 101, 102, 103] {
            assert!((typical(&alternating(n)) - 80.0).abs() < 1.0, "n = {n}");
        }
        assert_eq!(typical(&[]), 0.0);
        assert_eq!(typical(&[5.0]), 5.0);
        assert_eq!(typical(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn median_of_segments_reports_the_middle_and_the_extremes() {
        let s = median_of_segments(&[12.0, 10.0, 11.0]);
        assert_eq!(s, SegmentStat { median: 11.0, min: 10.0, max: 12.0 });
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
        // One slow segment moves the max, not the reported value.
        assert_eq!(median_of_segments(&[10.0, 10.5, 40.0]).median, 10.5);
        assert_eq!(median_of_segments(&[3.0]).median, 3.0);
    }
}
