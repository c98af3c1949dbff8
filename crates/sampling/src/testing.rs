//! Reference draws kept for oracle tests, in this crate and in the crates
//! whose faster kernels must reproduce them bit for bit. Nothing on a
//! production path calls them; they are public only so that another
//! crate's tests can.

use crate::rng::Rng;

/// Draws a failure probability from N(mean, std), clamped to (0, 1) and
/// rounded to four decimal places — exactly the §4.1 setting ("all failure
/// probabilities are rounded to 4 decimal places").
///
/// Values that round to 0 are clamped to 0.0001 so that every component
/// retains a nonzero failure chance, matching the paper's premise that
/// components are "fairly reliable" but never perfect.
pub fn normal_probability(rng: &mut Rng, mean: f64, std_dev: f64) -> f64 {
    let p = rng.next_normal_with(mean, std_dev);
    let rounded = (p * 10_000.0).round() / 10_000.0;
    rounded.clamp(0.0001, 0.9999)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_probability_matches_paper_setting() {
        let mut rng = Rng::new(4);
        let ps: Vec<f64> = (0..10_000).map(|_| normal_probability(&mut rng, 0.01, 0.001)).collect();
        let mean = ps.iter().sum::<f64>() / ps.len() as f64;
        assert!((mean - 0.01).abs() < 0.0005, "mean {mean}");
        for &p in &ps {
            assert!(p > 0.0 && p < 1.0);
            // Four-decimal rounding.
            assert!((p * 10_000.0 - (p * 10_000.0).round()).abs() < 1e-9);
        }
    }
}
