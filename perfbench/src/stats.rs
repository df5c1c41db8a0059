//! Order statistics over raw samples.
//!
//! Percentiles are taken by nearest rank over every sample a run
//! recorded, never interpolated from histogram buckets, and each summary
//! carries its sample count so a reader can tell how many samples lie
//! beyond the percentile it quotes.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`,
/// which must be in ascending order: the smallest sample such that at
/// least `p` percent of the samples are less than or equal to it.
/// `None` for an empty slice or a `p` outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median, tail percentile and count of one set of timings.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples` (any order); `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count: sorted.len(),
            p50: nearest_rank(&sorted, 50.0)?,
            p90: nearest_rank(&sorted, 90.0)?,
            p99: nearest_rank(&sorted, 99.0)?,
            max: *sorted.last()?,
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }

    /// Whether at least ten samples lie beyond the 99th percentile, the
    /// fewest for which that percentile is worth quoting.
    pub fn p99_supported(&self) -> bool {
        self.count >= 1000
    }

    /// The summary as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"mean\":{},\"p99_supported\":{}}}",
            self.count,
            num(self.p50),
            num(self.p90),
            num(self.p99),
            num(self.max),
            num(self.mean),
            self.p99_supported()
        )
    }
}

/// Median of `samples` (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// Nearest-rank medians of the first and the second half of `samples`,
/// taken in the order the operations ran. A workload that drifts while
/// it runs shows as a gap between the two.
pub fn half_medians(samples: &[f64]) -> Option<(f64, f64)> {
    let mid = samples.len() / 2;
    Some((median(&samples[..mid])?, median(&samples[mid..])?))
}

/// A finite number in JSON form (JSON has no NaN or infinity: those
/// become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten samples, worked by hand: sorted they are
    /// 1 2 3 5 8 13 21 34 55 89.
    const FIB: [f64; 10] = [34.0, 1.0, 89.0, 2.0, 13.0, 3.0, 55.0, 5.0, 21.0, 8.0];

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let mut sorted = FIB.to_vec();
        sorted.sort_by(f64::total_cmp);
        // rank = ceil(p/100 * 10)
        assert_eq!(nearest_rank(&sorted, 10.0), Some(1.0)); // rank 1
        assert_eq!(nearest_rank(&sorted, 25.0), Some(3.0)); // rank 3
        assert_eq!(nearest_rank(&sorted, 50.0), Some(8.0)); // rank 5
        assert_eq!(nearest_rank(&sorted, 51.0), Some(13.0)); // rank 6
        assert_eq!(nearest_rank(&sorted, 90.0), Some(55.0)); // rank 9
        assert_eq!(nearest_rank(&sorted, 99.0), Some(89.0)); // rank 10
        assert_eq!(nearest_rank(&sorted, 100.0), Some(89.0));
        assert_eq!(nearest_rank(&sorted, 0.0), None);
        assert_eq!(nearest_rank(&sorted, 101.0), None);
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_never_interpolates() {
        // Interpolation would give 1.5; nearest rank returns a sample.
        assert_eq!(nearest_rank(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn summary_matches_hand_computed_vector() {
        let s = Summary::of(&FIB).unwrap();
        assert_eq!(
            s,
            Summary {
                count: 10,
                p50: 8.0,
                p90: 55.0,
                p99: 89.0,
                max: 89.0,
                mean: 23.1,
            }
        );
        assert!(!s.p99_supported());
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn p99_is_supported_from_a_thousand_samples() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!((s.p50, s.p90, s.p99), (500.0, 900.0, 990.0));
        assert!(s.p99_supported());
    }

    #[test]
    fn half_medians_split_in_run_order() {
        // First half 1 2 3 4 (median 2), second half 10 20 30 40 (20).
        let run = [3.0, 1.0, 4.0, 2.0, 40.0, 10.0, 30.0, 20.0];
        assert_eq!(half_medians(&run), Some((2.0, 20.0)));
        assert_eq!(median(&run), Some(4.0));
        assert_eq!(half_medians(&[1.0]), None);
    }

    #[test]
    fn json_numbers_are_finite() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
