//! Weighted means and summary statistics.
//!
//! The paper evaluates schedulers on *weighted mean response time* and
//! *weighted mean completion time*, weighting each job's time by its
//! user-assigned priority (§4.3): a priority-5 job's wait counts five
//! times as much as a priority-1 job's. [`WeightedMean`] implements that
//! metric; [`Summary`] aggregates repeated simulation runs (the paper
//! averages 100 random workloads per configuration).

use crate::time::Duration;

/// Incremental weighted mean: `sum(w*x) / sum(w)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightedMean {
    weighted_sum: f64,
    weight_total: f64,
    count: usize,
}

impl WeightedMean {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation `x` with weight `w` (must be non-negative).
    pub fn add(&mut self, w: f64, x: f64) {
        assert!(w >= 0.0 && w.is_finite(), "weight must be finite and >= 0");
        self.weighted_sum += w * x;
        self.weight_total += w;
        self.count += 1;
    }

    /// Adds a duration observation with weight `w`.
    pub fn add_duration(&mut self, w: f64, d: Duration) {
        self.add(w, d.as_secs());
    }

    /// The weighted mean, or `None` if total weight is zero.
    fn mean(&self) -> Option<f64> {
        (self.weight_total > 0.0).then(|| self.weighted_sum / self.weight_total)
    }

    /// The weighted mean, defaulting to 0 when empty.
    pub fn mean_or_zero(&self) -> f64 {
        self.mean().unwrap_or(0.0)
    }

    /// Number of observations added.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Summary statistics of a sample: mean, standard deviation, extrema.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values`; returns `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unweighted_degenerates_to_mean() {
        let mut m = WeightedMean::new();
        for x in [1.0, 2.0, 3.0] {
            m.add(1.0, x);
        }
        assert_eq!(m.mean(), Some(2.0));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn priority_weighting_matches_paper_definition() {
        // Two jobs: priority 5 waits 100s, priority 1 waits 700s.
        // Weighted mean = (5*100 + 1*700) / 6 = 200.
        let mut m = WeightedMean::new();
        m.add(5.0, 100.0);
        m.add(1.0, 700.0);
        assert_eq!(m.mean(), Some(200.0));
    }

    #[test]
    fn zero_weight_observations_do_not_affect_mean() {
        let mut m = WeightedMean::new();
        m.add(0.0, 1e9);
        assert_eq!(m.mean(), None);
        assert_eq!(m.mean_or_zero(), 0.0);
        m.add(2.0, 10.0);
        assert_eq!(m.mean(), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "weight must be finite")]
    fn negative_weight_rejected() {
        WeightedMean::new().add(-1.0, 1.0);
    }

    #[test]
    fn add_duration_uses_seconds() {
        let mut m = WeightedMean::new();
        m.add_duration(2.0, Duration::from_secs(30.0));
        assert_eq!(m.mean(), Some(30.0));
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert_eq!(s.mean, 5.0);
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_edge_cases() {
        assert!(Summary::of(&[]).is_none());
        let one = Summary::of(&[3.0]).unwrap();
        assert_eq!(one.std_dev, 0.0);
        assert_eq!(one.min, 3.0);
        assert_eq!(one.max, 3.0);
    }
}
