//! Aggregation: medians over iterations, quartiles, percentiles with a
//! minimum-tail rule, and log-bucket histograms for calls too frequent
//! to keep individually.
//!
//! Every timing the benchmark prints goes through here so it carries
//! its sample count, and a percentile whose tail holds fewer than
//! [`MIN_TAIL`] samples is omitted rather than estimated.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL: usize = 10;

/// Percentiles the benchmark ever reports, ascending.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// `(samples beyond the p-th percentile, its nearest rank)` among `n`
/// samples, in integer per-mille arithmetic so `100 × (1 − 0.9)` is
/// exactly 10.
fn tail_and_rank(n: usize, p: f64) -> (usize, usize) {
    assert!((0.0..100.0).contains(&p), "percentile out of range: {p}");
    let per_mille = (p * 10.0).round() as usize;
    let beyond = n * (1000 - per_mille) / 1000;
    let rank = (n * per_mille).div_ceil(1000);
    (beyond, rank.clamp(1, n.max(1)))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) —
/// the rule the PR driver applies to its ten runs. `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile range as a share of the median — the spread figure
/// the driver holds against each metric's bound.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The `p`-th percentile (nearest rank on the sorted samples), or
/// `None` when fewer than [`MIN_TAIL`] samples lie beyond it. The
/// median (`p = 50`) of a handful of iterations is what [`median`] is
/// for; this is for latency distributions.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let (beyond, rank) = tail_and_rank(values.len(), p);
    if beyond < MIN_TAIL {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// The highest percentile of the reporting ladder (50, 90, 99, 99.9)
/// that `n` samples support under the [`MIN_TAIL`] rule.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| tail_and_rank(n, p).0 >= MIN_TAIL)
}

/// Count, total and a power-of-two histogram of nanosecond durations —
/// what a traced run keeps for calls made millions of times.
#[derive(Debug, Clone)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// `buckets[k]` counts durations in `[2^k, 2^(k+1))` ns (bucket 0
    /// also holds zero).
    pub buckets: [u64; 40],
}

impl Default for Agg {
    fn default() -> Self {
        Agg {
            count: 0,
            total_ns: 0,
            buckets: [0; 40],
        }
    }
}

impl Agg {
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        let k = (63 - ns.max(1).leading_zeros()) as usize;
        self.buckets[k.min(self.buckets.len() - 1)] += 1;
    }

    pub fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mean duration in ns (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_iterations() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One slow iteration out of five does not move the median.
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 1.7]), Some(1.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_iqr(&v), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // 100 samples leave one beyond p99: omitted, not estimated.
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 99.9), None);
        assert_eq!(percentile(&[1.0; 19], 50.0), None);
        assert_eq!(percentile(&[1.0; 20], 50.0), Some(1.0));
    }

    #[test]
    fn highest_percentile_follows_the_sample_count() {
        assert_eq!(highest_percentile(5), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn agg_counts_totals_and_buckets() {
        let mut a = Agg::default();
        for ns in [0, 1, 2, 3, 1000, 1500] {
            a.record(ns);
        }
        assert_eq!((a.count, a.total_ns), (6, 2506));
        assert_eq!(
            (a.buckets[0], a.buckets[1], a.buckets[9], a.buckets[10]),
            (2, 2, 1, 1)
        );
        let mut b = Agg::default();
        b.record(u64::MAX / 2);
        b.merge(&a);
        assert_eq!(b.count, 7);
        assert_eq!(b.buckets[39], 1);
        assert!((a.mean_ns() - 2506.0 / 6.0).abs() < 1e-9);
    }
}
