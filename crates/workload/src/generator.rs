//! Seeded synthetic workload generators.
//!
//! * [`generate_workload`] — the paper's §4.3.1 random generator: `n`
//!   jobs drawn uniformly from the 4 size classes with priorities 1–5,
//!   ChaCha8-seeded so every experiment is reproducible bit-for-bit.
//!   Arrivals are all at the epoch; space them with
//!   [`WorkloadSpec::spaced_every`] (fixed gap) or replace the whole
//!   arrival process with [`poisson_workload`].
//! * [`poisson_workload`] — the same class/priority draws but with
//!   exponential (Poisson-process) interarrivals, the bursty
//!   trace-shaped arrival model of the malleable-scheduling
//!   literature.

use std::fmt::Write as _;

use hpc_metrics::Duration;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::spec::{JobSpec, SizeClass, WorkloadSpec};

/// Zero-pad width for job indices: wide enough that lexicographic name
/// order equals numeric order for `n_jobs` jobs (`job99`/`job100` would
/// otherwise invert), never narrower than the historical 2 digits.
fn pad_width(n_jobs: usize) -> usize {
    let max_index = n_jobs.saturating_sub(1).max(1);
    let digits = (max_index.ilog10() + 1) as usize;
    digits.max(2)
}

/// Generates the paper's random workload for `seed`: `n_jobs` jobs,
/// uniformly drawn size classes, priorities 1..=5, names `job00`,
/// `job01`, … zero-padded per `pad_width` so name order always equals
/// submission order. All arrivals are at the epoch.
pub fn generate_workload(seed: u64, n_jobs: usize) -> WorkloadSpec {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let width = pad_width(n_jobs);
    // Each name is formatted into one reused buffer and allocated once,
    // as the job's shared string.
    let mut name = String::new();
    let jobs = (0..n_jobs)
        .map(|i| {
            let class = SizeClass::ALL[rng.gen_range(0..SizeClass::ALL.len())];
            let priority = rng.gen_range(1..=5);
            name.clear();
            write!(name, "job{i:0width$}").expect("a String takes any write");
            JobSpec::of_class(name.as_str(), class, priority)
        })
        .collect();
    WorkloadSpec::new(jobs)
}

/// Stream separator so the arrival process draws from its own RNG —
/// the class/priority mix stays identical to [`generate_workload`] at
/// the same seed.
const ARRIVAL_STREAM: u64 = 0xA771_1AA5_57EA_0001;

/// Like [`generate_workload`], but arrivals follow a Poisson process
/// with mean interarrival `mean_gap`: bursts and lulls instead of a
/// metronome. The per-job class/priority draws are identical to the
/// fixed-gap generator at the same seed (arrivals come from a separate
/// RNG stream). Deterministic per seed.
pub fn poisson_workload(seed: u64, n_jobs: usize, mean_gap: Duration) -> WorkloadSpec {
    let mean = mean_gap.as_secs();
    assert!(mean >= 0.0, "mean interarrival must be nonnegative");
    let mut wl = generate_workload(seed, n_jobs);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ARRIVAL_STREAM);
    let mut at = 0.0f64;
    for (i, job) in wl.jobs.iter_mut().enumerate() {
        // Inverse-CDF exponential draw; 1 - u keeps ln() finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        if i > 0 {
            at += -mean * (1.0 - u).ln();
        }
        job.arrival = Duration::from_secs(at);
    }
    wl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_seed_deterministic() {
        let a = generate_workload(42, 16);
        let b = generate_workload(42, 16);
        assert_eq!(a, b);
        let c = generate_workload(43, 16);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn bounds_come_from_the_class() {
        for job in generate_workload(7, 64).jobs {
            assert_eq!(
                (job.min_replicas(), job.max_replicas()),
                job.class().expect("class job").replica_bounds()
            );
            assert!((1..=5).contains(&job.priority));
        }
    }

    #[test]
    fn all_classes_appear_over_many_draws() {
        let wl = generate_workload(1, 200);
        for class in SizeClass::ALL {
            assert!(
                wl.jobs.iter().any(|j| j.class() == Some(class)),
                "{class} never generated"
            );
        }
    }

    #[test]
    fn names_are_ordered_and_unique_at_any_scale() {
        let small = generate_workload(5, 16);
        assert_eq!(&*small.jobs[0].name, "job00");
        assert_eq!(&*small.jobs[15].name, "job15");

        // Past 100 jobs the pad widens so name order stays submission
        // order (job099 < job100 lexicographically).
        for n in [16usize, 100, 101, 1000, 2500] {
            let wl = generate_workload(5, n);
            let names: Vec<&str> = wl.jobs.iter().map(|j| &*j.name).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, names, "n={n}: lexicographic != submission order");
            let mut dedup = names.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), names.len(), "n={n}: duplicate names");
            assert!(wl.validate().is_ok());
        }
    }

    #[test]
    fn pad_width_tracks_job_count() {
        assert_eq!(pad_width(1), 2);
        assert_eq!(pad_width(16), 2);
        assert_eq!(pad_width(100), 2); // indices 0..=99
        assert_eq!(pad_width(101), 3); // index 100 appears
        assert_eq!(pad_width(1000), 3);
        assert_eq!(pad_width(100_000), 5);
    }

    #[test]
    fn class_and_priority_draws_match_the_paper_generator() {
        // The Poisson generator must reuse the same per-job draw stream
        // for class and priority, so the workload *mix* matches the
        // fixed-gap generator at the same seed (only arrivals differ).
        let fixed = generate_workload(9, 64);
        let pois = poisson_workload(9, 64, Duration::from_secs(30.0));
        for (a, b) in fixed.jobs.iter().zip(&pois.jobs) {
            assert_eq!(a.class(), b.class());
            assert_eq!(a.priority, b.priority);
        }
    }

    #[test]
    fn poisson_arrivals_are_nondecreasing_bursty_and_mean_scaled() {
        let mean = 30.0;
        let n = 2000;
        let wl = poisson_workload(3, n, Duration::from_secs(mean));
        assert!(wl.validate().is_ok());
        assert_eq!(wl.jobs[0].arrival.as_secs(), 0.0);
        let gaps: Vec<f64> = wl
            .jobs
            .windows(2)
            .map(|w| (w[1].arrival - w[0].arrival).as_secs())
            .collect();
        assert!(gaps.iter().all(|&g| g >= 0.0));
        let avg = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(
            (avg - mean).abs() < mean * 0.15,
            "mean interarrival {avg} far from {mean}"
        );
        // Exponential interarrivals are bursty: plenty of gaps below
        // half the mean AND above twice the mean (a fixed gap has
        // neither).
        let short = gaps.iter().filter(|&&g| g < mean * 0.5).count();
        let long = gaps.iter().filter(|&&g| g > mean * 2.0).count();
        assert!(short > gaps.len() / 5, "too few short gaps ({short})");
        assert!(long > gaps.len() / 50, "too few long gaps ({long})");
    }

    #[test]
    fn poisson_is_seed_deterministic() {
        let a = poisson_workload(11, 100, Duration::from_secs(10.0));
        let b = poisson_workload(11, 100, Duration::from_secs(10.0));
        assert_eq!(a, b);
    }
}
