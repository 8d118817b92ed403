//! Run metrics — the four columns of Table 1.
//!
//! Both the operator harness ("Actual") and the discrete-event simulator
//! ("Simulation") reduce a finished run to the same [`RunMetrics`]:
//! total time, average cluster utilization, and priority-weighted mean
//! response/completion times (§4.3's metric definitions).

use std::sync::Arc;

use hpc_metrics::{SimTime, WeightedMean};

/// Bounded-slowdown threshold τ in seconds (the standard trace-replay
/// guard against very short jobs dominating the slowdown mean).
pub const BSLD_TAU_S: f64 = 10.0;

/// Per-job outcome extracted at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job name: the workload's or the job registry's own string,
    /// shared, never copied.
    pub name: Arc<str>,
    /// User priority (the metric weight).
    pub priority: u32,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Application start time.
    pub started_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
}

impl JobOutcome {
    /// Bounded slowdown: `max(1, (wait + run) / max(run, τ))` with
    /// τ = [`BSLD_TAU_S`] — the standard per-job stretch metric of the
    /// trace-replay literature. Computed from the same three timestamps
    /// in both engines, so DES and operator replays agree by
    /// construction.
    fn bounded_slowdown(&self) -> f64 {
        let wait = (self.started_at - self.submitted_at).as_secs();
        let run = (self.completed_at - self.started_at).as_secs();
        ((wait + run) / run.max(BSLD_TAU_S)).max(1.0)
    }
}

/// Fault-recovery tallies for one run — all zero on a fault-free
/// replay. Both engines maintain them incrementally at the same event
/// boundaries, so they cross-validate bit-identically like every other
/// metric.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Core-seconds of lost progress: work a job had done that an
    /// eviction rolled back to the last checkpoint, or that a
    /// kill-and-requeue discarded entirely.
    pub wasted_core_seconds: f64,
    /// Checkpoint/restart preemptions ([`Action::Evict`]).
    ///
    /// [`Action::Evict`]: crate::view::Action::Evict
    pub evictions: u32,
    /// Kill-and-requeue preemptions ([`Action::Requeue`]).
    ///
    /// [`Action::Requeue`]: crate::view::Action::Requeue
    pub requeues: u32,
    /// Jobs that exhausted their retry budget and failed permanently.
    pub permanent_failures: u32,
    /// Transient control-plane faults observed (every scheduled flaky
    /// event that fired, whether or not it found a victim).
    pub transient_faults: u32,
    /// Transient-fault retries the token-bucket retry budget approved.
    pub retries: u32,
    /// Times the control-plane circuit breaker tripped open.
    pub breaker_trips: u32,
}

/// Aggregate metrics for one scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Policy label (Table 1 row).
    pub policy: String,
    /// First submission → last completion, seconds.
    pub total_time: f64,
    /// Mean fraction of worker slots in use over the run.
    pub utilization: f64,
    /// Priority-weighted mean response time (start − submit), seconds.
    pub weighted_response: f64,
    /// Priority-weighted mean completion time (complete − submit), s.
    pub weighted_completion: f64,
    /// Mean bounded slowdown over completed jobs (τ = [`BSLD_TAU_S`];
    /// see `JobOutcome::bounded_slowdown`).
    pub mean_bounded_slowdown: f64,
    /// Scheduling actions that rescaled a running job.
    pub rescales: u32,
    /// Fault-recovery tallies (zero on fault-free runs).
    pub faults: FaultStats,
    /// Per-job detail.
    pub jobs: Vec<JobOutcome>,
}

impl RunMetrics {
    /// Metrics for a run in which no job completed normally (every job
    /// was cancelled). All time aggregates are zero by definition;
    /// `rescales` is still reported.
    pub fn empty(policy: impl Into<String>, rescales: u32) -> RunMetrics {
        RunMetrics {
            policy: policy.into(),
            total_time: 0.0,
            utilization: 0.0,
            weighted_response: 0.0,
            weighted_completion: 0.0,
            mean_bounded_slowdown: 0.0,
            rescales,
            faults: FaultStats::default(),
            jobs: Vec::new(),
        }
    }

    /// Builder: attaches fault-recovery tallies (engines call this
    /// after [`RunMetrics::from_outcomes`], which reports zeros).
    pub fn with_fault_stats(mut self, faults: FaultStats) -> RunMetrics {
        self.faults = faults;
        self
    }

    /// Computes the aggregate metrics from per-job outcomes plus the
    /// externally integrated utilization (the kernel folds slot
    /// accounting; see `hpc_metrics::Utilization`).
    pub fn from_outcomes(
        policy: impl Into<String>,
        jobs: Vec<JobOutcome>,
        utilization: f64,
        rescales: u32,
    ) -> RunMetrics {
        assert!(!jobs.is_empty(), "metrics need at least one job");
        let first_submit = jobs
            .iter()
            .map(|j| j.submitted_at)
            .min()
            .expect("non-empty");
        let last_complete = jobs
            .iter()
            .map(|j| j.completed_at)
            .max()
            .expect("non-empty");
        let mut resp = WeightedMean::new();
        let mut comp = WeightedMean::new();
        let mut bsld = 0.0;
        for j in &jobs {
            let w = f64::from(j.priority);
            resp.add_duration(w, j.started_at - j.submitted_at);
            comp.add_duration(w, j.completed_at - j.submitted_at);
            bsld += j.bounded_slowdown();
        }
        RunMetrics {
            policy: policy.into(),
            total_time: (last_complete - first_submit).as_secs(),
            utilization,
            weighted_response: resp.mean_or_zero(),
            weighted_completion: comp.mean_or_zero(),
            mean_bounded_slowdown: bsld / jobs.len() as f64,
            rescales,
            faults: FaultStats::default(),
            jobs,
        }
    }

    /// Merges per-shard run metrics — each produced by an independent
    /// cluster of the paired slot `capacity` — into one federation-wide
    /// aggregate.
    ///
    /// Job outcomes concatenate in shard order and every time aggregate
    /// is recomputed from the union (so `total_time` spans the global
    /// first submit → last complete, and the weighted means re-weight
    /// over all jobs, not over shard means). Utilization is the
    /// busy-core-seconds ratio: each shard contributes
    /// `utilization × capacity × total_time` busy core-seconds against
    /// `capacity × total_time` available ones, which makes the merge
    /// *conservative* — summed busy core-seconds are preserved exactly,
    /// whatever the partition. Rescales and fault tallies sum.
    ///
    /// Merging a single shard is the identity (bit-exact), which is
    /// what lets a 1-shard federation cross-validate against the
    /// single-cluster engines with `==`.
    ///
    /// # Panics
    /// If `shards` is empty.
    pub fn merge(shards: &[(u32, &RunMetrics)]) -> RunMetrics {
        assert!(!shards.is_empty(), "merge needs at least one shard");
        if shards.len() == 1 {
            return shards[0].1.clone();
        }
        // Policy label: shared when homogeneous, else joined in shard
        // order (placement may route across differently configured
        // clusters).
        let first = shards[0].1.policy.clone();
        let policy = if shards.iter().all(|(_, m)| m.policy == first) {
            first
        } else {
            let labels: Vec<&str> = shards.iter().map(|(_, m)| m.policy.as_str()).collect();
            labels.join("+")
        };
        let rescales = shards.iter().map(|(_, m)| m.rescales).sum();
        let faults = FaultStats {
            wasted_core_seconds: shards
                .iter()
                .map(|(_, m)| m.faults.wasted_core_seconds)
                .sum(),
            evictions: shards.iter().map(|(_, m)| m.faults.evictions).sum(),
            requeues: shards.iter().map(|(_, m)| m.faults.requeues).sum(),
            permanent_failures: shards
                .iter()
                .map(|(_, m)| m.faults.permanent_failures)
                .sum(),
            transient_faults: shards.iter().map(|(_, m)| m.faults.transient_faults).sum(),
            retries: shards.iter().map(|(_, m)| m.faults.retries).sum(),
            breaker_trips: shards.iter().map(|(_, m)| m.faults.breaker_trips).sum(),
        };
        // Reserved once: a `flat_map` collect would regrow from a zero
        // size hint.
        let mut jobs: Vec<JobOutcome> =
            Vec::with_capacity(shards.iter().map(|(_, m)| m.jobs.len()).sum());
        for (_, m) in shards {
            jobs.extend(m.jobs.iter().cloned());
        }
        if jobs.is_empty() {
            return RunMetrics::empty(policy, rescales).with_fault_stats(faults);
        }
        let busy: f64 = shards
            .iter()
            .map(|(cap, m)| m.utilization * f64::from(*cap) * m.total_time)
            .sum();
        let available: f64 = shards
            .iter()
            .map(|(cap, m)| f64::from(*cap) * m.total_time)
            .sum();
        let utilization = if available > 0.0 {
            busy / available
        } else {
            0.0
        };
        RunMetrics::from_outcomes(policy, jobs, utilization, rescales).with_fault_stats(faults)
    }

    /// Total busy core-seconds this run banked on a cluster of
    /// `capacity` slots — the conserved quantity of
    /// [`RunMetrics::merge`].
    pub fn busy_core_seconds(&self, capacity: u32) -> f64 {
        self.utilization * f64::from(capacity) * self.total_time
    }

    /// One-line summary in the style of Table 1.
    pub fn table_row(&self) -> String {
        format!(
            "{:<14} total={:<9.1} util={:>6.2}% wresp={:<8.2} wcomp={:<8.2} bsld={:<6.2} rescales={}",
            self.policy,
            self.total_time,
            self.utilization * 100.0,
            self.weighted_response,
            self.weighted_completion,
            self.mean_bounded_slowdown,
            self.rescales
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, prio: u32, sub: f64, start: f64, done: f64) -> JobOutcome {
        JobOutcome {
            name: name.into(),
            priority: prio,
            submitted_at: SimTime::from_secs(sub),
            started_at: SimTime::from_secs(start),
            completed_at: SimTime::from_secs(done),
        }
    }

    #[test]
    fn metrics_match_hand_computation() {
        let jobs = vec![
            outcome("a", 5, 0.0, 10.0, 110.0),   // resp 10, comp 110
            outcome("b", 1, 50.0, 250.0, 350.0), // resp 200, comp 300
        ];
        let m = RunMetrics::from_outcomes("elastic", jobs, 0.85, 3);
        assert_eq!(m.total_time, 350.0);
        // wresp = (5*10 + 1*200)/6 = 41.666…
        assert!((m.weighted_response - 250.0 / 6.0).abs() < 1e-9);
        // wcomp = (5*110 + 1*300)/6 = 141.666…
        assert!((m.weighted_completion - 850.0 / 6.0).abs() < 1e-9);
        assert_eq!(m.rescales, 3);
        assert_eq!(m.utilization, 0.85);
    }

    #[test]
    fn total_time_spans_first_submit_to_last_complete() {
        let jobs = vec![
            outcome("late-finisher", 1, 100.0, 110.0, 900.0),
            outcome("first-submitted", 1, 10.0, 20.0, 50.0),
        ];
        let m = RunMetrics::from_outcomes("x", jobs, 0.5, 0);
        assert_eq!(m.total_time, 890.0);
    }

    #[test]
    fn bounded_slowdown_matches_hand_computation() {
        // Long job: wait 100, run 400 → (100+400)/max(400,10) = 1.25.
        let long = outcome("long", 1, 0.0, 100.0, 500.0);
        assert!((long.bounded_slowdown() - 1.25).abs() < 1e-12);
        // Short job: wait 18, run 2 → bounded by τ=10: (18+2)/10 = 2,
        // NOT the raw slowdown (18+2)/2 = 10.
        let short = outcome("short", 1, 0.0, 18.0, 20.0);
        assert!((short.bounded_slowdown() - 2.0).abs() < 1e-12);
        // No wait, short run: clamps to 1 from below.
        let instant = outcome("instant", 1, 0.0, 0.0, 1.0);
        assert_eq!(instant.bounded_slowdown(), 1.0);
        // The run mean averages the per-job values, priority-unweighted.
        let m = RunMetrics::from_outcomes("x", vec![long, short, instant], 0.5, 0);
        assert!((m.mean_bounded_slowdown - (1.25 + 2.0 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn table_row_is_readable() {
        let m =
            RunMetrics::from_outcomes("moldable", vec![outcome("a", 2, 0.0, 1.0, 2.0)], 0.715, 0);
        let row = m.table_row();
        assert!(row.contains("moldable"));
        assert!(row.contains("71.50%"));
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_outcomes_rejected() {
        let _ = RunMetrics::from_outcomes("x", vec![], 0.0, 0);
    }

    #[test]
    fn merge_of_a_single_shard_is_the_identity() {
        let m = RunMetrics::from_outcomes(
            "elastic",
            vec![outcome("a", 5, 0.0, 10.0, 110.0)],
            0.7321,
            4,
        )
        .with_fault_stats(FaultStats {
            wasted_core_seconds: 12.5,
            evictions: 1,
            requeues: 0,
            permanent_failures: 0,
            transient_faults: 4,
            retries: 2,
            breaker_trips: 1,
        });
        assert_eq!(RunMetrics::merge(&[(64, &m)]), m);
    }

    #[test]
    fn merge_recomputes_aggregates_over_the_union() {
        // Shard 0: one job, span 0..110; shard 1: one job, span 50..350.
        let s0 = RunMetrics::from_outcomes("x", vec![outcome("a", 5, 0.0, 10.0, 110.0)], 0.5, 1);
        let s1 = RunMetrics::from_outcomes("x", vec![outcome("b", 1, 50.0, 250.0, 350.0)], 0.25, 2);
        let merged = RunMetrics::merge(&[(32, &s0), (32, &s1)]);
        // The union must equal from_outcomes over both jobs directly.
        let direct = RunMetrics::from_outcomes(
            "x",
            vec![
                outcome("a", 5, 0.0, 10.0, 110.0),
                outcome("b", 1, 50.0, 250.0, 350.0),
            ],
            merged.utilization,
            3,
        );
        assert_eq!(merged, direct);
        assert_eq!(merged.total_time, 350.0);
        assert_eq!(merged.rescales, 3);
        // Busy core-seconds conserve: 0.5*32*110 + 0.25*32*300 against
        // the summed per-shard availability 32*110 + 32*300.
        let busy = s0.busy_core_seconds(32) + s1.busy_core_seconds(32);
        let available = 32.0 * 110.0 + 32.0 * 300.0;
        assert!((merged.utilization - busy / available).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_fault_tallies_and_handles_empty_shards() {
        let s0 = RunMetrics::from_outcomes("x", vec![outcome("a", 1, 0.0, 1.0, 2.0)], 0.5, 0)
            .with_fault_stats(FaultStats {
                wasted_core_seconds: 10.0,
                evictions: 2,
                requeues: 1,
                permanent_failures: 0,
                transient_faults: 7,
                retries: 3,
                breaker_trips: 1,
            });
        let empty = RunMetrics::empty("x", 5).with_fault_stats(FaultStats {
            wasted_core_seconds: 3.0,
            evictions: 0,
            requeues: 2,
            permanent_failures: 1,
            transient_faults: 5,
            retries: 2,
            breaker_trips: 2,
        });
        let merged = RunMetrics::merge(&[(16, &s0), (16, &empty)]);
        assert_eq!(merged.jobs.len(), 1);
        assert_eq!(merged.rescales, 5);
        assert_eq!(merged.faults.wasted_core_seconds, 13.0);
        assert_eq!(merged.faults.evictions, 2);
        assert_eq!(merged.faults.requeues, 3);
        assert_eq!(merged.faults.permanent_failures, 1);
        assert_eq!(merged.faults.transient_faults, 12);
        assert_eq!(merged.faults.retries, 5);
        assert_eq!(merged.faults.breaker_trips, 3);
        // An empty shard has zero span, so utilization is s0's alone.
        assert!((merged.utilization - 0.5).abs() < 1e-12);
        // All shards empty: still no panic, tallies survive.
        let all_empty = RunMetrics::merge(&[(16, &empty), (16, &empty)]);
        assert!(all_empty.jobs.is_empty());
        assert_eq!(all_empty.rescales, 10);
        assert_eq!(all_empty.faults.requeues, 4);
    }

    #[test]
    fn merge_labels_heterogeneous_policies_in_shard_order() {
        let a = RunMetrics::from_outcomes("elastic", vec![outcome("a", 1, 0.0, 1.0, 2.0)], 0.5, 0);
        let b = RunMetrics::from_outcomes("fcfs", vec![outcome("b", 1, 0.0, 1.0, 2.0)], 0.5, 0);
        assert_eq!(
            RunMetrics::merge(&[(8, &a), (8, &b)]).policy,
            "elastic+fcfs"
        );
        assert_eq!(RunMetrics::merge(&[(8, &a), (8, &a)]).policy, "elastic");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn merge_rejects_zero_shards() {
        let _ = RunMetrics::merge(&[]);
    }

    #[test]
    fn fault_stats_default_to_zero_and_attach_via_builder() {
        let m = RunMetrics::from_outcomes("x", vec![outcome("a", 2, 0.0, 1.0, 2.0)], 0.5, 0);
        assert_eq!(m.faults, FaultStats::default());
        assert_eq!(m.faults.wasted_core_seconds, 0.0);
        let stats = FaultStats {
            wasted_core_seconds: 123.5,
            evictions: 2,
            requeues: 1,
            permanent_failures: 0,
            transient_faults: 6,
            retries: 2,
            breaker_trips: 1,
        };
        let m = m.with_fault_stats(stats);
        assert_eq!(m.faults, stats);
        assert_eq!(RunMetrics::empty("x", 0).faults, FaultStats::default());
    }
}
