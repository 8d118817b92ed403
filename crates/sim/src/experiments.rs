//! Experiment sweeps (Figs. 7 & 8, Table 1 simulation column).
//!
//! Each sweep runs the four policies over many seeded random workloads
//! and averages the four metrics, exactly like the paper's §4.3.1
//! methodology (16 jobs, 100 repetitions).

use elastic_core::{Policy, PolicyConfig, PolicyKind, RunMetrics, SchedulingPolicy};
use hpc_metrics::{Duration, Summary};
use hpc_workload::model::{OverheadModel, ScalingModel};
use hpc_workload::{generate_workload, WorkloadSpec};

use crate::engine::{simulate, SimConfig, SimOutcome};

/// Paper defaults.
pub const DEFAULT_JOBS: usize = 16;
/// Repetitions averaged per configuration (paper: 100).
pub const DEFAULT_SEEDS: u64 = 100;

/// Averaged metrics for one (policy, x) sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Sweep coordinate (submission gap or rescale gap, seconds).
    pub x: f64,
    /// Policy evaluated.
    pub policy: PolicyKind,
    /// Mean utilization across seeds.
    pub utilization: f64,
    /// Mean total time (s).
    pub total_time: f64,
    /// Mean weighted response time (s).
    pub weighted_response: f64,
    /// Mean weighted completion time (s).
    pub weighted_completion: f64,
    /// Mean bounded slowdown (τ = 10 s) across seeds.
    pub bounded_slowdown: f64,
    /// Std-dev of total time across seeds (reported for error bars).
    pub total_time_std: f64,
}

fn policy_of(kind: PolicyKind, rescale_gap_s: f64) -> Policy {
    let cfg = PolicyConfig {
        rescale_gap: Duration::from_secs(rescale_gap_s),
        ..PolicyConfig::default()
    };
    Policy::of_kind(kind, cfg)
}

/// Averages every policy at every sweep coordinate in `xs` over
/// `seeds` workloads of `n_jobs` jobs, under `overhead`; `gaps(x)` is
/// the (submission, rescale) gap pair, in seconds, that `x` stands for.
fn sweep(
    xs: &[f64],
    gaps: impl Fn(f64) -> (f64, f64),
    seeds: u64,
    n_jobs: usize,
    overhead: OverheadModel,
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &x in xs {
        let (submission_gap_s, rescale_gap_s) = gaps(x);
        let gap = Duration::from_secs(submission_gap_s);
        for kind in PolicyKind::ALL {
            let runs: Vec<RunMetrics> = (0..seeds)
                .map(|seed| {
                    let mut cfg =
                        SimConfig::paper_default(Box::new(policy_of(kind, rescale_gap_s)));
                    cfg.overhead = overhead;
                    simulate(&cfg, &generate_workload(seed, n_jobs).spaced_every(gap)).metrics
                })
                .collect();
            let summary = |metric: fn(&RunMetrics) -> f64| {
                Summary::of(&runs.iter().map(metric).collect::<Vec<_>>()).expect("non-empty")
            };
            out.push(SweepPoint {
                x,
                policy: kind,
                utilization: summary(|m| m.utilization).mean,
                total_time: summary(|m| m.total_time).mean,
                weighted_response: summary(|m| m.weighted_response).mean,
                weighted_completion: summary(|m| m.weighted_completion).mean,
                bounded_slowdown: summary(|m| m.mean_bounded_slowdown).mean,
                total_time_std: summary(|m| m.total_time).std_dev,
            });
        }
    }
    out
}

/// Fig. 7: metrics vs submission gap (s), `T_rescale_gap` fixed.
pub fn sweep_submission_gap(
    gaps_s: &[f64],
    rescale_gap_s: f64,
    seeds: u64,
    n_jobs: usize,
) -> Vec<SweepPoint> {
    let gaps = |gap| (gap, rescale_gap_s);
    sweep(gaps_s, gaps, seeds, n_jobs, OverheadModel::default())
}

/// Fig. 8: metrics vs `T_rescale_gap` (s), submission gap fixed,
/// under `overhead`.
///
/// [`OverheadModel::default`] is the paper's checkpoint/restart
/// protocol; [`OverheadModel::incremental`] produces the Fig. 8
/// companion: the same `T_rescale_gap` sweep with the in-place rescale
/// protocol, where cheaper rescales flatten elastic's total-time
/// penalty and keep its utilization edge at larger gaps.
pub fn sweep_rescale_gap(
    rescale_gaps_s: &[f64],
    submission_gap_s: f64,
    seeds: u64,
    n_jobs: usize,
    overhead: OverheadModel,
) -> Vec<SweepPoint> {
    let gaps = |rgap| (submission_gap_s, rgap);
    sweep(rescale_gaps_s, gaps, seeds, n_jobs, overhead)
}

/// Cluster capacity of the heavy-traffic scale scenario (a trace-scale
/// cloud pool rather than the paper's 64-vCPU testbed).
pub const SCALE_CAPACITY: u32 = 4096;
/// Submission gap (s) of the heavy-traffic scale scenario, chosen so
/// arrivals roughly match the service rate of a [`SCALE_CAPACITY`]
/// cluster: the queue stays bounded (steady heavy traffic) instead of
/// growing without limit.
pub const SCALE_SUBMISSION_GAP_S: f64 = 1.5;

/// The heavy-traffic scale scenario's classic workload: `n_jobs`
/// random jobs (paper class/priority mix) at the fixed
/// [`SCALE_SUBMISSION_GAP_S`] gap.
pub fn heavy_traffic_workload(seed: u64, n_jobs: usize) -> WorkloadSpec {
    generate_workload(seed, n_jobs).spaced_every(Duration::from_secs(SCALE_SUBMISSION_GAP_S))
}

/// Replays *any* [`WorkloadSpec`] through the heavy-traffic scale
/// cluster ([`SCALE_CAPACITY`] slots, default models) — the
/// multi-thousand-job trace-replay regime of Zojer et al. rather than
/// the paper's 16-job testbed. SWF traces, Poisson workloads and the
/// classic fixed-gap scenario all come through here;
/// `tests/replay_counters.rs` pins the work such a replay does.
pub fn heavy_traffic_replay(
    policy: Box<dyn SchedulingPolicy>,
    workload: &WorkloadSpec,
) -> SimOutcome {
    let cfg = SimConfig {
        capacity: SCALE_CAPACITY,
        policy,
        scaling: ScalingModel::default(),
        overhead: OverheadModel::default(),
        cancellations: Vec::new(),
    };
    simulate(&cfg, workload)
}

/// Table 1 simulation column: one fixed workload (seed selectable),
/// gap = 90 s, `T_rescale_gap` = 180 s — returns the four rows plus the
/// full outcome for profile plotting.
pub fn table1_simulation(seed: u64) -> Vec<(RunMetrics, SimOutcome)> {
    let workload = generate_workload(seed, DEFAULT_JOBS).spaced_every(Duration::from_secs(90.0));
    PolicyKind::ALL
        .iter()
        .map(|&kind| {
            let cfg = SimConfig::paper_default(Box::new(policy_of(kind, 180.0)));
            let out = simulate(&cfg, &workload);
            (out.metrics.clone(), out)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace-scale scenario: every job of a large heavy-traffic
    /// replay completes, utilization is production-like, and the event
    /// queue stays bounded.
    #[test]
    fn heavy_traffic_run_replays_trace_scale_workloads() {
        let n = 500;
        let workload = heavy_traffic_workload(0, n);
        let out = heavy_traffic_replay(Box::new(policy_of(PolicyKind::Elastic, 180.0)), &workload);
        assert_eq!(out.metrics.jobs.len(), n, "every job completes");
        assert!(
            out.metrics.utilization > 0.5 && out.metrics.utilization <= 1.0,
            "scale scenario should keep the pool busy (util {})",
            out.metrics.utilization
        );
        assert!(out.rescales > 0, "elastic should rescale under load");
        assert!(
            out.peak_queue_len <= 2 * (n + 2),
            "queue must stay O(live jobs), peak {}",
            out.peak_queue_len
        );
        // FCFS drives the identical trace through the same engine.
        let fcfs = heavy_traffic_replay(Box::new(elastic_core::FcfsBackfill::new()), &workload);
        assert_eq!(fcfs.metrics.jobs.len(), n);
        assert_eq!(fcfs.rescales, 0);
    }

    /// The parameterized replay path: a Poisson (trace-shaped) arrival
    /// process drives the identical scale cluster through the same
    /// entry point as the fixed-gap scenario.
    #[test]
    fn heavy_traffic_replay_takes_arbitrary_workloads() {
        use hpc_workload::poisson_workload;
        let n = 400;
        let wl = poisson_workload(0, n, Duration::from_secs(SCALE_SUBMISSION_GAP_S));
        let out = heavy_traffic_replay(Box::new(policy_of(PolicyKind::Elastic, 180.0)), &wl);
        assert_eq!(out.metrics.jobs.len(), n, "every job completes");
        assert!(out.metrics.utilization > 0.3 && out.metrics.utilization <= 1.0);
        assert!(out.metrics.mean_bounded_slowdown >= 1.0);
        // Determinism across replays of the same workload.
        let again = heavy_traffic_replay(Box::new(policy_of(PolicyKind::Elastic, 180.0)), &wl);
        assert_eq!(out.metrics, again.metrics);
        // The fixed-gap scenario is one more workload through that path.
        let fixed = heavy_traffic_replay(
            Box::new(policy_of(PolicyKind::Elastic, 180.0)),
            &heavy_traffic_workload(0, n),
        );
        assert_eq!(fixed.metrics.jobs.len(), n);
    }

    #[test]
    fn table1_returns_all_four_policies() {
        let rows = table1_simulation(0);
        assert_eq!(rows.len(), 4);
        let names: Vec<&str> = rows.iter().map(|(m, _)| m.policy.as_str()).collect();
        assert!(names.contains(&"elastic"));
        assert!(names.contains(&"moldable"));
        assert!(names.contains(&"min_replicas"));
        assert!(names.contains(&"max_replicas"));
        for (m, out) in &rows {
            assert_eq!(m.jobs.len(), DEFAULT_JOBS);
            assert!(m.utilization > 0.2 && m.utilization <= 1.0);
            assert!(out.util.peak() > 0);
        }
    }
}
