//! Experiment sweeps (Figs. 7 & 8, Table 1 simulation column).
//!
//! Each sweep runs the four policies over many seeded random workloads
//! and averages the four metrics, exactly like the paper's §4.3.1
//! methodology (16 jobs, 100 repetitions).

use elastic_core::{Policy, PolicyConfig, PolicyKind, RunMetrics, SchedulingPolicy};
use hpc_metrics::{Duration, Summary};
use hpc_workload::{generate_workload, WorkloadSpec};

use crate::engine::{simulate, SimConfig, SimOutcome};
use crate::model::{OverheadModel, ScalingModel};

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
    Policy::of_kind(
        kind,
        PolicyConfig {
            rescale_gap: Duration::from_secs(rescale_gap_s),
            launcher_slots: 1,
            shrink_spares_head: true,
        },
    )
}

/// Runs one configuration over `seeds` workloads and averages.
pub fn averaged_point(
    kind: PolicyKind,
    submission_gap_s: f64,
    rescale_gap_s: f64,
    seeds: u64,
    n_jobs: usize,
    x: f64,
) -> SweepPoint {
    averaged_point_with_overhead(
        kind,
        submission_gap_s,
        rescale_gap_s,
        seeds,
        n_jobs,
        x,
        OverheadModel::default(),
    )
}

/// [`averaged_point`] under a caller-chosen rescale [`OverheadModel`]
/// — the knob behind the Fig. 8 incremental-protocol companion sweep.
pub fn averaged_point_with_overhead(
    kind: PolicyKind,
    submission_gap_s: f64,
    rescale_gap_s: f64,
    seeds: u64,
    n_jobs: usize,
    x: f64,
    overhead: OverheadModel,
) -> SweepPoint {
    let mut util = Vec::with_capacity(seeds as usize);
    let mut total = Vec::with_capacity(seeds as usize);
    let mut resp = Vec::with_capacity(seeds as usize);
    let mut comp = Vec::with_capacity(seeds as usize);
    let mut bsld = Vec::with_capacity(seeds as usize);
    for seed in 0..seeds {
        let workload =
            generate_workload(seed, n_jobs).spaced_every(Duration::from_secs(submission_gap_s));
        let cfg = SimConfig {
            overhead,
            ..SimConfig::paper_default(Box::new(policy_of(kind, rescale_gap_s)))
        };
        let out = simulate(&cfg, &workload);
        util.push(out.metrics.utilization);
        total.push(out.metrics.total_time);
        resp.push(out.metrics.weighted_response);
        comp.push(out.metrics.weighted_completion);
        bsld.push(out.metrics.mean_bounded_slowdown);
    }
    let mean = |v: &[f64]| Summary::of(v).expect("non-empty").mean;
    SweepPoint {
        x,
        policy: kind,
        utilization: mean(&util),
        total_time: mean(&total),
        weighted_response: mean(&resp),
        weighted_completion: mean(&comp),
        bounded_slowdown: mean(&bsld),
        total_time_std: Summary::of(&total).expect("non-empty").std_dev,
    }
}

/// Fig. 7: metrics vs submission gap (s), `T_rescale_gap` fixed.
pub fn sweep_submission_gap(
    gaps_s: &[f64],
    rescale_gap_s: f64,
    seeds: u64,
    n_jobs: usize,
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &gap in gaps_s {
        for kind in PolicyKind::ALL {
            out.push(averaged_point(kind, gap, rescale_gap_s, seeds, n_jobs, gap));
        }
    }
    out
}

/// Fig. 8: metrics vs `T_rescale_gap` (s), submission gap fixed.
pub fn sweep_rescale_gap(
    rescale_gaps_s: &[f64],
    submission_gap_s: f64,
    seeds: u64,
    n_jobs: usize,
) -> Vec<SweepPoint> {
    sweep_rescale_gap_with_overhead(
        rescale_gaps_s,
        submission_gap_s,
        seeds,
        n_jobs,
        OverheadModel::default(),
    )
}

/// [`sweep_rescale_gap`] under a caller-chosen [`OverheadModel`].
///
/// Passing [`OverheadModel::incremental`] produces the Fig. 8
/// companion: the same `T_rescale_gap` sweep with the in-place rescale
/// protocol, where cheaper rescales flatten elastic's total-time
/// penalty and keep its utilization edge at larger gaps.
pub fn sweep_rescale_gap_with_overhead(
    rescale_gaps_s: &[f64],
    submission_gap_s: f64,
    seeds: u64,
    n_jobs: usize,
    overhead: OverheadModel,
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &rgap in rescale_gaps_s {
        for kind in PolicyKind::ALL {
            out.push(averaged_point_with_overhead(
                kind,
                submission_gap_s,
                rgap,
                seeds,
                n_jobs,
                rgap,
                overhead,
            ));
        }
    }
    out
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

    /// The headline claims of Fig. 7 at moderate traffic, with a small
    /// seed count to keep test time low.
    #[test]
    fn elastic_wins_utilization_and_total_time() {
        let pts = sweep_submission_gap(&[90.0], 180.0, 8, DEFAULT_JOBS);
        let get = |k: PolicyKind| pts.iter().find(|p| p.policy == k).unwrap();
        let elastic = get(PolicyKind::Elastic);
        let moldable = get(PolicyKind::Moldable);
        let min = get(PolicyKind::RigidMin);
        let max = get(PolicyKind::RigidMax);
        assert!(
            elastic.utilization >= moldable.utilization,
            "elastic {} < moldable {}",
            elastic.utilization,
            moldable.utilization
        );
        assert!(min.utilization <= elastic.utilization);
        assert!(elastic.total_time <= moldable.total_time + 1e-9);
        assert!(elastic.total_time <= max.total_time + 1e-9);
        assert!(elastic.total_time <= min.total_time + 1e-9);
    }

    /// Fig. 7c: min_replicas has the lowest weighted response time.
    #[test]
    fn rigid_min_has_lowest_response_time() {
        let pts = sweep_submission_gap(&[90.0], 180.0, 8, DEFAULT_JOBS);
        let get = |k: PolicyKind| pts.iter().find(|p| p.policy == k).unwrap();
        let min = get(PolicyKind::RigidMin);
        for other in [PolicyKind::RigidMax, PolicyKind::Moldable] {
            assert!(
                min.weighted_response <= get(other).weighted_response + 1e-9,
                "min resp {} > {} resp {}",
                min.weighted_response,
                other,
                get(other).weighted_response
            );
        }
    }

    /// Fig. 7d: min_replicas has the highest completion time (slowest
    /// execution at minimum parallelism).
    #[test]
    fn rigid_min_has_highest_completion_time() {
        let pts = sweep_submission_gap(&[90.0], 180.0, 8, DEFAULT_JOBS);
        let get = |k: PolicyKind| pts.iter().find(|p| p.policy == k).unwrap();
        let min = get(PolicyKind::RigidMin);
        for other in [
            PolicyKind::Elastic,
            PolicyKind::Moldable,
            PolicyKind::RigidMax,
        ] {
            assert!(
                min.weighted_completion >= get(other).weighted_completion - 1e-9,
                "min comp {} < {} comp {}",
                min.weighted_completion,
                other,
                get(other).weighted_completion
            );
        }
    }

    /// Fig. 8: as T_rescale_gap grows, elastic converges to moldable
    /// ("the moldable scheduler is essentially the elastic scheduler
    /// that never rescales any job").
    #[test]
    fn elastic_converges_to_moldable_at_large_rescale_gap() {
        let pts = sweep_rescale_gap(&[10_000.0], 180.0, 6, DEFAULT_JOBS);
        let get = |k: PolicyKind| pts.iter().find(|p| p.policy == k).unwrap();
        let elastic = get(PolicyKind::Elastic);
        let moldable = get(PolicyKind::Moldable);
        assert!(
            (elastic.utilization - moldable.utilization).abs() < 1e-9,
            "util {} vs {}",
            elastic.utilization,
            moldable.utilization
        );
        assert!((elastic.total_time - moldable.total_time).abs() < 1e-9);
        assert!((elastic.weighted_completion - moldable.weighted_completion).abs() < 1e-9);
    }

    /// At very large submission gaps every scheduler converges: each
    /// job gets the whole cluster (Fig. 7b's right edge).
    #[test]
    fn total_times_converge_at_large_submission_gap() {
        let pts = sweep_submission_gap(&[2000.0], 180.0, 4, DEFAULT_JOBS);
        let get = |k: PolicyKind| pts.iter().find(|p| p.policy == k).unwrap();
        let e = get(PolicyKind::Elastic).total_time;
        let m = get(PolicyKind::Moldable).total_time;
        let x = get(PolicyKind::RigidMax).total_time;
        assert!((e - m).abs() / e < 0.02, "elastic {e} vs moldable {m}");
        assert!((e - x).abs() / e < 0.02, "elastic {e} vs rigid-max {x}");
        // rigid-min is the outlier: its (serial-tail) last job still
        // runs at min replicas, lagging by that job's slowdown.
        let mn = get(PolicyKind::RigidMin).total_time;
        assert!(
            mn > e + 100.0,
            "rigid-min {mn} should lag elastic {e} by the last job's slowdown"
        );
    }

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
