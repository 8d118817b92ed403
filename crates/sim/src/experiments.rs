//! The heavy-traffic scale scenario: a trace-scale cloud pool rather
//! than the paper's 64-vCPU testbed, the multi-thousand-job
//! trace-replay regime of Zojer et al. `tests/replay_counters.rs` pins
//! the work such a replay does, and the `benchmark/` package times it.

use hpc_metrics::Duration;
use hpc_workload::{generate_workload, WorkloadSpec};

/// Cluster capacity of the heavy-traffic scale scenario.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig, SimOutcome};
    use elastic_core::{FcfsBackfill, Policy, PolicyConfig, SchedulingPolicy};
    use hpc_workload::model::{OverheadModel, ScalingModel};

    /// `workload` on a [`SCALE_CAPACITY`]-slot cluster under the
    /// default models.
    fn replay(policy: Box<dyn SchedulingPolicy>, workload: &WorkloadSpec) -> SimOutcome {
        let cfg = SimConfig {
            capacity: SCALE_CAPACITY,
            policy,
            scaling: ScalingModel::default(),
            overhead: OverheadModel::default(),
            cancellations: Vec::new(),
        };
        simulate(&cfg, workload)
    }

    fn elastic() -> Box<dyn SchedulingPolicy> {
        Box::new(Policy::elastic(PolicyConfig::default()))
    }

    /// The trace-scale scenario: every job of a large heavy-traffic
    /// replay completes, utilization is production-like, and the event
    /// queue stays bounded.
    #[test]
    fn heavy_traffic_run_replays_trace_scale_workloads() {
        let n = 500;
        let workload = heavy_traffic_workload(0, n);
        let out = replay(elastic(), &workload);
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
        let fcfs = replay(Box::new(FcfsBackfill::new()), &workload);
        assert_eq!(fcfs.metrics.jobs.len(), n);
        assert_eq!(fcfs.rescales, 0);
    }

    /// A Poisson (trace-shaped) arrival process at the scenario's mean
    /// gap drives the identical scale cluster as the fixed-gap workload.
    #[test]
    fn heavy_traffic_replay_takes_arbitrary_workloads() {
        use hpc_workload::poisson_workload;
        let n = 400;
        let wl = poisson_workload(0, n, Duration::from_secs(SCALE_SUBMISSION_GAP_S));
        let out = replay(elastic(), &wl);
        assert_eq!(out.metrics.jobs.len(), n, "every job completes");
        assert!(out.metrics.utilization > 0.3 && out.metrics.utilization <= 1.0);
        assert!(out.metrics.mean_bounded_slowdown >= 1.0);
        // Determinism across replays of the same workload.
        let again = replay(elastic(), &wl);
        assert_eq!(out.metrics, again.metrics);
        // The fixed-gap scenario is one more workload through that path.
        let fixed = replay(elastic(), &heavy_traffic_workload(0, n));
        assert_eq!(fixed.metrics.jobs.len(), n);
    }
}
