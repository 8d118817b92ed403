//! Cross-shard placement policies.
//!
//! When a workload is submitted to a federation, each job is routed to
//! exactly one shard (cluster) by a [`PlacementPolicy`] — the
//! federation-level analogue of `elastic_core::SchedulingPolicy`, one
//! layer up: the scheduling policy decides *which slots inside a
//! cluster*, the placement policy decides *which cluster at all*.
//!
//! Placement happens at submit time, walking jobs in arrival order
//! against a deterministic [`ShardLoad`] snapshot per shard (queue
//! depth and committed work estimated from walltime annotations — no
//! simulation state, no wall clock), so the produced assignment is a
//! pure function of the workload. That is what keeps a parallel replay
//! reproducible: the partition is fixed before any worker thread runs.

use hpc_workload::JobSpec;

/// A deterministic snapshot of one shard's estimated load at a
/// placement instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Worker slots this shard's cluster owns.
    pub capacity: u32,
    /// Jobs routed here whose estimated completion lies in the future.
    pub queue_depth: usize,
    /// Outstanding committed work (core-seconds) of those jobs.
    pub committed_work: f64,
}

/// Routes each submitted job to a shard.
///
/// Implementations must be deterministic functions of the job and the
/// load snapshot (plus their own internal state fed only by prior
/// `place` calls) — never of wall-clock time — so that a replay
/// partitions identically regardless of worker count.
pub trait PlacementPolicy: Send {
    /// Chooses a shard index (`< loads.len()`) for `job`.
    fn place(&mut self, job: &JobSpec, loads: &[ShardLoad]) -> usize;
}

/// Round-robin placement: job *k* goes to shard `k mod n`.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A fresh rotation starting at shard 0.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl PlacementPolicy for RoundRobin {
    fn place(&mut self, _job: &JobSpec, loads: &[ShardLoad]) -> usize {
        let shard = self.next % loads.len();
        self.next = (self.next + 1) % loads.len();
        shard
    }
}

/// Least-loaded placement: the shard with the fewest estimated
/// in-flight jobs per slot wins; committed work per slot breaks ties,
/// then the lowest index (fully deterministic).
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// The greedy load balancer.
    pub fn new() -> LeastLoaded {
        LeastLoaded
    }
}

impl PlacementPolicy for LeastLoaded {
    fn place(&mut self, _job: &JobSpec, loads: &[ShardLoad]) -> usize {
        loads
            .iter()
            .min_by(|a, b| {
                let depth_a = a.queue_depth as f64 / f64::from(a.capacity.max(1));
                let depth_b = b.queue_depth as f64 / f64::from(b.capacity.max(1));
                depth_a
                    .total_cmp(&depth_b)
                    .then_with(|| {
                        let work_a = a.committed_work / f64::from(a.capacity.max(1));
                        let work_b = b.committed_work / f64::from(b.capacity.max(1));
                        work_a.total_cmp(&work_b)
                    })
                    .then_with(|| a.shard.cmp(&b.shard))
            })
            .expect("at least one shard")
            .shard
    }
}

/// An in-flight job: estimated completion instant plus committed work,
/// ordered by completion for the expiry heap.
#[derive(Debug, PartialEq)]
struct InFlight {
    finish_s: f64,
    work: f64,
}

impl Eq for InFlight {}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via Reverse at the call site; total_cmp keeps this a
        // total order even for degenerate float estimates.
        self.finish_s
            .total_cmp(&other.finish_s)
            .then_with(|| self.work.total_cmp(&other.work))
    }
}

/// Maintains the deterministic [`ShardLoad`] snapshots a submission
/// pass feeds to the placement policy: jobs expire off a per-shard
/// min-heap at their estimated completion instants as the arrival
/// cursor advances.
pub(crate) struct LoadTracker {
    loads: Vec<ShardLoad>,
    inflight: Vec<std::collections::BinaryHeap<std::cmp::Reverse<InFlight>>>,
}

impl LoadTracker {
    pub(crate) fn new(capacities: &[u32]) -> LoadTracker {
        LoadTracker {
            loads: capacities
                .iter()
                .enumerate()
                .map(|(shard, &capacity)| ShardLoad {
                    shard,
                    capacity,
                    queue_depth: 0,
                    committed_work: 0.0,
                })
                .collect(),
            inflight: capacities.iter().map(|_| Default::default()).collect(),
        }
    }

    /// Estimated wall seconds a job will occupy its shard: the user's
    /// walltime estimate when present, else work spread over the
    /// maximum replica count (a crude but deterministic proxy).
    fn estimated_runtime_s(job: &JobSpec) -> f64 {
        job.walltime_estimate
            .map(|d| d.as_secs())
            .unwrap_or_else(|| job.work() / f64::from(job.max_replicas().max(1)))
    }

    /// Expires every job whose estimated completion is at or before
    /// `now_s`.
    pub(crate) fn advance_to(&mut self, now_s: f64) {
        for (load, heap) in self.loads.iter_mut().zip(&mut self.inflight) {
            while let Some(std::cmp::Reverse(head)) = heap.peek() {
                if head.finish_s > now_s {
                    break;
                }
                load.committed_work -= head.work;
                heap.pop();
            }
            load.queue_depth = heap.len();
            if load.queue_depth == 0 {
                load.committed_work = 0.0; // cancel float drift on idle
            }
        }
    }

    /// Records that `job` (arriving at `now_s`) was routed to `shard`.
    pub(crate) fn commit(&mut self, shard: usize, job: &JobSpec, now_s: f64) {
        let work = job.work();
        self.inflight[shard].push(std::cmp::Reverse(InFlight {
            finish_s: now_s + Self::estimated_runtime_s(job),
            work,
        }));
        self.loads[shard].committed_work += work;
        self.loads[shard].queue_depth = self.inflight[shard].len();
    }

    pub(crate) fn loads(&self) -> &[ShardLoad] {
        &self.loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_metrics::Duration;

    fn job(name: &str, work: f64) -> JobSpec {
        JobSpec::malleable(name, 1, 4, work, 1)
    }

    #[test]
    fn round_robin_rotates() {
        let caps = [8, 8, 8];
        let tracker = LoadTracker::new(&caps);
        let mut rr = RoundRobin::new();
        let picks: Vec<usize> = (0..7)
            .map(|i| rr.place(&job(&format!("j{i}"), 10.0), tracker.loads()))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_tracks_expiring_work() {
        let mut tracker = LoadTracker::new(&[8, 8]);
        let mut ll = LeastLoaded::new();
        // First job: ties everywhere, lowest index wins.
        let a = job("a", 40.0).with_walltime_estimate(Duration::from_secs(10.0));
        assert_eq!(ll.place(&a, tracker.loads()), 0);
        tracker.commit(0, &a, 0.0);
        // Second job at t=0: shard 0 busy, shard 1 empty.
        let b = job("b", 40.0).with_walltime_estimate(Duration::from_secs(100.0));
        assert_eq!(ll.place(&b, tracker.loads()), 1);
        tracker.commit(1, &b, 0.0);
        // At t=50 job a (finish 10) expired, job b (finish 100) not.
        tracker.advance_to(50.0);
        assert_eq!(tracker.loads()[0].queue_depth, 0);
        assert_eq!(tracker.loads()[0].committed_work, 0.0);
        assert_eq!(tracker.loads()[1].queue_depth, 1);
        let c = job("c", 40.0);
        assert_eq!(ll.place(&c, tracker.loads()), 0);
    }

    #[test]
    fn least_loaded_normalizes_by_capacity() {
        // 2 queued on 32 slots is lighter than 1 queued on 8.
        let mut tracker = LoadTracker::new(&[8, 32]);
        for i in 0..2 {
            tracker.commit(1, &job(&format!("w{i}"), 10.0), 0.0);
        }
        tracker.commit(0, &job("x", 10.0), 0.0);
        let mut ll = LeastLoaded::new();
        assert_eq!(ll.place(&job("y", 10.0), tracker.loads()), 1);
    }
}
