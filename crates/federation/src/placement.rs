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
//!
//! A routed job weighs on its shard's snapshot until its estimated end,
//! which is the same whichever shard it lands on. So the snapshots are
//! kept off one expiry timeline of the whole batch, sorted once before
//! the first placement and read by a cursor as arrivals advance
//! (`route`); they are bit-equal to what one min-heap of in-flight jobs
//! per shard would give, which the module's tests hold load by load.

use hpc_workload::JobSpec;

/// A deterministic snapshot of one shard's estimated load at a
/// placement instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Worker slots this shard's cluster owns.
    pub capacity: u32,
    /// Jobs routed here whose estimated end lies after the arrival of
    /// the job being placed. A job's estimated end is its arrival plus
    /// its walltime estimate, else its work over its maximum replica
    /// count.
    pub queue_depth: usize,
    /// Outstanding committed work (core-seconds) of those jobs: their
    /// work summed in routing order minus that of the jobs that left,
    /// in `(end, work)` order, and `0.0` whenever `queue_depth` is.
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
        let key = |load: &ShardLoad| {
            let capacity = f64::from(load.capacity.max(1));
            (
                total_key(load.queue_depth as f64 / capacity),
                total_key(load.committed_work / capacity),
                load.shard,
            )
        };
        let (first, rest) = loads.split_first().expect("at least one shard");
        // The first minimum of `key`, selected without a branch: which
        // shard wins changes from job to job, and a mispredicted branch
        // waits on the divisions above.
        let mut best = key(first);
        for load in rest {
            let next = key(load);
            let less = (next.0 < best.0)
                | ((next.0 == best.0)
                    & ((next.1 < best.1) | ((next.1 == best.1) & (next.2 < best.2))));
            best.0 = if less { next.0 } else { best.0 };
            best.1 = if less { next.1 } else { best.1 };
            best.2 = if less { next.2 } else { best.2 };
        }
        best.2
    }
}

/// `x` as an integer that orders as [`f64::total_cmp`] orders `x`.
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Estimated wall seconds a job will occupy its shard: the user's
/// walltime estimate when present, else work spread over the maximum
/// replica count (a crude but deterministic proxy).
fn estimated_runtime_s(job: &JobSpec) -> f64 {
    job.walltime_estimate
        .map(|d| d.as_secs())
        .unwrap_or_else(|| job.work() / f64::from(job.max_replicas().max(1)))
}

/// The instant a job's load leaves its shard's snapshot: its arrival
/// plus [`estimated_runtime_s`], whichever shard it lands on.
fn estimated_end_s(job: &JobSpec) -> f64 {
    job.arrival.as_secs() + estimated_runtime_s(job)
}

/// The high 32 bits of `x`'s [`total_key`], offset to order as an
/// unsigned integer: `a < b` under `total_cmp` implies
/// `coarse_key(a) <= coarse_key(b)`.
fn coarse_key(x: f64) -> u64 {
    (total_key(x) as u64 ^ 1 << 63) >> 32
}

/// The job index a timeline entry names (its low 32 bits).
fn entry_id(entry: u64) -> usize {
    entry as u32 as usize
}

/// Every job of the batch once, in `(estimated end, work, index)`
/// order under `total_cmp`: 8 bytes an entry, the end's
/// [`coarse_key`] above the job index. One unstable sort puts entries
/// whose coarse keys differ in order; each run of equal coarse keys is
/// then sorted on its jobs' exact `(end, work, index)`.
fn expiry_timeline(jobs: &[JobSpec]) -> Vec<u64> {
    let n = u32::try_from(jobs.len()).expect("a batch of at most u32::MAX jobs");
    let mut timeline: Vec<u64> = jobs
        .iter()
        .zip(0..n)
        .map(|(job, id)| coarse_key(estimated_end_s(job)) << 32 | u64::from(id))
        .collect();
    timeline.sort_unstable();
    for run in timeline.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        if run.len() > 1 {
            run.sort_unstable_by(|&a, &b| {
                let (job_a, job_b) = (&jobs[entry_id(a)], &jobs[entry_id(b)]);
                estimated_end_s(job_a)
                    .total_cmp(&estimated_end_s(job_b))
                    .then_with(|| job_a.work().total_cmp(&job_b.work()))
                    .then(a.cmp(&b))
            });
        }
    }
    timeline
}

/// Takes an expired job's work off its shard's snapshot.
fn expire(load: &mut ShardLoad, job: &JobSpec) {
    load.committed_work -= job.work();
    load.queue_depth -= 1;
    if load.queue_depth == 0 {
        load.committed_work = 0.0; // cancel float drift on idle
    }
}

/// Routes every job of `jobs` (arrival order) to one of the shards
/// whose slot counts are `capacities`: one `placement.place` call per
/// job against the [`ShardLoad`] snapshots at its arrival. Returns the
/// per-job shard index (job order).
///
/// A job routed to a shard stays in that shard's snapshot until its
/// estimated end, an instant that does not depend on the shard. So the
/// batch's expiries are one timeline, sorted once before the first
/// placement, and a cursor walks it as arrivals advance: before job
/// *k* is placed at `now`, every entry with `end <= now` whose job is
/// already placed leaves its shard, in timeline order — per shard, the
/// order a min-heap of `(end, work)` would pop them, and entries that
/// tie on both subtract the same work, so every snapshot is bit-equal
/// to one such heap per shard. An entry the cursor passes before its
/// job is placed (an end that rounds onto its own arrival, a
/// same-instant burst) is held and leaves at the first arrival at or
/// after its end once its job is placed, ahead of the cursor's
/// entries, which all come later in the timeline.
///
/// # Panics
/// If `placement` routes a job out of range.
pub(crate) fn route(
    jobs: &[JobSpec],
    capacities: &[u32],
    placement: &mut dyn PlacementPolicy,
) -> Vec<usize> {
    let shards = capacities.len();
    // The assignment is allocated before the timeline, so the timeline
    // can be freed back into the space the partition then fills.
    let mut assignment: Vec<usize> = Vec::with_capacity(jobs.len());
    let mut loads: Vec<ShardLoad> = capacities
        .iter()
        .enumerate()
        .map(|(shard, &capacity)| ShardLoad {
            shard,
            capacity,
            queue_depth: 0,
            committed_work: 0.0,
        })
        .collect();
    let timeline = expiry_timeline(jobs);
    let mut cursor = 0;
    let mut held: Vec<u32> = Vec::new();
    for (k, job) in jobs.iter().enumerate() {
        let now_s = job.arrival.as_secs();
        if !held.is_empty() {
            held.retain(|&id| {
                let id = id as usize;
                let due = id < k && estimated_end_s(&jobs[id]) <= now_s;
                if due {
                    expire(&mut loads[assignment[id]], &jobs[id]);
                }
                !due
            });
        }
        while let Some(&entry) = timeline.get(cursor) {
            let id = entry_id(entry);
            if estimated_end_s(&jobs[id]) > now_s {
                break;
            }
            cursor += 1;
            if id < k {
                expire(&mut loads[assignment[id]], &jobs[id]);
            } else {
                held.push(id as u32);
            }
        }
        let shard = placement.place(job, &loads);
        assert!(
            shard < shards,
            "placement routed job {} to shard {shard} of a {shards}-shard federation",
            job.name
        );
        let load = &mut loads[shard];
        load.committed_work += job.work();
        load.queue_depth += 1;
        assignment.push(shard);
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_metrics::Duration;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn job(name: &str, work: f64) -> JobSpec {
        JobSpec::malleable(name, 1, 4, work, 1)
    }

    /// An in-flight job of the reference: estimated completion instant
    /// plus committed work, ordered by completion for the expiry heap.
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
            self.finish_s
                .total_cmp(&other.finish_s)
                .then_with(|| self.work.total_cmp(&other.work))
        }
    }

    /// The reference model of [`route`]'s snapshots: one min-heap of
    /// in-flight jobs per shard, popped as the arrival cursor advances.
    struct LoadTracker {
        loads: Vec<ShardLoad>,
        inflight: Vec<std::collections::BinaryHeap<std::cmp::Reverse<InFlight>>>,
    }

    impl LoadTracker {
        fn new(capacities: &[u32]) -> LoadTracker {
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

        /// Expires every job whose estimated completion is at or
        /// before `now_s`.
        fn advance_to(&mut self, now_s: f64) {
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
                    load.committed_work = 0.0;
                }
            }
        }

        /// Records that `job` (arriving at `now_s`) was routed to
        /// `shard`.
        fn commit(&mut self, shard: usize, job: &JobSpec, now_s: f64) {
            let work = job.work();
            self.inflight[shard].push(std::cmp::Reverse(InFlight {
                finish_s: now_s + estimated_runtime_s(job),
                work,
            }));
            self.loads[shard].committed_work += work;
            self.loads[shard].queue_depth = self.inflight[shard].len();
        }
    }

    /// Wraps a policy: at every `place` call, advances the heap
    /// reference to the job's arrival, records the first snapshot that
    /// is not bit-equal to the reference's, and records the pick.
    struct AgainstHeaps {
        inner: Box<dyn PlacementPolicy>,
        reference: LoadTracker,
        picks: Vec<usize>,
        mismatch: Option<String>,
    }

    impl PlacementPolicy for AgainstHeaps {
        fn place(&mut self, job: &JobSpec, loads: &[ShardLoad]) -> usize {
            let now_s = job.arrival.as_secs();
            self.reference.advance_to(now_s);
            let bits = |loads: &[ShardLoad]| -> Vec<(usize, u32, usize, u64)> {
                loads
                    .iter()
                    .map(|l| {
                        (
                            l.shard,
                            l.capacity,
                            l.queue_depth,
                            l.committed_work.to_bits(),
                        )
                    })
                    .collect()
            };
            if self.mismatch.is_none() && bits(loads) != bits(&self.reference.loads) {
                self.mismatch = Some(format!(
                    "call {} ({}): router {loads:?}, heaps {:?}",
                    self.picks.len(),
                    job.name,
                    self.reference.loads
                ));
            }
            let shard = self.inner.place(job, loads);
            self.reference.commit(shard, job, now_s);
            self.picks.push(shard);
            shard
        }
    }

    /// Records the snapshot each `place` call is shown.
    struct Snapshots<P> {
        inner: P,
        seen: Vec<Vec<ShardLoad>>,
    }

    impl<P: PlacementPolicy> PlacementPolicy for Snapshots<P> {
        fn place(&mut self, job: &JobSpec, loads: &[ShardLoad]) -> usize {
            self.seen.push(loads.to_vec());
            self.inner.place(job, loads)
        }
    }

    /// Routes the first jobs to the listed shards, the rest by `then`.
    struct Scripted<P> {
        picks: Vec<usize>,
        then: P,
    }

    impl<P: PlacementPolicy> PlacementPolicy for Scripted<P> {
        fn place(&mut self, job: &JobSpec, loads: &[ShardLoad]) -> usize {
            if self.picks.is_empty() {
                self.then.place(job, loads)
            } else {
                self.picks.remove(0)
            }
        }
    }

    #[test]
    fn round_robin_rotates() {
        let jobs: Vec<JobSpec> = (0..7).map(|i| job(&format!("j{i}"), 10.0)).collect();
        let picks = route(&jobs, &[8, 8, 8], &mut RoundRobin::new());
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_tracks_expiring_work() {
        // a ties everywhere, so the lowest index wins; b, at the same
        // instant, finds shard 0 busy; by t=50 a (end 10) has expired
        // and b (end 100) has not.
        let jobs = vec![
            job("a", 40.0).with_walltime_estimate(Duration::from_secs(10.0)),
            job("b", 40.0).with_walltime_estimate(Duration::from_secs(100.0)),
            job("c", 40.0).at(Duration::from_secs(50.0)),
        ];
        let mut ll = Snapshots {
            inner: LeastLoaded::new(),
            seen: Vec::new(),
        };
        assert_eq!(route(&jobs, &[8, 8], &mut ll), vec![0, 1, 0]);
        let at_c = &ll.seen[2];
        assert_eq!(at_c[0].queue_depth, 0);
        assert_eq!(at_c[0].committed_work, 0.0);
        assert_eq!(at_c[1].queue_depth, 1);
        assert_eq!(at_c[1].committed_work, 40.0);
    }

    #[test]
    fn least_loaded_normalizes_by_capacity() {
        // 2 queued on 32 slots is lighter than 1 queued on 8.
        let jobs: Vec<JobSpec> = ["w0", "w1", "x", "y"]
            .iter()
            .map(|name| job(name, 10.0))
            .collect();
        let mut policy = Snapshots {
            inner: Scripted {
                picks: vec![1, 1, 0],
                then: LeastLoaded::new(),
            },
            seen: Vec::new(),
        };
        assert_eq!(route(&jobs, &[8, 32], &mut policy), vec![1, 1, 0, 1]);
        let at_y: Vec<usize> = policy.seen[3].iter().map(|l| l.queue_depth).collect();
        assert_eq!(at_y, vec![1, 2]);
    }

    #[test]
    fn least_loaded_picks_the_first_minimum_under_total_cmp() {
        // The branch-free selection against the comparison it replaced,
        // on snapshots full of ties: equal depths, equal works, -0.0,
        // zero capacities, shard indices out of order (a policy may
        // show it a sub-slice).
        let reference = |loads: &[ShardLoad]| {
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
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let works = [0.0, -0.0, 1.0, 2.5, 1e-300, 7.0, 1e300];
        for _ in 0..20_000 {
            let n = rng.gen_range(1..6usize);
            let mut shards: Vec<usize> = (0..n).map(|_| rng.gen_range(0..8usize)).collect();
            shards.dedup();
            let loads: Vec<ShardLoad> = shards
                .iter()
                .map(|&shard| ShardLoad {
                    shard,
                    capacity: [0, 1, 2, 8, 32][rng.gen_range(0..5usize)],
                    queue_depth: rng.gen_range(0..4usize),
                    committed_work: works[rng.gen_range(0..works.len())],
                })
                .collect();
            assert_eq!(
                LeastLoaded.place(&job("j", 1.0), &loads),
                reference(&loads),
                "{loads:?}"
            );
        }
    }

    proptest! {
        /// The router shows every `place` call a snapshot bit-equal to
        /// the per-shard heaps' and returns the picks in job order, on
        /// arrival-sorted batches with same-instant bursts, equal ends
        /// of unequal work, estimates too small to move the end off the
        /// arrival, jobs with no estimate and unequal capacities, under
        /// both built-in policies; and on batches whose arrivals are
        /// not sorted.
        #[test]
        fn the_router_equals_the_heaps_load_by_load(seed in any::<u64>()) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(1..120usize);
            // Arrivals far from zero, so that a 1e-12 s estimate rounds
            // away; about half of them repeat the previous instant.
            let mut at = 1.0e6;
            let mut jobs: Vec<JobSpec> = (0..n)
                .map(|i| {
                    if rng.gen_bool(0.5) {
                        at += f64::from(rng.gen_range(1u32..20));
                    }
                    let work = [1.0, 2.0, 3.0, 8.0, 0.1][rng.gen_range(0..5usize)];
                    let max = rng.gen_range(1u32..5);
                    let spec = JobSpec::malleable(format!("j{i:03}"), 1, max, work, 1)
                        .at(Duration::from_secs(at));
                    match rng.gen_range(0..4u32) {
                        0 => spec,
                        1 => spec.with_walltime_estimate(Duration::from_secs(1e-12)),
                        2 => spec.with_walltime_estimate(Duration::from_secs(0.0)),
                        _ => spec.with_walltime_estimate(Duration::from_secs(f64::from(
                            rng.gen_range(1u32..30),
                        ))),
                    }
                })
                .collect();
            // A quarter of the batches swap some neighbours' arrivals:
            // `submit` routes such a batch (its workers reject it), and
            // an arrival earlier than the last one expires nothing.
            if rng.gen_bool(0.25) {
                for _ in 0..n / 4 {
                    let i = rng.gen_range(0..n);
                    let j = (i + 1).min(n - 1);
                    let (early, late) = (jobs[i].arrival, jobs[j].arrival);
                    jobs[i].arrival = late;
                    jobs[j].arrival = early;
                }
            }
            let shards = rng.gen_range(1..5usize);
            let capacities: Vec<u32> = (0..shards).map(|_| rng.gen_range(1u32..64)).collect();
            let policies: [fn() -> Box<dyn PlacementPolicy>; 2] =
                [|| Box::new(LeastLoaded::new()), || Box::new(RoundRobin::new())];
            for policy in policies {
                let mut checked = AgainstHeaps {
                    inner: policy(),
                    reference: LoadTracker::new(&capacities),
                    picks: Vec::new(),
                    mismatch: None,
                };
                let routed = route(&jobs, &capacities, &mut checked);
                prop_assert!(checked.mismatch.is_none(), "{}", checked.mismatch.unwrap_or_default());
                prop_assert_eq!(routed, checked.picks);
            }
        }
    }
}
