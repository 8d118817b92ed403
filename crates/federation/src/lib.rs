//! # hpc-federation — sharded multi-cluster federation
//!
//! Replays one [`WorkloadSpec`](hpc_workload::WorkloadSpec) across *N*
//! independent cluster simulations ("shards") driven in parallel by
//! *M* worker OS threads — the DES analogue of a federated scheduler
//! front-end routing jobs to member clusters.
//!
//! The layer decomposes exactly like a federated deployment does:
//!
//! * **Placement** ([`PlacementPolicy`]) — which *cluster* gets each
//!   job, decided once at submit time against deterministic per-shard
//!   load snapshots. Built-ins: [`RoundRobin`], [`LeastLoaded`],
//!   [`HashByUser`].
//! * **Scheduling** (`elastic_core::SchedulingPolicy`) — which *slots*
//!   inside a cluster, decided per shard by that shard's own policy
//!   instance, unchanged from the single-cluster simulator.
//! * **Execution** ([`FederationRuntime`]) — one FIFO run queue of
//!   shard indices: a worker pops the front shard, drains at most one
//!   *quantum* of events, and pushes the shard back at the tail while
//!   it has events left, so a hot shard cannot starve the rest. The
//!   batch is closed (one submission, seeded before any worker runs),
//!   so a worker that finds the queue empty exits — every unfinished
//!   shard is in another worker's hands — and `join()` is joining the
//!   worker threads; a worker's panic is re-raised there once all are
//!   reaped.
//! * **Resilience** ([`ShardBreakerBoard`]) — one circuit breaker per
//!   shard, fed by that shard's transient-fault schedule. Routed via
//!   [`FederationHandle::submit_resilient`], an open-breaker shard
//!   advertises worst-case load so [`LeastLoaded`] (and any other
//!   load-sensitive policy) stops sending it submits until the breaker
//!   half-opens.
//!
//! Determinism is the design invariant: placement is a single-threaded
//! pre-pass, shards share no mutable state, and quantum-sliced
//! stepping is bit-identical to a monolithic drain — so the outcome is
//! a pure function of (workload, shard configs, placement policy),
//! never of worker count or thread interleaving. A 1-shard federation
//! reproduces `sched_sim::simulate` bit-for-bit.
//!
//! ## Writing a placement policy
//!
//! A [`PlacementPolicy`] sees each job (in arrival order) plus a
//! [`ShardLoad`] snapshot per shard, and names the shard. Here is a
//! priority-tier router that reserves shard 0 for urgent jobs and
//! greedily balances everything else across the rest:
//!
//! ```
//! use hpc_federation::{
//!     FederationConfig, FederationRuntime, LeastLoaded, PlacementPolicy, ShardLoad,
//! };
//! use hpc_metrics::Duration;
//! use hpc_workload::{JobSpec, WorkloadSpec};
//! use sched_sim::SimConfig;
//! use elastic_core::{Policy, PolicyConfig};
//!
//! /// Priority >= `urgent` goes to the reserved shard 0; the rest are
//! /// least-loaded balanced over shards 1..N.
//! struct PriorityTier {
//!     urgent: u32,
//!     spill: LeastLoaded,
//! }
//!
//! impl PlacementPolicy for PriorityTier {
//!     fn name(&self) -> String {
//!         format!("priority_tier(>={})", self.urgent)
//!     }
//!
//!     fn place(&mut self, job: &JobSpec, loads: &[ShardLoad]) -> usize {
//!         if job.priority >= self.urgent || loads.len() == 1 {
//!             return 0;
//!         }
//!         // Balance over the non-reserved shards only.
//!         self.spill.place(job, &loads[1..])
//!     }
//! }
//!
//! let jobs: Vec<JobSpec> = (0..12)
//!     .map(|i| {
//!         JobSpec::malleable(format!("job{i:02}"), 1, 4, 30.0, 1 + (i % 5) as u32)
//!             .at(Duration::from_secs(i as f64))
//!     })
//!     .collect();
//! let workload = WorkloadSpec::new(jobs);
//!
//! let mut fed = FederationRuntime::new(FederationConfig::new(3).with_workers(2), |_| {
//!     SimConfig::paper_default(Box::new(Policy::elastic(PolicyConfig::default())))
//! });
//! let assignment = fed.handle().submit(
//!     &workload,
//!     &mut PriorityTier { urgent: 4, spill: LeastLoaded::new() },
//! );
//!
//! // Urgent jobs (priority 4 and 5) landed on the reserved shard...
//! for (job, &shard) in workload.jobs.iter().zip(&assignment) {
//!     assert_eq!(shard == 0, job.priority >= 4);
//! }
//!
//! fed.start();
//! let outcome = fed.join();
//! assert_eq!(outcome.merged.jobs.len(), 12);
//! ```
//!
//! ## Replaying a trace across shards
//!
//! See `examples/federation.rs` for an end-to-end replay of the
//! bundled SWF trace across four shards with a per-shard utilization
//! table. `tests/replay_counters.rs` pins the events a 20 000-job
//! trace costs at 1/2/4/8 shards, for any worker count.

#![warn(missing_docs)]

mod placement;
mod resilience;
mod runtime;

pub use elastic_resilience::BreakerState;
pub use placement::{HashByUser, LeastLoaded, PlacementPolicy, RoundRobin, ShardLoad};
pub use resilience::ShardBreakerBoard;
pub use runtime::{
    BatchedSubmission, FederationConfig, FederationHandle, FederationOutcome, FederationRuntime,
};
