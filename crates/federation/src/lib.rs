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
//!   load snapshots. Built-ins: [`RoundRobin`], [`LeastLoaded`].
//! * **Scheduling** (`elastic_core::SchedulingPolicy`) — which *slots*
//!   inside a cluster, decided per shard by that shard's own policy
//!   instance, unchanged from the single-cluster simulator.
//! * **Execution** ([`FederationRuntime`]) — `submit()` only routes
//!   and partitions; `start()` replays the batch on scoped worker
//!   threads: a worker claims the next shard, builds its simulation
//!   from the shard's slice of the trace, drains it to the end,
//!   finishes it into the shard's outcome and drops the slice, then
//!   claims another, and exits when none is left. The batch is closed
//!   (one submission, routed before any worker runs), so `start()`
//!   returns only once every shard is finished, re-raising the first
//!   worker's panic — an unreplayable slice of the workload panics
//!   there, when its worker validates it — and `join()` only merges.
//!
//! A job's name is one shared `Arc<str>` from the submitted workload
//! through the shards' slices to every outcome, merged or per-shard:
//! a replay copies no name.
//!
//! Determinism is the design invariant: placement is a single-threaded
//! pre-pass, shards share no mutable state, and each shard is replayed
//! by exactly one worker — so the outcome is a pure function of
//! (workload, shard configs, placement policy), never of worker count
//! or thread interleaving. A 1-shard federation reproduces
//! `sched_sim::simulate` bit-for-bit.
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
//! use sched_sim::{OverheadModel, ScalingModel, SimConfig};
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
//! let mut fed = FederationRuntime::new(FederationConfig::new(3).with_workers(2), |_| SimConfig {
//!     capacity: 64,
//!     policy: Box::new(Policy::elastic(PolicyConfig::default())),
//!     scaling: ScalingModel::default(),
//!     overhead: OverheadModel::default(),
//!     cancellations: Vec::new(),
//! });
//! let assignment = fed.submit(
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
mod runtime;

pub use placement::{LeastLoaded, PlacementPolicy, RoundRobin, ShardLoad};
pub use runtime::{FederationConfig, FederationOutcome, FederationRuntime};
