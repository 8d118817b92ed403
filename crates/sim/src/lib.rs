//! # sched-sim — the scheduling-policy simulator (paper artifact A2)
//!
//! A deterministic discrete-event simulator that evaluates the four
//! scheduling policies (elastic, moldable, rigid-min, rigid-max) over
//! randomized 16-job workloads, using piecewise-linear strong-scaling
//! and rescale-overhead models exactly as described in §4.3.1 of the
//! paper. Crucially, the policy implementation is **shared with the
//! live operator** (`elastic_core::Policy`), so the Simulation and
//! Actual columns of Table 1 exercise the same decision code.
//!
//! ## The raw-speed DES core
//!
//! The replay loop is built for million-job traces; three layers keep
//! the per-event cost flat as traces grow:
//!
//! * **Calendar event queue** ([`events`]) — events live in a sorted
//!   current bucket (drained by cursor), an array of unsorted future
//!   piles, and a far list beyond the current epoch; `push` and `pop`
//!   are O(1) amortized, with the far list re-bucketized lazily on
//!   epoch advance. Pop order is *exactly* the old binary heap's
//!   `(timestamp, insertion seq)` order, so replays stay
//!   bit-identical. Stale completions (superseded by a rescale) are
//!   tombstoned in place and swept by per-bucket compaction once they
//!   dominate the queue.
//! * **Struct-of-arrays job storage** (`elastic_core::view`) — the
//!   `ClusterView` behind every policy decision stores jobs as a
//!   packed arena: one 32-byte hot row per job (replica bounds,
//!   priority, live replicas, last action, flags) that policy scans
//!   touch with a single cache line, and cold columns (submission
//!   time, walltime estimate) off the scan path.
//! * **Batched policy invocation** ([`engine`]) — all events at one
//!   instant drain into a burst: the scheduling kernel
//!   (`elastic_core::kernel`, shared with the operator) hands the
//!   policy one driver and pulls the whole same-timestamp batch off the
//!   queue through it, with actions applied per admission so decision
//!   state is identical to the one-event-at-a-time sequence.
//!
//! The work a replay does — events popped, rescales applied — is
//! pinned exactly by `tests/replay_counters.rs`; its wall time is the
//! `des-elastic-400k` workload of the `benchmark/` package.
//!
//! ## Modules
//!
//! * [`events`] — calendar event queue with stale-completion
//!   invalidation and epoch re-bucketizing.
//! * [`model`] — re-exports `hpc_workload::model`: strong-scaling
//!   curves and overhead stages over the workload layer's size classes
//!   and job shapes (a memoized per-class rate cache on the replay hot
//!   path) and the `Progress` integrator — the execution model the
//!   operator's `ModelExecutor` shares.
//! * [`engine`] — the event queue around the scheduling kernel and
//!   that execution model, replaying a `WorkloadSpec`'s own per-job
//!   arrival and cancellation times.
//! * [`experiments`] — the Fig. 7 / Fig. 8 sweeps, Table 1 rows and
//!   the parameterized heavy-traffic replay.

#![warn(missing_docs)]

pub mod engine;
pub mod events;
pub mod experiments;
pub mod model;

pub use engine::{simulate, SimConfig, SimOutcome, SimState};
pub use experiments::{
    averaged_point, averaged_point_with_overhead, heavy_traffic_replay, heavy_traffic_workload,
    sweep_rescale_gap, sweep_rescale_gap_with_overhead, sweep_submission_gap, table1_simulation,
    SweepPoint, DEFAULT_JOBS, DEFAULT_SEEDS,
};
pub use hpc_workload::{
    generate_workload, load_workload, poisson_workload, FaultEvent, FaultKind, FaultSpec,
    FlakyEvent, FlakyOp, FlakySpec, JobSpec, MalleabilityModel, SwfError, SwfLoadConfig,
    WorkloadError, WorkloadSpec,
};
pub use model::{JobShape, OverheadBreakdown, OverheadModel, ScalingModel, SizeClass};
