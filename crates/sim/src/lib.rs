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
//! ## Modules
//!
//! The replay loop is built for million-job traces:
//!
//! * [`events`] — the event queue: a binary heap of what the run
//!   creates, merged with cursors that read the workload's sorted
//!   arrivals and faults in place. It pops in one total order,
//!   `(time, EventClass, JobId, insertion)`: the kernel's
//!   within-instant order, which the operator's tick applies too. Stale
//!   completions (superseded by a rescale) are swept once more than
//!   half of what is pending is stale.
//! * [`engine`] — the event queue around the scheduling kernel
//!   (`elastic_core::kernel`, shared with the operator: one policy
//!   dispatch per same-instant burst) and the execution model of
//!   `hpc_workload::model` (the `Progress` integrator the operator's
//!   `ModelExecutor` shares), replaying a `WorkloadSpec`'s own per-job
//!   arrival and cancellation times.
//! * [`experiments`] — the heavy-traffic scale scenario the frozen
//!   `benchmark/` package replays: its capacity, submission gap and
//!   workload. The paper's own campaign (Figs. 7 and 8, Table 1) is
//!   `elastic_hpc::scenario::Scenario::campaign`, replayed by
//!   `elastic-bench`.
//!
//! The work a replay does — events popped, rescales applied — is
//! pinned exactly by `tests/replay_counters.rs`; its wall time is the
//! `des-elastic-400k` workload of the `benchmark/` package.

#![warn(missing_docs)]

pub mod engine;
pub mod events;
pub mod experiments;

pub use engine::{simulate, SimConfig, SimOutcome, SimState};
pub use experiments::heavy_traffic_workload;
pub use hpc_workload::{OverheadModel, ScalingModel};
