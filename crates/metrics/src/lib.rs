//! Shared measurement infrastructure for the `elastic-hpc` workspace.
//!
//! This crate is dependency-light on purpose: every other crate in the
//! workspace (the Charm++-like runtime, the simulated Kubernetes control
//! plane, the scheduler and the discrete-event simulator) builds on the
//! same notion of time, the same interpolation utilities and the same
//! metric definitions, so that "actual" (wall-clock) and "simulated"
//! (virtual-clock) experiments report numbers that are directly
//! comparable — exactly the Actual-vs-Simulation comparison of Table 1 of
//! the paper.
//!
//! Contents:
//!
//! * [`time`] — [`SimTime`] instants and durations in
//!   seconds, totally ordered and hashable.
//! * [`counters`] — [`Counters`], what a run counts: one `u64` per
//!   [`Counter`], summed across layers by [`Counters::merge`].
//! * [`clock`] — the [`Clock`] trait with a wall-clock
//!   implementation ([`RealClock`]) and a manually
//!   advanced one ([`VirtualClock`]).
//! * [`ids`] — the interned [`JobId`] every hot-path structure is
//!   keyed by (names live only at the engines' edges).
//! * [`interp`] — piecewise-linear interpolation (linear and log–log),
//!   used to model strong-scaling curves and rescale overheads the same
//!   way the paper's simulator does (§4.3.1).
//! * [`recorder`] — the utilization recorder that backs the
//!   cluster-utilization metric and the Fig. 9 profiles.
//! * [`stats`] — weighted means (response/completion times weighted by
//!   job priority) and simple summary statistics.
//! * [`sync`] — the workspace's one lock policy: every `std` lock is
//!   taken through [`sync::locked`], [`sync::read`] or [`sync::write`],
//!   and a poisoned one propagates the panic.
//! * [`csv`] — a minimal CSV emitter for experiment outputs.
//! * [`ascii`] — terminal line/stack charts so every figure regenerator
//!   can render its result without a plotting stack.

#![warn(missing_docs)]

pub mod ascii;
pub mod clock;
pub mod counters;
pub mod csv;
pub mod ids;
pub mod interp;
pub mod recorder;
pub mod stats;
pub mod sync;
pub mod time;

pub use clock::{Clock, ClockRef, RealClock, VirtualClock};
pub use counters::{Counter, Counters};
pub use ids::JobId;
pub use interp::PiecewiseLinear;
pub use recorder::UtilizationRecorder;
pub use stats::{Summary, WeightedMean};
pub use time::{Duration, SimTime};
