//! The resilience layer the [`Kernel`](crate::kernel::Kernel) embeds:
//! what a transient control-plane fault costs.
//!
//! Three classic primitives keep a scheduler healthy under a flaky
//! control plane:
//!
//! * [`CircuitBreaker`] — Closed → Open → HalfOpen with a
//!   consecutive-failure threshold and a cooldown. While open,
//!   operations fast-fail instead of hammering a sick dependency.
//! * [`RetryBudget`] — a token bucket that *bounds* retries where
//!   exponential backoff only spaces them.
//! * [`HealthChecker`] — per-executor consecutive-failure counts with
//!   threshold eviction.
//!
//! All are sim-clock driven ([`hpc_metrics::SimTime`] in, no wall
//! clocks). [`ResilienceState`] bundles them with the transient-fault
//! tallies and owns every decision: both engines reach it only through
//! the kernel, which acts on the [`FlakyOutcome`] it returns.

mod breaker;
mod budget;
mod health;
mod state;

pub use breaker::{BreakerState, CircuitBreaker};
pub use budget::RetryBudget;
pub use health::HealthChecker;
pub use state::{FlakyOutcome, ResilienceState};
