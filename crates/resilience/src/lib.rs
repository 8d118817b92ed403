//! # elastic-resilience — resilience primitives for a flaky control plane
//!
//! PR 6's fault layer modeled *capacity* loss; this crate models the
//! control plane's own operations failing — the flakiest part of a real
//! cloud deployment — and the three classic primitives that keep a
//! scheduler healthy under it (the nebula resource-lifecycle patterns):
//!
//! * [`CircuitBreaker`] — Closed → Open → HalfOpen with a
//!   consecutive-failure threshold and a cooldown. While open,
//!   operations fast-fail instead of hammering a sick dependency;
//!   after the cooldown one probe decides whether to close or re-trip.
//! * [`RetryBudget`] — a token bucket: one token per retry, a fractional
//!   deposit per success. Where exponential backoff only *spaces*
//!   retries, the budget *bounds* them — the sustained retry rate can
//!   never exceed `deposit × success rate`.
//! * [`HealthChecker`] — per-executor consecutive-failure counts with
//!   threshold eviction, driven from the operator's timer pass.
//! * [`Lifecycle`] — phased `drain → cleanup → terminate` shutdown
//!   (order enforced, skipped phases panic).
//!
//! Everything is sim-clock driven ([`hpc_metrics::SimTime`] in, no wall
//! clocks) and allocation-light, so the primitives replay
//! bit-identically inside both the discrete-event simulator and the
//! watch-driven operator. [`ResilienceState`] bundles the three
//! primitives plus the transient-fault tallies and owns *every*
//! decision — both engines call [`ResilienceState::on_flaky`] /
//! [`ResilienceState::on_success`] at the same event boundaries and act
//! on the returned [`FlakyOutcome`], which is what keeps the
//! cross-engine `RunMetrics` guarantee intact for the resilience layer.
//!
//! ## Worked example: a breaker-gated scheduling policy
//!
//! A breaker wraps any `elastic_core::SchedulingPolicy`: faults feed
//! the breaker, completions reset it, and while it is open the cluster
//! stops admitting new jobs — they wait in the queue until the
//! half-open probe window instead of being launched into a sick
//! cluster.
//!
//! ```
//! use std::sync::Mutex;
//!
//! use elastic_core::{Action, ClusterView, FcfsBackfill, SchedulingPolicy};
//! use elastic_resilience::{BreakerState, CircuitBreaker};
//! use hpc_metrics::{Duration, JobId, SimTime};
//! use hpc_workload::FaultEvent;
//!
//! /// Holds admissions while the cluster's breaker is open.
//! struct BreakerGated {
//!     inner: FcfsBackfill,
//!     breaker: Mutex<CircuitBreaker>,
//! }
//!
//! impl SchedulingPolicy for BreakerGated {
//!     fn name(&self) -> String {
//!         format!("breaker({})", self.inner.name())
//!     }
//!
//!     fn launcher_slots(&self) -> u32 {
//!         self.inner.launcher_slots()
//!     }
//!
//!     fn on_submit(&self, view: &ClusterView, job: JobId, now: SimTime) -> Vec<Action> {
//!         if !self.breaker.lock().unwrap().allows(now) {
//!             return Vec::new(); // open: hold the job in the queue
//!         }
//!         self.inner.on_submit(view, job, now)
//!     }
//!
//!     fn on_complete(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
//!         self.breaker.lock().unwrap().record_success(now);
//!         self.inner.on_complete(view, now)
//!     }
//!
//!     fn on_fault(&self, view: &ClusterView, fault: &FaultEvent, now: SimTime) -> Vec<Action> {
//!         self.breaker.lock().unwrap().record_failure(now);
//!         self.inner.on_fault(view, fault, now)
//!     }
//! }
//!
//! let policy = BreakerGated {
//!     inner: FcfsBackfill::new(),
//!     breaker: Mutex::new(CircuitBreaker::new(2, Duration::from_secs(120.0))),
//! };
//!
//! // Two faults trip the breaker...
//! let t1 = SimTime::from_secs(10.0);
//! policy.breaker.lock().unwrap().record_failure(t1);
//! policy.breaker.lock().unwrap().record_failure(t1);
//! assert_eq!(policy.breaker.lock().unwrap().state(t1), BreakerState::Open);
//!
//! // ...so a submission at t=11 is held in the queue (no actions)...
//! let mut view = ClusterView::new(8);
//! let id = JobId(0);
//! view.insert(elastic_core::JobState {
//!     id,
//!     min_replicas: 1,
//!     max_replicas: 4,
//!     priority: 1,
//!     submitted_at: SimTime::from_secs(11.0),
//!     replicas: 0,
//!     last_action: SimTime::NEG_INFINITY,
//!     running: false,
//!     walltime_estimate: None,
//! }, 1);
//! assert!(policy.on_submit(&view, id, SimTime::from_secs(11.0)).is_empty());
//!
//! // ...but after the cooldown the half-open probe admits it again.
//! let later = SimTime::from_secs(140.0);
//! assert!(!policy.on_submit(&view, id, later).is_empty());
//! ```

#![warn(missing_docs)]

mod breaker;
mod budget;
mod health;
mod lifecycle;
mod state;

pub use breaker::{BreakerState, CircuitBreaker};
pub use budget::RetryBudget;
pub use health::HealthChecker;
pub use lifecycle::{Lifecycle, ShutdownPhase};
pub use state::{FlakyOutcome, ResilienceState};
