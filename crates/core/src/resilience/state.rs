//! The shared flaky-fault decision core both engines embed.
//!
//! The repo's signature guarantee — DES and operator replays of one
//! workload are bit-identical — extends to the resilience layer by
//! construction: *all* breaker/budget/health decisions live in this one
//! struct, and both engines drive it with the same calls at the same
//! event boundaries. An engine never consults the primitives directly;
//! it reports a [`FlakyOp`] (plus the deterministic victim it selected)
//! and acts on the returned [`FlakyOutcome`] through its own existing
//! kill/requeue/evict machinery.

use hpc_metrics::{JobId, SimTime};
use hpc_workload::{FlakyOp, FlakySpec};

use super::breaker::CircuitBreaker;
use super::budget::RetryBudget;
use super::health::HealthChecker;

/// What an engine must do about one transient fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlakyOutcome {
    /// Nothing: no running victim existed, or a heartbeat miss accrued
    /// below the health threshold.
    Observed,
    /// The breaker is open — the operation was never attempted, so
    /// nobody is killed.
    Absorbed,
    /// Budget-approved retry: kill the victim and requeue it through
    /// the engine's backoff machinery.
    Retry,
    /// Aborted stuck rescale: checkpoint-evict the victim (roll back
    /// to the last checkpoint boundary and relaunch).
    Evict,
    /// The retry budget is dry: the victim fails permanently.
    Deny,
}

/// Breaker + budget + health checker plus the transient-fault tallies
/// [`RunMetrics`]-style reports carry. One instance per engine run.
///
/// [`RunMetrics`]: crate::RunMetrics
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceState {
    /// Cluster-level circuit breaker over control-plane operations.
    pub breaker: CircuitBreaker,
    /// Token-bucket retry budget bounding retry storms.
    pub budget: RetryBudget,
    /// Per-executor consecutive-heartbeat-miss tracking.
    pub health: HealthChecker,
    transient_faults: u32,
}

impl ResilienceState {
    /// State configured from a workload's [`FlakySpec`].
    pub fn new(spec: &FlakySpec) -> ResilienceState {
        ResilienceState {
            breaker: CircuitBreaker::new(spec.breaker_threshold, spec.breaker_cooldown),
            budget: RetryBudget::new(spec.retry_budget, spec.retry_deposit),
            health: HealthChecker::new(spec.health_threshold),
            transient_faults: 0,
        }
    }

    /// Decides what to do about a scheduled transient fault firing at
    /// `now` against `victim` (the engine's deterministic target
    /// selection; `None` when no executor was running).
    pub fn on_flaky(&mut self, op: FlakyOp, victim: Option<JobId>, now: SimTime) -> FlakyOutcome {
        self.transient_faults = self.transient_faults.saturating_add(1);
        let Some(victim) = victim else {
            return FlakyOutcome::Observed;
        };
        if !self.breaker.allows(now) {
            // Open breaker: the control plane has stopped issuing the
            // flaky operation, so the fault has nothing to break.
            return FlakyOutcome::Absorbed;
        }
        // The operation was attempted and failed.
        self.breaker.record_failure(now);
        match op {
            FlakyOp::StuckRescale => FlakyOutcome::Evict,
            FlakyOp::HeartbeatMiss => {
                if self.health.record_miss(victim) {
                    self.retry_or_deny()
                } else {
                    FlakyOutcome::Observed
                }
            }
            FlakyOp::LaunchFail | FlakyOp::CrashOnStart => self.retry_or_deny(),
        }
    }

    fn retry_or_deny(&mut self) -> FlakyOutcome {
        if self.budget.try_withdraw() {
            FlakyOutcome::Retry
        } else {
            FlakyOutcome::Deny
        }
    }

    /// Records a job retiring successfully at `now`: feeds the breaker
    /// a success, deposits into the retry budget, and forgets the
    /// executor's health state.
    pub fn on_success(&mut self, id: JobId, now: SimTime) {
        self.breaker.record_success(now);
        self.budget.record_success();
        self.health.forget(id);
    }

    /// Transient faults observed (every scheduled flaky event that
    /// fired, whether or not it found a victim).
    pub fn transient_faults(&self) -> u32 {
        self.transient_faults
    }

    /// Budget-approved retries issued.
    pub fn retries(&self) -> u32 {
        u32::try_from(self.budget.withdrawn()).unwrap_or(u32::MAX)
    }

    /// Times the breaker tripped open.
    pub fn breaker_trips(&self) -> u32 {
        self.breaker.trips()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_metrics::Duration;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn decisions_follow_op_semantics() {
        let spec = FlakySpec::default().with_health_threshold(2);
        let mut rs = ResilienceState::new(&spec);
        let victim = Some(JobId(7));
        assert_eq!(
            rs.on_flaky(FlakyOp::LaunchFail, victim, t(1.0)),
            FlakyOutcome::Retry
        );
        assert_eq!(
            rs.on_flaky(FlakyOp::StuckRescale, victim, t(2.0)),
            FlakyOutcome::Evict
        );
        assert_eq!(
            rs.on_flaky(FlakyOp::HeartbeatMiss, victim, t(3.0)),
            FlakyOutcome::Observed,
            "first miss accrues"
        );
        assert_eq!(
            rs.on_flaky(FlakyOp::HeartbeatMiss, victim, t(4.0)),
            FlakyOutcome::Retry,
            "second consecutive miss evicts"
        );
        assert_eq!(
            rs.on_flaky(FlakyOp::CrashOnStart, None, t(5.0)),
            FlakyOutcome::Observed,
            "no victim, nothing to kill"
        );
        assert_eq!(rs.transient_faults(), 5);
        assert_eq!(rs.retries(), 2, "evictions and accruals are not retries");
    }

    #[test]
    fn open_breaker_absorbs_and_dry_budget_denies() {
        let spec = FlakySpec::default()
            .with_breaker(2, Duration::from_secs(100.0))
            .with_retry_budget(1.0, 0.0);
        let mut rs = ResilienceState::new(&spec);
        let victim = Some(JobId(1));
        assert_eq!(
            rs.on_flaky(FlakyOp::LaunchFail, victim, t(1.0)),
            FlakyOutcome::Retry
        );
        assert_eq!(
            rs.on_flaky(FlakyOp::LaunchFail, victim, t(2.0)),
            FlakyOutcome::Deny,
            "budget of 1 is spent"
        );
        assert_eq!(rs.breaker_trips(), 1, "two consecutive faults tripped it");
        assert_eq!(
            rs.on_flaky(FlakyOp::LaunchFail, victim, t(3.0)),
            FlakyOutcome::Absorbed,
            "open breaker absorbs"
        );
        // Past the cooldown the half-open probe is attempted again.
        assert_eq!(
            rs.on_flaky(FlakyOp::LaunchFail, victim, t(200.0)),
            FlakyOutcome::Deny,
            "probe attempted (and budget still dry)"
        );
        assert_eq!(rs.breaker_trips(), 2, "failed probe re-trips");
    }

    #[test]
    fn success_feeds_all_three_primitives() {
        let spec = FlakySpec::default()
            .with_breaker(5, Duration::from_secs(10.0))
            .with_retry_budget(1.0, 1.0)
            .with_health_threshold(2);
        let mut rs = ResilienceState::new(&spec);
        let victim = Some(JobId(3));
        let _ = rs.on_flaky(FlakyOp::HeartbeatMiss, victim, t(1.0));
        let _ = rs.on_flaky(FlakyOp::LaunchFail, victim, t(2.0)); // spends the budget
        rs.on_success(JobId(3), t(3.0));
        assert_eq!(rs.health.misses(JobId(3)), 0, "health state forgotten");
        assert_eq!(rs.breaker.consecutive_failures(), 0, "breaker count reset");
        assert_eq!(
            rs.on_flaky(FlakyOp::CrashOnStart, victim, t(4.0)),
            FlakyOutcome::Retry,
            "the success re-funded the budget"
        );
    }
}
