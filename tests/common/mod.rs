//! Fixtures the cross-engine tests share. A replay's description and
//! its engines are `elastic_hpc::scenario`'s; what is left here is the
//! bundled trace's fault schedules, the policy its fault replays run,
//! and [`assert_agree`], the panicking form of `scenario::agreement`.

#![allow(dead_code)]

use elastic_hpc::core::{FcfsBackfill, RecoveryPolicy, RecoveryStrategy, RunMetrics};
use elastic_hpc::metrics::Duration;
use elastic_hpc::scenario::{agreement, Engine, Scenario};
use elastic_hpc::workload::{FaultSpec, FlakySpec};

/// FCFS backfill under kill-and-requeue recovery: the policy of the
/// bundled trace's fault replays.
pub(crate) fn kill_requeue_fcfs() -> RecoveryPolicy {
    RecoveryPolicy::new(Box::new(FcfsBackfill::new()), RecoveryStrategy::KillRequeue)
}

/// The bundled trace's reclamation schedule: two reclaim/return pairs
/// of 8 slots inside its busy part, at whole-second instants so both
/// engines observe them on the same tick.
pub(crate) fn trace_reclamation() -> FaultSpec {
    let (horizon, outage) = (Duration::from_secs(1600.0), Duration::from_secs(300.0));
    FaultSpec::reclamation(11, 2, 8, horizon, outage)
}

/// [`trace_reclamation`] plus a seeded transient-fault storm across the
/// busy part of the trace. A low breaker threshold and a small retry
/// budget make every resilience primitive (breaker trips, budget
/// denials, health evictions) exercise during the replay.
pub(crate) fn trace_storm(seed: u64) -> FaultSpec {
    trace_reclamation().with_flaky(
        FlakySpec::storm(seed, 24, Duration::from_secs(4000.0))
            .with_breaker(3, Duration::from_secs(240.0))
            .with_retry_budget(6.0, 0.25)
            .with_health_threshold(2),
    )
}

/// Replays `scenario` on every engine and returns the first engine's
/// metrics; panics naming the first job or aggregate that differs.
pub(crate) fn assert_agree(scenario: &Scenario, engines: &[Engine]) -> RunMetrics {
    agreement(scenario, engines).unwrap_or_else(|found| panic!("engines diverge: {found}"))
}
