//! The fault layer of a workload: node failures and spot reclamation.
//!
//! Cloud capacity is not stable — nodes die and spot/preemptible slots
//! get reclaimed (and later returned) by the provider. A [`FaultSpec`]
//! makes those events part of the replayable workload, exactly like
//! arrivals and cancellations: a deterministic, time-ordered list of
//! capacity changes plus the recovery parameters every engine shares
//! (checkpoint interval, retry budget, requeue backoff).
//!
//! Both engines surface each [`FaultEvent`] to the scheduling policy
//! via `SchedulingPolicy::on_fault`, which answers with eviction /
//! requeue / shrink actions until the capacity deficit clears. An empty
//! `FaultSpec` (the default) injects nothing and costs nothing on the
//! replay hot path.

use hpc_metrics::Duration;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What kind of capacity change a [`FaultEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Permanent loss of slots (a node died). Never comes back.
    NodeFail,
    /// Spot reclamation: the provider takes slots away, to be handed
    /// back by a later [`FaultKind::Return`].
    Reclaim,
    /// Reclaimed slots come back (spot capacity returned).
    Return,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::NodeFail => write!(f, "node_fail"),
            FaultKind::Reclaim => write!(f, "reclaim"),
            FaultKind::Return => write!(f, "return"),
        }
    }
}

/// One capacity-change event on the workload timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the event fires, relative to the workload epoch (like
    /// `JobSpec::arrival`).
    pub at: Duration,
    /// How many slots the event removes (or returns).
    pub slots: u32,
    /// Loss, reclamation, or return.
    pub kind: FaultKind,
}

/// Why a [`FaultSpec`] is not replayable.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// Events are not sorted by time.
    UnsortedEvents {
        /// 0-based index of the first event observed out of order.
        index: usize,
    },
    /// An event has zero slots or a non-finite/negative time.
    BadEvent {
        /// 0-based index of the offending event.
        index: usize,
    },
    /// A return hands back more slots than are currently reclaimed.
    ReturnExceedsReclaimed {
        /// 0-based index of the offending return event.
        index: usize,
    },
    /// A recovery parameter is out of range (zero checkpoint interval
    /// or backoff, zero retry budget).
    BadRecoveryParams,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnsortedEvents { index } => {
                write!(f, "fault event {index} fires earlier than its predecessor")
            }
            FaultError::BadEvent { index } => {
                write!(f, "fault event {index} has zero slots or a bad time")
            }
            FaultError::ReturnExceedsReclaimed { index } => {
                write!(
                    f,
                    "fault event {index} returns more slots than are reclaimed"
                )
            }
            FaultError::BadRecoveryParams => {
                write!(
                    f,
                    "recovery parameters must be positive (interval, backoff, attempts)"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// What kind of operation-level transient fault a [`FlakyEvent`] is.
///
/// Where [`FaultKind`] models *capacity* loss (nodes and slots), a
/// `FlakyOp` models the control plane's own operations failing — the
/// flakiest part of a real cloud deployment: launches that bounce,
/// executors that crash right after starting, rescales that wedge, and
/// heartbeats that go missing. Each op names a deterministic target so
/// both engines pick the same victim:
///
/// * [`LaunchFail`](FlakyOp::LaunchFail) / [`HeartbeatMiss`](FlakyOp::HeartbeatMiss)
///   / [`StuckRescale`](FlakyOp::StuckRescale) hit the *oldest* running
///   executor (lowest `JobId`).
/// * [`CrashOnStart`](FlakyOp::CrashOnStart) hits the *youngest*
///   running executor (highest `JobId`) — the one most recently
///   admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlakyOp {
    /// The launcher of the oldest running executor fails transiently;
    /// the job is killed and re-queued (a retry, budget permitting).
    LaunchFail,
    /// The youngest running executor crashes right after starting; the
    /// job is killed and re-queued (a retry, budget permitting).
    CrashOnStart,
    /// A rescale of the oldest running executor wedges; the operation
    /// is aborted and the job checkpoint-evicted (rolls back to its
    /// last checkpoint boundary and relaunches).
    StuckRescale,
    /// The oldest running executor misses a heartbeat. Misses accrue in
    /// the health checker; at `health_threshold` consecutive misses the
    /// executor is declared unhealthy and killed-and-requeued.
    HeartbeatMiss,
}

impl std::fmt::Display for FlakyOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlakyOp::LaunchFail => write!(f, "launch_fail"),
            FlakyOp::CrashOnStart => write!(f, "crash_on_start"),
            FlakyOp::StuckRescale => write!(f, "stuck_rescale"),
            FlakyOp::HeartbeatMiss => write!(f, "heartbeat_miss"),
        }
    }
}

/// One operation-level transient fault on the workload timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlakyEvent {
    /// When the fault fires, relative to the workload epoch.
    pub at: Duration,
    /// Which operation fails.
    pub op: FlakyOp,
}

/// The operation-level transient-fault layer: a deterministic schedule
/// of [`FlakyEvent`]s plus the resilience parameters both engines feed
/// to `elastic-resilience` (circuit breaker, retry budget, health
/// checker). The [`Default`] spec has no events and is zero-cost to
/// replay — engines seed nothing and consult nothing when
/// [`FlakySpec::is_empty`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlakySpec {
    /// Transient faults in time order.
    pub events: Vec<FlakyEvent>,
    /// Consecutive transient faults that trip the cluster circuit
    /// breaker open. While open, flaky operations are not attempted
    /// (the fault is absorbed without killing anyone) until the
    /// cooldown half-opens the breaker. `u32::MAX` effectively
    /// disables the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before half-opening.
    pub breaker_cooldown: Duration,
    /// Initial retry-budget tokens. Every budget-approved retry
    /// withdraws one token; a dry budget denies the retry and the
    /// victim fails permanently — this is what bounds retry storms.
    pub retry_budget: f64,
    /// Tokens deposited per successful job completion.
    pub retry_deposit: f64,
    /// Consecutive heartbeat misses per executor before the health
    /// checker evicts it.
    pub health_threshold: u32,
}

impl Default for FlakySpec {
    fn default() -> Self {
        FlakySpec {
            events: Vec::new(),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(120.0),
            retry_budget: 10.0,
            retry_deposit: 0.1,
            health_threshold: 3,
        }
    }
}

impl FlakySpec {
    /// A spec with the given events and default resilience parameters.
    pub fn new(events: Vec<FlakyEvent>) -> Self {
        FlakySpec {
            events,
            ..FlakySpec::default()
        }
    }

    /// `true` when no transient faults are scheduled (replay pays
    /// nothing for the resilience layer).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Builder: sets the breaker trip threshold and cooldown.
    pub fn with_breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Builder: sets the retry-budget initial balance and per-success
    /// deposit.
    pub fn with_retry_budget(mut self, initial: f64, deposit: f64) -> Self {
        self.retry_budget = initial;
        self.retry_deposit = deposit;
        self
    }

    /// Builder: sets the consecutive-miss health-eviction threshold.
    pub fn with_health_threshold(mut self, threshold: u32) -> Self {
        self.health_threshold = threshold;
        self
    }

    /// A deterministic seeded storm of `count` transient faults spread
    /// uniformly over `horizon`, cycling through the four operation
    /// kinds with seeded jitter. Event times are whole seconds (so
    /// tick-driven replays hit them exactly) and are nudged off
    /// multiples of 30 s, the conventional policy-timer grid. No engine
    /// needs that any more — a fault and a timer firing at one instant
    /// replay identically — but recorded fingerprints were generated
    /// through the nudge, so the output for a seed is kept as it is.
    pub fn storm(seed: u64, count: u32, horizon: Duration) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let horizon_s = horizon.as_secs().max(1.0);
        let ops = [
            FlakyOp::LaunchFail,
            FlakyOp::CrashOnStart,
            FlakyOp::StuckRescale,
            FlakyOp::HeartbeatMiss,
        ];
        let mut events: Vec<FlakyEvent> = (0..count)
            .map(|i| {
                let mut at = rng.gen_range(1.0..horizon_s).round().max(1.0);
                if (at as u64).is_multiple_of(30) {
                    at += 1.0;
                }
                FlakyEvent {
                    at: Duration::from_secs(at),
                    op: ops[(i as usize) % ops.len()],
                }
            })
            .collect();
        events.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite fault times"));
        FlakySpec {
            events,
            ..FlakySpec::default()
        }
    }

    /// Builder: divides every event time by `factor` (rounding to whole
    /// seconds) — the flaky-layer side of
    /// `WorkloadSpec::compress_arrivals`.
    ///
    /// # Panics
    /// If `factor` is not finite and positive.
    pub fn compress(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "compression factor must be finite and > 0, got {factor}"
        );
        for e in &mut self.events {
            e.at = Duration::from_secs((e.at.as_secs() / factor).round());
        }
        self
    }

    /// Checks the engine contract: events sorted by time with finite
    /// nonnegative times, positive thresholds, finite nonnegative
    /// budget parameters, positive cooldown.
    pub fn validate(&self) -> Result<(), FaultError> {
        let cooldown = self.breaker_cooldown.as_secs();
        if self.breaker_threshold == 0
            || self.health_threshold == 0
            || !cooldown.is_finite()
            || cooldown <= 0.0
            || !self.retry_budget.is_finite()
            || self.retry_budget < 0.0
            || !self.retry_deposit.is_finite()
            || self.retry_deposit < 0.0
        {
            return Err(FaultError::BadRecoveryParams);
        }
        let mut prev = Duration::ZERO;
        for (index, e) in self.events.iter().enumerate() {
            if !e.at.as_secs().is_finite() || e.at.as_secs() < 0.0 {
                return Err(FaultError::BadEvent { index });
            }
            if e.at < prev {
                return Err(FaultError::UnsortedEvents { index });
            }
            prev = e.at;
        }
        Ok(())
    }
}

/// The fault layer of a workload: capacity events plus the recovery
/// parameters both engines honor. The [`Default`] spec has no events
/// and is zero-cost to replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Capacity-change events in time order.
    pub events: Vec<FaultEvent>,
    /// Operation-level transient faults (flaky launches, crashes,
    /// wedged rescales, missed heartbeats) plus the resilience
    /// parameters that govern how they are retried.
    pub flaky: FlakySpec,
    /// Wall-clock interval between a running job's checkpoints. On a
    /// checkpoint/restart eviction the job resumes from its last
    /// checkpoint instant; work since then is wasted.
    pub checkpoint_interval: Duration,
    /// How many times a job may be killed-and-requeued before it is
    /// marked permanently failed.
    pub max_attempts: u32,
    /// Base delay before a killed job is resubmitted; attempt `k`
    /// (1-based) waits `backoff_base × 2^(min(k, 20)-1)` — the shift
    /// saturates at 20 doublings so pathological attempt counts cannot
    /// overflow to an infinite backoff (see [`FaultSpec::backoff_for`]).
    pub backoff_base: Duration,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            events: Vec::new(),
            flaky: FlakySpec::default(),
            checkpoint_interval: Duration::from_secs(300.0),
            max_attempts: 3,
            backoff_base: Duration::from_secs(30.0),
        }
    }
}

impl FaultSpec {
    /// A spec with the given events and default recovery parameters.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultSpec {
            events,
            ..FaultSpec::default()
        }
    }

    /// `true` when no fault events are scheduled (replay is fault-free
    /// and pays nothing for the fault layer). Operation-level transient
    /// faults count: a spec with flaky events is not empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.flaky.is_empty()
    }

    /// Builder: attaches an operation-level transient-fault schedule.
    pub fn with_flaky(mut self, flaky: FlakySpec) -> Self {
        self.flaky = flaky;
        self
    }

    /// The requeue backoff before attempt `attempt` (1-based) re-enters
    /// the queue: `backoff_base × 2^(attempt-1)`, with the shift
    /// saturated at [`FaultSpec::MAX_BACKOFF_SHIFT`] doublings so the
    /// delay stays finite for any attempt count. Both engines call this
    /// one function, so replays cannot diverge on the cap.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(Self::MAX_BACKOFF_SHIFT);
        Duration::from_secs(self.backoff_base.as_secs() * 2f64.powi(shift as i32))
    }

    /// Cap on the exponential-backoff shift: 2^20 × base ≈ 1 year at
    /// the 30 s default — long past any replay horizon, far short of
    /// `f64` overflow.
    pub const MAX_BACKOFF_SHIFT: u32 = 20;

    /// The Young/Daly optimal checkpoint interval
    /// `τ_opt ≈ sqrt(2 × δ × MTBF)` for a per-checkpoint (equivalently,
    /// per-recovery) cost `δ` and a mean time between failures `MTBF`,
    /// rounded to whole seconds (tick-grid friendly) with a 1 s floor.
    ///
    /// Feed `δ` from the measured `OverheadModel::recovery_total` curve
    /// (the `BENCH_rescale.json` calibration) and `MTBF` from the fault
    /// schedule's observed event rate.
    pub fn young_daly_interval(recovery_cost: Duration, mtbf: Duration) -> Duration {
        let delta = recovery_cost.as_secs().max(0.0);
        let mtbf_s = mtbf.as_secs().max(0.0);
        Duration::from_secs((2.0 * delta * mtbf_s).sqrt().round().max(1.0))
    }

    /// Builder: sets the checkpoint interval to the Young/Daly optimum
    /// for the given measured recovery cost and fault MTBF — the
    /// auto-tuned alternative to hand-picking
    /// [`FaultSpec::with_checkpoint_interval`].
    pub fn tuned_checkpoint_interval(self, recovery_cost: Duration, mtbf: Duration) -> Self {
        let interval = Self::young_daly_interval(recovery_cost, mtbf);
        self.with_checkpoint_interval(interval)
    }

    /// Builder: sets the checkpoint interval.
    pub fn with_checkpoint_interval(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Builder: sets the kill-and-requeue retry budget.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Builder: sets the base requeue backoff.
    pub fn with_backoff_base(mut self, backoff: Duration) -> Self {
        self.backoff_base = backoff;
        self
    }

    /// A deterministic seeded spot-reclamation trace: `pairs`
    /// drop/return pairs of `slots` slots each, spread over `horizon`
    /// with seeded jitter, each outage lasting `outage`. Event times
    /// are whole seconds so tick-driven replays hit them exactly.
    pub fn reclamation(
        seed: u64,
        pairs: u32,
        slots: u32,
        horizon: Duration,
        outage: Duration,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(2 * pairs as usize);
        let horizon_s = horizon.as_secs().max(1.0);
        let outage_s = outage.as_secs().max(1.0).round();
        let spacing = horizon_s / (f64::from(pairs) + 1.0);
        for i in 0..pairs {
            let base = spacing * f64::from(i + 1);
            let jitter = rng.gen_range(-0.25..0.25) * spacing;
            let at = (base + jitter).max(1.0).round();
            events.push(FaultEvent {
                at: Duration::from_secs(at),
                slots,
                kind: FaultKind::Reclaim,
            });
            events.push(FaultEvent {
                at: Duration::from_secs(at + outage_s),
                slots,
                kind: FaultKind::Return,
            });
        }
        events.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite fault times"));
        FaultSpec {
            events,
            ..FaultSpec::default()
        }
    }

    /// Builder: divides every event time (capacity and flaky) by
    /// `factor` (rounding to whole seconds) — the fault-layer side of
    /// `WorkloadSpec::compress_arrivals`.
    ///
    /// # Panics
    /// If `factor` is not finite and positive.
    pub fn compress(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "compression factor must be finite and > 0, got {factor}"
        );
        for e in &mut self.events {
            e.at = Duration::from_secs((e.at.as_secs() / factor).round());
        }
        self.flaky = self.flaky.compress(factor);
        self
    }

    /// Checks the engine contract: events sorted by time with positive
    /// slots and finite nonnegative times, every return covered by
    /// outstanding reclaimed slots, positive recovery parameters.
    pub fn validate(&self) -> Result<(), FaultError> {
        let ok = |d: Duration| d.as_secs().is_finite() && d.as_secs() > 0.0;
        if !ok(self.checkpoint_interval) || !ok(self.backoff_base) || self.max_attempts == 0 {
            return Err(FaultError::BadRecoveryParams);
        }
        let mut prev = Duration::ZERO;
        let mut reclaimed: u64 = 0;
        for (index, e) in self.events.iter().enumerate() {
            if e.slots == 0 || !e.at.as_secs().is_finite() || e.at.as_secs() < 0.0 {
                return Err(FaultError::BadEvent { index });
            }
            if e.at < prev {
                return Err(FaultError::UnsortedEvents { index });
            }
            prev = e.at;
            match e.kind {
                FaultKind::Reclaim => reclaimed += u64::from(e.slots),
                FaultKind::Return => {
                    if u64::from(e.slots) > reclaimed {
                        return Err(FaultError::ReturnExceedsReclaimed { index });
                    }
                    reclaimed -= u64::from(e.slots);
                }
                FaultKind::NodeFail => {}
            }
        }
        self.flaky.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: f64, slots: u32, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: Duration::from_secs(at),
            slots,
            kind,
        }
    }

    #[test]
    fn default_spec_is_empty_and_valid() {
        let spec = FaultSpec::default();
        assert!(spec.is_empty());
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validate_catches_each_contract_violation() {
        let unsorted = FaultSpec {
            events: vec![
                ev(100.0, 4, FaultKind::Reclaim),
                ev(50.0, 4, FaultKind::Return),
            ],
            ..FaultSpec::default()
        };
        assert_eq!(
            unsorted.validate(),
            Err(FaultError::UnsortedEvents { index: 1 })
        );

        let zero = FaultSpec {
            events: vec![ev(10.0, 0, FaultKind::NodeFail)],
            ..FaultSpec::default()
        };
        assert_eq!(zero.validate(), Err(FaultError::BadEvent { index: 0 }));

        let uncovered = FaultSpec {
            events: vec![
                ev(10.0, 4, FaultKind::Reclaim),
                ev(20.0, 8, FaultKind::Return),
            ],
            ..FaultSpec::default()
        };
        assert_eq!(
            uncovered.validate(),
            Err(FaultError::ReturnExceedsReclaimed { index: 1 })
        );

        // Node failures never come back, so they do not fund returns.
        let nodefail = FaultSpec {
            events: vec![
                ev(10.0, 4, FaultKind::NodeFail),
                ev(20.0, 4, FaultKind::Return),
            ],
            ..FaultSpec::default()
        };
        assert_eq!(
            nodefail.validate(),
            Err(FaultError::ReturnExceedsReclaimed { index: 1 })
        );

        let bad_params = FaultSpec {
            max_attempts: 0,
            ..FaultSpec::default()
        };
        assert_eq!(bad_params.validate(), Err(FaultError::BadRecoveryParams));
    }

    #[test]
    fn reclamation_generator_is_deterministic_and_valid() {
        let horizon = Duration::from_secs(10_000.0);
        let outage = Duration::from_secs(600.0);
        let a = FaultSpec::reclamation(7, 4, 8, horizon, outage);
        let b = FaultSpec::reclamation(7, 4, 8, horizon, outage);
        assert_eq!(a, b, "same seed, same trace");
        assert_eq!(a.events.len(), 8);
        assert!(a.validate().is_ok());
        // Whole-second event times (tick-grid friendly).
        for e in &a.events {
            assert_eq!(e.at.as_secs().fract(), 0.0);
        }
        // Every drop is eventually returned.
        let net: i64 = a
            .events
            .iter()
            .map(|e| match e.kind {
                FaultKind::Reclaim => -i64::from(e.slots),
                FaultKind::Return => i64::from(e.slots),
                FaultKind::NodeFail => 0,
            })
            .sum();
        assert_eq!(net, 0);
        let c = FaultSpec::reclamation(8, 4, 8, horizon, outage);
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let spec = FaultSpec::default(); // 30 s base
        assert_eq!(spec.backoff_for(1).as_secs(), 30.0);
        assert_eq!(spec.backoff_for(2).as_secs(), 60.0);
        assert_eq!(spec.backoff_for(3).as_secs(), 120.0);
        // The shift caps at MAX_BACKOFF_SHIFT doublings...
        let cap = 30.0 * 2f64.powi(FaultSpec::MAX_BACKOFF_SHIFT as i32);
        assert_eq!(spec.backoff_for(21).as_secs(), cap);
        assert_eq!(spec.backoff_for(22).as_secs(), cap);
        // ...so even absurd attempt counts stay finite (the old
        // `base × 2^(k-1)` overflowed to infinity here).
        assert_eq!(spec.backoff_for(u32::MAX).as_secs(), cap);
        assert!(spec.backoff_for(u32::MAX).as_secs().is_finite());
    }

    #[test]
    fn young_daly_interval_matches_the_formula() {
        // δ = 50 s, MTBF = 10 000 s → sqrt(2·50·10000) = 1000 s.
        let tau = FaultSpec::young_daly_interval(
            Duration::from_secs(50.0),
            Duration::from_secs(10_000.0),
        );
        assert_eq!(tau.as_secs(), 1000.0);
        // Degenerate inputs floor at 1 s instead of producing 0.
        let floor = FaultSpec::young_daly_interval(Duration::ZERO, Duration::from_secs(100.0));
        assert_eq!(floor.as_secs(), 1.0);
        let tuned = FaultSpec::default()
            .tuned_checkpoint_interval(Duration::from_secs(50.0), Duration::from_secs(10_000.0));
        assert_eq!(tuned.checkpoint_interval.as_secs(), 1000.0);
        assert!(tuned.validate().is_ok());
    }

    #[test]
    fn flaky_storm_is_deterministic_valid_and_off_the_timer_grid() {
        let horizon = Duration::from_secs(5_000.0);
        let a = FlakySpec::storm(3, 16, horizon);
        let b = FlakySpec::storm(3, 16, horizon);
        assert_eq!(a, b, "same seed, same storm");
        assert_eq!(a.events.len(), 16);
        assert!(a.validate().is_ok());
        for e in &a.events {
            assert_eq!(e.at.as_secs().fract(), 0.0, "whole-second times");
            // Pinned output, not an engine requirement (see `storm`).
            assert_ne!(e.at.as_secs() as u64 % 30, 0, "off the 30 s timer grid");
        }
        // All four operation kinds appear in a 16-event storm.
        for op in [
            FlakyOp::LaunchFail,
            FlakyOp::CrashOnStart,
            FlakyOp::StuckRescale,
            FlakyOp::HeartbeatMiss,
        ] {
            assert!(a.events.iter().any(|e| e.op == op), "missing {op}");
        }
        let c = FlakySpec::storm(4, 16, horizon);
        assert_ne!(a, c, "different seed, different storm");
    }

    #[test]
    fn flaky_validate_catches_bad_params_and_unsorted_events() {
        let unsorted = FlakySpec::new(vec![
            FlakyEvent {
                at: Duration::from_secs(100.0),
                op: FlakyOp::LaunchFail,
            },
            FlakyEvent {
                at: Duration::from_secs(50.0),
                op: FlakyOp::CrashOnStart,
            },
        ]);
        assert_eq!(
            unsorted.validate(),
            Err(FaultError::UnsortedEvents { index: 1 })
        );
        let bad = FlakySpec::default().with_breaker(0, Duration::from_secs(60.0));
        assert_eq!(bad.validate(), Err(FaultError::BadRecoveryParams));
        let bad = FlakySpec::default().with_retry_budget(-1.0, 0.1);
        assert_eq!(bad.validate(), Err(FaultError::BadRecoveryParams));
        let bad = FlakySpec::default().with_health_threshold(0);
        assert_eq!(bad.validate(), Err(FaultError::BadRecoveryParams));
        // A FaultSpec carrying an invalid flaky layer fails validation.
        let carrier = FaultSpec::default()
            .with_flaky(FlakySpec::default().with_breaker(0, Duration::from_secs(60.0)));
        assert_eq!(carrier.validate(), Err(FaultError::BadRecoveryParams));
        assert!(!carrier.is_empty() || carrier.flaky.is_empty());
        // A spec with only flaky events is not empty.
        let flaky_only =
            FaultSpec::default().with_flaky(FlakySpec::storm(1, 2, Duration::from_secs(100.0)));
        assert!(!flaky_only.is_empty());
    }

    #[test]
    fn compress_divides_event_times() {
        let spec = FaultSpec {
            events: vec![
                ev(600.0, 8, FaultKind::Reclaim),
                ev(1200.0, 8, FaultKind::Return),
            ],
            ..FaultSpec::default()
        }
        .with_flaky(FlakySpec::new(vec![FlakyEvent {
            at: Duration::from_secs(900.0),
            op: FlakyOp::HeartbeatMiss,
        }]))
        .compress(10.0);
        assert_eq!(spec.events[0].at.as_secs(), 60.0);
        assert_eq!(spec.events[1].at.as_secs(), 120.0);
        assert_eq!(spec.flaky.events[0].at.as_secs(), 90.0);
        assert!(spec.validate().is_ok());
    }
}
