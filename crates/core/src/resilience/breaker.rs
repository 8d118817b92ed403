//! The circuit breaker: Closed → Open → HalfOpen.
//!
//! A breaker fronts an unreliable dependency (a flaky executor pool).
//! While *Closed* it passes operations through and counts consecutive
//! failures; at the trip threshold it snaps *Open* and fast-fails
//! everything — no kills, no retries, no load on
//! the sick dependency — until the cooldown elapses, when it
//! *half-opens* and lets one probe decide: a success closes it, a
//! failure re-trips it for another cooldown.
//!
//! All transitions are driven by an explicit [`SimTime`] "now", never a
//! wall clock, so breaker behavior replays bit-identically in the DES
//! and the operator.

use hpc_metrics::{Duration, SimTime};

/// Where a [`CircuitBreaker`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Operations flow; consecutive failures are being counted.
    Closed,
    /// Tripped: operations fast-fail until the cooldown elapses.
    Open,
    /// Cooldown over: the next operation is a probe. Success closes
    /// the breaker, failure re-trips it.
    HalfOpen,
}

/// A consecutive-failure circuit breaker on a simulated clock.
///
/// Allocation-free: two counters, two instants, one enum.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: SimTime,
    trips: u32,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive
    /// failures and cooling down for `cooldown` once open.
    /// `u32::MAX` as the threshold effectively disables tripping.
    pub fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        assert!(threshold > 0, "a zero threshold would trip immediately");
        CircuitBreaker {
            threshold,
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: SimTime::ZERO,
            trips: 0,
        }
    }

    /// The breaker's state as of `now` (without mutating it). Every
    /// mutating call first stores it: that resolves the lazy
    /// Open → HalfOpen transition.
    fn state(&self, now: SimTime) -> BreakerState {
        if self.state == BreakerState::Open && now >= self.open_until {
            BreakerState::HalfOpen
        } else {
            self.state
        }
    }

    /// Whether an operation may be attempted at `now`. `false` means
    /// the breaker is open and the caller must fast-fail (absorb) the
    /// operation instead of attempting it.
    pub fn allows(&mut self, now: SimTime) -> bool {
        self.state = self.state(now);
        self.state != BreakerState::Open
    }

    /// Records a failed attempt at `now`. In Closed, accrues toward the
    /// threshold; in HalfOpen, re-trips immediately (the probe failed).
    pub fn record_failure(&mut self, now: SimTime) {
        self.state = self.state(now);
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                if self.consecutive_failures >= self.threshold {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => self.trip(now),
            // record_failure while Open is a caller bug (allows() said
            // no), but stay lenient: the failure was absorbed.
            BreakerState::Open => {}
        }
    }

    /// Records a successful operation at `now`: resets the consecutive
    /// count, and closes a half-open breaker.
    pub fn record_success(&mut self, now: SimTime) {
        self.state = self.state(now);
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.open_until = now + self.cooldown;
        self.consecutive_failures = 0;
        self.trips = self.trips.saturating_add(1);
    }

    /// How many times the breaker has tripped open (Closed/HalfOpen →
    /// Open transitions) over its lifetime.
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// Consecutive failures accrued toward the next trip.
    #[cfg(test)]
    pub(crate) fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn trips_at_threshold_and_half_opens_after_cooldown() {
        let mut b = CircuitBreaker::new(3, Duration::from_secs(60.0));
        assert_eq!(b.state(t(0.0)), BreakerState::Closed);
        b.record_failure(t(1.0));
        b.record_failure(t(2.0));
        assert!(b.allows(t(2.0)), "below threshold stays closed");
        b.record_failure(t(3.0));
        assert_eq!(b.trips(), 1);
        assert!(!b.allows(t(3.0)), "tripped open");
        assert!(!b.allows(t(62.9)), "still cooling down");
        assert!(b.allows(t(63.0)), "cooldown elapsed: half-open probe");
        assert_eq!(b.state(t(63.0)), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_probe_success_closes_failure_retrips() {
        let mut b = CircuitBreaker::new(1, Duration::from_secs(10.0));
        b.record_failure(t(0.0));
        assert!(b.allows(t(10.0)));
        b.record_failure(t(10.0));
        assert_eq!(b.trips(), 2, "failed probe re-trips");
        assert!(!b.allows(t(15.0)));
        assert!(b.allows(t(20.0)));
        b.record_success(t(20.0));
        assert_eq!(b.state(t(20.0)), BreakerState::Closed);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = CircuitBreaker::new(2, Duration::from_secs(10.0));
        b.record_failure(t(0.0));
        b.record_success(t(1.0));
        b.record_failure(t(2.0));
        assert_eq!(b.state(t(2.0)), BreakerState::Closed);
        assert_eq!(b.trips(), 0, "non-consecutive failures never trip");
    }

    proptest! {
        /// State-machine property: replay a random op sequence and
        /// check the invariants a breaker must keep at every step —
        /// never allow while open before the cooldown, never hold a
        /// consecutive count at or past the threshold, trips only ever
        /// grow, and Open always carries a future-or-past `open_until`
        /// consistent with `allows`.
        #[test]
        fn breaker_state_machine_invariants(
            ops in proptest::collection::vec(0u8..3, 64..65),
            dts in proptest::collection::vec(0.0f64..10.0, 64..65),
        ) {
            let ops: Vec<(u8, f64)> = ops.into_iter().zip(dts).collect();
            let threshold = 3;
            let cooldown = Duration::from_secs(5.0);
            let mut b = CircuitBreaker::new(threshold, cooldown);
            let mut now = 0.0;
            let mut last_trips = 0;
            let mut tripped_at: Option<f64> = None;
            for (op, dt) in ops {
                now += dt;
                let at = t(now);
                match op {
                    0 => {
                        if b.allows(at) {
                            b.record_failure(at);
                        }
                    }
                    1 => b.record_success(at),
                    _ => { let _ = b.allows(at); }
                }
                prop_assert!(b.consecutive_failures() < threshold,
                    "count must reset on trip");
                prop_assert!(b.trips() >= last_trips, "trips only grow");
                if b.trips() > last_trips {
                    tripped_at = Some(now);
                }
                last_trips = b.trips();
                match b.state(at) {
                    BreakerState::Open => {
                        let since = now - tripped_at.expect("open implies a trip");
                        prop_assert!(since < cooldown.as_secs(),
                            "open past the cooldown must read half-open");
                        prop_assert!(!b.clone().allows(at), "open never allows");
                    }
                    BreakerState::Closed | BreakerState::HalfOpen => {
                        prop_assert!(b.clone().allows(at), "closed/half-open allow");
                    }
                }
            }
        }
    }
}
