//! Pluggable clocks.
//!
//! The operator, the simulated Kubernetes control plane and the policy
//! engine never call `Instant::now()` directly; they read a [`Clock`].
//! The "actual" experiments (Fig. 9, Table 1 left columns) run on a
//! [`RealClock`], optionally time-compressed; the simulator and most
//! tests run on a [`VirtualClock`] that only moves when told to, which
//! makes scheduling decisions fully deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::sync::{locked, POISONED};
use crate::time::{Duration, SimTime};

/// A source of experiment time.
pub trait Clock: Send + Sync {
    /// Current instant on this clock's timeline.
    fn now(&self) -> SimTime;

    /// Blocks the calling thread until `deadline` (no-op if already past).
    ///
    /// On a [`VirtualClock`] this parks the thread until some other
    /// thread advances time past the deadline, which lets wall-clock
    /// style code run unmodified under virtual time.
    fn sleep_until(&self, deadline: SimTime);

    /// Convenience: sleeps for `d` from now.
    fn sleep(&self, d: Duration) {
        let deadline = self.now() + d;
        self.sleep_until(deadline);
    }
}

/// Shared handle to a clock.
pub type ClockRef = Arc<dyn Clock>;

/// Wall-clock time relative to an epoch captured at construction, with an
/// optional compression factor.
///
/// With `compression = k`, one wall-clock second reads as `k` experiment
/// seconds. The paper's experimental campaign uses a 90 s submission gap
/// and a 180 s rescale gap over ~50 min per scheduler; compression lets
/// the same configuration execute in minutes while all policy-visible
/// ratios (gap : overhead : runtime) are preserved because *every* time
/// the policy reads passes through the same clock.
pub struct RealClock {
    epoch: Instant,
    compression: f64,
}

impl RealClock {
    /// A clock where experiment seconds equal wall seconds.
    pub fn new() -> Self {
        Self::with_compression(1.0)
    }

    /// A clock where one wall second reads as `compression` experiment
    /// seconds. `compression` must be positive and finite.
    pub fn with_compression(compression: f64) -> Self {
        assert!(
            compression.is_finite() && compression > 0.0,
            "compression must be positive and finite, got {compression}"
        );
        RealClock {
            epoch: Instant::now(),
            compression,
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> SimTime {
        SimTime::from_secs(self.epoch.elapsed().as_secs_f64() * self.compression)
    }

    fn sleep_until(&self, deadline: SimTime) {
        loop {
            let now = self.now();
            if now >= deadline {
                return;
            }
            let wall = (deadline - now).as_secs() / self.compression;
            std::thread::sleep(std::time::Duration::from_secs_f64(wall.min(0.050)));
        }
    }
}

/// A clock that advances only under program control.
///
/// Cloning the handle shares the underlying timeline. Sleeping threads
/// are woken whenever the time is advanced past their deadline.
///
/// Reading the time takes no lock: the time lives in an atomic, which
/// only [`advance`](VirtualClock::advance) writes, while holding the
/// mutex [`sleep_until`](Clock::sleep_until) waits on, so no sleeper
/// can miss the move that wakes it.
#[derive(Clone)]
pub struct VirtualClock {
    state: Arc<VirtualState>,
}

struct VirtualState {
    /// The current time's `f64` bits.
    now: AtomicU64,
    /// Held by every write of `now`, and by sleepers between checking
    /// the time and waiting.
    moving: Mutex<()>,
    moved: Condvar,
}

impl VirtualClock {
    /// A virtual clock starting at t = 0.
    pub fn new() -> Self {
        Self::starting_at(SimTime::ZERO)
    }

    /// A virtual clock starting at `start`.
    fn starting_at(start: SimTime) -> Self {
        VirtualClock {
            state: Arc::new(VirtualState {
                now: AtomicU64::new(start.as_secs().to_bits()),
                moving: Mutex::new(()),
                moved: Condvar::new(),
            }),
        }
    }

    /// Moves time forward by `d`. Panics if `d` is negative.
    pub fn advance(&self, d: Duration) {
        assert!(d.as_secs() >= 0.0, "cannot advance time backwards");
        let _moving = locked(&self.state.moving);
        self.set(self.now() + d);
    }

    /// Jumps time to `t`, under the same lock as `advance`. Panics if
    /// `t` is in the past.
    #[cfg(test)]
    fn advance_to(&self, t: SimTime) {
        let _moving = locked(&self.state.moving);
        assert!(t >= self.now(), "cannot advance time backwards");
        self.set(t);
    }

    /// Publishes `t` and wakes the sleepers; the caller holds `moving`.
    fn set(&self, t: SimTime) {
        self.state
            .now
            .store(t.as_secs().to_bits(), Ordering::Release);
        self.state.moved.notify_all();
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime::from_secs(f64::from_bits(self.state.now.load(Ordering::Acquire)))
    }

    fn sleep_until(&self, deadline: SimTime) {
        let state = &*self.state;
        let _woken = (state.moved)
            .wait_while(locked(&state.moving), |_| self.now() < deadline)
            .expect(POISONED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_monotone() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn real_clock_compression_scales_readings() {
        let c = RealClock::with_compression(100.0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        // 20ms wall should read as >= 2 experiment-seconds.
        assert!(c.now().as_secs() >= 2.0, "got {}", c.now());
        assert_eq!(c.compression, 100.0);
    }

    #[test]
    #[should_panic(expected = "compression must be positive")]
    fn real_clock_rejects_zero_compression() {
        let _ = RealClock::with_compression(0.0);
    }

    #[test]
    fn virtual_clock_starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(Duration::from_secs(10.0));
        assert_eq!(c.now().as_secs(), 10.0);
        c.advance_to(SimTime::from_secs(25.0));
        assert_eq!(c.now().as_secs(), 25.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn virtual_clock_rejects_backwards_jump() {
        let c = VirtualClock::new();
        c.advance_to(SimTime::from_secs(5.0));
        c.advance_to(SimTime::from_secs(1.0));
    }

    #[test]
    fn virtual_clock_clones_share_timeline() {
        let c1 = VirtualClock::new();
        let c2 = c1.clone();
        c1.advance(Duration::from_secs(3.0));
        assert_eq!(c2.now().as_secs(), 3.0);
    }

    #[test]
    fn virtual_sleep_wakes_on_advance() {
        let c = VirtualClock::new();
        let c2 = c.clone();
        let h = std::thread::spawn(move || {
            c2.sleep_until(SimTime::from_secs(5.0));
            c2.now()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        c.advance(Duration::from_secs(5.0));
        let woke_at = h.join().unwrap();
        assert!(woke_at.as_secs() >= 5.0);
    }

    #[test]
    fn a_sleeper_woken_by_an_advance_reads_the_time_it_was_advanced_to() {
        let c = VirtualClock::new();
        let t = SimTime::from_secs(7.25);
        let sleeper = {
            let c = c.clone();
            std::thread::spawn(move || {
                c.sleep_until(t);
                c.now()
            })
        };
        // Short of the deadline: the sleeper keeps waiting.
        c.advance(Duration::from_secs(3.0));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!sleeper.is_finished());
        c.advance_to(t);
        assert_eq!(sleeper.join().unwrap(), t, "read without the lock");
        assert_eq!(c.now(), t);
    }

    #[test]
    fn real_sleep_until_past_deadline_returns_immediately() {
        let c = RealClock::new();
        let t = c.now();
        c.sleep_until(t); // already past; must not hang
        c.sleep(Duration::from_secs(-1.0));
    }

    #[test]
    fn clock_trait_object_usable() {
        let c: ClockRef = Arc::new(VirtualClock::new());
        assert_eq!(c.now(), SimTime::ZERO);
    }
}
