//! Instants and durations measured in seconds.
//!
//! Both the discrete-event simulator and the wall-clock operator harness
//! express time as `f64` seconds since an experiment epoch. The newtypes
//! here give those floats total ordering (via [`f64::total_cmp`]) so they
//! can live in `BinaryHeap`s and `BTreeMap`s, while staying trivially
//! convertible to plain seconds for arithmetic and reporting.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant on an experiment timeline, in seconds since the epoch.
///
/// `SimTime` is totally ordered; `NaN` values are rejected at
/// construction in debug builds and compare via `total_cmp` otherwise.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A span between two [`SimTime`]s, in seconds. May be negative when it
/// is the result of subtracting a later instant from an earlier one.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Duration(f64);

impl SimTime {
    /// The experiment epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);
    /// A time earlier than any real event; used as the "never acted on"
    /// sentinel for `lastAction` (decision 6 in the `policy/elastic.rs`
    /// header of `elastic-core`).
    pub const NEG_INFINITY: SimTime = SimTime(f64::NEG_INFINITY);
    /// A time later than any real event.
    pub const INFINITY: SimTime = SimTime(f64::INFINITY);

    /// Creates an instant at `secs` seconds past the epoch.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// Seconds since the epoch.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// `true` for the `NEG_INFINITY`/`INFINITY` sentinels.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0.0);
    /// Unbounded span; used for the moldable policy's infinite
    /// `T_rescale_gap` emulation (paper §4.3.2).
    pub const INFINITY: Duration = Duration(f64::INFINITY);

    /// Creates a span of `secs` seconds.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "Duration cannot be NaN");
        Duration(secs)
    }

    /// Creates a span of `ms` milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Duration::from_secs(ms / 1e3)
    }

    /// Length in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Length in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Absolute value of the span.
    #[inline]
    pub fn abs(self) -> Duration {
        Duration(self.0.abs())
    }
}

impl From<std::time::Duration> for Duration {
    fn from(d: std::time::Duration) -> Self {
        Duration(d.as_secs_f64())
    }
}

impl Eq for SimTime {}
impl Eq for Duration {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Duration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Duration {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t0 = SimTime::from_secs(10.0);
        let t1 = t0 + Duration::from_secs(5.5);
        assert_eq!(t1.as_secs(), 15.5);
        assert_eq!((t1 - t0).as_secs(), 5.5);
        assert_eq!((t0 - t1).as_secs(), -5.5);
        let mut t = t0;
        t += Duration::from_secs(1.0);
        assert_eq!(t.as_secs(), 11.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::NEG_INFINITY,
            SimTime::from_secs(-1.0),
            SimTime::INFINITY,
            SimTime::ZERO,
        ];
        v.sort();
        assert_eq!(v[0], SimTime::NEG_INFINITY);
        assert_eq!(v[4], SimTime::INFINITY);
        assert_eq!(v[1].as_secs(), -1.0);
    }

    #[test]
    fn sentinel_gap_check_never_blocks() {
        // The `lastAction = -inf` sentinel must make any finite gap pass.
        let last = SimTime::NEG_INFINITY;
        let now = SimTime::ZERO;
        let gap = Duration::from_secs(1e12);
        assert!(now - last >= gap);
    }

    #[test]
    fn infinite_gap_blocks_everything() {
        let last = SimTime::ZERO;
        let now = SimTime::from_secs(1e15);
        assert!(now - last < Duration::INFINITY);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(Duration::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(Duration::from_secs(2.0).as_millis(), 2000.0);
        let std = std::time::Duration::from_millis(125);
        assert_eq!(Duration::from(std).as_millis(), 125.0);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(!SimTime::INFINITY.is_finite());
        assert!(a.is_finite());
    }

    #[test]
    fn duration_sum_and_abs() {
        let total: Duration = [1.0, 2.0, 3.5]
            .iter()
            .map(|&s| Duration::from_secs(s))
            .sum();
        assert_eq!(total.as_secs(), 6.5);
        assert_eq!(Duration::from_secs(-2.0).abs().as_secs(), 2.0);
    }
}
