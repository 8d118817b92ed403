//! Recording of allocation time-series and cluster utilization.
//!
//! The paper's `track_utilization.py` samples pod occupancy over an
//! experiment and reports (a) the average cluster utilization metric of
//! Table 1 and (b) the stacked per-job profiles of Fig. 9a. The
//! [`UtilizationRecorder`] here is the exact-event equivalent: callers
//! report every allocation change (job started / rescaled / finished) and
//! the recorder integrates the step function instead of sampling it.
//!
//! Jobs are identified by interned [`JobId`]s — recording a sample is a
//! `Copy`, never a `String` clone, so the recorder sits on the
//! scheduling hot path for free. Callers that need names (the Fig. 9
//! CSV emitters) map ids back through their engine's registry at the
//! reporting edge.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::ids::JobId;
use crate::time::SimTime;

/// One allocation-change event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocEvent {
    /// When the change took effect.
    pub at: SimTime,
    /// Which job changed.
    pub job: JobId,
    /// The job's slot count from `at` onward (0 = released).
    pub slots: u32,
}

/// Integrates per-job slot allocations over time.
#[derive(Debug, Clone)]
pub struct UtilizationRecorder {
    capacity: u32,
    events: Vec<AllocEvent>,
}

impl UtilizationRecorder {
    /// A recorder for a cluster with `capacity` total slots.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        UtilizationRecorder {
            capacity,
            events: Vec::new(),
        }
    }

    /// Cluster capacity in slots.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Records that `job` holds `slots` slots from `at` onward.
    ///
    /// Events may be recorded out of order; they are sorted on read.
    #[inline]
    pub fn set(&mut self, at: SimTime, job: JobId, slots: u32) {
        self.events.push(AllocEvent { at, job, slots });
    }

    /// All recorded events, sorted by time (stable for equal times).
    pub fn events(&self) -> Vec<AllocEvent> {
        self.in_time_order().into_owned()
    }

    /// The log in time order: itself when it was recorded that way (an
    /// engine records as its clock advances), a stably sorted copy
    /// otherwise.
    fn in_time_order(&self) -> Cow<'_, [AllocEvent]> {
        if self.events.is_sorted_by_key(|ev| ev.at) {
            return Cow::Borrowed(&self.events);
        }
        let mut sorted = self.events.clone();
        sorted.sort_by_key(|ev| ev.at);
        Cow::Owned(sorted)
    }

    /// The total-allocation step function: `(t, total_slots)` at every
    /// change point, deduplicated to the last value per instant.
    pub fn total_series(&self) -> Vec<(SimTime, u32)> {
        let mut out: Vec<(SimTime, u32)> = Vec::new();
        for (at, total) in totals(&self.in_time_order()) {
            match out.last_mut() {
                Some(last) if last.0 == at => last.1 = total,
                _ => out.push((at, total)),
            }
        }
        out
    }

    /// Per-job step functions, keyed by job id.
    pub fn per_job_series(&self) -> BTreeMap<JobId, Vec<(SimTime, u32)>> {
        let mut map: BTreeMap<JobId, Vec<(SimTime, u32)>> = BTreeMap::new();
        for &ev in self.in_time_order().iter() {
            let series = map.entry(ev.job).or_default();
            match series.last_mut() {
                Some(last) if last.0 == ev.at => last.1 = ev.slots,
                _ => series.push((ev.at, ev.slots)),
            }
        }
        map
    }

    /// Average utilization (fraction of capacity in use) over `[from, to]`.
    ///
    /// Returns 0 for an empty or zero-length window.
    pub fn average_utilization(&self, from: SimTime, to: SimTime) -> f64 {
        let window = (to - from).as_secs();
        if window <= 0.0 {
            return 0.0;
        }
        // Straight off the per-event totals, with no deduplicated
        // series in between: a later change at an instant already
        // stepped to adds `0 s × current`, which is exactly 0.0, and
        // leaves `current` at the instant's last total all the same.
        let mut used_slot_seconds = 0.0;
        let mut current: u32 = 0;
        let mut cursor = from;
        for (t, total) in totals(&self.in_time_order()) {
            if t <= from {
                current = total;
                continue;
            }
            if t >= to {
                break;
            }
            used_slot_seconds += (t - cursor).as_secs() * f64::from(current);
            cursor = t;
            current = total;
        }
        used_slot_seconds += (to - cursor).as_secs() * f64::from(current);
        used_slot_seconds / (window * f64::from(self.capacity))
    }

    /// Maximum total allocation ever recorded.
    pub fn peak(&self) -> u32 {
        self.total_series()
            .iter()
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(0)
    }
}

/// The cluster-wide total after each of `events` (in time order):
/// `(t, total_slots)` once per *event*, so an instant several jobs
/// changed at shows its intermediate totals before its last.
fn totals(events: &[AllocEvent]) -> impl Iterator<Item = (SimTime, u32)> + '_ {
    let mut per_job: Vec<u32> = Vec::new();
    let mut running_total: u64 = 0;
    events.iter().map(move |ev| {
        if ev.job.index() >= per_job.len() {
            per_job.resize(ev.job.index() + 1, 0);
        }
        let prev = &mut per_job[ev.job.index()];
        running_total = running_total - u64::from(*prev) + u64::from(ev.slots);
        *prev = ev.slots;
        let total = u32::try_from(running_total).expect("total slots fit u32");
        (ev.at, total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    const A: JobId = JobId(0);
    const B: JobId = JobId(1);

    #[test]
    fn single_job_full_window() {
        let mut r = UtilizationRecorder::new(10);
        r.set(t(0.0), A, 5);
        r.set(t(10.0), A, 0);
        assert!((r.average_utilization(t(0.0), t(10.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rescale_changes_integral() {
        let mut r = UtilizationRecorder::new(10);
        r.set(t(0.0), A, 10);
        r.set(t(5.0), A, 2); // shrink at t=5
        r.set(t(10.0), A, 0);
        // 5s at 10 slots + 5s at 2 slots = 60 slot-seconds of 100.
        assert!((r.average_utilization(t(0.0), t(10.0)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_jobs_sum() {
        let mut r = UtilizationRecorder::new(4);
        r.set(t(0.0), A, 2);
        r.set(t(2.0), B, 2);
        r.set(t(4.0), A, 0);
        r.set(t(6.0), B, 0);
        // [0,2): 2, [2,4): 4, [4,6): 2 => 16 slot-s of 24.
        let u = r.average_utilization(t(0.0), t(6.0));
        assert!((u - 16.0 / 24.0).abs() < 1e-12);
        assert_eq!(r.peak(), 4);
    }

    #[test]
    fn window_clips_events_outside() {
        let mut r = UtilizationRecorder::new(2);
        r.set(t(0.0), A, 2);
        r.set(t(100.0), A, 0);
        // Query a window strictly inside the allocation.
        assert!((r.average_utilization(t(10.0), t(20.0)) - 1.0).abs() < 1e-12);
        // Query a window after release.
        assert_eq!(r.average_utilization(t(100.0), t(110.0)), 0.0);
    }

    #[test]
    fn out_of_order_events_are_sorted() {
        let mut r = UtilizationRecorder::new(4);
        r.set(t(5.0), A, 0);
        r.set(t(0.0), A, 4);
        assert!((r.average_utilization(t(0.0), t(10.0)) - 0.5).abs() < 1e-12);
    }

    /// The integral as it is defined: over the deduplicated
    /// [`UtilizationRecorder::total_series`].
    fn utilization_over_total_series(r: &UtilizationRecorder, from: SimTime, to: SimTime) -> f64 {
        let (mut used, mut current, mut cursor) = (0.0, 0u32, from);
        for (t, total) in r.total_series() {
            if t <= from {
                current = total;
                continue;
            }
            if t >= to {
                break;
            }
            used += (t - cursor).as_secs() * f64::from(current);
            cursor = t;
            current = total;
        }
        used += (to - cursor).as_secs() * f64::from(current);
        used / ((to - from).as_secs() * f64::from(r.capacity()))
    }

    #[test]
    fn one_pass_integral_is_bit_identical_to_the_series_integral() {
        // Thirds of a second (inexact in binary), three jobs changing
        // at each instant, and windows that cut into both ends.
        let log: Vec<AllocEvent> = (0..300u32)
            .map(|i| AllocEvent {
                at: t(f64::from(i / 3) / 3.0),
                job: JobId(i % 7),
                slots: (i * 5) % 11,
            })
            .collect();
        // The same log with the instants interleaved and the order
        // inside each kept: the sorted-copy fallback.
        let (early, late): (Vec<_>, Vec<_>) = (0..log.len()).partition(|i| i % 6 < 3);
        let recorded = |events: &mut dyn Iterator<Item = &AllocEvent>| {
            let mut r = UtilizationRecorder::new(64);
            events.for_each(|ev| r.set(ev.at, ev.job, ev.slots));
            r
        };
        let in_order = recorded(&mut log.iter());
        let shuffled = recorded(&mut early.iter().chain(&late).map(|&i| &log[i]));
        assert_eq!(shuffled.events(), in_order.events());
        for (from, to) in [(0.0, 40.0), (2.5, 17.0), (1.0 / 3.0, 20.0 / 3.0)] {
            let expected = utilization_over_total_series(&in_order, t(from), t(to));
            assert!(expected > 0.0);
            for r in [&in_order, &shuffled] {
                let got = r.average_utilization(t(from), t(to));
                assert_eq!(got.to_bits(), expected.to_bits(), "[{from}, {to}]");
            }
        }
    }

    #[test]
    fn empty_recorder_reports_zero() {
        let r = UtilizationRecorder::new(8);
        assert_eq!(r.average_utilization(t(0.0), t(1.0)), 0.0);
        assert_eq!(r.peak(), 0);
    }

    #[test]
    fn zero_length_window_is_zero() {
        let mut r = UtilizationRecorder::new(8);
        r.set(t(0.0), A, 8);
        assert_eq!(r.average_utilization(t(1.0), t(1.0)), 0.0);
    }

    #[test]
    fn total_series_merges_same_instant() {
        let mut r = UtilizationRecorder::new(8);
        r.set(t(0.0), A, 4);
        r.set(t(0.0), B, 2);
        let s = r.total_series();
        assert_eq!(s, vec![(t(0.0), 6)]);
    }

    #[test]
    fn per_job_series_tracks_each_job() {
        let mut r = UtilizationRecorder::new(8);
        r.set(t(0.0), A, 4);
        r.set(t(1.0), B, 2);
        r.set(t(2.0), A, 6);
        let m = r.per_job_series();
        assert_eq!(m[&A], vec![(t(0.0), 4), (t(2.0), 6)]);
        assert_eq!(m[&B], vec![(t(1.0), 2)]);
    }

    #[test]
    fn sparse_job_ids_are_fine() {
        // Ids need not be contiguous from the recorder's point of view.
        let mut r = UtilizationRecorder::new(8);
        r.set(t(0.0), JobId(7), 3);
        r.set(t(2.0), JobId(7), 0);
        assert_eq!(r.peak(), 3);
        assert!((r.average_utilization(t(0.0), t(4.0)) - 3.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = UtilizationRecorder::new(0);
    }
}
