//! Recording of allocation time-series and cluster utilization.
//!
//! The paper's `track_utilization.py` samples pod occupancy over an
//! experiment and reports (a) the average cluster utilization metric of
//! Table 1 and (b) the stacked per-job profiles of Fig. 9a. Both are
//! exact-event equivalents here: callers report every allocation change
//! (job started / rescaled / finished) in time order, and the step
//! function is integrated instead of sampled. [`Utilization`] folds (a)
//! as the changes arrive, in O(1) state; the [`UtilizationRecorder`]
//! keeps every change for (b), and only a caller that asks for the
//! series keeps one ([`Utilization::keep_log`]).
//!
//! Jobs are identified by interned [`JobId`]s — recording a sample is a
//! `Copy`, never a `String` clone, so the recorder sits on the
//! scheduling hot path for free. Callers that need names (the Fig. 9
//! CSV emitters) map ids back through their engine's registry at the
//! reporting edge.

use std::collections::BTreeMap;

use crate::counters::ColumnBytes;
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

/// Every allocation change of a run, in time order — what a
/// [`Utilization`] keeps when asked ([`Utilization::keep_log`]): the
/// per-job and total series behind the Fig. 9 profiles, and the
/// integral the fold is held to.
#[derive(Debug, Clone)]
pub struct UtilizationRecorder {
    capacity: u32,
    events: Vec<AllocEvent>,
}

impl UtilizationRecorder {
    /// A recorder for a cluster with `capacity` total slots.
    fn new(capacity: u32) -> Self {
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
    /// Changes are recorded in time order, as an engine's clock
    /// advances: `at` before the last recorded change panics.
    #[inline]
    fn set(&mut self, at: SimTime, job: JobId, slots: u32) {
        let last = self.events.last().map_or(at, |ev| ev.at);
        assert!(last <= at, "a change at {at:?} recorded after {last:?}");
        self.events.push(AllocEvent { at, job, slots });
    }

    /// All recorded events, in time order (record order at equal times).
    pub fn events(&self) -> &[AllocEvent] {
        &self.events
    }

    /// The total-allocation step function: `(t, total_slots)` at every
    /// change point, deduplicated to the last value per instant.
    pub fn total_series(&self) -> Vec<(SimTime, u32)> {
        let mut out: Vec<(SimTime, u32)> = Vec::new();
        for (at, total) in totals(&self.events) {
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
        for &ev in &self.events {
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
        let used_slot_seconds = slot_seconds(totals(&self.events), from, to);
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

/// Slot-seconds in use over `[from, to]`, integrated left to right
/// over `totals` (the cluster-wide total after each change, in time
/// order): the changes up to `from` only set the starting total, and
/// the window ends before the first change at `to`.
fn slot_seconds(
    totals: impl IntoIterator<Item = (SimTime, u32)>,
    from: SimTime,
    to: SimTime,
) -> f64 {
    let mut used_slot_seconds = 0.0;
    let mut current: u32 = 0;
    let mut cursor = from;
    for (t, total) in totals {
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
    used_slot_seconds + (to - cursor).as_secs() * f64::from(current)
}

/// Average cluster utilization over a run's window — the first
/// completed job's submission to the last completion — folded as the
/// allocation changes arrive, so it costs O(1) state however long the
/// run: the total in use, the slot-seconds it has integrated, the
/// instant it integrated up to, and the peak total. The caller keeps
/// each job's own count (it passes the count a change replaces).
///
/// The result is bit-identical to [`UtilizationRecorder::average_utilization`]
/// over the same changes and window. A window that starts at or before
/// every change integrates exactly what the fold integrates from the
/// first change on (anything before it adds `0 s × 0`), and the value
/// at the last completion is what the fold read at that instant's
/// first change — so the fold snapshots it there, and a change after
/// the last completion (a cancelled or failed job's) does not count.
/// A window that starts later (every job holding slots before it was
/// cancelled or failed) integrates from its start; until a completed
/// job submitted at or before the first change rules that out, the
/// fold keeps the instant-by-instant totals to integrate over then.
#[derive(Debug, Clone)]
pub struct Utilization {
    capacity: u32,
    total: u32,
    /// Slot-seconds integrated from the first change up to `cursor`.
    used: f64,
    cursor: SimTime,
    /// The largest total an instant ended at, before `cursor`'s.
    peak: u32,
    /// The instant of the first change.
    start: Option<SimTime>,
    /// `(from, to, used at to)` of the window so far.
    window: Option<(SimTime, SimTime, f64)>,
    /// The total each instant ended at, from `start` on, while the
    /// window might still start after it.
    unconfirmed: Option<Vec<(SimTime, u32)>>,
    log: Option<UtilizationRecorder>,
}

impl Utilization {
    /// A fold over a cluster of `capacity` total slots.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Utilization {
            capacity,
            total: 0,
            used: 0.0,
            cursor: SimTime::ZERO,
            peak: 0,
            start: None,
            window: None,
            unconfirmed: Some(Vec::new()),
            log: None,
        }
    }

    /// Keeps every change in an [`UtilizationRecorder`] too, for a
    /// caller that reads the series ([`Utilization::log`]).
    ///
    /// # Panics
    /// If a change was already recorded.
    pub fn keep_log(&mut self) {
        assert!(
            self.start.is_none(),
            "the log must be kept from the first change"
        );
        self.log = Some(UtilizationRecorder::new(self.capacity));
    }

    /// Every change, if [`Utilization::keep_log`] asked for them.
    pub fn log(&self) -> Option<&UtilizationRecorder> {
        self.log.as_ref()
    }

    /// `job` holds `slots` slots from `at` onward, where it held `from`.
    /// Changes arrive in time order: `at` before the last change panics.
    #[inline]
    pub fn record(&mut self, at: SimTime, job: JobId, from: u32, slots: u32) {
        if self.start.is_none() {
            (self.start, self.cursor) = (Some(at), at);
        }
        let cursor = self.cursor;
        assert!(cursor <= at, "a change at {at:?} recorded after {cursor:?}");
        if at > cursor {
            self.peak = self.peak.max(self.total);
        }
        self.used += (at - cursor).as_secs() * f64::from(self.total);
        self.cursor = at;
        self.total = self.total - from + slots;
        if let Some(totals) = &mut self.unconfirmed {
            match totals.last_mut() {
                Some(last) if last.0 == at => last.1 = self.total,
                _ => totals.push((at, self.total)),
            }
        }
        if let Some(log) = &mut self.log {
            log.set(at, job, slots);
        }
    }

    /// A job submitted at `submitted_at` completed at `at`, after its
    /// release was recorded: the window now ends at `at`, and starts no
    /// later than `submitted_at`.
    pub fn completed(&mut self, submitted_at: SimTime, at: SimTime) {
        let from = self
            .window
            .map_or(submitted_at, |(from, ..)| from.min(submitted_at));
        self.window = Some((from, at, self.used));
        if self.start.is_some_and(|start| submitted_at <= start) {
            self.unconfirmed = None;
        }
    }

    /// Average utilization over the window; 0 before a completion or
    /// over a zero-length window.
    pub fn average(&self) -> f64 {
        let Some((from, to, used)) = self.window else {
            return 0.0;
        };
        let window = (to - from).as_secs();
        if window <= 0.0 {
            return 0.0;
        }
        let used = match &self.unconfirmed {
            None => used,
            Some(totals) => slot_seconds(totals.iter().copied(), from, to),
        };
        used / (window * f64::from(self.capacity))
    }

    /// The largest total allocation any instant ended at.
    pub fn peak(&self) -> u32 {
        self.peak.max(self.total)
    }

    /// The bytes of the totals kept while the window is unconfirmed,
    /// and of the log, if kept.
    pub fn column_bytes(&self) -> Vec<ColumnBytes> {
        let mut columns = Vec::new();
        if let Some(totals) = &self.unconfirmed {
            columns.push(ColumnBytes::of_vec("utilization totals", totals));
        }
        if let Some(log) = &self.log {
            columns.push(ColumnBytes::of_vec("allocation log", &log.events));
        }
        columns
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
    #[should_panic(expected = "recorded after")]
    fn a_change_recorded_backwards_panics() {
        let mut r = UtilizationRecorder::new(4);
        r.set(t(5.0), A, 0);
        r.set(t(0.0), A, 4);
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
        let mut r = UtilizationRecorder::new(64);
        log.iter().for_each(|ev| r.set(ev.at, ev.job, ev.slots));
        assert_eq!(r.events(), log);
        for (from, to) in [(0.0, 40.0), (2.5, 17.0), (1.0 / 3.0, 20.0 / 3.0)] {
            let expected = utilization_over_total_series(&r, t(from), t(to));
            assert!(expected > 0.0);
            let got = r.average_utilization(t(from), t(to));
            assert_eq!(got.to_bits(), expected.to_bits(), "[{from}, {to}]");
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

    /// Random changes on a third-of-a-second grid (several per instant,
    /// some changing nothing) with completions among them, some of jobs
    /// submitted after the first change and some followed by changes:
    /// the fold equals the recorder's integral over the same window,
    /// bit for bit, whether or not the window starts after a change.
    #[test]
    fn the_fold_is_bit_identical_to_the_logged_integral() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let (mut confirmed, mut late) = (0, 0);
        for _ in 0..200 {
            let mut fold = Utilization::new(64);
            fold.keep_log();
            let mut held = [0u32; 7];
            let mut window: Option<(SimTime, SimTime)> = None;
            let late_start = next(2) == 0;
            let changes = 1 + next(120);
            for i in 0..changes {
                let at = t(i as f64 / 9.0 + (i / 3) as f64 / 3.0);
                let job = next(7) as usize;
                let slots = if next(4) == 0 {
                    held[job]
                } else {
                    next(9) as u32
                };
                fold.record(at, JobId(job as u32), held[job], slots);
                held[job] = slots;
                if next(5) == 0 {
                    let earliest = if late_start {
                        at.as_secs().min(1.0)
                    } else {
                        0.0
                    };
                    let submitted = t(earliest + (at.as_secs() - earliest) * next(4) as f64 / 4.0);
                    fold.completed(submitted, at);
                    let from = window.map_or(submitted, |(from, _)| from.min(submitted));
                    window = Some((from, at));
                }
            }
            let expected = match window {
                Some((from, to)) => {
                    let log = fold.log().expect("kept");
                    if from > log.events()[0].at {
                        late += 1;
                    } else {
                        confirmed += 1;
                    }
                    log.average_utilization(from, to)
                }
                None => 0.0,
            };
            assert_eq!(fold.average().to_bits(), expected.to_bits());
            assert_eq!(fold.peak(), fold.log().expect("kept").peak());
        }
        assert!(
            confirmed > 20 && late > 20,
            "{confirmed} confirmed, {late} late"
        );
    }

    #[test]
    #[should_panic(expected = "recorded after")]
    fn the_fold_refuses_a_change_recorded_backwards() {
        let mut fold = Utilization::new(4);
        fold.record(t(5.0), A, 0, 2);
        fold.record(t(1.0), A, 2, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = UtilizationRecorder::new(0);
    }
}
