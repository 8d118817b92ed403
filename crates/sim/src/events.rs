//! The discrete-event queue.
//!
//! A deterministic **calendar (ladder) queue**: events are spread over
//! an array of time buckets so that push and pop are O(1) amortized
//! instead of the O(log n) of a binary heap — at trace scale the heap
//! holds millions of entries and every sift walks ~20 cache-missing
//! levels, which made it the hottest structure in the engine.
//!
//! Pop order is one total order over the pending entries: timestamp,
//! then the kernel's [`EventClass`] (the within-instant order the
//! operator's tick applies too), then the job the event names, then
//! insertion sequence — `(at, class, job, seq)`, every part computed
//! from the entry itself. A pop returns the minimum of what is pending
//! *at that moment*: an entry pushed at the instant being drained pops
//! next if its class is lower than the one just popped, never before
//! the cursor. Runs are exactly reproducible.
//!
//! Structure:
//!
//! * **Current bucket** (`cur`) — the bucket being drained, sorted by
//!   that order and consumed through a cursor. Pushes that land inside
//!   its time window (the common "completion scheduled soon" case, and
//!   the only-correctness case of a push at or before `now`) are
//!   binary-inserted behind the cursor.
//! * **Epoch piles** (`piles`) — the rest of the near horizon, split
//!   into equal-width windows. A push appends to its pile unsorted in
//!   O(1); a pile is sorted once, when it becomes the current bucket.
//! * **Far list** (`far`) — everything beyond the horizon (or with a
//!   non-finite timestamp), kept unsorted with O(1) appends. When the
//!   epoch's piles are exhausted the far list is re-bucketized into a
//!   fresh epoch spanning its own min..max; a degenerate span (all one
//!   instant, or non-finite) falls back to sorting the whole list as a
//!   single terminal bucket, which is always correct.
//!
//! Bucket assignment is a monotone function of the timestamp alone and
//! every bucket is sorted by the whole key when it is promoted, so no
//! routing choice can invert the total order.
//!
//! Completion events carry a per-job generation number; rescaling a job
//! bumps its generation, turning any previously scheduled completion
//! into a harmless stale event (the standard DES invalidation idiom).
//!
//! Two scale features keep the queue O(live jobs) on trace-scale runs:
//!
//! * **Submit coalescing** — a burst of submissions at one timestamp is
//!   a single [`Event::Submit`] carrying a contiguous id range, not n
//!   queue entries.
//! * **Stale compaction** — the engine reports each invalidated
//!   completion via [`EventQueue::mark_stale`]; once more than half the
//!   queue is stale the engine sweeps it with [`EventQueue::compact`],
//!   which filters each bucket in place (a bucket is already in pop
//!   order or about to be sorted into it), so
//!   rescale-heavy runs cannot accumulate dead entries without bound.

use elastic_core::kernel::EventClass;
use hpc_metrics::{JobId, SimTime};

/// A scheduled simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Submission of `count` jobs with contiguous ids starting at
    /// `first`, all at this timestamp (count > 1 when the workload's
    /// submission gap puts several arrivals on one instant).
    Submit {
        /// First job of the batch.
        first: JobId,
        /// Number of jobs submitted together.
        count: u32,
    },
    /// Predicted job completion (valid only if the job's generation
    /// still equals `generation`).
    Completion {
        /// The job.
        job: JobId,
        /// Generation at scheduling time.
        generation: u64,
    },
    /// Client cancellation of a job (the DES analogue of
    /// `SchedulerClient::cancel`).
    Cancel {
        /// The job.
        job: JobId,
    },
    /// Periodic policy-timer deadline (the DES analogue of the
    /// operator's timer pass): the engine calls
    /// `SchedulingPolicy::on_timer` and reschedules the next firing one
    /// `timer_interval` later while non-terminal jobs remain.
    Timer,
    /// Permanent loss of `slots` worker slots (a node failure from the
    /// workload's `FaultSpec`); never returns.
    NodeFail {
        /// Slots lost.
        slots: u32,
    },
    /// Temporary loss of `slots` worker slots (a spot reclamation); a
    /// matching [`Event::CapacityReturn`] gives them back later.
    CapacityReclaim {
        /// Slots reclaimed.
        slots: u32,
    },
    /// Return of `slots` previously reclaimed worker slots.
    CapacityReturn {
        /// Slots restored.
        slots: u32,
    },
    /// A kill-and-requeued job's backoff expired: it re-enters the
    /// scheduling queue and the admission decision runs again.
    Requeue {
        /// The job.
        job: JobId,
    },
    /// A scheduled transient control-plane fault (the workload's
    /// `FlakySpec`): the engine selects the deterministic victim, asks
    /// the shared resilience core for the outcome, and routes it
    /// through the existing requeue/evict machinery. Never stale.
    Flaky {
        /// Index into `FlakySpec::events`.
        index: u32,
    },
}

impl Event {
    /// Where the event sorts among the events of its instant: its
    /// kernel class, then the job it names (the first of a submit
    /// batch; events that name none tie and fall back to insertion).
    fn order(&self) -> (EventClass, u32) {
        match *self {
            Event::Submit { first, .. } => (EventClass::Submit, first.0),
            Event::Cancel { job } => (EventClass::Cancel, job.0),
            Event::NodeFail { .. }
            | Event::CapacityReclaim { .. }
            | Event::CapacityReturn { .. } => (EventClass::Capacity, 0),
            Event::Flaky { .. } => (EventClass::Flaky, 0),
            Event::Requeue { job } => (EventClass::Requeue, job.0),
            Event::Completion { job, .. } => (EventClass::Completion, job.0),
            Event::Timer => (EventClass::Timer, 0),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| (self.event.order(), self.seq).cmp(&(other.event.order(), other.seq)))
    }
}

/// How full of stale entries the queue may get (numerator/denominator)
/// before [`EventQueue::should_compact`] asks for a sweep.
const COMPACT_STALE_FRACTION: (usize, usize) = (1, 2);
/// No compaction below this queue size — sweeping a tiny queue is more
/// work than letting the stale entries pop out naturally.
const COMPACT_MIN_LEN: usize = 64;
/// An epoch with fewer far-list entries than this is not worth
/// bucketizing: sorting it once as a single terminal bucket is cheaper.
const MIN_BUCKETIZE: usize = 32;
/// Epoch pile-count bounds; the count scales with the far-list size so
/// piles stay around [`PILE_TARGET`] entries.
const MIN_PILES: usize = 16;
const MAX_PILES: usize = 1 << 16;
/// Aimed-for entries per pile at re-bucketize time.
const PILE_TARGET: usize = 16;

/// Deterministic calendar event queue with stale-entry accounting.
///
/// Pops in `(time, class, job, insertion)` order (module docs), keeps
/// the stale-completion accounting compaction runs on, and peeks in
/// O(1) ([`EventQueue::next_at`]) for the engine's same-instant batch
/// drain.
#[derive(Debug)]
pub struct EventQueue {
    /// The bucket currently being drained: sorted in pop order,
    /// `cur[cur_head..]` still pending.
    cur: Vec<Entry>,
    cur_head: usize,
    /// Exclusive upper edge of `cur`'s time window.
    cur_end: f64,
    /// The current bucket is the epoch's last: it additionally owns
    /// every timestamp up to and including `epoch_max`.
    cur_last: bool,
    /// Future piles of the current epoch (unsorted append piles).
    piles: Vec<Vec<Entry>>,
    /// Next pile to promote; piles before it are empty (drained).
    pile_idx: usize,
    /// Low edge of pile 0's window.
    epoch_lo: f64,
    /// Pile window width (seconds).
    width: f64,
    /// Largest timestamp the epoch covers (inclusive).
    epoch_max: SimTime,
    /// Everything beyond the epoch horizon, unsorted.
    far: Vec<Entry>,
    /// Whether an epoch is materialized (false until the first pop
    /// after seeding, and again whenever the queue fully drains).
    active: bool,
    len: usize,
    next_seq: u64,
    stale: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            cur: Vec::new(),
            cur_head: 0,
            cur_end: f64::NEG_INFINITY,
            cur_last: false,
            piles: Vec::new(),
            pile_idx: 0,
            epoch_lo: 0.0,
            width: 0.0,
            epoch_max: SimTime::NEG_INFINITY,
            far: Vec::new(),
            active: false,
            len: 0,
            next_seq: 0,
            stale: 0,
        }
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Entry { at, seq, event };
        self.len += 1;
        if !self.active {
            // Seeding phase (or fully drained): accumulate unsorted;
            // the first pop bucketizes everything at once.
            self.far.push(e);
            return;
        }
        if at.as_secs() < self.cur_end || (self.cur_last && at <= self.epoch_max) {
            // Lands in the bucket being drained: binary-insert behind
            // the cursor, by the whole key. An entry that sorts before
            // everything pending — a push before the last popped
            // instant, or at it with a lower class — lands at
            // `cur_head`, i.e. it pops next.
            let pos = self.cur_head + self.cur[self.cur_head..].partition_point(|p| *p <= e);
            self.cur.insert(pos, e);
        } else if self.pile_idx < self.piles.len() && at <= self.epoch_max {
            let idx =
                pile_of(self.epoch_lo, self.width, at).clamp(self.pile_idx, self.piles.len() - 1);
            self.piles[idx].push(e);
        } else {
            self.far.push(e);
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.ensure_front();
        let e = *self.cur.get(self.cur_head)?;
        self.cur_head += 1;
        self.len -= 1;
        if self.len == 0 {
            self.reset_empty();
        }
        Some((e.at, e.event))
    }

    /// Timestamp of the earliest pending event without removing it.
    /// O(1) except when it has to promote the next bucket — the same
    /// work an immediate [`EventQueue::pop`] would do anyway.
    pub fn next_at(&mut self) -> Option<SimTime> {
        self.ensure_front();
        self.cur.get(self.cur_head).map(|e| e.at)
    }

    /// Kind of the earliest pending event (with its timestamp), without
    /// removing it. Drives the engine's same-instant batch drain.
    pub fn peek(&mut self) -> Option<(SimTime, Event)> {
        self.ensure_front();
        self.cur.get(self.cur_head).map(|e| (e.at, e.event))
    }

    /// Makes `cur[cur_head]` the global minimum entry, promoting piles
    /// and re-bucketizing the far list as needed.
    fn ensure_front(&mut self) {
        while self.cur_head >= self.cur.len() {
            if self.active {
                // Promote the next non-empty pile of this epoch.
                while self.pile_idx < self.piles.len() {
                    let idx = self.pile_idx;
                    self.pile_idx += 1;
                    if !self.piles[idx].is_empty() {
                        self.cur = std::mem::take(&mut self.piles[idx]);
                        self.cur.sort_unstable();
                        self.cur_head = 0;
                        self.cur_end = self.epoch_lo + self.pile_idx as f64 * self.width;
                        self.cur_last = self.pile_idx == self.piles.len();
                        break;
                    }
                }
                if self.cur_head < self.cur.len() {
                    continue; // re-check the loop condition (promoted)
                }
                if self.pile_idx < self.piles.len() {
                    continue; // promoted an empty tail? (unreachable)
                }
            }
            if self.far.is_empty() {
                return; // genuinely empty
            }
            self.rebuild_epoch();
        }
    }

    /// Spreads the far list over a fresh epoch of piles and promotes
    /// the first bucket. Degenerate spans (single instant, non-finite
    /// bounds) sort the whole list as one terminal bucket instead —
    /// always correct, just unbucketed.
    fn rebuild_epoch(&mut self) {
        debug_assert!(!self.far.is_empty());
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in &self.far {
            let t = e.at.as_secs();
            lo = lo.min(t);
            hi = hi.max(t);
        }
        let span = hi - lo;
        let n = self.far.len();
        self.active = true;
        if n < MIN_BUCKETIZE || !span.is_finite() || span <= 0.0 {
            // Terminal single bucket covering everything seen so far.
            self.cur = std::mem::take(&mut self.far);
            self.cur.sort_unstable();
            self.cur_head = 0;
            self.cur_end = hi;
            self.cur_last = true;
            self.epoch_max = self.cur.last().expect("non-empty").at;
            self.piles.clear();
            self.pile_idx = 0;
            return;
        }
        let nb = (n / PILE_TARGET).clamp(MIN_PILES, MAX_PILES);
        let width = span / nb as f64;
        if !width.is_normal() {
            // Subnormal width: indistinguishable instants — fall back.
            self.cur = std::mem::take(&mut self.far);
            self.cur.sort_unstable();
            self.cur_head = 0;
            self.cur_end = hi;
            self.cur_last = true;
            self.epoch_max = self.cur.last().expect("non-empty").at;
            self.piles.clear();
            self.pile_idx = 0;
            return;
        }
        self.piles.clear();
        self.piles.resize_with(nb, Vec::new);
        self.epoch_lo = lo;
        self.width = width;
        self.epoch_max = SimTime::from_secs(hi);
        for e in self.far.drain(..) {
            let idx = pile_of(lo, width, e.at).min(nb - 1);
            self.piles[idx].push(e);
        }
        self.pile_idx = 0;
        self.cur.clear();
        self.cur_head = 0;
        self.cur_end = lo;
        self.cur_last = false;
        // The outer ensure_front loop promotes the first pile.
    }

    /// Drops drained storage once the queue is fully empty so the next
    /// seeding phase starts clean.
    fn reset_empty(&mut self) {
        self.cur.clear();
        self.cur_head = 0;
        self.cur_end = f64::NEG_INFINITY;
        self.cur_last = false;
        self.piles.clear();
        self.pile_idx = 0;
        self.epoch_max = SimTime::NEG_INFINITY;
        self.active = false;
    }

    /// Number of pending events (including stale completions).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Pending events not known to be stale — the live backlog the
    /// engine's `peak_queue_len` high-water mark tracks.
    pub fn live_len(&self) -> usize {
        self.len - self.stale.min(self.len)
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records that one pending completion was invalidated (its job
    /// rescaled or cancelled). The engine calls this exactly once per
    /// invalidation; the counter drives [`EventQueue::should_compact`].
    pub fn mark_stale(&mut self) {
        self.stale += 1;
    }

    /// Records that a stale entry left the queue by being popped (the
    /// engine noticed its generation mismatch).
    pub fn note_stale_popped(&mut self) {
        self.stale = self.stale.saturating_sub(1);
    }

    /// Known-stale entries still in the queue.
    pub fn stale_len(&self) -> usize {
        self.stale
    }

    /// `true` once more than half the (non-trivial) queue is stale.
    pub fn should_compact(&self) -> bool {
        let (num, den) = COMPACT_STALE_FRACTION;
        self.len >= COMPACT_MIN_LEN && self.stale * den > self.len * num
    }

    /// Sweeps the queue, keeping only entries for which `is_live`
    /// returns true. Each bucket filters in place — the current bucket
    /// keeps its sorted order, piles and far list are sorted when
    /// promoted — so the pop order of the survivors is unchanged. Resets
    /// the stale counter.
    pub fn compact(&mut self, mut is_live: impl FnMut(&Event) -> bool) {
        if self.cur_head > 0 {
            self.cur.drain(..self.cur_head);
            self.cur_head = 0;
        }
        self.cur.retain(|e| is_live(&e.event));
        let first_pending = self.pile_idx.min(self.piles.len());
        for pile in &mut self.piles[first_pending..] {
            pile.retain(|e| is_live(&e.event));
        }
        self.far.retain(|e| is_live(&e.event));
        self.len = self.cur.len() + self.piles.iter().map(Vec::len).sum::<usize>() + self.far.len();
        self.stale = 0;
        if self.len == 0 {
            self.reset_empty();
        }
    }
}

/// Pile index of `at` in an epoch anchored at `lo` with the given
/// width. Monotone in `at` (IEEE subtraction, division and floor are
/// monotone for a fixed `lo`/`width`), which is what makes the bucket
/// routing order-safe.
fn pile_of(lo: f64, width: f64, at: SimTime) -> usize {
    let rel = (at.as_secs() - lo) / width;
    if rel <= 0.0 {
        0
    } else {
        rel as usize // saturates at usize::MAX for huge/overflowed rel
    }
}

#[cfg(test)]
mod tests {
    use proptest::{any, prop_assert, prop_assert_eq, proptest};

    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn submit(job: u32) -> Event {
        Event::Submit {
            first: JobId(job),
            count: 1,
        }
    }

    fn first_of(e: Event) -> u32 {
        match e {
            Event::Submit { first, .. } => first.0,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5.0), submit(1));
        q.push(t(1.0), submit(0));
        q.push(t(3.0), submit(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| first_of(e))
            .collect();
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        // Same instant, same class, no job named: insertion decides
        // (not the payload — the indices go in descending).
        let mut q = EventQueue::new();
        for index in (0..10).rev() {
            q.push(t(7.0), Event::Flaky { index });
        }
        let order: Vec<Event> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let pushed: Vec<Event> = (0..10).rev().map(|index| Event::Flaky { index }).collect();
        assert_eq!(order, pushed);
    }

    #[test]
    fn completion_events_carry_generation() {
        let mut q = EventQueue::new();
        q.push(
            t(1.0),
            Event::Completion {
                job: JobId(0),
                generation: 2,
            },
        );
        let (_, e) = q.pop().unwrap();
        assert_eq!(
            e,
            Event::Completion {
                job: JobId(0),
                generation: 2
            }
        );
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn compaction_trigger_respects_threshold_and_min_len() {
        let mut q = EventQueue::new();
        for g in 0..10 {
            q.push(
                t(1.0),
                Event::Completion {
                    job: JobId(0),
                    generation: g,
                },
            );
            q.mark_stale();
        }
        // 100% stale but below COMPACT_MIN_LEN: no sweep requested.
        assert!(!q.should_compact());
        for g in 0..COMPACT_MIN_LEN as u64 {
            q.push(
                t(2.0),
                Event::Completion {
                    job: JobId(1),
                    generation: g,
                },
            );
        }
        // 10 stale of 74: under half.
        assert!(!q.should_compact());
        for _ in 0..28 {
            q.mark_stale();
        }
        assert_eq!(q.stale_len(), 38);
        assert!(q.should_compact(), "38 of 74 stale crosses the half mark");
    }

    #[test]
    fn compact_drops_dead_entries_and_preserves_order() {
        let mut q = EventQueue::new();
        // Interleave live submits with stale completions.
        for i in 0..40u32 {
            q.push(t(f64::from(i)), submit(i));
            q.push(
                t(f64::from(i)),
                Event::Completion {
                    job: JobId(i),
                    generation: 0, // all invalidated below
                },
            );
            q.mark_stale();
        }
        assert_eq!(q.len(), 80);
        q.compact(|e| !matches!(e, Event::Completion { generation: 0, .. }));
        assert_eq!(q.len(), 40, "all stale completions swept");
        assert_eq!(q.stale_len(), 0);
        // Pop order of the survivors is unchanged.
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| first_of(e))
            .collect();
        assert_eq!(order, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn compact_mid_drain_keeps_cursor_position_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(t(f64::from(i)), submit(i));
        }
        // Drain a prefix so the current bucket cursor is mid-flight.
        for i in 0..10u32 {
            assert_eq!(first_of(q.pop().unwrap().1), i);
        }
        q.compact(|e| first_of(*e).is_multiple_of(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| first_of(e))
            .collect();
        assert_eq!(order, (10..100).filter(|i| i % 2 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn popped_stale_entries_decrement_the_counter() {
        let mut q = EventQueue::new();
        q.push(
            t(1.0),
            Event::Completion {
                job: JobId(0),
                generation: 0,
            },
        );
        q.mark_stale();
        assert_eq!(q.stale_len(), 1);
        let _ = q.pop();
        q.note_stale_popped();
        assert_eq!(q.stale_len(), 0);
        q.note_stale_popped(); // saturates, never underflows
        assert_eq!(q.stale_len(), 0);
    }

    #[test]
    fn live_len_excludes_stale_entries() {
        let mut q = EventQueue::new();
        for g in 0..4 {
            q.push(
                t(1.0),
                Event::Completion {
                    job: JobId(0),
                    generation: g,
                },
            );
        }
        assert_eq!(q.live_len(), 4);
        q.mark_stale();
        q.mark_stale();
        assert_eq!(q.len(), 4);
        assert_eq!(q.live_len(), 2);
    }

    #[test]
    fn interleaved_push_pop_across_epochs() {
        // Seeds a wide horizon, then keeps pushing near-future events
        // while draining — exercising cur-window inserts, pile routing
        // and at least one far-list re-bucketize.
        let mut q = EventQueue::new();
        for i in 0..1000u32 {
            q.push(t(f64::from(i) * 10.0), submit(i));
        }
        let mut popped = Vec::new();
        let mut extra = 1000u32;
        while let Some((at, e)) = q.pop() {
            popped.push((at, first_of(e)));
            // Push a trailer event shortly after `now` for a while.
            if extra < 1500 {
                q.push(SimTime::from_secs(at.as_secs() + 3.0), submit(extra));
                extra += 1;
            }
        }
        assert_eq!(popped.len(), 1500);
        let mut sorted = popped.clone();
        sorted.sort_by_key(|a| a.0);
        // Same multiset order by time (ties impossible here by construction).
        assert_eq!(popped, sorted);
    }

    #[test]
    fn event_exactly_at_bucket_horizon_rollover() {
        // Satellite: an event scheduled exactly at the epoch horizon
        // (== max of the seeded span) and one just past it must pop in
        // timestamp order across the epoch boundary.
        let mut q = EventQueue::new();
        for i in 0..64u32 {
            q.push(t(f64::from(i)), submit(i));
        }
        // Trigger epoch build (horizon becomes [0, 63]).
        assert_eq!(first_of(q.pop().unwrap().1), 0);
        // Exactly at the inclusive horizon edge → last pile; just past
        // it → far list; re-bucketized later but still in order.
        q.push(t(63.0), submit(1000));
        q.push(t(63.0 + f64::EPSILON * 64.0), submit(1001));
        q.push(t(70.0), submit(1002));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| first_of(e))
            .collect();
        let mut expect: Vec<u32> = (1..64).collect();
        expect.extend([1000, 1001, 1002]);
        assert_eq!(order, expect);
    }

    fn completion(job: u32, generation: u64) -> Event {
        Event::Completion {
            job: JobId(job),
            generation,
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<Event> {
        std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect()
    }

    #[test]
    fn one_instant_pops_by_class_then_job_then_insertion() {
        let mut q = EventQueue::new();
        let reversed = [
            Event::Timer,
            completion(7, 0),
            completion(2, 0),
            Event::Requeue { job: JobId(1) },
            Event::Flaky { index: 0 },
            Event::CapacityReturn { slots: 4 },
            Event::CapacityReclaim { slots: 4 },
            Event::Cancel { job: JobId(9) },
            Event::Cancel { job: JobId(3) },
            submit(5),
        ];
        for e in reversed {
            q.push(t(30.0), e);
        }
        q.push(t(29.0), Event::Timer); // time still comes first
        let expect = vec![
            Event::Timer,
            submit(5),
            Event::Cancel { job: JobId(3) },
            Event::Cancel { job: JobId(9) },
            // Capacity events name no job: insertion order.
            Event::CapacityReturn { slots: 4 },
            Event::CapacityReclaim { slots: 4 },
            Event::Flaky { index: 0 },
            Event::Requeue { job: JobId(1) },
            completion(2, 0),
            completion(7, 0),
            Event::Timer,
        ];
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn a_lower_class_pushed_at_now_pops_next_never_before_the_cursor() {
        let mut q = EventQueue::new();
        q.push(t(10.0), completion(1, 0));
        q.push(t(10.0), completion(4, 0));
        q.push(t(10.0), Event::Timer);
        q.push(t(20.0), submit(9));
        assert_eq!(q.pop(), Some((t(10.0), completion(1, 0))));
        // Handling that completion schedules a requeue *at this
        // instant*: a lower class than what was just popped. It cannot
        // be un-popped before it; it is the minimum of what is pending.
        q.push(t(10.0), Event::Requeue { job: JobId(6) });
        // And a completion of a lower job than the one just popped.
        q.push(t(10.0), completion(0, 0));
        let expect = vec![
            Event::Requeue { job: JobId(6) },
            completion(0, 0),
            completion(4, 0),
            Event::Timer,
            submit(9),
        ];
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn stale_and_live_completions_of_one_job_stay_adjacent_in_push_order() {
        // A job rescaled twice with its completion landing on the same
        // instant each time: generations 0 and 1 are stale, 2 is live.
        // They pop back to back (the engine's burst skips the stale
        // ones), oldest first, between the neighbouring jobs.
        let mut q = EventQueue::new();
        q.push(t(5.0), completion(3, 0));
        q.push(t(5.0), completion(8, 0));
        q.push(t(5.0), completion(3, 1));
        q.push(t(5.0), completion(1, 0));
        q.push(t(5.0), completion(3, 2));
        let expect = vec![
            completion(1, 0),
            completion(3, 0),
            completion(3, 1),
            completion(3, 2),
            completion(8, 0),
        ];
        assert_eq!(drain(&mut q), expect);
    }

    /// The within-instant rank of the reference model, written out
    /// rather than read off `Event::order`: Submit < Cancel < capacity
    /// fault < Flaky < Requeue < Completion < Timer, then the job named.
    fn ref_rank(e: &Event) -> (u8, u32) {
        match *e {
            Event::Submit { first, .. } => (0, first.0),
            Event::Cancel { job } => (1, job.0),
            Event::NodeFail { .. }
            | Event::CapacityReclaim { .. }
            | Event::CapacityReturn { .. } => (2, 0),
            Event::Flaky { .. } => (3, 0),
            Event::Requeue { job } => (4, job.0),
            Event::Completion { job, .. } => (5, job.0),
            Event::Timer => (6, 0),
        }
    }

    /// Reference model for the calendar queue: pop the minimum of what
    /// is pending by `(timestamp, class rank, job, push sequence)` —
    /// implemented as an O(n^2) sorted-drain Vec so the model itself is
    /// too simple to be wrong.
    struct RefQueue {
        entries: Vec<(SimTime, u64, Event)>,
        seq: u64,
    }

    impl RefQueue {
        fn new() -> Self {
            RefQueue {
                entries: Vec::new(),
                seq: 0,
            }
        }

        fn push(&mut self, at: SimTime, event: Event) {
            self.entries.push((at, self.seq, event));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            let key = |e: &(SimTime, u64, Event)| (e.0, ref_rank(&e.2), e.1);
            let best = self
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| key(a).cmp(&key(b)))
                .map(|(i, _)| i)?;
            let (at, _, e) = self.entries.remove(best);
            Some((at, e))
        }

        fn compact(&mut self, mut is_live: impl FnMut(&Event) -> bool) {
            self.entries.retain(|(_, _, e)| is_live(e));
        }
    }

    proptest! {
        /// The calendar queue pops in exactly the reference order (what
        /// a binary heap keyed by time, class, job and push sequence
        /// would pop) under arbitrary
        /// interleavings of pushes of every event kind (with
        /// deliberately repeated timestamps and job ids, and pushes *at*
        /// the instant being drained), pops, stale marks and compaction
        /// sweeps crossing bucket epochs.
        #[test]
        fn calendar_queue_matches_reference_heap(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut r = RefQueue::new();
            let mut dead: Vec<Event> = Vec::new();
            let mut pushed: Vec<Event> = Vec::new();
            let mut times: Vec<f64> = Vec::new();
            let mut now = 0.0f64;
            for _ in 0..rng.gen_range(1..60) {
                match rng.gen_range(0u32..10) {
                    // Push a burst (often reusing an earlier timestamp or
                    // the instant just popped so same-instant ties are
                    // common, sometimes far in the future so the far
                    // list and epoch rebuilds engage).
                    0..=5 => {
                        for _ in 0..rng.gen_range(1usize..8) {
                            let at = if rng.gen_bool(0.2) {
                                now
                            } else if !times.is_empty() && rng.gen_bool(0.3) {
                                times[rng.gen_range(0..times.len())]
                            } else if rng.gen_bool(0.15) {
                                rng.gen_range(0.0..1e6)
                            } else {
                                rng.gen_range(0.0..500.0)
                            };
                            times.push(at);
                            let job = JobId(rng.gen_range(0u32..6));
                            let e = match rng.gen_range(0u32..9) {
                                0 => Event::Submit { first: job, count: 2 },
                                1 => Event::Cancel { job },
                                2 => Event::NodeFail { slots: job.0 },
                                3 => Event::CapacityReclaim { slots: job.0 },
                                4 => Event::CapacityReturn { slots: job.0 },
                                5 => Event::Flaky { index: job.0 },
                                6 => Event::Requeue { job },
                                7 => Event::Timer,
                                _ => completion(job.0, rng.gen_range(0u64..3)),
                            };
                            pushed.push(e);
                            q.push(t(at), e);
                            r.push(t(at), e);
                        }
                    }
                    // Pop a few; each pop must agree exactly. Popped
                    // dead entries feed the stale-pop bookkeeping.
                    6..=8 => {
                        for _ in 0..rng.gen_range(1usize..6) {
                            let got = q.pop();
                            prop_assert_eq!(got, r.pop());
                            if let Some((at, e)) = got {
                                now = at.as_secs();
                                if dead.contains(&e) {
                                    q.note_stale_popped();
                                }
                            }
                        }
                    }
                    // Kill every copy of a random pushed event and
                    // compact both sides.
                    _ => {
                        if !pushed.is_empty() {
                            let victim = pushed[rng.gen_range(0..pushed.len())];
                            if !dead.contains(&victim) {
                                dead.push(victim);
                                q.mark_stale();
                            }
                        }
                        q.compact(|e| !dead.contains(e));
                        r.compact(|e| !dead.contains(e));
                    }
                }
                prop_assert_eq!(q.len(), r.entries.len(), "length diverged");
            }
            // Drain: the tails must be identical too.
            loop {
                let (a, b) = (q.pop(), r.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(q.is_empty());
        }
    }
}
