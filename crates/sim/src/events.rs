//! The discrete-event queue.
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
//! Structure: a **sorted run** plus a **binary heap**.
//!
//! * **Run** (`run`) — a `Vec` in pop order, consumed through a
//!   cursor. A push that sorts at or after the run's last entry appends
//!   to it in O(1).
//! * **Heap** (`heap`) — every push that sorts before the run's last
//!   entry, min-first in O(log n).
//!
//! A pop or peek takes the smaller of the two heads. The split fits
//! the traffic a replay makes. `WorkloadSpec::validate` rejects
//! unsorted arrivals, so the submissions `SimState::new` seeds — the
//! bulk of a trace-scale queue — come in pop order and all land in the
//! run. What a replay schedules out of order (completions, requeues,
//! timers, faults) goes to the heap, which stays a few hundred entries
//! deep even on a 400 000-job replay.
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
//!   so rescale-heavy runs cannot accumulate dead entries without bound.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Deterministic event queue with stale-entry accounting.
///
/// Pops in `(time, class, job, insertion)` order (module docs), keeps
/// the stale-completion accounting compaction runs on, and peeks in
/// O(1) ([`EventQueue::peek`]) for the engine's same-instant batch
/// drain.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Entries pushed in pop order: `run[head..]` is still pending and
    /// sorted. Cleared whenever it drains, so its tail is always
    /// pending.
    run: Vec<Entry>,
    head: usize,
    /// Entries pushed before the run's tail.
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    stale: usize,
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
        match self.run.last() {
            Some(tail) if e < *tail => self.heap.push(Reverse(e)),
            _ => self.run.push(e),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let e = if self.run_first()? {
            let e = self.run[self.head];
            self.head += 1;
            if self.head == self.run.len() {
                self.run.clear();
                self.head = 0;
            }
            e
        } else {
            self.heap.pop()?.0
        };
        Some((e.at, e.event))
    }

    /// The earliest pending event (with its timestamp), without
    /// removing it. Drives the engine's same-instant batch drain.
    pub fn peek(&self) -> Option<(SimTime, Event)> {
        let e = if self.run_first()? {
            &self.run[self.head]
        } else {
            &self.heap.peek()?.0
        };
        Some((e.at, e.event))
    }

    /// Whether the earliest entry is the run's head rather than the
    /// heap's; `None` when both are empty.
    fn run_first(&self) -> Option<bool> {
        match (self.run.get(self.head), self.heap.peek()) {
            (None, None) => None,
            (Some(r), Some(Reverse(h))) => Some(r < h),
            (r, _) => Some(r.is_some()),
        }
    }

    /// Number of pending events (including stale completions).
    pub fn len(&self) -> usize {
        self.run.len() - self.head + self.heap.len()
    }

    /// Pending events not known to be stale — the live backlog the
    /// engine's `peak_queue_len` high-water mark tracks.
    pub fn live_len(&self) -> usize {
        let len = self.len();
        len - self.stale.min(len)
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        let len = self.len();
        len >= COMPACT_MIN_LEN && self.stale * den > len * num
    }

    /// Sweeps the queue, keeping only entries for which `is_live`
    /// returns true. The run filters in place and stays sorted, the
    /// heap re-heapifies what is left, so the pop order of the
    /// survivors is unchanged. Resets the stale counter.
    pub fn compact(&mut self, mut is_live: impl FnMut(&Event) -> bool) {
        self.run.drain(..self.head);
        self.head = 0;
        self.run.retain(|e| is_live(&e.event));
        self.heap.retain(|Reverse(e)| is_live(&e.event));
        self.stale = 0;
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
    fn interleaved_push_pop_stays_in_time_order() {
        // Seeds a wide horizon, then keeps pushing near-future events
        // while draining — each lands before the run's tail, in the
        // heap, and must interleave with the run's entries by time.
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
    fn events_at_and_just_past_the_run_tail_pop_in_order() {
        // An event scheduled exactly at the run's last instant and one
        // just past it must pop in timestamp order after the seeded
        // span.
        let mut q = EventQueue::new();
        for i in 0..64u32 {
            q.push(t(f64::from(i)), submit(i));
        }
        // Start draining (the run's tail stays at 63).
        assert_eq!(first_of(q.pop().unwrap().1), 0);
        // Exactly at the tail instant with a higher job, just past it,
        // and later still: all three append to the run, in order.
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

    #[test]
    fn the_seeding_shape_fills_the_run_and_leaves_the_heap_empty() {
        // Ascending submit batches as `SimState::new` pushes them: one
        // per instant with several jobs coalesced, instants repeating
        // across batches with the next first job.
        let mut q = EventQueue::new();
        let mut first = 0u32;
        for (at, count) in [(0.0, 3), (0.0, 1), (2.5, 1), (2.5, 4), (9.0, 2), (30.0, 1)] {
            q.push(
                t(at),
                Event::Submit {
                    first: JobId(first),
                    count,
                },
            );
            first += count;
        }
        assert!(q.heap.is_empty());
        assert_eq!(q.run.len(), 6);
        let firsts: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| first_of(e))
            .collect();
        assert_eq!(firsts, vec![0, 3, 4, 5, 9, 11]);
    }

    #[test]
    fn a_push_before_the_run_tail_goes_to_the_heap_and_pops_in_reference_order() {
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut both = |q: &mut EventQueue, at: f64, e: Event| {
            q.push(t(at), e);
            r.push(t(at), e);
        };
        for i in 0..3u32 {
            both(&mut q, f64::from(i) * 10.0, submit(i));
        }
        both(&mut q, 30.0, Event::Timer);
        assert_eq!((q.run.len(), q.heap.len()), (4, 0));
        // Before the tail's instant.
        both(&mut q, 15.0, completion(0, 0));
        // At the tail's instant, with a lower class than its Timer.
        both(&mut q, 30.0, Event::Requeue { job: JobId(2) });
        assert_eq!((q.run.len(), q.heap.len()), (4, 2));
        let want: Vec<Event> = std::iter::from_fn(|| r.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            want,
            vec![
                submit(0),
                submit(1),
                completion(0, 0),
                submit(2),
                Event::Requeue { job: JobId(2) },
                Event::Timer,
            ]
        );
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn an_equal_key_push_appends_to_the_run() {
        // Same instant, class and job: only the later sequence number
        // tells them apart, and it sorts after the tail.
        let mut q = EventQueue::new();
        q.push(t(5.0), completion(3, 0));
        q.push(t(5.0), completion(3, 1));
        q.push(t(5.0), completion(3, 2));
        assert!(q.heap.is_empty());
        assert_eq!(q.run.len(), 3);
        assert_eq!(
            drain(&mut q),
            vec![completion(3, 0), completion(3, 1), completion(3, 2)]
        );
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

    /// Reference model for the event queue: pop the minimum of what
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
        /// The event queue pops in exactly the reference order (what
        /// a binary heap keyed by time, class, job and push sequence
        /// would pop) under arbitrary
        /// interleavings of pushes of every event kind (with
        /// deliberately repeated timestamps and job ids, and pushes *at*
        /// the instant being drained), pops, stale marks and compaction
        /// sweeps. Each case first seeds an ascending prefix of submit
        /// batches, as `SimState::new` does, so the random phase works
        /// on both the run and the heap.
        #[test]
        fn event_queue_matches_reference_heap(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut r = RefQueue::new();
            let mut dead: Vec<Event> = Vec::new();
            let mut pushed: Vec<Event> = Vec::new();
            let mut times: Vec<f64> = Vec::new();
            let mut now = 0.0f64;
            // The seeding shape: ascending instants (some repeated),
            // each a batch with ascending first job.
            let mut at = 0.0f64;
            let mut first = 0u32;
            for _ in 0..rng.gen_range(0usize..40) {
                if rng.gen_bool(0.7) {
                    at += rng.gen_range(0.0..50.0);
                }
                let count = rng.gen_range(1u32..4);
                let e = Event::Submit { first: JobId(first), count };
                first += count;
                times.push(at);
                pushed.push(e);
                q.push(t(at), e);
                r.push(t(at), e);
            }
            prop_assert!(q.heap.is_empty(), "an ascending push went to the heap");
            for _ in 0..rng.gen_range(1..60) {
                match rng.gen_range(0u32..10) {
                    // Push a burst (often reusing an earlier timestamp or
                    // the instant just popped so same-instant ties are
                    // common, sometimes far in the future so later
                    // pushes land before the run's tail).
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
