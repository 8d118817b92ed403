//! The discrete-event queue and the cursors over a run's inputs.
//!
//! Pop order is one total order over the pending events: timestamp,
//! then the kernel's [`EventClass`] (the within-instant order the
//! operator's tick applies too), then the job the event names, then
//! insertion sequence — `(at, class, job, seq)`. A pop returns the
//! minimum of what is pending *at that moment*: an event pushed at the
//! instant being drained pops next if its class is lower than the one
//! just popped, never before the cursor. Runs are exactly reproducible.
//!
//! What is pending lives in two places; a merged pop (`pop_with`)
//! takes the lesser head:
//!
//! * the workload's arrivals, capacity faults and flaky faults, read in
//!   place through three `Inputs` cursors as the operator's drive loop
//!   reads them (`WorkloadSpec::validate` holds each list sorted). They
//!   count as pushed first, so a cursor wins a tie on `(at, class,
//!   job)`, and one instant's arrivals come off as one [`Event::Submit`];
//! * the [`EventQueue`] heap: what the run creates (completions,
//!   requeues, the timer) plus the cancellations — a few hundred
//!   entries even on a 400 000-job replay.
//!
//! Completion events carry a per-job generation number; rescaling a job
//! bumps its generation, turning any previously scheduled completion
//! into a harmless stale event (the standard DES invalidation idiom).
//! The engine reports each via [`EventQueue::mark_stale`] and sweeps the
//! heap with [`EventQueue::compact`] once more than half of what is
//! pending is stale, so rescale-heavy runs cannot pile up dead entries.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use elastic_core::kernel::EventClass;
use hpc_metrics::{ColumnBytes, JobId, SimTime};
use hpc_workload::{FaultKind, JobSpec, WorkloadSpec};

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

/// The stale share of what is pending (numerator/denominator) past
/// which [`EventQueue::should_compact`] asks for a sweep.
const COMPACT_STALE_FRACTION: (usize, usize) = (1, 2);
/// No compaction below this many pending events — sweeping a tiny heap
/// is more work than letting the stale entries pop out naturally.
const COMPACT_MIN_LEN: usize = 64;

/// Deterministic event heap with stale-entry accounting. A count of
/// everything pending takes the `unread` inputs the heap does not hold.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    stale: usize,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes of the heap's entries and buffer.
    pub(crate) fn column_bytes(&self) -> ColumnBytes {
        let entry = std::mem::size_of::<Reverse<Entry>>();
        ColumnBytes {
            column: "DES event heap",
            len: self.heap.len() * entry,
            capacity: self.heap.capacity() * entry,
        }
    }

    /// Schedules `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    /// The earliest event (with its timestamp), without removing it.
    pub fn peek(&self) -> Option<(SimTime, Event)> {
        self.heap.peek().map(|Reverse(e)| (e.at, e.event))
    }

    /// [`EventQueue::pop`] over the heap and `wl`'s unread `inputs`.
    pub(crate) fn pop_with(
        &mut self,
        inputs: &mut Inputs,
        wl: &WorkloadSpec,
    ) -> Option<(SimTime, Event)> {
        let next = self.peek_with(inputs)?;
        if Some(next) == inputs.head {
            inputs.pop(wl)
        } else {
            self.pop()
        }
    }

    /// [`EventQueue::peek`] over the heap and the unread `inputs`; an
    /// input wins an equal `(at, class, job)`.
    pub(crate) fn peek_with(&self, inputs: &Inputs) -> Option<(SimTime, Event)> {
        match (inputs.head, self.peek()) {
            (Some(i), Some(h)) if (h.0, h.1.order()) < (i.0, i.1.order()) => Some(h),
            (i, h) => i.or(h),
        }
    }

    /// Events in the heap (including stale completions).
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Pending events not known to be stale, `unread` inputs included —
    /// the live backlog the engine's `peak_queue_len` tracks.
    pub fn live_len(&self, unread: usize) -> usize {
        let len = self.len() + unread;
        len - self.stale.min(len)
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

    /// `true` once more than half of a non-trivial pending count (the
    /// heap plus `unread` inputs) is stale.
    pub fn should_compact(&self, unread: usize) -> bool {
        let (num, den) = COMPACT_STALE_FRACTION;
        let len = self.len() + unread;
        len >= COMPACT_MIN_LEN && self.stale * den > len * num
    }

    /// Sweeps the heap, keeping only entries for which `is_live` returns
    /// true (their pop order is unchanged). Resets the stale counter.
    pub fn compact(&mut self, mut is_live: impl FnMut(&Event) -> bool) {
        self.heap.retain(|Reverse(e)| is_live(&e.event));
        self.stale = 0;
    }
}

/// Cursors over a workload's sorted arrivals, capacity faults and flaky
/// faults; every call takes the workload they were built from.
#[derive(Debug, Default)]
pub(crate) struct Inputs {
    /// The least unread input.
    head: Option<(SimTime, Event)>,
    /// The jobs of the next arrival instant.
    arrivals: Range<usize>,
    fault: usize,
    flaky: usize,
    /// Inputs not read yet; an arrival instant counts once.
    pub(crate) unread: usize,
}

impl Inputs {
    pub(crate) fn new(wl: &WorkloadSpec) -> Self {
        let faults = wl.faults.events.len() + wl.faults.flaky.events.len();
        let instants = wl.jobs.chunk_by(|a, b| a.arrival == b.arrival).count();
        let mut inputs = Inputs {
            arrivals: burst(&wl.jobs, 0),
            unread: instants + faults,
            ..Inputs::default()
        };
        inputs.head = inputs.least(wl);
        inputs
    }

    /// The least cursor head (the classes differ, so never a tie).
    fn least(&self, wl: &WorkloadSpec) -> Option<(SimTime, Event)> {
        let at = |d| SimTime::ZERO + d;
        let first = JobId::from_index(self.arrivals.start);
        let count = self.arrivals.len() as u32;
        let submit = wl.jobs.get(first.index()).filter(|_| count > 0);
        let submit = submit.map(|j| (at(j.arrival), Event::Submit { first, count }));
        let fault = wl.faults.events.get(self.fault).map(|e| {
            let slots = e.slots;
            let event = match e.kind {
                FaultKind::NodeFail => Event::NodeFail { slots },
                FaultKind::Reclaim => Event::CapacityReclaim { slots },
                FaultKind::Return => Event::CapacityReturn { slots },
            };
            (at(e.at), event)
        });
        let index = self.flaky as u32;
        let flaky = wl.faults.flaky.events.get(self.flaky);
        let flaky = flaky.map(|e| (at(e.at), Event::Flaky { index }));
        [submit, fault, flaky]
            .into_iter()
            .flatten()
            .min_by_key(|(at, e)| (*at, e.order()))
    }

    /// Reads the head and advances the cursor it came from.
    fn pop(&mut self, wl: &WorkloadSpec) -> Option<(SimTime, Event)> {
        let next = self.head?;
        match next.1 {
            Event::Submit { .. } => self.arrivals = burst(&wl.jobs, self.arrivals.end),
            Event::Flaky { .. } => self.flaky += 1,
            _ => self.fault += 1,
        }
        self.unread -= 1;
        self.head = self.least(wl);
        Some(next)
    }
}

/// The jobs from `from` on that arrive at job `from`'s instant.
fn burst(jobs: &[JobSpec], from: usize) -> Range<usize> {
    let same = |j: &&JobSpec| j.arrival == jobs[from].arrival;
    from..from + jobs[from..].iter().take_while(same).count()
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
        assert!(!q.should_compact(0));
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
        assert!(!q.should_compact(0));
        for _ in 0..28 {
            q.mark_stale();
        }
        assert_eq!(q.stale, 38);
        assert!(q.should_compact(0), "38 of 74 stale crosses the half mark");
        // Unread inputs are pending too: 38 of 77 is not over half.
        assert!(!q.should_compact(3));
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
        assert_eq!(q.stale, 0);
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
        assert_eq!(q.stale, 1);
        let _ = q.pop();
        q.note_stale_popped();
        assert_eq!(q.stale, 0);
        q.note_stale_popped(); // saturates, never underflows
        assert_eq!(q.stale, 0);
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
        assert_eq!(q.live_len(0), 4);
        q.mark_stale();
        q.mark_stale();
        assert_eq!(q.len(), 4);
        assert_eq!(q.live_len(0), 2);
        // Unread inputs are live.
        assert_eq!(q.live_len(5), 7);
    }

    #[test]
    fn interleaved_push_pop_stays_in_time_order() {
        // Seeds a wide horizon, then keeps pushing near-future events
        // while draining: each must interleave with the seeded entries
        // by time.
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
        /// The merged queue pops in exactly the reference order (what
        /// a binary heap keyed by time, class, job and push sequence
        /// would pop) when the reference gets every input pushed first
        /// and the merged side reads the same inputs through its
        /// cursors: sorted arrivals, capacity faults and flaky faults,
        /// each with repeated instants. Dynamic pushes of every event
        /// kind (with deliberately repeated timestamps and job ids, at
        /// input instants, and *at* the instant being drained), pops,
        /// stale marks and compaction sweeps interleave at random.
        #[test]
        fn event_queue_matches_reference_heap(seed in any::<u64>()) {
            use hpc_metrics::Duration;
            use hpc_workload::{FaultEvent, FaultSpec, FlakyEvent, FlakyOp, FlakySpec};
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            // Ascending instants, about half of them repeated.
            let mut sorted = |n: usize| -> Vec<f64> {
                let mut at = 0.0f64;
                (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            at += f64::from(rng.gen_range(1u32..40));
                        }
                        at
                    })
                    .collect()
            };
            let (arrivals, fault_at, flaky_at) = (sorted(40), sorted(12), sorted(12));
            let (n_jobs, n_faults, n_flaky) =
                (rng.gen_range(1..40), rng.gen_range(0..12), rng.gen_range(0..12));
            let secs = Duration::from_secs;
            let jobs = arrivals[..n_jobs].iter().enumerate().map(|(i, &at)| {
                JobSpec::malleable(format!("j{i}"), 1, 1, 1.0, 1).at(secs(at))
            });
            let kinds = [FaultKind::NodeFail, FaultKind::Reclaim, FaultKind::Return];
            let faults = fault_at[..n_faults].iter().map(|&at| FaultEvent {
                at: secs(at),
                slots: rng.gen_range(1u32..4),
                kind: kinds[rng.gen_range(0..3)],
            });
            let flaky = flaky_at[..n_flaky].iter().map(|&at| FlakyEvent {
                at: secs(at),
                op: FlakyOp::LaunchFail,
            });
            let flaky = FlakySpec::new(flaky.collect());
            let wl = WorkloadSpec::new(jobs.collect())
                .with_faults(FaultSpec::new(faults.collect()).with_flaky(flaky));

            let mut q = EventQueue::new();
            let mut inputs = Inputs::new(&wl);
            let mut r = RefQueue::new();
            // The reference's inputs: one submit per run of equal
            // arrivals, then the faults and flaky faults in spec order.
            let mut first = 0;
            while first < n_jobs {
                let at = arrivals[first];
                let count = arrivals[first..n_jobs].iter().take_while(|&&a| a == at).count();
                let first_job = JobId(first as u32);
                r.push(t(at), Event::Submit { first: first_job, count: count as u32 });
                first += count;
            }
            for e in &wl.faults.events {
                let slots = e.slots;
                let event = match e.kind {
                    FaultKind::NodeFail => Event::NodeFail { slots },
                    FaultKind::Reclaim => Event::CapacityReclaim { slots },
                    FaultKind::Return => Event::CapacityReturn { slots },
                };
                r.push(SimTime::ZERO + e.at, event);
            }
            for (index, e) in wl.faults.flaky.events.iter().enumerate() {
                r.push(SimTime::ZERO + e.at, Event::Flaky { index: index as u32 });
            }
            prop_assert_eq!(inputs.unread, r.entries.len());

            let mut times: Vec<f64> = r.entries.iter().map(|e| e.0.as_secs()).collect();
            let mut dead: Vec<Event> = Vec::new();
            let mut pushed: Vec<Event> = Vec::new();
            let mut now = 0.0f64;
            for _ in 0..rng.gen_range(1..60) {
                match rng.gen_range(0u32..10) {
                    // Push a burst: often at the instant just popped or
                    // at an input's instant, so same-key ties with the
                    // cursors are common, sometimes far in the future.
                    0..=5 => {
                        for _ in 0..rng.gen_range(1usize..8) {
                            let at = if rng.gen_bool(0.2) {
                                now
                            } else if rng.gen_bool(0.3) {
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
                    // Pop a few; each peek and pop must agree exactly.
                    // Popped dead entries feed the stale-pop bookkeeping.
                    6..=8 => {
                        for _ in 0..rng.gen_range(1usize..6) {
                            let peeked = q.peek_with(&inputs);
                            let got = q.pop_with(&mut inputs, &wl);
                            prop_assert_eq!(peeked, got);
                            prop_assert_eq!(got, r.pop());
                            if let Some((at, e)) = got {
                                now = at.as_secs();
                                if dead.contains(&e) {
                                    q.note_stale_popped();
                                }
                            }
                        }
                    }
                    // Kill every copy of a pushed completion or requeue
                    // (what the engine invalidates; never an input) and
                    // compact both sides.
                    _ => {
                        let mortal: Vec<Event> = pushed
                            .iter()
                            .copied()
                            .filter(|e| matches!(e, Event::Completion { .. } | Event::Requeue { .. }))
                            .collect();
                        if !mortal.is_empty() {
                            let victim = mortal[rng.gen_range(0..mortal.len())];
                            if !dead.contains(&victim) {
                                dead.push(victim);
                                q.mark_stale();
                            }
                        }
                        q.compact(|e| !dead.contains(e));
                        r.compact(|e| !dead.contains(e));
                    }
                }
                let pending = q.len() + inputs.unread;
                prop_assert_eq!(pending, r.entries.len(), "pending length diverged");
            }
            // Drain: the tails must be identical too.
            loop {
                let (a, b) = (q.pop_with(&mut inputs, &wl), r.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(q.len() == 0 && inputs.unread == 0);
        }
    }
}
