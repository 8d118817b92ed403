//! A multi-subscriber lifecycle event bus with bounded ring buffers,
//! lag detection, and store-snapshot recovery.
//!
//! [`SchedulerClient::watch_events`] is a single-consumer stream: one
//! receiver, unbounded. [`EventBus`] turns it into a broadcast surface:
//! one pump drains the stream into a bounded ring shared by every
//! [`Subscriber`], each of which reads at its own pace through a
//! sequence cursor. A subscriber that falls more than the ring's
//! capacity behind does **not** stall the bus or grow memory without
//! bound — the ring simply overwrites, and the subscriber's next poll
//! answers [`BusPoll::Lagged`] with the exact number of events it
//! missed. Recovery is [`Subscriber::resync`]: fetch a full status
//! snapshot from the store (the source of truth the events were derived
//! from), jump the cursor to the head of the ring, and resume in-order,
//! gap-free tailing from there. The snapshot may repeat state the
//! subscriber already saw — consumers must treat it as *current state*,
//! not as a delta — but nothing between the snapshot and the resumed
//! tail can be lost, because events are published only after the store
//! update they describe.
//!
//! [`SchedulerClient::watch_events`]:
//! elastic_core::SchedulerClient::watch_events

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use elastic_core::{CharmJobStatus, JobEvent, JobEventStream, SchedulerClient};
use hpc_metrics::sync::locked;

/// What a [`Subscriber`] poll produced.
#[derive(Debug, Clone, PartialEq)]
pub enum BusPoll {
    /// The next lifecycle event, in publication order.
    Event(JobEvent),
    /// The subscriber fell behind and the ring overwrote `missed`
    /// events it never saw. The cursor has been advanced to the oldest
    /// retained event; call [`Subscriber::resync`] to rebuild state
    /// from a store snapshot before continuing.
    Lagged {
        /// Events lost to ring overwrite.
        missed: u64,
    },
    /// Nothing new since the last poll.
    Empty,
}

struct Ring {
    buf: VecDeque<JobEvent>,
    /// Sequence number the *next* published event will get; the oldest
    /// retained event is `next_seq - buf.len()`.
    next_seq: u64,
    capacity: usize,
}

impl Ring {
    fn base(&self) -> u64 {
        self.next_seq - self.buf.len() as u64
    }
}

/// The broadcast half: publish lifecycle events into a bounded ring
/// (see the module docs).
#[derive(Clone)]
pub struct EventBus {
    ring: Arc<Mutex<Ring>>,
}

impl EventBus {
    /// A bus retaining the most recent `capacity` events for slow
    /// subscribers.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be >= 1");
        EventBus {
            ring: Arc::new(Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity),
                next_seq: 0,
                capacity,
            })),
        }
    }

    /// Publishes one event, evicting the oldest retained event if the
    /// ring is full.
    fn publish(&self, event: JobEvent) {
        let mut ring = locked(&self.ring);
        if ring.buf.len() == ring.capacity {
            ring.buf.pop_front();
        }
        ring.buf.push_back(event);
        ring.next_seq += 1;
    }

    /// Drains every pending event from `stream` onto the bus; returns
    /// how many were published. Call once per serving loop iteration —
    /// the bus is the fan-out for the one watch stream the serving
    /// layer owns.
    pub fn pump_from(&self, stream: &mut JobEventStream) -> usize {
        let mut n = 0;
        while let Some(ev) = stream.try_next() {
            self.publish(ev);
            n += 1;
        }
        n
    }

    /// A new subscriber, positioned at the *current head*: it sees
    /// events published after this call, never history.
    pub fn subscribe(&self) -> Subscriber {
        let cursor = locked(&self.ring).next_seq;
        Subscriber {
            ring: Arc::clone(&self.ring),
            cursor,
        }
    }

    /// Total events ever published.
    pub fn published(&self) -> u64 {
        locked(&self.ring).next_seq
    }
}

/// One consumer's cursor into the bus (see [`EventBus::subscribe`]).
pub struct Subscriber {
    ring: Arc<Mutex<Ring>>,
    cursor: u64,
}

impl Subscriber {
    /// The next event at this subscriber's cursor, [`BusPoll::Lagged`]
    /// if the ring overwrote events it never saw (tokio-broadcast
    /// semantics: the lag is reported once, then reading resumes from
    /// the oldest retained event), or [`BusPoll::Empty`].
    pub fn poll(&mut self) -> BusPoll {
        let ring = locked(&self.ring);
        let base = ring.base();
        if self.cursor < base {
            let missed = base - self.cursor;
            self.cursor = base;
            return BusPoll::Lagged { missed };
        }
        if self.cursor == ring.next_seq {
            return BusPoll::Empty;
        }
        let ev = ring.buf[(self.cursor - base) as usize].clone();
        self.cursor += 1;
        BusPoll::Event(ev)
    }

    /// Lagging-subscriber recovery: a full `(name, status)` snapshot
    /// from the store, with the cursor jumped to the ring head so
    /// subsequent polls tail gap-free from the snapshot point. Taken
    /// under the ring lock, so no event published before the snapshot
    /// can appear on the resumed tail as a phantom "future" transition
    /// — at worst the snapshot repeats what a tailed event will also
    /// say, which is safe because the snapshot carries current state,
    /// not deltas.
    pub fn resync(&mut self, client: &SchedulerClient) -> Vec<(String, CharmJobStatus)> {
        let ring = locked(&self.ring);
        let snapshot = client.list_status();
        self.cursor = ring.next_seq;
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::JobEventKind;
    use hpc_metrics::SimTime;

    fn ev(job: &str, secs: f64) -> JobEvent {
        JobEvent {
            job: job.into(),
            at: SimTime::from_secs(secs),
            kind: JobEventKind::Submitted,
        }
    }

    #[test]
    fn subscribers_tail_independently_and_in_order() {
        let bus = EventBus::new(16);
        let mut fast = bus.subscribe();
        let mut slow = bus.subscribe();
        bus.publish(ev("a", 1.0));
        bus.publish(ev("b", 2.0));
        assert_eq!(fast.poll(), BusPoll::Event(ev("a", 1.0)));
        assert_eq!(fast.poll(), BusPoll::Event(ev("b", 2.0)));
        assert_eq!(fast.poll(), BusPoll::Empty);
        // The slow subscriber still sees everything, from its own
        // cursor.
        assert_eq!(slow.poll(), BusPoll::Event(ev("a", 1.0)));
        assert_eq!(slow.poll(), BusPoll::Event(ev("b", 2.0)));
    }

    #[test]
    fn new_subscribers_start_at_the_head() {
        let bus = EventBus::new(4);
        bus.publish(ev("old", 1.0));
        let mut sub = bus.subscribe();
        assert_eq!(sub.poll(), BusPoll::Empty, "no history replay");
        bus.publish(ev("new", 2.0));
        assert_eq!(sub.poll(), BusPoll::Event(ev("new", 2.0)));
    }

    #[test]
    fn lag_is_reported_exactly_once_with_exact_count() {
        let bus = EventBus::new(3);
        let mut sub = bus.subscribe();
        for i in 0..8 {
            bus.publish(ev(&format!("j{i}"), i as f64));
        }
        // Capacity 3, 8 published, cursor at 0: events 0..=4 are gone.
        assert_eq!(sub.poll(), BusPoll::Lagged { missed: 5 });
        // After the lag report, reading resumes at the oldest retained
        // event with no further gap.
        assert_eq!(sub.poll(), BusPoll::Event(ev("j5", 5.0)));
        assert_eq!(sub.poll(), BusPoll::Event(ev("j6", 6.0)));
        assert_eq!(sub.poll(), BusPoll::Event(ev("j7", 7.0)));
        assert_eq!(sub.poll(), BusPoll::Empty);
        assert_eq!(bus.published(), 8);
    }
}
