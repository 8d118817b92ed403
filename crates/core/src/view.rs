//! The cluster view and scheduling actions.
//!
//! [`ClusterView`] is the *only* state the scheduling policies read, and
//! [`Action`] the only thing they emit. Both the live operator and the
//! discrete-event simulator build views and apply actions through this
//! module, so a policy decision is — by construction — identical across
//! the "Actual" and "Simulation" columns of Table 1.
//!
//! The view is *incrementally maintained*: engines create it once per
//! run and mutate it through [`ClusterView::insert`],
//! [`ClusterView::remove`] and [`apply_action`], never rebuilding it.
//! Job attributes live in a hot/cold arena (`JobArena`) indexed by
//! the interned [`JobId`]: one packed 32-byte hot row per job
//! (`HotJob`: replica bounds, priority, live replicas, last action,
//! liveness flags) holds everything the hot policy scans (priority
//! walks, gap checks, footprint sums) and per-action updates touch —
//! one cache line per visited job even when the `BTreeSet` priority
//! order is random in index space — while the cold columns
//! (`submitted_at`, `walltime_estimate`) stay off the scan path.
//! [`JobState`] is a plain `Copy` value *assembled from* the arena on
//! read; [`JobRef`] is the lazy cursor that loads only the columns a
//! scan touches.
//!
//! # Complexity contract
//!
//! The arena rows plus four counters (`free_slots`, `failed_slots`,
//! `deficit`, live/running job counts) are the whole state; every
//! mutation updates them in O(1) and `job(id)` resolves in O(1).
//!
//! The **ordered indexes are pay-per-use**. Each one — running jobs
//! by descending priority, by last scheduling action and by estimated
//! end; queued jobs by descending priority, by submission and bucketed
//! by minimum footprint — is a pure function of the arena rows, built
//! from them (O(n log n), once) the first time an accessor reads it
//! through `&self`, and kept current by `insert`/`remove`/
//! [`apply_action`] *from then on*. Five of them are `BTreeSet`s, at
//! O(log n) per mutation. The last-action order is not: its key is
//! `(last_action, id)` and `last_action` is written from the engine's
//! clock, so a job entering it (a start, a rescale) belongs at the
//! tail. It is a doubly-linked list through a `[prev, next]` column
//! beside the arena: leaving it is an O(1) unlink, entering it a
//! search back from the tail that is O(1) while `now` never decreases
//! (it passes only the larger ids already linked at the same instant)
//! and O(distance from the tail) — still exact — for any other
//! instant.
//!
//! An index no policy of the run ever reads costs nothing: the
//! elastic policy never pays for the FCFS queue, the completion
//! frontier or the footprint buckets, EASY never pays for a priority
//! order or (unless a transient fault picks a victim off it) the
//! last-action order. There is no switch and no declaration — reading
//! is the declaration ([`ClusterView::built_indexes`] reports which
//! have been read). Once built, a policy reads its order in O(k) with
//! zero `String`s anywhere on the path.
//!
//! The last-action index answers the question the paper's own policy
//! asks at every event — *which running jobs does `T_rescale_gap` let
//! me touch?* — through [`ClusterView::running_by_last_action`]:
//! running jobs in ascending `last_action`, so the jobs past their gap
//! are a prefix and a caller that stops at the first job still inside
//! it has visited O(jobs it may act on), not O(running jobs). What the
//! elastic policy pays for is therefore that index, the queued
//! priority lane Fig. 3 merges it with, and the running priority order
//! — for its head (the one job Fig. 2 spares), and as the order to
//! walk when so few jobs are inside the gap that the prefix is most of
//! the cluster.
//!
//! The footprint index answers the one question the rigid baselines
//! ask of a deep backlog — *which queued jobs behind the blocked head
//! still fit the free slots?* — through
//! [`ClusterView::queued_fitting`]: a k-way merge over the
//! `min_replicas` buckets that fit, in submission order, dropping
//! buckets as the free slots shrink. A backfill decision therefore
//! costs O(candidates that fit), not O(queue).

use std::cmp::{Ordering, Reverse};
use std::collections::{btree_set, BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::OnceLock;

use hpc_metrics::{Duration, JobId, SimTime};

/// Priority ordering key: higher priority first, then earlier
/// submission (paper §3.2.1), then the interned id — the final
/// tie-breaker that makes equal-`(priority, submitted_at)` jobs order
/// identically in the operator and the simulator (ids are assigned in
/// admission order in both).
type OrderKey = (Reverse<u32>, SimTime, JobId);

/// Queue ordering key: submission time, then the interned id. (The
/// estimated-end and last-action indexes share the shape: an instant,
/// then id.)
type QueueKey = (SimTime, JobId);

/// A job as the policy sees it: a by-value snapshot assembled from the
/// view's columnar arena (everything is `Copy`, ~70 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobState {
    /// Interned job identity (resolve to a name via the engine's
    /// `JobRegistry` — only ever needed at the reporting edges).
    pub id: JobId,
    /// Spec minimum workers.
    pub min_replicas: u32,
    /// Spec maximum workers.
    pub max_replicas: u32,
    /// User priority (larger = more important).
    pub priority: u32,
    /// Submission time (tie-breaker).
    pub submitted_at: SimTime,
    /// Current workers (0 when queued).
    pub replicas: u32,
    /// Last scheduling action on this job; `NEG_INFINITY` if none yet.
    pub last_action: SimTime,
    /// `true` once the job holds resources.
    pub running: bool,
    /// User walltime estimate (how long the job says it runs), if the
    /// workload carried one. Reservation-based backfilling plans the
    /// completion frontier from these; `None` reads as "unbounded".
    pub walltime_estimate: Option<Duration>,
}

impl JobState {
    /// When this job is *estimated* to release its slots: the time of
    /// its last scheduling action plus its walltime estimate. The
    /// estimate is the user's claim for the requested size, taken
    /// as-is regardless of the granted replica count (granting more
    /// replicas under linear speedup only finishes sooner, so the
    /// frontier stays conservative). `INFINITY` for queued jobs and for
    /// running jobs without an estimate — they never release slots as
    /// far as reservation arithmetic is concerned.
    pub fn estimated_end(&self) -> SimTime {
        match (self.running, self.walltime_estimate) {
            (true, Some(est)) => self.last_action + est,
            _ => SimTime::INFINITY,
        }
    }
}

/// Field-level job access shared by [`JobState`] (a by-value snapshot)
/// and [`JobRef`] (a lazy arena cursor). Hot policy loops are generic
/// over this trait, so a scan driven by [`ClusterView::running_scan`] /
/// [`ClusterView::running_by_last_action`] reads only the columns it
/// actually touches, while slow paths keep passing assembled snapshots.
pub trait JobFields {
    /// Interned job identity.
    fn id(&self) -> JobId;
    /// User priority (larger = more important).
    fn priority(&self) -> u32;
    /// Spec minimum workers.
    fn min_replicas(&self) -> u32;
    /// Spec maximum workers.
    fn max_replicas(&self) -> u32;
    /// Current workers (0 when queued).
    fn replicas(&self) -> u32;
    /// Last scheduling action; `NEG_INFINITY` if none yet.
    fn last_action(&self) -> SimTime;
    /// `true` once the job holds resources.
    fn running(&self) -> bool;
}

impl JobFields for JobState {
    fn id(&self) -> JobId {
        self.id
    }
    fn priority(&self) -> u32 {
        self.priority
    }
    fn min_replicas(&self) -> u32 {
        self.min_replicas
    }
    fn max_replicas(&self) -> u32 {
        self.max_replicas
    }
    fn replicas(&self) -> u32 {
        self.replicas
    }
    fn last_action(&self) -> SimTime {
        self.last_action
    }
    fn running(&self) -> bool {
        self.running
    }
}

/// A borrowed cursor into one arena slot: every accessor is a single
/// column load, so scans that look at two or three fields per job (gap
/// checks, priority breaks) skip the full [`JobState`] assembly.
#[derive(Clone, Copy)]
pub struct JobRef<'a> {
    arena: &'a JobArena,
    idx: usize,
}

impl JobRef<'_> {
    /// Submission time (a cold-column load, off the scan path).
    #[inline]
    pub fn submitted_at(&self) -> SimTime {
        self.arena.submitted_at[self.idx]
    }

    /// User walltime estimate (a cold-column load, off the scan path).
    #[inline]
    pub fn walltime_estimate(&self) -> Option<Duration> {
        self.arena.walltime_estimate[self.idx]
    }

    /// Where `self` stands relative to `other` in every priority order
    /// (the indexes' `OrderKey`): higher priority first, then earlier
    /// submission, then the interned id. The submission times (a
    /// cold-column load each) are read only to break a priority tie —
    /// for a caller that sorts or merges what the time-ordered scans
    /// selected.
    #[inline]
    pub fn cmp_priority(&self, other: &Self) -> Ordering {
        let ordering = other
            .priority()
            .cmp(&self.priority())
            .then_with(|| self.submitted_at().cmp(&other.submitted_at()))
            .then_with(|| self.idx.cmp(&other.idx));
        debug_assert_eq!(
            ordering,
            (self.arena.order_key(self.idx)).cmp(&other.arena.order_key(other.idx))
        );
        ordering
    }

    /// The whole job assembled by value — for the slow paths that sort
    /// or keep what a scan selected.
    pub fn snapshot(&self) -> JobState {
        self.arena.get(self.idx)
    }
}

impl JobFields for JobRef<'_> {
    #[inline]
    fn id(&self) -> JobId {
        JobId(self.idx as u32)
    }
    #[inline]
    fn priority(&self) -> u32 {
        self.arena.hot[self.idx].priority
    }
    #[inline]
    fn min_replicas(&self) -> u32 {
        self.arena.hot[self.idx].min_replicas
    }
    #[inline]
    fn max_replicas(&self) -> u32 {
        self.arena.hot[self.idx].max_replicas
    }
    #[inline]
    fn replicas(&self) -> u32 {
        self.arena.hot[self.idx].replicas
    }
    #[inline]
    fn last_action(&self) -> SimTime {
        self.arena.hot[self.idx].last_action
    }
    #[inline]
    fn running(&self) -> bool {
        self.arena.is_running(self.idx)
    }
}

/// Arena flag: the slot holds a live job (not a tombstone).
const LIVE: u32 = 1;
/// Arena flag: the job currently holds resources.
const RUNNING: u32 = 1 << 1;

/// The fields every hot policy loop touches (priority walks, gap
/// checks, bound clamps, footprint sums), packed into one 32-byte slot
/// so a scan visiting a job in index-random priority order costs a
/// single cache line. The ordered indexes dictate *which* slots a scan
/// visits — index order is not id order — so grouping the hot fields
/// matters more than splitting them into per-field columns would.
#[derive(Debug, Clone, Copy)]
struct HotJob {
    min_replicas: u32,
    max_replicas: u32,
    priority: u32,
    replicas: u32,
    last_action: SimTime,
    /// `LIVE` / `RUNNING` bits; `0` is a tombstone or never-used slot.
    flags: u32,
}

/// An unoccupied arena slot (tombstone / never used).
const EMPTY_SLOT: HotJob = HotJob {
    min_replicas: 0,
    max_replicas: 0,
    priority: 0,
    replicas: 0,
    last_action: SimTime::NEG_INFINITY,
    flags: 0,
};

/// Struct-of-arrays job storage indexed by the interned `JobId`: one
/// packed [`HotJob`] column for the fields scans read, plus cold
/// columns (`submitted_at`, `walltime_estimate`) that only index
/// maintenance and full-snapshot assembly touch. Tombstones
/// (completed/cancelled jobs) keep their slot with the `LIVE` flag
/// cleared, exactly like the old `Vec<Option<JobState>>` kept a `None`.
#[derive(Debug, Clone, Default)]
struct JobArena {
    hot: Vec<HotJob>,
    submitted_at: Vec<SimTime>,
    walltime_estimate: Vec<Option<Duration>>,
}

impl JobArena {
    fn len(&self) -> usize {
        self.hot.len()
    }

    /// Grows every column so `idx` is addressable.
    fn ensure(&mut self, idx: usize) {
        if idx >= self.hot.len() {
            let n = idx + 1;
            self.hot.resize(n, EMPTY_SLOT);
            self.submitted_at.resize(n, SimTime::ZERO);
            self.walltime_estimate.resize(n, None);
        }
    }

    fn is_live(&self, idx: usize) -> bool {
        self.hot.get(idx).is_some_and(|h| h.flags & LIVE != 0)
    }

    fn is_running(&self, idx: usize) -> bool {
        self.hot[idx].flags & RUNNING != 0
    }

    /// Assembles the job snapshot at `idx`; the caller has checked
    /// liveness.
    fn get(&self, idx: usize) -> JobState {
        debug_assert!(self.is_live(idx));
        let h = &self.hot[idx];
        JobState {
            id: JobId(idx as u32),
            min_replicas: h.min_replicas,
            max_replicas: h.max_replicas,
            priority: h.priority,
            submitted_at: self.submitted_at[idx],
            replicas: h.replicas,
            last_action: h.last_action,
            running: h.flags & RUNNING != 0,
            walltime_estimate: self.walltime_estimate[idx],
        }
    }

    /// Scatters a job snapshot into the columns.
    fn set(&mut self, job: &JobState) {
        let idx = job.id.index();
        self.hot[idx] = HotJob {
            min_replicas: job.min_replicas,
            max_replicas: job.max_replicas,
            priority: job.priority,
            replicas: job.replicas,
            last_action: job.last_action,
            flags: LIVE | if job.running { RUNNING } else { 0 },
        };
        self.submitted_at[idx] = job.submitted_at;
        self.walltime_estimate[idx] = job.walltime_estimate;
    }

    fn order_key(&self, idx: usize) -> OrderKey {
        (
            Reverse(self.hot[idx].priority),
            self.submitted_at[idx],
            JobId(idx as u32),
        )
    }

    /// Column-level [`JobState::estimated_end`].
    fn estimated_end(&self, idx: usize) -> SimTime {
        match (self.is_running(idx), self.walltime_estimate[idx]) {
            (true, Some(est)) => self.hot[idx].last_action + est,
            _ => SimTime::INFINITY,
        }
    }

    fn end_key(&self, idx: usize) -> QueueKey {
        (self.estimated_end(idx), JobId(idx as u32))
    }

    fn queue_key(&self, idx: usize) -> QueueKey {
        (self.submitted_at[idx], JobId(idx as u32))
    }

    fn action_key(&self, idx: usize) -> QueueKey {
        (self.hot[idx].last_action, JobId(idx as u32))
    }

    fn cursor(&self, id: JobId) -> JobRef<'_> {
        JobRef {
            arena: self,
            idx: id.index(),
        }
    }

    /// Live slots in dense id order.
    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&i| self.is_live(i))
    }

    fn running(&self) -> impl Iterator<Item = usize> + '_ {
        self.live().filter(|&i| self.is_running(i))
    }

    fn queued(&self) -> impl Iterator<Item = usize> + '_ {
        self.live().filter(|&i| !self.is_running(i))
    }

    // The from-scratch definition of each ordered index: what a first
    // read builds, and what `ClusterView::eq` holds a maintained index
    // to.

    fn running_order(&self) -> BTreeSet<OrderKey> {
        self.running().map(|i| self.order_key(i)).collect()
    }

    fn running_action_order(&self) -> ActionList {
        let mut keys: Vec<QueueKey> = self.running().map(|i| self.action_key(i)).collect();
        keys.sort_unstable();
        let mut list = ActionList {
            head: NIL,
            tail: NIL,
            links: vec![[NIL; 2]; self.len()],
        };
        for (_, JobId(id)) in keys {
            list.link_after(list.tail, id);
        }
        list
    }

    fn queued_priority_order(&self) -> BTreeSet<OrderKey> {
        self.queued().map(|i| self.order_key(i)).collect()
    }

    fn queued_order(&self) -> BTreeSet<QueueKey> {
        self.queued().map(|i| self.queue_key(i)).collect()
    }

    fn running_end_order(&self) -> BTreeSet<QueueKey> {
        self.running().map(|i| self.end_key(i)).collect()
    }

    fn queued_footprint(&self) -> FootprintIndex {
        let mut buckets = FootprintIndex::new();
        for i in self.queued() {
            buckets
                .entry(self.hot[i].min_replicas)
                .or_default()
                .insert(self.queue_key(i));
        }
        buckets
    }
}

/// Queued jobs bucketed by `min_replicas`, submission order inside each
/// bucket; an emptied bucket is dropped, so the map is a pure function
/// of the queued rows.
type FootprintIndex = BTreeMap<u32, BTreeSet<QueueKey>>;

/// Index upkeep is one call either way round: `enter` inserts `key`,
/// otherwise it is removed.
fn toggle<K: Ord>(index: &mut BTreeSet<K>, key: K, enter: bool) {
    let changed = if enter {
        index.insert(key)
    } else {
        index.remove(&key)
    };
    debug_assert!(changed, "ordered index out of step with the arena");
}

/// "No neighbour" in an [`ActionList`] link.
const NIL: u32 = u32::MAX;
/// The two halves of an [`ActionList`] link.
const PREV: usize = 0;
const NEXT: usize = 1;

/// The last-action order: running jobs threaded in `(last_action, id)`
/// order through one `[prev, next]` link column indexed by `JobId`,
/// beside the arena. The clock the engines write `last_action` from
/// never runs backwards, so a job entering the order (a start, or a
/// rescale re-keying it) belongs at the tail — it is a recency list,
/// and O(1) links keep it where a balanced tree would pay O(log n)
/// per mutation.
#[derive(Debug, Clone)]
struct ActionList {
    head: u32,
    tail: u32,
    /// Meaningful only for the ids currently linked; grown on demand.
    links: Vec<[u32; 2]>,
}

impl ActionList {
    /// Where the link to the node after `prev` lives: `prev`'s `next`,
    /// or the head.
    fn next_of(&mut self, prev: u32) -> &mut u32 {
        match prev {
            NIL => &mut self.head,
            _ => &mut self.links[prev as usize][NEXT],
        }
    }

    /// Where the link to the node before `next` lives: `next`'s
    /// `prev`, or the tail.
    fn prev_of(&mut self, next: u32) -> &mut u32 {
        match next {
            NIL => &mut self.tail,
            _ => &mut self.links[next as usize][PREV],
        }
    }

    /// Links `id` in right after `prev` (`NIL`: at the head).
    fn link_after(&mut self, prev: u32, id: u32) {
        let next = std::mem::replace(self.next_of(prev), id);
        *self.prev_of(next) = id;
        self.links[id as usize] = [prev, next];
    }

    /// Links the running job at `idx` in at its `(last_action, id)`
    /// position, searching back from the tail: under a non-decreasing
    /// clock that passes only the same-instant ties with larger ids,
    /// and for any other instant it still finds the sorted position.
    fn insert(&mut self, hot: &[HotJob], idx: usize) {
        if idx >= self.links.len() {
            self.links.resize(idx + 1, [NIL; 2]);
        }
        let id = idx as u32;
        let key = (hot[idx].last_action, id);
        let mut prev = self.tail;
        while prev != NIL && (hot[prev as usize].last_action, prev) > key {
            prev = self.links[prev as usize][PREV];
        }
        self.link_after(prev, id);
    }

    fn unlink(&mut self, idx: usize) {
        let [prev, next] = self.links[idx];
        let was_next = std::mem::replace(self.next_of(prev), next);
        let was_prev = std::mem::replace(self.prev_of(next), prev);
        debug_assert_eq!(
            [was_next, was_prev],
            [idx as u32; 2],
            "last-action list out of step with the arena"
        );
    }

    /// The linked ids from `from` along the `dir` links.
    fn walk(&self, from: u32, dir: usize) -> impl Iterator<Item = u32> + '_ {
        let linked = |id: u32| (id != NIL).then_some(id);
        std::iter::successors(linked(from), move |&id| {
            linked(self.links[id as usize][dir])
        })
    }
}

/// The same ids in the same order, read both ways round — so a
/// maintained list held to its from-scratch definition has its `prev`
/// links checked along with the `next` links every reader follows.
impl PartialEq for ActionList {
    fn eq(&self, other: &Self) -> bool {
        self.walk(self.head, NEXT).eq(other.walk(other.head, NEXT))
            && self.walk(self.tail, PREV).eq(other.walk(other.tail, PREV))
    }
}

/// Which pay-per-use indexes of a [`ClusterView`] have been read (and
/// are therefore maintained) — see [`ClusterView::built_indexes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuiltIndexes {
    /// Running jobs by descending priority
    /// (`running_desc_priority`/`running_scan`).
    pub running_order: bool,
    /// Running jobs by last scheduling action
    /// (`running_by_last_action`) — the elastic policy's gap cursor.
    pub running_action_order: bool,
    /// Queued jobs by descending priority (`queued_desc_priority`) —
    /// the queued lane of the elastic Fig. 3 walk.
    pub queued_priority_order: bool,
    /// Queued jobs by submission
    /// (`queued_submission_order`/`queued_scan`).
    pub queued_order: bool,
    /// Running jobs by estimated end (`running_by_estimated_end`).
    pub running_end_order: bool,
    /// Queued jobs bucketed by minimum footprint (`queued_fitting`).
    pub queued_footprint: bool,
}

/// Schedulable cluster state, incrementally maintained (see the module
/// docs for the data-structure layout and complexity contract).
#[derive(Debug, Clone)]
pub struct ClusterView {
    capacity: u32,
    free_slots: u32,
    /// Slots currently lost to node failure or spot reclamation
    /// ([`ClusterView::fail_slots`] / [`ClusterView::restore_slots`]).
    failed_slots: u32,
    /// Slots the cluster owes: committed + failed beyond capacity. A
    /// fault that lands on occupied slots opens a deficit; evictions,
    /// shrinks and completions pay it down before crediting `free`.
    /// Invariant: `free_slots > 0` implies `deficit == 0`.
    deficit: u32,
    /// Columnar job storage indexed by `JobId`; cleared flags mark jobs
    /// that completed or were cancelled.
    arena: JobArena,
    live: usize,
    running: usize,
    // The pay-per-use ordered indexes: unset until first read, then
    // maintained by every mutation (module docs, "Complexity contract").
    running_order: OnceLock<BTreeSet<OrderKey>>,
    /// Running jobs by `(last_action, id)`: the jobs past any rescale
    /// gap are a prefix of it.
    running_action_order: OnceLock<ActionList>,
    queued_priority_order: OnceLock<BTreeSet<OrderKey>>,
    queued_order: OnceLock<BTreeSet<QueueKey>>,
    /// Running jobs by estimated completion — the frontier EASY-style
    /// reservations walk. Jobs without an estimate key at `INFINITY`.
    running_end_order: OnceLock<BTreeSet<QueueKey>>,
    queued_footprint: OnceLock<FootprintIndex>,
}

impl ClusterView {
    /// An empty view of a cluster with `capacity` slots, all free.
    pub fn new(capacity: u32) -> Self {
        ClusterView {
            capacity,
            free_slots: capacity,
            failed_slots: 0,
            deficit: 0,
            arena: JobArena::default(),
            live: 0,
            running: 0,
            running_order: OnceLock::new(),
            running_action_order: OnceLock::new(),
            queued_priority_order: OnceLock::new(),
            queued_order: OnceLock::new(),
            running_end_order: OnceLock::new(),
            queued_footprint: OnceLock::new(),
        }
    }

    /// Total slots (the 64 vCPUs of the paper's testbed).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Slots not committed to any pod (worker or launcher).
    pub fn free_slots(&self) -> u32 {
        self.free_slots
    }

    /// Overrides the free-slot counter. For engines whose slot
    /// accounting lives outside the view (bench/test setup of arbitrary
    /// states); the incremental maintenance in [`apply_action`],
    /// [`ClusterView::insert`] and [`ClusterView::remove`] keeps the
    /// counter correct on its own otherwise.
    pub fn set_free_slots(&mut self, free: u32) {
        assert!(free <= self.capacity, "free {free} > capacity");
        self.free_slots = free;
    }

    /// Slots currently lost to node failure or reclamation.
    pub fn failed_slots(&self) -> u32 {
        self.failed_slots
    }

    /// Slots owed after a fault landed on occupied capacity: the policy
    /// must evict/shrink/requeue running work until this reaches zero.
    pub fn deficit(&self) -> u32 {
        self.deficit
    }

    /// Marks `n` slots as failed/reclaimed. Free slots absorb the loss
    /// first; whatever lands on occupied capacity opens a
    /// [`ClusterView::deficit`] the policy's `on_fault` answer must pay
    /// down (engines assert the deficit clears after applying it).
    pub fn fail_slots(&mut self, n: u32) {
        self.failed_slots += n;
        let absorbed = n.min(self.free_slots);
        self.free_slots -= absorbed;
        self.deficit += n - absorbed;
    }

    /// Returns `n` previously failed/reclaimed slots to service. Any
    /// outstanding deficit is paid first; the remainder becomes free.
    ///
    /// Panics if `n` exceeds the currently failed slots.
    pub fn restore_slots(&mut self, n: u32) {
        assert!(
            n <= self.failed_slots,
            "restore of {n} slots, only {} failed",
            self.failed_slots
        );
        self.failed_slots -= n;
        self.credit_slots(n);
    }

    /// Credits `n` released slots, paying down any deficit before
    /// adding to the free counter — the single path every slot release
    /// (completion, cancel, shrink, evict, requeue, restore) goes
    /// through, which is what keeps the `free > 0 ⟹ deficit == 0`
    /// invariant closed under all mutations.
    fn credit_slots(&mut self, n: u32) {
        let paid = n.min(self.deficit);
        self.deficit -= paid;
        self.free_slots += n - paid;
    }

    /// Sanity invariant: committed slots (+launchers accounted by the
    /// engine) never exceed the *serviceable* capacity (total minus
    /// failed) except transiently, while a fault deficit is open.
    pub fn committed(&self) -> u32 {
        (self.capacity + self.deficit) - (self.failed_slots + self.free_slots)
    }

    /// Live jobs (running + queued).
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no job is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.running
    }

    /// Which ordered indexes have been read so far, and are therefore
    /// paying their upkeep on every mutation. Introspection for cost
    /// tests — a policy never needs it.
    pub fn built_indexes(&self) -> BuiltIndexes {
        BuiltIndexes {
            running_order: self.running_order.get().is_some(),
            running_action_order: self.running_action_order.get().is_some(),
            queued_priority_order: self.queued_priority_order.get().is_some(),
            queued_order: self.queued_order.get().is_some(),
            running_end_order: self.running_end_order.get().is_some(),
            queued_footprint: self.queued_footprint.get().is_some(),
        }
    }

    /// Index upkeep for the job at `idx` joining (`enter`) or leaving
    /// the running set. Like its sibling below it reads the job's keys
    /// from the arena row, so it runs while the row holds the state
    /// being indexed: after the write when entering, before it when
    /// leaving.
    fn index_running(&mut self, idx: usize, enter: bool) {
        if let Some(index) = self.running_order.get_mut() {
            toggle(index, self.arena.order_key(idx), enter);
        }
        if let Some(list) = self.running_action_order.get_mut() {
            if enter {
                list.insert(&self.arena.hot, idx);
            } else {
                list.unlink(idx);
            }
        }
        if let Some(index) = self.running_end_order.get_mut() {
            toggle(index, self.arena.end_key(idx), enter);
        }
        if enter {
            self.running += 1;
        } else {
            self.running -= 1;
        }
    }

    /// Index upkeep for the job at `idx` joining or leaving the queue.
    fn index_queued(&mut self, idx: usize, enter: bool) {
        if let Some(index) = self.queued_priority_order.get_mut() {
            toggle(index, self.arena.order_key(idx), enter);
        }
        if let Some(index) = self.queued_order.get_mut() {
            toggle(index, self.arena.queue_key(idx), enter);
        }
        if let Some(buckets) = self.queued_footprint.get_mut() {
            let min = self.arena.hot[idx].min_replicas;
            let bucket = buckets.entry(min).or_default();
            toggle(bucket, self.arena.queue_key(idx), enter);
            if bucket.is_empty() {
                buckets.remove(&min);
            }
        }
    }

    /// A rescale: writes the new worker count and restarts the gap
    /// and estimate clocks, re-keying the last-action order and the
    /// completion frontier where built. A key that did not move (a
    /// second action at the same instant; an estimate-less job, which
    /// keys its end at `(INFINITY, id)` forever) costs no churn.
    fn rescale(&mut self, idx: usize, to_replicas: u32, now: SimTime) {
        let action_key_moves = self.arena.hot[idx].last_action != now;
        let old_end = self
            .running_end_order
            .get()
            .map(|_| self.arena.end_key(idx));
        self.arena.hot[idx].replicas = to_replicas;
        self.arena.hot[idx].last_action = now;
        if let (true, Some(list)) = (action_key_moves, self.running_action_order.get_mut()) {
            list.unlink(idx);
            list.insert(&self.arena.hot, idx);
        }
        if let (Some(old_end), Some(index)) = (old_end, self.running_end_order.get_mut()) {
            let new_end = self.arena.end_key(idx);
            if new_end != old_end {
                toggle(index, old_end, false);
                toggle(index, new_end, true);
            }
        }
    }

    /// The job behind `id`, if live. O(1) — assembled by value from the
    /// arena columns.
    pub fn job(&self, id: JobId) -> Option<JobState> {
        let idx = id.index();
        self.arena.is_live(idx).then(|| self.arena.get(idx))
    }

    /// Adds a job to the view. A running job debits
    /// `replicas + launcher_slots` from the free counter; a queued job
    /// holds nothing.
    ///
    /// Panics if the id is already live or a running insert exceeds the
    /// free slots.
    pub fn insert(&mut self, job: JobState, launcher_slots: u32) {
        let idx = job.id.index();
        self.arena.ensure(idx);
        assert!(!self.arena.is_live(idx), "job {} already live", job.id);
        if job.running {
            let need = job.replicas + launcher_slots;
            assert!(
                self.free_slots >= need,
                "insert of running {} needs {need} slots, only {} free",
                job.id,
                self.free_slots
            );
            self.free_slots -= need;
        }
        self.arena.set(&job);
        self.live += 1;
        if job.running {
            self.index_running(idx, true);
        } else {
            self.index_queued(idx, true);
        }
    }

    /// Removes a job (completion or cancellation), crediting
    /// `replicas + launcher_slots` back if it was running. Returns the
    /// removed state, or `None` if the id is not live.
    pub fn remove(&mut self, id: JobId, launcher_slots: u32) -> Option<JobState> {
        let idx = id.index();
        if !self.arena.is_live(idx) {
            return None;
        }
        let job = self.arena.get(idx);
        self.live -= 1;
        if job.running {
            self.index_running(idx, false);
            self.credit_slots(job.replicas + launcher_slots);
        } else {
            self.index_queued(idx, false);
        }
        self.arena.hot[idx].flags = 0;
        Some(job)
    }

    /// Live jobs in dense id (= admission) order.
    pub fn jobs(&self) -> impl Iterator<Item = JobState> + '_ {
        self.arena.live().map(|i| self.arena.get(i))
    }

    fn running_order(&self) -> &BTreeSet<OrderKey> {
        self.running_order
            .get_or_init(|| self.arena.running_order())
    }

    fn queued_order(&self) -> &BTreeSet<QueueKey> {
        self.queued_order.get_or_init(|| self.arena.queued_order())
    }

    /// Running jobs in *decreasing* priority order (the paper's
    /// `runningJobs` list). O(k) off the index (built on first read),
    /// no sort.
    pub fn running_desc_priority(&self) -> impl DoubleEndedIterator<Item = JobState> + '_ {
        self.running_scan().map(|j| j.snapshot())
    }

    /// Queued jobs in submission order (earliest first, id-tie-broken) —
    /// the FCFS queue. O(k), no sort.
    pub fn queued_submission_order(&self) -> impl DoubleEndedIterator<Item = JobState> + '_ {
        self.queued_scan().map(|j| j.snapshot())
    }

    /// Lazy-cursor variant of [`ClusterView::running_desc_priority`]:
    /// same index, same order, but each item is a [`JobRef`] reading
    /// columns on demand.
    pub fn running_scan(&self) -> impl DoubleEndedIterator<Item = JobRef<'_>> {
        self.running_order()
            .iter()
            .map(|&(_, _, id)| self.arena.cursor(id))
    }

    /// Running jobs by increasing `last_action` (id-tie-broken): the
    /// elastic policy's gap cursor. `now − last_action` only falls
    /// along this order, so the jobs a rescale gap lets a decision
    /// touch are exactly the rows before the first one still inside it
    /// — `take_while` that predicate and the blocked rest of the
    /// cluster is never visited.
    pub fn running_by_last_action(&self) -> impl Iterator<Item = JobRef<'_>> {
        let list = self
            .running_action_order
            .get_or_init(|| self.arena.running_action_order());
        list.walk(list.head, NEXT)
            .map(|id| self.arena.cursor(JobId(id)))
    }

    /// Queued jobs in *decreasing* priority order — the queued half of
    /// the paper's `allJobs` list (Fig. 3), which the elastic policy
    /// merges with the running jobs it may touch.
    pub fn queued_desc_priority(&self) -> impl DoubleEndedIterator<Item = JobRef<'_>> {
        self.queued_priority_order
            .get_or_init(|| self.arena.queued_priority_order())
            .iter()
            .map(|&(_, _, id)| self.arena.cursor(id))
    }

    /// Lazy-cursor variant of [`ClusterView::queued_submission_order`]
    /// — the rigid baselines' head walk, which stops at the first job
    /// that does not fit.
    pub fn queued_scan(&self) -> impl DoubleEndedIterator<Item = JobRef<'_>> {
        self.queued_order()
            .iter()
            .map(|&(_, id)| self.arena.cursor(id))
    }

    /// Queued jobs *behind* `head` in submission order whose
    /// `min_replicas` is at most `fit`, in submission order: the
    /// backfill candidates that can still start. A k-way merge over
    /// the footprint buckets `≤ fit`, so a deep backlog of jobs too
    /// large for the free slots is never visited; call
    /// [`FittingCursor::shrink_to`] as slots are handed out and the
    /// buckets that stopped fitting drop out of the merge.
    ///
    /// Panics if `head` is not live.
    pub fn queued_fitting(&self, head: JobId, fit: u32) -> FittingCursor<'_> {
        let idx = head.index();
        assert!(
            self.arena.is_live(idx),
            "fitting cursor behind unknown {head}"
        );
        let behind = (Bound::Excluded(self.arena.queue_key(idx)), Bound::Unbounded);
        let lanes = self
            .queued_footprint
            .get_or_init(|| self.arena.queued_footprint())
            .range(..=fit)
            .filter_map(|(&min_replicas, bucket)| {
                let mut rest = bucket.range(behind);
                let next = *rest.next()?;
                Some(Lane {
                    min_replicas,
                    next,
                    rest,
                })
            })
            .collect();
        FittingCursor {
            arena: &self.arena,
            lanes,
        }
    }

    /// Running jobs by increasing [`JobState::estimated_end`] — the
    /// completion frontier reservation-based backfilling (EASY) walks
    /// to find the queue head's shadow start time. Jobs without a
    /// walltime estimate sort last (their end is `INFINITY`). O(k) off
    /// the index (built on first read), no sort.
    pub fn running_by_estimated_end(&self) -> impl DoubleEndedIterator<Item = JobState> + '_ {
        self.running_end_order
            .get_or_init(|| self.arena.running_end_order())
            .iter()
            .map(|&(_, id)| self.arena.get(id.index()))
    }
}

/// One footprint bucket inside a [`FittingCursor`]'s merge.
struct Lane<'a> {
    min_replicas: u32,
    next: QueueKey,
    rest: btree_set::Range<'a, QueueKey>,
}

/// The cursor [`ClusterView::queued_fitting`] returns: yields fitting
/// queued jobs in submission order, one O(buckets) step each.
pub struct FittingCursor<'a> {
    arena: &'a JobArena,
    /// The buckets still fitting that have a job left to yield.
    lanes: Vec<Lane<'a>>,
}

impl FittingCursor<'_> {
    /// Tightens the fit: jobs with `min_replicas > fit` are no longer
    /// yielded. The fit only ever shrinks — a dropped bucket never
    /// comes back.
    pub fn shrink_to(&mut self, fit: u32) {
        self.lanes.retain(|lane| lane.min_replicas <= fit);
    }
}

impl<'a> Iterator for FittingCursor<'a> {
    type Item = JobRef<'a>;

    fn next(&mut self) -> Option<JobRef<'a>> {
        let at = (0..self.lanes.len()).min_by_key(|&i| self.lanes[i].next)?;
        let lane = &mut self.lanes[at];
        let (_, id) = lane.next;
        match lane.rest.next() {
            Some(&key) => lane.next = key,
            None => {
                self.lanes.swap_remove(at);
            }
        }
        Some(self.arena.cursor(id))
    }
}

/// Two views are equal when they describe the same schedulable state:
/// same capacity and slot counters, and the same live jobs field for
/// field. Which ordered indexes happen to be built is not state — each
/// is a pure function of the job rows — but a built one must *be* that
/// function of its rows, and equality checks it (the
/// incremental-vs-rebuilt property test leans on this).
impl PartialEq for ClusterView {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.free_slots == other.free_slots
            && self.failed_slots == other.failed_slots
            && self.deficit == other.deficit
            && self.live == other.live
            && self.running == other.running
            && self.jobs().eq(other.jobs())
            && self.derived_current()
            && other.derived_current()
    }
}

impl ClusterView {
    /// `true` when the job counters and every built index equal their
    /// from-scratch definitions over the current arena rows.
    fn derived_current(&self) -> bool {
        fn current<T: PartialEq>(index: &OnceLock<T>, scratch: impl FnOnce() -> T) -> bool {
            index.get().is_none_or(|built| *built == scratch())
        }
        let arena = &self.arena;
        self.live == arena.live().count()
            && self.running == arena.running().count()
            && current(&self.running_order, || arena.running_order())
            && current(&self.running_action_order, || arena.running_action_order())
            && current(&self.queued_priority_order, || {
                arena.queued_priority_order()
            })
            && current(&self.queued_order, || arena.queued_order())
            && current(&self.running_end_order, || arena.running_end_order())
            && current(&self.queued_footprint, || arena.queued_footprint())
    }
}

/// A scheduling decision. Keyed by interned [`JobId`]s — actions are
/// `Copy`, and resolving their target in a view or an engine-side dense
/// table is O(1), never a name scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Start `job` with `replicas` workers (plus its launcher).
    Create {
        /// Target job.
        job: JobId,
        /// Worker count to start with.
        replicas: u32,
    },
    /// Grow `job` to `to_replicas` workers.
    Expand {
        /// Target job.
        job: JobId,
        /// New worker count.
        to_replicas: u32,
    },
    /// Shrink `job` to `to_replicas` workers.
    Shrink {
        /// Target job.
        job: JobId,
        /// New worker count.
        to_replicas: u32,
    },
    /// Leave `job` in the queue (no resources now).
    Enqueue {
        /// Target job.
        job: JobId,
    },
    /// Terminate `job` and release everything it holds (client
    /// cancellation, or a policy evicting a job outright).
    Cancel {
        /// Target job.
        job: JobId,
    },
    /// Preempt a running `job` back to the queue, keeping its
    /// checkpointed progress (checkpoint/restart recovery). The job
    /// releases everything it holds — paying any fault deficit first —
    /// and requeues at its original submission position.
    Evict {
        /// Target job (must be running).
        job: JobId,
    },
    /// Kill a running `job` and resubmit it from scratch after a
    /// backoff (kill-and-requeue recovery). The job leaves the view
    /// entirely; the engine re-inserts it when the requeue comes due
    /// and fails it permanently once the retry budget is exhausted.
    Requeue {
        /// Target job (must be running).
        job: JobId,
    },
}

impl Action {
    /// The job the action concerns.
    pub fn job(&self) -> JobId {
        match *self {
            Action::Create { job, .. }
            | Action::Expand { job, .. }
            | Action::Shrink { job, .. }
            | Action::Enqueue { job }
            | Action::Cancel { job }
            | Action::Evict { job }
            | Action::Requeue { job } => job,
        }
    }
}

/// Applies `action` to a view in place — this is how engines carry the
/// persistent view across events (and how tests replay decision
/// sequences). O(1) arena writes plus the upkeep of each *built*
/// index — O(log n), O(1) for the last-action list (module docs,
/// "Complexity contract") — never a rebuild.
/// `launcher_slots` is the per-running-job launcher overhead.
///
/// Panics if the action violates capacity or job invariants — a policy
/// emitting such an action is a bug, not a runtime condition.
pub fn apply_action(view: &mut ClusterView, action: &Action, now: SimTime, launcher_slots: u32) {
    match *action {
        Action::Create { job, replicas } => {
            let need = replicas + launcher_slots;
            assert!(
                view.free_slots >= need,
                "create {job} needs {need} slots, only {} free",
                view.free_slots
            );
            let idx = job.index();
            assert!(view.arena.is_live(idx), "create for unknown job {job}");
            assert!(
                !view.arena.is_running(idx),
                "create for already-running {job}"
            );
            assert!(
                replicas >= view.arena.hot[idx].min_replicas
                    && replicas <= view.arena.hot[idx].max_replicas,
                "create {job} at {replicas} outside [{}, {}]",
                view.arena.hot[idx].min_replicas,
                view.arena.hot[idx].max_replicas
            );
            view.index_queued(idx, false);
            view.arena.hot[idx].flags |= RUNNING;
            view.arena.hot[idx].replicas = replicas;
            view.arena.hot[idx].last_action = now;
            view.free_slots -= need;
            view.index_running(idx, true);
        }
        Action::Expand { job, to_replicas } => {
            let idx = job.index();
            assert!(view.arena.is_live(idx), "expand for unknown job {job}");
            assert!(view.arena.is_running(idx), "expand of non-running {job}");
            let from = view.arena.hot[idx].replicas;
            assert!(
                to_replicas > from && to_replicas <= view.arena.hot[idx].max_replicas,
                "expand {job} {from} -> {to_replicas} invalid (max {})",
                view.arena.hot[idx].max_replicas
            );
            let grow = to_replicas - from;
            assert!(
                view.free_slots >= grow,
                "expand {job} needs {grow}, only {} free",
                view.free_slots
            );
            view.rescale(idx, to_replicas, now);
            view.free_slots -= grow;
        }
        Action::Shrink { job, to_replicas } => {
            let idx = job.index();
            assert!(view.arena.is_live(idx), "shrink for unknown job {job}");
            assert!(view.arena.is_running(idx), "shrink of non-running {job}");
            let from = view.arena.hot[idx].replicas;
            assert!(
                to_replicas < from && to_replicas >= view.arena.hot[idx].min_replicas,
                "shrink {job} {from} -> {to_replicas} invalid (min {})",
                view.arena.hot[idx].min_replicas
            );
            view.rescale(idx, to_replicas, now);
            view.credit_slots(from - to_replicas);
        }
        Action::Enqueue { .. } => {}
        Action::Cancel { job } => {
            view.remove(job, launcher_slots)
                .unwrap_or_else(|| panic!("cancel for unknown job {job}"));
        }
        Action::Evict { job } => {
            let idx = job.index();
            assert!(view.arena.is_live(idx), "evict for unknown job {job}");
            assert!(view.arena.is_running(idx), "evict of non-running {job}");
            let freed = view.arena.hot[idx].replicas + launcher_slots;
            view.index_running(idx, false);
            view.arena.hot[idx].flags &= !RUNNING;
            view.arena.hot[idx].replicas = 0;
            view.arena.hot[idx].last_action = now;
            view.credit_slots(freed);
            view.index_queued(idx, true);
        }
        Action::Requeue { job } => {
            let idx = job.index();
            assert!(view.arena.is_live(idx), "requeue for unknown job {job}");
            assert!(view.arena.is_running(idx), "requeue of non-running {job}");
            view.remove(job, launcher_slots);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    pub(crate) fn job(id: u32, prio: u32, submitted: f64, replicas: u32) -> JobState {
        JobState {
            id: JobId(id),
            min_replicas: 2,
            max_replicas: 16,
            priority: prio,
            submitted_at: SimTime::from_secs(submitted),
            replicas,
            last_action: SimTime::NEG_INFINITY,
            running: replicas > 0,
            walltime_estimate: None,
        }
    }

    /// The canonical test view builder (also used by the policy test
    /// modules): inserts `jobs` with a 1-slot launcher, then pins
    /// `free_slots` to the caller's choice. `free` is independent of
    /// the inserted jobs — tests may describe over-committed states —
    /// so the counter is reset before each insert to keep the capacity
    /// assert out of the way.
    pub(crate) fn view_of(capacity: u32, free: u32, jobs: Vec<JobState>) -> ClusterView {
        let mut v = ClusterView::new(capacity);
        for j in jobs {
            v.set_free_slots(capacity);
            v.insert(j, 1);
        }
        v.set_free_slots(free);
        v
    }

    /// A random backlog for the indexed == full-scan policy proptests,
    /// grown through the real mutation path (1-slot launchers): mixed
    /// footprints, jobs that can never run here (`min` at or past the
    /// worker capacity), estimate-less jobs, a dozen submission
    /// instants so ties are common, some jobs started, some of those
    /// evicted back into the queue at their original submission time
    /// (ahead of younger ids), and a random share of the free slots
    /// lost to a fault so heads block at every depth.
    pub(crate) fn random_backlog(seed: u64) -> ClusterView {
        random_backlog_of(seed, 5, 12)
    }

    /// [`random_backlog`] with the priority levels and submission
    /// instants the jobs are drawn from as arguments: the fewer of
    /// either, the more orders the id tie-break alone decides.
    pub(crate) fn random_backlog_of(seed: u64, priorities: u32, instants: u32) -> ClusterView {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let capacity = rng.gen_range(4..=48u32);
        let mut v = ClusterView::new(capacity);
        let n = rng.gen_range(0..40u32);
        for id in 0..n {
            let min = if rng.gen_bool(0.1) {
                rng.gen_range(capacity - 1..=capacity + 2)
            } else {
                rng.gen_range(1..=capacity / 2)
            };
            let queued = JobState {
                min_replicas: min,
                max_replicas: min + rng.gen_range(0..=capacity),
                walltime_estimate: rng
                    .gen_bool(0.7)
                    .then(|| Duration::from_secs(f64::from(rng.gen_range(1..3000u32)))),
                ..job(
                    id,
                    rng.gen_range(1..=priorities),
                    f64::from(rng.gen_range(0..instants)),
                    0,
                )
            };
            v.insert(queued, 1);
        }
        for id in (0..n).map(JobId) {
            let j = v.job(id).expect("just inserted");
            let room = v.free_slots().saturating_sub(1);
            if j.min_replicas > room || !rng.gen_bool(0.4) {
                continue;
            }
            let replicas = rng.gen_range(j.min_replicas..=j.max_replicas.min(room));
            let started = SimTime::from_secs(f64::from(rng.gen_range(12..20u32)));
            apply_action(&mut v, &Action::Create { job: id, replicas }, started, 1);
            if rng.gen_bool(0.3) {
                apply_action(&mut v, &Action::Evict { job: id }, started, 1);
            }
        }
        let lost = rng.gen_range(0..=v.free_slots());
        v.fail_slots(lost);
        v
    }

    #[test]
    fn fitting_cursor_merges_buckets_in_submission_order_and_drops_them_as_fit_shrinks() {
        let q = |id: u32, submitted: f64, min: u32| JobState {
            min_replicas: min,
            ..job(id, 3, submitted, 0)
        };
        let view = view_of(
            64,
            10,
            vec![
                q(0, 0.0, 20), // the head
                q(1, 1.0, 4),
                q(2, 2.0, 2),
                q(3, 2.0, 9), // never fits 8
                q(4, 3.0, 4),
                q(5, 3.0, 2),
                q(6, 4.0, 8),
                q(7, 5.0, 2),
            ],
        );
        let ids = |c: FittingCursor<'_>| c.map(|j| j.id().0).collect::<Vec<_>>();
        assert_eq!(ids(view.queued_fitting(JobId(0), 8)), [1, 2, 4, 5, 6, 7]);
        // Strictly behind the head: the head's own bucket-mates ahead
        // of it, and the head itself, are not candidates.
        assert_eq!(ids(view.queued_fitting(JobId(4), 4)), [5, 7]);
        assert_eq!(ids(view.queued_fitting(JobId(0), 1)), [0u32; 0]);
        let mut cursor = view.queued_fitting(JobId(0), 8);
        assert_eq!(cursor.next().map(|j| j.id()), Some(JobId(1)));
        cursor.shrink_to(3);
        assert_eq!(ids(cursor), [2, 5, 7]);
    }

    #[test]
    fn indexes_are_built_on_first_read_and_maintained_from_then_on() {
        let mut view = view_of(64, 40, vec![job(0, 3, 0.0, 8), job(1, 2, 1.0, 0)]);
        assert_eq!(view.built_indexes(), BuiltIndexes::default());
        assert_eq!(view.running_count(), 1, "a counter, not an index read");
        assert_eq!(view.queued_scan().count(), 1);
        assert_eq!(view.queued_fitting(JobId(1), 64).count(), 0);
        assert_eq!(
            view.built_indexes(),
            BuiltIndexes {
                queued_order: true,
                queued_footprint: true,
                ..BuiltIndexes::default()
            }
        );
        // A mutation keeps the built ones current and builds no other.
        view.insert(job(2, 2, 2.0, 0), 1);
        apply_action(
            &mut view,
            &Action::Create {
                job: JobId(1),
                replicas: 4,
            },
            SimTime::from_secs(3.0),
            1,
        );
        assert_eq!(
            view.queued_scan().map(|j| j.id()).collect::<Vec<_>>(),
            [JobId(2)]
        );
        assert!(!view.built_indexes().running_order);
        assert_eq!(view.running_scan().count(), 2, "built now, from the arena");
        // A clone carries what was built; equality ignores it.
        let fresh = view_of(64, 35, view.jobs().collect());
        assert_eq!(fresh.built_indexes(), BuiltIndexes::default());
        assert_eq!(view, fresh);
        assert_eq!(view.clone().built_indexes(), view.built_indexes());
    }

    #[test]
    fn priority_ordering_matches_paper() {
        // ids deliberately scrambled relative to priority.
        let view = view_of(
            64,
            0,
            vec![
                job(0, 1, 100.0, 4), // low-late
                job(1, 5, 50.0, 4),  // high
                job(2, 1, 10.0, 4),  // low-early
                job(3, 3, 0.0, 4),   // mid
            ],
        );
        let order: Vec<JobId> = view.running_desc_priority().map(|j| j.id).collect();
        assert_eq!(order, vec![JobId(1), JobId(3), JobId(2), JobId(0)]);
    }

    #[test]
    fn equal_priority_and_time_breaks_by_id() {
        // The satellite fix: identical (priority, submitted_at) must
        // order deterministically by id in every engine.
        let view = view_of(
            64,
            52,
            vec![job(2, 3, 7.0, 4), job(0, 3, 7.0, 4), job(1, 3, 7.0, 4)],
        );
        let order: Vec<JobId> = view.running_desc_priority().map(|j| j.id).collect();
        assert_eq!(order, vec![JobId(0), JobId(1), JobId(2)]);
    }

    #[test]
    fn queued_jobs_order_by_priority_and_by_submission() {
        let view = view_of(
            64,
            60,
            vec![job(0, 1, 0.0, 4), job(1, 5, 1.0, 0), job(2, 2, 0.5, 0)],
        );
        let order: Vec<JobId> = view.queued_desc_priority().map(|j| j.id()).collect();
        assert_eq!(order, vec![JobId(1), JobId(2)]);
        assert_eq!(view.running_desc_priority().count(), 1);
        assert_eq!(view.running_count(), 1);
        // FCFS order ignores priority entirely.
        let fcfs: Vec<JobId> = view.queued_submission_order().map(|j| j.id).collect();
        assert_eq!(fcfs, vec![JobId(2), JobId(1)]);
    }

    #[test]
    fn insert_and_remove_maintain_free_slots() {
        let mut view = ClusterView::new(32);
        view.insert(job(0, 3, 0.0, 8), 1);
        assert_eq!(view.free_slots(), 23, "8 workers + 1 launcher debited");
        view.insert(job(1, 2, 1.0, 0), 1);
        assert_eq!(view.free_slots(), 23, "queued job holds nothing");
        assert_eq!(view.len(), 2);
        let gone = view.remove(JobId(0), 1).expect("live");
        assert_eq!(gone.replicas, 8);
        assert_eq!(view.free_slots(), 32);
        assert!(view.remove(JobId(0), 1).is_none(), "double remove is None");
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn apply_create_expand_shrink_roundtrip() {
        let mut view = view_of(32, 32, vec![job(0, 3, 0.0, 0)]);
        let a = JobId(0);
        let now = SimTime::from_secs(1.0);
        apply_action(
            &mut view,
            &Action::Create {
                job: a,
                replicas: 8,
            },
            now,
            1,
        );
        assert_eq!(view.free_slots(), 23); // 32 - 8 - 1 launcher
        assert!(view.job(a).unwrap().running);
        assert_eq!(view.job(a).unwrap().last_action, now);
        assert_eq!(view.running_count(), 1);
        assert_eq!(view.queued_submission_order().count(), 0);

        apply_action(
            &mut view,
            &Action::Expand {
                job: a,
                to_replicas: 12,
            },
            now,
            1,
        );
        assert_eq!(view.free_slots(), 19);

        apply_action(
            &mut view,
            &Action::Shrink {
                job: a,
                to_replicas: 2,
            },
            now,
            1,
        );
        assert_eq!(view.free_slots(), 29);
        assert_eq!(view.job(a).unwrap().replicas, 2);
        assert_eq!(view.committed(), 3); // 2 workers + launcher
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn apply_rejects_over_capacity_create() {
        let mut view = view_of(4, 4, vec![job(0, 3, 0.0, 0)]);
        apply_action(
            &mut view,
            &Action::Create {
                job: JobId(0),
                replicas: 8,
            },
            SimTime::ZERO,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn apply_rejects_below_min_create() {
        let mut view = view_of(64, 64, vec![job(0, 3, 0.0, 0)]);
        apply_action(
            &mut view,
            &Action::Create {
                job: JobId(0),
                replicas: 1,
            },
            SimTime::ZERO,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn apply_rejects_shrink_below_min() {
        let mut view = view_of(64, 40, vec![job(0, 3, 0.0, 8)]);
        apply_action(
            &mut view,
            &Action::Shrink {
                job: JobId(0),
                to_replicas: 1,
            },
            SimTime::ZERO,
            1,
        );
    }

    #[test]
    fn enqueue_is_a_noop_on_the_view() {
        let mut view = view_of(8, 8, vec![job(0, 3, 0.0, 0)]);
        let before = view.clone();
        apply_action(
            &mut view,
            &Action::Enqueue { job: JobId(0) },
            SimTime::ZERO,
            1,
        );
        assert_eq!(view, before);
    }

    #[test]
    fn cancel_frees_running_slots_and_removes_the_job() {
        let mut view = view_of(32, 19, vec![job(0, 3, 0.0, 12), job(1, 2, 1.0, 0)]);
        apply_action(
            &mut view,
            &Action::Cancel { job: JobId(0) },
            SimTime::from_secs(5.0),
            1,
        );
        assert_eq!(view.free_slots(), 32, "12 workers + 1 launcher reclaimed");
        assert!(view.job(JobId(0)).is_none());
        assert!(view.job(JobId(1)).is_some());
        // Cancelling a queued job frees nothing (it held nothing).
        apply_action(
            &mut view,
            &Action::Cancel { job: JobId(1) },
            SimTime::from_secs(6.0),
            1,
        );
        assert_eq!(view.free_slots(), 32);
        assert!(view.is_empty());
        assert_eq!(view.queued_desc_priority().count(), 0);
    }

    #[test]
    fn estimated_end_index_orders_running_jobs_and_tracks_rescales() {
        let est = |mut j: JobState, started: f64, secs: f64| {
            j.last_action = SimTime::from_secs(started);
            j.walltime_estimate = Some(Duration::from_secs(secs));
            j
        };
        let view = view_of(
            64,
            20,
            vec![
                est(job(0, 3, 0.0, 8), 0.0, 500.0),  // ends ~500
                est(job(1, 3, 1.0, 8), 100.0, 50.0), // ends ~150
                job(2, 3, 2.0, 8),                   // no estimate: last
                est(job(3, 3, 3.0, 0), 0.0, 10.0),   // queued: not listed
            ],
        );
        let order: Vec<JobId> = view.running_by_estimated_end().map(|j| j.id).collect();
        assert_eq!(order, vec![JobId(1), JobId(0), JobId(2)]);
        assert_eq!(
            view.job(JobId(2)).unwrap().estimated_end(),
            SimTime::INFINITY
        );
        assert_eq!(
            view.job(JobId(3)).unwrap().estimated_end(),
            SimTime::INFINITY
        );

        // A rescale restarts the estimate clock: shrink job 1 at t=490
        // and its estimated end jumps past job 0's.
        let mut view = view;
        apply_action(
            &mut view,
            &Action::Shrink {
                job: JobId(1),
                to_replicas: 2,
            },
            SimTime::from_secs(490.0),
            1,
        );
        let order: Vec<JobId> = view.running_by_estimated_end().map(|j| j.id).collect();
        assert_eq!(order, vec![JobId(0), JobId(1), JobId(2)]);
        assert_eq!(
            view.job(JobId(1)).unwrap().estimated_end(),
            SimTime::from_secs(540.0)
        );

        // Removal drops the index entry.
        view.remove(JobId(0), 1);
        assert_eq!(view.running_by_estimated_end().count(), 2);
    }

    fn acted(mut j: JobState, at: f64) -> JobState {
        j.last_action = SimTime::from_secs(at);
        j
    }

    fn last_action_ids(v: &ClusterView) -> Vec<u32> {
        v.running_by_last_action().map(|j| j.id().0).collect()
    }

    /// Holds `v` equal to a from-scratch view of its jobs:
    /// `ClusterView::eq` walks a built list both ways against its
    /// definition.
    fn assert_links_current(v: &ClusterView) {
        assert!(v.built_indexes().running_action_order);
        assert_eq!(*v, view_of(64, v.free_slots(), v.jobs().collect()));
    }

    #[test]
    fn last_action_index_orders_running_jobs_and_tracks_every_action() {
        let mut view = view_of(
            64,
            30,
            vec![
                acted(job(0, 3, 0.0, 8), 50.0),
                job(1, 3, 1.0, 8), // never acted on: first
                acted(job(2, 3, 2.0, 8), 20.0),
                acted(job(3, 3, 3.0, 0), 5.0), // queued: not listed
            ],
        );
        assert_eq!(last_action_ids(&view), [1, 2, 0]);
        let at = SimTime::from_secs(60.0);
        let shrink = |job, to_replicas| Action::Shrink { job, to_replicas };
        // A rescale moves the job to the back; a second action at the
        // same instant leaves its key where it is.
        apply_action(&mut view, &shrink(JobId(1), 4), at, 1);
        assert_eq!(last_action_ids(&view), [2, 0, 1]);
        apply_action(&mut view, &shrink(JobId(1), 2), at, 1);
        assert_eq!(last_action_ids(&view), [2, 0, 1]);
        // A start enters at its start instant (ids break the tie), an
        // eviction leaves, a completion leaves.
        let start = Action::Create {
            job: JobId(3),
            replicas: 2,
        };
        apply_action(&mut view, &start, at, 1);
        assert_eq!(last_action_ids(&view), [2, 0, 1, 3]);
        apply_action(&mut view, &Action::Evict { job: JobId(0) }, at, 1);
        view.remove(JobId(2), 1);
        assert_eq!(last_action_ids(&view), [1, 3]);
        assert_eq!(view, view_of(64, view.free_slots(), view.jobs().collect()));
    }

    #[test]
    fn same_instant_actions_in_descending_id_order_read_back_ascending() {
        let mut view = view_of(64, 40, (0..4).map(|id| job(id, 3, 0.0, 4)).collect());
        assert_eq!(last_action_ids(&view), [0, 1, 2, 3]);
        let at = SimTime::from_secs(10.0);
        // A multi-shrink plan, highest id first: each re-key passes
        // the larger ids already at the tail for this instant.
        for id in [3, 2, 0] {
            let shrink = Action::Shrink {
                job: JobId(id),
                to_replicas: 2,
            };
            apply_action(&mut view, &shrink, at, 1);
        }
        assert_eq!(last_action_ids(&view), [1, 0, 2, 3]);
        assert_links_current(&view);
    }

    #[test]
    fn unlinking_the_head_the_tail_and_the_only_element() {
        let jobs = (0..4).map(|id| acted(job(id, 3, 0.0, 4), f64::from(id)));
        let mut view = view_of(64, 40, jobs.collect());
        assert_eq!(last_action_ids(&view), [0, 1, 2, 3]);
        view.remove(JobId(0), 1); // the head
        assert_eq!(last_action_ids(&view), [1, 2, 3]);
        assert_links_current(&view);
        let at = SimTime::from_secs(9.0);
        apply_action(&mut view, &Action::Evict { job: JobId(3) }, at, 1); // the tail
        assert_eq!(last_action_ids(&view), [1, 2]);
        assert_links_current(&view);
        view.remove(JobId(2), 1);
        view.remove(JobId(1), 1); // the only element
        assert_eq!(last_action_ids(&view), [0u32; 0]);
        assert_links_current(&view);
        // An emptied list takes a start again, at both ends at once.
        let start = Action::Create {
            job: JobId(3),
            replicas: 2,
        };
        apply_action(&mut view, &start, at, 1);
        assert_eq!(last_action_ids(&view), [3]);
        assert_links_current(&view);
    }

    #[test]
    fn a_running_insert_with_a_preset_last_action_lands_mid_list() {
        let jobs = [10.0, 20.0, 30.0].into_iter().zip(0..);
        let mut view = view_of(
            64,
            40,
            jobs.map(|(at, id)| acted(job(id, 3, 0.0, 4), at)).collect(),
        );
        assert_eq!(last_action_ids(&view), [0, 1, 2]);
        // Behind the tail's instant: the search walks back past it.
        view.insert(acted(job(3, 3, 0.0, 4), 15.0), 1);
        assert_eq!(last_action_ids(&view), [0, 3, 1, 2]);
        // An instant already taken: the id breaks the tie, both sides.
        view.insert(acted(job(5, 3, 0.0, 4), 20.0), 1);
        view.insert(acted(job(4, 3, 0.0, 4), 30.0), 1);
        assert_eq!(last_action_ids(&view), [0, 3, 1, 5, 2, 4]);
        // Before every other job, and a rescale to an earlier instant.
        view.insert(job(6, 3, 0.0, 4), 1);
        let shrink = Action::Shrink {
            job: JobId(2),
            to_replicas: 2,
        };
        apply_action(&mut view, &shrink, SimTime::from_secs(12.0), 1);
        assert_eq!(last_action_ids(&view), [6, 0, 2, 3, 1, 5, 4]);
        assert_links_current(&view);
    }

    #[test]
    fn a_first_read_after_mutations_equals_the_maintained_list() {
        // The same mutations against a list read (so maintained) from
        // the start and one never read until the end.
        let mut maintained = view_of(64, 64, (0..12).map(|id| job(id, 3, 0.0, 0)).collect());
        let mut unread = maintained.clone();
        assert_eq!(last_action_ids(&maintained), [0u32; 0]);
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        for step in 0..200u32 {
            let now = SimTime::from_secs(f64::from(step / 3));
            let id = JobId(rng.gen_range(0..12));
            let action = match maintained.job(id) {
                None => {
                    maintained.insert(job(id.0, 3, 0.0, 0), 1);
                    unread.insert(job(id.0, 3, 0.0, 0), 1);
                    continue;
                }
                Some(j) if !j.running && maintained.free_slots() >= 5 => Action::Create {
                    job: id,
                    replicas: 4,
                },
                Some(j) if !j.running => continue,
                Some(j) if j.replicas == 4 => Action::Shrink {
                    job: id,
                    to_replicas: 2,
                },
                Some(_) if rng.gen_bool(0.5) => Action::Evict { job: id },
                Some(_) => Action::Cancel { job: id },
            };
            apply_action(&mut maintained, &action, now, 1);
            apply_action(&mut unread, &action, now, 1);
        }
        assert!(maintained.running_count() > 1, "the walk left a list");
        assert!(!unread.built_indexes().running_action_order);
        assert_eq!(last_action_ids(&unread), last_action_ids(&maintained));
        assert_eq!(unread, maintained);
    }

    #[test]
    fn fault_accounting_pays_deficit_before_free() {
        // 32 slots; job 0 runs 12 workers + 1 launcher, so 19 free.
        let mut view = view_of(32, 19, vec![job(0, 3, 0.0, 12), job(1, 2, 1.0, 0)]);
        view.fail_slots(8); // free capacity absorbs the loss
        assert_eq!(view.free_slots(), 11);
        assert_eq!(view.failed_slots(), 8);
        assert_eq!(view.deficit(), 0);
        view.fail_slots(16); // 11 free absorbed, 5 land on occupied slots
        assert_eq!(view.free_slots(), 0);
        assert_eq!(view.deficit(), 5);
        assert_eq!(view.committed(), 13);
        // Evicting the running job releases 12 + 1 slots: the 5-slot
        // deficit is paid first, the remaining 8 become free.
        apply_action(
            &mut view,
            &Action::Evict { job: JobId(0) },
            SimTime::from_secs(5.0),
            1,
        );
        assert_eq!(view.deficit(), 0);
        assert_eq!(view.free_slots(), 8);
        assert_eq!(view.committed(), 0);
        let j = view.job(JobId(0)).unwrap();
        assert!(!j.running, "evicted job is queued again");
        assert_eq!(j.replicas, 0);
        assert_eq!(view.running_count(), 0);
        // ... at its original submission position, ahead of job 1.
        let fcfs: Vec<JobId> = view.queued_submission_order().map(|j| j.id).collect();
        assert_eq!(fcfs, vec![JobId(0), JobId(1)]);
        // Returning the slots restores full capacity.
        view.restore_slots(24);
        assert_eq!(view.failed_slots(), 0);
        assert_eq!(view.free_slots(), 32);
    }

    #[test]
    fn requeue_removes_the_job_and_pays_the_deficit() {
        let mut view = view_of(8, 0, vec![job(0, 3, 0.0, 7)]);
        view.fail_slots(4);
        assert_eq!(view.deficit(), 4);
        apply_action(
            &mut view,
            &Action::Requeue { job: JobId(0) },
            SimTime::from_secs(2.0),
            1,
        );
        assert_eq!(view.deficit(), 0, "released slots pay the deficit first");
        assert_eq!(view.free_slots(), 4);
        assert!(view.job(JobId(0)).is_none(), "requeued job leaves the view");
        view.restore_slots(4);
        assert_eq!(view.free_slots(), 8);
        assert_eq!(view.committed(), 0);
    }

    #[test]
    #[should_panic(expected = "evict of non-running")]
    fn evict_rejects_queued_jobs() {
        let mut view = view_of(8, 8, vec![job(0, 3, 0.0, 0)]);
        apply_action(
            &mut view,
            &Action::Evict { job: JobId(0) },
            SimTime::ZERO,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "restore of")]
    fn restore_rejects_more_than_failed() {
        let mut view = ClusterView::new(8);
        view.fail_slots(2);
        view.restore_slots(3);
    }

    #[test]
    fn action_job_accessor() {
        assert_eq!(Action::Enqueue { job: JobId(7) }.job(), JobId(7));
        assert_eq!(
            Action::Create {
                job: JobId(9),
                replicas: 1
            }
            .job(),
            JobId(9)
        );
    }

    #[test]
    fn equality_ignores_tombstone_tails() {
        // A view that lost its high-id jobs equals one that never had
        // them: trailing tombstones are not observable state.
        let mut a = view_of(16, 10, vec![job(0, 3, 0.0, 4), job(5, 2, 1.0, 0)]);
        a.remove(JobId(5), 1);
        let b = view_of(16, 10, vec![job(0, 3, 0.0, 4)]);
        assert_eq!(a, b);
    }
}
