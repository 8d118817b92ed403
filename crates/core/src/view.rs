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
//! Job attributes live in a hot/cold arena (`JobArena`) of *rows*, one
//! per live job: a job takes a row when it is inserted and gives it
//! back when it is removed, and the next insert reuses it, so the view
//! is sized by the jobs live at once, not by the jobs a run has seen.
//! A hash map of the live jobs finds a job's row from its interned
//! [`JobId`]; the row holds the id back. One packed 32-byte hot row per job
//! (`HotJob`: replica bounds, priority, live replicas, last action,
//! liveness flags, id) holds everything the hot policy scans (priority
//! walks, gap checks, footprint sums) and per-action updates touch —
//! one cache line per visited job even when an index's order is
//! random in row space — while the cold columns
//! (`submitted_at`, `walltime_estimate`) stay off the scan path.
//! [`JobState`] is a plain `Copy` value *assembled from* the arena on
//! read; [`JobRef`] is the lazy cursor that loads only the columns a
//! scan touches. Which row a job got is not state: every order below
//! keys on the job's id, never its row, and two views holding the same
//! jobs are equal however their rows are laid out.
//!
//! # Complexity contract
//!
//! The arena rows plus four counters (`free_slots`, `failed_slots`,
//! `deficit`, live/running job counts) are the whole state; every
//! mutation updates them in O(1) and `job(id)` resolves in O(1)
//! (one map lookup).
//!
//! The **ordered indexes are pay-per-use**. Each one — running jobs
//! by descending priority, by last scheduling action and by estimated
//! end; queued jobs by descending priority, by submission and bucketed
//! by minimum footprint — is a pure function of the arena rows, built
//! from them (O(n log n), once) the first time an accessor reads it
//! through `&self` (the two priority orders, which share storage, are
//! built together), and kept current by `insert`/`remove`/
//! [`apply_action`] *from then on*. Which structure holds an order is
//! picked by where its keys land:
//!
//! * **One `BTreeSet`, O(log n) per mutation**, for the keys that land
//!   anywhere: the completion frontier keys on `(estimated end, id)`,
//!   and an end is the action instant plus a per-job estimate.
//! * **Key-ordered, doubly-linked lists (`KeyedList`) through
//!   `[prev, next]` link columns beside the arena**, for the keys that
//!   arrive at an end. The last-action order keys on
//!   `(last_action, id)`, written from the engine's clock, so a start
//!   or a rescale belongs at the tail. Every other list keys on
//!   `(submitted_at, id)`: the FCFS queue, its footprint buckets (one
//!   list per `min_replicas`), and the two priority orders, bucketed
//!   so that inside a bucket only that key is left — running jobs one
//!   list per priority, read in descending priority, and queued jobs
//!   one per `(min_replicas, priority)`, merged by priority. Buckets
//!   share their index's link column (a job sits in at most one of
//!   them), and so do the two priority orders, since a job is running
//!   or queued, never both. An arrival lands at its bucket's tail, a
//!   requeue — keyed at its backoff deadline — at the tail too, an
//!   evicted job, older work started from the head, near the head, and
//!   a start near the tail of its running list (most of what runs was
//!   submitted before it; what was submitted after it and started
//!   first is what it walks past). Leaving a list is an O(1) unlink;
//!   entering it is a search that walks in from the head and the tail
//!   alternately, O(distance to the nearer end) and exact for any key,
//!   plus an O(log buckets) lookup of its bucket.
//!
//! An index no policy of the run ever reads costs nothing: the
//! elastic policy never pays for the FCFS queue, the completion
//! frontier or the footprint buckets, EASY never pays for a priority
//! order — not even under faults, whose victims are ranked by sorting
//! the running jobs once — or (unless a fault needs a victim) the
//! last-action order. There is no switch and no declaration — reading
//! is the declaration ([`ClusterView::counters`] reports which
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
//! The queued priority lane answers Fig. 3's question — *which queued
//! jobs, highest priority first, can the workers left start?* —
//! through [`ClusterView::queued_fitting_by_priority`]: the queued
//! priority buckets whose footprint fits, merged by priority and then
//! submission, each dropped as the workers left fall below its
//! footprint. A queue the leftover cannot start is never walked.
//!
//! The footprint index answers the one question the rigid baselines
//! ask of a deep backlog — *which queued jobs behind the blocked head
//! still fit the free slots?* — through
//! [`ClusterView::queued_fitting`]: a k-way merge over the
//! `min_replicas` buckets that fit, in submission order, dropping
//! buckets as the free slots shrink. A backfill decision therefore
//! costs O(candidates that fit), not O(queue).

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use hpc_metrics::{ColumnBytes, Counter, Counters, Duration, JobId, SimTime};

/// Queue ordering key: submission time, then the interned id. (The
/// estimated-end and last-action indexes share the shape: an instant,
/// then id.) Inside one priority bucket it is also the priority order:
/// higher priority first, then earlier submission (paper §3.2.1), then
/// the interned id — the final tie-breaker that makes
/// equal-`(priority, submitted_at)` jobs order identically in the
/// operator and the simulator (ids are assigned in admission order in
/// both).
type QueueKey = (SimTime, JobId);

/// A key with the row of the job it keys: what a list is built from
/// and the completion frontier (keyed on `(estimated end, id)`) holds,
/// so reading either back needs no lookup. The id decides the order;
/// the row only rides along.
type Keyed = (QueueKey, u32);

/// Each live job's arena row, by id: sized by the jobs live at once, not
/// by every id a run has seen.
type IdMap<V> = HashMap<JobId, V, BuildHasherDefault<IdHasher>>;

/// [`IdMap`]'s hasher: one multiply by 2⁶⁴/φ (Fibonacci hashing). A
/// dense id needs no mixing beyond that — the low bits of the product
/// still walk every bucket as ids count up, and the high bits the map
/// keeps as tags are spread — and it costs a fraction of the default
/// SipHash, which guards against keys an adversary picks.
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(u32::from(b)));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

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

/// A borrowed cursor into one arena row: every accessor is a single
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

    /// Where `self` stands relative to `other` in every priority order:
    /// higher priority first, then earlier submission, then the
    /// interned id. The submission times (a cold-column load each) are
    /// read only to break a priority tie — for a caller that sorts or
    /// merges what the time-ordered scans selected.
    #[inline]
    pub fn cmp_priority(&self, other: &Self) -> Ordering {
        other
            .priority()
            .cmp(&self.priority())
            .then_with(|| self.submitted_at().cmp(&other.submitted_at()))
            .then_with(|| self.id().cmp(&other.id()))
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
        self.arena.hot[self.idx].id
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

/// Arena flag: the row holds a live job (not a free row).
const LIVE: u32 = 1;
/// Arena flag: the job currently holds resources.
const RUNNING: u32 = 1 << 1;

/// The fields every hot policy loop touches (priority walks, gap
/// checks, bound clamps, footprint sums), packed into one 32-byte row
/// so a scan visiting a job in index-random priority order costs a
/// single cache line. The ordered indexes dictate *which* rows a scan
/// visits — index order is not row order — so grouping the hot fields
/// matters more than splitting them into per-field columns would.
#[derive(Debug, Clone, Copy)]
struct HotJob {
    min_replicas: u32,
    max_replicas: u32,
    priority: u32,
    replicas: u32,
    last_action: SimTime,
    /// `LIVE` / `RUNNING` bits; `0` is a free row.
    flags: u32,
    /// The job the row holds (the last one, in a free row).
    id: JobId,
}

/// A hot row is one cache line's half: the id fits the padding.
const _: () = assert!(std::mem::size_of::<HotJob>() == 32);

/// Struct-of-arrays job storage, one row per live job: one packed
/// [`HotJob`] column for the fields scans read, plus cold columns
/// (`submitted_at`, `walltime_estimate`) that only index maintenance
/// and full-snapshot assembly touch. A removed job's row is cleared of
/// its `LIVE` flag and pushed on `free`, which the next insert pops
/// before the columns grow, so they are as long as the most jobs ever
/// live at once.
#[derive(Debug, Clone, Default)]
struct JobArena {
    hot: Vec<HotJob>,
    submitted_at: Vec<SimTime>,
    walltime_estimate: Vec<Option<Duration>>,
    /// Free rows, the last freed on top.
    free: Vec<u32>,
    /// Each live job's row.
    rows: IdMap<u32>,
}

impl JobArena {
    fn len(&self) -> usize {
        self.hot.len()
    }

    /// The row of live job `id`.
    #[inline]
    fn row(&self, id: JobId) -> Option<usize> {
        self.rows.get(&id).map(|&row| row as usize)
    }

    /// A row for `job`, which must not be live: a free one, or a new
    /// one at the end of every column.
    fn take_row(&mut self, job: &JobState) -> usize {
        let hot = HotJob {
            min_replicas: job.min_replicas,
            max_replicas: job.max_replicas,
            priority: job.priority,
            replicas: job.replicas,
            last_action: job.last_action,
            flags: LIVE | if job.running { RUNNING } else { 0 },
            id: job.id,
        };
        let idx = match self.free.pop() {
            Some(row) => {
                let idx = row as usize;
                self.hot[idx] = hot;
                self.submitted_at[idx] = job.submitted_at;
                self.walltime_estimate[idx] = job.walltime_estimate;
                idx
            }
            None => {
                self.hot.push(hot);
                self.submitted_at.push(job.submitted_at);
                self.walltime_estimate.push(job.walltime_estimate);
                self.hot.len() - 1
            }
        };
        let previous = self.rows.insert(job.id, idx as u32);
        assert!(previous.is_none(), "job {} already live", job.id);
        idx
    }

    /// Takes live job `id` out of the row map: its row, which still
    /// holds the job until [`JobArena::free_row`].
    fn forget(&mut self, id: JobId) -> Option<usize> {
        self.rows.remove(&id).map(|row| row as usize)
    }

    /// Frees the row at `idx`, forgotten, for the next insert.
    fn free_row(&mut self, idx: usize) {
        self.hot[idx].flags = 0;
        self.free.push(idx as u32);
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
            id: h.id,
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

    /// Column-level [`JobState::estimated_end`].
    fn estimated_end(&self, idx: usize) -> SimTime {
        match (self.is_running(idx), self.walltime_estimate[idx]) {
            (true, Some(est)) => self.hot[idx].last_action + est,
            _ => SimTime::INFINITY,
        }
    }

    fn end_key(&self, idx: usize) -> Keyed {
        ((self.estimated_end(idx), self.hot[idx].id), idx as u32)
    }

    fn queue_key(&self, row: u32) -> QueueKey {
        (self.submitted_at[row as usize], self.hot[row as usize].id)
    }

    fn action_key(&self, row: u32) -> QueueKey {
        let h = &self.hot[row as usize];
        (h.last_action, h.id)
    }

    fn cursor(&self, row: u32) -> JobRef<'_> {
        JobRef {
            arena: self,
            idx: row as usize,
        }
    }

    /// Live rows in row order.
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

    /// The running jobs' bucket: their priority, highest first.
    fn running_bucket(&self, idx: usize) -> RunningBucket {
        Reverse(self.hot[idx].priority)
    }

    /// The queued jobs' bucket: footprint, then priority, highest first.
    fn queued_bucket(&self, idx: usize) -> QueuedBucket {
        (self.hot[idx].min_replicas, Reverse(self.hot[idx].priority))
    }

    fn priority_orders(&self) -> PriorityIndex {
        let mut links = vec![[NIL; 2]; self.len()];
        let keyed = |i: usize| (self.queue_key(i as u32), i as u32);
        let running = self.running().map(|i| (self.running_bucket(i), keyed(i)));
        let queued = self.queued().map(|i| (self.queued_bucket(i), keyed(i)));
        let ends = PriorityBuckets {
            running: bucketed(&mut links, running.collect()),
            queued: bucketed(&mut links, queued.collect()),
        };
        KeyedList { ends, links }
    }

    fn running_action_order(&self) -> OrderList {
        let keys = self
            .running()
            .map(|i| (self.action_key(i as u32), i as u32));
        OrderList::from_keys(self.len(), keys.collect())
    }

    fn queued_order(&self) -> OrderList {
        let keys = self.queued().map(|i| (self.queue_key(i as u32), i as u32));
        OrderList::from_keys(self.len(), keys.collect())
    }

    fn running_end_order(&self) -> BTreeSet<Keyed> {
        self.running().map(|i| self.end_key(i)).collect()
    }

    fn queued_footprint(&self) -> FootprintIndex {
        let mut links = vec![[NIL; 2]; self.len()];
        let keys = self.queued().map(|i| {
            (
                self.hot[i].min_replicas,
                (self.queue_key(i as u32), i as u32),
            )
        });
        let ends = bucketed(&mut links, keys.collect());
        KeyedList { ends, links }
    }
}

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

/// "No neighbour" in a [`KeyedList`] link.
const NIL: u32 = u32::MAX;
/// The two walk directions: the two halves of a link (`links[id]` is
/// `[prev, next]`) and the two [`Ends`] (a walk along `NEXT` starts at
/// the head, one along `PREV` at the tail).
const PREV: usize = 0;
const NEXT: usize = 1;

/// One list's ends, indexed by the direction a walk from them takes:
/// `[tail, head]`, both `NIL` when the list is empty.
type Ends = [u32; 2];

/// Key-ordered, doubly-linked lists of arena rows threaded through one
/// `[prev, next]` link column indexed by row, beside the arena.
/// `ends` holds one list's [`Ends`] ([`OrderList`]) or one per bucket
/// ([`FootprintIndex`], [`PriorityIndex`]): a job sits in at most one
/// list of a column, so buckets can share it. The keys — an instant,
/// then the id — are read from the arena on demand, never stored.
///
/// Every list the view keeps has keys that arrive at an end (module
/// docs, "Complexity contract"), so O(1) links keep it where a
/// balanced tree would pay O(log n) and an allocation per mutation.
#[derive(Debug, Clone)]
struct KeyedList<E> {
    ends: E,
    /// Meaningful only for the ids currently linked; grown on demand.
    links: Vec<[u32; 2]>,
}

/// A single key-ordered list: the last-action order and the FCFS queue.
type OrderList = KeyedList<Ends>;

/// Lists keyed by bucket, each in `(instant, id)` order through the
/// column they share, in bucket order; an emptied bucket is dropped,
/// so the buckets are a pure function of the rows they hold. A sorted
/// vector, not a tree: buckets are few (one per priority or footprint
/// class), found by binary search, and they come and go all through a
/// replay — a vector keeps its storage where a tree would free and
/// allocate nodes.
type Buckets<K> = Vec<(K, Ends)>;

/// The leading buckets keyed at most `last`.
fn up_to<'a, K: Ord>(buckets: &'a Buckets<K>, last: &K) -> &'a [(K, Ends)] {
    &buckets[..buckets.partition_point(|(bucket, _)| bucket <= last)]
}

/// Queued jobs bucketed by `min_replicas`, submission order inside each
/// bucket.
type FootprintIndex = KeyedList<Buckets<u32>>;

/// A running job's priority bucket: its priority, highest first.
type RunningBucket = Reverse<u32>;

/// A queued job's priority bucket: its `min_replicas`, then its
/// priority, highest first — so the buckets a fit can start lead.
type QueuedBucket = (u32, Reverse<u32>);

/// The two priority orders, bucketed so that only `(submitted_at, id)`
/// orders a bucket: the running buckets are read in descending
/// priority, the queued ones merged by it. A job is running or queued,
/// never both, so the two share one link column.
#[derive(Debug, Clone)]
struct PriorityBuckets {
    running: Buckets<RunningBucket>,
    queued: Buckets<QueuedBucket>,
}

/// Running jobs by priority and queued jobs by priority and footprint.
type PriorityIndex = KeyedList<PriorityBuckets>;

/// Where the link leaving `from` along `dir` lives: `from`'s own half
/// link, or — from outside the list (`NIL`) — the end a walk along
/// `dir` starts at.
fn link_of<'a>(
    links: &'a mut [[u32; 2]],
    ends: &'a mut Ends,
    from: u32,
    dir: usize,
) -> &'a mut u32 {
    match from {
        NIL => &mut ends[dir],
        _ => &mut links[from as usize][dir],
    }
}

/// Links `id` in right after `prev` (`NIL`: at the head).
fn link_after(links: &mut [[u32; 2]], ends: &mut Ends, prev: u32, id: u32) {
    let next = std::mem::replace(link_of(links, ends, prev, NEXT), id);
    *link_of(links, ends, next, PREV) = id;
    links[id as usize] = [prev, next];
}

/// Links row `id` in at its `key` position, walking in from the tail
/// and the head alternately: O(distance to the nearer end), exact for
/// any key. The keys are unique (they end in the job's id), so the
/// walk from the tail stops at the first smaller key and the one from
/// the head at the first larger; after `k` steps both have passed `k`
/// jobs, so the tail walk reaches a smaller key before the head walk
/// could run off the list.
fn link_sorted(links: &mut Vec<[u32; 2]>, ends: &mut Ends, id: u32, key: impl Fn(u32) -> QueueKey) {
    if id as usize >= links.len() {
        links.resize(id as usize + 1, [NIL; 2]);
    }
    let at = key(id);
    let [mut back, mut front] = *ends;
    let prev = loop {
        if back == NIL || key(back) < at {
            break back;
        }
        if key(front) > at {
            break links[front as usize][PREV];
        }
        #[cfg(test)]
        SEARCH_STEPS.with(|steps| steps.set(steps.get() + 1));
        back = links[back as usize][PREV];
        front = links[front as usize][NEXT];
    };
    link_after(links, ends, prev, id);
}

/// Unlinks `id`, which must be linked in the list `ends` bounds.
fn unlink(links: &mut [[u32; 2]], ends: &mut Ends, id: u32) {
    let [prev, next] = links[id as usize];
    let was_next = std::mem::replace(link_of(links, ends, prev, NEXT), next);
    let was_prev = std::mem::replace(link_of(links, ends, next, PREV), prev);
    debug_assert_eq!(
        [was_next, was_prev],
        [id; 2],
        "linked list out of step with the arena"
    );
}

/// The linked ids of the list `ends` bounds, head first — or tail
/// first, `.rev()`.
fn walk(links: &[[u32; 2]], ends: Ends) -> Walk<'_> {
    Walk { links, ends }
}

/// [`walk`]'s iterator: a list read from both ends at once, the two
/// walks stopping where they meet.
struct Walk<'a> {
    links: &'a [[u32; 2]],
    /// The stretch not yielded yet, as the list's [`Ends`].
    ends: Ends,
}

impl Walk<'_> {
    /// Yields the end a walk along `dir` starts at and moves it on.
    #[inline]
    fn step(&mut self, dir: usize) -> Option<u32> {
        let id = self.ends[dir];
        if id == NIL {
            return None;
        }
        if id == self.ends[dir ^ 1] {
            self.ends = [NIL; 2];
        } else {
            self.ends[dir] = self.links[id as usize][dir];
        }
        Some(id)
    }
}

impl Iterator for Walk<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        self.step(NEXT)
    }
}

impl DoubleEndedIterator for Walk<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<u32> {
        self.step(PREV)
    }
}

/// The linked ids from `from` along the `dir` links, up to the first
/// `NIL`.
fn chain(links: &[[u32; 2]], from: u32, dir: usize) -> impl Iterator<Item = u32> + '_ {
    let linked = |id: u32| (id != NIL).then_some(id);
    std::iter::successors(linked(from), move |&id| linked(links[id as usize][dir]))
}

/// The same ids in the same order, read both ways round — so a
/// maintained list held to its from-scratch definition has its `prev`
/// links checked along with the `next` links every reader follows.
/// Each walk follows links until `NIL`, not until the other end: the
/// end links are read as the list's edge ([`FittingCursor`] ends a
/// lane at a `NIL` `next`, [`link_sorted`] and [`unlink`] write
/// through them), so a stale one must fail the check.
fn same_walks(links: &[[u32; 2]], ends: &Ends, other: &[[u32; 2]], other_ends: &Ends) -> bool {
    [NEXT, PREV]
        .into_iter()
        .all(|dir| chain(links, ends[dir], dir).eq(chain(other, other_ends[dir], dir)))
}

/// The same buckets, each holding the same ids in the same order read
/// both ways round.
fn same_buckets<K: Ord>(
    links: &[[u32; 2]],
    buckets: &Buckets<K>,
    other: &[[u32; 2]],
    other_buckets: &Buckets<K>,
) -> bool {
    buckets.len() == other_buckets.len()
        && buckets
            .iter()
            .zip(other_buckets)
            .all(|((a, ends), (b, other_ends))| {
                a == b && same_walks(links, ends, other, other_ends)
            })
}

/// The buckets of the rows in `keys` (`(bucket, keyed row)` pairs),
/// each a list in key order linked through `links`.
fn bucketed<K: Ord>(links: &mut [[u32; 2]], mut keys: Vec<(K, Keyed)>) -> Buckets<K> {
    keys.sort_unstable();
    let mut buckets: Buckets<K> = Vec::new();
    for (bucket, (_, id)) in keys {
        if buckets.last().is_none_or(|(last, _)| *last != bucket) {
            buckets.push((bucket, [NIL; 2]));
        }
        let (_, ends) = buckets.last_mut().expect("a bucket was just pushed");
        let tail = ends[PREV];
        link_after(links, ends, tail, id);
    }
    buckets
}

/// Bucket upkeep is one call either way round: `enter` links `id` into
/// `bucket` at its `key` position, opening the bucket if it is new;
/// otherwise it is unlinked, and a bucket that emptied is dropped.
fn toggle_bucketed<K: Ord>(
    buckets: &mut Buckets<K>,
    links: &mut Vec<[u32; 2]>,
    bucket: K,
    id: u32,
    key: impl Fn(u32) -> QueueKey,
    enter: bool,
) {
    let found = buckets.binary_search_by(|(other, _)| other.cmp(&bucket));
    match (found, enter) {
        (Ok(at), true) => link_sorted(links, &mut buckets[at].1, id, key),
        (Err(at), true) => {
            buckets.insert(at, (bucket, [NIL; 2]));
            link_sorted(links, &mut buckets[at].1, id, key);
        }
        (Ok(at), false) => {
            unlink(links, &mut buckets[at].1, id);
            if buckets[at].1[NEXT] == NIL {
                buckets.remove(at);
            }
        }
        (Err(_), false) => panic!("bucket out of step with the arena"),
    }
}

#[cfg(test)]
thread_local! {
    /// Search steps [`link_sorted`] has taken on this thread: the list
    /// traffic the unit tests bound.
    pub(crate) static SEARCH_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl OrderList {
    /// The list of the rows in `keys`, in key order.
    fn from_keys(len: usize, mut keys: Vec<Keyed>) -> Self {
        keys.sort_unstable();
        let mut list = KeyedList {
            ends: [NIL; 2],
            links: vec![[NIL; 2]; len],
        };
        for (_, id) in keys {
            let tail = list.ends[PREV];
            link_after(&mut list.links, &mut list.ends, tail, id);
        }
        list
    }

    fn insert(&mut self, id: u32, key: impl Fn(u32) -> QueueKey) {
        link_sorted(&mut self.links, &mut self.ends, id, key);
    }

    fn unlink(&mut self, id: u32) {
        unlink(&mut self.links, &mut self.ends, id);
    }

    /// The linked ids, head first.
    fn iter(&self) -> Walk<'_> {
        walk(&self.links, self.ends)
    }
}

impl PartialEq for OrderList {
    fn eq(&self, other: &Self) -> bool {
        same_walks(&self.links, &self.ends, &other.links, &other.ends)
    }
}

impl PartialEq for FootprintIndex {
    fn eq(&self, other: &Self) -> bool {
        same_buckets(&self.links, &self.ends, &other.links, &other.ends)
    }
}

impl PartialEq for PriorityIndex {
    fn eq(&self, other: &Self) -> bool {
        let (ours, theirs) = (&self.ends, &other.ends);
        same_buckets(&self.links, &ours.running, &other.links, &theirs.running)
            && same_buckets(&self.links, &ours.queued, &other.links, &theirs.queued)
    }
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
    /// Columnar job storage, one row per live job.
    arena: JobArena,
    live: usize,
    running: usize,
    // The pay-per-use ordered indexes: unset until first read, then
    // maintained by every mutation (module docs, "Complexity contract").
    /// Both priority orders, bucketed: built together, since their
    /// lists share one link column.
    priority_orders: OnceLock<PriorityIndex>,
    /// Running jobs by `(last_action, id)`: the jobs past any rescale
    /// gap are a prefix of it.
    running_action_order: OnceLock<OrderList>,
    /// Queued jobs by `(submitted_at, id)`: the FCFS queue.
    queued_order: OnceLock<OrderList>,
    /// Running jobs by estimated completion — the frontier EASY-style
    /// reservations walk. Jobs without an estimate key at `INFINITY`.
    running_end_order: OnceLock<BTreeSet<Keyed>>,
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
            priority_orders: OnceLock::new(),
            running_action_order: OnceLock::new(),
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
    /// paying their upkeep on every mutation: 1 in each `…Built`
    /// [`Counter`] of one that has. Introspection for cost tests — a
    /// policy never needs it.
    pub fn counters(&self) -> Counters {
        use Counter::*;
        fn built<T>(index: &OnceLock<T>) -> u64 {
            index.get().is_some().into()
        }
        let mut counters = Counters::default();
        counters.add(PriorityOrdersBuilt, built(&self.priority_orders));
        counters.add(RunningActionOrderBuilt, built(&self.running_action_order));
        counters.add(QueuedOrderBuilt, built(&self.queued_order));
        counters.add(RunningEndOrderBuilt, built(&self.running_end_order));
        counters.add(QueuedFootprintBuilt, built(&self.queued_footprint));
        counters
    }

    /// The bytes of each column the view holds: the arena's, and the
    /// link columns and frontier of each index built so far.
    pub(crate) fn column_bytes(&self) -> Vec<ColumnBytes> {
        let a = &self.arena;
        let mut columns = vec![
            ColumnBytes::of_vec("view hot rows", &a.hot),
            ColumnBytes::of_vec("view submission instants", &a.submitted_at),
            ColumnBytes::of_vec("view walltime estimates", &a.walltime_estimate),
            ColumnBytes::of_vec("view free rows", &a.free),
            ColumnBytes::of_map("view row map", &a.rows),
        ];
        let lists = [
            (
                "view priority links",
                self.priority_orders.get().map(|l| &l.links),
            ),
            (
                "view last-action links",
                self.running_action_order.get().map(|l| &l.links),
            ),
            (
                "view queue links",
                self.queued_order.get().map(|l| &l.links),
            ),
            (
                "view footprint links",
                self.queued_footprint.get().map(|l| &l.links),
            ),
        ];
        for (column, links) in lists {
            columns.extend(links.map(|links| ColumnBytes::of_vec(column, links)));
        }
        if let Some(frontier) = self.running_end_order.get() {
            let column = "view completion frontier";
            columns.push(ColumnBytes::of_elements::<Keyed>(column, frontier.len()));
        }
        columns
    }

    /// Index upkeep for the job at `idx` joining (`enter`) or leaving
    /// the running set. Like its sibling below it reads the job's keys
    /// from the arena row, so it runs while the row holds the state
    /// being indexed: after the write when entering, before it when
    /// leaving.
    fn index_running(&mut self, idx: usize, enter: bool) {
        let (arena, id) = (&self.arena, idx as u32);
        let key = |id: u32| arena.queue_key(id);
        if let Some(index) = self.priority_orders.get_mut() {
            let (buckets, links) = (&mut index.ends.running, &mut index.links);
            toggle_bucketed(buckets, links, arena.running_bucket(idx), id, key, enter);
        }
        if let Some(list) = self.running_action_order.get_mut() {
            if enter {
                list.insert(id, |id| arena.action_key(id));
            } else {
                list.unlink(id);
            }
        }
        if let Some(index) = self.running_end_order.get_mut() {
            toggle(index, arena.end_key(idx), enter);
        }
        if enter {
            self.running += 1;
        } else {
            self.running -= 1;
        }
    }

    /// Index upkeep for the job at `idx` joining or leaving the queue.
    fn index_queued(&mut self, idx: usize, enter: bool) {
        let (arena, id) = (&self.arena, idx as u32);
        let key = |id: u32| arena.queue_key(id);
        if let Some(index) = self.priority_orders.get_mut() {
            let (buckets, links) = (&mut index.ends.queued, &mut index.links);
            toggle_bucketed(buckets, links, arena.queued_bucket(idx), id, key, enter);
        }
        if let Some(list) = self.queued_order.get_mut() {
            if enter {
                list.insert(id, key);
            } else {
                list.unlink(id);
            }
        }
        if let Some(index) = self.queued_footprint.get_mut() {
            let min = arena.hot[idx].min_replicas;
            toggle_bucketed(&mut index.ends, &mut index.links, min, id, key, enter);
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
            let arena = &self.arena;
            list.unlink(idx as u32);
            list.insert(idx as u32, |id| arena.action_key(id));
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
        self.arena.row(id).map(|idx| self.arena.get(idx))
    }

    /// Adds a job to the view. A running job debits
    /// `replicas + launcher_slots` from the free counter; a queued job
    /// holds nothing.
    ///
    /// Panics if the id is already live or a running insert exceeds the
    /// free slots.
    pub fn insert(&mut self, job: JobState, launcher_slots: u32) {
        let idx = self.arena.take_row(&job);
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
        self.live += 1;
        if job.running {
            self.index_running(idx, true);
        } else {
            self.index_queued(idx, true);
        }
    }

    /// Removes a job (completion or cancellation), crediting
    /// `replicas + launcher_slots` back if it was running, and frees
    /// its row. Returns the removed state, or `None` if the id is not
    /// live.
    pub fn remove(&mut self, id: JobId, launcher_slots: u32) -> Option<JobState> {
        let idx = self.arena.forget(id)?;
        let job = self.arena.get(idx);
        self.live -= 1;
        if job.running {
            self.index_running(idx, false);
            self.credit_slots(job.replicas + launcher_slots);
        } else {
            self.index_queued(idx, false);
        }
        self.arena.free_row(idx);
        Some(job)
    }

    /// Live jobs in id (= admission) order. O(live · log live): the
    /// rows are sorted by id, for the callers that want every job.
    pub fn jobs(&self) -> impl Iterator<Item = JobState> + '_ {
        let mut rows: Vec<usize> = self.arena.live().collect();
        rows.sort_unstable_by_key(|&i| self.arena.hot[i].id);
        rows.into_iter().map(|i| self.arena.get(i))
    }

    /// Live jobs in no particular order, allocating nothing: for a
    /// reader that sums or checks them.
    pub(crate) fn jobs_unordered(&self) -> impl Iterator<Item = JobState> + '_ {
        self.arena.live().map(|i| self.arena.get(i))
    }

    fn priority_orders(&self) -> &PriorityIndex {
        self.priority_orders
            .get_or_init(|| self.arena.priority_orders())
    }

    /// Running jobs in *decreasing* priority order (the paper's
    /// `runningJobs` list), each a [`JobRef`] reading columns on
    /// demand: the priority buckets in turn, each in submission order.
    /// O(k + priorities) off the index (built on first read), no sort.
    pub fn running_scan(&self) -> impl DoubleEndedIterator<Item = JobRef<'_>> {
        let index = self.priority_orders();
        let ids = index.ends.running.iter();
        ids.flat_map(move |&(_, ends)| walk(&index.links, ends))
            .map(|row| self.arena.cursor(row))
    }

    /// Running jobs by increasing `last_action` (id-tie-broken): the
    /// elastic policy's gap cursor. `now − last_action` only falls
    /// along this order, so the jobs a rescale gap lets a decision
    /// touch are exactly the rows before the first one still inside it
    /// — `take_while` that predicate and the blocked rest of the
    /// cluster is never visited.
    pub fn running_by_last_action(&self) -> impl Iterator<Item = JobRef<'_>> {
        self.running_action_order
            .get_or_init(|| self.arena.running_action_order())
            .iter()
            .map(|row| self.arena.cursor(row))
    }

    /// The queued jobs whose `min_replicas` is at most `fit`, in
    /// *decreasing* priority order (earlier submission, then id, first
    /// among equals): the queued lane the elastic policy merges with
    /// the running jobs it may touch — the queued half of the paper's
    /// `allJobs` list (Fig. 3). `fit = u32::MAX` reads every queued job
    /// in that order. A k-way merge by priority over the `(min_replicas,
    /// priority)` buckets whose minimum is `≤ fit`; call
    /// [`FittingCursor::shrink_to`] as workers are handed out and the
    /// buckets that stopped fitting drop out of the merge. A queued job
    /// the fit rules out is never visited, so a walk costs O(buckets ×
    /// jobs yielded), not O(queue), and one whose fit starts nothing
    /// ends at once.
    pub fn queued_fitting_by_priority(&self, fit: u32) -> FittingCursor<'_> {
        let index = self.priority_orders();
        let arena = &self.arena;
        let lanes = up_to(&index.ends.queued, &(fit, Reverse(0)))
            .iter()
            .map(|&((min_replicas, priority), ends)| Lane {
                priority,
                next: arena.queue_key(ends[NEXT]),
                row: ends[NEXT],
                min_replicas,
            })
            .collect();
        FittingCursor::new(arena, &index.links, lanes)
    }

    /// Queued jobs in submission order (earliest first, id-tie-broken)
    /// — the FCFS queue, each a [`JobRef`]: the rigid baselines' head
    /// walk, which stops at the first job that does not fit. O(k), no
    /// sort.
    pub fn queued_scan(&self) -> impl Iterator<Item = JobRef<'_>> {
        self.queued_order
            .get_or_init(|| self.arena.queued_order())
            .iter()
            .map(|row| self.arena.cursor(row))
    }

    /// Queued jobs *behind* `head` in submission order whose
    /// `min_replicas` is at most `fit`, in submission order: the
    /// backfill candidates that can still start. A k-way merge over
    /// the footprint buckets `≤ fit`, so a deep backlog of jobs too
    /// large for the free slots is never visited; call
    /// [`FittingCursor::shrink_to`] as slots are handed out and the
    /// buckets that stopped fitting drop out of the merge. Each lane
    /// starts at its bucket's first job keyed after `head`, found by a
    /// walk from the bucket's front — one step for the queue head,
    /// which is what the backfill policies pass.
    ///
    /// Panics if `head` is not live.
    pub fn queued_fitting(&self, head: JobId, fit: u32) -> FittingCursor<'_> {
        let idx = (self.arena.row(head))
            .unwrap_or_else(|| panic!("fitting cursor behind unknown {head}"));
        let arena = &self.arena;
        let after = arena.queue_key(idx as u32);
        let buckets = self
            .queued_footprint
            .get_or_init(|| arena.queued_footprint());
        let lanes = up_to(&buckets.ends, &fit)
            .iter()
            .filter_map(|&(min_replicas, ends)| {
                let (next, row) = walk(&buckets.links, ends)
                    .map(|row| (arena.queue_key(row), row))
                    .find(|&(key, _)| key > after)?;
                Some(Lane {
                    priority: Reverse(0),
                    next,
                    row,
                    min_replicas,
                })
            })
            .collect();
        FittingCursor::new(arena, &buckets.links, lanes)
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
            .map(|&(_, row)| self.arena.get(row as usize))
    }
}

/// One bucket inside a [`FittingCursor`]'s merge: its priority
/// (one constant for the submission-order cursor) and the key and row
/// of the job it yields next.
struct Lane {
    priority: Reverse<u32>,
    next: QueueKey,
    row: u32,
    min_replicas: u32,
}

/// The cursor [`ClusterView::queued_fitting`] and
/// [`ClusterView::queued_fitting_by_priority`] return: yields fitting
/// queued jobs in submission order — by priority first, for the
/// latter — one step each, O(the buckets of the top priority left).
pub struct FittingCursor<'a> {
    arena: &'a JobArena,
    /// The buckets' shared link column.
    links: &'a [[u32; 2]],
    /// The buckets still fitting that have a job left to yield, highest
    /// priority first: the next job is in one of the leading lanes that
    /// share the top priority.
    lanes: Vec<Lane>,
}

impl<'a> FittingCursor<'a> {
    fn new(arena: &'a JobArena, links: &'a [[u32; 2]], mut lanes: Vec<Lane>) -> Self {
        lanes.sort_unstable_by_key(|lane| lane.priority);
        FittingCursor {
            arena,
            links,
            lanes,
        }
    }

    /// Tightens the fit: jobs with `min_replicas > fit` are no longer
    /// yielded. The fit only ever shrinks — a dropped bucket never
    /// comes back.
    #[inline]
    pub fn shrink_to(&mut self, fit: u32) {
        self.lanes.retain(|lane| lane.min_replicas <= fit);
    }

    /// The job [`Iterator::next`] yields next, without moving past it.
    #[inline]
    pub(crate) fn peek(&self) -> Option<JobRef<'a>> {
        Some(self.arena.cursor(self.lanes[self.head()?].row))
    }

    /// The lane holding the next job: the least key among the lanes of
    /// the top priority.
    #[inline]
    fn head(&self) -> Option<usize> {
        let top = self.lanes.first()?;
        let mut at = 0;
        for (i, lane) in self.lanes.iter().enumerate().skip(1) {
            if lane.priority != top.priority {
                break;
            }
            if lane.next < self.lanes[at].next {
                at = i;
            }
        }
        Some(at)
    }
}

impl<'a> Iterator for FittingCursor<'a> {
    type Item = JobRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<JobRef<'a>> {
        let at = self.head()?;
        let lane = &mut self.lanes[at];
        let row = lane.row;
        match self.links[row as usize][NEXT] {
            NIL => {
                self.lanes.remove(at);
            }
            after => (lane.next, lane.row) = (self.arena.queue_key(after), after),
        }
        Some(self.arena.cursor(row))
    }
}

/// Two views are equal when they describe the same schedulable state:
/// same capacity and slot counters, and the same live jobs field for
/// field, compared in id order — which row holds a job is not state.
/// Nor is which ordered indexes happen to be built — each is a pure
/// function of the job rows — but a built one must *be* that function
/// of its rows, and equality checks it (the incremental-vs-rebuilt
/// property test leans on this).
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
            && current(&self.priority_orders, || arena.priority_orders())
            && current(&self.running_action_order, || arena.running_action_order())
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
/// index — O(log n) for a `BTreeSet`; for a linked list an O(1)
/// unlink, or a link whose search is O(distance to the nearer end),
/// O(1) for a key that arrives at an end (module docs, "Complexity
/// contract") — never a rebuild.
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
            let idx =
                (view.arena.row(job)).unwrap_or_else(|| panic!("create for unknown job {job}"));
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
            let idx =
                (view.arena.row(job)).unwrap_or_else(|| panic!("expand for unknown job {job}"));
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
            let idx =
                (view.arena.row(job)).unwrap_or_else(|| panic!("shrink for unknown job {job}"));
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
            let idx =
                (view.arena.row(job)).unwrap_or_else(|| panic!("evict for unknown job {job}"));
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
            let idx =
                (view.arena.row(job)).unwrap_or_else(|| panic!("requeue for unknown job {job}"));
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
        assert_eq!(view.counters(), Counters::default());
        assert_eq!(view.running_count(), 1, "a counter, not an index read");
        assert_eq!(view.queued_scan().count(), 1);
        assert_eq!(view.queued_fitting(JobId(1), 64).count(), 0);
        let mut queue_lists = Counters::default();
        queue_lists.add(Counter::QueuedOrderBuilt, 1);
        queue_lists.add(Counter::QueuedFootprintBuilt, 1);
        assert_eq!(view.counters(), queue_lists);
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
        assert_eq!(view.counters()[Counter::PriorityOrdersBuilt], 0);
        assert_eq!(view.running_scan().count(), 2, "built now, from the arena");
        // A clone carries what was built; equality ignores it.
        let fresh = view_of(64, 35, view.jobs().collect());
        assert_eq!(fresh.counters(), Counters::default());
        assert_eq!(view, fresh);
        assert_eq!(view.clone().counters(), view.counters());
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
        let order: Vec<JobId> = view.running_scan().map(|j| j.id()).collect();
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
        let order: Vec<JobId> = view.running_scan().map(|j| j.id()).collect();
        assert_eq!(order, vec![JobId(0), JobId(1), JobId(2)]);
    }

    #[test]
    fn queued_jobs_order_by_priority_and_by_submission() {
        let view = view_of(
            64,
            60,
            vec![job(0, 1, 0.0, 4), job(1, 5, 1.0, 0), job(2, 2, 0.5, 0)],
        );
        let order: Vec<JobId> = view
            .queued_fitting_by_priority(u32::MAX)
            .map(|j| j.id())
            .collect();
        assert_eq!(order, vec![JobId(1), JobId(2)]);
        assert_eq!(view.running_scan().count(), 1);
        assert_eq!(view.running_count(), 1);
        // FCFS order ignores priority entirely.
        let fcfs: Vec<JobId> = view.queued_scan().map(|j| j.id()).collect();
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
        assert_eq!(view.queued_scan().count(), 0);

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
        assert_eq!(view.queued_fitting_by_priority(u32::MAX).count(), 0);
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
        assert_eq!(v.counters()[Counter::RunningActionOrderBuilt], 1);
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
        assert_eq!(unread.counters()[Counter::RunningActionOrderBuilt], 0);
        assert_eq!(last_action_ids(&unread), last_action_ids(&maintained));
        assert_eq!(unread, maintained);
    }

    fn queue_ids(v: &ClusterView) -> Vec<u32> {
        v.queued_scan().map(|j| j.id().0).collect()
    }

    fn fitting_ids(v: &ClusterView, head: u32, fit: u32) -> Vec<u32> {
        v.queued_fitting(JobId(head), fit)
            .map(|j| j.id().0)
            .collect()
    }

    /// A queued job with footprint `min`.
    fn q(id: u32, submitted: f64, min: u32) -> JobState {
        JobState {
            min_replicas: min,
            ..job(id, 3, submitted, 0)
        }
    }

    /// Reads (so builds) the FCFS queue and the footprint buckets.
    fn read_queue_lists(v: &ClusterView) {
        let head = v.queued_scan().next().expect("a queued job").id();
        v.queued_fitting(head, v.capacity()).count();
        let built = v.counters();
        assert_eq!(built[Counter::QueuedOrderBuilt], 1);
        assert_eq!(built[Counter::QueuedFootprintBuilt], 1);
    }

    /// Holds `v` equal to a from-scratch view of its jobs, which checks
    /// every built list walked both ways against its definition.
    fn assert_lists_current(v: &ClusterView) {
        assert_eq!(
            *v,
            view_of(v.capacity(), v.free_slots(), v.jobs().collect())
        );
    }

    #[test]
    fn an_evicted_job_reenters_the_queue_ahead_of_later_arrivals() {
        let mut view = view_of(
            64,
            64,
            (0..6)
                .map(|id| q(id, f64::from(id), 2 + id % 2 * 2))
                .collect(),
        );
        read_queue_lists(&view);
        let at = SimTime::from_secs(10.0);
        for job in [0, 3] {
            apply_action(
                &mut view,
                &Action::Create {
                    job: JobId(job),
                    replicas: 4,
                },
                at,
                1,
            );
        }
        view.insert(q(6, 10.0, 2), 1);
        view.insert(q(7, 11.0, 4), 1);
        assert_eq!(queue_ids(&view), [1, 2, 4, 5, 6, 7]);
        // Job 3 was backfilled from behind the head: it lands mid-queue.
        let later = SimTime::from_secs(12.0);
        apply_action(&mut view, &Action::Evict { job: JobId(3) }, later, 1);
        assert_eq!(queue_ids(&view), [1, 2, 3, 4, 5, 6, 7]);
        // Job 0 was the head: it lands at the head again.
        apply_action(&mut view, &Action::Evict { job: JobId(0) }, later, 1);
        assert_eq!(queue_ids(&view), [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(fitting_ids(&view, 0, 2), [2, 4, 6]);
        assert_eq!(fitting_ids(&view, 0, 4), [1, 2, 3, 4, 5, 6, 7]);
        assert_lists_current(&view);
    }

    #[test]
    fn a_requeued_job_enters_at_its_back_at() {
        let mut view = view_of(64, 64, vec![q(0, 5.0, 2)]);
        for (id, at) in [(1, 0.0), (2, 10.0), (3, 20.0), (4, 30.0)] {
            view.insert(q(id, at, 2), 1);
        }
        read_queue_lists(&view);
        let start = Action::Create {
            job: JobId(0),
            replicas: 2,
        };
        apply_action(&mut view, &start, SimTime::from_secs(6.0), 1);
        apply_action(
            &mut view,
            &Action::Requeue { job: JobId(0) },
            SimTime::from_secs(12.0),
            1,
        );
        assert_eq!(queue_ids(&view), [1, 2, 3, 4]);
        // The engine re-inserts it at its backoff deadline, 25 s:
        // behind the jobs submitted before that, ahead of the rest.
        view.insert(q(0, 25.0, 2), 1);
        view.insert(q(5, 40.0, 2), 1);
        assert_eq!(queue_ids(&view), [1, 2, 3, 0, 4, 5]);
        assert_eq!(fitting_ids(&view, 1, 2), [2, 3, 0, 4, 5]);
        assert_lists_current(&view);
    }

    #[test]
    fn same_instant_queue_entries_are_ordered_by_id() {
        let mut view = view_of(64, 64, vec![q(0, 1.0, 2), q(9, 9.0, 2)]);
        read_queue_lists(&view);
        for id in [5, 3, 7, 4] {
            view.insert(q(id, 7.0, 2), 1);
        }
        assert_eq!(queue_ids(&view), [0, 3, 4, 5, 7, 9]);
        assert_eq!(fitting_ids(&view, 0, 2), [3, 4, 5, 7, 9]);
        assert_lists_current(&view);
    }

    #[test]
    fn a_fitting_lane_behind_a_non_head_job_starts_after_it_in_every_bucket() {
        let jobs = (0..9).map(|id| q(id, f64::from(id / 2), [2, 4, 8][id as usize % 3]));
        let mut view = view_of(64, 64, jobs.collect());
        read_queue_lists(&view);
        // Submission order: 0 1 | 2 3 | 4 5 | 6 7 | 8, buckets by id % 3.
        assert_eq!(fitting_ids(&view, 0, 8), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(fitting_ids(&view, 4, 8), [5, 6, 7, 8]);
        assert_eq!(fitting_ids(&view, 4, 4), [6, 7]);
        // Behind a job that sits in no fitting bucket: the lanes start
        // at its key all the same.
        assert_eq!(fitting_ids(&view, 5, 2), [6]);
        // Behind a running job, whose key is still its submission.
        let start = Action::Create {
            job: JobId(3),
            replicas: 8,
        };
        apply_action(&mut view, &start, SimTime::from_secs(9.0), 1);
        assert_eq!(fitting_ids(&view, 3, 4), [4, 6, 7]);
        // The last bucket member: its lane is empty.
        assert_eq!(fitting_ids(&view, 8, 8), [0u32; 0]);
        assert_lists_current(&view);
    }

    #[test]
    fn view_equality_walks_every_list_both_ways() {
        let mut view = view_of(64, 64, (0..5).map(|id| q(id, f64::from(id), 2)).collect());
        read_queue_lists(&view);
        last_action_ids(&view);
        let start = Action::Create {
            job: JobId(4),
            replicas: 2,
        };
        apply_action(&mut view, &start, SimTime::from_secs(5.0), 1);
        let fresh = view_of(64, view.free_slots(), view.jobs().collect());
        assert_eq!(view, fresh);
        // A `prev` link no reader follows forwards, broken in each list
        // in turn: the backward walk sees it.
        let corrupt = |break_list: fn(&mut ClusterView)| {
            let mut broken = view.clone();
            break_list(&mut broken);
            assert_eq!(queue_ids(&broken), queue_ids(&view), "forward walk intact");
            assert_ne!(broken, fresh);
        };
        corrupt(|v| v.queued_order.get_mut().unwrap().links[3][PREV] = NIL);
        corrupt(|v| v.queued_footprint.get_mut().unwrap().links[3][PREV] = 1);
        corrupt(|v| v.running_action_order.get_mut().unwrap().ends[PREV] = NIL);
        view.running_scan().count();
        corrupt(|v| v.priority_orders.get_mut().unwrap().links[3][PREV] = NIL);
        // A stale link out of either end of a list, which a walk that
        // stops at the other end would never read: a tail's `next`, a
        // head's `prev` (job 4 has left the queue; queue 0..=3, job 4
        // alone in its running list).
        corrupt(|v| v.queued_order.get_mut().unwrap().links[3][NEXT] = 4);
        corrupt(|v| v.queued_footprint.get_mut().unwrap().links[0][PREV] = 4);
        corrupt(|v| v.priority_orders.get_mut().unwrap().links[4][NEXT] = 2);
        corrupt(|v| v.priority_orders.get_mut().unwrap().links[4][PREV] = 0);
    }

    fn ids<'a>(jobs: impl Iterator<Item = JobRef<'a>>) -> Vec<u32> {
        jobs.map(|j| j.id().0).collect()
    }

    /// The buckets the priority index holds: running priorities and
    /// queued `(min_replicas, priority)` pairs.
    fn priority_buckets(v: &ClusterView) -> (Vec<u32>, Vec<(u32, u32)>) {
        let buckets = &v.priority_orders.get().expect("read").ends;
        (
            buckets.running.iter().map(|(p, _)| p.0).collect(),
            buckets
                .queued
                .iter()
                .map(|&((min, p), _)| (min, p.0))
                .collect(),
        )
    }

    #[test]
    fn priority_buckets_share_one_column_as_jobs_start_and_leave() {
        let pq = |id: u32, prio: u32, submitted: f64, min: u32| JobState {
            min_replicas: min,
            ..job(id, prio, submitted, 0)
        };
        let mut view = view_of(
            64,
            20,
            vec![
                job(0, 3, 5.0, 4),
                job(1, 5, 9.0, 4),
                job(2, 3, 1.0, 4),
                pq(3, 3, 0.0, 2),
                pq(4, 5, 2.0, 4),
                pq(5, 3, 3.0, 4),
                pq(6, 3, 4.0, 2),
            ],
        );
        assert_eq!(ids(view.running_scan()), [1, 2, 0]);
        assert_eq!(ids(view.running_scan().rev()), [0, 2, 1]);
        // Read from both ends at once, the walks meet and stop.
        let mut both = view.running_scan().map(|j| j.id().0);
        let ends = [both.next(), both.next_back(), both.next(), both.next()];
        assert_eq!(ends, [Some(1), Some(0), Some(2), None]);
        drop(both);
        assert_eq!(ids(view.queued_fitting_by_priority(u32::MAX)), [4, 3, 5, 6]);
        assert_eq!(
            priority_buckets(&view),
            (vec![5, 3], vec![(2, 3), (4, 5), (4, 3)])
        );
        // A start leaves its queued bucket (the last job of one drops
        // it) and enters its priority's running list, in submission
        // order, through the same link slot.
        let at = SimTime::from_secs(10.0);
        let start = |job| Action::Create {
            job: JobId(job),
            replicas: 4,
        };
        apply_action(&mut view, &start(4), at, 1);
        apply_action(&mut view, &start(5), at, 1);
        assert_eq!(ids(view.running_scan()), [4, 1, 2, 5, 0]);
        assert_eq!(ids(view.queued_fitting_by_priority(u32::MAX)), [3, 6]);
        assert_eq!(priority_buckets(&view), (vec![5, 3], vec![(2, 3)]));
        // An eviction goes back the other way; a completion empties
        // and drops a running bucket.
        apply_action(&mut view, &Action::Evict { job: JobId(2) }, at, 1);
        view.remove(JobId(4), 1);
        view.remove(JobId(1), 1);
        assert_eq!(ids(view.running_scan()), [5, 0]);
        assert_eq!(ids(view.queued_fitting_by_priority(u32::MAX)), [3, 2, 6]);
        assert_eq!(priority_buckets(&view), (vec![3], vec![(2, 3)]));
        assert_lists_current(&view);
    }

    #[test]
    fn the_priority_lane_merges_the_fitting_buckets_and_drops_what_stops_fitting() {
        let pq = |id: u32, prio: u32, submitted: f64, min: u32| JobState {
            min_replicas: min,
            ..job(id, prio, submitted, 0)
        };
        let view = view_of(
            64,
            64,
            vec![
                pq(0, 5, 0.0, 8), // never fits 4
                pq(1, 4, 3.0, 2),
                pq(2, 4, 1.0, 4),
                pq(3, 4, 2.0, 2),
                pq(4, 2, 0.0, 8),
                pq(5, 2, 4.0, 1),
                pq(6, 1, 0.0, 4),
                pq(7, 4, 5.0, 4),
            ],
        );
        let lane = |fit| ids(view.queued_fitting_by_priority(fit));
        assert_eq!(lane(u32::MAX), [0, 2, 3, 1, 7, 4, 5, 6]);
        assert_eq!(lane(8), [0, 2, 3, 1, 7, 4, 5, 6]);
        // Priority 5's only bucket does not fit 4; priority 4 merges two.
        assert_eq!(lane(4), [2, 3, 1, 7, 5, 6]);
        assert_eq!(lane(1), [5]);
        assert_eq!(lane(0), [0u32; 0]);
        // Shrunk mid-priority: the min-4 buckets drop out, priority 4's
        // with a job still in it.
        let mut cursor = view.queued_fitting_by_priority(4);
        assert_eq!(cursor.next().map(|j| j.id().0), Some(2));
        assert_eq!(cursor.peek().map(|j| j.id().0), Some(3));
        cursor.shrink_to(2);
        assert_eq!(ids(cursor.by_ref()), [3, 1, 5]);
        // The fit never grows back.
        let mut cursor = view.queued_fitting_by_priority(2);
        cursor.shrink_to(8);
        assert_eq!(ids(cursor), lane(2));
    }

    #[test]
    fn an_arrival_ordered_stream_with_evictions_costs_at_most_two_search_steps_per_insert() {
        const INSERTS: u32 = 10_000;
        let submitted: Vec<SimTime> = (0..INSERTS)
            .map(|i| SimTime::from_secs(f64::from(i)))
            .collect();
        let key = |id: u32| (submitted[id as usize], JobId(id));
        let mut queue = OrderList::from_keys(0, Vec::new());
        let mut linked = vec![false; INSERTS as usize];
        let mut started = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut arrivals = 0;
        let before = SEARCH_STEPS.with(|steps| steps.get());
        for insert in 1..=INSERTS {
            // Every 50th insert an eviction: one of the last jobs
            // started re-enters at its submission key, near the head.
            // The rest are arrivals, at the tail.
            let id = if insert % 50 == 0 {
                let back = rng.gen_range(1..=4);
                started.remove(started.len() - back)
            } else {
                arrivals += 1;
                arrivals - 1
            };
            queue.insert(id, key);
            linked[id as usize] = true;
            // Every other insert starts a job: the head, or one a few
            // places behind it (a backfill).
            if insert % 2 == 0 {
                let id = queue
                    .iter()
                    .nth(rng.gen_range(0..4))
                    .expect("queue is deep");
                queue.unlink(id);
                linked[id as usize] = false;
                started.push(id);
            }
        }
        let steps = SEARCH_STEPS.with(|steps| steps.get()) - before;
        let expected: Vec<u32> = (0..arrivals).filter(|&id| linked[id as usize]).collect();
        assert_eq!(queue.iter().collect::<Vec<_>>(), expected);
        assert!(
            steps <= 2 * u64::from(INSERTS),
            "{steps} search steps for {INSERTS} inserts"
        );
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
        let fcfs: Vec<JobId> = view.queued_scan().map(|j| j.id()).collect();
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
    fn a_departed_jobs_row_is_the_next_arrivals_in_every_list() {
        let mut view = view_of(64, 64, (0..4).map(|id| q(id, f64::from(id), 2)).collect());
        read_queue_lists(&view);
        view.running_scan().count();
        let row = view.arena.row(JobId(1)).expect("live");
        view.remove(JobId(1), 1);
        // Same instant, same bucket: the new job links where the old
        // one was unlinked, through the same row.
        view.insert(q(9, 1.0, 2), 1);
        assert_eq!(view.arena.row(JobId(9)), Some(row));
        assert_eq!(view.arena.len(), 4, "no row grown");
        assert_eq!(queue_ids(&view), [0, 9, 2, 3]);
        assert_eq!(fitting_ids(&view, 0, 8), [9, 2, 3]);
        assert_lists_current(&view);
        let fresh = view_of(64, 64, view.jobs().collect());
        assert_eq!(view, fresh, "equal, though laid out in other rows");
        assert_ne!(fresh.arena.row(JobId(9)), Some(row));
    }

    #[test]
    fn the_row_map_finds_what_it_holds() {
        let mut map: IdMap<u32> = IdMap::default();
        for i in (0..10_000).step_by(3) {
            map.insert(JobId(i), i * 2);
        }
        for i in 0..10_000 {
            assert_eq!(map.get(&JobId(i)), (i % 3 == 0).then_some(&(i * 2)));
        }
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
