//! Sharded, batched submission ingest with explicit backpressure.
//!
//! [`IngestQueue`] fronts a [`SchedulerClient`] with N independent
//! shards, each a bounded buffer of validated [`SubmitRequest`]s.
//! Submitters are routed round-robin or by name hash; a shard flushes
//! its buffer into the store — one batch of `create`s the operator's
//! watch drain turns into a *single*
//! [`SchedulingPolicy::on_submit_burst`] dispatch — when it reaches
//! [`IngestConfig::batch_size`] jobs, or when
//! [`IngestQueue::pump`] finds its oldest entry older than
//! [`IngestConfig::max_delay`]. Every submission gets an explicit
//! answer:
//!
//! * [`SubmitResponse::Admitted`] — the push itself completed a size-K
//!   batch; the job is in the store and the ticket is real.
//! * [`SubmitResponse::Queued`] — buffered, awaiting flush; `depth` is
//!   the accepting shard's backlog.
//! * [`SubmitResponse::Shed`] — the shard's bounded buffer is full;
//!   the submission was rejected and the client should back off
//!   `retry_after` before retrying.
//!
//! With `max_delay = 0` the queue degenerates to same-instant
//! coalescing (see `run_workload_ingest` for the replay that relies on
//! it).
//!
//! [`SchedulingPolicy::on_submit_burst`]:
//! elastic_core::SchedulingPolicy::on_submit_burst

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use elastic_core::{SchedulerClient, SchedulerError, SubmitRequest, SubmitResponse};
use hpc_metrics::sync::locked;
use hpc_metrics::{Clock, Duration, SimTime};

/// How submissions are routed to ingest shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRouter {
    /// Strict rotation over the shards — best spread under uniform
    /// load.
    RoundRobin,
    /// Stable hash of the job name — all submissions of one name land
    /// on one shard, so per-name ordering survives sharding.
    HashByName,
}

/// Ingest front-end knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Independent submission shards (each with its own lock and
    /// buffer).
    pub shards: usize,
    /// Bounded buffer per shard; a full shard sheds.
    pub shard_capacity: usize,
    /// Flush a shard as soon as it holds this many jobs (size-K
    /// trigger).
    pub batch_size: usize,
    /// Flush a shard when its oldest entry has waited this long
    /// (deadline-T trigger, checked by [`IngestQueue::pump`]). Zero
    /// means "flush on every pump" — the deterministic-replay setting.
    pub max_delay: Duration,
    /// Suggested client backoff carried in [`SubmitResponse::Shed`].
    pub retry_after: Duration,
    /// The routing discipline.
    pub router: ShardRouter,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            shards: 4,
            shard_capacity: 4096,
            batch_size: 256,
            max_delay: Duration::from_millis(5.0),
            retry_after: Duration::from_millis(50.0),
            router: ShardRouter::RoundRobin,
        }
    }
}

/// Counters the ingest queue maintains (snapshot via
/// [`IngestQueue::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Submissions accepted into a shard (includes later flush
    /// rejects).
    pub accepted: u64,
    /// Submissions shed by backpressure.
    pub shed: u64,
    /// Batch flushes performed.
    pub batches: u64,
    /// Jobs created in the store across all flushes.
    pub flushed: u64,
    /// Jobs that reached a flush but failed store creation (duplicate
    /// names, …); the errors are retrievable via
    /// [`IngestQueue::take_errors`]. A submission whose own push
    /// flushed the batch gets its error from `submit` instead and is
    /// not counted.
    pub rejected: u64,
}

impl IngestStats {
    /// Mean jobs per flushed batch (0 when nothing flushed) — the
    /// batch-amortization figure: the operator runs one policy burst
    /// dispatch per drained batch, not per job.
    pub fn jobs_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.flushed as f64 / self.batches as f64
        }
    }
}

struct Pending {
    req: SubmitRequest,
    enqueued_at: SimTime,
}

/// Flush-side bookkeeping: only a flush (or a reader) takes its lock,
/// never a plain accept or shed.
#[derive(Default)]
struct Ledger {
    batches: u64,
    flushed: u64,
    rejected: u64,
    /// Per-flushed-job submit→admit latency (enqueue to store create),
    /// in seconds. A quantile query sorts it in place; `sorted` stays
    /// set until the next flush pushes.
    latencies: Vec<f64>,
    sorted: bool,
    /// Store-level failures surfaced at flush time.
    errors: Vec<(String, SchedulerError)>,
}

/// The sharded, batched submission front-end (see the module docs).
pub struct IngestQueue {
    client: SchedulerClient,
    clock: Arc<dyn Clock>,
    cfg: IngestConfig,
    shards: Vec<Mutex<VecDeque<Pending>>>,
    rr: AtomicUsize,
    closed: AtomicBool,
    /// Accept/shed tallies are atomics so a submission touches only
    /// its shard lock (`Relaxed`: statistics, publishing nothing).
    accepted: AtomicU64,
    shed: AtomicU64,
    ledger: Mutex<Ledger>,
}

impl IngestQueue {
    /// An ingest queue flushing into `client` (deadlines and latencies
    /// timed on the client's clock).
    pub fn new(client: SchedulerClient, cfg: IngestConfig) -> Self {
        assert!(cfg.shards >= 1, "need at least one ingest shard");
        assert!(cfg.shard_capacity >= 1, "shard capacity must be >= 1");
        assert!(cfg.batch_size >= 1, "batch size must be >= 1");
        let shards = (0..cfg.shards)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        IngestQueue {
            clock: client.clock(),
            client,
            cfg,
            shards,
            rr: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            ledger: Mutex::new(Ledger::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.cfg
    }

    fn route(&self, name: &str) -> usize {
        match self.cfg.router {
            ShardRouter::RoundRobin => self.rr.fetch_add(1, Ordering::Relaxed) % self.cfg.shards,
            ShardRouter::HashByName => {
                let mut h = DefaultHasher::new();
                name.hash(&mut h);
                (h.finish() as usize) % self.cfg.shards
            }
        }
    }

    /// Submits a validated request to its shard. Never blocks on the
    /// store: the request is buffered ([`SubmitResponse::Queued`]),
    /// completes a size-K batch inline ([`SubmitResponse::Admitted`]),
    /// or is rejected by backpressure ([`SubmitResponse::Shed`]).
    /// Errors for a closed queue, and with the store's own error when
    /// the push completed a batch and this submission's create failed
    /// (a duplicate name).
    pub fn submit(&self, req: SubmitRequest) -> Result<SubmitResponse, SchedulerError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SchedulerError::QueueClosed);
        }
        let shard = self.route(req.name());
        let mut buf = locked(&self.shards[shard]);
        if buf.len() >= self.cfg.shard_capacity {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Ok(SubmitResponse::Shed {
                retry_after: self.cfg.retry_after,
            });
        }
        buf.push_back(Pending {
            req,
            enqueued_at: self.clock.now(),
        });
        let depth = buf.len();
        self.accepted.fetch_add(1, Ordering::Relaxed);
        if depth >= self.cfg.batch_size {
            // The push completed a batch: flush inline and answer with
            // this submission's real ticket, or its own store error.
            return self
                .flush_buf(&mut buf, true)
                .expect("the batch holds this submission");
        }
        Ok(SubmitResponse::Queued { depth })
    }

    /// Flushes every shard whose oldest entry has waited at least
    /// [`IngestConfig::max_delay`] by `now`. Returns the number of jobs
    /// flushed, the store's rejects included. Call once per serving
    /// loop iteration (before the operator reconcile).
    pub fn pump(&self, now: SimTime) -> usize {
        let mut flushed = 0;
        for shard in &self.shards {
            let mut buf = locked(shard);
            let due = buf
                .front()
                .is_some_and(|p| now - p.enqueued_at >= self.cfg.max_delay);
            if due {
                flushed += buf.len();
                self.flush_buf(&mut buf, false);
            }
        }
        flushed
    }

    /// Unconditionally flushes every shard (shutdown / end-of-trace).
    pub fn flush_all(&self) -> usize {
        let mut flushed = 0;
        for shard in &self.shards {
            let mut buf = locked(shard);
            flushed += buf.len();
            self.flush_buf(&mut buf, false);
        }
        flushed
    }

    /// Flushes `buf` into the store as one batch. With `answer_last`,
    /// returns the store's answer for the buffer's last entry — the
    /// submission whose push completed the batch — and keeps a failure
    /// of that entry out of the ledger: its submitter gets it instead.
    fn flush_buf(
        &self,
        buf: &mut VecDeque<Pending>,
        answer_last: bool,
    ) -> Option<Result<SubmitResponse, SchedulerError>> {
        if buf.is_empty() {
            return None;
        }
        let now = self.clock.now();
        let mut ledger = locked(&self.ledger);
        ledger.batches += 1;
        ledger.sorted = false;
        let last = buf.len() - 1;
        let mut answer = None;
        for (i, pending) in buf.drain(..).enumerate() {
            let answers = answer_last && i == last;
            let name = pending.req.name().to_string();
            match self.client.submit_request(pending.req) {
                Ok(resp) => {
                    ledger.flushed += 1;
                    ledger.latencies.push((now - pending.enqueued_at).as_secs());
                    if answers {
                        answer = Some(Ok(resp));
                    }
                }
                Err(err) if answers => answer = Some(Err(err)),
                Err(err) => {
                    ledger.rejected += 1;
                    ledger.errors.push((name, err));
                }
            }
        }
        answer
    }

    /// Jobs currently buffered across all shards. Allocates nothing: the
    /// drive loop asks every instant.
    pub fn depth(&self) -> usize {
        self.shard_lens().sum()
    }

    fn shard_lens(&self) -> impl Iterator<Item = usize> + '_ {
        (self.shards.iter()).map(|s| locked(s).len())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IngestStats {
        let ledger = locked(&self.ledger);
        IngestStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            batches: ledger.batches,
            flushed: ledger.flushed,
            rejected: ledger.rejected,
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of submit→admit latency over every
    /// flushed job, or `None` before the first flush.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let mut ledger = locked(&self.ledger);
        if ledger.latencies.is_empty() {
            return None;
        }
        if !ledger.sorted {
            ledger
                .latencies
                .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            ledger.sorted = true;
        }
        let idx = ((ledger.latencies.len() - 1) as f64 * q).round() as usize;
        Some(Duration::from_secs(ledger.latencies[idx]))
    }

    /// Drains the store-level errors collected at flush time
    /// (`(job name, error)` pairs — duplicates, mostly).
    pub fn take_errors(&self) -> Vec<(String, SchedulerError)> {
        std::mem::take(&mut locked(&self.ledger).errors)
    }

    /// Closes the queue: subsequent [`submit`](IngestQueue::submit)s
    /// fail with [`SchedulerError::QueueClosed`]. Already-buffered jobs
    /// still flush via [`pump`](IngestQueue::pump) /
    /// [`flush_all`](IngestQueue::flush_all).
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::crd::CharmJob;
    use elastic_core::CharmJobSpec;
    use hpc_metrics::VirtualClock;
    use kube_sim::Store;

    fn queue(cfg: IngestConfig) -> (IngestQueue, Store<CharmJob>, VirtualClock) {
        let clock = VirtualClock::new();
        let jobs: Store<CharmJob> = Store::new();
        let client = SchedulerClient::new(jobs.clone(), Arc::new(clock.clone()));
        (IngestQueue::new(client, cfg), jobs, clock)
    }

    fn req(name: &str) -> SubmitRequest {
        let spec = CharmJobSpec::builder(name).rigid(2).build().unwrap();
        SubmitRequest::v1(spec).unwrap()
    }

    #[test]
    fn buffers_until_batch_size_then_flushes_inline() {
        let (q, jobs, _) = queue(IngestConfig {
            shards: 1,
            batch_size: 3,
            ..Default::default()
        });
        assert_eq!(
            q.submit(req("a")).unwrap(),
            SubmitResponse::Queued { depth: 1 }
        );
        assert_eq!(
            q.submit(req("b")).unwrap(),
            SubmitResponse::Queued { depth: 2 }
        );
        assert!(jobs.is_empty(), "nothing flushed below the K threshold");
        // The third push completes the batch: everyone lands at once
        // and the pusher gets a real ticket back.
        let resp = q.submit(req("c")).unwrap();
        let ticket = resp.ticket().expect("size-K flush admits inline");
        assert_eq!(ticket.name, "c");
        assert_eq!(jobs.len(), 3);
        assert_eq!(q.depth(), 0);
        let stats = q.stats();
        assert_eq!((stats.accepted, stats.batches, stats.flushed), (3, 1, 3));
        assert_eq!(stats.jobs_per_batch(), 3.0);
    }

    #[test]
    fn pump_flushes_on_deadline_only() {
        let (q, jobs, clock) = queue(IngestConfig {
            shards: 1,
            batch_size: 100,
            max_delay: Duration::from_secs(5.0),
            ..Default::default()
        });
        q.submit(req("a")).unwrap();
        assert_eq!(q.pump(clock.now()), 0, "deadline not reached");
        clock.advance(Duration::from_secs(5.0));
        assert_eq!(q.pump(clock.now()), 1);
        assert_eq!(jobs.len(), 1);
        // The flushed job waited the full deadline.
        assert_eq!(q.latency_quantile(1.0).unwrap(), Duration::from_secs(5.0));
    }

    #[test]
    fn quantiles_track_flushes_between_queries() {
        let (q, _, clock) = queue(IngestConfig {
            shards: 1,
            batch_size: 100,
            max_delay: Duration::ZERO,
            ..Default::default()
        });
        q.submit(req("slow")).unwrap();
        clock.advance(Duration::from_secs(5.0));
        q.pump(clock.now());
        assert_eq!(q.latency_quantile(0.5).unwrap(), Duration::from_secs(5.0));
        // A flush after a query lands out of order; the next query
        // must see it in its sorted place.
        q.submit(req("fast")).unwrap();
        clock.advance(Duration::from_secs(1.0));
        q.pump(clock.now());
        assert_eq!(q.latency_quantile(0.0).unwrap(), Duration::from_secs(1.0));
        assert_eq!(q.latency_quantile(1.0).unwrap(), Duration::from_secs(5.0));
    }

    #[test]
    fn shed_then_retry_round_trip() {
        let cfg = IngestConfig {
            shards: 1,
            shard_capacity: 2,
            batch_size: 100,
            max_delay: Duration::ZERO,
            retry_after: Duration::from_millis(50.0),
            ..Default::default()
        };
        let (q, jobs, clock) = queue(cfg);
        q.submit(req("a")).unwrap();
        q.submit(req("b")).unwrap();
        // Full shard: the third submission is shed with a backoff hint.
        let resp = q.submit(req("c")).unwrap();
        assert_eq!(
            resp,
            SubmitResponse::Shed {
                retry_after: Duration::from_millis(50.0)
            }
        );
        assert!(resp.is_shed());
        assert!(jobs.get("c").is_none(), "shed submission must not land");
        // The client backs off, the server drains, the retry succeeds:
        // the round trip loses nothing and duplicates nothing.
        clock.advance(Duration::from_millis(50.0));
        q.pump(clock.now());
        assert_eq!(
            q.submit(req("c")).unwrap(),
            SubmitResponse::Queued { depth: 1 }
        );
        q.flush_all();
        assert_eq!(jobs.len(), 3);
        let stats = q.stats();
        assert_eq!((stats.shed, stats.flushed, stats.rejected), (1, 3, 0));
    }

    #[test]
    fn hash_router_keeps_a_name_on_one_shard() {
        let cfg = IngestConfig {
            shards: 8,
            batch_size: 100,
            router: ShardRouter::HashByName,
            ..Default::default()
        };
        let (q, _, _) = queue(cfg);
        for i in 0..16 {
            q.submit(req(&format!("user-a-{}", i % 2))).unwrap();
        }
        // Two distinct names → at most two occupied shards, each with
        // all copies of its name... except duplicates: use unique names
        // per shard check instead.
        let occupied: Vec<usize> = q.shard_lens().filter(|&d| d > 0).collect();
        assert!(occupied.len() <= 2);
        assert_eq!(occupied.iter().sum::<usize>(), 16);
    }

    #[test]
    fn duplicate_names_surface_as_flush_rejects() {
        let (q, jobs, clock) = queue(IngestConfig {
            shards: 1,
            batch_size: 100,
            max_delay: Duration::ZERO,
            ..Default::default()
        });
        q.submit(req("dup")).unwrap();
        q.pump(clock.now());
        q.submit(req("dup")).unwrap();
        q.pump(clock.now());
        assert_eq!(jobs.len(), 1);
        let stats = q.stats();
        assert_eq!(stats.rejected, 1);
        let errors = q.take_errors();
        assert_eq!(errors.len(), 1);
        assert!(matches!(errors[0].1, SchedulerError::AlreadyExists(_)));
        assert!(q.take_errors().is_empty(), "errors drain once");
    }

    #[test]
    fn an_inline_flush_answers_for_the_submission_that_completed_it() {
        let (q, jobs, clock) = queue(IngestConfig {
            shards: 1,
            batch_size: 2,
            max_delay: Duration::ZERO,
            ..Default::default()
        });
        // The second "dup" completes the batch: the first is created,
        // the second is not, and the second's answer must say so rather
        // than hand back the first one's ticket.
        q.submit(req("dup")).unwrap();
        assert!(matches!(
            q.submit(req("dup")),
            Err(SchedulerError::AlreadyExists(_))
        ));
        assert_eq!(jobs.len(), 1);
        let stats = q.stats();
        assert_eq!((stats.batches, stats.flushed, stats.rejected), (1, 1, 0));
        assert!(q.take_errors().is_empty(), "the submitter got its error");

        // An older reject of the same name stays in the ledger, in its
        // place: the inline answer is the submitter's own error.
        q.submit(req("b")).unwrap();
        q.pump(clock.now());
        q.submit(req("dup")).unwrap();
        q.pump(clock.now());
        q.submit(req("b")).unwrap();
        assert!(q.submit(req("dup")).is_err());
        let names: Vec<String> = q.take_errors().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["dup", "b"],
            "the pump's reject, then the batch's first"
        );
        assert_eq!(q.stats().rejected, 2);
    }

    #[test]
    fn closed_queue_rejects_submissions_but_flushes_backlog() {
        let (q, jobs, _) = queue(IngestConfig {
            shards: 1,
            batch_size: 100,
            ..Default::default()
        });
        q.submit(req("a")).unwrap();
        q.close();
        assert!(matches!(
            q.submit(req("b")),
            Err(SchedulerError::QueueClosed)
        ));
        assert_eq!(q.flush_all(), 1);
        assert_eq!(jobs.len(), 1);
    }
}
