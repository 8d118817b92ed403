//! The federation runtime: N sharded clusters, M worker threads, one
//! FIFO run queue.
//!
//! The runtime/handle split follows the async-runtime idiom: the
//! non-cloneable [`FederationRuntime`] *owns* the worker OS threads and
//! the shard cells, while the cheap, cloneable [`FederationHandle`] is
//! the submission surface — hand copies to whoever produces work, keep
//! the runtime where the threads must eventually be joined.
//!
//! Each shard is a complete single-cluster simulation (its own
//! `SimConfig`, its own policy instance, its own event queue), stepped
//! a *quantum* of events at a time by whichever worker pops it off the
//! run queue, and pushed back at the tail while it has events left.
//!
//! A federation replays a *closed* batch: one submission, seeded
//! before any worker exists, and nothing adds work afterwards. Every
//! unfinished shard is therefore in the queue or in the hands of a
//! worker that will push it back and pop again itself — so a worker
//! that finds the queue empty has nothing to wait for and **exits**,
//! and the replay is over when the worker threads have returned.
//!
//! Determinism holds by construction: shards share no mutable state, a
//! shard index is in the queue or with one worker and never both (a
//! worker pushes back only what it popped), and `SimState::step` is
//! bit-identical to a monolithic drain regardless of how the event
//! stream is sliced into quanta — so worker count and pop interleaving
//! cannot change any shard's outcome.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use elastic_core::RunMetrics;
use hpc_metrics::{SimTime, UtilizationRecorder};
use hpc_workload::{JobSpec, WorkloadSpec};
use sched_sim::{SimConfig, SimOutcome, SimState};

use crate::placement::{LoadTracker, PlacementPolicy};
use crate::resilience::ShardBreakerBoard;

/// Shape of a federation: how many shards, how many workers drive
/// them, and how many events one worker drains per shard turn.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of shards (single-cluster simulations).
    pub shards: usize,
    /// Worker OS threads. More workers than shards is wasted; the
    /// constructor clamps to `min(available_parallelism, shards)`.
    pub workers: usize,
    /// Time quantum: events drained per shard turn before the worker
    /// yields the shard back to the queue tail. This is the fairness
    /// knob — a hot shard gets at most `quantum` events ahead of a
    /// cold one per round.
    pub quantum: usize,
}

impl FederationConfig {
    /// Default quantum: large enough to amortize a queue round-trip,
    /// small enough that an interactive shard waits at most a few
    /// thousand events behind a hot one.
    pub const DEFAULT_QUANTUM: usize = 512;

    /// A federation of `shards` clusters with as many workers as the
    /// host offers (capped at one per shard) and the default quantum.
    pub fn new(shards: usize) -> FederationConfig {
        assert!(shards > 0, "a federation needs at least one shard");
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        FederationConfig {
            shards,
            workers: host.min(shards),
            quantum: Self::DEFAULT_QUANTUM,
        }
    }

    /// Builder: pins the worker count (still capped at one per shard).
    pub fn with_workers(mut self, workers: usize) -> FederationConfig {
        assert!(workers > 0, "at least one worker");
        self.workers = workers.min(self.shards);
        self
    }

    /// Builder: sets the per-turn event quantum.
    pub fn with_quantum(mut self, quantum: usize) -> FederationConfig {
        assert!(quantum > 0, "a zero quantum would never make progress");
        self.quantum = quantum;
        self
    }
}

/// One shard's simulation. A cell is only ever touched by the worker
/// that popped its shard, so the mutex is uncontended in steady state.
struct ShardCell {
    /// The shard's cluster, its own policy instance included.
    cfg: SimConfig,
    /// The shard's slice of the trace and the live DES state over it:
    /// `None` until submission seeds it, and for good when placement
    /// left the shard empty.
    replay: Option<(WorkloadSpec, SimState)>,
    /// Run-queue turns this shard was granted.
    turns: u64,
}

/// State shared between the runtime, its handles and its workers.
struct Core {
    cfg: FederationConfig,
    /// Shards with events left that no worker holds, in FIFO order.
    run_queue: Mutex<VecDeque<usize>>,
    cells: Vec<Mutex<ShardCell>>,
    capacities: Vec<u32>,
    /// Shard indices in the order they ran dry (fairness diagnostics).
    drain_order: Mutex<Vec<usize>>,
    loaded: AtomicBool,
    started: AtomicBool,
}

/// Locks one of the federation's mutexes. A replay never observes one
/// poisoned: the queue and the drain order are not held across a step,
/// a shard whose step panicked is never queued again, and `join`
/// re-raises that panic before it reads a cell.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("poisoned by an earlier panic")
}

/// Cheap, cloneable submission surface of a federation. All clones
/// point at the same runtime; a federation accepts exactly one
/// submission (a `WorkloadSpec` *is* the whole trace).
#[derive(Clone)]
pub struct FederationHandle {
    core: Arc<Core>,
}

impl FederationHandle {
    /// Routes every job of `workload` to a shard via `placement`,
    /// partitions the trace and seeds each non-empty shard's event
    /// queue. Returns the per-job shard assignment (workload order).
    ///
    /// The placement pre-pass is single-threaded and deterministic —
    /// the partition is fixed before any worker thread observes it, so
    /// replay results cannot depend on worker count.
    ///
    /// # Panics
    /// If called after [`FederationRuntime::start`], called twice, or
    /// if `placement` routes a job out of range.
    pub fn submit(
        &self,
        workload: &WorkloadSpec,
        placement: &mut dyn PlacementPolicy,
    ) -> Vec<usize> {
        self.open(placement, None).submit_whole(workload)
    }

    /// [`FederationHandle::submit`] with breaker-aware routing: each
    /// shard's [`ShardBreakerBoard`] breaker is fed that shard's flaky
    /// schedule along the arrival cursor, and while a breaker is open
    /// the shard advertises worst-case load, so load-sensitive policies
    /// ([`LeastLoaded`](crate::LeastLoaded) foremost) stop routing
    /// submits there until the cooldown half-opens it. If every breaker
    /// is open, routing falls back to the true loads. The board's
    /// per-shard flaky specs also replace the partitioned shard
    /// workloads' schedules, so each shard simulates the same faults
    /// its breaker saw.
    ///
    /// # Panics
    /// As [`FederationHandle::submit`], or if the board's shard count
    /// differs from the federation's.
    pub fn submit_resilient(
        &self,
        workload: &WorkloadSpec,
        placement: &mut dyn PlacementPolicy,
        board: &mut ShardBreakerBoard,
    ) -> Vec<usize> {
        assert_eq!(
            board.shards(),
            self.core.capacities.len(),
            "breaker board shard count must match the federation"
        );
        self.open(placement, Some(board)).submit_whole(workload)
    }

    /// Opens the federation's one submission as a *streaming* session:
    /// the batched counterpart of [`FederationHandle::submit`] for
    /// producers (the `elastic-serving` ingest queue foremost) that
    /// surface arrivals in flushed batches rather than as one complete
    /// trace. Push arrival-ordered chunks with
    /// [`BatchedSubmission::push`]; [`BatchedSubmission::finish`]
    /// partitions and seeds the shards exactly like the one-shot path.
    ///
    /// Routing state (the [`PlacementPolicy`] and the load tracker)
    /// persists *across* pushes, so any chunking of a job sequence
    /// produces the same assignment as one-shot submission of the whole
    /// sequence — the `batched_submission_matches_one_shot` test pins
    /// the equivalence. The session claims the federation's single
    /// submission at creation: a second `submit`/`batched_submit`
    /// panics even before `finish`.
    ///
    /// The batched path carries jobs only (no fault layer); submit a
    /// full [`WorkloadSpec`] one-shot when the trace schedules faults.
    ///
    /// # Panics
    /// If called after [`FederationRuntime::start`] or after any other
    /// submission.
    pub fn batched_submit<'a>(
        &self,
        placement: &'a mut dyn PlacementPolicy,
    ) -> BatchedSubmission<'a> {
        self.open(placement, None)
    }

    /// Claims the federation's one submission. Every submission path
    /// is this session: the one-shot paths hand it the whole trace.
    fn open<'a>(
        &self,
        placement: &'a mut dyn PlacementPolicy,
        board: Option<&'a mut ShardBreakerBoard>,
    ) -> BatchedSubmission<'a> {
        assert!(
            !self.core.started.load(Ordering::Acquire),
            "submit after start: the workload must be routed before workers run"
        );
        assert!(
            !self.core.loaded.swap(true, Ordering::AcqRel),
            "a federation accepts exactly one submission"
        );
        BatchedSubmission {
            core: Arc::clone(&self.core),
            placement,
            board,
            tracker: LoadTracker::new(&self.core.capacities),
            jobs: Vec::new(),
            assignment: Vec::new(),
        }
    }
}

/// An open streaming submission (see
/// [`FederationHandle::batched_submit`]): accumulates arrival-ordered
/// job chunks, routing each job the moment it is pushed, and seeds the
/// shards on [`finish`](BatchedSubmission::finish).
pub struct BatchedSubmission<'a> {
    core: Arc<Core>,
    placement: &'a mut dyn PlacementPolicy,
    /// Breaker-aware routing (`submit_resilient` only).
    board: Option<&'a mut ShardBreakerBoard>,
    tracker: LoadTracker,
    /// The pushed chunks; stays empty when the caller holds the whole
    /// trace (the one-shot paths).
    jobs: Vec<JobSpec>,
    assignment: Vec<usize>,
}

impl BatchedSubmission<'_> {
    /// Routes one arrival-ordered chunk of jobs. Chunk boundaries are
    /// invisible to placement: the load tracker advances along the
    /// arrival cursor exactly as the one-shot pass does.
    ///
    /// # Panics
    /// If a job arrives earlier than the previously pushed one, or if
    /// the placement policy routes out of range.
    pub fn push(&mut self, jobs: &[JobSpec]) {
        for job in jobs {
            if let Some(last) = self.jobs.last() {
                assert!(
                    job.arrival >= last.arrival,
                    "batched pushes must preserve arrival order (job {} at {} after {})",
                    job.name,
                    job.arrival,
                    last.arrival
                );
            }
            self.route(job);
            self.jobs.push(job.clone());
        }
    }

    /// Routes the next job of the arrival cursor: the federation's one
    /// placement step, whichever submission path feeds it.
    fn route(&mut self, job: &JobSpec) {
        let shards = self.core.capacities.len();
        let now_s = job.arrival.as_secs();
        let now = SimTime::ZERO + job.arrival;
        self.tracker.advance_to(now_s);
        let masked = self.board.as_deref_mut().map(|board| {
            board.advance_to(now);
            board.masked_loads(self.tracker.loads(), now)
        });
        let loads = masked.as_deref().unwrap_or(self.tracker.loads());
        let shard = self.placement.place(job, loads);
        assert!(
            shard < shards,
            "placement routed job {} to shard {shard} of a {shards}-shard federation",
            job.name
        );
        if let Some(board) = self.board.as_deref_mut() {
            board.on_commit(shard, now);
        }
        self.tracker.commit(shard, job, now_s);
        self.assignment.push(shard);
    }

    /// Jobs routed so far.
    pub fn routed(&self) -> usize {
        self.assignment.len()
    }

    /// Partitions the accumulated trace and seeds each non-empty
    /// shard's event queue, exactly like the tail of the one-shot
    /// submit. Returns the per-job shard assignment (push order).
    ///
    /// # Panics
    /// If the runtime started while the session was open.
    pub fn finish(mut self) -> Vec<usize> {
        let workload = WorkloadSpec::new(std::mem::take(&mut self.jobs));
        self.seed(&workload)
    }

    /// The one-shot paths: the caller holds the whole trace (fault
    /// layer included), so it is routed in place and never copied.
    fn submit_whole(mut self, workload: &WorkloadSpec) -> Vec<usize> {
        for job in &workload.jobs {
            self.route(job);
        }
        self.seed(workload)
    }

    /// Splits `workload` by the assignment routed so far and seeds each
    /// non-empty shard's event queue. A breaker board's per-shard flaky
    /// specs replace the partitioned schedules.
    fn seed(self, workload: &WorkloadSpec) -> Vec<usize> {
        assert!(
            !self.core.started.load(Ordering::Acquire),
            "finish after start: shards were scheduled before they were seeded"
        );
        let shards = self.core.capacities.len();
        for (shard, mut part) in workload
            .partition(&self.assignment, shards)
            .into_iter()
            .enumerate()
        {
            if let Some(board) = self.board.as_deref() {
                part.faults.flaky = board.spec(shard).clone();
            }
            if !part.jobs.is_empty() {
                let mut cell = locked(&self.core.cells[shard]);
                let state = SimState::new(&cell.cfg, &part);
                cell.replay = Some((part, state));
            }
        }
        self.assignment
    }
}

/// Everything a finished federation replay produced.
pub struct FederationOutcome {
    /// Shard metrics merged into one federation-level [`RunMetrics`]
    /// (see `RunMetrics::merge` for the aggregation semantics). With a
    /// single shard this is bit-identical to that shard's metrics.
    pub merged: RunMetrics,
    /// Per-shard outcomes, indexed by shard. Shards the placement left
    /// empty carry empty metrics and an untouched recorder.
    pub shards: Vec<SimOutcome>,
    /// Per-shard cluster capacities (slots), indexed by shard.
    pub capacities: Vec<u32>,
    /// Events each shard processed.
    pub events: Vec<u64>,
    /// Run-queue turns each shard was granted.
    pub turns: Vec<u64>,
    /// Shard indices in drain order — under a small quantum, light
    /// shards finish before heavy ones regardless of index order.
    pub drain_order: Vec<usize>,
}

impl FederationOutcome {
    /// Total events processed across all shards.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }
}

/// The federation runtime: owns the shard cells and the worker OS
/// threads. Not cloneable — [`FederationRuntime::join`] (or dropping
/// it) waits the workers out.
pub struct FederationRuntime {
    core: Arc<Core>,
    workers: Vec<JoinHandle<()>>,
}

impl FederationRuntime {
    /// Builds a federation whose shard `i` runs the `SimConfig`
    /// returned by `make_sim(i)` — each shard gets its *own* policy
    /// instance; nothing is shared across shards.
    pub fn new(cfg: FederationConfig, make_sim: impl Fn(usize) -> SimConfig) -> FederationRuntime {
        let sims: Vec<SimConfig> = (0..cfg.shards).map(make_sim).collect();
        FederationRuntime {
            core: Arc::new(Core {
                run_queue: Mutex::new(VecDeque::with_capacity(cfg.shards)),
                capacities: sims.iter().map(|sim| sim.capacity).collect(),
                cells: sims
                    .into_iter()
                    .map(|cfg| {
                        Mutex::new(ShardCell {
                            cfg,
                            replay: None,
                            turns: 0,
                        })
                    })
                    .collect(),
                drain_order: Mutex::new(Vec::with_capacity(cfg.shards)),
                loaded: AtomicBool::new(false),
                started: AtomicBool::new(false),
                cfg,
            }),
            workers: Vec::new(),
        }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> FederationHandle {
        FederationHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// The configuration this runtime was built with (workers already
    /// clamped).
    pub fn config(&self) -> &FederationConfig {
        &self.core.cfg
    }

    /// Queues every loaded shard (in index order, for a deterministic
    /// initial queue) and spawns the worker threads. Shards the
    /// placement left empty are never queued.
    ///
    /// # Panics
    /// If no workload was submitted, or if called twice.
    pub fn start(&mut self) {
        assert!(
            self.core.loaded.load(Ordering::Acquire),
            "start before submit: nothing to replay"
        );
        assert!(
            !self.core.started.swap(true, Ordering::AcqRel),
            "a federation starts exactly once"
        );
        let seeded = |shard: &usize| locked(&self.core.cells[*shard]).replay.is_some();
        locked(&self.core.run_queue).extend((0..self.core.cfg.shards).filter(seeded));
        for w in 0..self.core.cfg.workers {
            let core = Arc::clone(&self.core);
            let handle = std::thread::Builder::new()
                .name(format!("fed-worker-{w}"))
                .spawn(move || worker_loop(&core))
                .expect("spawn federation worker");
            self.workers.push(handle);
        }
    }

    /// Waits for the replay to end — which *is* the worker threads
    /// returning: each exits when it finds the run queue empty — then
    /// collects and merges the shard outcomes.
    ///
    /// # Panics
    /// If called before [`FederationRuntime::start`]. If a worker
    /// thread panicked (a policy hook, say), the other workers still
    /// drain every shard they can reach, every worker is reaped, and
    /// the first panic is then re-raised here; no outcome is built and
    /// the shard cells are left as the workers left them.
    pub fn join(mut self) -> FederationOutcome {
        assert!(
            self.core.started.load(Ordering::Acquire),
            "join before start"
        );
        let mut first_panic = None;
        for worker in std::mem::take(&mut self.workers) {
            if let Err(panic) = worker.join() {
                first_panic.get_or_insert(panic);
            }
        }
        if let Some(panic) = first_panic {
            std::panic::resume_unwind(panic);
        }

        let mut shards = Vec::with_capacity(self.core.cfg.shards);
        let mut events = Vec::with_capacity(self.core.cfg.shards);
        let mut turns = Vec::with_capacity(self.core.cfg.shards);
        for cell in &self.core.cells {
            let mut cell = locked(cell);
            turns.push(cell.turns);
            // Taken by value: the shard's slice of the trace and its
            // DES state are freed before the next outcome is built.
            match cell.replay.take() {
                Some((workload, state)) => {
                    events.push(state.events_processed());
                    shards.push(state.finish(&cell.cfg, &workload));
                }
                None => {
                    // Never loaded: an empty single-cluster outcome.
                    events.push(0);
                    shards.push(SimOutcome {
                        metrics: RunMetrics::empty(cell.cfg.policy.name(), 0),
                        util: UtilizationRecorder::new(cell.cfg.capacity),
                        rescales: 0,
                        cancelled: 0,
                        names: Vec::new(),
                        peak_queue_len: 0,
                        peak_queue_len_raw: 0,
                    });
                }
            }
        }
        let merged = RunMetrics::merge(
            &self
                .core
                .capacities
                .iter()
                .zip(&shards)
                .map(|(&cap, outcome)| (cap, &outcome.metrics))
                .collect::<Vec<_>>(),
        );
        FederationOutcome {
            merged,
            shards,
            capacities: self.core.capacities.clone(),
            events,
            turns,
            drain_order: std::mem::take(&mut *locked(&self.core.drain_order)),
        }
    }
}

impl Drop for FederationRuntime {
    fn drop(&mut self) {
        // join() took the workers; an early drop (panic unwind, test
        // teardown) waits for them to finish the replay. A worker's
        // panic is dropped with it: Drop must not panic.
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
    }
}

/// One worker: pop the front shard, step it one quantum, push it back
/// at the tail while it has events left. An empty queue means every
/// unfinished shard is in another worker's hands — who will push it
/// back and pop it again — and nothing ever adds a shard: exit.
fn worker_loop(core: &Core) {
    let pop = || locked(&core.run_queue).pop_front();
    while let Some(shard) = pop() {
        let more = {
            let mut cell = locked(&core.cells[shard]);
            cell.turns += 1;
            let ShardCell { cfg, replay, .. } = &mut *cell;
            let (workload, state) = replay.as_mut().expect("only seeded shards are queued");
            state.step(cfg, workload, core.cfg.quantum)
        };
        if more {
            locked(&core.run_queue).push_back(shard);
        } else {
            locked(&core.drain_order).push(shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::RoundRobin;
    use elastic_core::{Policy, PolicyConfig};
    use hpc_metrics::Duration;
    use hpc_workload::JobSpec;
    use sched_sim::{OverheadModel, ScalingModel};

    fn sim_cfg(capacity: u32) -> SimConfig {
        SimConfig {
            capacity,
            policy: Box::new(Policy::rigid_max(PolicyConfig::default())),
            scaling: ScalingModel::default(),
            overhead: OverheadModel::default(),
            cancellations: Vec::new(),
        }
    }

    fn burst(n: usize, work: f64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                JobSpec::malleable(format!("j{i:03}"), 1, 2, work, 1)
                    .at(Duration::from_secs(i as f64))
            })
            .collect()
    }

    #[test]
    fn single_submission_is_enforced() {
        let rt = FederationRuntime::new(FederationConfig::new(2).with_workers(1), |_| sim_cfg(8));
        let handle = rt.handle();
        let wl = WorkloadSpec::new(burst(4, 10.0));
        handle.submit(&wl, &mut RoundRobin::new());
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.submit(&wl, &mut RoundRobin::new())
        }));
        assert!(second.is_err(), "second submission must panic");
    }

    #[test]
    fn empty_shards_are_born_drained() {
        // 3 shards, all jobs forced onto shard 0.
        struct Pin;
        impl PlacementPolicy for Pin {
            fn name(&self) -> String {
                "pin".into()
            }
            fn place(&mut self, _: &JobSpec, _: &[crate::placement::ShardLoad]) -> usize {
                0
            }
        }
        let mut rt =
            FederationRuntime::new(FederationConfig::new(3).with_workers(2), |_| sim_cfg(8));
        rt.handle()
            .submit(&WorkloadSpec::new(burst(6, 5.0)), &mut Pin);
        rt.start();
        let out = rt.join();
        assert_eq!(out.events[1], 0);
        assert_eq!(out.events[2], 0);
        assert!(out.events[0] > 0);
        assert_eq!(out.shards[1].metrics.jobs.len(), 0);
        assert_eq!(out.merged.jobs.len(), 6);
        assert_eq!(out.turns[1], 0, "unloaded shards never get a turn");
    }

    #[test]
    fn small_quantum_lets_light_shards_drain_first() {
        // One worker so turn order is the queue order; a tiny quantum
        // forces round-robin between the heavy shard 0 and light shard 1.
        struct ByIndex(usize);
        impl PlacementPolicy for ByIndex {
            fn name(&self) -> String {
                "by_index".into()
            }
            fn place(&mut self, _: &JobSpec, _: &[crate::placement::ShardLoad]) -> usize {
                let s = if self.0 < 40 { 0 } else { 1 };
                self.0 += 1;
                s
            }
        }
        // Heavy shard: 40 jobs; light shard: 2 jobs.
        let jobs = burst(42, 5.0);
        let wl = WorkloadSpec::new(jobs);

        let run = |quantum: usize| {
            let mut rt = FederationRuntime::new(
                FederationConfig::new(2)
                    .with_workers(1)
                    .with_quantum(quantum),
                |_| sim_cfg(8),
            );
            rt.handle().submit(&wl, &mut ByIndex(0));
            rt.start();
            rt.join()
        };

        let fair = run(2);
        assert_eq!(
            fair.drain_order,
            vec![1, 0],
            "under a small quantum the light shard finishes first"
        );
        assert!(fair.turns[0] > fair.turns[1]);

        let hog = run(usize::MAX);
        assert_eq!(
            hog.drain_order,
            vec![0, 1],
            "an unbounded quantum drains shards in schedule order"
        );
        assert_eq!(hog.turns[0], 1, "one turn drains everything");

        // Fairness is a latency property; outcomes stay identical.
        assert_eq!(fair.merged, hog.merged);
    }

    #[test]
    fn one_shard_quantum_replay_is_bit_identical_to_single_cluster() {
        // The one-shard federation must be indistinguishable from a
        // monolithic single-cluster drain even when the work-queue
        // scheduler slices the replay into tiny `step(max_events)`
        // quanta — and the arrival span here is wide enough that those
        // quantum boundaries repeatedly land across the calendar
        // queue's bucket-epoch rebuilds (the far list re-bucketizes
        // several times as the run advances).
        let wl = WorkloadSpec::new(burst(120, 15.0));
        let mono = sched_sim::simulate(&sim_cfg(8), &wl);
        for quantum in [3usize, 17, 1000] {
            let mut rt = FederationRuntime::new(
                FederationConfig::new(1)
                    .with_workers(1)
                    .with_quantum(quantum),
                |_| sim_cfg(8),
            );
            rt.handle().submit(&wl, &mut RoundRobin::new());
            rt.start();
            let out = rt.join();
            assert_eq!(out.shards.len(), 1);
            assert_eq!(
                out.shards[0].metrics, mono.metrics,
                "quantum {quantum} diverged from the monolithic replay"
            );
            assert_eq!(out.merged, mono.metrics);
            assert_eq!(out.shards[0].rescales, mono.rescales);
            assert_eq!(out.shards[0].peak_queue_len, mono.peak_queue_len);
            assert_eq!(out.shards[0].peak_queue_len_raw, mono.peak_queue_len_raw);
        }
    }

    #[test]
    fn worker_count_does_not_change_the_outcome() {
        let wl = WorkloadSpec::new(burst(60, 12.0));
        let run = |workers: usize| {
            let mut rt = FederationRuntime::new(
                FederationConfig::new(4)
                    .with_workers(workers)
                    .with_quantum(8),
                |_| sim_cfg(8),
            );
            rt.handle().submit(&wl, &mut RoundRobin::new());
            rt.start();
            rt.join()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.merged, four.merged);
        assert_eq!(one.events, four.events);
        for (a, b) in one.shards.iter().zip(&four.shards) {
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn least_loaded_skips_open_breaker_shards() {
        use crate::placement::LeastLoaded;
        use hpc_workload::{FlakyEvent, FlakyOp, FlakySpec};

        // Shard 1's schedule trips its breaker at t = 0 (threshold 1);
        // the cooldown half-opens it at t = 300.
        let flaky = FlakySpec::new(vec![FlakyEvent {
            at: Duration::from_secs(0.0),
            op: FlakyOp::LaunchFail,
        }])
        .with_breaker(1, Duration::from_secs(300.0));
        let mut board =
            ShardBreakerBoard::new(2, &FlakySpec::new(Vec::new())).with_shard_spec(1, flaky);

        // Long-estimated jobs so shard 0's committed load keeps
        // growing — an unmasked LeastLoaded would alternate shards.
        let jobs: Vec<JobSpec> = (0..8)
            .map(|i| {
                JobSpec::malleable(format!("j{i:02}"), 1, 2, 20.0, 1)
                    .at(Duration::from_secs(i as f64 * 50.0))
                    .with_walltime_estimate(Duration::from_secs(10_000.0))
            })
            .collect();
        let wl = WorkloadSpec::new(jobs);

        let rt = FederationRuntime::new(FederationConfig::new(2).with_workers(1), |_| sim_cfg(8));
        let assignment = rt
            .handle()
            .submit_resilient(&wl, &mut LeastLoaded::new(), &mut board);

        // Arrivals before the t = 300 half-open all avoid shard 1, even
        // though shard 0 grows ever more loaded; the first arrival at
        // or past 300 is the probe that lands on (and closes) shard 1.
        for (i, &shard) in assignment.iter().enumerate() {
            let at = i as f64 * 50.0;
            if at < 300.0 {
                assert_eq!(shard, 0, "open breaker must mask shard 1 at t={at}");
            }
        }
        assert_eq!(
            assignment[6], 1,
            "half-open probe at t=300 routes to the now-least-loaded shard 1"
        );
        assert!(
            assignment[7] == 1,
            "probe success closed the breaker; shard 1 is least loaded"
        );
        assert_eq!(board.trips(1), 1);
    }

    #[test]
    fn all_open_breakers_still_route_somewhere() {
        use crate::placement::LeastLoaded;
        use hpc_workload::{FlakyEvent, FlakyOp, FlakySpec};

        let flaky = FlakySpec::new(vec![FlakyEvent {
            at: Duration::from_secs(0.0),
            op: FlakyOp::LaunchFail,
        }])
        .with_breaker(1, Duration::from_secs(1e6));
        let mut board = ShardBreakerBoard::new(2, &flaky);
        let wl = WorkloadSpec::new(burst(4, 10.0));
        let mut rt =
            FederationRuntime::new(FederationConfig::new(2).with_workers(1), |_| sim_cfg(8));
        let assignment = rt
            .handle()
            .submit_resilient(&wl, &mut LeastLoaded::new(), &mut board);
        assert_eq!(assignment.len(), 4, "every job still routed");
        rt.start();
        assert_eq!(rt.join().merged.jobs.len(), 4);
    }

    #[test]
    fn board_specs_override_partitioned_flaky_schedules() {
        use crate::placement::RoundRobin;
        use hpc_workload::FlakySpec;

        // The workload itself carries no flaky schedule; the board
        // does (threshold high enough never to trip during routing).
        let storm = FlakySpec::storm(7, 6, Duration::from_secs(400.0))
            .with_breaker(u32::MAX, Duration::from_secs(120.0));
        let mut board = ShardBreakerBoard::new(1, &storm);
        let wl = WorkloadSpec::new(burst(12, 40.0));
        assert!(wl.faults.flaky.is_empty());

        let mut rt =
            FederationRuntime::new(FederationConfig::new(1).with_workers(1), |_| sim_cfg(4));
        rt.handle()
            .submit_resilient(&wl, &mut RoundRobin::new(), &mut board);
        rt.start();
        let out = rt.join();
        assert!(
            out.merged.faults.transient_faults > 0,
            "the shard replayed the board's flaky schedule"
        );
    }

    #[test]
    fn a_worker_panic_reaches_join() {
        use elastic_core::{Action, ClusterView, JobId, SchedulingPolicy};

        struct PanicsOnSubmit;
        impl SchedulingPolicy for PanicsOnSubmit {
            fn name(&self) -> String {
                "panics_on_submit".into()
            }
            fn launcher_slots(&self) -> u32 {
                0
            }
            fn on_submit(&self, _: &ClusterView, _: JobId, _: SimTime) -> Vec<Action> {
                panic!("policy bug")
            }
            fn on_complete(&self, _: &ClusterView, _: SimTime) -> Vec<Action> {
                Vec::new()
            }
        }

        let mut rt =
            FederationRuntime::new(FederationConfig::new(2).with_workers(2), |_| SimConfig {
                policy: Box::new(PanicsOnSubmit),
                ..sim_cfg(8)
            });
        rt.handle()
            .submit(&WorkloadSpec::new(burst(8, 5.0)), &mut RoundRobin::new());
        rt.start();

        // join() on a helper thread: a join that waits for shards the
        // dead workers will never finish must fail this test, not hang it.
        let (answer, watchdog) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.join()));
            let _ = answer.send(joined.is_err());
        });
        let panicked = watchdog
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("join() still blocked 10 s after both workers panicked");
        assert!(panicked, "join must re-raise the worker's panic");
        helper.join().expect("the helper caught join's panic");
    }

    #[test]
    fn batched_submission_matches_one_shot() {
        use crate::placement::LeastLoaded;

        // Load-sensitive placement with expiring committed work: any
        // divergence in how the batched path advances the tracker
        // across chunk boundaries would change the assignment.
        let jobs: Vec<JobSpec> = (0..30)
            .map(|i| {
                JobSpec::malleable(format!("j{i:02}"), 1, 2, 15.0 + (i % 5) as f64 * 10.0, 1)
                    .at(Duration::from_secs(i as f64 * 7.0))
                    .with_walltime_estimate(Duration::from_secs(60.0 + (i % 3) as f64 * 120.0))
            })
            .collect();
        let wl = WorkloadSpec::new(jobs.clone());

        let mut one_shot =
            FederationRuntime::new(FederationConfig::new(3).with_workers(2), |_| sim_cfg(8));
        let direct = one_shot.handle().submit(&wl, &mut LeastLoaded::new());
        one_shot.start();
        let direct_out = one_shot.join();

        let mut batched =
            FederationRuntime::new(FederationConfig::new(3).with_workers(2), |_| sim_cfg(8));
        let mut placement = LeastLoaded::new();
        let mut session = batched.handle().batched_submit(&mut placement);
        for chunk in jobs.chunks(7) {
            session.push(chunk);
        }
        assert_eq!(session.routed(), 30);
        let chunked = session.finish();
        batched.start();
        let batched_out = batched.join();

        assert_eq!(chunked, direct, "chunking must not change placement");
        assert_eq!(batched_out.merged, direct_out.merged);
        for (a, b) in batched_out.shards.iter().zip(&direct_out.shards) {
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn batched_submission_claims_the_single_submission() {
        let rt = FederationRuntime::new(FederationConfig::new(2).with_workers(1), |_| sim_cfg(8));
        let handle = rt.handle();
        let mut placement = RoundRobin::new();
        let mut session = handle.batched_submit(&mut placement);
        session.push(&burst(4, 10.0));
        // The open session already owns the federation's one
        // submission: a one-shot submit must panic even before finish.
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.submit(&WorkloadSpec::new(burst(2, 5.0)), &mut RoundRobin::new())
        }));
        assert!(second.is_err(), "concurrent one-shot submit must panic");
        assert_eq!(session.finish(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn drop_without_join_reaps_workers() {
        let mut rt =
            FederationRuntime::new(FederationConfig::new(2).with_workers(2), |_| sim_cfg(8));
        rt.handle()
            .submit(&WorkloadSpec::new(burst(8, 5.0)), &mut RoundRobin::new());
        rt.start();
        drop(rt); // must not hang or leak threads
    }
}
