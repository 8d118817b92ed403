//! The federation runtime: N sharded clusters, M worker threads, one
//! shard cursor.
//!
//! The runtime/handle split follows the async-runtime idiom: the
//! non-cloneable [`FederationRuntime`] *owns* the worker OS threads and
//! the shard cells, while the cheap, cloneable [`FederationHandle`] is
//! the submission surface — hand copies to whoever produces work, keep
//! the runtime where the threads must eventually be joined.
//!
//! Each shard is a complete single-cluster simulation (its own
//! `SimConfig`, its own policy instance, its own event queue). A worker
//! claims the next shard index off an atomic cursor and drains that
//! shard to its end in one `SimState::step`, then claims another.
//!
//! A federation replays a *closed* batch: one submission, seeded
//! before any worker exists, and nothing adds work afterwards. No
//! shard is ever handed back, so a worker whose claim runs past the
//! last shard has nothing to wait for and **exits**, and the replay is
//! over when the worker threads have returned.
//!
//! Determinism holds by construction: shards share no mutable state,
//! the cursor hands each shard index to exactly one worker, and a
//! shard's replay is the same whichever worker drains it — so worker
//! count and claim interleaving cannot change any shard's outcome.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use elastic_core::RunMetrics;
use hpc_metrics::sync::locked;
use hpc_metrics::UtilizationRecorder;
use hpc_workload::WorkloadSpec;
use sched_sim::{SimConfig, SimOutcome, SimState};

use crate::placement::{LoadTracker, PlacementPolicy};

/// Shape of a federation: how many shards and how many workers drive
/// them. [`FederationRuntime::new`] checks it, however it was built.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of shards (single-cluster simulations); at least one.
    pub shards: usize,
    /// Worker OS threads; at least one. More workers than shards is
    /// wasted: the runtime clamps to one per shard.
    pub workers: usize,
}

impl FederationConfig {
    /// A federation of `shards` clusters with as many workers as the
    /// host offers.
    pub fn new(shards: usize) -> FederationConfig {
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        FederationConfig {
            shards,
            workers: host,
        }
    }

    /// Builder: pins the worker count.
    pub fn with_workers(mut self, workers: usize) -> FederationConfig {
        self.workers = workers;
        self
    }
}

/// One shard's simulation. A cell is only ever touched by the worker
/// that claimed its shard, so the mutex is uncontended.
struct ShardCell {
    /// The shard's cluster, its own policy instance included.
    cfg: SimConfig,
    /// The shard's slice of the trace and the live DES state over it:
    /// `None` until submission seeds it, and for good when placement
    /// left the shard empty.
    replay: Option<(WorkloadSpec, SimState)>,
}

/// State shared between the runtime, its handles and its workers. A
/// replay never meets one of its mutexes poisoned: a shard whose drain
/// panicked is never claimed again, and `join` re-raises that panic
/// before it reads a cell.
struct Core {
    cfg: FederationConfig,
    cells: Vec<Mutex<ShardCell>>,
    capacities: Vec<u32>,
    /// The next shard index a worker claims; at or past `cells.len()`
    /// every shard is claimed. `Relaxed` suffices: it publishes no
    /// data — the cells are behind their mutexes and were seeded
    /// before any worker was spawned.
    next: AtomicUsize,
    loaded: AtomicBool,
    started: AtomicBool,
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
        let core = &*self.core;
        assert!(
            !core.started.load(Ordering::Acquire),
            "submit after start: the workload must be routed before workers run"
        );
        assert!(
            !core.loaded.swap(true, Ordering::AcqRel),
            "a federation accepts exactly one submission"
        );
        let shards = core.capacities.len();
        let mut tracker = LoadTracker::new(&core.capacities);
        let mut assignment = Vec::with_capacity(workload.jobs.len());
        for job in &workload.jobs {
            let now_s = job.arrival.as_secs();
            tracker.advance_to(now_s);
            let shard = placement.place(job, tracker.loads());
            assert!(
                shard < shards,
                "placement routed job {} to shard {shard} of a {shards}-shard federation",
                job.name
            );
            tracker.commit(shard, job, now_s);
            assignment.push(shard);
        }
        assert!(
            !core.started.load(Ordering::Acquire),
            "started during submit: shards were scheduled before they were seeded"
        );
        for (shard, part) in workload
            .partition(&assignment, shards)
            .into_iter()
            .enumerate()
        {
            if !part.jobs.is_empty() {
                let mut cell = locked(&core.cells[shard]);
                let state = SimState::new(&cell.cfg, &part);
                cell.replay = Some((part, state));
            }
        }
        assignment
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
    /// Turns each shard was granted: 1 for a seeded shard, drained in
    /// one go, and 0 for one the placement left empty.
    pub turns: Vec<u64>,
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
    /// instance; nothing is shared across shards. Clamps `cfg.workers`
    /// to one per shard.
    ///
    /// # Panics
    /// If `cfg` has no shard or no worker.
    pub fn new(
        mut cfg: FederationConfig,
        make_sim: impl Fn(usize) -> SimConfig,
    ) -> FederationRuntime {
        assert!(cfg.shards > 0, "a federation needs at least one shard");
        assert!(cfg.workers > 0, "a federation needs at least one worker");
        cfg.workers = cfg.workers.min(cfg.shards);
        let sims: Vec<SimConfig> = (0..cfg.shards).map(make_sim).collect();
        FederationRuntime {
            core: Arc::new(Core {
                capacities: sims.iter().map(|sim| sim.capacity).collect(),
                cells: sims
                    .into_iter()
                    .map(|cfg| Mutex::new(ShardCell { cfg, replay: None }))
                    .collect(),
                next: AtomicUsize::new(0),
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

    /// Spawns the worker threads, which claim the shards in index
    /// order. Shards the placement left empty are skipped.
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
    /// returning: each exits when no shard is left to claim — then
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
        if let Some(panic) = self.reap() {
            std::panic::resume_unwind(panic);
        }

        let mut shards = Vec::with_capacity(self.core.cfg.shards);
        let mut events = Vec::with_capacity(self.core.cfg.shards);
        let mut turns = Vec::with_capacity(self.core.cfg.shards);
        for cell in &self.core.cells {
            let mut cell = locked(cell);
            turns.push(u64::from(cell.replay.is_some()));
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
        }
    }
}

impl FederationRuntime {
    /// Joins every worker thread; the first one's panic, if any.
    fn reap(&mut self) -> Option<Box<dyn Any + Send>> {
        let mut first_panic = None;
        for worker in std::mem::take(&mut self.workers) {
            if let Err(panic) = worker.join() {
                first_panic.get_or_insert(panic);
            }
        }
        first_panic
    }
}

impl Drop for FederationRuntime {
    /// Waits the workers out when [`FederationRuntime::join`] did not
    /// (an early return after `start`), re-raising the first worker's
    /// panic unless this thread is already unwinding.
    fn drop(&mut self) {
        if let Some(panic) = self.reap() {
            if !std::thread::panicking() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// One worker: claim the next shard and drain it to the end, until a
/// claim runs past the last shard — every other shard is then done or
/// in another worker's hands, and nothing ever adds one: exit.
fn worker_loop(core: &Core) {
    while let Some(cell) = core.cells.get(core.next.fetch_add(1, Ordering::Relaxed)) {
        let mut cell = locked(cell);
        let ShardCell { cfg, replay } = &mut *cell;
        if let Some((workload, state)) = replay {
            state.step(cfg, workload, usize::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::RoundRobin;
    use elastic_core::{Action, ClusterView, JobId, Policy, PolicyConfig, SchedulingPolicy};
    use hpc_metrics::{Duration, SimTime};
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
        assert_eq!(out.turns[0], 1, "a seeded shard drains in one turn");
        assert_eq!(out.turns[1], 0, "unloaded shards never get a turn");
    }

    #[test]
    fn one_shard_replay_is_bit_identical_to_single_cluster() {
        // The one-shard federation must be indistinguishable from a
        // monolithic single-cluster drain.
        let wl = WorkloadSpec::new(burst(120, 15.0));
        let mono = sched_sim::simulate(&sim_cfg(8), &wl);
        let mut rt =
            FederationRuntime::new(FederationConfig::new(1).with_workers(1), |_| sim_cfg(8));
        rt.handle().submit(&wl, &mut RoundRobin::new());
        rt.start();
        let out = rt.join();
        assert_eq!(out.shards.len(), 1);
        assert_eq!(out.shards[0].metrics, mono.metrics);
        assert_eq!(out.merged, mono.metrics);
        assert_eq!(out.shards[0].rescales, mono.rescales);
        assert_eq!(out.shards[0].peak_queue_len, mono.peak_queue_len);
        assert_eq!(out.shards[0].peak_queue_len_raw, mono.peak_queue_len_raw);
    }

    #[test]
    fn worker_count_does_not_change_the_outcome() {
        let wl = WorkloadSpec::new(burst(60, 12.0));
        let run = |workers: usize| {
            let mut rt =
                FederationRuntime::new(FederationConfig::new(4).with_workers(workers), |_| {
                    sim_cfg(8)
                });
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

    /// A started two-shard federation whose policy hooks panic.
    fn started_panicking_runtime() -> FederationRuntime {
        let mut rt =
            FederationRuntime::new(FederationConfig::new(2).with_workers(2), |_| SimConfig {
                policy: Box::new(PanicsOnSubmit),
                ..sim_cfg(8)
            });
        rt.handle()
            .submit(&WorkloadSpec::new(burst(8, 5.0)), &mut RoundRobin::new());
        rt.start();
        rt
    }

    #[test]
    fn a_worker_panic_reaches_join() {
        let rt = started_panicking_runtime();

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
    fn drop_without_join_reaps_workers() {
        let mut rt =
            FederationRuntime::new(FederationConfig::new(2).with_workers(2), |_| sim_cfg(8));
        rt.handle()
            .submit(&WorkloadSpec::new(burst(8, 5.0)), &mut RoundRobin::new());
        rt.start();
        drop(rt); // must not hang or leak threads
    }

    #[test]
    #[should_panic(expected = "policy bug")]
    fn dropping_a_started_runtime_reraises_a_worker_panic() {
        drop(started_panicking_runtime());
    }

    #[test]
    #[should_panic(expected = "a federation needs at least one worker")]
    fn a_literal_config_is_checked_where_it_is_used() {
        let cfg = FederationConfig {
            shards: 2,
            workers: 0,
        };
        FederationRuntime::new(cfg, |_| sim_cfg(8));
    }
}
