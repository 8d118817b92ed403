//! The federation runtime: N sharded clusters drained by M scoped
//! worker threads.
//!
//! Each shard is a complete single-cluster simulation (its own
//! `SimConfig`, its own policy instance, its own event queue).
//!
//! A federation replays a *closed* batch: one submission, routed and
//! partitioned before any worker exists, and nothing adds work
//! afterwards. [`FederationRuntime::start`] therefore replays the whole
//! batch in one call: it spawns the workers inside one
//! `std::thread::scope`, each claims the next shard, builds its
//! `SimState` from the shard's slice of the trace, drains it to its end
//! in one `SimState::step`, finishes it into the shard's outcome and
//! drops the slice, then claims another; `start` returns once every
//! worker has — no worker outlives it. The calling thread only routes
//! ([`FederationRuntime::submit`]) and merges
//! ([`FederationRuntime::join`]): no per-job work of a shard's replay
//! runs on it.
//!
//! Determinism holds by construction: shards share no mutable state,
//! each shard is claimed by exactly one worker, and a shard's replay is
//! the same whichever worker drains it — so worker count and claim
//! interleaving cannot change any shard's outcome.

use std::sync::Mutex;

use elastic_core::RunMetrics;
use hpc_metrics::sync::locked;
use hpc_metrics::Utilization;
use hpc_workload::WorkloadSpec;
use sched_sim::{SimConfig, SimOutcome, SimState};

use crate::placement::{route, PlacementPolicy};

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

/// One shard's simulation.
struct ShardCell {
    /// The shard's cluster, its own policy instance included.
    cfg: SimConfig,
    /// The shard's slice of the trace: `None` until submission routes
    /// a job here, and for good when placement left the shard empty.
    /// The worker that claims the shard takes it and drops it once the
    /// replay is finished.
    part: Option<WorkloadSpec>,
    /// What that worker left: the shard's outcome and the events its
    /// replay popped.
    done: Option<(SimOutcome, u64)>,
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
    /// Events each shard processed.
    pub events: Vec<u64>,
    /// Turns each shard was granted: 1 for a loaded shard, replayed in
    /// one go by one worker, and 0 for one the placement left empty.
    pub turns: Vec<u64>,
}

impl FederationOutcome {
    /// Total events processed across all shards.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }
}

/// The federation runtime: owns the shard cells. A replay is
/// [`submit`](FederationRuntime::submit) →
/// [`start`](FederationRuntime::start) →
/// [`join`](FederationRuntime::join), each exactly once.
pub struct FederationRuntime {
    cfg: FederationConfig,
    cells: Vec<ShardCell>,
    submitted: bool,
    started: bool,
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
        FederationRuntime {
            cells: (0..cfg.shards)
                .map(|i| ShardCell {
                    cfg: make_sim(i),
                    part: None,
                    done: None,
                })
                .collect(),
            cfg,
            submitted: false,
            started: false,
        }
    }

    /// The runtime itself, so `fed.handle().submit(..)` is
    /// `fed.submit(..)`; kept for `benchmark/`, which spells a
    /// submission that way.
    pub fn handle(&mut self) -> &mut FederationRuntime {
        self
    }

    /// The configuration this runtime was built with (workers already
    /// clamped).
    pub fn config(&self) -> &FederationConfig {
        &self.cfg
    }

    /// Routes every job of `workload` to a shard via `placement` and
    /// partitions the trace into the shards' slices; nothing more; the
    /// shards' simulations are built by the workers in
    /// [`FederationRuntime::start`]. Returns the per-job shard
    /// assignment (workload order).
    ///
    /// The placement pre-pass is single-threaded and deterministic —
    /// the partition is fixed before any worker thread exists, so
    /// replay results cannot depend on worker count. It sorts the
    /// batch's estimated ends once (8 bytes a job, freed before the
    /// partition) and walks them with a cursor as arrivals advance, so
    /// each job costs `placement` one call and the snapshots a few
    /// adds, whatever the number of jobs in flight. A slice shares its
    /// jobs' names with `workload`; no name is copied.
    ///
    /// The workload is not validated here: each shard's slice is, when
    /// its worker builds the shard's `SimState`, and an unreplayable
    /// slice panics that worker, which [`FederationRuntime::start`]
    /// re-raises.
    ///
    /// # Panics
    /// If called after [`FederationRuntime::start`], called twice, or
    /// if `placement` routes a job out of range.
    pub fn submit(
        &mut self,
        workload: &WorkloadSpec,
        placement: &mut dyn PlacementPolicy,
    ) -> Vec<usize> {
        assert!(
            !self.started,
            "submit after start: the workload must be routed before workers run"
        );
        assert!(
            !self.submitted,
            "a federation accepts exactly one submission"
        );
        self.submitted = true;
        let capacities: Vec<u32> = self.cells.iter().map(|cell| cell.cfg.capacity).collect();
        let assignment = route(&workload.jobs, &capacities, placement);
        for (cell, part) in self
            .cells
            .iter_mut()
            .zip(workload.partition(&assignment, capacities.len()))
        {
            cell.part = (!part.jobs.is_empty()).then_some(part);
        }
        assignment
    }

    /// Replays every loaded shard on `workers` threads named
    /// `fed-worker-{w}`, which claim the shards in index order; shards
    /// the placement left empty are skipped. The worker that claims a
    /// shard builds its `SimState` (validating the shard's slice),
    /// drains it, finishes it into the shard's outcome and drops the
    /// slice. Returns when every worker has returned.
    ///
    /// # Panics
    /// If no workload was submitted, or if called twice. If a worker
    /// panicked (an unreplayable slice, or a policy hook, say), the
    /// other workers still replay every shard they can reach, and the
    /// first worker's own panic is then re-raised here; a shard whose
    /// worker panicked has no outcome.
    pub fn start(&mut self) {
        assert!(self.submitted, "start before submit: nothing to replay");
        assert!(!self.started, "a federation starts exactly once");
        self.started = true;
        // A claim holds the lock only for `next()`: a panicking drain
        // never poisons it.
        let claims = Mutex::new(self.cells.iter_mut());
        let first_panic = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.cfg.workers)
                .map(|w| {
                    std::thread::Builder::new()
                        .name(format!("fed-worker-{w}"))
                        .spawn_scoped(scope, || drain(&claims))
                        .expect("spawn federation worker")
                })
                .collect();
            // Every worker joined by hand: a panic the scope itself
            // caught would re-raise as its own message, not the worker's.
            let mut first_panic = None;
            for worker in workers {
                if let Err(panic) = worker.join() {
                    first_panic.get_or_insert(panic);
                }
            }
            first_panic
        });
        if let Some(panic) = first_panic {
            std::panic::resume_unwind(panic);
        }
    }

    /// Merges the shard outcomes the workers left. Nothing is replayed
    /// or finished here: a shard the placement left empty gets an empty
    /// outcome, and every other one is already finished.
    ///
    /// # Panics
    /// If called before [`FederationRuntime::start`].
    pub fn join(self) -> FederationOutcome {
        assert!(self.started, "join before start");
        let (mut capacities, mut shards) = (Vec::new(), Vec::new());
        let (mut events, mut turns) = (Vec::new(), Vec::new());
        for ShardCell { cfg, done, .. } in self.cells {
            capacities.push(cfg.capacity);
            turns.push(u64::from(done.is_some()));
            match done {
                Some((outcome, popped)) => {
                    events.push(popped);
                    shards.push(outcome);
                }
                None => {
                    // Never loaded: an empty single-cluster outcome.
                    events.push(0);
                    shards.push(SimOutcome {
                        metrics: RunMetrics::empty(cfg.policy.name(), 0),
                        util: Utilization::new(cfg.capacity),
                        rescales: 0,
                        cancelled: 0,
                        peak_queue_len: 0,
                        peak_queue_len_raw: 0,
                    });
                }
            }
        }
        let merged = RunMetrics::merge(
            &capacities
                .into_iter()
                .zip(&shards)
                .map(|(cap, outcome)| (cap, &outcome.metrics))
                .collect::<Vec<_>>(),
        );
        FederationOutcome {
            merged,
            shards,
            events,
            turns,
        }
    }
}

/// One worker: claim the next shard and replay it — build, drain to
/// the end, finish — until no shard is left to claim.
fn drain(claims: &Mutex<std::slice::IterMut<'_, ShardCell>>) {
    loop {
        // Its own statement, so the lock is released before the replay.
        let claim = locked(claims).next();
        let Some(ShardCell { cfg, part, done }) = claim else {
            return;
        };
        // Taken: the slice is dropped here, on this worker, as soon as
        // its outcome is built.
        if let Some(workload) = part.take() {
            let mut state = SimState::new(cfg, &workload);
            state.step(cfg, &workload, usize::MAX);
            let events = state.events_processed();
            *done = Some((state.finish(cfg, &workload), events));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::RoundRobin;
    use elastic_core::{
        Action, ClusterView, JobId, Policy, PolicyConfig, PolicyKind, SchedulingPolicy,
    };
    use hpc_metrics::{Duration, SimTime};
    use hpc_workload::JobSpec;
    use sched_sim::{OverheadModel, ScalingModel};

    fn sim_cfg(capacity: u32) -> SimConfig {
        SimConfig {
            capacity,
            policy: Box::new(Policy::of_kind(
                PolicyKind::RigidMax,
                PolicyConfig::default(),
            )),
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
        let mut rt =
            FederationRuntime::new(FederationConfig::new(2).with_workers(1), |_| sim_cfg(8));
        let wl = WorkloadSpec::new(burst(4, 10.0));
        rt.handle().submit(&wl, &mut RoundRobin::new());
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.handle().submit(&wl, &mut RoundRobin::new())
        }));
        assert!(second.is_err(), "second submission must panic");
    }

    #[test]
    #[should_panic(expected = "submit after start")]
    fn submit_after_start_is_refused() {
        let mut rt =
            FederationRuntime::new(FederationConfig::new(2).with_workers(1), |_| sim_cfg(8));
        rt.submit(&WorkloadSpec::new(burst(4, 10.0)), &mut RoundRobin::new());
        rt.start();
        // A drained shard must not be re-seeded.
        rt.submit(&WorkloadSpec::new(burst(4, 10.0)), &mut RoundRobin::new());
    }

    #[test]
    fn empty_shards_are_born_drained() {
        // 3 shards, all jobs forced onto shard 0.
        struct Pin;
        impl PlacementPolicy for Pin {
            fn place(&mut self, _: &JobSpec, _: &[crate::placement::ShardLoad]) -> usize {
                0
            }
        }
        let mut rt =
            FederationRuntime::new(FederationConfig::new(3).with_workers(2), |_| sim_cfg(8));
        rt.submit(&WorkloadSpec::new(burst(6, 5.0)), &mut Pin);
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
        rt.submit(&wl, &mut RoundRobin::new());
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
            rt.submit(&wl, &mut RoundRobin::new());
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

    #[test]
    fn a_worker_panic_reaches_start() {
        let mut rt =
            FederationRuntime::new(FederationConfig::new(2).with_workers(2), |_| SimConfig {
                policy: Box::new(PanicsOnSubmit),
                ..sim_cfg(8)
            });
        rt.submit(&WorkloadSpec::new(burst(8, 5.0)), &mut RoundRobin::new());

        // start() on a helper thread: a start that waits for shards the
        // dead workers will never finish must fail this test, not hang it.
        let (answer, watchdog) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let started = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.start()));
            let payload = started.err().map(|panic| {
                panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
            });
            let _ = answer.send(payload);
        });
        let payload = watchdog
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("start() still blocked 10 s after both workers panicked")
            .expect("start must re-raise the worker's panic");
        assert_eq!(
            payload.as_deref(),
            Some("policy bug"),
            "start must re-raise the policy's own payload"
        );
        helper.join().expect("the helper caught start's panic");
    }

    #[test]
    fn an_unreplayable_slice_panics_in_start_not_submit() {
        let mut rt =
            FederationRuntime::new(FederationConfig::new(2).with_workers(2), |_| sim_cfg(8));
        // Job 3 (shard 1 under round-robin) has no replica to run on.
        let mut jobs = burst(4, 5.0);
        jobs[3] = JobSpec::malleable("j003", 0, 2, 5.0, 1).at(Duration::from_secs(3.0));
        rt.submit(&WorkloadSpec::new(jobs), &mut RoundRobin::new());
        let started = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.start()));
        let panic = started.expect_err("the worker that validates shard 1 panics");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(
            message.starts_with("workload not replayable: j003: bad replica bounds"),
            "{message}"
        );
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
