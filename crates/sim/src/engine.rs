//! The discrete-event simulator: a calendar queue around the
//! scheduling kernel and the shared execution model.
//!
//! This file is an **adapter**. It decides nothing: which hook fires
//! after which view mutation, how an eviction or a requeue is costed,
//! when the run is over and what its `RunMetrics` are all live in
//! `elastic_core::kernel::Kernel` — the same machine the live operator
//! drives — so the Simulation and Actual columns of Table 1 cannot
//! diverge. What it *mechanises*:
//!
//! * **The timeline.** [`SimState::new`] seeds one [`EventQueue`] from
//!   the [`WorkloadSpec`]: submissions at the per-job arrival times
//!   (same-instant arrivals coalesced into one [`Event::Submit`]),
//!   cancellations (per-job `cancel_at` and [`SimConfig::cancellations`];
//!   one timed exactly at its job's arrival is *on record* when the job
//!   is admitted, so the kernel retires it undecided), the policy timer,
//!   the `FaultSpec`'s capacity events and the `FlakySpec`'s transient
//!   faults. Which of several events at one instant pops first is the
//!   queue's business — it sorts by the kernel's `EventClass`, the
//!   order one operator tick reconciles them in — not the seeding
//!   order's. [`SimState::step`] pops an event and calls the kernel
//!   entry point it maps to.
//! * **Progress.** How a job executes — rate, rescale pause,
//!   checkpoint rollback, recovery window — is
//!   [`hpc_workload::model::Progress`] under the configured
//!   [`ScalingModel`] / [`OverheadModel`], the same integrator and
//!   structs the operator's `ModelExecutor` runs. What this file adds
//!   is the queue side: every launch or resize schedules the job's
//!   completion at `Progress::finishes_at` and bumps its generation,
//!   which turns the previously scheduled one into a stale entry. As in
//!   the paper's simulator, pod-startup overhead is not modeled
//!   (§4.3.1): a launch takes hold at once.
//! * **The kernel's effects** ([`Effects`]): launch / resize / stop as
//!   above; the next admission of a submit burst; the next live
//!   completion at the burst's instant straight off the queue; and the
//!   per-event bookkeeping (queue high-water marks, stale compaction)
//!   after each one.
//!
//! ## Trace-scale throughput
//!
//! Per-event cost is O(log n), not O(n): one persistent `ClusterView`
//! (inside the kernel) across the whole run, dense [`JobId`]s and no
//! `String` on the loop (names surface only in [`SimOutcome::names`]),
//! one queue entry and one policy dispatch per same-instant burst, and
//! stale completions compacted away once they exceed half the queue
//! ([`SimOutcome::peak_queue_len`] exposes the high-water mark).

use std::ops::Range;

use elastic_core::kernel::{Admission, Effects, Kernel, Stop};
use elastic_core::{ClusterView, JobState, RunMetrics, SchedulingPolicy};
use hpc_metrics::{Duration, JobId, SimTime, UtilizationRecorder};
use hpc_workload::{FaultEvent, FaultKind, JobSpec, WorkloadSpec};

use crate::events::{Event, EventQueue};
use crate::model::{OverheadModel, Progress, ScalingModel};

/// Simulation parameters. Submission times are *not* here: every job
/// of the replayed [`WorkloadSpec`] carries its own arrival time
/// (build fixed-gap schedules with `WorkloadSpec::spaced_every`).
pub struct SimConfig {
    /// Cluster slots (the paper's testbed: 64).
    pub capacity: u32,
    /// The scheduling policy under test.
    pub policy: Box<dyn SchedulingPolicy>,
    /// Strong-scaling model.
    pub scaling: ScalingModel,
    /// Rescale-overhead model.
    pub overhead: OverheadModel,
    /// Extra client cancellations to inject: `(time, job name)` — the
    /// DES analogue of `SchedulerClient::cancel` (ignored for jobs not
    /// yet submitted or already terminal at that time). Per-job
    /// `cancel_at` times in the workload are injected as well.
    pub cancellations: Vec<(Duration, String)>,
}

impl SimConfig {
    /// The paper's default setup: 64 slots, calibrated models.
    pub fn paper_default(policy: Box<dyn SchedulingPolicy>) -> Self {
        SimConfig {
            capacity: 64,
            policy,
            scaling: ScalingModel::default(),
            overhead: OverheadModel::default(),
            cancellations: Vec::new(),
        }
    }
}

/// Full result of one simulation run.
pub struct SimOutcome {
    /// Aggregate metrics (Table 1 columns; completed jobs only).
    pub metrics: RunMetrics,
    /// Per-job slot allocation over time (Fig. 9 profiles), keyed by
    /// [`JobId`]; resolve names through [`SimOutcome::names`].
    pub util: UtilizationRecorder,
    /// Number of rescale actions applied.
    pub rescales: u32,
    /// Number of jobs cancelled before completing.
    pub cancelled: u32,
    /// Job names indexed by [`JobId`] (= workload order) — the
    /// reporting edge of the id-keyed run.
    pub names: Vec<String>,
    /// Event-queue high-water mark counting *live* (non-stale) events
    /// only — the figure that tracks real future work; with stale
    /// compaction this stays O(live jobs) even on rescale-heavy runs.
    pub peak_queue_len: usize,
    /// Raw event-queue high-water mark including stale entries awaiting
    /// compaction — the historical semantics, kept for the queue-bound
    /// regression test (it bounds *storage*, not live work).
    pub peak_queue_len_raw: usize,
}

/// One job's execution state — its [`Progress`] and the flags that tell
/// a live queue entry from a stale one; everything else about the job
/// is the kernel's.
#[derive(Clone, Default)]
struct JobRt {
    /// Work done, rate and pause window; what an eviction retained
    /// while the job is queued.
    progress: Progress,
    /// Bumped whenever the scheduled completion dies.
    generation: u64,
    running: bool,
    /// The next launch restores from a checkpoint: pay the FullRestart
    /// recovery overhead before progress resumes.
    needs_recovery: bool,
    cancelled: bool,
    /// A cancellation timed exactly at the arrival instant: on record
    /// by the time the job is admitted.
    cancel_on_arrival: bool,
}

/// One job costs the replay 48 bytes of its own (`des-elastic-400k`
/// runs out of cache).
const _: () = assert!(std::mem::size_of::<JobRt>() == 48);

/// The queue side of the run: what [`Des`] mechanises the kernel's
/// effects on.
#[derive(Default)]
struct Timeline {
    jobs: Vec<JobRt>,
    queue: EventQueue,
    peak_queue_len: usize,
    peak_queue_len_raw: usize,
    events_processed: u64,
    timer_interval: Option<Duration>,
    /// Events the current [`SimState::step`] call may still pop.
    budget: usize,
    /// Jobs of the submit burst not pulled yet.
    admitting: Range<usize>,
    /// The completion `step` popped, which opens the complete burst.
    head: Option<(JobId, u64)>,
    /// The instant of the event being processed.
    now: SimTime,
}

impl Timeline {
    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let next = self.queue.pop()?;
        self.budget -= 1;
        self.events_processed += 1;
        self.now = next.0;
        Some(next)
    }

    /// Per-event bookkeeping: sample the queue high-water marks and
    /// sweep stale entries away when the compaction threshold trips.
    fn event_done(&mut self) {
        self.peak_queue_len = self.peak_queue_len.max(self.queue.live_len());
        self.peak_queue_len_raw = self.peak_queue_len_raw.max(self.queue.len());
        if self.queue.should_compact() {
            let jobs = &self.jobs;
            self.queue.compact(|e| match e {
                Event::Completion { job, generation } => {
                    jobs[job.index()].generation == *generation
                }
                Event::Requeue { job } => !jobs[job.index()].cancelled,
                _ => true,
            });
        }
    }
}

/// The DES's [`Effects`]: the timeline plus the models and specs the
/// caller owns.
struct Des<'a> {
    t: &'a mut Timeline,
    cfg: &'a SimConfig,
    specs: &'a [JobSpec],
}

impl Des<'_> {
    /// Schedules `job`'s completion where its progress says it ends.
    fn schedule_completion(&mut self, job: JobId) {
        let j = &self.t.jobs[job.index()];
        let finish = j.progress.finishes_at(self.specs[job.index()].work());
        let generation = j.generation;
        self.t
            .queue
            .push(finish, Event::Completion { job, generation });
    }
}

impl Effects for Des<'_> {
    fn next_admission(&mut self) -> Option<Admission> {
        let idx = self.t.admitting.next()?;
        let spec = &self.specs[idx];
        let job = JobState {
            id: JobId::from_index(idx),
            min_replicas: spec.min_replicas(),
            max_replicas: spec.max_replicas(),
            priority: spec.priority,
            submitted_at: SimTime::ZERO + spec.arrival,
            replicas: 0,
            last_action: SimTime::NEG_INFINITY,
            running: false,
            walltime_estimate: spec.walltime_estimate,
        };
        let cancelled = self.t.jobs[idx].cancel_on_arrival;
        Some(Admission { job, cancelled })
    }

    fn launch(&mut self, job: JobId, replicas: u32, now: SimTime) -> bool {
        let shape = &self.specs[job.index()].shape;
        let j = &mut self.t.jobs[job.index()];
        debug_assert!(!j.running);
        j.running = true;
        // A checkpoint/restart relaunch pays the FullRestart recovery
        // window before any progress; a plain launch (or a
        // kill-and-requeue restart from zero) starts immediately.
        let recovery = if std::mem::take(&mut j.needs_recovery) {
            self.cfg.overhead.recovery_total(shape, replicas)
        } else {
            Duration::ZERO
        };
        let rate = self.cfg.scaling.job_rate(shape, replicas);
        j.progress = Progress::launch(now, j.progress.done(), rate, recovery);
        self.schedule_completion(job);
        true
    }

    fn resize(&mut self, job: JobId, from: u32, to: u32, now: SimTime) -> bool {
        let shape = &self.specs[job.index()].shape;
        let j = &mut self.t.jobs[job.index()];
        debug_assert!(j.running);
        let rate = self.cfg.scaling.job_rate(shape, to);
        let pause = self.cfg.overhead.job_total(shape, from, to);
        j.progress.resize(now, rate, pause);
        j.generation += 1;
        self.t.queue.mark_stale(); // the previously scheduled completion died
        self.schedule_completion(job);
        true
    }

    fn stop(&mut self, job: JobId, why: Stop, now: SimTime) {
        let j = &mut self.t.jobs[job.index()];
        if why == Stop::Completed {
            return; // `next_completion` already settled it
        }
        if std::mem::take(&mut j.running) {
            j.progress.advance(now);
            self.t.queue.mark_stale(); // its scheduled completion died
        }
        j.generation += 1;
        match why {
            Stop::Evicted { rollback } => {
                j.progress.roll_back(rollback);
                j.needs_recovery = true;
            }
            Stop::Requeued { back_at, .. } => {
                j.progress = Progress::default();
                j.needs_recovery = false;
                self.t.queue.push(back_at, Event::Requeue { job });
            }
            Stop::Cancelled => j.cancelled = true,
            Stop::Failed { .. } | Stop::Completed => {}
        }
    }

    /// Consumes *consecutive* completion events at the burst's instant
    /// straight off the queue (within the step's event budget), skipping
    /// stale ones with no bookkeeping.
    fn next_completion(&mut self) -> Option<JobId> {
        loop {
            let (job, generation) = match self.t.head.take() {
                Some(head) => head,
                None => {
                    if self.t.budget == 0 {
                        return None;
                    }
                    match self.t.queue.peek() {
                        Some((t, Event::Completion { .. })) if t == self.t.now => {}
                        _ => return None,
                    }
                    let Some((_, Event::Completion { job, generation })) = self.t.pop() else {
                        unreachable!("peek promised a completion")
                    };
                    (job, generation)
                }
            };
            let j = &mut self.t.jobs[job.index()];
            if j.generation != generation {
                // Stale: the job was rescaled, preempted or cancelled
                // meanwhile.
                self.t.queue.note_stale_popped();
                continue;
            }
            debug_assert!(
                j.progress.done_at(self.t.now) >= self.specs[job.index()].work() - 1e-3,
                "completion fired early for {}",
                self.specs[job.index()].name
            );
            j.running = false;
            return Some(job);
        }
    }

    fn event_done(&mut self) {
        self.t.event_done();
    }
}

/// Resumable simulation state — the per-shard DES drive.
///
/// [`simulate`] builds one of these and drains it in a single call. The
/// federation layer (`hpc-federation`) instead keeps one `SimState` per
/// shard and drains each a bounded number of events at a time (its
/// run-queue *time quantum*), interleaving many shards over a small
/// pool of worker threads. Stepping in any quantum size is
/// **bit-identical** to one monolithic run: events pop in the same
/// deterministic order regardless of where the drain pauses.
///
/// The state does not own the [`SimConfig`] or [`WorkloadSpec`] it was
/// built from (the policy box is not cloneable; owners keep both next
/// to the state); every [`SimState::step`]/[`SimState::finish`] call
/// must receive the *same* pair passed to [`SimState::new`].
pub struct SimState {
    kernel: Kernel,
    timeline: Timeline,
}

impl SimState {
    /// Validates `workload` and seeds the event queue (submissions
    /// coalesced per timestamp, cancellations, the policy timer, fault
    /// events) exactly as a monolithic [`simulate`] run does.
    pub fn new(cfg: &SimConfig, workload: &WorkloadSpec) -> SimState {
        workload
            .validate()
            .unwrap_or_else(|e| panic!("workload not replayable: {e}"));
        let mut jobs = vec![JobRt::default(); workload.jobs.len()];
        let mut queue = EventQueue::new();

        // Submit coalescing: consecutive jobs whose arrival instants
        // coincide (zero gaps, or trace bursts) share one Submit event.
        let submit_at = |i: usize| SimTime::ZERO + workload.jobs[i].arrival;
        let mut i = 0usize;
        while i < jobs.len() {
            let at = submit_at(i);
            let mut count = 1usize;
            while i + count < jobs.len() && submit_at(i + count) == at {
                count += 1;
            }
            queue.push(
                at,
                Event::Submit {
                    first: JobId::from_index(i),
                    count: count as u32,
                },
            );
            i += count;
        }
        // A cancellation timed exactly at its job's arrival is on record
        // when the Submit (popped first: the lower class) admits the
        // job; the Cancel event then finds it terminal. One timed
        // earlier is a no-op, like a client cancelling an unknown name.
        let mut cancel = |queue: &mut EventQueue, at: Duration, i: usize| {
            jobs[i].cancel_on_arrival |= at == workload.jobs[i].arrival;
            let job = JobId::from_index(i);
            queue.push(SimTime::ZERO + at, Event::Cancel { job });
        };
        for (i, job) in workload.jobs.iter().enumerate() {
            if let Some(at) = job.cancel_at {
                cancel(&mut queue, at, i);
            }
        }
        // Policy timer: the DES analogue of the operator's periodic
        // timer pass. First firing one interval past the epoch; each
        // firing reschedules the next while any job is still
        // non-terminal.
        let timer_interval = cfg.policy.timer_interval();
        if let Some(iv) = timer_interval {
            assert!(
                iv.as_secs().is_finite() && iv.as_secs() > 0.0,
                "timer_interval must be finite and positive"
            );
            queue.push(SimTime::ZERO + iv, Event::Timer);
        }
        for (at, name) in &cfg.cancellations {
            let i = workload
                .jobs
                .iter()
                .position(|j| j.name == *name)
                .unwrap_or_else(|| panic!("cancellation for unknown job {name}"));
            cancel(&mut queue, *at, i);
        }
        // Same-instant capacity events keep the spec's order (they tie
        // on class and name no job, so insertion decides).
        for e in &workload.faults.events {
            let ev = match e.kind {
                FaultKind::NodeFail => Event::NodeFail { slots: e.slots },
                FaultKind::Reclaim => Event::CapacityReclaim { slots: e.slots },
                FaultKind::Return => Event::CapacityReturn { slots: e.slots },
            };
            queue.push(SimTime::ZERO + e.at, ev);
        }
        for (i, e) in workload.faults.flaky.events.iter().enumerate() {
            queue.push(SimTime::ZERO + e.at, Event::Flaky { index: i as u32 });
        }

        let mut kernel = Kernel::new(cfg.capacity, cfg.policy.launcher_slots());
        kernel.set_recovery(&workload.faults);
        // Jobs that have not arrived yet are not terminal.
        kernel.expect_jobs(jobs.len());
        SimState {
            kernel,
            timeline: Timeline {
                jobs,
                queue,
                timer_interval,
                ..Timeline::default()
            },
        }
    }

    /// Pending events (including stale completions awaiting compaction).
    pub fn pending_events(&self) -> usize {
        self.timeline.queue.len()
    }

    /// Events popped so far across all [`SimState::step`] calls.
    pub fn events_processed(&self) -> u64 {
        self.timeline.events_processed
    }

    /// The persistent cluster view the policy has been deciding on.
    pub fn view(&self) -> &ClusterView {
        self.kernel.view()
    }

    /// Pops and processes at most `max_events` events; returns `true`
    /// while events remain afterwards. `step(cfg, wl, usize::MAX)`
    /// drains the run in one call; a federation worker passes its
    /// quantum and pushes the shard back on its run queue while this
    /// returns `true`.
    ///
    /// Each event maps to one kernel entry point. Submissions and
    /// completions go through the kernel's burst drivers: every event
    /// at one instant of one kind is decided in a single policy
    /// invocation, with the per-event primitive sequence (consume →
    /// staleness check → effects → decide → apply → peak sample →
    /// compaction check) driven from inside the burst — so replay
    /// output and the quantum-stepping contract are identical to a
    /// one-event-one-call loop. An event the kernel retires as a no-op
    /// (a cancel or requeue of a terminal job, a timer after the last
    /// job) skips the per-event bookkeeping.
    pub fn step(&mut self, cfg: &SimConfig, workload: &WorkloadSpec, max_events: usize) -> bool {
        debug_assert_eq!(
            self.timeline.jobs.len(),
            workload.jobs.len(),
            "step must receive the workload the state was built from"
        );
        let kernel = &mut self.kernel;
        let policy = cfg.policy.as_ref();
        let mut des = Des {
            t: &mut self.timeline,
            cfg,
            specs: &workload.jobs,
        };
        des.t.budget = max_events;
        while des.t.budget > 0 {
            let Some((now, event)) = des.t.pop() else {
                return false;
            };
            let booked = match event {
                Event::Submit { first, count } => {
                    des.t.admitting = first.index()..first.index() + count as usize;
                    kernel.submit_burst(now, policy, &mut des);
                    true
                }
                Event::Requeue { job } => {
                    des.t.admitting = job.index()..job.index() + 1;
                    kernel.requeue_due(job, now, policy, &mut des)
                }
                Event::Completion { job, generation } => {
                    // The burst does the per-event bookkeeping itself.
                    des.t.head = Some((job, generation));
                    kernel.complete_burst(now, policy, &mut des);
                    false
                }
                Event::Cancel { job } => kernel.cancel(job, now, policy, &mut des),
                Event::NodeFail { slots } | Event::CapacityReclaim { slots } => {
                    let fault = FaultEvent {
                        at: Duration::from_secs(now.as_secs()),
                        slots,
                        kind: match event {
                            Event::NodeFail { .. } => FaultKind::NodeFail,
                            _ => FaultKind::Reclaim,
                        },
                    };
                    kernel.capacity_lost(&fault, now, policy, &mut des);
                    true
                }
                Event::CapacityReturn { slots } => {
                    kernel.capacity_returned(slots, now, policy, &mut des);
                    true
                }
                Event::Flaky { index } => {
                    let op = workload.faults.flaky.events[index as usize].op;
                    kernel.flaky(op, now, policy, &mut des);
                    true
                }
                Event::Timer => {
                    let fired = kernel.timer(now, policy, &mut des);
                    // Re-arm only while some *other* event is pending: a
                    // policy is a pure function of the view, so with
                    // nothing else left every future firing would decide
                    // the same nothing — re-arming would hang the run
                    // forever on a permanently starved job instead of
                    // letting it reach the starvation diagnostic.
                    if fired && !des.t.queue.is_empty() {
                        let iv = des
                            .t
                            .timer_interval
                            .expect("timer event implies an interval");
                        des.t.queue.push(now + iv, Event::Timer);
                    }
                    fired
                }
            };
            if booked {
                des.t.event_done();
            }
        }
        !des.t.queue.is_empty()
    }

    /// Consumes the drained state into a [`SimOutcome`].
    ///
    /// # Panics
    /// If events are still pending, or (diagnostically) if a job
    /// starved in the queue forever.
    pub fn finish(self, cfg: &SimConfig, workload: &WorkloadSpec) -> SimOutcome {
        let SimState { kernel, timeline } = self;
        assert!(
            timeline.queue.is_empty(),
            "finish called with {} events pending",
            timeline.queue.len()
        );
        // Starvation first: it is the *cause* of a non-drained view, so
        // it owns the diagnostic.
        if let Some(job) = kernel.unfinished().next() {
            panic!(
                "job {} never completed (starved in queue)",
                workload.jobs[job.index()].name
            );
        }
        #[cfg(debug_assertions)]
        kernel.check();
        let metrics = kernel.metrics(cfg.policy.as_ref(), |id| {
            let spec = &workload.jobs[id.index()];
            (
                spec.name.clone(),
                spec.priority,
                SimTime::ZERO + spec.arrival,
            )
        });
        SimOutcome {
            metrics,
            rescales: kernel.rescales(),
            cancelled: kernel.cancelled(),
            util: kernel.into_utilization(),
            names: workload.jobs.iter().map(|j| j.name.clone()).collect(),
            peak_queue_len: timeline.peak_queue_len,
            peak_queue_len_raw: timeline.peak_queue_len_raw,
        }
    }
}

/// Runs one simulation to completion, replaying the workload's own
/// arrival (and cancellation) times. Equivalent to draining a
/// [`SimState`] in a single unbounded step.
pub fn simulate(cfg: &SimConfig, workload: &WorkloadSpec) -> SimOutcome {
    let mut state = SimState::new(cfg, workload);
    while state.step(cfg, workload, usize::MAX) {}
    state.finish(cfg, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SizeClass;
    use elastic_core::{AgingSweep, FcfsBackfill, Policy, PolicyConfig, PolicyKind};
    use hpc_workload::generate_workload;

    fn policy(kind: PolicyKind, gap: f64) -> Box<dyn SchedulingPolicy> {
        Box::new(Policy::of_kind(
            kind,
            PolicyConfig {
                rescale_gap: Duration::from_secs(gap),
                launcher_slots: 1,
                shrink_spares_head: true,
            },
        ))
    }

    fn spaced(wl: WorkloadSpec, gap_s: f64) -> WorkloadSpec {
        wl.spaced_every(Duration::from_secs(gap_s))
    }

    fn one_job(class: SizeClass) -> WorkloadSpec {
        WorkloadSpec::new(vec![JobSpec::of_class("j0", class, 3)])
    }

    #[test]
    fn single_job_runtime_matches_model() {
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 180.0));
        let out = simulate(&cfg, &one_job(SizeClass::Medium));
        // Empty cluster: job runs at max replicas the whole time.
        let expect = cfg.scaling.runtime(SizeClass::Medium, 16);
        assert!(
            (out.metrics.total_time - expect).abs() < 1e-6,
            "total {} != model {expect}",
            out.metrics.total_time
        );
        assert_eq!(out.rescales, 0);
        assert_eq!(out.metrics.weighted_response, 0.0);
        assert_eq!(out.names, vec!["j0".to_string()]);
    }

    #[test]
    fn rigid_min_runs_longer_than_rigid_max_for_one_job() {
        let wl = one_job(SizeClass::Large);
        let min = simulate(
            &SimConfig::paper_default(policy(PolicyKind::RigidMin, 180.0)),
            &wl,
        );
        let max = simulate(
            &SimConfig::paper_default(policy(PolicyKind::RigidMax, 180.0)),
            &wl,
        );
        assert!(min.metrics.total_time > max.metrics.total_time);
    }

    #[test]
    fn simulation_is_deterministic() {
        let wl = spaced(generate_workload(11, 16), 90.0);
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 180.0));
        let a = simulate(&cfg, &wl);
        let b = simulate(&cfg, &wl);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.rescales, b.rescales);
    }

    #[test]
    fn zero_gap_coalesced_burst_matches_singleton_semantics() {
        // All 8 jobs submitted at t=0 through ONE coalesced Submit
        // event: decisions must equal the historical one-event-per-job
        // behaviour (each job decided with only its predecessors in
        // view), which the determinism of the metrics pins down.
        let wl = generate_workload(3, 8); // arrivals default to t = 0
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 180.0));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.metrics.jobs.len(), 8);
        // Every job shares the submission instant.
        assert!(out
            .metrics
            .jobs
            .iter()
            .all(|j| j.submitted_at == SimTime::ZERO));
        // Deterministic across runs.
        let again = simulate(&cfg, &wl);
        assert_eq!(out.metrics, again.metrics);
    }

    #[test]
    fn elastic_rescales_under_contention() {
        let wl = spaced(generate_workload(3, 16), 30.0); // heavy traffic
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 180.0));
        let out = simulate(&cfg, &wl);
        assert!(out.rescales > 0, "elastic never rescaled under load");
        // Non-elastic policies never rescale.
        for kind in [
            PolicyKind::Moldable,
            PolicyKind::RigidMin,
            PolicyKind::RigidMax,
        ] {
            let out = simulate(&SimConfig::paper_default(policy(kind, 180.0)), &wl);
            assert_eq!(out.rescales, 0, "{kind} rescaled");
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        for seed in 0..5 {
            let wl = spaced(generate_workload(seed, 16), 20.0);
            for kind in PolicyKind::ALL {
                let cfg = SimConfig::paper_default(policy(kind, 60.0));
                let out = simulate(&cfg, &wl);
                // Worker slots alone must fit under capacity minus one
                // launcher per concurrently running job (>= 1).
                assert!(
                    out.util.peak() <= 64,
                    "{kind} seed {seed}: peak worker slots {}",
                    out.util.peak()
                );
            }
        }
    }

    #[test]
    fn utilization_in_unit_range_and_meaningful() {
        let wl = spaced(generate_workload(9, 16), 90.0);
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 180.0));
        let out = simulate(&cfg, &wl);
        assert!(out.metrics.utilization > 0.3);
        assert!(out.metrics.utilization <= 1.0);
    }

    #[test]
    fn fcfs_backfill_runs_through_the_simulator() {
        // Heavy traffic: the queue blocks.
        let wl = spaced(generate_workload(11, 16), 30.0);
        let cfg = SimConfig::paper_default(Box::new(FcfsBackfill::new()));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.metrics.policy, "fcfs_backfill");
        assert_eq!(out.metrics.jobs.len(), 16);
        assert_eq!(out.rescales, 0, "FCFS never rescales");
        assert!(out.metrics.utilization > 0.2 && out.metrics.utilization <= 1.0);
        // Determinism holds for the new policy too.
        let cfg2 = SimConfig::paper_default(Box::new(FcfsBackfill::new()));
        assert_eq!(simulate(&cfg2, &wl).metrics, out.metrics);
    }

    #[test]
    fn cancellation_frees_slots_the_policy_reassigns() {
        // Three Large jobs on 64 slots: "a" takes 32+1, "b" 30+1, "c"
        // finds the cluster full and queues. Cancelling "a" mid-run
        // must make elastic reassign the freed slots *at the cancel
        // timestamp*: "b" expands and "c" starts immediately.
        let wl = WorkloadSpec::new(vec![
            JobSpec::of_class("a", SizeClass::Large, 3),
            JobSpec::of_class("b", SizeClass::Large, 3),
            JobSpec::of_class("c", SizeClass::Large, 3),
        ]);
        let mut cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 10.0));
        cfg.cancellations = vec![(Duration::from_secs(100.0), "a".into())];
        let out = simulate(&cfg, &wl);
        assert_eq!(out.cancelled, 1);
        assert_eq!(out.metrics.jobs.len(), 2, "victim excluded from outcomes");
        assert!(out.metrics.jobs.iter().all(|j| j.name != "a"));
        let c = out.metrics.jobs.iter().find(|j| j.name == "c").unwrap();
        assert_eq!(
            c.started_at,
            SimTime::from_secs(100.0),
            "queued job must start the instant the cancellation frees slots"
        );
        assert!(out.rescales >= 1, "survivor should expand into the hole");
    }

    #[test]
    fn all_jobs_cancelled_yields_empty_metrics_without_panicking() {
        let wl = WorkloadSpec::new(vec![JobSpec::of_class("solo", SizeClass::Large, 3)]);
        let mut cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 180.0));
        cfg.cancellations = vec![(Duration::from_secs(50.0), "solo".into())];
        let out = simulate(&cfg, &wl);
        assert_eq!(out.cancelled, 1);
        assert!(out.metrics.jobs.is_empty());
        assert_eq!(out.metrics.policy, "elastic");
        assert_eq!(out.metrics.total_time, 0.0);
    }

    #[test]
    fn cancel_of_queued_job_just_removes_it() {
        let wl = spaced(generate_workload(5, 6), 10.0);
        // Cancel the last job the moment it sits in the queue under
        // heavy traffic (it is submitted at 5 * 10 = 50s).
        let victim = wl.jobs[5].name.clone();
        let mut cfg = SimConfig::paper_default(policy(PolicyKind::RigidMax, 180.0));
        cfg.cancellations = vec![(Duration::from_secs(55.0), victim)];
        let out = simulate(&cfg, &wl);
        assert!(out.cancelled <= 1, "at most the one requested cancel");
        assert_eq!(out.metrics.jobs.len() + out.cancelled as usize, 6);
    }

    #[test]
    fn response_times_nonnegative_and_ordered_sanely() {
        let wl = spaced(generate_workload(21, 16), 90.0);
        let min = simulate(
            &SimConfig::paper_default(policy(PolicyKind::RigidMin, 180.0)),
            &wl,
        );
        for j in &min.metrics.jobs {
            assert!(j.started_at >= j.submitted_at);
            assert!(j.completed_at >= j.started_at);
        }
        // min_replicas leaves more slack => its weighted response should
        // be no worse than rigid-max's (paper Fig. 7c).
        let max = simulate(
            &SimConfig::paper_default(policy(PolicyKind::RigidMax, 180.0)),
            &wl,
        );
        assert!(
            min.metrics.weighted_response <= max.metrics.weighted_response + 1e-9,
            "min {} > max {}",
            min.metrics.weighted_response,
            max.metrics.weighted_response
        );
    }

    #[test]
    fn per_job_arrival_times_drive_submission() {
        // Trace-shaped arrivals: a burst of two at t=0, one at t=7.5,
        // one at t=7.5 (coalesced burst), one late at t=1000.
        let arrivals = [0.0, 0.0, 7.5, 7.5, 1000.0];
        let wl = WorkloadSpec::new(
            arrivals
                .iter()
                .enumerate()
                .map(|(i, &at)| {
                    JobSpec::of_class(format!("t{i}"), SizeClass::Small, 3)
                        .at(Duration::from_secs(at))
                })
                .collect(),
        );
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 180.0));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.metrics.jobs.len(), 5);
        for (j, &at) in out.metrics.jobs.iter().zip(&arrivals) {
            assert_eq!(
                j.submitted_at,
                SimTime::from_secs(at),
                "{} submitted at the workload's arrival time",
                j.name
            );
        }
        // Small jobs at 64 slots: the empty cluster at t=1000 starts the
        // straggler immediately.
        let late = &out.metrics.jobs[4];
        assert_eq!(late.started_at, SimTime::from_secs(1000.0));
    }

    #[test]
    fn workload_cancel_at_tears_the_job_down() {
        let wl = WorkloadSpec::new(vec![
            JobSpec::of_class("keep", SizeClass::Large, 3),
            JobSpec::of_class("drop", SizeClass::Large, 3).cancelled_at(Duration::from_secs(80.0)),
        ]);
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 10.0));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.cancelled, 1);
        assert_eq!(out.metrics.jobs.len(), 1);
        assert_eq!(out.metrics.jobs[0].name, "keep");
    }

    #[test]
    fn malleable_jobs_run_at_linear_speed() {
        // 1200 core-seconds on exactly 4 replicas (rigid annotation):
        // 300 s of runtime, bit-exact.
        let wl = WorkloadSpec::new(vec![JobSpec::malleable("m0", 4, 4, 1200.0, 1)]);
        let cfg = SimConfig::paper_default(Box::new(FcfsBackfill::new()));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.metrics.jobs.len(), 1);
        assert_eq!(out.metrics.total_time, 300.0);
        assert_eq!(out.metrics.mean_bounded_slowdown, 1.0);
    }

    #[test]
    fn elastic_policy_rescales_malleable_trace_jobs() {
        // Two malleable jobs whose max bounds exceed the cluster: the
        // first grabs everything, the second forces a shrink, and when
        // one completes the survivor expands — exercising the
        // job_total overhead path for class-less jobs.
        // "head" (16+1) and "bulk" (46+1) fill all 64 slots; "late"
        // needs 8+1, so the policy must shrink "bulk" (the head is
        // spared) to admit it, and expands survivors on completions.
        let wl = WorkloadSpec::new(vec![
            JobSpec::malleable("head", 8, 16, 16_000.0, 5),
            JobSpec::malleable("bulk", 8, 56, 48_000.0, 1),
            JobSpec::malleable("late", 8, 56, 48_000.0, 3).at(Duration::from_secs(100.0)),
        ]);
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 10.0));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.metrics.jobs.len(), 3);
        assert!(out.rescales >= 2, "expected shrink + expand rescales");
        assert!(out.metrics.mean_bounded_slowdown >= 1.0);
    }

    #[test]
    #[should_panic(expected = "never completed")]
    fn timer_policy_cannot_keep_a_starved_run_alive_forever() {
        // A job whose minimum footprint can never fit stays queued for
        // good. With a timer-driven policy the engine must still
        // terminate (the timer only re-arms while other events are
        // pending) and reach the diagnostic starvation assert instead
        // of spinning on timer firings against a frozen view.
        let wl = WorkloadSpec::new(vec![
            JobSpec::malleable("ok", 2, 4, 100.0, 3),
            JobSpec::malleable("impossible", 128, 128, 100.0, 1).at(Duration::from_secs(1.0)),
        ]);
        let policy = AgingSweep::new(
            Box::new(FcfsBackfill::new()),
            Duration::from_secs(50.0),
            Duration::from_secs(30.0),
        );
        let cfg = SimConfig::paper_default(Box::new(policy));
        let _ = simulate(&cfg, &wl);
    }

    #[test]
    fn quantum_stepping_is_bit_identical_to_monolithic_drain() {
        // The federation scheduler drains shards a few events at a
        // time; any quantum size must reproduce the monolithic run
        // exactly — metrics, rescales, peaks, everything.
        let wl = spaced(generate_workload(11, 16), 30.0);
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 60.0));
        let whole = simulate(&cfg, &wl);
        for quantum in [1usize, 3, 7, 64] {
            let cfg_q = SimConfig::paper_default(policy(PolicyKind::Elastic, 60.0));
            let mut st = SimState::new(&cfg_q, &wl);
            let mut turns = 0u32;
            while st.step(&cfg_q, &wl, quantum) {
                turns += 1;
            }
            let out = st.finish(&cfg_q, &wl);
            assert_eq!(out.metrics, whole.metrics, "quantum {quantum} diverged");
            assert_eq!(out.rescales, whole.rescales);
            assert_eq!(out.peak_queue_len, whole.peak_queue_len);
            assert_eq!(out.peak_queue_len_raw, whole.peak_queue_len_raw);
            assert_eq!(out.cancelled, whole.cancelled);
            assert!(quantum >= 64 || turns > 1, "tiny quantum must yield");
        }
    }

    #[test]
    fn sim_state_exposes_progress_counters() {
        let wl = one_job(SizeClass::Small);
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 180.0));
        let mut st = SimState::new(&cfg, &wl);
        assert_eq!(st.pending_events(), 1, "one coalesced submit seeded");
        assert_eq!(st.events_processed(), 0);
        let more = st.step(&cfg, &wl, 1);
        assert!(more, "completion still pending");
        assert_eq!(st.events_processed(), 1);
        while st.step(&cfg, &wl, 1) {}
        assert_eq!(st.pending_events(), 0);
        let out = st.finish(&cfg, &wl);
        assert_eq!(out.metrics.jobs.len(), 1);
    }

    #[test]
    fn empty_fault_spec_changes_nothing() {
        let wl = spaced(generate_workload(11, 16), 90.0);
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 180.0));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.metrics.faults, elastic_core::FaultStats::default());
    }

    fn recovery(strategy: elastic_core::RecoveryStrategy) -> Box<dyn SchedulingPolicy> {
        Box::new(elastic_core::RecoveryPolicy::new(
            policy(PolicyKind::Elastic, 10.0),
            strategy,
        ))
    }

    /// One malleable job holding most of the cluster, then a reclaim
    /// bites into its allocation and later returns.
    fn reclaim_workload() -> WorkloadSpec {
        use hpc_workload::{FaultEvent, FaultKind, FaultSpec};
        let wl = WorkloadSpec::new(vec![JobSpec::malleable("big", 8, 56, 100_000.0, 3)]);
        wl.with_faults(FaultSpec::new(vec![
            FaultEvent {
                at: Duration::from_secs(500.0),
                slots: 40,
                kind: FaultKind::Reclaim,
            },
            FaultEvent {
                at: Duration::from_secs(900.0),
                slots: 40,
                kind: FaultKind::Return,
            },
        ]))
    }

    #[test]
    fn shrink_on_reclaim_loses_no_work() {
        let cfg =
            SimConfig::paper_default(recovery(elastic_core::RecoveryStrategy::ShrinkOnReclaim));
        let out = simulate(&cfg, &reclaim_workload());
        assert_eq!(out.metrics.jobs.len(), 1);
        let f = out.metrics.faults;
        assert_eq!((f.evictions, f.requeues, f.permanent_failures), (0, 0, 0));
        assert_eq!(f.wasted_core_seconds, 0.0, "shrinking wastes nothing");
        assert!(out.rescales >= 2, "shrink on reclaim, expand on return");
    }

    #[test]
    fn checkpoint_restart_rolls_back_to_the_boundary() {
        let cfg =
            SimConfig::paper_default(recovery(elastic_core::RecoveryStrategy::CheckpointRestart));
        let wl = reclaim_workload();
        // Default checkpoint interval 300 s; reclaim at 500 s => the
        // 200 s tail past the 300 s checkpoint is wasted on all 56
        // replicas the job held.
        let out = simulate(&cfg, &wl);
        assert_eq!(out.metrics.jobs.len(), 1);
        let f = out.metrics.faults;
        assert_eq!(f.evictions, 1);
        assert_eq!(f.requeues, 0);
        assert!(
            (f.wasted_core_seconds - 56.0 * 200.0).abs() < 1e-6,
            "wasted {} != 56 replicas x 200 s rollback",
            f.wasted_core_seconds
        );
    }

    #[test]
    fn an_evicted_job_completes_where_its_progress_says() {
        use hpc_workload::{FaultEvent, FaultKind, FaultSpec};
        // 40 slots go for good at t=500: the job is evicted 200 s past
        // its last checkpoint and relaunches at once on the 23 workers
        // (+ launcher) that still fit, after the recovery window.
        let wl = WorkloadSpec::new(vec![JobSpec::malleable("big", 8, 56, 100_000.0, 3)]);
        let wl = wl.with_faults(FaultSpec::new(vec![FaultEvent {
            at: Duration::from_secs(500.0),
            slots: 40,
            kind: FaultKind::Reclaim,
        }]));
        let cfg =
            SimConfig::paper_default(recovery(elastic_core::RecoveryStrategy::CheckpointRestart));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.metrics.faults.evictions, 1);

        let evicted_at = SimTime::from_secs(500.0);
        let mut p = Progress::launch(SimTime::ZERO, 0.0, 56.0, Duration::ZERO);
        p.advance(evicted_at);
        p.roll_back(Duration::from_secs(200.0));
        assert_eq!(p.done(), 56.0 * 300.0);
        let recovery = cfg.overhead.recovery_total(&wl.jobs[0].shape, 23);
        assert!(recovery > Duration::ZERO);
        let p = Progress::launch(evicted_at, p.done(), 23.0, recovery);
        assert_eq!(out.metrics.jobs[0].completed_at, p.finishes_at(100_000.0));
    }

    #[test]
    fn kill_requeue_wastes_the_whole_attempt_and_backs_off() {
        let cfg = SimConfig::paper_default(recovery(elastic_core::RecoveryStrategy::KillRequeue));
        let out = simulate(&cfg, &reclaim_workload());
        assert_eq!(out.metrics.jobs.len(), 1, "retry succeeds within budget");
        let f = out.metrics.faults;
        assert_eq!(f.requeues, 1);
        assert_eq!(f.evictions, 0);
        assert_eq!(f.permanent_failures, 0);
        assert!(
            (f.wasted_core_seconds - 56.0 * 500.0).abs() < 1e-6,
            "wasted {} != the whole 500 s x 56-replica attempt",
            f.wasted_core_seconds
        );
        // The requeued job restarts from zero after the 30 s backoff.
        let j = &out.metrics.jobs[0];
        assert!(j.started_at >= SimTime::from_secs(530.0));
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_job_permanently() {
        use hpc_workload::{FaultEvent, FaultKind, FaultSpec};
        // Three reclaims, each timed to catch the job's retry (backoffs
        // 30/60 s), against a budget of 3 attempts: the third kill is
        // permanent and the run still terminates cleanly.
        let wl = WorkloadSpec::new(vec![JobSpec::malleable("doomed", 8, 56, 1e9, 3)]);
        let mut spec = FaultSpec::new(vec![
            FaultEvent {
                at: Duration::from_secs(100.0),
                slots: 60,
                kind: FaultKind::Reclaim,
            },
            FaultEvent {
                at: Duration::from_secs(200.0),
                slots: 60,
                kind: FaultKind::Reclaim,
            },
            FaultEvent {
                at: Duration::from_secs(150.0),
                slots: 60,
                kind: FaultKind::Return,
            },
            FaultEvent {
                at: Duration::from_secs(250.0),
                slots: 60,
                kind: FaultKind::Return,
            },
            FaultEvent {
                at: Duration::from_secs(300.0),
                slots: 60,
                kind: FaultKind::Reclaim,
            },
            FaultEvent {
                at: Duration::from_secs(350.0),
                slots: 60,
                kind: FaultKind::Return,
            },
        ]);
        spec.events.sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap());
        let wl = wl.with_faults(spec);
        let cfg = SimConfig::paper_default(recovery(elastic_core::RecoveryStrategy::KillRequeue));
        let out = simulate(&cfg, &wl);
        let f = out.metrics.faults;
        assert_eq!(f.requeues, 3);
        assert_eq!(f.permanent_failures, 1);
        assert!(out.metrics.jobs.is_empty(), "the job never completed");
        assert!(f.wasted_core_seconds > 0.0);
    }

    #[test]
    fn cancel_during_requeue_backoff_retires_the_job() {
        use hpc_workload::{FaultEvent, FaultKind, FaultSpec};
        let wl = WorkloadSpec::new(vec![JobSpec::malleable("victim", 8, 56, 1e9, 3)]);
        let wl = wl.with_faults(FaultSpec::new(vec![
            FaultEvent {
                at: Duration::from_secs(100.0),
                slots: 60,
                kind: FaultKind::Reclaim,
            },
            FaultEvent {
                at: Duration::from_secs(110.0),
                slots: 60,
                kind: FaultKind::Return,
            },
        ]));
        let mut cfg =
            SimConfig::paper_default(recovery(elastic_core::RecoveryStrategy::KillRequeue));
        // The kill lands at t=100, backoff expires at t=130; cancel in
        // between, while the job is alive but absent from the view.
        cfg.cancellations = vec![(Duration::from_secs(115.0), "victim".into())];
        let out = simulate(&cfg, &wl);
        assert_eq!(out.cancelled, 1);
        assert_eq!(out.metrics.faults.requeues, 1);
        assert_eq!(out.metrics.faults.permanent_failures, 0);
        assert!(out.metrics.jobs.is_empty());
    }

    #[test]
    fn node_failure_capacity_never_comes_back() {
        use hpc_workload::{FaultEvent, FaultKind, FaultSpec};
        // 40 slots die for good; the survivor finishes on what's left.
        let wl = WorkloadSpec::new(vec![JobSpec::malleable("j", 8, 56, 50_000.0, 3)]);
        let wl = wl.with_faults(FaultSpec::new(vec![FaultEvent {
            at: Duration::from_secs(200.0),
            slots: 40,
            kind: FaultKind::NodeFail,
        }]));
        let cfg =
            SimConfig::paper_default(recovery(elastic_core::RecoveryStrategy::ShrinkOnReclaim));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.metrics.jobs.len(), 1);
        // After the failure at most 24 slots exist; the job must have
        // shrunk below its original 56 workers.
        assert!(out.rescales >= 1);
        assert!(out.util.peak() <= 64);
    }

    #[test]
    fn queue_stays_bounded_under_rescale_heavy_load() {
        // A tiny rescale gap under heavy traffic makes elastic rescale
        // aggressively; every rescale strands a stale completion in the
        // heap. Compaction must keep the queue O(live jobs) instead of
        // O(submits + rescales).
        let n = 64usize;
        let wl = spaced(generate_workload(1, n), 15.0);
        let cfg = SimConfig::paper_default(policy(PolicyKind::Elastic, 10.0));
        let out = simulate(&cfg, &wl);
        assert!(
            out.rescales as usize > n,
            "scenario must be rescale-heavy (got {} rescales)",
            out.rescales
        );
        // Without compaction the raw peak would be >= initial submits
        // plus every stale completion (n + rescales). With it, the
        // queue never *stores* more than the pending submits + live
        // completions + the <=50% stale allowance — the historical
        // bound, asserted on the raw high-water mark.
        let bound = 2 * (n + 2);
        assert!(
            out.peak_queue_len_raw <= bound,
            "raw peak queue {} exceeds O(live) bound {bound} (rescales {})",
            out.peak_queue_len_raw,
            out.rescales
        );
        // The live peak counts only non-stale events: at most one
        // pending submit batch per future arrival plus one live
        // completion per running job — and never more than the raw
        // storage peak.
        assert!(out.peak_queue_len <= out.peak_queue_len_raw);
        assert!(
            out.peak_queue_len <= n + 2,
            "live peak {} exceeds live-event bound {}",
            out.peak_queue_len,
            n + 2
        );
    }
}
