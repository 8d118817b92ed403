//! The discrete-event simulator: an event queue around the
//! scheduling kernel and the shared execution model.
//!
//! This file is an **adapter**. It decides nothing: which hook fires
//! after which view mutation, how an eviction or a requeue is costed,
//! when the run is over and what its `RunMetrics` are all live in
//! `elastic_core::kernel::Kernel` — the same machine the live operator
//! drives — so the Simulation and Actual columns of Table 1 cannot
//! diverge. What it *mechanises*:
//!
//! * **The timeline.** The [`WorkloadSpec`]'s arrivals and faults are
//!   read in place through cursors ([`crate::events`]); the
//!   [`EventQueue`] holds what the run creates plus the cancellations
//!   (one timed exactly at its job's arrival is *on record* when the
//!   job is admitted, so the kernel retires it undecided). Same-instant
//!   events pop in the kernel's `EventClass` order, the one an operator
//!   tick reconciles them in. [`SimState::step`] pops an event and
//!   calls the kernel entry point it maps to.
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
//! Per-event cost is O(log n), not O(n): one persistent `ClusterView`
//! (inside the kernel), dense [`JobId`]s and no name on the loop (a
//! name surfaces only in the report, as the workload's own shared
//! string), one event and one policy dispatch per same-instant burst,
//! and a heap that holds only what the run creates, stale completions
//! swept.
//!
//! Memory is sized by the live jobs: a job's execution state (`JobRt`)
//! has a row from its launch until it ends, like its kernel and view
//! rows, so what a replay holds per job of its workload is two 4-byte
//! row-map entries (the kernel's and this file's) and its outcome row
//! ([`SimState::column_bytes`] reports each column).

use std::ops::Range;
use std::sync::Arc;

use elastic_core::kernel::{Admission, Effects, Kernel, Stop};
use elastic_core::{ClusterView, JobState, RunMetrics, SchedulingPolicy};
use hpc_metrics::{ColumnBytes, Counter, Duration, JobId, SimTime, Utilization};
use hpc_workload::model::{OverheadModel, Progress, ScalingModel};
use hpc_workload::{FaultEvent, FaultKind, WorkloadSpec};

use crate::events::{Event, EventQueue, Inputs};

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

/// Full result of one simulation run.
///
/// [`SimState::finish`] builds it only after the run's timeline and
/// the kernel's view are freed, so a replay peaks while it steps, not
/// while it reports. It holds no name list: a [`JobId`] is the job's index in the
/// replayed [`WorkloadSpec`], and each `JobOutcome` in `metrics` names
/// its job with the workload's own shared string (`Arc::ptr_eq` to
/// `JobSpec::name`), so a finished run copies no name.
pub struct SimOutcome {
    /// Aggregate metrics (Table 1 columns; completed jobs only).
    pub metrics: RunMetrics,
    /// Cluster utilization and its peak; with
    /// [`SimState::record_allocations`], the per-job slot allocation
    /// over time too (Fig. 9 profiles, [`Utilization::log`]), keyed by
    /// [`JobId`]: `workload.jobs[id.index()].name` is the job's name.
    pub util: Utilization,
    /// Number of rescale actions applied.
    pub rescales: u32,
    /// Number of jobs cancelled before completing.
    pub cancelled: u32,
    /// High-water mark of the *live* pending events: heap entries not
    /// known stale plus unread inputs (arrival instants, faults, flaky
    /// events), as the frozen `benchmark/expected` fingerprints count.
    pub peak_queue_len: usize,
    /// The same mark with the stale heap entries awaiting compaction
    /// counted too (the queue-bound regression test bounds it).
    pub peak_queue_len_raw: usize,
}

/// One launched job's execution state — its [`Progress`] and the
/// generation that tells a live completion entry from a stale one;
/// everything else about the job is the kernel's. It exists from the
/// job's first launch until the job ends: an evicted job keeps the
/// progress its checkpoint retained, and a job waiting out a requeue
/// backoff keeps its row, so a requeue event finds it.
#[derive(Clone, Default)]
struct JobRt {
    /// Work done, rate and pause window; what an eviction retained
    /// while the job is queued.
    progress: Progress,
    /// Bumped whenever the scheduled completion dies; widened into
    /// [`Event::Completion`]'s `u64`.
    generation: u32,
    running: bool,
    /// The next launch restores from a checkpoint: pay the FullRestart
    /// recovery overhead before progress resumes.
    needs_recovery: bool,
}

/// The launched jobs that have not ended: a [`JobRt`] row each, which
/// the next launch reuses once its job ends, found through a column of
/// one `u32` per workload job (0: no row; else the row plus one). A
/// dense column, where the view's row map hashes: every lookup here is
/// on the event loop, and the workload's length is known up front.
#[derive(Default)]
struct Launched {
    row_of: Vec<u32>,
    rows: Vec<JobRt>,
    /// Free rows, the last freed on top.
    free: Vec<u32>,
}

impl Launched {
    /// Room for the ids of a `jobs`-job workload, none launched.
    fn new(jobs: usize) -> Self {
        Launched {
            row_of: vec![0; jobs],
            ..Launched::default()
        }
    }

    fn row(&self, job: JobId) -> Option<usize> {
        self.row_of[job.index()]
            .checked_sub(1)
            .map(|row| row as usize)
    }

    fn get(&self, job: JobId) -> Option<&JobRt> {
        self.row(job).map(|row| &self.rows[row])
    }

    fn get_mut(&mut self, job: JobId) -> Option<&mut JobRt> {
        self.row(job).map(|row| &mut self.rows[row])
    }

    /// `job`'s row, a fresh one if it has none.
    fn get_or_insert(&mut self, job: JobId) -> &mut JobRt {
        let row = match self.row(job) {
            Some(row) => row,
            None => {
                let row = match self.free.pop() {
                    Some(row) => {
                        self.rows[row as usize] = JobRt::default();
                        row as usize
                    }
                    None => {
                        self.rows.push(JobRt::default());
                        self.rows.len() - 1
                    }
                };
                self.row_of[job.index()] = row as u32 + 1;
                row
            }
        };
        &mut self.rows[row]
    }

    /// Frees `job`'s row; whether it was running, if it had one.
    fn remove(&mut self, job: JobId) -> Option<bool> {
        let row = self.row(job)?;
        self.row_of[job.index()] = 0;
        self.free.push(row as u32);
        Some(self.rows[row].running)
    }
}

/// The queue side of the run: what [`Des`] mechanises the kernel's
/// effects on.
#[derive(Default)]
struct Timeline {
    jobs: Launched,
    /// Jobs whose cancellation is timed exactly at their arrival, in id
    /// order: on record by the time the job is admitted.
    cancel_on_arrival: Vec<JobId>,
    queue: EventQueue,
    inputs: Inputs,
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
    fn pop(&mut self, wl: &WorkloadSpec) -> Option<(SimTime, Event)> {
        let next = self.queue.pop_with(&mut self.inputs, wl)?;
        self.budget -= 1;
        self.events_processed += 1;
        self.now = next.0;
        Some(next)
    }

    /// Pending events: heap entries (stale completions included) plus
    /// unread inputs, an arrival instant counting once. The inputs count
    /// because the frozen `peak_queue_len` fingerprints record them.
    fn pending(&self) -> usize {
        self.queue.len() + self.inputs.unread
    }

    /// Per-event bookkeeping: sample the pending high-water marks and
    /// sweep stale entries away when the compaction threshold trips.
    fn event_done(&mut self) {
        let unread = self.inputs.unread;
        self.peak_queue_len = self.peak_queue_len.max(self.queue.live_len(unread));
        self.peak_queue_len_raw = self.peak_queue_len_raw.max(self.pending());
        if self.queue.should_compact(unread) {
            let jobs = &self.jobs;
            self.queue.compact(|e| match e {
                Event::Completion { job, generation } => {
                    (jobs.get(*job)).is_some_and(|j| u64::from(j.generation) == *generation)
                }
                // A job cancelled during its backoff has ended.
                Event::Requeue { job } => jobs.row(*job).is_some(),
                _ => true,
            });
        }
    }
}

/// The DES's [`Effects`]: the timeline plus the models and workload
/// the caller owns.
struct Des<'a> {
    t: &'a mut Timeline,
    cfg: &'a SimConfig,
    wl: &'a WorkloadSpec,
}

impl Des<'_> {
    /// Schedules `job`'s completion where its progress `j` says it
    /// ends.
    fn schedule_completion(queue: &mut EventQueue, wl: &WorkloadSpec, job: JobId, j: &JobRt) {
        let finish = j.progress.finishes_at(wl.jobs[job.index()].work());
        let generation = u64::from(j.generation);
        queue.push(finish, Event::Completion { job, generation });
    }
}

impl Effects for Des<'_> {
    fn next_admission(&mut self) -> Option<Admission> {
        let idx = self.t.admitting.next()?;
        let spec = &self.wl.jobs[idx];
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
        let cancelled = self.t.cancel_on_arrival.binary_search(&job.id).is_ok();
        Some(Admission { job, cancelled })
    }

    fn launch(&mut self, job: JobId, replicas: u32, now: SimTime) -> bool {
        let shape = &self.wl.jobs[job.index()].shape;
        let j = self.t.jobs.get_or_insert(job);
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
        Self::schedule_completion(&mut self.t.queue, self.wl, job, j);
        true
    }

    fn resize(&mut self, job: JobId, from: u32, to: u32, now: SimTime) -> bool {
        let shape = &self.wl.jobs[job.index()].shape;
        let j = self
            .t
            .jobs
            .get_mut(job)
            .expect("a resized job was launched");
        debug_assert!(j.running);
        let rate = self.cfg.scaling.job_rate(shape, to);
        let pause = self.cfg.overhead.job_total(shape, from, to);
        j.progress.resize(now, rate, pause);
        j.generation += 1;
        self.t.queue.mark_stale(); // the previously scheduled completion died
        Self::schedule_completion(&mut self.t.queue, self.wl, job, j);
        true
    }

    fn stop(&mut self, job: JobId, why: Stop, now: SimTime) {
        if matches!(why, Stop::Completed | Stop::Cancelled | Stop::Failed { .. }) {
            // The job has ended: a completion `next_completion` already
            // settled, or a cancelled or failed job whose scheduled
            // completion (if it was running) dies with its row.
            if self.t.jobs.remove(job) == Some(true) {
                self.t.queue.mark_stale();
            }
            return;
        }
        let j = self
            .t
            .jobs
            .get_mut(job)
            .expect("a preempted job was launched");
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
            Stop::Cancelled | Stop::Failed { .. } | Stop::Completed => {
                unreachable!("an ended job's row went above")
            }
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
                    match self.t.queue.peek_with(&self.t.inputs) {
                        Some((t, Event::Completion { .. })) if t == self.t.now => {}
                        _ => return None,
                    }
                    match self.t.pop(self.wl) {
                        Some((_, Event::Completion { job, generation })) => (job, generation),
                        _ => unreachable!("peek promised a completion"),
                    }
                }
            };
            let Some(j) = self
                .t
                .jobs
                .get_mut(job)
                .filter(|j| u64::from(j.generation) == generation)
            else {
                // Stale: the job was rescaled, preempted or cancelled
                // meanwhile.
                self.t.queue.note_stale_popped();
                continue;
            };
            debug_assert!(
                j.progress.done_at(self.t.now) >= self.wl.jobs[job.index()].work() - 1e-3,
                "completion fired early for {}",
                self.wl.jobs[job.index()].name
            );
            j.running = false;
            return Some(job);
        }
    }

    fn event_done(&mut self) {
        self.t.event_done();
    }

    fn identify(&self, job: JobId) -> (u32, SimTime) {
        let spec = &self.wl.jobs[job.index()];
        (spec.priority, SimTime::ZERO + spec.arrival)
    }
}

/// Resumable simulation state — the per-shard DES drive.
///
/// [`simulate`] builds one of these and drains it in a single call, and
/// so does each federation worker (`hpc-federation`) for the shard it
/// claimed. A caller that times a replay in segments — construction,
/// each bounded [`SimState::step`], [`SimState::finish`] — steps it a
/// bounded number of events at a time instead. Stepping in any segment
/// size is **bit-identical** to one monolithic run: events pop in the
/// same deterministic order regardless of where the drain pauses.
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
    /// Validates `workload`, sets the input cursors at its start and
    /// pushes only the cancellations and the policy timer: arrivals,
    /// faults and flaky events are read in place as the run nears them.
    pub fn new(cfg: &SimConfig, workload: &WorkloadSpec) -> SimState {
        workload
            .validate()
            .unwrap_or_else(|e| panic!("workload not replayable: {e}"));
        let mut cancel_on_arrival = Vec::new();
        let mut queue = EventQueue::new();
        // A cancellation timed exactly at its job's arrival is on record
        // when the Submit (popped first: the lower class) admits the
        // job; the Cancel event then finds it terminal. One timed
        // earlier is a no-op, like a client cancelling an unknown name.
        let mut cancel = |queue: &mut EventQueue, at: Duration, i: usize| {
            let job = JobId::from_index(i);
            if at == workload.jobs[i].arrival {
                cancel_on_arrival.push(job);
            }
            queue.push(SimTime::ZERO + at, Event::Cancel { job });
        };
        for (i, job) in workload.jobs.iter().enumerate() {
            if let Some(at) = job.cancel_at {
                cancel(&mut queue, at, i);
            }
        }
        // Policy timer: the DES analogue of the operator's periodic timer
        // pass, first firing one interval past the epoch (`step` re-arms).
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
                .position(|j| &*j.name == name.as_str())
                .unwrap_or_else(|| panic!("cancellation for unknown job {name}"));
            cancel(&mut queue, *at, i);
        }
        cancel_on_arrival.sort_unstable();
        cancel_on_arrival.dedup();

        let mut kernel = Kernel::new(cfg.capacity, cfg.policy.launcher_slots());
        kernel.set_recovery(&workload.faults);
        // Jobs that have not arrived yet are not terminal.
        kernel.expect_jobs(workload.jobs.len());
        SimState {
            kernel,
            timeline: Timeline {
                jobs: Launched::new(workload.jobs.len()),
                cancel_on_arrival,
                queue,
                inputs: Inputs::new(workload),
                timer_interval,
                ..Timeline::default()
            },
        }
    }

    /// Events popped so far across all [`SimState::step`] calls.
    pub fn events_processed(&self) -> u64 {
        self.timeline.events_processed
    }

    /// The persistent cluster view the policy has been deciding on.
    pub fn view(&self) -> &ClusterView {
        self.kernel.view()
    }

    /// The bytes of each column of the run's state: the kernel's (its
    /// view's included), the launched jobs' execution rows, the event
    /// heap and the cancellations on record at arrival. Neither the
    /// workload nor the input cursors into it are run state.
    pub fn column_bytes(&self) -> Vec<ColumnBytes> {
        let t = &self.timeline;
        let mut columns = self.kernel.column_bytes();
        columns.push(ColumnBytes::of_vec("DES job row map", &t.jobs.row_of));
        columns.push(ColumnBytes::of_vec("DES job rows", &t.jobs.rows));
        columns.push(ColumnBytes::of_vec("DES free job rows", &t.jobs.free));
        columns.push(t.queue.column_bytes());
        columns.push(ColumnBytes::of_vec(
            "DES cancellations at arrival",
            &t.cancel_on_arrival,
        ));
        columns
    }

    /// [`Kernel::record_allocations`]: the outcome's
    /// [`Utilization::log`] keeps every allocation change. Before the
    /// first step.
    pub fn record_allocations(&mut self) {
        self.kernel.record_allocations();
    }

    /// Pops and processes at most `max_events` events; returns `true`
    /// while events remain afterwards. `step(cfg, wl, usize::MAX)`
    /// drains the run in one call; a smaller bound ends the call
    /// mid-run, so a caller can time the replay segment by segment.
    ///
    /// Each event maps to one kernel entry point. Submissions and
    /// completions go through the kernel's burst drivers: every event
    /// at one instant of one kind is decided in a single policy
    /// invocation, with the per-event primitive sequence (consume →
    /// staleness check → effects → decide → apply → peak sample →
    /// compaction check) driven from inside the burst — so replay
    /// output and the segment-stepping contract are identical to a
    /// one-event-one-call loop. An event the kernel retires as a no-op
    /// (a cancel or requeue of a terminal job, a timer after the last
    /// job) skips the per-event bookkeeping.
    pub fn step(&mut self, cfg: &SimConfig, workload: &WorkloadSpec, max_events: usize) -> bool {
        debug_assert_eq!(
            self.kernel.known_jobs(),
            workload.jobs.len(),
            "step must receive the workload the state was built from"
        );
        let kernel = &mut self.kernel;
        let policy = cfg.policy.as_ref();
        let mut des = Des {
            t: &mut self.timeline,
            cfg,
            wl: workload,
        };
        des.t.budget = max_events;
        while des.t.budget > 0 {
            let Some((now, event)) = des.t.pop(workload) else {
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
                    if fired && des.t.pending() > 0 {
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
        des.t.pending() > 0
    }

    /// Consumes the drained state into a [`SimOutcome`].
    ///
    /// Once the peaks are read and the starvation and (debug) book
    /// checks have run, the timeline — the event heap and the input
    /// cursors — is dropped, and [`Kernel::into_report`] turns the
    /// outcome rows the kernel wrote as jobs completed into the report
    /// in place. So `finish` allocates nothing the run did not.
    ///
    /// # Panics
    /// If events are still pending, or (diagnostically) if a job
    /// starved in the queue forever.
    pub fn finish(self, cfg: &SimConfig, workload: &WorkloadSpec) -> SimOutcome {
        let SimState { kernel, timeline } = self;
        let pending = timeline.pending();
        assert!(pending == 0, "finish called with {pending} events pending");
        // Starvation first: it is the *cause* of a non-drained view, so
        // it owns the diagnostic.
        if let Some(job) = (!kernel.all_terminal())
            .then(|| kernel.unfinished().next())
            .flatten()
        {
            panic!(
                "job {} never completed (starved in queue)",
                workload.jobs[job.index()].name
            );
        }
        #[cfg(debug_assertions)]
        kernel.check();
        let (peak_queue_len, peak_queue_len_raw) =
            (timeline.peak_queue_len, timeline.peak_queue_len_raw);
        drop(timeline);
        let counters = kernel.counters();
        let tally = |c| u32::try_from(counters[c]).expect("a kernel tally fits in u32");
        let (rescales, cancelled) = (tally(Counter::Rescales), tally(Counter::Cancellations));
        let name = |id: JobId| Arc::clone(&workload.jobs[id.index()].name);
        let (metrics, util) = kernel.into_report(cfg.policy.as_ref(), name);
        SimOutcome {
            metrics,
            util,
            rescales,
            cancelled,
            peak_queue_len,
            peak_queue_len_raw,
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
    use elastic_core::{AgingSweep, FcfsBackfill, Policy, PolicyConfig, PolicyKind};
    use hpc_workload::{generate_workload, FlakyEvent, FlakyOp, FlakySpec, JobSpec, SizeClass};

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

    /// The paper's testbed under `policy`: 64 slots, calibrated models.
    fn paper_default(policy: Box<dyn SchedulingPolicy>) -> SimConfig {
        SimConfig {
            capacity: 64,
            policy,
            scaling: ScalingModel::default(),
            overhead: OverheadModel::default(),
            cancellations: Vec::new(),
        }
    }

    fn spaced(wl: WorkloadSpec, gap_s: f64) -> WorkloadSpec {
        wl.spaced_every(Duration::from_secs(gap_s))
    }

    fn one_job(class: SizeClass) -> WorkloadSpec {
        WorkloadSpec::new(vec![JobSpec::of_class("j0", class, 3)])
    }

    #[test]
    fn single_job_runtime_matches_model() {
        let cfg = paper_default(policy(PolicyKind::Elastic, 180.0));
        let wl = one_job(SizeClass::Medium);
        let out = simulate(&cfg, &wl);
        // Empty cluster: job runs at max replicas the whole time.
        let expect = cfg.scaling.runtime(SizeClass::Medium, 16);
        assert!(
            (out.metrics.total_time - expect).abs() < 1e-6,
            "total {} != model {expect}",
            out.metrics.total_time
        );
        assert_eq!(out.rescales, 0);
        assert_eq!(out.metrics.weighted_response, 0.0);
        // The report names the job with the workload's own string.
        assert!(Arc::ptr_eq(&out.metrics.jobs[0].name, &wl.jobs[0].name));
    }

    #[test]
    fn rigid_min_runs_longer_than_rigid_max_for_one_job() {
        let wl = one_job(SizeClass::Large);
        let min = simulate(&paper_default(policy(PolicyKind::RigidMin, 180.0)), &wl);
        let max = simulate(&paper_default(policy(PolicyKind::RigidMax, 180.0)), &wl);
        assert!(min.metrics.total_time > max.metrics.total_time);
    }

    #[test]
    fn simulation_is_deterministic() {
        let wl = spaced(generate_workload(11, 16), 90.0);
        let cfg = paper_default(policy(PolicyKind::Elastic, 180.0));
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
        let cfg = paper_default(policy(PolicyKind::Elastic, 180.0));
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
        let cfg = paper_default(policy(PolicyKind::Elastic, 180.0));
        let out = simulate(&cfg, &wl);
        assert!(out.rescales > 0, "elastic never rescaled under load");
        // Non-elastic policies never rescale.
        for kind in [
            PolicyKind::Moldable,
            PolicyKind::RigidMin,
            PolicyKind::RigidMax,
        ] {
            let out = simulate(&paper_default(policy(kind, 180.0)), &wl);
            assert_eq!(out.rescales, 0, "{kind} rescaled");
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        for seed in 0..5 {
            let wl = spaced(generate_workload(seed, 16), 20.0);
            for kind in PolicyKind::ALL {
                let cfg = paper_default(policy(kind, 60.0));
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
        let cfg = paper_default(policy(PolicyKind::Elastic, 180.0));
        let out = simulate(&cfg, &wl);
        assert!(out.metrics.utilization > 0.3);
        assert!(out.metrics.utilization <= 1.0);
    }

    #[test]
    fn fcfs_backfill_runs_through_the_simulator() {
        // Heavy traffic: the queue blocks.
        let wl = spaced(generate_workload(11, 16), 30.0);
        let cfg = paper_default(Box::new(FcfsBackfill::new()));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.metrics.policy, "fcfs_backfill");
        assert_eq!(out.metrics.jobs.len(), 16);
        assert_eq!(out.rescales, 0, "FCFS never rescales");
        assert!(out.metrics.utilization > 0.2 && out.metrics.utilization <= 1.0);
        // Determinism holds for the new policy too.
        let cfg2 = paper_default(Box::new(FcfsBackfill::new()));
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
        let mut cfg = paper_default(policy(PolicyKind::Elastic, 10.0));
        cfg.cancellations = vec![(Duration::from_secs(100.0), "a".into())];
        let out = simulate(&cfg, &wl);
        assert_eq!(out.cancelled, 1);
        assert_eq!(out.metrics.jobs.len(), 2, "victim excluded from outcomes");
        assert!(out.metrics.jobs.iter().all(|j| &*j.name != "a"));
        let c = out.metrics.jobs.iter().find(|j| &*j.name == "c").unwrap();
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
        let mut cfg = paper_default(policy(PolicyKind::Elastic, 180.0));
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
        let victim = wl.jobs[5].name.to_string();
        let mut cfg = paper_default(policy(PolicyKind::RigidMax, 180.0));
        cfg.cancellations = vec![(Duration::from_secs(55.0), victim)];
        let out = simulate(&cfg, &wl);
        assert!(out.cancelled <= 1, "at most the one requested cancel");
        assert_eq!(out.metrics.jobs.len() + out.cancelled as usize, 6);
    }

    #[test]
    fn response_times_nonnegative_and_ordered_sanely() {
        let wl = spaced(generate_workload(21, 16), 90.0);
        let min = simulate(&paper_default(policy(PolicyKind::RigidMin, 180.0)), &wl);
        for j in &min.metrics.jobs {
            assert!(j.started_at >= j.submitted_at);
            assert!(j.completed_at >= j.started_at);
        }
        // min_replicas leaves more slack => its weighted response should
        // be no worse than rigid-max's (paper Fig. 7c).
        let max = simulate(&paper_default(policy(PolicyKind::RigidMax, 180.0)), &wl);
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
        let cfg = paper_default(policy(PolicyKind::Elastic, 180.0));
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
        let cfg = paper_default(policy(PolicyKind::Elastic, 10.0));
        let out = simulate(&cfg, &wl);
        assert_eq!(out.cancelled, 1);
        assert_eq!(out.metrics.jobs.len(), 1);
        assert_eq!(&*out.metrics.jobs[0].name, "keep");
    }

    #[test]
    fn malleable_jobs_run_at_linear_speed() {
        // 1200 core-seconds on exactly 4 replicas (rigid annotation):
        // 300 s of runtime, bit-exact.
        let wl = WorkloadSpec::new(vec![JobSpec::malleable("m0", 4, 4, 1200.0, 1)]);
        let cfg = paper_default(Box::new(FcfsBackfill::new()));
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
        let cfg = paper_default(policy(PolicyKind::Elastic, 10.0));
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
        let cfg = paper_default(Box::new(policy));
        let _ = simulate(&cfg, &wl);
    }

    #[test]
    fn quantum_stepping_is_bit_identical_to_monolithic_drain() {
        // A caller that times a replay in segments steps it a bounded
        // number of events at a time; any quantum size must reproduce
        // the monolithic run exactly — metrics, rescales, peaks,
        // everything.
        let elastic = || paper_default(policy(PolicyKind::Elastic, 60.0));
        // 120 jobs a second apart on 8 slots: 240 events. A quantum of
        // 3 slices it mid-burst: some of its steps end between two
        // events of one instant, and the next step must resume that
        // instant exactly where the last one stopped. 17 slices it
        // between instants only, and 1000 drains it in one step.
        let rigid = || SimConfig {
            capacity: 8,
            policy: Box::new(Policy::of_kind(
                PolicyKind::RigidMax,
                PolicyConfig::default(),
            )),
            scaling: ScalingModel::default(),
            overhead: OverheadModel::default(),
            cancellations: Vec::new(),
        };
        let burst = WorkloadSpec::new(
            (0..120)
                .map(|i| {
                    JobSpec::malleable(format!("j{i:03}"), 1, 2, 15.0, 1)
                        .at(Duration::from_secs(f64::from(i)))
                })
                .collect(),
        );
        let check = |make: &dyn Fn() -> SimConfig, wl: &WorkloadSpec, quanta: &[usize]| {
            let whole = simulate(&make(), wl);
            for &quantum in quanta {
                let cfg = make();
                let mut st = SimState::new(&cfg, wl);
                let mut turns = 0u32;
                while st.step(&cfg, wl, quantum) {
                    turns += 1;
                }
                let out = st.finish(&cfg, wl);
                let at = format!("{} jobs, quantum {quantum}", wl.jobs.len());
                assert_eq!(out.metrics, whole.metrics, "{at} diverged");
                assert_eq!(out.rescales, whole.rescales, "{at}");
                assert_eq!(out.peak_queue_len, whole.peak_queue_len, "{at}");
                assert_eq!(out.peak_queue_len_raw, whole.peak_queue_len_raw, "{at}");
                assert_eq!(out.cancelled, whole.cancelled, "{at}");
                assert!(
                    quantum >= 64 || turns > 1,
                    "{at}: a tiny quantum must yield"
                );
            }
        };
        check(
            &elastic,
            &spaced(generate_workload(11, 16), 30.0),
            &[1, 3, 7, 64],
        );
        check(&rigid, &burst, &[3, 17, 1000]);
        // Capacity and flaky faults on arrival and completion instants,
        // and a cancellation at its job's arrival: a quantum of 1 ends
        // steps between the inputs of one instant, and the next step
        // must resume every cursor exactly there.
        let wl = faulted_workload();
        let faulted = || SimConfig {
            capacity: 8,
            ..paper_default(recovery(elastic_core::RecoveryStrategy::KillRequeue))
        };
        let whole = simulate(&faulted(), &wl);
        let fault_at = wl.faults.events.iter().map(|e| e.at);
        let flaky_at = wl.faults.flaky.events.iter().map(|e| e.at);
        let completed = |at: Duration| {
            let at = SimTime::ZERO + at;
            whole.metrics.jobs.iter().any(|j| j.completed_at == at)
        };
        assert!(fault_at.clone().any(completed) && flaky_at.clone().any(completed));
        let arrived = |at: Duration| wl.jobs.iter().any(|j| j.arrival == at);
        assert!(fault_at.clone().any(arrived) && flaky_at.clone().any(arrived));
        assert_eq!(whole.cancelled, 1);
        check(&faulted, &wl, &[1, 3, 7]);
    }

    /// Two-replica rigid jobs (30 s each, three slots with the
    /// launcher) arriving in same-instant bursts, one cancelled at its
    /// arrival, under capacity and flaky faults timed on arrival and
    /// completion instants.
    fn faulted_workload() -> WorkloadSpec {
        use hpc_workload::{FaultEvent, FaultSpec};
        let secs = Duration::from_secs;
        let arrivals = [0.0, 0.0, 0.0, 10.0, 10.0, 30.0, 30.0, 40.0, 40.0, 70.0];
        let jobs = arrivals.iter().enumerate().map(|(i, &at)| {
            let job = JobSpec::malleable(format!("f{i}"), 2, 2, 60.0, 1).at(secs(at));
            if i == 4 {
                job.cancelled_at(secs(at))
            } else {
                job
            }
        });
        let fault = |at, slots, kind| FaultEvent {
            at: secs(at),
            slots,
            kind,
        };
        let faults = FaultSpec::new(vec![
            fault(10.0, 2, FaultKind::Reclaim),
            fault(30.0, 2, FaultKind::Return),
            fault(30.0, 1, FaultKind::Reclaim),
            fault(70.0, 1, FaultKind::Return),
        ]);
        let flaky = |at, op| FlakyEvent { at: secs(at), op };
        let flaky = FlakySpec::new(vec![
            flaky(10.0, FlakyOp::HeartbeatMiss),
            flaky(30.0, FlakyOp::LaunchFail),
            flaky(30.0, FlakyOp::HeartbeatMiss),
            flaky(60.0, FlakyOp::CrashOnStart),
        ]);
        WorkloadSpec::new(jobs.collect()).with_faults(faults.with_flaky(flaky))
    }

    #[test]
    fn new_pushes_only_the_timer_and_the_cancellations() {
        let policy = AgingSweep::new(
            Box::new(FcfsBackfill::new()),
            Duration::from_secs(50.0),
            Duration::from_secs(30.0),
        );
        let mut cfg = paper_default(Box::new(policy));
        cfg.cancellations = vec![(Duration::from_secs(20.0), "f0".into())];
        let wl = faulted_workload();
        let mut st = SimState::new(&cfg, &wl);
        // Five arrival instants, four faults, four flaky faults unread.
        assert_eq!(st.timeline.pending(), 3 + 5 + 4 + 4);
        let mut seeded = Vec::new();
        while let Some((_, e)) = st.timeline.queue.pop() {
            seeded.push(e);
        }
        assert_eq!(
            seeded,
            vec![
                Event::Cancel { job: JobId(4) },
                Event::Cancel { job: JobId(0) },
                Event::Timer,
            ]
        );
    }

    #[test]
    fn sim_state_exposes_progress_counters() {
        let wl = one_job(SizeClass::Small);
        let cfg = paper_default(policy(PolicyKind::Elastic, 180.0));
        let mut st = SimState::new(&cfg, &wl);
        assert_eq!(st.timeline.pending(), 1, "one coalesced submit seeded");
        assert_eq!(st.events_processed(), 0);
        let more = st.step(&cfg, &wl, 1);
        assert!(more, "completion still pending");
        assert_eq!(st.events_processed(), 1);
        while st.step(&cfg, &wl, 1) {}
        assert_eq!(st.timeline.pending(), 0);
        let out = st.finish(&cfg, &wl);
        assert_eq!(out.metrics.jobs.len(), 1);
    }

    #[test]
    fn empty_fault_spec_changes_nothing() {
        let wl = spaced(generate_workload(11, 16), 90.0);
        let cfg = paper_default(policy(PolicyKind::Elastic, 180.0));
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
        let cfg = paper_default(recovery(elastic_core::RecoveryStrategy::ShrinkOnReclaim));
        let out = simulate(&cfg, &reclaim_workload());
        assert_eq!(out.metrics.jobs.len(), 1);
        let f = out.metrics.faults;
        assert_eq!((f.evictions, f.requeues, f.permanent_failures), (0, 0, 0));
        assert_eq!(f.wasted_core_seconds, 0.0, "shrinking wastes nothing");
        assert!(out.rescales >= 2, "shrink on reclaim, expand on return");
    }

    #[test]
    fn checkpoint_restart_rolls_back_to_the_boundary() {
        let cfg = paper_default(recovery(elastic_core::RecoveryStrategy::CheckpointRestart));
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
        let cfg = paper_default(recovery(elastic_core::RecoveryStrategy::CheckpointRestart));
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
        let cfg = paper_default(recovery(elastic_core::RecoveryStrategy::KillRequeue));
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
        let cfg = paper_default(recovery(elastic_core::RecoveryStrategy::KillRequeue));
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
        let mut cfg = paper_default(recovery(elastic_core::RecoveryStrategy::KillRequeue));
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
        let cfg = paper_default(recovery(elastic_core::RecoveryStrategy::ShrinkOnReclaim));
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
        let cfg = paper_default(policy(PolicyKind::Elastic, 10.0));
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
