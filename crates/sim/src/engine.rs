//! The discrete-event scheduling simulator.
//!
//! Drives the *same* policy code as the live operator (anything
//! implementing `elastic_core::SchedulingPolicy`) over an event
//! timeline: job submissions fire at the *per-job arrival times* of the
//! [`WorkloadSpec`] (fixed gaps, Poisson bursts and SWF trace replays
//! are all just workloads); job progress integrates the shape's
//! `rate(replicas)` between events; a rescale pauses progress for the
//! modeled overhead window and re-schedules the job's completion; a
//! cancellation (per-job `cancel_at` or [`SimConfig::cancellations`])
//! tears the job down mid-flight and lets the policy redistribute the
//! freed slots; and a policy that requests a
//! `SchedulingPolicy::timer_interval` gets periodic [`Event::Timer`]s
//! (the DES analogue of the operator's timer pass — aging sweeps and
//! other trigger-less decisions replay in both engines). As in the
//! paper's simulator, operator/Kubernetes pod-startup overhead is not
//! modeled (§4.3.1).
//!
//! The workload's `FaultSpec` injects capacity loss the same way:
//! [`Event::NodeFail`]/[`Event::CapacityReclaim`] mark slots failed in
//! the view and consult `SchedulingPolicy::on_fault`, whose plan must
//! cover the deficit (evictions roll progress back to the last
//! checkpoint boundary and relaunch behind a FullRestart recovery
//! window; requeues lose the whole attempt and re-enter through
//! [`Event::Requeue`] after an exponential backoff, permanently failing
//! once the retry budget is spent); [`Event::CapacityReturn`] hands
//! reclaimed slots back. Wasted core-seconds and recovery counts are
//! banked at the exact decision instants the operator uses, so
//! fault-laden replays still cross-validate bit-identically.
//!
//! ## Trace-scale throughput
//!
//! The engine replays multi-thousand-job traces (the Zojer et al.
//! regime) because its per-event cost is O(log n), not O(n):
//!
//! * One persistent [`ClusterView`] is maintained across the whole run
//!   — submissions insert, completions/cancellations remove, and every
//!   policy action folds in via `apply_action`. No per-event rebuild,
//!   no `String` ever touches the loop (jobs are dense [`JobId`]s; the
//!   workload's names surface only in [`SimOutcome::names`]).
//! * Same-timestamp submission bursts are *coalesced* into a single
//!   [`Event::Submit`] carrying an id range: one heap entry, one pop,
//!   n policy decisions.
//! * Invalidated completions are counted and the heap is *compacted*
//!   once they exceed half of it, so rescale-heavy runs keep the queue
//!   O(live jobs) ([`SimOutcome::peak_queue_len`] exposes the
//!   high-water mark).

use elastic_core::{
    apply_action, Action, ClusterView, CompleteBurst, FaultStats, JobFields, JobOutcome, JobState,
    RunMetrics, SchedulingPolicy, SubmitBurst,
};
use elastic_resilience::{FlakyOutcome, ResilienceState};
use hpc_metrics::{Duration, JobId, SimTime, UtilizationRecorder};

use crate::events::{Event, EventQueue};
use crate::model::{OverheadModel, ScalingModel};
use crate::workload::{FaultEvent, FaultKind, FaultSpec, FlakyOp, JobSpec, WorkloadSpec};

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

struct JobRt {
    spec: JobSpec,
    submitted: bool,
    submitted_at: SimTime,
    running: bool,
    completed: bool,
    cancelled: bool,
    /// Permanently failed: the retry budget ran out on a requeue.
    failed: bool,
    replicas: u32,
    last_action: SimTime,
    started_at: Option<SimTime>,
    completed_at: Option<SimTime>,
    steps_done: f64,
    last_update: SimTime,
    pause_until: SimTime,
    generation: u64,
    /// Effective re-submission instant of a requeued job (the backoff
    /// deadline); the view orders the job by it, not by its original
    /// arrival, exactly like the operator's `status.requeued_at`.
    requeued_at: Option<SimTime>,
    /// Kill-and-requeue attempts consumed so far.
    attempts: u32,
    /// The next launch restores from a checkpoint: pay the FullRestart
    /// recovery overhead before progress resumes.
    needs_recovery: bool,
    /// Core-seconds of the current attempt, banked at every
    /// allocation-change boundary (never per tick) so requeue waste is
    /// bit-identical between engines.
    attempt_core_acc: f64,
    /// When the current allocation segment began.
    alloc_since: SimTime,
}

impl JobRt {
    fn new(spec: JobSpec) -> JobRt {
        JobRt {
            spec,
            submitted: false,
            submitted_at: SimTime::ZERO,
            running: false,
            completed: false,
            cancelled: false,
            failed: false,
            replicas: 0,
            last_action: SimTime::NEG_INFINITY,
            started_at: None,
            completed_at: None,
            steps_done: 0.0,
            last_update: SimTime::ZERO,
            pause_until: SimTime::NEG_INFINITY,
            generation: 0,
            requeued_at: None,
            attempts: 0,
            needs_recovery: false,
            attempt_core_acc: 0.0,
            alloc_since: SimTime::ZERO,
        }
    }

    /// Integrates progress up to `now` (no progress inside the rescale
    /// pause window).
    fn advance(&mut self, now: SimTime, scaling: &ScalingModel) {
        if self.running && !self.completed {
            let start = if self.pause_until > self.last_update {
                self.pause_until.min(now)
            } else {
                self.last_update
            };
            if now > start {
                self.steps_done +=
                    scaling.job_rate(&self.spec.shape, self.replicas) * (now - start).as_secs();
            }
        }
        self.last_update = now;
    }

    fn view_state(&self, id: JobId) -> JobState {
        JobState {
            id,
            min_replicas: self.spec.min_replicas(),
            max_replicas: self.spec.max_replicas(),
            priority: self.spec.priority,
            submitted_at: self.requeued_at.unwrap_or(self.submitted_at),
            replicas: if self.running { self.replicas } else { 0 },
            last_action: self.last_action,
            running: self.running,
            walltime_estimate: self.spec.walltime_estimate,
        }
    }
}

/// Applies one policy action to the job runtimes and the event queue
/// (the caller has already folded it into the persistent view).
#[allow(clippy::too_many_arguments)]
fn apply_runtime(
    cfg: &SimConfig,
    fspec: &FaultSpec,
    jobs: &mut [JobRt],
    queue: &mut EventQueue,
    util: &mut UtilizationRecorder,
    rescales: &mut u32,
    cancels: &mut u32,
    faults: &mut FaultStats,
    action: &Action,
    now: SimTime,
) {
    match *action {
        Action::Create { job, replicas } => {
            let j = &mut jobs[job.index()];
            debug_assert!(!j.running && !j.completed && !j.failed);
            j.running = true;
            j.replicas = replicas;
            j.last_action = now;
            j.started_at = Some(now);
            j.last_update = now;
            // A fresh attempt ledger: waste on a later requeue charges
            // only from this launch onward.
            j.attempt_core_acc = 0.0;
            j.alloc_since = now;
            // A checkpoint/restart relaunch pays the FullRestart
            // recovery window before any progress; a plain launch (or a
            // kill-and-requeue restart from zero) starts immediately.
            j.pause_until = if j.needs_recovery {
                j.needs_recovery = false;
                now + cfg.overhead.recovery_total(&j.spec.shape, replicas)
            } else {
                SimTime::NEG_INFINITY
            };
            util.set(now, job, replicas);
            let rate = cfg.scaling.job_rate(&j.spec.shape, j.replicas);
            let remaining = (j.spec.work() - j.steps_done).max(0.0);
            let finish = j.pause_until.max(now) + Duration::from_secs(remaining / rate);
            queue.push(
                finish,
                Event::Completion {
                    job,
                    generation: j.generation,
                },
            );
        }
        Action::Shrink { job, to_replicas } | Action::Expand { job, to_replicas } => {
            let j = &mut jobs[job.index()];
            debug_assert!(j.running && !j.completed);
            j.advance(now, &cfg.scaling);
            j.attempt_core_acc += f64::from(j.replicas) * (now - j.alloc_since).as_secs();
            j.alloc_since = now;
            let cost = cfg
                .overhead
                .job_total(&j.spec.shape, j.replicas, to_replicas);
            j.pause_until = now + cost;
            j.replicas = to_replicas;
            j.last_action = now;
            j.generation += 1;
            queue.mark_stale(); // the previously scheduled completion died
            *rescales += 1;
            util.set(now, job, to_replicas);
            let rate = cfg.scaling.job_rate(&j.spec.shape, j.replicas);
            let remaining = (j.spec.work() - j.steps_done).max(0.0);
            let finish = j.pause_until + Duration::from_secs(remaining / rate);
            queue.push(
                finish,
                Event::Completion {
                    job,
                    generation: j.generation,
                },
            );
        }
        Action::Enqueue { .. } => {}
        Action::Evict { job } => {
            // Checkpoint/restart preemption: roll progress back to the
            // last checkpoint-interval boundary of this attempt, keep
            // what the checkpoint retained, and mark the job for a
            // recovery-priced relaunch. Waste is only the rolled-back
            // tail — the same ledger the operator keeps.
            let j = &mut jobs[job.index()];
            debug_assert!(j.running && !j.completed);
            j.advance(now, &cfg.scaling);
            let t = fspec.checkpoint_interval.as_secs();
            let elapsed = (now - j.started_at.expect("running job has started")).as_secs();
            let since_ckpt = elapsed - (elapsed / t).floor() * t;
            let rate = cfg.scaling.job_rate(&j.spec.shape, j.replicas);
            faults.wasted_core_seconds += f64::from(j.replicas) * since_ckpt;
            faults.evictions += 1;
            j.steps_done = (j.steps_done - rate * since_ckpt).max(0.0);
            j.running = false;
            j.needs_recovery = true;
            j.last_action = now;
            j.generation += 1;
            queue.mark_stale(); // its scheduled completion died
            util.set(now, job, 0);
        }
        Action::Requeue { job } => {
            // Kill-and-requeue: the whole attempt is wasted; the job
            // re-enters the queue after an exponential backoff, or
            // fails permanently once the retry budget runs out.
            let j = &mut jobs[job.index()];
            debug_assert!(j.running && !j.completed);
            j.advance(now, &cfg.scaling);
            j.attempt_core_acc += f64::from(j.replicas) * (now - j.alloc_since).as_secs();
            faults.wasted_core_seconds += j.attempt_core_acc;
            faults.requeues += 1;
            j.attempt_core_acc = 0.0;
            j.steps_done = 0.0;
            j.running = false;
            j.needs_recovery = false;
            j.last_action = SimTime::NEG_INFINITY;
            j.attempts += 1;
            j.generation += 1;
            queue.mark_stale(); // its scheduled completion died
            util.set(now, job, 0);
            if j.attempts >= fspec.max_attempts {
                j.failed = true;
                j.completed_at = Some(now);
                faults.permanent_failures += 1;
            } else {
                let due = now + fspec.backoff_for(j.attempts);
                j.requeued_at = Some(due);
                queue.push(due, Event::Requeue { job });
            }
        }
        Action::Cancel { job } => {
            let j = &mut jobs[job.index()];
            if j.completed || j.cancelled || j.failed || !j.submitted {
                return;
            }
            j.advance(now, &cfg.scaling);
            if j.running {
                queue.mark_stale(); // its scheduled completion died
            }
            j.cancelled = true;
            j.running = false;
            j.generation += 1; // invalidate any scheduled completion
            j.completed_at = Some(now);
            *cancels += 1;
            util.set(now, job, 0);
        }
    }
}

/// Resumable simulation state — the per-shard DES drive.
///
/// [`simulate`] builds one of these and drains it in a single call. The
/// federation layer (`hpc-federation`) instead keeps one `SimState` per
/// shard and drains each a bounded number of events at a time (its
/// work-queue *time quantum*), interleaving many shards over a small
/// pool of worker threads. Stepping in any quantum size is
/// **bit-identical** to one monolithic run: events pop in the same
/// deterministic order regardless of where the drain pauses.
///
/// The state does not own the [`SimConfig`] or [`WorkloadSpec`] it was
/// built from (the policy box is not cloneable; owners keep both next
/// to the state); every [`SimState::step`]/[`SimState::finish`] call
/// must receive the *same* pair passed to [`SimState::new`].
pub struct SimState {
    jobs: Vec<JobRt>,
    queue: EventQueue,
    view: ClusterView,
    util: UtilizationRecorder,
    rescales: u32,
    completed_count: u32,
    cancelled_count: u32,
    peak_queue_len: usize,
    peak_queue_len_raw: usize,
    fault_stats: FaultStats,
    /// The shared breaker/budget/health decision core for the
    /// workload's `FlakySpec` (idle when the spec is empty).
    resilience: ResilienceState,
    launcher: u32,
    timer_interval: Option<Duration>,
    events_processed: u64,
}

impl SimState {
    /// Validates `workload` and seeds the event queue (submissions
    /// coalesced per timestamp, cancellations, the policy timer, fault
    /// events last) exactly as a monolithic [`simulate`] run does.
    pub fn new(cfg: &SimConfig, workload: &WorkloadSpec) -> SimState {
        workload
            .validate()
            .unwrap_or_else(|e| panic!("workload not replayable: {e}"));
        let launcher = cfg.policy.launcher_slots();
        let jobs: Vec<JobRt> = workload.jobs.iter().cloned().map(JobRt::new).collect();
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
        for (i, job) in workload.jobs.iter().enumerate() {
            if let Some(at) = job.cancel_at {
                queue.push(
                    SimTime::ZERO + at,
                    Event::Cancel {
                        job: JobId::from_index(i),
                    },
                );
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
            queue.push(
                SimTime::ZERO + *at,
                Event::Cancel {
                    job: JobId::from_index(i),
                },
            );
        }
        // Fault events are pushed last so at shared instants they sort
        // after submissions/cancellations — the order the operator's
        // tick reconciles them in. (Fault instants must not collide
        // with policy timer firings: the engines order those two
        // differently.)
        for e in &workload.faults.events {
            let ev = match e.kind {
                FaultKind::NodeFail => Event::NodeFail { slots: e.slots },
                FaultKind::Reclaim => Event::CapacityReclaim { slots: e.slots },
                FaultKind::Return => Event::CapacityReturn { slots: e.slots },
            };
            queue.push(SimTime::ZERO + e.at, ev);
        }
        // Flaky (transient control-plane) events seed after the
        // capacity faults: at shared instants they sort last, matching
        // the operator's tick, which reconciles flaky notices after
        // capacity notices. (`FlakySpec::storm` keeps flaky instants
        // off the policy-timer grid for the same reason as above.)
        for (i, e) in workload.faults.flaky.events.iter().enumerate() {
            queue.push(SimTime::ZERO + e.at, Event::Flaky { index: i as u32 });
        }

        SimState {
            jobs,
            queue,
            view: ClusterView::new(cfg.capacity),
            util: UtilizationRecorder::new(cfg.capacity),
            rescales: 0,
            completed_count: 0,
            cancelled_count: 0,
            peak_queue_len: 0,
            peak_queue_len_raw: 0,
            fault_stats: FaultStats::default(),
            resilience: ResilienceState::new(&workload.faults.flaky),
            launcher,
            timer_interval,
            events_processed: 0,
        }
    }

    /// Pending events (including stale completions awaiting compaction).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Events popped so far across all [`SimState::step`] calls.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The persistent cluster view the policy has been deciding on.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    fn apply_all(&mut self, cfg: &SimConfig, fspec: &FaultSpec, actions: &[Action], now: SimTime) {
        for a in actions {
            apply_action(&mut self.view, a, now, self.launcher);
            apply_runtime(
                cfg,
                fspec,
                &mut self.jobs,
                &mut self.queue,
                &mut self.util,
                &mut self.rescales,
                &mut self.cancelled_count,
                &mut self.fault_stats,
                a,
                now,
            );
        }
    }

    /// `true` once every job of the workload is terminal. O(1): each
    /// terminal state has exactly one writer, and each of those bumps
    /// its tally in the same breath (`completed` in the completion
    /// driver, `cancelled`/`failed` in `apply_runtime`), so the three
    /// tallies partition the terminal jobs.
    fn all_terminal(&self) -> bool {
        let terminal = self.completed_count as usize
            + self.cancelled_count as usize
            + self.fault_stats.permanent_failures as usize;
        debug_assert_eq!(
            terminal,
            self.jobs
                .iter()
                .filter(|j| j.completed || j.cancelled || j.failed)
                .count(),
            "terminal tallies out of step with the job table"
        );
        terminal == self.jobs.len()
    }

    /// Deterministic victim selection for a transient fault: the
    /// *oldest* executor (lowest running [`JobId`]) for launch
    /// failures, stuck rescales and heartbeat misses; the *youngest*
    /// (highest running id) for crash-on-start — the job most recently
    /// through the launch path. Read off the view's running jobs — the
    /// runtime `running` flag and the view's flip together in
    /// `apply_all` — exactly as the operator does, over the same
    /// admission-ordered ids.
    fn flaky_victim(&self, op: FlakyOp) -> Option<JobId> {
        let running = self.view.running_scan().map(|j| j.id());
        match op {
            FlakyOp::CrashOnStart => running.max(),
            FlakyOp::LaunchFail | FlakyOp::StuckRescale | FlakyOp::HeartbeatMiss => running.min(),
        }
    }

    /// Per-event post-processing bookkeeping: sample the queue
    /// high-water mark and re-bucketize away stale entries when the
    /// compaction threshold trips.
    fn after_event(&mut self) {
        self.peak_queue_len = self.peak_queue_len.max(self.queue.live_len());
        self.peak_queue_len_raw = self.peak_queue_len_raw.max(self.queue.len());
        if self.queue.should_compact() {
            let jobs = &self.jobs;
            self.queue.compact(|e| match e {
                Event::Completion { job, generation } => {
                    let j = &jobs[job.index()];
                    !j.completed && !j.cancelled && j.generation == *generation
                }
                Event::Requeue { job } => {
                    let j = &jobs[job.index()];
                    !j.completed && !j.cancelled && !j.failed
                }
                _ => true,
            });
        }
    }

    /// Pops and processes at most `max_events` events; returns `true`
    /// while events remain afterwards. `step(cfg, wl, usize::MAX)`
    /// drains the run in one call; the federation scheduler passes its
    /// quantum and re-queues the shard while this returns `true`.
    ///
    /// Submission and completion events route through the batched
    /// policy surface ([`SubmitBurst`] / [`CompleteBurst`]): every
    /// event at one instant of one kind is decided in a single policy
    /// invocation, with the per-event primitive sequence (consume →
    /// staleness check → runtime effects → decide → apply → peak
    /// sample → compaction check) driven from inside the burst — so
    /// replay output and the quantum-stepping contract are identical to
    /// the historical one-event-one-call loop.
    pub fn step(&mut self, cfg: &SimConfig, workload: &WorkloadSpec, max_events: usize) -> bool {
        debug_assert_eq!(
            self.jobs.len(),
            workload.jobs.len(),
            "step must receive the workload the state was built from"
        );
        let mut popped = 0usize;
        while popped < max_events {
            let Some((now, event)) = self.queue.pop() else {
                return false;
            };
            popped += 1;
            self.events_processed += 1;
            match event {
                Event::Submit { first, count } => {
                    // One pop admits the whole same-timestamp burst;
                    // the driver interns each job in submission order
                    // and the policy answers per admission, so
                    // decisions are identical to n singleton events.
                    let mut burst = SubmitDriver {
                        state: self,
                        cfg,
                        fspec: &workload.faults,
                        now,
                        next: first.index(),
                        end: first.index() + count as usize,
                        fresh: true,
                    };
                    cfg.policy.on_submit_burst(&mut burst);
                    self.after_event();
                }
                Event::Requeue { job } => {
                    let idx = job.index();
                    if self.jobs[idx].completed || self.jobs[idx].cancelled || self.jobs[idx].failed
                    {
                        continue; // cancelled while waiting out the backoff
                    }
                    // A requeue re-admission is a one-job burst that
                    // keeps the original submission instant.
                    let mut burst = SubmitDriver {
                        state: self,
                        cfg,
                        fspec: &workload.faults,
                        now,
                        next: idx,
                        end: idx + 1,
                        fresh: false,
                    };
                    cfg.policy.on_submit_burst(&mut burst);
                    self.after_event();
                }
                Event::Completion { job, generation } => {
                    // The driver consumes every consecutive completion
                    // at this instant (budget permitting), doing the
                    // per-event bookkeeping itself; stale entries are
                    // skipped at consumption time exactly like the
                    // historical loop's `continue`.
                    let flush = {
                        let mut burst = CompleteDriver {
                            state: self,
                            cfg,
                            workload,
                            now,
                            pending: Some((job, generation)),
                            popped: &mut popped,
                            max_events,
                            book_pending: false,
                        };
                        cfg.policy.on_complete_burst(&mut burst);
                        burst.book_pending
                    };
                    if flush {
                        // Defensive: a policy that skipped the final
                        // `apply` still owes the event its bookkeeping.
                        self.after_event();
                    }
                }
                other => {
                    // An event retired early (terminal-state no-op)
                    // skips the bookkeeping, exactly like the
                    // historical loop's `continue`.
                    if !self.process_event(cfg, workload, now, other) {
                        continue;
                    }
                    self.after_event();
                }
            }
        }
        !self.queue.is_empty()
    }

    /// Processes one event; `false` means it was retired early (the
    /// post-event bookkeeping must be skipped).
    fn process_event(
        &mut self,
        cfg: &SimConfig,
        workload: &WorkloadSpec,
        now: SimTime,
        event: Event,
    ) -> bool {
        match event {
            Event::Submit { .. } | Event::Completion { .. } | Event::Requeue { .. } => {
                unreachable!("submit/completion/requeue events route through the burst drivers")
            }
            Event::Cancel { job } => {
                let idx = job.index();
                if self.jobs[idx].completed
                    || self.jobs[idx].cancelled
                    || self.jobs[idx].failed
                    || !self.jobs[idx].submitted
                {
                    // Terminal already, or a cancel timed before the
                    // job's arrival — a no-op, exactly like the client
                    // cancel of an unknown name in the operator path.
                    return false;
                }
                let held_slots = self.jobs[idx].running;
                let cancel = Action::Cancel { job };
                // A job waiting out a requeue backoff is alive but not
                // in the view; the runtime cancel alone retires it.
                if self.view.job(job).is_some() {
                    apply_action(&mut self.view, &cancel, now, self.launcher);
                }
                apply_runtime(
                    cfg,
                    &workload.faults,
                    &mut self.jobs,
                    &mut self.queue,
                    &mut self.util,
                    &mut self.rescales,
                    &mut self.cancelled_count,
                    &mut self.fault_stats,
                    &cancel,
                    now,
                );
                if held_slots {
                    // Freed capacity: the policy redistributes exactly
                    // as after a completion.
                    let actions = cfg.policy.on_complete(&self.view, now);
                    self.apply_all(cfg, &workload.faults, &actions, now);
                }
            }
            Event::NodeFail { slots } | Event::CapacityReclaim { slots } => {
                // Capacity loss: mark the slots failed (opening a
                // deficit when they were occupied), let the policy
                // answer through on_fault, and insist the plan covers
                // the deficit before the usual redistribution pass.
                self.view.fail_slots(slots);
                let kind = if matches!(event, Event::NodeFail { .. }) {
                    FaultKind::NodeFail
                } else {
                    FaultKind::Reclaim
                };
                let fault = FaultEvent {
                    at: Duration::from_secs(now.as_secs()),
                    slots,
                    kind,
                };
                let actions = cfg.policy.on_fault(&self.view, &fault, now);
                self.apply_all(cfg, &workload.faults, &actions, now);
                assert_eq!(
                    self.view.deficit(),
                    0,
                    "policy {} left a fault deficit uncovered",
                    cfg.policy.name()
                );
                let actions = cfg.policy.on_complete(&self.view, now);
                self.apply_all(cfg, &workload.faults, &actions, now);
            }
            Event::CapacityReturn { slots } => {
                // Reclaimed capacity comes back: restore it to the free
                // pool and let the policy expand or admit into it.
                self.view.restore_slots(slots);
                let actions = cfg.policy.on_complete(&self.view, now);
                self.apply_all(cfg, &workload.faults, &actions, now);
            }
            Event::Flaky { index } => {
                let op = workload.faults.flaky.events[index as usize].op;
                let victim = self.flaky_victim(op);
                match self.resilience.on_flaky(op, victim, now) {
                    // No running victim, a sub-threshold heartbeat
                    // miss, or an open breaker fast-failing the
                    // operation: nothing happens to any job.
                    FlakyOutcome::Observed | FlakyOutcome::Absorbed => {}
                    FlakyOutcome::Retry => {
                        let job = victim.expect("retry outcome implies a victim");
                        self.apply_all(cfg, &workload.faults, &[Action::Requeue { job }], now);
                        let actions = cfg.policy.on_complete(&self.view, now);
                        self.apply_all(cfg, &workload.faults, &actions, now);
                    }
                    FlakyOutcome::Deny => {
                        // Retry budget dry: the victim fails
                        // permanently. Forcing the attempt counter to
                        // the retry ceiling routes the failure through
                        // the same requeue path as every other
                        // permanent failure — identically in both
                        // engines.
                        let job = victim.expect("deny outcome implies a victim");
                        let j = &mut self.jobs[job.index()];
                        j.attempts = j
                            .attempts
                            .max(workload.faults.max_attempts.saturating_sub(1));
                        self.apply_all(cfg, &workload.faults, &[Action::Requeue { job }], now);
                        let actions = cfg.policy.on_complete(&self.view, now);
                        self.apply_all(cfg, &workload.faults, &actions, now);
                    }
                    FlakyOutcome::Evict => {
                        let job = victim.expect("evict outcome implies a victim");
                        self.apply_all(cfg, &workload.faults, &[Action::Evict { job }], now);
                        let actions = cfg.policy.on_complete(&self.view, now);
                        self.apply_all(cfg, &workload.faults, &actions, now);
                    }
                }
            }
            Event::Timer => {
                // Stop the clock once every job is terminal — the run
                // is over; an armed timer must not keep it alive.
                if self.all_terminal() {
                    return false;
                }
                let actions = cfg.policy.on_timer(&self.view, now);
                self.apply_all(cfg, &workload.faults, &actions, now);
                // Re-arm only while some *other* event is pending: a
                // policy is a pure function of the view, so with no
                // submissions/completions/cancellations left, every
                // future firing would see the same view and decide the
                // same nothing — re-arming would hang the simulation
                // forever on a permanently starved job instead of
                // letting it reach the diagnostic starvation assert.
                if !self.queue.is_empty() {
                    let iv = self
                        .timer_interval
                        .expect("timer event implies an interval");
                    self.queue.push(now + iv, Event::Timer);
                }
            }
        }
        true
    }

    /// Consumes the drained state into a [`SimOutcome`].
    ///
    /// # Panics
    /// If events are still pending, or (diagnostically) if a job
    /// starved in the queue forever.
    pub fn finish(mut self, cfg: &SimConfig, workload: &WorkloadSpec) -> SimOutcome {
        assert!(
            self.queue.is_empty(),
            "finish called with {} events pending",
            self.queue.len()
        );
        // Bank the resilience tallies next to the capacity-fault ones;
        // the operator copies the same three counters in `metrics()`.
        self.fault_stats.transient_faults = self.resilience.transient_faults();
        self.fault_stats.retries = self.resilience.retries();
        self.fault_stats.breaker_trips = self.resilience.breaker_trips();
        // Starvation first: it is the *cause* of a non-drained view, so
        // it must own the diagnostic (the drain assert below would
        // otherwise mask it in debug builds).
        for j in &self.jobs {
            assert!(
                j.completed || j.cancelled || j.failed,
                "job {} never completed (starved in queue)",
                j.spec.name
            );
        }

        debug_assert!(
            self.view.is_empty()
                && self.view.deficit() == 0
                && self.view.free_slots() + self.view.failed_slots() == cfg.capacity,
            "incremental view must drain to empty (minus still-failed slots) \
             when every job is terminal"
        );

        let outcomes: Vec<JobOutcome> = self
            .jobs
            .iter()
            .filter(|j| j.completed)
            .map(|j| JobOutcome {
                name: j.spec.name.clone(),
                priority: j.spec.priority,
                submitted_at: j.submitted_at,
                started_at: j.started_at.expect("started"),
                completed_at: j.completed_at.expect("completed"),
            })
            .collect();
        let metrics = if outcomes.is_empty() {
            // Every job was cancelled: nothing completed, nothing to
            // aggregate.
            RunMetrics::empty(cfg.policy.name(), self.rescales).with_fault_stats(self.fault_stats)
        } else {
            let first_submit = outcomes.iter().map(|o| o.submitted_at).min().expect("jobs");
            let last_complete = outcomes.iter().map(|o| o.completed_at).max().expect("jobs");
            let utilization = self.util.average_utilization(first_submit, last_complete);
            RunMetrics::from_outcomes(cfg.policy.name(), outcomes, utilization, self.rescales)
                .with_fault_stats(self.fault_stats)
        };
        SimOutcome {
            metrics,
            util: self.util,
            rescales: self.rescales,
            cancelled: self.cancelled_count,
            names: workload.jobs.iter().map(|j| j.name.clone()).collect(),
            peak_queue_len: self.peak_queue_len,
            peak_queue_len_raw: self.peak_queue_len_raw,
        }
    }
}

/// Engine side of a same-instant submission burst (one coalesced
/// `Submit` event, or a single `Requeue` re-admission): interns jobs
/// `next..end` one at a time as the policy pulls them, applies each
/// answer through the shared action path.
struct SubmitDriver<'a> {
    state: &'a mut SimState,
    cfg: &'a SimConfig,
    fspec: &'a FaultSpec,
    now: SimTime,
    next: usize,
    end: usize,
    /// `true` for fresh submissions (stamp `submitted`/`submitted_at`);
    /// `false` for a requeue re-admission, which keeps its original
    /// submission instant.
    fresh: bool,
}

impl SubmitBurst for SubmitDriver<'_> {
    fn view(&self) -> &ClusterView {
        &self.state.view
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn admit_next(&mut self) -> Option<JobId> {
        if self.next >= self.end {
            return None;
        }
        let idx = self.next;
        self.next += 1;
        let id = JobId::from_index(idx);
        if self.fresh {
            self.state.jobs[idx].submitted = true;
            self.state.jobs[idx].submitted_at = self.now;
        }
        self.state.jobs[idx].last_update = self.now;
        self.state
            .view
            .insert(self.state.jobs[idx].view_state(id), self.state.launcher);
        Some(id)
    }

    fn apply(&mut self, actions: &[Action]) {
        self.state
            .apply_all(self.cfg, self.fspec, actions, self.now);
    }
}

/// Engine side of a same-instant completion burst. `retire_next`
/// consumes the pre-popped head completion first, then keeps consuming
/// *consecutive* completion events at the same timestamp straight off
/// the queue (respecting the caller's event budget); stale entries are
/// skipped at consumption time. `apply` runs the action path and the
/// per-event bookkeeping (peak sample + compaction check), preserving
/// the exact primitive sequence of the historical per-event loop.
struct CompleteDriver<'a> {
    state: &'a mut SimState,
    cfg: &'a SimConfig,
    workload: &'a WorkloadSpec,
    now: SimTime,
    /// The completion popped by the outer `step` loop, consumed on the
    /// first `retire_next`.
    pending: Option<(JobId, u64)>,
    /// The outer loop's pop counter — extra events this driver consumes
    /// count against the same `max_events` budget.
    popped: &'a mut usize,
    max_events: usize,
    /// A retirement has been returned but its post-apply bookkeeping
    /// has not run yet.
    book_pending: bool,
}

impl CompleteDriver<'_> {
    fn book(&mut self) {
        self.book_pending = false;
        self.state.after_event();
    }
}

impl CompleteBurst for CompleteDriver<'_> {
    fn view(&self) -> &ClusterView {
        &self.state.view
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn retire_next(&mut self) -> bool {
        if self.book_pending {
            // Defensive: the policy pulled again without applying; the
            // previous event still gets its bookkeeping.
            self.book();
        }
        loop {
            let (job, generation) = match self.pending.take() {
                Some(p) => p,
                None => {
                    if *self.popped >= self.max_events {
                        return false;
                    }
                    let next_is_batch = matches!(
                        self.state.queue.peek(),
                        Some((t, Event::Completion { .. })) if t == self.now
                    );
                    if !next_is_batch {
                        return false;
                    }
                    let Some((_, Event::Completion { job, generation })) = self.state.queue.pop()
                    else {
                        unreachable!("peek promised a completion")
                    };
                    *self.popped += 1;
                    self.state.events_processed += 1;
                    (job, generation)
                }
            };
            let idx = job.index();
            if self.state.jobs[idx].generation != generation
                || self.state.jobs[idx].completed
                || self.state.jobs[idx].cancelled
            {
                // Stale: the job was rescaled or cancelled meanwhile.
                // Consumed with no bookkeeping, exactly like the
                // historical loop's `continue`.
                self.state.queue.note_stale_popped();
                continue;
            }
            self.state.jobs[idx].advance(self.now, &self.cfg.scaling);
            debug_assert!(
                self.state.jobs[idx].steps_done >= self.state.jobs[idx].spec.work() - 1e-3,
                "completion fired early for {}",
                self.state.jobs[idx].spec.name
            );
            self.state.jobs[idx].completed = true;
            self.state.completed_count += 1;
            self.state.jobs[idx].running = false;
            self.state.jobs[idx].completed_at = Some(self.now);
            self.state.util.set(self.now, job, 0);
            self.state.view.remove(job, self.state.launcher);
            // A successful retirement feeds the resilience layer
            // (breaker reset, budget deposit, health forgiveness) at
            // the same boundary the operator's complete_job uses.
            if !self.workload.faults.flaky.is_empty() {
                self.state.resilience.on_success(job, self.now);
            }
            self.book_pending = true;
            return true;
        }
    }

    fn apply(&mut self, actions: &[Action]) {
        self.state
            .apply_all(self.cfg, &self.workload.faults, actions, self.now);
        self.book();
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
    use crate::workload::generate_workload;
    use elastic_core::{AgingSweep, FcfsBackfill, Policy, PolicyConfig, PolicyKind};

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
        use crate::workload::{FaultEvent, FaultKind, FaultSpec};
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
        use crate::workload::{FaultEvent, FaultKind, FaultSpec};
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
        use crate::workload::{FaultEvent, FaultKind, FaultSpec};
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
        use crate::workload::{FaultEvent, FaultKind, FaultSpec};
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
