//! The scheduling kernel: the one job-state transition machine under
//! both engines.
//!
//! The [`Kernel`] owns the [`ClusterView`], the utilization record, the
//! rescale / cancel / completed / failed tallies, the [`FaultStats`],
//! the [`ResilienceState`], the recovery parameters and a dense per-job
//! attempt ledger, and it is the only code that calls a
//! [`SchedulingPolicy`] hook, folds an [`Action`] into the view, costs
//! an eviction or a requeue, picks a flaky victim, routes a
//! [`FlakyOutcome`], decides that every job is terminal, or builds
//! [`RunMetrics`]. It owns no clock, no store, no event queue and no
//! policy: an engine is an adapter that turns what it observes into one
//! entry point, passing the instant, the policy and its [`Effects`] —
//! the few things only an engine can do. Entry points are generic over
//! the effects, so an engine pays no dynamic dispatch for them. The
//! event → hook table is in the crate docs (`elastic_core`, "One
//! kernel under both engines"); the order in which the events of one
//! instant arrive is [`EventClass`].

use std::sync::Arc;

use hpc_metrics::{Counter, Counters, Duration, JobId, SimTime, UtilizationRecorder};
use hpc_workload::{FaultEvent, FaultKind, FaultSpec, FlakyOp};

use crate::policy::{CompleteBurst, SchedulingPolicy, SubmitBurst};
use crate::report::{FaultStats, JobOutcome, RunMetrics};
use crate::resilience::{FlakyOutcome, ResilienceState};
use crate::view::{apply_action, Action, ClusterView, JobFields, JobState};

/// The kind of event an entry point stands for. **The declaration
/// order is the order in which events sharing an instant reach the
/// kernel** — the one definition of it: the DES queue sorts
/// same-instant entries by `(EventClass, JobId, insertion)`, and one
/// `CharmOperator::tick` takes the classes in this order. The crate
/// docs' event table ("One kernel under both engines") says it in
/// prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// [`Kernel::submit_burst`].
    Submit,
    /// [`Kernel::cancel`].
    Cancel,
    /// [`Kernel::capacity_lost`] and [`Kernel::capacity_returned`].
    Capacity,
    /// [`Kernel::flaky`].
    Flaky,
    /// [`Kernel::requeue_due`].
    Requeue,
    /// [`Kernel::complete_burst`].
    Completion,
    /// [`Kernel::timer`].
    Timer,
}

/// One job entering the scheduler: what [`Effects::next_admission`]
/// hands the kernel, for a first submission and for the re-entry of a
/// kill-and-requeued job alike (the kernel knows which it is).
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// The job as a queued entry under its dense id. A re-entering job
    /// is ordered by its backoff deadline, not by the `submitted_at`
    /// given here — it lost its place.
    pub job: JobState,
    /// A cancellation is already on record. Such a job is retired
    /// without a policy decision — what a store-mediated control plane
    /// physically observes when the cancel beat the reconciler.
    pub cancelled: bool,
}

/// Why [`Effects::stop`] is asked to stop a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// The application finished.
    Completed,
    /// Cancelled by the client, or by a policy's [`Action::Cancel`].
    Cancelled,
    /// Checkpoint/restart preemption ([`Action::Evict`]): the job stays
    /// queued and relaunches from its last checkpoint; `rollback` is
    /// the lost tail since that checkpoint (zero if the application had
    /// not started).
    Evicted {
        /// Progress time rolled back.
        rollback: Duration,
    },
    /// Kill-and-requeue ([`Action::Requeue`]): the attempt is lost; the
    /// engine calls [`Kernel::requeue_due`] at `back_at`.
    Requeued {
        /// Attempts consumed so far (1-based).
        attempt: u32,
        /// When the backoff expires.
        back_at: SimTime,
    },
    /// The retry budget ran out on a requeue: terminal.
    Failed {
        /// Attempts consumed.
        attempts: u32,
    },
}

/// What the kernel needs an engine to do — and nothing it decides.
pub trait Effects {
    /// The next job of the submission burst being decided (or the one
    /// re-entering job of [`Kernel::requeue_due`]); `None` ends it.
    fn next_admission(&mut self) -> Option<Admission>;

    /// Starts `job` on `replicas` workers. `true` if the application is
    /// executing on return; an engine that answers `false` reports the
    /// start through [`Kernel::started`].
    fn launch(&mut self, job: JobId, replicas: u32, now: SimTime) -> bool;

    /// Rescales running `job` from `from` to `to` workers. `true` if
    /// the new allocation holds on return; an engine that answers
    /// `false` (a shrink waiting for the application's acknowledgement)
    /// reports it through [`Kernel::shrunk`].
    fn resize(&mut self, job: JobId, from: u32, to: u32, now: SimTime) -> bool;

    /// Stops `job` and releases what the engine holds for it.
    fn stop(&mut self, job: JobId, why: Stop, now: SimTime);

    /// The policy left `job` queued.
    fn enqueued(&mut self, job: JobId, now: SimTime) {
        let _ = (job, now);
    }

    /// The next job of the completion burst that has finished; `None`
    /// ends the burst.
    fn next_completion(&mut self) -> Option<JobId>;

    /// One completion of the burst is fully applied (retired, decided,
    /// folded) — the DES's per-event bookkeeping point.
    fn event_done(&mut self) {}
}

/// Where a job is in its life. The instant a phase needs is the row's
/// [`Attempt::at`], so the tag is one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// Never admitted.
    #[default]
    Unknown,
    /// In the view, queued or running.
    Live,
    /// Alive but out of the view: waiting out a requeue backoff until
    /// [`Attempt::at`].
    Away,
    /// Completed at [`Attempt::at`].
    Completed,
    Cancelled,
    Failed,
}

/// [`Attempt::started_at`] of an attempt whose application has not
/// started.
const NOT_STARTED: SimTime = SimTime::NEG_INFINITY;

/// One row of the attempt ledger.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    phase: Phase,
    /// Workers the job is entitled to (0 unless running).
    replicas: u32,
    /// Kill-and-requeue attempts consumed.
    attempts: u32,
    /// When the application of the current attempt started, or
    /// [`NOT_STARTED`].
    started_at: SimTime,
    /// Core-seconds of the current attempt, banked at every allocation
    /// change (never per tick), so requeue waste does not depend on how
    /// often an engine looks.
    banked: f64,
    /// The phase's instant: while `Live` and running, when the current
    /// allocation began; while `Away`, when the backoff ends; once
    /// `Completed`, when the job completed.
    at: SimTime,
}

/// The ledger has a row for every job ever submitted, for the whole
/// run: no padding (a 400 000-job replay holds 16 MB of them).
const _: () = assert!(std::mem::size_of::<Attempt>() <= 40);

impl Default for Attempt {
    fn default() -> Self {
        Attempt {
            phase: Phase::Unknown,
            replicas: 0,
            attempts: 0,
            started_at: NOT_STARTED,
            banked: 0.0,
            at: SimTime::ZERO,
        }
    }
}

impl Attempt {
    fn bank(&mut self, now: SimTime) {
        self.banked += f64::from(self.replicas) * (now - self.at).as_secs();
        self.at = now;
    }
}

/// The transition machine (see the module docs).
pub struct Kernel {
    view: ClusterView,
    util: UtilizationRecorder,
    launcher: u32,
    completed: u32,
    /// `permanent_failures` doubles as the failed-jobs tally.
    faults: FaultStats,
    resilience: ResilienceState,
    /// Checkpoint interval, retry ceiling, backoff base (no schedules).
    recovery: FaultSpec,
    /// Transient faults are scheduled: completions feed the breaker.
    flaky_scheduled: bool,
    jobs: Vec<Attempt>,
    /// Burst dispatches and their jobs, cancellations and rescales.
    counters: Counters,
}

impl Kernel {
    /// A kernel over an empty cluster of `capacity` slots whose running
    /// jobs each pay `launcher_slots`, with default recovery parameters.
    pub fn new(capacity: u32, launcher_slots: u32) -> Kernel {
        let recovery = FaultSpec::default();
        Kernel {
            view: ClusterView::new(capacity),
            util: UtilizationRecorder::new(capacity.max(1)),
            launcher: launcher_slots,
            completed: 0,
            faults: FaultStats::default(),
            resilience: ResilienceState::new(&recovery.flaky),
            recovery,
            flaky_scheduled: false,
            jobs: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Installs `spec`'s recovery parameters and rebuilds the
    /// resilience core from its `FlakySpec`. The schedules inside
    /// `spec` are the engine's to deliver.
    pub fn set_recovery(&mut self, spec: &FaultSpec) {
        self.resilience = ResilienceState::new(&spec.flaky);
        self.flaky_scheduled = !spec.flaky.is_empty();
        self.recovery = FaultSpec {
            checkpoint_interval: spec.checkpoint_interval,
            max_attempts: spec.max_attempts,
            backoff_base: spec.backoff_base,
            ..FaultSpec::default()
        };
    }

    /// Declares that ids `0..n` will be admitted: until they are, they
    /// count as not terminal (an engine that knows its whole workload
    /// up front says so here).
    pub fn expect_jobs(&mut self, n: usize) {
        if n > self.jobs.len() {
            self.jobs.resize(n, Attempt::default());
        }
    }

    /// The persistent cluster view every decision was taken on.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// Worker slots per job over time.
    pub fn utilization(&self) -> &UtilizationRecorder {
        &self.util
    }

    /// Fault-recovery tallies so far, the resilience layer's included.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            transient_faults: self.resilience.transient_faults(),
            retries: self.resilience.retries(),
            breaker_trips: self.resilience.breaker_trips(),
            ..self.faults
        }
    }

    /// Burst dispatches ([`Kernel::submit_burst`],
    /// [`Kernel::complete_burst`]) and their jobs, cancellations,
    /// rescales, and the indexes its view built.
    pub fn counters(&self) -> Counters {
        self.counters.merge(self.view.counters())
    }

    /// `counter` of this kernel's own [`Counters`], as the `u32` its
    /// reports carry.
    fn tally(&self, counter: Counter) -> u32 {
        u32::try_from(self.counters[counter]).expect("a kernel tally fits in u32")
    }

    /// Jobs admitted or expected so far.
    pub fn known_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// `true` once every known job is terminal. O(1): each terminal
    /// phase has one writer, which bumps its tally in the same breath.
    pub fn all_terminal(&self) -> bool {
        let cancelled = self.tally(Counter::Cancellations);
        let terminal = self.completed + cancelled + self.faults.permanent_failures;
        terminal as usize == self.jobs.len()
    }

    /// Known jobs that are not terminal, in id order (diagnostics).
    pub fn unfinished(&self) -> impl Iterator<Item = JobId> + '_ {
        let terminal = |p| matches!(p, Phase::Completed | Phase::Cancelled | Phase::Failed);
        self.jobs
            .iter()
            .enumerate()
            .filter(move |(_, a)| !terminal(a.phase))
            .map(|(i, _)| JobId::from_index(i))
    }

    /// Panics unless the books balance: every slot is free, failed or
    /// held by a running job (less the open deficit); free slots and a
    /// deficit never coexist; the completed / cancelled / failed tallies
    /// partition the terminal jobs; and the view holds exactly the live
    /// ones. O(jobs) — engines run it in debug builds, tests after every
    /// event.
    pub fn check(&self) {
        let v = &self.view;
        let held: u32 = (v.jobs().filter(|j| j.running))
            .map(|j| j.replicas + self.launcher)
            .sum();
        assert_eq!(
            v.free_slots() + v.failed_slots() + held,
            v.capacity() + v.deficit(),
            "slot conservation (free + failed + held == capacity + deficit)"
        );
        assert!(
            v.free_slots() == 0 || v.deficit() == 0,
            "{} slots free beside a deficit of {}",
            v.free_slots(),
            v.deficit()
        );
        let (mut completed, mut cancelled, mut failed) = (0, 0, 0);
        for (i, a) in self.jobs.iter().enumerate() {
            match a.phase {
                Phase::Completed => completed += 1,
                Phase::Cancelled => cancelled += 1,
                Phase::Failed => failed += 1,
                Phase::Unknown | Phase::Live | Phase::Away => {}
            }
            let in_view = v.job(JobId::from_index(i)).is_some();
            assert_eq!(in_view, a.phase == Phase::Live, "job {i} is {:?}", a.phase);
        }
        let tallies = (
            self.completed,
            self.tally(Counter::Cancellations),
            self.faults.permanent_failures,
        );
        assert_eq!((completed, cancelled, failed), tallies, "terminal tallies");
    }

    // -----------------------------------------------------------------
    // Entry points
    // -----------------------------------------------------------------

    /// A burst of same-instant submissions: one policy dispatch; the
    /// policy pulls each job ([`Effects::next_admission`]) into the view
    /// and answers it before pulling the next.
    pub fn submit_burst<E: Effects>(
        &mut self,
        now: SimTime,
        policy: &dyn SchedulingPolicy,
        fx: &mut E,
    ) {
        self.counters.add(Counter::SubmitBursts, 1);
        let (kernel, owed) = (self, false);
        policy.on_submit_burst(&mut Burst {
            kernel,
            fx,
            now,
            owed,
        });
    }

    /// `job`'s requeue backoff expired: it re-enters through a one-job
    /// submission burst (`fx` yields it as the only admission). `false`
    /// — and nothing pulled — if the job is not waiting out a backoff
    /// (cancelled meanwhile).
    pub fn requeue_due<E: Effects>(
        &mut self,
        job: JobId,
        now: SimTime,
        policy: &dyn SchedulingPolicy,
        fx: &mut E,
    ) -> bool {
        if self.jobs[job.index()].phase != Phase::Away {
            return false;
        }
        self.submit_burst(now, policy, fx);
        true
    }

    /// A burst of same-instant completions: one policy dispatch; each
    /// job [`Effects::next_completion`] yields is retired, its freed
    /// slots redistributed, and [`Effects::event_done`] called — before
    /// the next is pulled.
    pub fn complete_burst<E: Effects>(
        &mut self,
        now: SimTime,
        policy: &dyn SchedulingPolicy,
        fx: &mut E,
    ) {
        self.counters.add(Counter::CompleteBursts, 1);
        let (kernel, owed) = (self, false);
        let mut burst = Burst {
            kernel,
            fx,
            now,
            owed,
        };
        policy.on_complete_burst(&mut burst);
        if burst.owed {
            // A policy that skipped the final `apply` still owes the
            // event its bookkeeping.
            burst.fx.event_done();
        }
    }

    /// Client cancellation. `false` if `job` is unknown or already
    /// terminal (a no-op). A job that held slots frees them, and the
    /// policy redistributes exactly as after a completion.
    pub fn cancel<E: Effects>(
        &mut self,
        job: JobId,
        now: SimTime,
        policy: &dyn SchedulingPolicy,
        fx: &mut E,
    ) -> bool {
        let Some(held) = self.retire_cancelled(job, now, fx) else {
            return false;
        };
        if held {
            self.redistribute(now, policy, fx);
        }
        true
    }

    /// Capacity loss (node failure or reclamation): the slots fail in
    /// the view, the policy's `on_fault` plan must clear the deficit
    /// that opens, then the usual redistribution runs.
    ///
    /// # Panics
    /// If the plan leaves a deficit.
    pub fn capacity_lost<E: Effects>(
        &mut self,
        fault: &FaultEvent,
        now: SimTime,
        policy: &dyn SchedulingPolicy,
        fx: &mut E,
    ) {
        debug_assert!(fault.kind != FaultKind::Return);
        self.view.fail_slots(fault.slots);
        let plan = policy.on_fault(&self.view, fault, now);
        self.fold(&plan, now, fx);
        assert_eq!(
            self.view.deficit(),
            0,
            "policy {} left a fault deficit uncovered",
            policy.name()
        );
        self.redistribute(now, policy, fx);
    }

    /// Reclaimed capacity comes back: the slots rejoin the free pool and
    /// the policy may expand or admit into them.
    pub fn capacity_returned<E: Effects>(
        &mut self,
        slots: u32,
        now: SimTime,
        policy: &dyn SchedulingPolicy,
        fx: &mut E,
    ) {
        self.view.restore_slots(slots);
        self.redistribute(now, policy, fx);
    }

    /// A scheduled transient control-plane fault: picks the victim, asks
    /// the resilience core, and routes the outcome through the ordinary
    /// requeue / evict transitions.
    pub fn flaky<E: Effects>(
        &mut self,
        op: FlakyOp,
        now: SimTime,
        policy: &dyn SchedulingPolicy,
        fx: &mut E,
    ) -> FlakyOutcome {
        let victim = self.flaky_victim(op);
        let outcome = self.resilience.on_flaky(op, victim, now);
        let preempt = match outcome {
            // No running victim, a sub-threshold heartbeat miss, or an
            // open breaker fast-failing the operation.
            FlakyOutcome::Observed | FlakyOutcome::Absorbed => return outcome,
            FlakyOutcome::Retry => Action::Requeue {
                job: victim.expect("retry outcome implies a victim"),
            },
            FlakyOutcome::Deny => {
                // Retry budget dry: forcing the attempt counter to the
                // ceiling makes the requeue below the permanent failure.
                let job = victim.expect("deny outcome implies a victim");
                let a = &mut self.jobs[job.index()];
                a.attempts = (a.attempts).max(self.recovery.max_attempts.saturating_sub(1));
                Action::Requeue { job }
            }
            FlakyOutcome::Evict => Action::Evict {
                job: victim.expect("evict outcome implies a victim"),
            },
        };
        self.apply(&preempt, now, fx);
        self.redistribute(now, policy, fx);
        outcome
    }

    /// The policy's periodic deadline. `false`, with the policy not
    /// consulted, once every job is terminal — the run is over.
    pub fn timer<E: Effects>(
        &mut self,
        now: SimTime,
        policy: &dyn SchedulingPolicy,
        fx: &mut E,
    ) -> bool {
        #[cfg(debug_assertions)]
        self.check();
        if self.all_terminal() {
            return false;
        }
        let actions = policy.on_timer(&self.view, now);
        self.fold(&actions, now, fx);
        true
    }

    /// `job`'s application started at `now` (after an
    /// [`Effects::launch`] that answered `false`).
    pub fn started(&mut self, job: JobId, now: SimTime) {
        self.jobs[job.index()].started_at = now;
    }

    /// `job`'s application acknowledged the pending shrink at `now`
    /// (after an [`Effects::resize`] that answered `false`): from here
    /// on it occupies only what it is entitled to.
    pub fn shrunk(&mut self, job: JobId, now: SimTime) {
        self.util.set(now, job, self.jobs[job.index()].replicas);
    }

    /// Final run metrics over the jobs that completed normally, in
    /// `(submitted_at, id)` order. `identify` supplies what only the
    /// reporting edge knows about a job: name, priority, submission
    /// instant. The name is the caller's shared string (the workload's,
    /// or the job registry's), so a report holds no copy of it. The
    /// operator, which runs on after a report, calls this; an engine
    /// done with the kernel calls [`Kernel::into_report`].
    pub fn metrics(
        &self,
        policy: &dyn SchedulingPolicy,
        mut identify: impl FnMut(JobId) -> (Arc<str>, u32, SimTime),
    ) -> RunMetrics {
        let mut outcomes = Vec::with_capacity(self.completed as usize);
        for (i, a) in self.jobs.iter().enumerate() {
            if a.phase == Phase::Completed {
                assert!(a.started_at != NOT_STARTED, "a completed job started");
                let (name, priority, submitted_at) = identify(JobId::from_index(i));
                outcomes.push(JobOutcome {
                    name,
                    priority,
                    submitted_at,
                    started_at: a.started_at,
                    completed_at: a.at,
                });
            }
        }
        let (Some(first), Some(last)) = (
            outcomes.iter().map(|o| o.submitted_at).min(),
            outcomes.iter().map(|o| o.completed_at).max(),
        ) else {
            // Every job was cancelled or failed: nothing to aggregate.
            return RunMetrics::empty(policy.name(), self.tally(Counter::Rescales))
                .with_fault_stats(self.fault_stats());
        };
        // Stable: ties keep id (= admission) order, so the float sums
        // inside the metrics are reproducible run to run. Ids are
        // workload order in a replay, so the outcomes usually arrive
        // sorted, and a stable sort of a sorted slice is the identity:
        // skip it, and the scratch buffer it would allocate.
        if !outcomes.is_sorted_by_key(|o| o.submitted_at) {
            outcomes.sort_by_key(|o| o.submitted_at);
        }
        let utilization = self.util.average_utilization(first, last);
        let rescales = self.tally(Counter::Rescales);
        RunMetrics::from_outcomes(policy.name(), outcomes, utilization, rescales)
            .with_fault_stats(self.fault_stats())
    }

    /// Consumes the finished kernel into its report: [`Kernel::metrics`]
    /// and the utilization record. The view is freed *before* the
    /// outcomes are allocated — nothing reads it again — so an engine
    /// that also frees its own replay state first peaks at its run
    /// state, not at the run state plus the report. The attempt ledger
    /// the outcomes are read from lives until they are built.
    pub fn into_report(
        mut self,
        policy: &dyn SchedulingPolicy,
        identify: impl FnMut(JobId) -> (Arc<str>, u32, SimTime),
    ) -> (RunMetrics, UtilizationRecorder) {
        self.view = ClusterView::new(0);
        let metrics = self.metrics(policy, identify);
        (metrics, self.util)
    }

    // -----------------------------------------------------------------
    // Transitions
    // -----------------------------------------------------------------

    /// The redistribution every slot release ends with (paper Fig. 3).
    fn redistribute<E: Effects>(
        &mut self,
        now: SimTime,
        policy: &dyn SchedulingPolicy,
        fx: &mut E,
    ) {
        let actions = policy.on_complete(&self.view, now);
        self.fold(&actions, now, fx);
    }

    fn fold<E: Effects>(&mut self, actions: &[Action], now: SimTime, fx: &mut E) {
        for action in actions {
            self.apply(action, now, fx);
        }
    }

    /// Folds one action into the view and the ledgers, then has the
    /// engine carry it out.
    fn apply<E: Effects>(&mut self, action: &Action, now: SimTime, fx: &mut E) {
        apply_action(&mut self.view, action, now, self.launcher);
        let a = &mut self.jobs[action.job().index()];
        match *action {
            Action::Create { job, replicas } => {
                // A fresh attempt ledger: waste on a later requeue
                // charges only from this launch onward.
                a.replicas = replicas;
                a.banked = 0.0;
                a.at = now;
                self.util.set(now, job, replicas);
                a.started_at = if fx.launch(job, replicas, now) {
                    now
                } else {
                    NOT_STARTED
                };
            }
            Action::Shrink { job, to_replicas } | Action::Expand { job, to_replicas } => {
                a.bank(now);
                let from = std::mem::replace(&mut a.replicas, to_replicas);
                self.counters.add(Counter::Rescales, 1);
                if fx.resize(job, from, to_replicas, now) {
                    self.util.set(now, job, to_replicas);
                }
            }
            Action::Enqueue { job } => fx.enqueued(job, now),
            Action::Evict { job } => {
                // Only the tail since the last checkpoint boundary of
                // this attempt is lost.
                let rollback = if a.started_at == NOT_STARTED {
                    0.0
                } else {
                    let t = self.recovery.checkpoint_interval.as_secs();
                    let elapsed = (now - a.started_at).as_secs();
                    elapsed - (elapsed / t).floor() * t
                };
                self.faults.wasted_core_seconds += f64::from(a.replicas) * rollback;
                self.faults.evictions += 1;
                a.replicas = 0;
                self.util.set(now, job, 0);
                let rollback = Duration::from_secs(rollback);
                fx.stop(job, Stop::Evicted { rollback }, now);
            }
            Action::Requeue { job } => {
                // The whole attempt is wasted; the job comes back after
                // an exponential backoff, or never once the retry
                // budget is spent.
                a.bank(now);
                self.faults.wasted_core_seconds += a.banked;
                self.faults.requeues += 1;
                a.banked = 0.0;
                a.replicas = 0;
                a.attempts += 1;
                self.util.set(now, job, 0);
                let why = if a.attempts >= self.recovery.max_attempts {
                    a.phase = Phase::Failed;
                    self.faults.permanent_failures += 1;
                    Stop::Failed {
                        attempts: a.attempts,
                    }
                } else {
                    let back_at = now + self.recovery.backoff_for(a.attempts);
                    a.phase = Phase::Away;
                    a.at = back_at;
                    Stop::Requeued {
                        attempt: a.attempts,
                        back_at,
                    }
                };
                fx.stop(job, why, now);
            }
            // The view side is folded above; a policy's own cancel is
            // part of its plan, so no nested redistribution.
            Action::Cancel { job } => {
                self.retire_cancelled(job, now, fx);
            }
        }
    }

    /// Admits one job: into the view as a queued entry (`Some`), or —
    /// its cancellation already on record — straight to `Cancelled`.
    fn admit<E: Effects>(&mut self, adm: Admission, now: SimTime, fx: &mut E) -> Option<JobId> {
        let Admission { mut job, cancelled } = adm;
        debug_assert!(!job.running && job.last_action == SimTime::NEG_INFINITY);
        self.expect_jobs(job.id.index() + 1);
        let a = &mut self.jobs[job.id.index()];
        match a.phase {
            Phase::Unknown => {}
            Phase::Away => job.submitted_at = a.at,
            phase => panic!("admission of {}, which is {phase:?}", job.id),
        }
        if cancelled {
            a.phase = Phase::Cancelled;
            self.counters.add(Counter::Cancellations, 1);
            fx.stop(job.id, Stop::Cancelled, now);
            return None;
        }
        a.phase = Phase::Live;
        self.view.insert(job, self.launcher);
        Some(job.id)
    }

    /// Retires a finished job out of the view.
    fn retire<E: Effects>(&mut self, job: JobId, now: SimTime, fx: &mut E) {
        let a = &mut self.jobs[job.index()];
        debug_assert_eq!(a.phase, Phase::Live, "completion of {job}");
        a.phase = Phase::Completed;
        a.at = now;
        a.replicas = 0;
        self.completed += 1;
        self.util.set(now, job, 0);
        self.view.remove(job, self.launcher);
        // A successful retirement feeds the resilience layer (breaker
        // reset, budget deposit, health forgiveness).
        if self.flaky_scheduled {
            self.resilience.on_success(job, now);
        }
        fx.stop(job, Stop::Completed, now);
    }

    /// Tears a live job down as cancelled; `Some(held_slots)`, or `None`
    /// if it is unknown or already terminal.
    fn retire_cancelled<E: Effects>(
        &mut self,
        job: JobId,
        now: SimTime,
        fx: &mut E,
    ) -> Option<bool> {
        let a = self.jobs.get_mut(job.index())?;
        if !matches!(a.phase, Phase::Live | Phase::Away) {
            return None;
        }
        a.phase = Phase::Cancelled;
        a.replicas = 0;
        self.counters.add(Counter::Cancellations, 1);
        // A job waiting out a backoff is alive but not in the view.
        let held = self
            .view
            .remove(job, self.launcher)
            .is_some_and(|j| j.running);
        self.util.set(now, job, 0);
        fx.stop(job, Stop::Cancelled, now);
        Some(held)
    }

    /// Deterministic victim of a transient fault: the *oldest* job
    /// holding capacity (lowest id) for launch failures, stuck rescales
    /// and heartbeat misses; the *youngest* for crash-on-start — the
    /// job most recently through the launch path.
    fn flaky_victim(&self, op: FlakyOp) -> Option<JobId> {
        // Any order over the running set yields the same extreme id;
        // the last-action list is the one whose upkeep is O(1), so a
        // flaky storm builds no priority order under an EASY/FCFS run.
        let holding = self.view.running_by_last_action().map(|j| j.id());
        match op {
            FlakyOp::CrashOnStart => holding.max(),
            FlakyOp::LaunchFail | FlakyOp::StuckRescale | FlakyOp::HeartbeatMiss => holding.min(),
        }
    }
}

/// The engine side of a burst: what [`SchedulingPolicy::on_submit_burst`]
/// and [`SchedulingPolicy::on_complete_burst`] pull from and answer to.
struct Burst<'a, E> {
    kernel: &'a mut Kernel,
    fx: &'a mut E,
    now: SimTime,
    /// A completion was handed out and its `event_done` is still owed.
    owed: bool,
}

impl<E: Effects> SubmitBurst for Burst<'_, E> {
    fn view(&self) -> &ClusterView {
        &self.kernel.view
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn admit_next(&mut self) -> Option<JobId> {
        loop {
            let admission = self.fx.next_admission()?;
            // Pre-cancelled submissions are consumed here; the policy
            // only ever sees decidable admissions.
            if let Some(id) = self.kernel.admit(admission, self.now, self.fx) {
                self.kernel.counters.add(Counter::Submissions, 1);
                return Some(id);
            }
        }
    }

    fn apply(&mut self, actions: &[Action]) {
        self.kernel.fold(actions, self.now, self.fx);
    }
}

impl<E: Effects> CompleteBurst for Burst<'_, E> {
    fn view(&self) -> &ClusterView {
        &self.kernel.view
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn retire_next(&mut self) -> bool {
        if self.owed {
            // The policy pulled again without applying; the previous
            // event still gets its bookkeeping.
            self.fx.event_done();
        }
        let next = self.fx.next_completion();
        if let Some(job) = next {
            self.kernel.counters.add(Counter::Completions, 1);
            self.kernel.retire(job, self.now, self.fx);
        }
        self.owed = next.is_some();
        self.owed
    }

    fn apply(&mut self, actions: &[Action]) {
        self.kernel.fold(actions, self.now, self.fx);
        self.owed = false;
        self.fx.event_done();
    }
}
