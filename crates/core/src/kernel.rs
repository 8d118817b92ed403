//! The scheduling kernel: the one job-state transition machine under
//! both engines.
//!
//! The [`Kernel`] owns the [`ClusterView`], the utilization fold, the
//! rescale / cancel / completed / failed tallies, the [`FaultStats`],
//! the [`ResilienceState`], the recovery parameters, an attempt ledger
//! at the view's rows and the completed jobs' outcome rows, and
//! it is the only code that calls a
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
//!
//! # Sized by the live jobs
//!
//! A job takes a row of the view when it is admitted, keeps it parked
//! through a requeue backoff, and gives it back — for the next admission
//! to reuse — when it completes, is cancelled or fails, once its outcome
//! is written. The view's row column is the one job → row map of the
//! run: the kernel's attempt ledger is a column beside the view's
//! arena, at the same rows, and an engine keeps its own per-job state
//! there too ([`Effects`] hands the row). What stays per job for the
//! whole run is that column's 4 bytes (where its row is, or that it has
//! none yet or any more) and a [`JobOutcome`] row, filled in as the job
//! completes and named and read in id order at the end. Utilization is folded
//! as the clock advances ([`Utilization`]), so no allocation change is
//! kept unless a caller asks for the series
//! ([`Kernel::record_allocations`]).

use std::sync::Arc;

use hpc_metrics::{ColumnBytes, Counter, Counters, Duration, JobId, SimTime, Utilization};
use hpc_workload::{FaultEvent, FaultKind, FaultSpec, FlakyOp};

use crate::policy::{CompleteBurst, SchedulingPolicy, SubmitBurst};
use crate::report::{FaultStats, JobOutcome, RunMetrics};
use crate::resilience::{FlakyOutcome, ResilienceState};
use crate::view::{apply_action, Action, ClusterView, JobFields, JobState, Phase};

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
///
/// `launch`, `resize` and `stop` are handed the job's attempt `row` —
/// its row in the kernel's [`ClusterView`], which the attempt ledger is
/// indexed by too — the one place an engine keeps its own per-job
/// state: a job holds the same row from its admission until it ends (an
/// away job keeps it through its backoff), no two live or away jobs
/// hold one row, and the row is free for the next admission once a
/// terminal stop (`Completed`, `Cancelled`, `Failed`) has handed it.
/// Rows are dense from 0 and as many as the most jobs live or away at
/// once.
pub trait Effects {
    /// The next job of the submission burst being decided (or the one
    /// re-entering job of [`Kernel::requeue_due`]); `None` ends it.
    fn next_admission(&mut self) -> Option<Admission>;

    /// Starts `job`, on `row`, on `replicas` workers. `true` if the
    /// application is executing on return; an engine that answers
    /// `false` reports the start through [`Kernel::started`].
    fn launch(&mut self, job: JobId, row: usize, replicas: u32, now: SimTime) -> bool;

    /// Rescales running `job`, on `row`, from `from` to `to` workers.
    /// `true` if the new allocation holds on return; an engine that
    /// answers `false` (a shrink waiting for the application's
    /// acknowledgement) reports it through [`Kernel::shrunk`].
    fn resize(&mut self, job: JobId, row: usize, from: u32, to: u32, now: SimTime) -> bool;

    /// Stops `job` and releases what the engine holds for it, on the
    /// row it held: `None` only for a job cancelled at its first
    /// admission, which never had one.
    fn stop(&mut self, job: JobId, row: Option<usize>, why: Stop, now: SimTime);

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

    /// What only the engine knows about `job`, asked when it completes:
    /// its priority and submission instant. (Its name is asked for when
    /// the report is built: [`Kernel::metrics`].)
    fn identify(&self, job: JobId) -> (u32, SimTime);
}

/// [`Attempt::started_at`] of an attempt whose application has not
/// started.
const NOT_STARTED: SimTime = SimTime::NEG_INFINITY;

/// One row of the attempt ledger, at the job's view row: a live job's,
/// or an away one's (its view row parked).
#[derive(Debug, Clone, Copy)]
struct Attempt {
    /// Workers the job is entitled to (0 unless running).
    replicas: u32,
    /// Kill-and-requeue attempts consumed.
    attempts: u32,
    /// Slots the utilization fold has on record for the job: its
    /// `replicas`, except while a shrink awaits its acknowledgement.
    on_record: u32,
    /// When the application of the current attempt started, or
    /// [`NOT_STARTED`].
    started_at: SimTime,
    /// Core-seconds of the current attempt, banked at every allocation
    /// change (never per tick), so requeue waste does not depend on how
    /// often an engine looks.
    banked: f64,
    /// While live and running, when the current allocation began;
    /// while away, when the backoff ends.
    at: SimTime,
}

/// The ledger is as long as the view's arena, the most jobs ever live or
/// away at once: its row stays at five words.
const _: () = assert!(std::mem::size_of::<Attempt>() <= 40);

impl Default for Attempt {
    fn default() -> Self {
        Attempt {
            replicas: 0,
            attempts: 0,
            on_record: 0,
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
    util: Utilization,
    launcher: u32,
    completed: u32,
    /// `permanent_failures` doubles as the failed-jobs tally.
    faults: FaultStats,
    resilience: ResilienceState,
    /// Checkpoint interval, retry ceiling, backoff base (no schedules).
    recovery: FaultSpec,
    /// Transient faults are scheduled: completions feed the breaker.
    flaky_scheduled: bool,
    /// The attempt ledger, indexed by the view's rows: live and away
    /// jobs' rows, and free ones.
    rows: Vec<Attempt>,
    /// Per known job, by id: its outcome once it completed, named
    /// [`Kernel::unnamed`] until a report names it.
    outcomes: Vec<Option<JobOutcome>>,
    /// The kernel's own placeholder name: writing an outcome row then
    /// touches no name the engine shares (a workload's names are read
    /// by every shard of a federation at once).
    unnamed: Arc<str>,
    /// Jobs admitted at least once.
    admitted: u32,
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
            util: Utilization::new(capacity.max(1)),
            launcher: launcher_slots,
            completed: 0,
            faults: FaultStats::default(),
            resilience: ResilienceState::new(&recovery.flaky),
            recovery,
            flaky_scheduled: false,
            rows: Vec::new(),
            outcomes: Vec::new(),
            unnamed: Arc::from(""),
            admitted: 0,
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
    /// up front says so here), and the outcome rows are reserved in
    /// one allocation.
    pub fn expect_jobs(&mut self, n: usize) {
        if n > self.view.known_jobs() {
            self.view.expect_jobs(n);
            self.outcomes.reserve_exact(n - self.outcomes.len());
        }
    }

    /// The persistent cluster view every decision was taken on.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// Cluster utilization, folded so far.
    pub fn utilization(&self) -> &Utilization {
        &self.util
    }

    /// Keeps every allocation change too — the per-job series the
    /// Fig. 9 profiles plot ([`Utilization::log`]). The one way to ask
    /// for them; a run that does not keeps none.
    ///
    /// # Panics
    /// Once an allocation has changed.
    pub fn record_allocations(&mut self) {
        self.util.keep_log();
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

    /// The bytes of each column the kernel holds, its view's included.
    pub fn column_bytes(&self) -> Vec<ColumnBytes> {
        let mut columns = vec![
            ColumnBytes::of_vec("kernel attempt rows", &self.rows),
            ColumnBytes::of_vec("outcome rows", &self.outcomes),
        ];
        columns.extend(self.util.column_bytes());
        columns.extend(self.view.column_bytes());
        columns
    }

    /// Jobs admitted or expected so far.
    pub fn known_jobs(&self) -> usize {
        self.view.known_jobs()
    }

    /// `true` once every known job is terminal. O(1): each terminal
    /// phase has one writer, which bumps its tally in the same breath.
    pub fn all_terminal(&self) -> bool {
        self.terminal() as usize == self.known_jobs()
    }

    /// Completed, cancelled and failed jobs.
    fn terminal(&self) -> u32 {
        let cancelled = self.tally(Counter::Cancellations);
        self.completed + cancelled + self.faults.permanent_failures
    }

    /// Known jobs that are not terminal, in id order (diagnostics).
    pub fn unfinished(&self) -> impl Iterator<Item = JobId> + '_ {
        (0..self.known_jobs())
            .map(JobId::from_index)
            .filter(|&job| self.view.phase(job) != Phase::Ended)
    }

    /// The view row of live or away `job`.
    #[inline]
    fn row(&self, job: JobId) -> usize {
        match self.view.phase(job) {
            Phase::Live(row) | Phase::Parked(row) => row,
            phase => panic!("{job} has no attempt row: {phase:?}"),
        }
    }

    /// `job`, on `row`, holds `slots` slots from `now` on.
    #[inline]
    fn record(&mut self, row: usize, job: JobId, now: SimTime, slots: u32) {
        let from = std::mem::replace(&mut self.rows[row].on_record, slots);
        self.util.record(now, job, from, slots);
    }

    /// Panics unless the books balance: every slot is free, failed or
    /// held by a running job (less the open deficit); free slots and a
    /// deficit never coexist; the view's rows are its live and parked
    /// jobs' and its free list; and the completed / cancelled / failed
    /// tallies and the live and parked rows partition the admitted jobs.
    /// O(live), allocating nothing — engines run it in debug builds,
    /// tests after every event.
    pub fn check(&self) {
        let v = &self.view;
        let held: u32 = (v.jobs_unordered().filter(|j| j.running))
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
        assert_eq!(
            (self.terminal() as usize) + v.len() + v.parked_rows(),
            self.admitted as usize,
            "the terminal tallies and the rows partition the admitted jobs"
        );
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
        if !matches!(self.view.phase(job), Phase::Parked(_)) {
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
                let row = self.row(job);
                let a = &mut self.rows[row];
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
        let row = self.row(job);
        self.rows[row].started_at = now;
    }

    /// `job`'s application acknowledged the pending shrink at `now`
    /// (after an [`Effects::resize`] that answered `false`): from here
    /// on it occupies only what it is entitled to.
    pub fn shrunk(&mut self, job: JobId, now: SimTime) {
        let row = self.row(job);
        self.record(row, job, now, self.rows[row].replicas);
    }

    /// Final run metrics over the jobs that completed normally, in
    /// `(submitted_at, id)` order, from a copy of the outcome rows.
    /// `name` is the reporting edge's name of a job: the caller's
    /// shared string (the workload's, or the job registry's), so a
    /// report holds no copy of it. The operator, which runs on after a
    /// report, calls this; an engine done with the kernel calls
    /// [`Kernel::into_report`].
    pub fn metrics(
        &self,
        policy: &dyn SchedulingPolicy,
        name: impl Fn(JobId) -> Arc<str>,
    ) -> RunMetrics {
        let named = |(i, o): (usize, &Option<JobOutcome>)| {
            let o = o.as_ref()?;
            let name = name(JobId::from_index(i));
            Some(JobOutcome { name, ..*o })
        };
        let outcomes = self.outcomes.iter().enumerate().filter_map(named).collect();
        self.report(policy, outcomes)
    }

    /// Consumes the finished kernel into its report: [`Kernel::metrics`]
    /// and the utilization fold. The outcome rows become the report's
    /// in place, so the report allocates nothing the run did not.
    pub fn into_report(
        mut self,
        policy: &dyn SchedulingPolicy,
        name: impl Fn(JobId) -> Arc<str>,
    ) -> (RunMetrics, Utilization) {
        let mut outcomes = std::mem::take(&mut self.outcomes);
        for (i, o) in outcomes.iter_mut().enumerate() {
            if let Some(o) = o {
                o.name = name(JobId::from_index(i));
            }
        }
        outcomes.retain(Option::is_some);
        // `map` over a `Vec`'s own iterator collects into its buffer.
        let outcomes = (outcomes.into_iter())
            .map(|o| o.expect("only completed rows are left"))
            .collect();
        (self.report(policy, outcomes), self.util)
    }

    /// The run's metrics over `outcomes`, the completed rows in id
    /// order.
    fn report(&self, policy: &dyn SchedulingPolicy, mut outcomes: Vec<JobOutcome>) -> RunMetrics {
        let rescales = self.tally(Counter::Rescales);
        if outcomes.is_empty() {
            // Every job was cancelled or failed: nothing to aggregate.
            return RunMetrics::empty(policy.name(), rescales).with_fault_stats(self.fault_stats());
        }
        // Stable: ties keep id (= admission) order, so the float sums
        // inside the metrics are reproducible run to run. Ids are
        // workload order in a replay, so the outcomes arrive sorted,
        // and a stable sort of a sorted slice is the identity: skip
        // it, and the scratch buffer it would allocate.
        if !outcomes.is_sorted_by_key(|o| o.submitted_at) {
            outcomes.sort_by_key(|o| o.submitted_at);
        }
        let utilization = self.util.average();
        RunMetrics::from_outcomes(policy.name(), outcomes, utilization, rescales)
            .with_fault_stats(self.fault_stats())
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
        let row = self.row(action.job());
        apply_action(&mut self.view, action, now, self.launcher);
        match *action {
            Action::Create { job, replicas } => {
                // A fresh attempt ledger: waste on a later requeue
                // charges only from this launch onward.
                self.record(row, job, now, replicas);
                let a = &mut self.rows[row];
                a.replicas = replicas;
                a.banked = 0.0;
                a.at = now;
                a.started_at = if fx.launch(job, row, replicas, now) {
                    now
                } else {
                    NOT_STARTED
                };
            }
            Action::Shrink { job, to_replicas } | Action::Expand { job, to_replicas } => {
                let a = &mut self.rows[row];
                a.bank(now);
                let from = std::mem::replace(&mut a.replicas, to_replicas);
                self.counters.add(Counter::Rescales, 1);
                if fx.resize(job, row, from, to_replicas, now) {
                    self.record(row, job, now, to_replicas);
                }
            }
            Action::Enqueue { job } => fx.enqueued(job, now),
            Action::Evict { job } => {
                let a = &mut self.rows[row];
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
                self.record(row, job, now, 0);
                let rollback = Duration::from_secs(rollback);
                fx.stop(job, Some(row), Stop::Evicted { rollback }, now);
            }
            Action::Requeue { job } => {
                // The whole attempt is wasted; the job comes back after
                // an exponential backoff, or never once the retry
                // budget is spent.
                let a = &mut self.rows[row];
                a.bank(now);
                self.faults.wasted_core_seconds += a.banked;
                self.faults.requeues += 1;
                a.banked = 0.0;
                a.replicas = 0;
                a.attempts += 1;
                let attempts = a.attempts;
                self.record(row, job, now, 0);
                let why = if attempts >= self.recovery.max_attempts {
                    // Its parked row is freed.
                    self.view.remove(job, self.launcher);
                    self.faults.permanent_failures += 1;
                    Stop::Failed { attempts }
                } else {
                    let back_at = now + self.recovery.backoff_for(attempts);
                    self.rows[row].at = back_at;
                    Stop::Requeued {
                        attempt: attempts,
                        back_at,
                    }
                };
                fx.stop(job, Some(row), why, now);
            }
            // The view side is folded above; a policy's own cancel is
            // part of its plan, so no nested redistribution.
            Action::Cancel { job } => self.cancelled(job, row, now, fx),
        }
    }

    /// Admits one job: into the view as a queued entry (`Some`), on its
    /// parked row if it is re-entering, or — its cancellation already on
    /// record — straight to cancelled.
    fn admit<E: Effects>(&mut self, adm: Admission, now: SimTime, fx: &mut E) -> Option<JobId> {
        let Admission { mut job, cancelled } = adm;
        debug_assert!(!job.running && job.last_action == SimTime::NEG_INFINITY);
        self.view.expect_jobs(job.id.index() + 1);
        let parked = match self.view.phase(job.id) {
            Phase::Unknown => {
                self.admitted += 1;
                None
            }
            Phase::Parked(row) => {
                job.submitted_at = self.rows[row].at;
                Some(row)
            }
            phase => panic!("admission of {}, which is {phase:?}", job.id),
        };
        if cancelled {
            // Its parked row, if it has one, is freed; either way the
            // job has ended.
            self.view.remove(job.id, self.launcher);
            self.counters.add(Counter::Cancellations, 1);
            fx.stop(job.id, parked, Stop::Cancelled, now);
            return None;
        }
        self.view.insert(job, self.launcher);
        if parked.is_none() {
            // A first admission: a fresh attempt at the row the view gave.
            let row = self.row(job.id);
            match self.rows.get_mut(row) {
                Some(a) => *a = Attempt::default(),
                None => {
                    debug_assert_eq!(row, self.rows.len(), "the view grew one row");
                    self.rows.push(Attempt::default());
                }
            }
        }
        Some(job.id)
    }

    /// Retires a finished job out of the view: its outcome row is
    /// written, and its row freed.
    fn retire<E: Effects>(&mut self, job: JobId, now: SimTime, fx: &mut E) {
        let row = self.row(job);
        let a = self.rows[row];
        assert!(a.started_at != NOT_STARTED, "a completed job started");
        self.completed += 1;
        self.record(row, job, now, 0);
        let (priority, submitted_at) = fx.identify(job);
        if job.index() >= self.outcomes.len() {
            self.outcomes.resize(job.index() + 1, None);
        }
        self.outcomes[job.index()] = Some(JobOutcome {
            name: Arc::clone(&self.unnamed),
            priority,
            submitted_at,
            started_at: a.started_at,
            completed_at: now,
        });
        self.util.completed(submitted_at, now);
        let retired = self.view.remove(job, self.launcher);
        debug_assert!(retired.is_some(), "completion of {job}, which is not live");
        // A successful retirement feeds the resilience layer (breaker
        // reset, budget deposit, health forgiveness).
        if self.flaky_scheduled {
            self.resilience.on_success(job, now);
        }
        fx.stop(job, Some(row), Stop::Completed, now);
    }

    /// Tears a live or away job down as cancelled; `Some(held_slots)`,
    /// or `None` if it is unknown or already terminal.
    fn retire_cancelled<E: Effects>(
        &mut self,
        job: JobId,
        now: SimTime,
        fx: &mut E,
    ) -> Option<bool> {
        let (Phase::Live(row) | Phase::Parked(row)) = self.view.phase(job) else {
            return None;
        };
        // A job waiting out a backoff is alive but not in the view: its
        // parked row is freed all the same.
        let held = (self.view.remove(job, self.launcher)).is_some_and(|j| j.running);
        self.cancelled(job, row, now, fx);
        Some(held)
    }

    /// Books `job`, out of the view and its row freed, as cancelled.
    fn cancelled<E: Effects>(&mut self, job: JobId, row: usize, now: SimTime, fx: &mut E) {
        self.counters.add(Counter::Cancellations, 1);
        self.record(row, job, now, 0);
        fx.stop(job, Some(row), Stop::Cancelled, now);
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
