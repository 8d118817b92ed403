//! The scheduling kernel, driven with no store and no event queue.
//!
//! A recording fake of [`Effects`] and a scripted policy walk the
//! [`Kernel`] through every transition and pin what it decides: what an
//! eviction or a requeue costs, when a job fails for good, which hooks
//! fire and in what order, what the engine is asked to do. A proptest
//! then throws random event sequences at it under the real policies and
//! holds the kernel's invariants — recomputed here from the public view
//! and from the recorded effects, beside [`Kernel::check`] — after every
//! single event.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use elastic_core::kernel::{Admission, Effects, Kernel, Stop};
use elastic_core::resilience::FlakyOutcome;
use elastic_core::{
    Action, ClusterView, JobId, JobState, Policy, PolicyConfig, RecoveryPolicy, RecoveryStrategy,
    SchedulingPolicy,
};
use hpc_metrics::{Counter, Duration, SimTime};
use hpc_workload::{FaultEvent, FaultKind, FaultSpec, FlakyOp, FlakySpec};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CAPACITY: u32 = 32;
const LAUNCHER: u32 = 1;

fn t(secs: f64) -> SimTime {
    SimTime::from_secs(secs)
}

/// The tests' name of job `id`: `"j{id}"`.
fn name(id: JobId) -> Arc<str> {
    format!("j{id}").into()
}

/// A queued admission of job `id` with bounds `min..=max`.
fn adm(id: u32, min: u32, max: u32, submitted: f64) -> Admission {
    let job = JobState {
        id: JobId(id),
        min_replicas: min,
        max_replicas: max,
        priority: 3,
        submitted_at: t(submitted),
        replicas: 0,
        last_action: SimTime::NEG_INFINITY,
        running: false,
        walltime_estimate: None,
    };
    Admission {
        job,
        cancelled: false,
    }
}

fn reclaim(slots: u32) -> FaultEvent {
    FaultEvent {
        at: Duration::ZERO,
        slots,
        kind: FaultKind::Reclaim,
    }
}

/// What the kernel asked the engine to do.
#[derive(Debug, Clone, PartialEq)]
enum Fx {
    Launch(JobId, u32),
    Resize(JobId, u32, u32),
    Stop(JobId, Stop),
    Enqueued(JobId),
    EventDone,
}

/// The recording fake: hands over what the test queued, records what
/// it is told, and mimics either engine's answer to launch / shrink
/// (`deferred`: the operator's "later"; otherwise the DES's "now").
/// It identifies a job by the priority and submission instant of its
/// first admission; the tests name job `i` `"j{i}"`.
#[derive(Default)]
struct Recorder {
    admitting: VecDeque<Admission>,
    finished: VecDeque<JobId>,
    deferred: bool,
    log: Vec<Fx>,
    first_admitted: HashMap<JobId, (u32, SimTime)>,
}

impl Recorder {
    fn take(&mut self) -> Vec<Fx> {
        std::mem::take(&mut self.log)
    }
}

impl Effects for Recorder {
    fn next_admission(&mut self) -> Option<Admission> {
        let admission = self.admitting.pop_front()?;
        let job = &admission.job;
        let identity = (job.priority, job.submitted_at);
        self.first_admitted.entry(job.id).or_insert(identity);
        Some(admission)
    }
    fn launch(&mut self, job: JobId, replicas: u32, _now: SimTime) -> bool {
        self.log.push(Fx::Launch(job, replicas));
        !self.deferred
    }
    fn resize(&mut self, job: JobId, from: u32, to: u32, _now: SimTime) -> bool {
        self.log.push(Fx::Resize(job, from, to));
        to > from || !self.deferred
    }
    fn stop(&mut self, job: JobId, why: Stop, _now: SimTime) {
        self.log.push(Fx::Stop(job, why));
    }
    fn enqueued(&mut self, job: JobId, _now: SimTime) {
        self.log.push(Fx::Enqueued(job));
    }
    fn next_completion(&mut self) -> Option<JobId> {
        self.finished.pop_front()
    }
    fn event_done(&mut self) {
        self.log.push(Fx::EventDone);
    }
    fn identify(&self, job: JobId) -> (u32, SimTime) {
        self.first_admitted[&job]
    }
}

/// A policy that answers each hook with the next plan the test queued
/// for it (nothing when none is queued) and records which hooks fired.
#[derive(Default)]
struct Scripted {
    plans: Mutex<HashMap<&'static str, VecDeque<Vec<Action>>>>,
    calls: Mutex<Vec<&'static str>>,
}

impl Scripted {
    fn plan(&self, hook: &'static str, actions: Vec<Action>) {
        let mut plans = self.plans.lock().unwrap();
        plans.entry(hook).or_default().push_back(actions);
    }

    fn decide(&self, hook: &'static str) -> Vec<Action> {
        self.calls.lock().unwrap().push(hook);
        let mut plans = self.plans.lock().unwrap();
        plans
            .get_mut(hook)
            .and_then(VecDeque::pop_front)
            .unwrap_or_default()
    }

    fn calls(&self) -> Vec<&'static str> {
        std::mem::take(&mut self.calls.lock().unwrap())
    }
}

impl SchedulingPolicy for Scripted {
    fn name(&self) -> String {
        "scripted".into()
    }
    fn launcher_slots(&self) -> u32 {
        LAUNCHER
    }
    fn on_submit(&self, _: &ClusterView, _: JobId, _: SimTime) -> Vec<Action> {
        self.decide("submit")
    }
    fn on_complete(&self, _: &ClusterView, _: SimTime) -> Vec<Action> {
        self.decide("complete")
    }
    fn on_timer(&self, _: &ClusterView, _: SimTime) -> Vec<Action> {
        self.decide("timer")
    }
    fn on_fault(&self, _: &ClusterView, _: &FaultEvent, _: SimTime) -> Vec<Action> {
        self.decide("fault")
    }
}

/// A kernel with job 0 (bounds 2..=16) running on 10 workers since
/// `t = 0`, keeping its allocation changes.
fn one_running(policy: &Scripted, fx: &mut Recorder) -> Kernel {
    let mut kernel = Kernel::new(CAPACITY, LAUNCHER);
    kernel.record_allocations();
    let job = JobId(0);
    fx.admitting.push_back(adm(0, 2, 16, 0.0));
    policy.plan("submit", vec![Action::Create { job, replicas: 10 }]);
    kernel.submit_burst(t(0.0), policy, fx);
    assert_eq!(fx.take(), [Fx::Launch(job, 10)]);
    assert_eq!(policy.calls(), ["submit"]);
    kernel.check();
    kernel
}

#[test]
fn eviction_wastes_only_the_tail_since_the_last_checkpoint() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = one_running(&policy, &mut fx);
    let job = JobId(0);
    let evict = vec![Action::Evict { job }];
    let relaunch = vec![Action::Create { job, replicas: 10 }];

    // 21 slots are free; losing 25 lands 4 on the job. Default
    // checkpoint interval 300 s: t = 600 is a boundary — nothing lost.
    policy.plan("fault", evict.clone());
    kernel.capacity_lost(&reclaim(25), t(600.0), &policy, &mut fx);
    let rollback = Duration::ZERO;
    assert_eq!(fx.take(), [Fx::Stop(job, Stop::Evicted { rollback })]);
    assert_eq!(policy.calls(), ["fault", "complete"]);
    assert_eq!(kernel.fault_stats().wasted_core_seconds, 0.0);
    assert_eq!(kernel.view().job(job).map(|j| j.running), Some(false));
    kernel.check();

    // Relaunched at t = 700 when the capacity returns; evicted again at
    // t = 1200, 200 s past the attempt's 300 s checkpoint.
    policy.plan("complete", relaunch);
    kernel.capacity_returned(25, t(700.0), &policy, &mut fx);
    assert_eq!(fx.take(), [Fx::Launch(job, 10)]);
    policy.plan("fault", evict);
    kernel.capacity_lost(&reclaim(25), t(1200.0), &policy, &mut fx);
    let rollback = Duration::from_secs(200.0);
    assert_eq!(fx.take(), [Fx::Stop(job, Stop::Evicted { rollback })]);
    let stats = kernel.fault_stats();
    assert_eq!((stats.evictions, stats.requeues), (2, 0));
    assert_eq!(stats.wasted_core_seconds, 10.0 * 200.0);
    kernel.check();
}

#[test]
fn an_application_that_has_not_started_loses_nothing_to_an_eviction() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    fx.deferred = true; // the operator: pods first, the application later
    let mut kernel = one_running(&policy, &mut fx);
    let job = JobId(0);

    policy.plan("fault", vec![Action::Evict { job }]);
    policy.plan("complete", vec![Action::Create { job, replicas: 6 }]);
    kernel.capacity_lost(&reclaim(25), t(500.0), &policy, &mut fx);
    let rollback = Duration::ZERO;
    let expect = [
        Fx::Stop(job, Stop::Evicted { rollback }),
        Fx::Launch(job, 6),
    ];
    assert_eq!(fx.take(), expect);
    assert_eq!(kernel.fault_stats().wasted_core_seconds, 0.0);

    // Started at t = 520: the checkpoint clock runs from there.
    kernel.started(job, t(520.0));
    policy.plan("fault", vec![Action::Evict { job }]);
    kernel.capacity_lost(&reclaim(4), t(570.0), &policy, &mut fx);
    assert_eq!(kernel.fault_stats().wasted_core_seconds, 6.0 * 50.0);
    kernel.check();
}

#[test]
fn requeue_wastes_the_banked_attempt_backs_off_and_fails_at_the_ceiling() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = one_running(&policy, &mut fx);
    let job = JobId(0);
    let requeue = vec![Action::Requeue { job }];

    // 10 workers for 100 s, then 16 for 150 s: banked at the boundary.
    let to_replicas = 16;
    policy.plan("timer", vec![Action::Expand { job, to_replicas }]);
    assert!(kernel.timer(t(100.0), &policy, &mut fx));
    assert_eq!(fx.take(), [Fx::Resize(job, 10, 16)]);
    assert_eq!(kernel.counters()[Counter::Rescales], 1);
    policy.plan("fault", requeue.clone());
    kernel.capacity_lost(&reclaim(20), t(250.0), &policy, &mut fx);
    let (attempt, back_at) = (1, t(280.0)); // default backoff base 30 s
    assert_eq!(
        fx.take(),
        [Fx::Stop(job, Stop::Requeued { attempt, back_at })]
    );
    let wasted = 10.0 * 100.0 + 16.0 * 150.0;
    assert_eq!(kernel.fault_stats().wasted_core_seconds, wasted);
    assert!(kernel.view().job(job).is_none(), "away during the backoff");
    assert!(!kernel.all_terminal());
    kernel.check();

    // Back late, at t = 285: ordered by the deadline it lost its place
    // at, free of any rescale gap, and decided like a submission.
    kernel.capacity_returned(20, t(260.0), &policy, &mut fx);
    policy.calls();
    fx.admitting.push_back(adm(0, 2, 16, 0.0));
    policy.plan("submit", vec![Action::Create { job, replicas: 4 }]);
    assert!(kernel.requeue_due(job, t(285.0), &policy, &mut fx));
    assert_eq!(policy.calls(), ["submit"]);
    assert_eq!(fx.take(), [Fx::Launch(job, 4)]);
    assert_eq!(
        kernel.view().job(job).map(|j| j.submitted_at),
        Some(back_at)
    );

    // Second kill: 60 s backoff. Third: the default ceiling of three
    // attempts — failed for good, and the run is over.
    policy.plan("fault", requeue.clone());
    kernel.capacity_lost(&reclaim(30), t(300.0), &policy, &mut fx);
    let (attempt, back_at) = (2, t(360.0));
    assert_eq!(
        fx.take(),
        [Fx::Stop(job, Stop::Requeued { attempt, back_at })]
    );
    kernel.capacity_returned(30, t(310.0), &policy, &mut fx);
    fx.admitting.push_back(adm(0, 2, 16, 0.0));
    policy.plan("submit", vec![Action::Create { job, replicas: 4 }]);
    assert!(kernel.requeue_due(job, t(360.0), &policy, &mut fx));
    fx.take();
    policy.plan("fault", requeue);
    kernel.capacity_lost(&reclaim(30), t(400.0), &policy, &mut fx);
    assert_eq!(fx.take(), [Fx::Stop(job, Stop::Failed { attempts: 3 })]);
    let stats = kernel.fault_stats();
    assert_eq!((stats.requeues, stats.permanent_failures), (3, 1));
    assert_eq!(stats.wasted_core_seconds, wasted + 4.0 * 15.0 + 4.0 * 40.0);
    assert!(kernel.all_terminal());
    assert_eq!(kernel.unfinished().count(), 0);
    kernel.check();
}

#[test]
fn a_dry_retry_budget_fails_the_victim_through_the_attempt_ceiling() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = one_running(&policy, &mut fx);
    let flaky = FlakySpec::default()
        .with_breaker(u32::MAX, Duration::from_secs(1.0))
        .with_retry_budget(1.0, 0.0);
    kernel.set_recovery(&FaultSpec::default().with_flaky(flaky));
    let job = JobId(0);

    // One token: the first launch failure is a budget-approved retry.
    let outcome = kernel.flaky(FlakyOp::LaunchFail, t(10.0), &policy, &mut fx);
    assert_eq!(outcome, FlakyOutcome::Retry);
    let (attempt, back_at) = (1, t(40.0));
    assert_eq!(
        fx.take(),
        [Fx::Stop(job, Stop::Requeued { attempt, back_at })]
    );
    assert_eq!(policy.calls(), ["complete"]);
    // No running victim: observed, nobody hurt, the policy not asked.
    let outcome = kernel.flaky(FlakyOp::CrashOnStart, t(20.0), &policy, &mut fx);
    assert_eq!(outcome, FlakyOutcome::Observed);
    assert!(fx.take().is_empty() && policy.calls().is_empty());

    fx.admitting.push_back(adm(0, 2, 16, 0.0));
    policy.plan("submit", vec![Action::Create { job, replicas: 10 }]);
    assert!(kernel.requeue_due(job, t(40.0), &policy, &mut fx));
    fx.take();
    // The budget is dry: denied, failed at once with the attempt
    // counter forced to the ceiling.
    let outcome = kernel.flaky(FlakyOp::LaunchFail, t(50.0), &policy, &mut fx);
    assert_eq!(outcome, FlakyOutcome::Deny);
    assert_eq!(fx.take(), [Fx::Stop(job, Stop::Failed { attempts: 3 })]);
    let stats = kernel.fault_stats();
    assert_eq!((stats.transient_faults, stats.retries), (3, 1));
    assert_eq!((stats.requeues, stats.permanent_failures), (2, 1));
    kernel.check();
}

#[test]
fn cancel_during_a_backoff_retires_the_job_and_voids_the_reentry() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = one_running(&policy, &mut fx);
    let job = JobId(0);
    policy.plan("fault", vec![Action::Requeue { job }]);
    kernel.capacity_lost(&reclaim(25), t(100.0), &policy, &mut fx);
    fx.take();
    policy.calls();

    // Held nothing while away: no redistribution.
    assert!(kernel.cancel(job, t(110.0), &policy, &mut fx));
    assert_eq!(fx.take(), [Fx::Stop(job, Stop::Cancelled)]);
    assert!(policy.calls().is_empty());
    assert_eq!(kernel.counters()[Counter::Cancellations], 1);
    // The backoff expires on a job that is gone: nothing is pulled.
    fx.admitting.push_back(adm(0, 2, 16, 0.0));
    assert!(!kernel.requeue_due(job, t(130.0), &policy, &mut fx));
    assert_eq!(fx.admitting.len(), 1);
    // A second cancel, and one for a job never heard of, are no-ops.
    assert!(!kernel.cancel(job, t(140.0), &policy, &mut fx));
    assert!(!kernel.cancel(JobId(7), t(140.0), &policy, &mut fx));
    assert!(kernel.all_terminal());
    kernel.check();
}

#[test]
fn cancelling_a_running_job_redistributes_and_a_planned_cancel_does_not() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = one_running(&policy, &mut fx);
    let (a, b) = (JobId(0), JobId(1));
    fx.admitting.push_back(adm(1, 2, 8, 5.0));
    kernel.submit_burst(t(5.0), &policy, &mut fx);
    policy.calls();

    // The client's cancel of running `a` frees slots: `on_complete`
    // decides, and its plan cancels queued `b` with no nested decision.
    policy.plan("complete", vec![Action::Cancel { job: b }]);
    assert!(kernel.cancel(a, t(10.0), &policy, &mut fx));
    assert_eq!(policy.calls(), ["complete"]);
    let expect = [Fx::Stop(a, Stop::Cancelled), Fx::Stop(b, Stop::Cancelled)];
    assert_eq!(fx.take(), expect);
    assert_eq!(kernel.counters()[Counter::Cancellations], 2);
    assert_eq!(kernel.view().free_slots(), CAPACITY);
    kernel.check();
}

#[test]
#[should_panic(expected = "left a fault deficit uncovered")]
fn a_fault_plan_that_leaves_a_deficit_is_a_policy_bug() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = one_running(&policy, &mut fx);
    // 4 of the 25 lost slots were occupied and the plan frees none.
    kernel.capacity_lost(&reclaim(25), t(10.0), &policy, &mut fx);
}

#[test]
fn a_shrink_plan_clears_the_deficit_and_returned_capacity_is_redistributed() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = one_running(&policy, &mut fx);
    let job = JobId(0);
    let to_replicas = 6;
    policy.plan("fault", vec![Action::Shrink { job, to_replicas }]);
    kernel.capacity_lost(&reclaim(25), t(10.0), &policy, &mut fx);
    assert_eq!(fx.take(), [Fx::Resize(job, 10, 6)]);
    assert_eq!(policy.calls(), ["fault", "complete"]);
    let v = kernel.view();
    assert_eq!((v.free_slots(), v.failed_slots(), v.deficit()), (0, 25, 0));

    let to_replicas = 16;
    policy.plan("complete", vec![Action::Expand { job, to_replicas }]);
    kernel.capacity_returned(25, t(20.0), &policy, &mut fx);
    assert_eq!(fx.take(), [Fx::Resize(job, 6, 16)]);
    assert_eq!(policy.calls(), ["complete"]);
    assert_eq!(kernel.view().free_slots(), CAPACITY - 17);
    assert_eq!(kernel.counters()[Counter::Rescales], 2);
    assert_eq!(kernel.fault_stats().wasted_core_seconds, 0.0);
    kernel.check();
}

#[test]
fn a_deferred_shrink_holds_its_slots_in_the_record_until_acknowledged() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = one_running(&policy, &mut fx);
    fx.deferred = true;
    let job = JobId(0);
    let to_replicas = 4;
    policy.plan("timer", vec![Action::Shrink { job, to_replicas }]);
    assert!(kernel.timer(t(50.0), &policy, &mut fx));
    // The view is the policy's: the slots are free to plan with at once.
    assert_eq!(kernel.view().free_slots(), CAPACITY - 5);
    // The record is physical: ten workers until the application acks.
    let series = |k: &Kernel| k.utilization().log().expect("kept").total_series();
    assert_eq!(series(&kernel), [(t(0.0), 10)]);
    kernel.shrunk(job, t(53.0));
    assert_eq!(series(&kernel), [(t(0.0), 10), (t(53.0), 4)]);
}

#[test]
fn the_timer_stops_consulting_the_policy_once_every_job_is_terminal() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = one_running(&policy, &mut fx);
    assert!(kernel.timer(t(10.0), &policy, &mut fx));
    assert_eq!(policy.calls(), ["timer"]);
    fx.finished.push_back(JobId(0));
    kernel.complete_burst(t(20.0), &policy, &mut fx);
    policy.calls();
    assert!(!kernel.timer(t(30.0), &policy, &mut fx));
    assert!(policy.calls().is_empty());
}

#[test]
fn a_submission_already_cancelled_is_retired_without_a_decision() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = Kernel::new(CAPACITY, LAUNCHER);
    kernel.expect_jobs(3);
    let cancelled = Admission {
        cancelled: true,
        ..adm(1, 4, 8, 30.0)
    };
    fx.admitting
        .extend([adm(0, 2, 30, 30.0), cancelled, adm(2, 2, 4, 30.0)]);
    kernel.submit_burst(t(30.0), &policy, &mut fx);
    // Two decisions for three admissions; the policy never saw job 1.
    assert_eq!(policy.calls(), ["submit", "submit"]);
    assert_eq!(fx.take(), [Fx::Stop(JobId(1), Stop::Cancelled)]);
    assert_eq!(kernel.counters()[Counter::Cancellations], 1);
    assert!(kernel.view().job(JobId(1)).is_none());
    assert_eq!(kernel.view().len(), 2);
    assert_eq!(kernel.known_jobs(), 3);
    let live: Vec<JobId> = kernel.unfinished().collect();
    assert_eq!(live, [JobId(0), JobId(2)]);
    // The late cancel event for the same job finds it terminal.
    assert!(!kernel.cancel(JobId(1), t(30.0), &policy, &mut fx));
    kernel.check();
}

#[test]
fn a_completion_burst_settles_each_event_before_pulling_the_next() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = Kernel::new(CAPACITY, LAUNCHER);
    let (a, b, c) = (JobId(0), JobId(1), JobId(2));
    fx.admitting
        .extend([adm(0, 2, 8, 0.0), adm(1, 2, 8, 0.0), adm(2, 2, 8, 0.0)]);
    policy.plan(
        "submit",
        vec![Action::Create {
            job: a,
            replicas: 8,
        }],
    );
    policy.plan(
        "submit",
        vec![Action::Create {
            job: b,
            replicas: 8,
        }],
    );
    policy.plan("submit", vec![Action::Enqueue { job: c }]);
    kernel.submit_burst(t(0.0), &policy, &mut fx);
    let expect = [Fx::Launch(a, 8), Fx::Launch(b, 8), Fx::Enqueued(c)];
    assert_eq!(fx.take(), expect);

    // `b` then `a` finish at t = 100; `a`'s slots start the queued `c`.
    fx.finished.extend([b, a]);
    policy.plan("complete", vec![]);
    policy.plan(
        "complete",
        vec![Action::Create {
            job: c,
            replicas: 8,
        }],
    );
    kernel.complete_burst(t(100.0), &policy, &mut fx);
    assert_eq!(
        policy.calls(),
        ["submit", "submit", "submit", "complete", "complete"]
    );
    let expect = [
        Fx::Stop(b, Stop::Completed),
        Fx::EventDone,
        Fx::Stop(a, Stop::Completed),
        Fx::Launch(c, 8),
        Fx::EventDone,
    ];
    assert_eq!(fx.take(), expect);
    fx.finished.push_back(c);
    kernel.complete_burst(t(150.0), &policy, &mut fx);
    assert!(kernel.all_terminal());
    kernel.check();

    // Metrics: completed jobs in (submitted_at, id) order, identified at
    // the reporting edge; utilization over first submit → last complete.
    let metrics = kernel.metrics(&policy, name);
    let names: Vec<&str> = metrics.jobs.iter().map(|j| &*j.name).collect();
    assert_eq!(names, ["j0", "j1", "j2"]);
    assert_eq!(metrics.jobs[2].started_at, t(100.0));
    assert_eq!(metrics.total_time, 150.0);
    let busy = 16.0 * 100.0 + 8.0 * 50.0;
    assert_eq!(metrics.utilization, busy / (150.0 * f64::from(CAPACITY)));
    assert_eq!(metrics.policy, "scripted");
}

/// The utilization window starts at the first *completed* job's
/// submission and ends at the last completion, however the jobs that
/// did not complete held slots: one that ran before the window (then
/// was cancelled) and one that ran after it (then failed for good)
/// count only inside it. The kernel's fold equals the integral over
/// the allocation log, bit for bit.
#[test]
fn utilization_counts_only_the_window_of_the_completed_jobs() {
    let (policy, mut fx) = (Scripted::default(), Recorder::default());
    let mut kernel = one_running(&policy, &mut fx);
    kernel.set_recovery(&FaultSpec {
        max_attempts: 1,
        ..FaultSpec::default()
    });
    let (early, done, late) = (JobId(0), JobId(1), JobId(2));
    let create = |job, replicas| vec![Action::Create { job, replicas }];
    // `early` runs 10 workers from 0; `done`, submitted at 5, runs 8.
    fx.admitting.push_back(adm(1, 2, 8, 5.0));
    policy.plan("submit", create(done, 8));
    kernel.submit_burst(t(5.0), &policy, &mut fx);
    assert!(kernel.cancel(early, t(20.0), &policy, &mut fx));
    fx.finished.push_back(done);
    kernel.complete_burst(t(50.0), &policy, &mut fx);
    // `late` runs 4 from 60 until its only attempt is killed at 70.
    fx.admitting.push_back(adm(2, 2, 8, 60.0));
    policy.plan("submit", create(late, 4));
    kernel.submit_burst(t(60.0), &policy, &mut fx);
    policy.plan("timer", vec![Action::Requeue { job: late }]);
    assert!(kernel.timer(t(70.0), &policy, &mut fx));
    assert!(kernel.all_terminal());
    kernel.check();

    let metrics = kernel.metrics(&policy, name);
    assert_eq!(metrics.jobs.len(), 1);
    assert_eq!(metrics.faults.permanent_failures, 1);
    let log = kernel.utilization().log().expect("kept");
    let logged = log.average_utilization(t(5.0), t(50.0));
    assert_eq!(metrics.utilization.to_bits(), logged.to_bits());
    // [5, 20): 18 workers, [20, 50): 8, over 45 s of 32 slots.
    let busy = 15.0 * 18.0 + 30.0 * 8.0;
    assert_eq!(metrics.utilization, busy / (45.0 * f64::from(CAPACITY)));
    assert_eq!(kernel.utilization().peak(), 18);
}

/// The proptest's engine stand-in: remembers what it would need to
/// drive the kernel further (who runs, who is waiting out a backoff,
/// who ended how) from the effects alone.
#[derive(Default)]
struct Model {
    fx: Recorder,
    submitted: Vec<Admission>,
    running: BTreeSet<JobId>,
    backoffs: Vec<(SimTime, JobId)>,
    completed: BTreeSet<JobId>,
    cancelled: BTreeSet<JobId>,
    failed: BTreeSet<JobId>,
}

impl Model {
    /// Folds the effects of one kernel call into the model.
    fn absorb(&mut self) {
        for fx in self.fx.take() {
            match fx {
                Fx::Launch(job, _) => assert!(self.running.insert(job), "{job} launched twice"),
                Fx::Resize(job, ..) => assert!(self.running.contains(&job)),
                Fx::Stop(job, why) => {
                    self.running.remove(&job);
                    match why {
                        Stop::Completed => assert!(self.completed.insert(job)),
                        Stop::Cancelled => assert!(self.cancelled.insert(job)),
                        Stop::Failed { .. } => assert!(self.failed.insert(job)),
                        Stop::Requeued { back_at, .. } => self.backoffs.push((back_at, job)),
                        Stop::Evicted { .. } => {}
                    }
                }
                Fx::Enqueued(_) | Fx::EventDone => {}
            }
        }
    }

    /// The invariants, from the public view and the recorded effects.
    fn hold(&self, kernel: &Kernel) -> Result<(), TestCaseError> {
        kernel.check();
        let v = kernel.view();
        let held: u32 = v
            .jobs()
            .filter(|j| j.running)
            .map(|j| j.replicas + LAUNCHER)
            .sum();
        prop_assert_eq!(
            v.free_slots() + v.failed_slots() + held,
            v.capacity() + v.deficit()
        );
        prop_assert!(v.free_slots() == 0 || v.deficit() == 0);
        let holding: BTreeSet<JobId> = v.jobs().filter(|j| j.running).map(|j| j.id).collect();
        prop_assert_eq!(&holding, &self.running);
        let terminal = [&self.completed, &self.cancelled, &self.failed];
        let count: usize = terminal.iter().map(|s| s.len()).sum();
        let distinct: BTreeSet<&JobId> = terminal.iter().flat_map(|s| s.iter()).collect();
        prop_assert_eq!(distinct.len(), count, "a job ended twice");
        prop_assert!(distinct.iter().all(|id| v.job(**id).is_none()));
        prop_assert_eq!(
            kernel.counters()[Counter::Cancellations] as usize,
            self.cancelled.len()
        );
        let stats = kernel.fault_stats();
        prop_assert_eq!(stats.permanent_failures as usize, self.failed.len());
        prop_assert_eq!(kernel.all_terminal(), count == self.submitted.len());
        prop_assert_eq!(kernel.unfinished().count(), self.submitted.len() - count);
        Ok(())
    }
}

proptest! {
    #[test]
    fn invariants_hold_after_every_event(seed in any::<u64>(), steps in 20usize..120) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let strategy = RecoveryStrategy::ALL[rng.gen_range(0..3)];
        let elastic = Policy::elastic(PolicyConfig {
            rescale_gap: Duration::from_secs(f64::from(rng.gen_range(0..20u32))),
            launcher_slots: LAUNCHER,
            shrink_spares_head: rng.gen_bool(0.5),
        });
        let policy = RecoveryPolicy::new(Box::new(elastic), strategy);
        let mut kernel = Kernel::new(CAPACITY, LAUNCHER);
        let flaky = FlakySpec::default()
            .with_breaker(4, Duration::from_secs(30.0))
            .with_retry_budget(3.0, 0.5)
            .with_health_threshold(2);
        kernel.set_recovery(
            &FaultSpec::default()
                .with_checkpoint_interval(Duration::from_secs(40.0))
                .with_backoff_base(Duration::from_secs(8.0))
                .with_flaky(flaky),
        );
        let mut m = Model::default();
        m.fx.deferred = rng.gen_bool(0.5);
        let mut now = 0.0;
        let mut reclaimed = 0u32;

        for _ in 0..steps {
            now += f64::from(rng.gen_range(0..25u32));
            match rng.gen_range(0..10u32) {
                // A burst of submissions, some cancelled before admission.
                0..=2 => {
                    for _ in 0..rng.gen_range(1..=3) {
                        let min = rng.gen_range(1..=8);
                        let id = m.submitted.len() as u32;
                        let mut a = adm(id, min, rng.gen_range(min..=min + 20), now);
                        a.job.priority = rng.gen_range(1..=5);
                        a.cancelled = rng.gen_bool(0.15);
                        m.submitted.push(a.clone());
                        m.fx.admitting.push_back(a);
                    }
                    kernel.submit_burst(t(now), &policy, &mut m.fx);
                }
                // Some running jobs finish together.
                3 | 4 => {
                    let done: Vec<JobId> =
                        m.running.iter().copied().filter(|_| rng.gen_bool(0.4)).collect();
                    for id in &done {
                        if m.fx.deferred {
                            kernel.started(*id, t(now));
                        }
                    }
                    m.fx.finished.extend(done);
                    kernel.complete_burst(t(now), &policy, &mut m.fx);
                }
                // A client cancels any job it ever submitted.
                5 if !m.submitted.is_empty() => {
                    let id = JobId(rng.gen_range(0..m.submitted.len() as u32));
                    let ended = [&m.completed, &m.cancelled, &m.failed];
                    let live = !ended.iter().any(|s| s.contains(&id));
                    let cancelled = kernel.cancel(id, t(now), &policy, &mut m.fx);
                    prop_assert_eq!(cancelled, live);
                }
                6 => {
                    let failed = kernel.view().failed_slots();
                    let slots = rng.gen_range(1..=8).min(CAPACITY - 4 - failed.min(CAPACITY - 4));
                    if slots > 0 {
                        reclaimed += slots;
                        kernel.capacity_lost(&reclaim(slots), t(now), &policy, &mut m.fx);
                    }
                }
                7 if reclaimed > 0 => {
                    let slots = rng.gen_range(1..=reclaimed);
                    reclaimed -= slots;
                    kernel.capacity_returned(slots, t(now), &policy, &mut m.fx);
                }
                8 => {
                    let ops = [
                        FlakyOp::LaunchFail,
                        FlakyOp::CrashOnStart,
                        FlakyOp::StuckRescale,
                        FlakyOp::HeartbeatMiss,
                    ];
                    kernel.flaky(ops[rng.gen_range(0..4)], t(now), &policy, &mut m.fx);
                }
                _ => {
                    kernel.timer(t(now), &policy, &mut m.fx);
                }
            }
            m.absorb();
            m.hold(&kernel)?;
            // Every backoff that has expired re-enters — or is void.
            let (due, waiting): (Vec<_>, Vec<_>) =
                m.backoffs.drain(..).partition(|(back_at, _)| *back_at <= t(now));
            m.backoffs = waiting;
            for (_, id) in due {
                m.fx.admitting.push_back(m.submitted[id.index()].clone());
                let back = kernel.requeue_due(id, t(now), &policy, &mut m.fx);
                prop_assert_eq!(back, !m.cancelled.contains(&id));
                m.fx.admitting.clear();
                m.absorb();
                m.hold(&kernel)?;
            }
        }
    }
}
