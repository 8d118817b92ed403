//! The redesigned control-plane surface, end to end:
//!
//! * a policy implemented outside the classic four-variant `Policy`
//!   ([`FcfsBackfill`], plus an `on_timer`-based fifth policy) runs
//!   through the operator unmodified,
//! * the [`SchedulerClient`] lifecycle: submit → validated `JobTicket`,
//!   status, `watch_events`, and cancellation that frees slots the
//!   policy reassigns in the same run — including cancels landing in
//!   the middle of shrink/expand flows,
//! * the incrementally maintained operator view staying equal to a
//!   from-scratch store rebuild at every reconcile.

use std::sync::Arc;

use elastic_core::{
    run_virtual, Action, AppSpec, CharmJobSpec, CharmOperator, ClusterView, FcfsBackfill,
    JobEventKind, JobId, JobPhase, ModelExecutor, OverheadModel, Policy, PolicyConfig,
    ScalingModel, Schedule, SchedulingPolicy, SubmitRequest,
};
use hpc_metrics::{Clock, Duration, SimTime, VirtualClock};
use kube_sim::{ControlPlane, KubeletConfig};

fn spec(name: &str, prio: u32, min: u32, max: u32, iters: u64) -> CharmJobSpec {
    CharmJobSpec {
        name: name.into(),
        min_replicas: min,
        max_replicas: max,
        priority: prio,
        walltime_estimate: None,
        app: AppSpec::linear(iters as f64, min, max),
    }
}

fn cfg(gap_s: f64) -> PolicyConfig {
    PolicyConfig {
        rescale_gap: Duration::from_secs(gap_s),
        launcher_slots: 1,
        shrink_spares_head: true,
    }
}

/// Operator + 64-slot cluster + ideal-speed modeled executor.
fn make_operator(policy: Box<dyn SchedulingPolicy>, clock: &VirtualClock) -> CharmOperator {
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 16);
    let executor = ModelExecutor::ideal(plane.clock());
    CharmOperator::new(plane, policy, Box::new(executor))
}

fn mixed_schedule() -> Schedule {
    let jobs: Vec<CharmJobSpec> = (0..8)
        .map(|i| {
            let (min, max, iters) = match i % 3 {
                0 => (2, 8, 2_000),
                1 => (4, 16, 4_000),
                _ => (8, 32, 8_000),
            };
            spec(&format!("j{i}"), 1 + (i as u32 * 7) % 5, min, max, iters)
        })
        .collect();
    Schedule::every(jobs, Duration::from_secs(45.0))
}

/// The operator's persistent view is *never* rebuilt on the hot path;
/// this drive proves the incremental maintenance matches the reference
/// store-scan construction after every single reconcile, cancellations
/// included.
#[test]
fn maintained_view_equals_store_rebuild_every_tick() {
    let clock = VirtualClock::new();
    let mut op = make_operator(Box::new(Policy::elastic(cfg(30.0))), &clock);
    let client = op.client();
    let schedule = mixed_schedule();
    let start = clock.now();
    let mut next_submit = 0usize;
    let mut cancelled = false;
    let mut rounds = 0u64;
    loop {
        let elapsed = clock.now() - start;
        while next_submit < schedule.jobs.len() && elapsed >= schedule.submit_at(next_submit) {
            let req = SubmitRequest::v1(schedule.jobs[next_submit].clone()).expect("valid spec");
            client.submit_request(req).expect("unique job name");
            next_submit += 1;
        }
        if !cancelled && elapsed >= Duration::from_secs(200.0) {
            // A mid-run cancel exercises the removal path too.
            client.cancel("j3").ok();
            cancelled = true;
        }
        op.tick();
        assert_eq!(
            *op.view(),
            op.rebuild_view(),
            "incremental view diverged from store rebuild at t={elapsed}"
        );
        if next_submit >= schedule.jobs.len() && op.all_complete() {
            break;
        }
        rounds += 1;
        assert!(rounds < 100_000, "schedule never completed");
        clock.advance(Duration::from_secs(1.0));
    }
    assert!(op.view().is_empty(), "all-terminal run must drain the view");
    assert_eq!(op.view().free_slots(), 64);
}

// ---------------------------------------------------------------------
// FcfsBackfill through the operator
// ---------------------------------------------------------------------

#[test]
fn fcfs_backfill_runs_through_the_operator() {
    let clock = VirtualClock::new();
    let mut op = make_operator(Box::new(FcfsBackfill::new()), &clock);
    let schedule = mixed_schedule();
    let metrics = run_virtual(
        &mut op,
        &clock,
        &schedule,
        Duration::from_secs(1.0),
        Duration::from_secs(100_000.0),
    );
    assert_eq!(metrics.policy, "fcfs_backfill");
    assert_eq!(metrics.jobs.len(), 8);
    assert_eq!(op.rescales(), 0, "FCFS must never rescale a running job");
    assert!(
        op.events.of_kind("ShrinkSignalled").is_empty()
            && op.events.of_kind("ExpandStarted").is_empty(),
        "no rescale choreography under FCFS"
    );
}

#[test]
fn fcfs_priority_never_preempts_earlier_submissions() {
    let clock = VirtualClock::new();
    let mut op = make_operator(Box::new(FcfsBackfill::new()), &clock);
    // A low-priority job fills the cluster...
    op.submit(spec("early-low", 1, 4, 62, 1_000_000)).unwrap();
    clock.advance(Duration::from_secs(5.0));
    op.tick();
    // ...then a high-priority job arrives: under elastic it would force
    // a shrink; under FCFS it must simply wait.
    op.submit(spec("late-high", 5, 8, 16, 100)).unwrap();
    clock.advance(Duration::from_secs(5.0));
    op.tick();
    assert_eq!(op.queued_jobs(), vec!["late-high".to_string()]);
    assert_eq!(op.rescales(), 0);
}

// ---------------------------------------------------------------------
// A fifth policy, via on_timer
// ---------------------------------------------------------------------

/// Deliberately lazy admission: jobs only ever start on the periodic
/// timer, proving `on_timer` + `timer_interval` are honoured and that a
/// from-scratch policy needs nothing beyond the trait.
struct TimerBatcher;

impl SchedulingPolicy for TimerBatcher {
    fn name(&self) -> String {
        "timer_batcher".into()
    }
    fn launcher_slots(&self) -> u32 {
        1
    }
    fn on_submit(&self, _view: &ClusterView, job: JobId, _now: SimTime) -> Vec<Action> {
        vec![Action::Enqueue { job }]
    }
    fn on_complete(&self, _view: &ClusterView, _now: SimTime) -> Vec<Action> {
        Vec::new()
    }
    fn on_timer(&self, view: &ClusterView, _now: SimTime) -> Vec<Action> {
        let mut free = view.free_slots();
        let mut actions = Vec::new();
        for j in view.jobs() {
            if !j.running && free > j.min_replicas {
                actions.push(Action::Create {
                    job: j.id,
                    replicas: j.min_replicas,
                });
                free -= j.min_replicas + 1;
            }
        }
        actions
    }
    fn timer_interval(&self) -> Option<Duration> {
        Some(Duration::from_secs(10.0))
    }
}

#[test]
fn timer_driven_policy_starts_jobs_on_its_deadline() {
    let clock = VirtualClock::new();
    let mut op = make_operator(Box::new(TimerBatcher), &clock);
    op.submit(spec("j1", 3, 4, 8, 400)).unwrap();
    // Submission alone only enqueues.
    op.tick();
    assert_eq!(op.queued_jobs(), vec!["j1".to_string()]);
    // Drive past the 10 s deadline: the timer admits it.
    let mut guard = 0;
    while !op.all_complete() {
        clock.advance(Duration::from_secs(1.0));
        op.tick();
        guard += 1;
        assert!(guard < 10_000, "timer policy never started the job");
    }
    let started = op.jobs.get("j1").unwrap().obj.status.started_at.unwrap();
    assert!(
        started >= SimTime::from_secs(10.0),
        "must not start before the first timer deadline, started {started:?}"
    );
    assert_eq!(op.metrics().policy, "timer_batcher");
}

// ---------------------------------------------------------------------
// SchedulerClient lifecycle + cancellation
// ---------------------------------------------------------------------

#[test]
fn client_lifecycle_submit_watch_complete() {
    let clock = VirtualClock::new();
    let mut op = make_operator(Box::new(Policy::elastic(cfg(10.0))), &clock);
    let client = op.client();
    let mut stream = client.watch_events();

    let req = SubmitRequest::v1(spec("j1", 3, 4, 16, 160)).unwrap();
    let id = client
        .submit_request(req)
        .unwrap()
        .ticket()
        .expect("direct path admits")
        .clone();
    assert_eq!(id.name, "j1");
    assert_eq!(client.phase("j1"), Some(JobPhase::Queued));

    let mut guard = 0;
    while !op.all_complete() {
        op.tick();
        clock.advance(Duration::from_secs(1.0));
        guard += 1;
        assert!(guard < 1_000, "job never completed");
    }
    assert_eq!(client.phase("j1"), Some(JobPhase::Completed));
    let kinds: Vec<JobEventKind> = stream.drain().into_iter().map(|e| e.kind).collect();
    assert_eq!(kinds.first(), Some(&JobEventKind::Submitted));
    assert!(kinds.contains(&JobEventKind::Started));
    assert_eq!(kinds.last(), Some(&JobEventKind::Completed));
    let status = client.job_status("j1").unwrap();
    assert!(status.completed_at.unwrap() > status.started_at.unwrap());
}

#[test]
fn cancel_frees_slots_the_policy_reassigns_in_the_same_run() {
    let clock = VirtualClock::new();
    let mut op = make_operator(Box::new(Policy::elastic(cfg(5.0))), &clock);
    let client = op.client();
    // "hog" takes the whole cluster; "waiting" queues behind it (the
    // head-sparing quirk protects the hog from shrinks).
    op.submit(spec("hog", 5, 4, 62, 1_000_000)).unwrap();
    clock.advance(Duration::from_secs(2.0));
    op.tick();
    op.submit(spec("waiting", 3, 8, 16, 160)).unwrap();
    clock.advance(Duration::from_secs(2.0));
    op.tick();
    assert_eq!(op.queued_jobs(), vec!["waiting".to_string()]);

    client.cancel("hog").unwrap();
    clock.advance(Duration::from_secs(1.0));
    op.tick();
    // The reconcile that processed the cancel must have reassigned the
    // freed slots to the queued job in the same pass.
    assert_eq!(client.phase("hog"), Some(JobPhase::Cancelled));
    assert_ne!(client.phase("waiting"), Some(JobPhase::Queued));
    assert_eq!(op.cancellations(), 1);

    let mut guard = 0;
    while !op.all_complete() {
        clock.advance(Duration::from_secs(1.0));
        op.tick();
        guard += 1;
        assert!(guard < 1_000, "survivor never completed");
    }
    // Cancelled jobs are excluded from the metrics outcomes.
    let metrics = op.metrics();
    assert_eq!(metrics.jobs.len(), 1);
    assert_eq!(metrics.jobs[0].name, "waiting");
    // Nothing leaked: every pod is gone once the kubelet finishes
    // terminating (one more round).
    clock.advance(Duration::from_secs(1.0));
    op.tick();
    assert_eq!(op.plane.free_slots(), 64);
    assert!(op.plane.pods_of_job("hog").is_empty());
}

#[test]
fn all_jobs_cancelled_still_yields_metrics() {
    let clock = VirtualClock::new();
    let mut op = make_operator(Box::new(Policy::elastic(cfg(5.0))), &clock);
    let client = op.client();
    op.submit(spec("only", 3, 4, 16, 1_000_000)).unwrap();
    clock.advance(Duration::from_secs(2.0));
    op.tick();
    client.cancel("only").unwrap();
    clock.advance(Duration::from_secs(1.0));
    op.tick();
    assert!(op.all_complete());
    let metrics = op.metrics();
    assert!(metrics.jobs.is_empty());
    assert_eq!(metrics.policy, "elastic");
    assert_eq!(metrics.total_time, 0.0);
}

#[test]
fn cancel_of_queued_job_needs_no_teardown() {
    let clock = VirtualClock::new();
    let mut op = make_operator(Box::new(Policy::elastic(cfg(5.0))), &clock);
    let client = op.client();
    op.submit(spec("hog", 5, 4, 62, 1_000_000)).unwrap();
    op.tick();
    op.submit(spec("queued", 3, 8, 16, 160)).unwrap();
    op.tick();
    client.cancel("queued").unwrap();
    clock.advance(Duration::from_secs(1.0));
    op.tick();
    assert_eq!(client.phase("queued"), Some(JobPhase::Cancelled));
    assert!(op.plane.pods_of_job("queued").is_empty());
    assert_eq!(op.queued_jobs(), Vec::<String>::new());
}

// ---------------------------------------------------------------------
// Cancellation landing mid-rescale
// ---------------------------------------------------------------------

/// Operator whose modeled rescales take `overhead_s`, so flows stay
/// in-flight long enough to be hit by a cancel.
fn operator_with_overhead(
    clock: &VirtualClock,
    kubelet: KubeletConfig,
    overhead_s: f64,
) -> CharmOperator {
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), kubelet, 4, 16);
    let executor = ModelExecutor::new(
        plane.clock(),
        ScalingModel::default(),
        OverheadModel {
            lb_base: overhead_s,
            ..OverheadModel::zero()
        },
    );
    CharmOperator::new(
        plane,
        Box::new(Policy::elastic(cfg(1.0))),
        Box::new(executor),
    )
}

#[test]
fn cancel_during_shrink_signalled_leaks_nothing() {
    let clock = VirtualClock::new();
    let mut op = operator_with_overhead(&clock, KubeletConfig::instant(), 30.0);
    let client = op.client();
    // head (spared) + low (shrink victim) fill the cluster.
    op.submit(spec("head", 5, 4, 8, 1_000_000)).unwrap();
    clock.advance(Duration::from_secs(5.0));
    op.tick();
    op.submit(spec("low", 1, 4, 54, 1_000_000)).unwrap();
    clock.advance(Duration::from_secs(5.0));
    op.tick();
    // A hot arrival signals a shrink of "low"; the 30 s overhead keeps
    // the flow in ShrinkSignalled.
    op.submit(spec("hot", 4, 16, 32, 320)).unwrap();
    clock.advance(Duration::from_secs(1.0));
    op.tick();
    assert!(
        !op.events.of_kind("ShrinkSignalled").is_empty(),
        "shrink must be in flight"
    );
    assert!(op.events.of_kind("Shrunk").is_empty(), "ack not yet due");

    // Cancel the victim while the shrink is signalled but unacked.
    client.cancel("low").unwrap();
    clock.advance(Duration::from_secs(1.0));
    op.tick();
    assert_eq!(client.phase("low"), Some(JobPhase::Cancelled));

    let mut guard = 0;
    while !op.jobs.get("hot").unwrap().obj.status.phase.is_terminal() {
        clock.advance(Duration::from_secs(1.0));
        op.tick();
        guard += 1;
        assert!(guard < 1_000, "hot never finished after the cancel");
    }
    // No pods or slots leaked from the aborted flow.
    assert!(
        op.plane.pods_of_job("low").is_empty(),
        "cancelled pods leaked"
    );
    op.tick();
    let head_slots = 8 + 1; // head still runs at 8 replicas + launcher
    assert_eq!(op.plane.free_slots(), 64 - head_slots);
    // The late shrink-ack from the executor must not resurrect state.
    client.cancel("head").unwrap();
    clock.advance(Duration::from_secs(1.0));
    op.tick();
    op.tick();
    assert!(op.all_complete());
    assert_eq!(op.plane.free_slots(), 64);
}

#[test]
fn cancel_during_expand_pods_pending_leaks_nothing() {
    let clock = VirtualClock::new();
    // Slow pod startup keeps the expand in ExpandPodsPending.
    let kubelet = KubeletConfig {
        startup_latency: Duration::from_secs(20.0),
        termination_grace: Duration::ZERO,
    };
    let mut op = operator_with_overhead(&clock, kubelet, 0.0);
    let client = op.client();
    // "b" claims 16+1 first, so "a" starts at 46 < its max of 60; when
    // "b" completes, "a" expands into the freed slots.
    op.submit(spec("b", 3, 4, 16, 320)).unwrap();
    op.submit(spec("a", 3, 4, 60, 1_000_000)).unwrap();
    let mut guard = 0;
    while op.events.of_kind("ExpandStarted").is_empty() {
        clock.advance(Duration::from_secs(1.0));
        op.tick();
        guard += 1;
        assert!(guard < 1_000, "expand never started");
    }
    assert!(
        op.events.of_kind("ExpandSignalled").is_empty(),
        "new pods must still be pending"
    );
    // Cancel while the expand pods are still starting.
    client.cancel("a").unwrap();
    clock.advance(Duration::from_secs(1.0));
    op.tick();
    assert_eq!(client.phase("a"), Some(JobPhase::Cancelled));
    // Give the (slow) kubelet time to finish terminating everything.
    for _ in 0..30 {
        clock.advance(Duration::from_secs(1.0));
        op.tick();
    }
    assert!(op.plane.pods_of_job("a").is_empty(), "expand pods leaked");
    assert!(op.all_complete());
    assert_eq!(op.plane.free_slots(), 64, "slots leaked after cancel");
    assert_eq!(op.cancellations(), 1);
}
