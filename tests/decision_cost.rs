//! A scheduling decision costs what it can start, and a view index
//! costs nothing until a policy reads it — held by count, not by clock.
//!
//! Three exact, host-independent numbers from outside the crates:
//!
//! * the backfill candidate cursor over a 10 000-deep backlog of jobs
//!   too large for the free slots yields exactly the two jobs that fit,
//!   and both rigid baselines decide that backlog to the same single
//!   `Create` the full scan did;
//! * with 512 running jobs inside their rescale gap and one past it,
//!   the elastic policy's gap cursor yields exactly that one job, and
//!   both of its decisions are the ones the walk over all 513 made;
//! * after a whole replay the view reports which ordered indexes were
//!   ever built: the elastic policy never pays for the FCFS queue, the
//!   completion frontier or the footprint buckets, and EASY never pays
//!   for a priority order or the last-action order — under a flaky
//!   storm it pays for the last-action list (the victim pick reads the
//!   running ids off it) and still for no priority order.

use elastic_hpc::core::{
    Action, BuiltIndexes, ClusterView, EasyBackfill, FcfsBackfill, JobFields, JobId, JobState,
    Policy, PolicyConfig, SchedulingPolicy,
};
use elastic_hpc::metrics::{Duration, SimTime};
use elastic_hpc::sim::{OverheadModel, ScalingModel, SimConfig, SimState};
use elastic_hpc::workload::{poisson_workload, FaultSpec, FlakySpec};

const BACKLOG: u32 = 10_000;

fn queued(id: u32, min: u32) -> JobState {
    JobState {
        id: JobId(id),
        min_replicas: min,
        max_replicas: min,
        priority: 3,
        submitted_at: SimTime::from_secs(f64::from(id)),
        replicas: 0,
        last_action: SimTime::NEG_INFINITY,
        running: false,
        walltime_estimate: Some(Duration::from_secs(5000.0)),
    }
}

/// 64 slots: one running job holds 60 + its launcher, 3 are free.
/// Behind it queue 10 000 `min 8` jobs (none fits) with a `min 2` job
/// in the middle and another at the very end (either fits, not both).
fn deep_backlog() -> (ClusterView, [JobId; 2]) {
    let small = [JobId(BACKLOG / 2), JobId(BACKLOG + 1)];
    let mut view = ClusterView::new(64);
    view.insert(
        JobState {
            replicas: 60,
            running: true,
            last_action: SimTime::ZERO,
            ..queued(0, 60)
        },
        1,
    );
    for id in 1..=BACKLOG + 1 {
        let min = if small.contains(&JobId(id)) { 2 } else { 8 };
        view.insert(queued(id, min), 1);
    }
    assert_eq!(view.free_slots(), 3);
    (view, small)
}

#[test]
fn a_backlog_that_cannot_start_is_never_walked() {
    let (view, small) = deep_backlog();
    let head = view.queued_scan().next().expect("queue is not empty").id();
    assert_eq!(head, JobId(1));
    // 3 free slots less a launcher: minimums up to 2 fit.
    let fitting: Vec<JobId> = view.queued_fitting(head, 2).map(|j| j.id()).collect();
    assert_eq!(fitting, small, "the cursor yields the fitting jobs only");

    let now = SimTime::from_secs(20_000.0);
    let first_small = vec![Action::Create {
        job: small[0],
        replicas: 2,
    }];
    let patient = FcfsBackfill {
        backfill_patience: Duration::INFINITY,
        ..FcfsBackfill::new()
    };
    let policies: [&dyn SchedulingPolicy; 3] =
        [&EasyBackfill::new(), &EasyBackfill::sjbf(), &patient];
    for policy in policies {
        assert_eq!(
            policy.on_complete(&view, now),
            first_small,
            "{}: the first fitting job takes the last slots",
            policy.name()
        );
    }
    assert!(
        !view.built_indexes().queued_priority_order && !view.built_indexes().running_order,
        "the rigid baselines never read a priority order"
    );
}

fn elastic() -> Policy {
    Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(180.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    })
}

#[test]
fn running_jobs_inside_the_gap_are_never_visited() {
    const BLOCKED: u32 = 512;
    let now = SimTime::from_secs(1000.0);
    let running = |id: u32, priority: u32, replicas: u32, acted_at: f64| JobState {
        min_replicas: 2,
        max_replicas: 16,
        priority,
        replicas,
        running: true,
        last_action: SimTime::from_secs(acted_at),
        ..queued(id, 2)
    };
    let mut view = ClusterView::new(4096);
    // 512 jobs rescaled within the last 180 s (the top-priority head
    // among them), one low-priority job last touched 400 s ago.
    for id in 0..BLOCKED {
        view.insert(running(id, 1 + id % 5, 4, 821.0 + f64::from(id % 170)), 1);
    }
    let settled = JobId(BLOCKED);
    view.insert(running(settled.0, 1, 10, 600.0), 1);
    // A backlog none of which fits 3 free slots, the newcomer last.
    let newcomer = JobId(BLOCKED + 101);
    for id in BLOCKED + 1..=newcomer.0 {
        view.insert(queued(id, 8), 1);
    }
    view.set_free_slots(3);

    let policy = elastic();
    let actionable: Vec<JobId> = view
        .running_by_last_action()
        .take_while(|j| !policy.gap_blocked(j, now))
        .map(|j| j.id())
        .collect();
    assert_eq!(actionable, [settled], "1 row visited, not 513");

    // Fig. 2, as the walk over all 513 decides it: the newcomer needs
    // 8 + 1 slots, 3 are free, and the settled job alone may shed the
    // other 6 (10 -> 4).
    assert_eq!(
        policy.on_submit(&view, newcomer, now),
        [
            Action::Shrink {
                job: settled,
                to_replicas: 4
            },
            Action::Create {
                job: newcomer,
                replicas: 8
            },
        ]
    );
    // Fig. 3: no queued job fits 3 slots; the settled job, ranked
    // below the whole backlog, takes them.
    assert_eq!(
        policy.on_complete(&view, now),
        [Action::Expand {
            job: settled,
            to_replicas: 13
        }]
    );
}

fn replay(policy: Box<dyn SchedulingPolicy>, faults: FaultSpec) -> BuiltIndexes {
    let workload = poisson_workload(11, 3000, Duration::from_secs(20.0)).with_faults(faults);
    let cfg = SimConfig {
        capacity: 64,
        policy,
        scaling: ScalingModel::default(),
        overhead: OverheadModel::default(),
        cancellations: Vec::new(),
    };
    let mut state = SimState::new(&cfg, &workload);
    while state.step(&cfg, &workload, 4096) {}
    let built = state.view().built_indexes();
    let outcome = state.finish(&cfg, &workload);
    assert_eq!(outcome.metrics.jobs.len(), workload.jobs.len());
    built
}

#[test]
fn a_replay_builds_only_the_indexes_its_policy_reads() {
    assert_eq!(
        replay(Box::new(elastic()), FaultSpec::default()),
        BuiltIndexes {
            running_order: true,
            running_action_order: true,
            queued_priority_order: true,
            ..BuiltIndexes::default()
        },
        "elastic pays for the gap cursor, the queued priority lane and the spared head"
    );
    let easy = BuiltIndexes {
        queued_order: true,
        running_end_order: true,
        queued_footprint: true,
        ..BuiltIndexes::default()
    };
    assert_eq!(
        replay(Box::new(EasyBackfill::new()), FaultSpec::default()),
        easy,
        "EASY pays for the queue, the frontier and the footprint buckets"
    );
    // A transient fault picks its victim by id off the running set:
    // that read costs EASY the O(1)-upkeep last-action list, never a
    // priority tree.
    let storm = FlakySpec::storm(5, 40, Duration::from_secs(50_000.0));
    assert_eq!(
        replay(
            Box::new(EasyBackfill::new()),
            FaultSpec::default().with_flaky(storm)
        ),
        BuiltIndexes {
            running_action_order: true,
            ..easy
        },
        "a flaky storm adds the last-action list only"
    );
}
