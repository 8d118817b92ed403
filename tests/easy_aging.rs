//! EASY backfilling and the aging sweep, cross-validated between the
//! two engines.
//!
//! * `EasyBackfill` replays the rigid bundled SWF trace on its 32-slot
//!   machine through the DES and the watch-driven operator with
//!   **bit-identical** `RunMetrics`, and beats the conservative
//!   `FcfsBackfill` on mean bounded slowdown — the point of planning
//!   reservations from walltime estimates.
//! * `AgingSweep` exercises the `on_timer` surface in both engines: on
//!   64 slots, a low-priority job starving behind a 60-worker hog is
//!   launched by the periodic sweep long before the cluster would
//!   otherwise revisit it.

mod common;

use common::assert_agree;
use elastic_hpc::core::{
    AgingSweep, EasyBackfill, FcfsBackfill, Policy, PolicyConfig, RunMetrics, SchedulingPolicy,
};
use elastic_hpc::metrics::Duration;
use elastic_hpc::scenario::{operator_replay, run, Engine::*, Scenario};
use elastic_hpc::sim::OverheadModel;
use elastic_hpc::workload::{JobSpec, WorkloadSpec};

/// The tentpole acceptance criterion: EASY replays the bundled trace
/// identically in both engines, and its estimate-driven reservations
/// beat the conservative patience heuristic on mean bounded slowdown.
#[test]
fn easy_backfill_replays_bit_identically_and_beats_conservative() {
    let easy = Scenario::trace(EasyBackfill::new);
    assert!(
        easy.workload
            .jobs
            .iter()
            .all(|j| j.walltime_estimate.is_some()),
        "SWF loads carry walltime estimates for every job"
    );
    let des = assert_agree(&easy, &[Des, Operator]);
    assert_eq!(des.jobs.len(), 24, "every trace job completes");

    let fcfs = run(&Scenario::trace(FcfsBackfill::new), Des);
    assert!(
        des.mean_bounded_slowdown < fcfs.mean_bounded_slowdown,
        "EASY bsld {} should beat conservative bsld {}",
        des.mean_bounded_slowdown,
        fcfs.mean_bounded_slowdown
    );
    assert!(des.policy == "easy_backfill" && fcfs.policy == "fcfs_backfill");
}

/// EASY stays deterministic per engine (guards the `==` above).
#[test]
fn easy_replays_are_deterministic() {
    let easy = Scenario::trace(EasyBackfill::new);
    assert_agree(&easy, &[Des, Des]);
    assert_agree(&easy, &[Operator, Operator]);
}

/// A hog monopolizes the cluster while a low-priority job starves in
/// the queue. Under plain elastic scheduling nothing revisits it until
/// the hog completes; under `AgingSweep` the timer pass promotes it
/// and shrinks the hog within a few sweep intervals.
fn starvation<P: SchedulingPolicy + 'static>(policy: impl Fn() -> P + 'static) -> Scenario {
    let workload = WorkloadSpec::new(vec![
        // Priority 5, grabs 60 workers + launcher on the empty
        // cluster; 60 000 core-seconds -> completes around t = 1000.
        JobSpec::malleable("hog", 4, 60, 60_000.0, 5),
        // Priority 1, needs 8+1 of the 3 remaining slots: starves.
        JobSpec::malleable("starved", 8, 8, 800.0, 1).at(Duration::from_secs(10.0)),
    ]);
    Scenario::new(workload, 64, policy).with_horizon(Duration::from_secs(50_000.0))
}

fn aging_policy() -> AgingSweep {
    AgingSweep::new(
        Box::new(plain_elastic()),
        Duration::from_secs(50.0),
        Duration::from_secs(30.0),
    )
}

fn plain_elastic() -> Policy {
    Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(10.0),
        launcher_slots: 1,
        // A single running hog is runningJobs[0]; the sweep must be
        // allowed to shrink it.
        shrink_spares_head: false,
    })
}

#[test]
fn aging_sweep_rescues_a_starving_job_in_the_des() {
    let des = |scenario: Scenario| run(&scenario.with_overhead(OverheadModel::default()), Des);
    let baseline = des(starvation(plain_elastic));
    let aged = des(starvation(aging_policy));
    let started = |m: &RunMetrics, name: &str| {
        m.jobs
            .iter()
            .find(|j| &*j.name == name)
            .unwrap_or_else(|| panic!("{name} completed"))
            .started_at
    };
    // Without aging the starving job waits for the hog's completion…
    let hog_done = baseline
        .jobs
        .iter()
        .find(|j| &*j.name == "hog")
        .unwrap()
        .completed_at;
    assert!(started(&baseline, "starved") >= hog_done);
    // …with the sweep it launches within a few 30 s intervals (its
    // effective priority passes the hog's after ~130 s of waiting).
    let rescued_at = started(&aged, "starved");
    assert!(
        rescued_at.as_secs() <= 300.0,
        "sweep should launch the starving job early, got t={}",
        rescued_at.as_secs()
    );
    assert!(aged.rescales >= 1, "the sweep shrinks the hog to make room");
    assert_eq!(aged.policy, "elastic+aging");
}

#[test]
fn aging_sweep_rescues_a_starving_job_through_the_operator() {
    let (metrics, op) = operator_replay(&starvation(aging_policy));
    let starved = metrics.jobs.iter().find(|j| &*j.name == "starved").unwrap();
    let hog = metrics.jobs.iter().find(|j| &*j.name == "hog").unwrap();
    assert!(
        starved.started_at < hog.completed_at,
        "operator timer pass must rescue the starving job (started {}, hog done {})",
        starved.started_at.as_secs(),
        hog.completed_at.as_secs()
    );
    assert!(
        starved.started_at.as_secs() <= 400.0,
        "rescue should happen within a few sweep intervals, got {}",
        starved.started_at.as_secs()
    );
    assert!(op.rescales() >= 1, "the hog was shrunk");
}
