//! Resilience-layer cross-validation: one trace, one reclamation
//! schedule, one transient-fault storm, two engines, **identical**
//! metrics.
//!
//! The bundled `tests/data/sample.swf` trace is replayed with both
//! fault layers armed — the capacity-level reclamation schedule of
//! `fault_replay.rs` *plus* a seeded [`FlakySpec::storm`] of
//! operation-level transient faults (launch failures, crash-on-start,
//! stuck rescales, heartbeat misses) — through
//!
//! * the discrete-event simulator (`sched_sim::simulate`), which seeds
//!   the storm as `Event::Flaky` queue entries, and
//! * the watch-driven operator on a virtual clock
//!   (`elastic_core::run_workload_virtual`), which posts the same
//!   storm to the operator as it falls due,
//!
//! and the two [`RunMetrics`] must be bit-equal — including the
//! transient-fault / retry / breaker-trip tallies both engines bank
//! from the shared `elastic_resilience::ResilienceState` at the same
//! event boundaries. Every breaker, budget and health decision lives in
//! that shared state, so a divergence here means an engine consulted it
//! at a different instant or translated an outcome differently.

use std::path::PathBuf;
use std::sync::Arc;

use elastic_hpc::core::{
    run_workload_virtual, CharmOperator, FcfsBackfill, ModelExecutor, RecoveryPolicy,
    RecoveryStrategy, RunMetrics,
};
use elastic_hpc::kube::{ControlPlane, KubeletConfig};
use elastic_hpc::metrics::{Clock, Duration, VirtualClock};
use elastic_hpc::sim::{simulate, OverheadModel, ScalingModel, SimConfig};
use elastic_hpc::workload::{load_workload, FaultSpec, FlakySpec, SwfLoadConfig, WorkloadSpec};

/// The replay cluster: 32 slots (the bundled trace's machine size).
const CAPACITY: u32 = 32;

fn bundled_trace(cfg: &SwfLoadConfig) -> WorkloadSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sample.swf");
    let file = std::fs::File::open(&path).expect("bundled trace exists");
    let wl = load_workload(std::io::BufReader::new(file), cfg).expect("bundled trace parses");
    wl.validate().expect("bundled trace is replayable");
    wl
}

/// Both fault layers armed: the reclamation schedule of
/// `fault_replay.rs` plus a seeded transient-fault storm across the
/// busy part of the trace. A low breaker threshold and a small retry
/// budget make every resilience primitive (breaker trips, budget
/// denials, health evictions) exercise during the replay.
fn faults_with_storm(seed: u64) -> FaultSpec {
    FaultSpec::reclamation(
        11,
        2,
        8,
        Duration::from_secs(1600.0),
        Duration::from_secs(300.0),
    )
    .with_flaky(
        FlakySpec::storm(seed, 24, Duration::from_secs(4000.0))
            .with_breaker(3, Duration::from_secs(240.0))
            .with_retry_budget(6.0, 0.25)
            .with_health_threshold(2),
    )
}

fn kill_requeue_policy() -> RecoveryPolicy {
    RecoveryPolicy::new(Box::new(FcfsBackfill::new()), RecoveryStrategy::KillRequeue)
}

fn replay_des(workload: &WorkloadSpec) -> RunMetrics {
    replay_des_under(OverheadModel::zero(), workload)
}

fn replay_des_under(overhead: OverheadModel, workload: &WorkloadSpec) -> RunMetrics {
    let cfg = SimConfig {
        capacity: CAPACITY,
        policy: Box::new(kill_requeue_policy()),
        scaling: ScalingModel::default(),
        overhead,
        cancellations: Vec::new(),
    };
    simulate(&cfg, workload).metrics
}

fn replay_operator(workload: &WorkloadSpec) -> RunMetrics {
    replay_operator_on(ModelExecutor::ideal, workload)
}

/// The operator under the very structs the DES is configured with.
fn replay_operator_under(overhead: OverheadModel, workload: &WorkloadSpec) -> RunMetrics {
    let executor = |clock| ModelExecutor::new(clock, ScalingModel::default(), overhead);
    replay_operator_on(executor, workload)
}

fn replay_operator_on(
    executor: impl FnOnce(Arc<dyn Clock>) -> ModelExecutor,
    workload: &WorkloadSpec,
) -> RunMetrics {
    let clock = VirtualClock::new();
    // 4 nodes × 8 slots = the DES's 32-slot cluster.
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 8);
    assert_eq!(plane.capacity(), CAPACITY);
    let executor = executor(plane.clock());
    let mut op = CharmOperator::new(plane, Box::new(kill_requeue_policy()), Box::new(executor));
    run_workload_virtual(
        &mut op,
        &clock,
        workload,
        Duration::from_secs(1.0),
        Duration::from_secs(100_000.0),
    )
}

/// A checkpoint relaunch that costs a whole-second recovery window (and
/// nothing else does): the timestamps stay on the operator's tick grid.
fn restart_5s() -> OverheadModel {
    OverheadModel {
        restart_base: 5.0,
        ..OverheadModel::zero()
    }
}

/// The signature guarantee of the resilience layer: the same flaky
/// schedule produces the same breaker trips, the same budget-approved
/// retries, the same denials and the same final metrics in both
/// engines — bit-identical `RunMetrics`.
#[test]
fn des_and_operator_flaky_replays_are_identical() {
    let wl = bundled_trace(&SwfLoadConfig::rigid(CAPACITY)).with_faults(faults_with_storm(11));
    let des = replay_des(&wl);
    let op = replay_operator(&wl);
    // Spot-check per-job timestamps first for a readable failure.
    assert_eq!(des.jobs.len(), op.jobs.len());
    for (a, b) in des.jobs.iter().zip(&op.jobs) {
        assert_eq!(a.name, b.name, "job order diverged");
        assert_eq!(a.submitted_at, b.submitted_at, "{}: submit", a.name);
        assert_eq!(a.started_at, b.started_at, "{}: start", a.name);
        assert_eq!(a.completed_at, b.completed_at, "{}: completion", a.name);
    }
    assert_eq!(des.faults, op.faults, "fault tallies diverged");
    assert_eq!(des, op, "DES and operator flaky replays must be identical");
    // And the storm actually bites: transient faults landed on running
    // executors and at least one budget-approved retry happened.
    assert!(des.faults.transient_faults > 0, "storm never hit anything");
    assert!(des.faults.retries > 0, "storm never caused a retry");
}

/// A second seed shifts every fault instant; the guarantee must hold
/// for any schedule, not one lucky alignment.
#[test]
fn flaky_replays_agree_across_seeds() {
    for seed in [3, 77] {
        let wl =
            bundled_trace(&SwfLoadConfig::rigid(CAPACITY)).with_faults(faults_with_storm(seed));
        assert_eq!(
            replay_des(&wl),
            replay_operator(&wl),
            "engines diverged under storm seed {seed}"
        );
    }
}

/// The execution model is one module both engines embed: with the same
/// non-zero [`OverheadModel`] on both sides, every checkpoint-evict
/// relaunch of the storm pays the same recovery window in the DES and in
/// the operator's `ModelExecutor`, and the replays stay bit-identical.
#[test]
fn flaky_replays_pay_the_same_recovery_window_in_both_engines() {
    for seed in [11, 3, 77] {
        let wl =
            bundled_trace(&SwfLoadConfig::rigid(CAPACITY)).with_faults(faults_with_storm(seed));
        let des = replay_des_under(restart_5s(), &wl);
        let op = replay_operator_under(restart_5s(), &wl);
        for (a, b) in des.jobs.iter().zip(&op.jobs) {
            assert_eq!(a.name, b.name, "seed {seed}: job order diverged");
            assert_eq!(a.started_at, b.started_at, "seed {seed}, {}: start", a.name);
            assert_eq!(
                a.completed_at, b.completed_at,
                "seed {seed}, {}: completion",
                a.name
            );
        }
        assert_eq!(des, op, "engines diverged under storm seed {seed}");
        // The window is really paid: some relaunch ends later than it
        // does for free.
        assert!(des.faults.evictions > 0, "seed {seed}: nothing was evicted");
        assert_ne!(des, replay_des(&wl), "seed {seed}: recovery cost nothing");
    }
}

/// Flaky replays are deterministic per engine (guards the `==` above
/// from being vacuously flaky).
#[test]
fn flaky_replays_are_deterministic() {
    let wl = bundled_trace(&SwfLoadConfig::rigid(CAPACITY)).with_faults(faults_with_storm(11));
    assert_eq!(replay_des(&wl), replay_des(&wl));
    assert_eq!(replay_operator(&wl), replay_operator(&wl));
}

/// A flaky spec with no events is exactly the storm-free replay, however
/// its breaker and budget are tuned: the resilience layer costs nothing
/// and changes nothing when unused. The second arm is a *different*
/// input (a hair-trigger breaker over an empty retry budget) that must
/// produce the same outcome.
#[test]
fn empty_flaky_spec_is_the_storm_free_replay() {
    let reclamation_only = FaultSpec::reclamation(
        11,
        2,
        8,
        Duration::from_secs(1600.0),
        Duration::from_secs(300.0),
    );
    let plain = bundled_trace(&SwfLoadConfig::rigid(CAPACITY)).with_faults(reclamation_only);
    let with_empty = {
        let mut wl = plain.clone();
        wl.faults.flaky = FlakySpec::default()
            .with_breaker(1, Duration::from_secs(1.0))
            .with_retry_budget(0.0, 0.0);
        wl
    };
    assert_ne!(plain, with_empty, "the two arms must be different inputs");
    assert_eq!(replay_des(&plain), replay_des(&with_empty));
    assert_eq!(replay_operator(&plain), replay_operator(&with_empty));
}

/// The bundled trace with a capacity `Reclaim` and a flaky
/// `StuckRescale` eviction at the same instant, t = 500 s.
fn reclaim_racing_an_evict() -> WorkloadSpec {
    use elastic_hpc::workload::{FaultEvent, FaultKind, FlakyEvent, FlakyOp};
    let faults = FaultSpec {
        events: vec![FaultEvent {
            at: Duration::from_secs(500.0),
            slots: 8,
            kind: FaultKind::Reclaim,
        }],
        ..FaultSpec::default()
    }
    .with_flaky(FlakySpec {
        events: vec![FlakyEvent {
            at: Duration::from_secs(500.0),
            op: FlakyOp::StuckRescale,
        }],
        ..FlakySpec::default()
    });
    bundled_trace(&SwfLoadConfig::rigid(CAPACITY)).with_faults(faults)
}

/// Edge: a capacity `Reclaim` and a flaky `StuckRescale` eviction land
/// at the *same instant*. Both engines order capacity faults before
/// flaky faults at shared instants (the DES seeds them in that order,
/// the operator's tick reconciles them in that order), so the reclaim's
/// requeues happen first and the flaky eviction picks its victim from
/// the survivors — identically.
#[test]
fn reclaim_racing_a_same_instant_evict_replays_identically() {
    let wl = reclaim_racing_an_evict();
    let des = replay_des(&wl);
    let op = replay_operator(&wl);
    assert_eq!(des, op, "same-instant reclaim + evict diverged");
    // Both layers actually fired: the reclaim requeued someone AND the
    // stuck rescale evicted someone, in the same reconcile instant.
    assert!(des.faults.requeues > 0, "reclaim never requeued");
    assert_eq!(des.faults.evictions, 1, "stuck rescale never evicted");
    assert_eq!(des.faults.transient_faults, 1);
}

/// The same race with a recovery window to pay: the evicted job's
/// relaunch is 5 s dearer, identically.
#[test]
fn reclaim_evict_relaunch_pays_recovery_identically() {
    let wl = reclaim_racing_an_evict();
    let des = replay_des_under(restart_5s(), &wl);
    let op = replay_operator_under(restart_5s(), &wl);
    assert_eq!(des, op, "reclaim + evict + paid relaunch diverged");
    assert_eq!(des.faults.evictions, 1, "stuck rescale never evicted");
    let free = replay_des(&wl);
    let later = |paid: &RunMetrics| {
        let ends = |m: &RunMetrics| m.jobs.iter().map(|j| j.completed_at).max();
        ends(paid) >= ends(&free) && *paid != free
    };
    assert!(later(&des), "the recovery window moved no completion");
}

/// Edge: a reclaim takes the *entire* cluster, and a later return
/// restores every slot — the largest return the validation contract
/// admits (a return exceeding outstanding reclaimed capacity is
/// rejected by `FaultSpec::validate`). Everything requeues into an
/// empty cluster and relaunches when the full capacity comes back,
/// identically in both engines.
#[test]
fn full_capacity_reclaim_and_return_replays_identically() {
    use elastic_hpc::workload::{FaultEvent, FaultKind};
    let ev = |at: f64, kind: FaultKind| FaultEvent {
        at: Duration::from_secs(at),
        slots: CAPACITY,
        kind,
    };
    let faults = FaultSpec {
        events: vec![ev(400.0, FaultKind::Reclaim), ev(1000.0, FaultKind::Return)],
        ..FaultSpec::default()
    };
    // Over-returning is a spec contract violation, not an engine state:
    // neither engine can ever see free capacity above the original.
    let mut over = faults.clone();
    over.events[1].slots = CAPACITY + 1;
    assert!(over.validate().is_err(), "over-return must not validate");

    let wl = bundled_trace(&SwfLoadConfig::rigid(CAPACITY)).with_faults(faults);
    let des = replay_des(&wl);
    let op = replay_operator(&wl);
    assert_eq!(des, op, "full reclaim/return cycle diverged");
    assert!(des.faults.requeues > 0, "whole-cluster reclaim was a no-op");
    // Every job still retires: the returned capacity really is usable.
    assert_eq!(des.jobs.len(), wl.jobs.len());
}
