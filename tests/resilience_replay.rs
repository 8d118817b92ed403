//! Resilience-layer cross-validation: one trace, one reclamation
//! schedule, one transient-fault storm, two engines, **identical**
//! metrics.
//!
//! The bundled SWF trace replays under kill-and-requeue FCFS with both
//! fault layers armed: `fault_replay`'s capacity-level reclamation
//! schedule *plus* a seeded [`FlakySpec::storm`] of operation-level
//! transient faults (launch failures, crash-on-start, stuck rescales,
//! heartbeat misses). The DES seeds the storm as queue entries, the
//! operator is told each fault as it falls due, and the two
//! `RunMetrics` must be bit-equal, including the transient-fault /
//! retry / breaker-trip tallies both engines bank from the shared
//! `elastic_core::resilience::ResilienceState` at the same event boundaries.
//! Every breaker, budget and health decision lives in that shared
//! state, so a divergence here means an engine consulted it at a
//! different instant or translated an outcome differently. Beside the
//! storm: a reclaim racing a same-instant eviction, a whole-cluster
//! reclaim, and recovery windows that cost 5 s in both engines.

mod common;

use common::{assert_agree, kill_requeue_fcfs, trace_reclamation, trace_storm};
use elastic_hpc::core::RunMetrics;
use elastic_hpc::metrics::Duration;
use elastic_hpc::scenario::{agreement, run, Engine::*, Scenario, TRACE_CAPACITY};
use elastic_hpc::sim::OverheadModel;
use elastic_hpc::workload::{FaultSpec, FlakySpec};

/// The bundled trace under kill-and-requeue FCFS and `faults`.
fn faulted(faults: FaultSpec) -> Scenario {
    Scenario::trace(kill_requeue_fcfs).with_faults(faults)
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
    let des = assert_agree(&faulted(trace_storm(11)), &[Des, Operator]);
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
        let scenario = faulted(trace_storm(seed));
        if let Err(found) = agreement(&scenario, &[Des, Operator]) {
            panic!("engines diverged under storm seed {seed}: {found}");
        }
    }
}

/// The execution model is one module both engines embed: with the same
/// non-zero [`OverheadModel`] on both sides, every checkpoint-evict
/// relaunch of the storm pays the same recovery window in the DES and in
/// the operator's `ModelExecutor`, and the replays stay bit-identical.
#[test]
fn flaky_replays_pay_the_same_recovery_window_in_both_engines() {
    for seed in [11, 3, 77] {
        let free = faulted(trace_storm(seed));
        let paid = free.clone().with_overhead(restart_5s());
        let des = agreement(&paid, &[Des, Operator])
            .unwrap_or_else(|found| panic!("engines diverged under storm seed {seed}: {found}"));
        // The window is really paid: some relaunch ends later than it
        // does for free.
        assert!(des.faults.evictions > 0, "seed {seed}: nothing was evicted");
        assert_ne!(des, run(&free, Des), "seed {seed}: recovery cost nothing");
    }
}

/// Flaky replays are deterministic per engine (guards the `==` above
/// from being vacuously flaky).
#[test]
fn flaky_replays_are_deterministic() {
    let scenario = faulted(trace_storm(11));
    assert_agree(&scenario, &[Des, Des]);
    assert_agree(&scenario, &[Operator, Operator]);
}

/// A flaky spec with no events is exactly the storm-free replay, however
/// its breaker and budget are tuned: the resilience layer costs nothing
/// and changes nothing when unused. The second arm is a *different*
/// input (a hair-trigger breaker over an empty retry budget) that must
/// produce the same outcome.
#[test]
fn empty_flaky_spec_is_the_storm_free_replay() {
    let plain = faulted(trace_reclamation());
    let mut with_empty = plain.clone();
    with_empty.workload.faults.flaky = FlakySpec::default()
        .with_breaker(1, Duration::from_secs(1.0))
        .with_retry_budget(0.0, 0.0);
    assert_ne!(
        plain.workload, with_empty.workload,
        "the two arms must be different inputs"
    );
    for engine in [Des, Operator] {
        assert_eq!(run(&plain, engine), run(&with_empty, engine), "{engine:?}");
    }
}

/// The bundled trace with a capacity `Reclaim` and a flaky
/// `StuckRescale` eviction at the same instant, t = 500 s.
fn reclaim_racing_an_evict() -> Scenario {
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
    faulted(faults)
}

/// Edge: a capacity `Reclaim` and a flaky `StuckRescale` eviction land
/// at the *same instant*. Both engines order capacity faults before
/// flaky faults at shared instants (the DES seeds them in that order,
/// the operator's tick reconciles them in that order), so the reclaim's
/// requeues happen first and the flaky eviction picks its victim from
/// the survivors — identically.
#[test]
fn reclaim_racing_a_same_instant_evict_replays_identically() {
    let des = assert_agree(&reclaim_racing_an_evict(), &[Des, Operator]);
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
    let scenario = reclaim_racing_an_evict();
    let paid = scenario.clone().with_overhead(restart_5s());
    let des = assert_agree(&paid, &[Des, Operator]);
    assert_eq!(des.faults.evictions, 1, "stuck rescale never evicted");
    let free = run(&scenario, Des);
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
        slots: TRACE_CAPACITY,
        kind,
    };
    let faults = FaultSpec {
        events: vec![ev(400.0, FaultKind::Reclaim), ev(1000.0, FaultKind::Return)],
        ..FaultSpec::default()
    };
    // Over-returning is a spec contract violation, not an engine state:
    // neither engine can ever see free capacity above the original.
    let mut over = faults.clone();
    over.events[1].slots = TRACE_CAPACITY + 1;
    assert!(over.validate().is_err(), "over-return must not validate");

    let scenario = faulted(faults);
    let des = assert_agree(&scenario, &[Des, Operator]);
    assert!(des.faults.requeues > 0, "whole-cluster reclaim was a no-op");
    // Every job still retires: the returned capacity really is usable.
    assert_eq!(des.jobs.len(), scenario.workload.jobs.len());
}
