//! Fault-layer cross-validation: one trace, one reclamation schedule,
//! two engines, **identical** metrics.
//!
//! The bundled SWF trace replays under a seeded spot-reclamation
//! schedule ([`FaultSpec::reclamation`]: two outages of 8 of its 32
//! slots, dropping and returning at whole-second instants) with
//! reservation-less FCFS backfill wrapped in the kill-and-requeue
//! recovery strategy. The DES and the operator must produce bit-equal
//! `RunMetrics`, including the `FaultStats` tallies (wasted
//! core-seconds, requeues, permanent failures) both engines keep at the
//! same event boundaries: every timestamp the metrics integrate over
//! (submit, kill, backoff re-entry, start, complete) lands on the
//! operator's 1 s tick grid.

mod common;

use common::{assert_agree, kill_requeue_fcfs, trace_reclamation};
use elastic_hpc::scenario::{run, Engine::*, Scenario};
use elastic_hpc::workload::FaultSpec;

/// The acceptance criterion of the fault layer: the injected
/// reclamation schedule produces the same kills, the same backoff
/// re-entries, the same wasted work, and the same final metrics in
/// both engines.
#[test]
fn des_and_operator_fault_replays_are_identical() {
    let scenario = Scenario::trace(kill_requeue_fcfs).with_faults(trace_reclamation());
    let des = assert_agree(&scenario, &[Des, Operator]);
    // And the schedule actually bites: capacity loss killed at least one
    // running job, whose attempt shows up as wasted core-seconds.
    assert!(des.faults.requeues > 0, "reclamation never preempted a job");
    assert!(des.faults.wasted_core_seconds > 0.0);
    assert_eq!(des.faults.evictions, 0, "kill-requeue never checkpoints");
}

/// Fault replays are deterministic per engine (guards the `==` above
/// from being vacuously flaky).
#[test]
fn fault_replays_are_deterministic() {
    let scenario = Scenario::trace(kill_requeue_fcfs).with_faults(trace_reclamation());
    assert_agree(&scenario, &[Des, Des]);
    assert_agree(&scenario, &[Operator, Operator]);
}

/// An empty fault spec is exactly the fault-free replay: the layer
/// costs nothing and changes nothing when unused.
#[test]
fn empty_fault_spec_is_the_fault_free_replay() {
    let plain = Scenario::trace(kill_requeue_fcfs);
    let with_empty = plain.clone().with_faults(FaultSpec::default());
    for engine in [Des, Operator] {
        assert_eq!(run(&plain, engine), run(&with_empty, engine), "{engine:?}");
    }
}
