//! Fault-layer cross-validation: one trace, one reclamation schedule,
//! two engines, **identical** metrics.
//!
//! The bundled `tests/data/sample.swf` trace is replayed with a seeded
//! spot-reclamation schedule ([`FaultSpec::reclamation`]: capacity
//! drops and returns at whole-second instants) through
//!
//! * the discrete-event simulator (`sched_sim::simulate`), and
//! * the watch-driven operator on a virtual clock
//!   (`elastic_core::run_workload_virtual`, which posts the same fault
//!   events to the operator as they fall due), and
//!
//! the two [`RunMetrics`] must be bit-equal — including the
//! [`FaultStats`] tallies (wasted core-seconds, requeues, permanent
//! failures) both engines maintain incrementally at the same event
//! boundaries. The policy is reservation-less FCFS backfill wrapped in
//! the kill-and-requeue recovery strategy with ideal executors, so
//! every timestamp the metrics integrate over (submit, kill, backoff
//! re-entry, start, complete) lands on the operator's 1 s tick grid.

use std::path::PathBuf;
use std::sync::Arc;

use elastic_hpc::core::{
    run_workload_virtual, CharmOperator, FcfsBackfill, ModelExecutor, RecoveryPolicy,
    RecoveryStrategy, RunMetrics,
};
use elastic_hpc::kube::{ControlPlane, KubeletConfig};
use elastic_hpc::metrics::{Duration, VirtualClock};
use elastic_hpc::sim::{simulate, OverheadModel, ScalingModel, SimConfig};
use elastic_hpc::workload::{load_workload, FaultSpec, SwfLoadConfig, WorkloadSpec};

/// The replay cluster: 32 slots (the bundled trace's machine size).
const CAPACITY: u32 = 32;

fn bundled_trace(cfg: &SwfLoadConfig) -> WorkloadSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sample.swf");
    let file = std::fs::File::open(&path).expect("bundled trace exists");
    let wl = load_workload(std::io::BufReader::new(file), cfg).expect("bundled trace parses");
    wl.validate().expect("bundled trace is replayable");
    wl
}

/// The injected outage schedule: two reclaim/return pairs of 8 slots
/// inside the busy part of the trace, at whole-second instants so both
/// engines observe them on the same tick.
fn reclamation() -> FaultSpec {
    FaultSpec::reclamation(
        11,
        2,
        8,
        Duration::from_secs(1600.0),
        Duration::from_secs(300.0),
    )
}

fn kill_requeue_policy() -> RecoveryPolicy {
    RecoveryPolicy::new(Box::new(FcfsBackfill::new()), RecoveryStrategy::KillRequeue)
}

fn replay_des(workload: &WorkloadSpec) -> RunMetrics {
    let cfg = SimConfig {
        capacity: CAPACITY,
        policy: Box::new(kill_requeue_policy()),
        scaling: ScalingModel::default(),
        overhead: OverheadModel::default(),
        cancellations: Vec::new(),
    };
    simulate(&cfg, workload).metrics
}

fn replay_operator(workload: &WorkloadSpec) -> RunMetrics {
    let clock = VirtualClock::new();
    // 4 nodes × 8 slots = the DES's 32-slot cluster.
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 8);
    assert_eq!(plane.capacity(), CAPACITY);
    let executor = ModelExecutor::ideal(plane.clock());
    let mut op = CharmOperator::new(plane, Box::new(kill_requeue_policy()), Box::new(executor));
    run_workload_virtual(
        &mut op,
        &clock,
        workload,
        Duration::from_secs(1.0),
        Duration::from_secs(100_000.0),
    )
}

/// The acceptance criterion of the fault layer: the injected
/// reclamation schedule produces the same kills, the same backoff
/// re-entries, the same wasted work, and the same final metrics in
/// both engines.
#[test]
fn des_and_operator_fault_replays_are_identical() {
    let wl = bundled_trace(&SwfLoadConfig::rigid(CAPACITY)).with_faults(reclamation());
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
    assert_eq!(des, op, "DES and operator fault replays must be identical");
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
    let wl = bundled_trace(&SwfLoadConfig::rigid(CAPACITY)).with_faults(reclamation());
    assert_eq!(replay_des(&wl), replay_des(&wl));
    assert_eq!(replay_operator(&wl), replay_operator(&wl));
}

/// An empty fault spec is exactly the fault-free replay: the layer
/// costs nothing and changes nothing when unused.
#[test]
fn empty_fault_spec_is_the_fault_free_replay() {
    let plain = bundled_trace(&SwfLoadConfig::rigid(CAPACITY));
    let with_empty = plain.clone().with_faults(FaultSpec::default());
    assert_eq!(replay_des(&plain), replay_des(&with_empty));
    assert_eq!(replay_operator(&plain), replay_operator(&with_empty));
}
