//! Determinism across the serving front-end: routing a trace through
//! the batched ingest queue must not change the schedule.
//!
//! The bundled `tests/data/sample.swf` trace is replayed twice on the
//! operator — once through the legacy per-submission client loop
//! (`run_workload_virtual`), once through
//! `elastic_serving::run_workload_ingest` with `max_delay = 0` — and
//! the two [`RunMetrics`] must be **identical**, not merely close.
//! The zero deadline flushes every shard at the enqueue instant, so
//! each job's `submitted_at` is bit-equal to the direct path's, and
//! the operator sorts same-instant admissions canonically by
//! `(submitted_at, name)` — which is why the equality must hold for
//! *any* shard count and either router, not just the trivially-ordered
//! single shard. This is the serving layer's acceptance criterion:
//! batching buys O(batches) policy dispatches without costing one bit
//! of replay determinism.
//!
//! The ingest replay runs the same drive loop as the direct one, so the
//! workload's faults go through it too: the reclamation schedule of
//! `fault_replay.rs` and the transient-fault storm of
//! `resilience_replay.rs` must come out of the ingest path, the direct
//! path and the DES as one `RunMetrics`, fault and flaky tallies
//! included.

use std::path::PathBuf;
use std::sync::Arc;

use elastic_hpc::core::{
    run_workload_virtual, CharmOperator, FcfsBackfill, ModelExecutor, RecoveryPolicy,
    RecoveryStrategy, RunMetrics, SchedulingPolicy,
};
use elastic_hpc::kube::{ControlPlane, KubeletConfig};
use elastic_hpc::metrics::{Duration, VirtualClock};
use elastic_hpc::serving::{run_workload_ingest, IngestConfig, IngestStats, ShardRouter};
use elastic_hpc::sim::{simulate, OverheadModel, ScalingModel, SimConfig};
use elastic_hpc::workload::{load_workload, FaultSpec, FlakySpec, SwfLoadConfig, WorkloadSpec};

/// The replay cluster: 32 slots (the bundled trace's machine size).
const CAPACITY: u32 = 32;

fn bundled_trace() -> WorkloadSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sample.swf");
    let file = std::fs::File::open(&path).expect("bundled trace exists");
    let wl = load_workload(
        std::io::BufReader::new(file),
        &SwfLoadConfig::rigid(CAPACITY),
    )
    .expect("bundled trace parses");
    wl.validate().expect("bundled trace is replayable");
    wl
}

/// FCFS backfill; kill-and-requeue recovery around it once the
/// workload carries faults (the wrapper is idle otherwise, but it shows
/// in the policy name).
fn policy(workload: &WorkloadSpec) -> Box<dyn SchedulingPolicy> {
    let fcfs = Box::new(FcfsBackfill::new());
    if workload.faults.events.is_empty() && workload.faults.flaky.events.is_empty() {
        return fcfs;
    }
    Box::new(RecoveryPolicy::new(fcfs, RecoveryStrategy::KillRequeue))
}

fn operator(workload: &WorkloadSpec) -> (CharmOperator, VirtualClock) {
    let clock = VirtualClock::new();
    // 4 nodes × 8 slots = the trace's 32-slot machine.
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 8);
    let executor = ModelExecutor::ideal(plane.clock());
    let op = CharmOperator::new(plane, policy(workload), Box::new(executor));
    (op, clock)
}

fn replay_des(workload: &WorkloadSpec) -> RunMetrics {
    let cfg = SimConfig {
        capacity: CAPACITY,
        policy: policy(workload),
        scaling: ScalingModel::default(),
        overhead: OverheadModel::zero(),
        cancellations: Vec::new(),
    };
    simulate(&cfg, workload).metrics
}

fn replay_legacy(workload: &WorkloadSpec) -> RunMetrics {
    let (mut op, clock) = operator(workload);
    run_workload_virtual(
        &mut op,
        &clock,
        workload,
        Duration::from_secs(1.0),
        Duration::from_secs(100_000.0),
    )
}

fn replay_ingest(workload: &WorkloadSpec, cfg: IngestConfig) -> (RunMetrics, IngestStats) {
    let (mut op, clock) = operator(workload);
    run_workload_ingest(
        &mut op,
        &clock,
        workload,
        Duration::from_secs(1.0),
        Duration::from_secs(100_000.0),
        cfg,
    )
}

/// The deterministic-replay ingest setting: flush on every pump.
fn zero_delay(shards: usize, router: ShardRouter) -> IngestConfig {
    IngestConfig {
        shards,
        max_delay: Duration::ZERO,
        router,
        ..IngestConfig::default()
    }
}

#[test]
fn single_shard_ingest_replay_is_bit_identical_to_the_legacy_loop() {
    let wl = bundled_trace();
    let legacy = replay_legacy(&wl);
    let (ingest, stats) = replay_ingest(&wl, zero_delay(1, ShardRouter::RoundRobin));
    // Spot-check the per-job timestamps for a readable failure before
    // the full struct equality.
    assert_eq!(legacy.jobs.len(), ingest.jobs.len());
    for (a, b) in legacy.jobs.iter().zip(&ingest.jobs) {
        assert_eq!(a.name, b.name, "job order diverged");
        assert_eq!(a.submitted_at, b.submitted_at, "{}: submit", a.name);
        assert_eq!(a.started_at, b.started_at, "{}: start", a.name);
        assert_eq!(a.completed_at, b.completed_at, "{}: completion", a.name);
    }
    assert_eq!(legacy, ingest, "batched ingest changed the schedule");
    // The equality is not vacuous: the trace actually exercised the
    // batch path (same-instant arrival bursts coalesce into batches).
    assert_eq!(stats.accepted, wl.len() as u64);
    assert_eq!(stats.flushed, wl.len() as u64);
    assert!(
        stats.batches < stats.flushed,
        "trace must coalesce at least one multi-job batch \
         ({} batches for {} jobs)",
        stats.batches,
        stats.flushed
    );
}

#[test]
fn sharded_ingest_replay_is_bit_identical_for_any_router() {
    let wl = bundled_trace();
    let legacy = replay_legacy(&wl);
    for (shards, router) in [
        (2, ShardRouter::RoundRobin),
        (4, ShardRouter::RoundRobin),
        (4, ShardRouter::HashByName),
    ] {
        let (ingest, stats) = replay_ingest(&wl, zero_delay(shards, router));
        assert_eq!(
            legacy, ingest,
            "schedule diverged at {shards} shards ({router:?})"
        );
        assert_eq!(stats.flushed, wl.len() as u64);
    }
}

/// `fault_replay.rs`'s reclamation schedule.
fn reclamation() -> FaultSpec {
    let (horizon, outage) = (Duration::from_secs(1600.0), Duration::from_secs(300.0));
    FaultSpec::reclamation(11, 2, 8, horizon, outage)
}

/// `resilience_replay.rs`'s storm on top of it.
fn reclamation_and_storm() -> FaultSpec {
    reclamation().with_flaky(
        FlakySpec::storm(11, 24, Duration::from_secs(4000.0))
            .with_breaker(3, Duration::from_secs(240.0))
            .with_retry_budget(6.0, 0.25)
            .with_health_threshold(2),
    )
}

/// Faults through the ingest path: the queue changes how submissions
/// reach the store, and nothing about when a fault is posted or what
/// the operator makes of it.
#[test]
fn fault_laden_ingest_replays_match_the_direct_replay_and_the_des() {
    for (label, faults) in [
        ("reclamation", reclamation()),
        ("reclamation + storm", reclamation_and_storm()),
    ] {
        let wl = bundled_trace().with_faults(faults);
        let des = replay_des(&wl);
        let legacy = replay_legacy(&wl);
        assert_eq!(des.faults, legacy.faults, "{label}: fault tallies");
        assert_eq!(des, legacy, "{label}: direct operator replay vs DES");
        for shards in [1, 4] {
            let (ingest, stats) = replay_ingest(&wl, zero_delay(shards, ShardRouter::RoundRobin));
            assert_eq!(legacy, ingest, "{label}: ingest over {shards} shards");
            assert_eq!(stats.flushed, wl.len() as u64);
        }
        // Not vacuous: the schedule preempted someone, and the storm hit.
        assert!(des.faults.requeues > 0, "{label}: nobody was requeued");
        let storming = !wl.faults.flaky.events.is_empty();
        assert_eq!(des.faults.transient_faults > 0, storming, "{label}");
    }
}
