//! SWF trace replay, cross-validated between the two engines.
//!
//! The bundled `tests/data/sample.swf` trace (rigid annotation: every
//! job replays at exactly its requested processor count under a linear
//! speed model) is driven through
//!
//! * the discrete-event simulator (`sched_sim::simulate`), and
//! * the watch-driven operator on a virtual clock
//!   (`elastic_core::run_workload_virtual` + `ModelExecutor::ideal`),
//!
//! and the two [`RunMetrics`] must be **identical** — not merely close.
//! With integer arrival/runtime seconds, a linear speed model and the
//! harness's same-instant launch of completion-triggered admissions,
//! every timestamp the metrics are computed from (submit, start,
//! complete, per job) is bit-equal between the engines, so the full
//! struct — weighted means, utilization integral, bounded slowdown,
//! per-job outcomes — compares with `==`.

use std::path::PathBuf;
use std::sync::Arc;

use elastic_hpc::core::{
    run_workload_virtual, CharmOperator, FcfsBackfill, ModelExecutor, RunMetrics,
};
use elastic_hpc::kube::{ControlPlane, KubeletConfig};
use elastic_hpc::metrics::{Duration, VirtualClock};
use elastic_hpc::sim::{simulate, OverheadModel, ScalingModel, SimConfig};
use elastic_hpc::workload::{load_workload, SwfLoadConfig, WorkloadSpec};

/// The replay cluster: 32 slots (the bundled trace's machine size).
const CAPACITY: u32 = 32;

fn bundled_trace(cfg: &SwfLoadConfig) -> WorkloadSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sample.swf");
    let file = std::fs::File::open(&path).expect("bundled trace exists");
    let wl = load_workload(std::io::BufReader::new(file), cfg).expect("bundled trace parses");
    wl.validate().expect("bundled trace is replayable");
    wl
}

fn replay_des(workload: &WorkloadSpec) -> RunMetrics {
    let cfg = SimConfig {
        capacity: CAPACITY,
        policy: Box::new(FcfsBackfill::new()),
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
    // The rigid trace annotation is the linear speed model with no
    // rescale overhead — exactly `ModelExecutor::ideal`.
    let executor = ModelExecutor::ideal(plane.clock());
    let mut op = CharmOperator::new(plane, Box::new(FcfsBackfill::new()), Box::new(executor));
    run_workload_virtual(
        &mut op,
        &clock,
        workload,
        Duration::from_secs(1.0),
        Duration::from_secs(100_000.0),
    )
}

#[test]
fn bundled_trace_parses_with_expected_shape() {
    let wl = bundled_trace(&SwfLoadConfig::rigid(CAPACITY));
    assert_eq!(wl.len(), 24);
    // Names are zero-padded, so lexicographic order == submission order.
    let names: Vec<&str> = wl.jobs.iter().map(|j| j.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, names);
    // The same-instant burst survives parsing.
    assert_eq!(wl.jobs[4].arrival, wl.jobs[5].arrival);
    // Rigid annotation: min == max == requested procs.
    assert!(wl.jobs.iter().all(|j| j.min_replicas() == j.max_replicas()));
    // The -1 fallbacks: job 7 took processors from the allocated field,
    // job 9 its runtime from the requested time.
    let j7 = wl.jobs.iter().find(|j| j.name == "swf0000007").unwrap();
    assert_eq!((j7.min_replicas(), j7.work()), (1, 150.0));
    let j9 = wl.jobs.iter().find(|j| j.name == "swf0000009").unwrap();
    assert_eq!(j9.work(), 90.0 * 2.0);
}

/// The acceptance criterion of the workload layer: one trace, two
/// engines, **identical** metrics.
#[test]
fn des_and_operator_replays_of_the_bundled_trace_are_identical() {
    let wl = bundled_trace(&SwfLoadConfig::rigid(CAPACITY));
    let des = replay_des(&wl);
    let op = replay_operator(&wl);
    // Spot-check the interesting invariants first for a readable
    // failure before the full struct equality.
    assert_eq!(des.jobs.len(), 24, "every trace job completes");
    assert_eq!(op.jobs.len(), 24);
    for (a, b) in des.jobs.iter().zip(&op.jobs) {
        assert_eq!(a.name, b.name, "job order diverged");
        assert_eq!(a.submitted_at, b.submitted_at, "{}: submit", a.name);
        assert_eq!(a.started_at, b.started_at, "{}: start", a.name);
        assert_eq!(a.completed_at, b.completed_at, "{}: completion", a.name);
    }
    assert_eq!(des, op, "DES and operator replays must be identical");
    // And the replay is not degenerate: the cluster saturates enough to
    // queue jobs (nonzero waits) and the slowdown metric sees it.
    assert!(des.utilization > 0.3 && des.utilization <= 1.0);
    assert!(
        des.jobs.iter().any(|j| j.started_at > j.submitted_at),
        "trace should overcommit the cluster at least once"
    );
    assert!(des.mean_bounded_slowdown > 1.0);
}

/// A machine-wide trace job (requesting every slot of the replay
/// cluster) must clamp to the schedulable capacity and complete in both
/// engines instead of starving behind the per-job launcher slot.
#[test]
fn machine_wide_trace_job_replays_in_both_engines() {
    let text = "\
1 0 0 300 32 -1 -1 32 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
2 60 0 120 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
";
    let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(CAPACITY))
        .expect("machine-wide trace parses");
    assert_eq!(wl.jobs[0].min_replicas(), CAPACITY - 1);
    let des = replay_des(&wl);
    let op = replay_operator(&wl);
    assert_eq!(des.jobs.len(), 2, "machine-wide job completes");
    assert_eq!(des, op);
}

/// Replays are deterministic per engine as well (guards the `==` above
/// from being vacuously flaky).
#[test]
fn trace_replays_are_deterministic() {
    let wl = bundled_trace(&SwfLoadConfig::rigid(CAPACITY));
    assert_eq!(replay_des(&wl), replay_des(&wl));
    assert_eq!(replay_operator(&wl), replay_operator(&wl));
}

/// The elastic annotation (half-to-double envelope) changes the
/// workload the policies see: the DES replay must still complete every
/// job, and an elastic policy exploits the envelope where rigid FCFS
/// cannot.
#[test]
fn elastic_annotation_replays_through_the_des() {
    use elastic_hpc::core::{Policy, PolicyConfig, PolicyKind};
    let wl = bundled_trace(&SwfLoadConfig::elastic(CAPACITY));
    assert!(wl.jobs.iter().any(|j| j.min_replicas() < j.max_replicas()));
    let cfg = SimConfig {
        capacity: CAPACITY,
        policy: Box::new(Policy::of_kind(
            PolicyKind::Elastic,
            PolicyConfig {
                rescale_gap: Duration::from_secs(180.0),
                launcher_slots: 1,
                shrink_spares_head: true,
            },
        )),
        scaling: ScalingModel::default(),
        overhead: OverheadModel::default(),
        cancellations: Vec::new(),
    };
    let out = simulate(&cfg, &wl);
    assert_eq!(out.metrics.jobs.len(), 24);
    assert!(
        out.rescales > 0,
        "elastic should use the annotation envelope"
    );
    assert!(out.metrics.mean_bounded_slowdown >= 1.0);
}

/// Cancellations replay identically — no bundled trace carries one.
/// "b" is cancelled at the instant it arrives: the cancellation is on
/// record when the control plane first sees the job, so both engines
/// retire it without a policy decision (the DES used to admit, decide,
/// cancel and redistribute it, rescaling "a" twice for nothing). "a" is
/// cancelled mid-run at t = 90 after being shrunk for "c" and "d", and
/// the slots it frees are redistributed at that instant. Integer times
/// and a free rescale, so every figure compares with `==`.
#[test]
fn cancellations_replay_identically_in_both_engines() {
    use elastic_hpc::core::{Policy, PolicyConfig};
    use elastic_hpc::workload::JobSpec;
    let at = Duration::from_secs;
    let wl = WorkloadSpec::new(vec![
        JobSpec::malleable("a", 2, 30, 30_000.0, 3).cancelled_at(at(90.0)),
        JobSpec::malleable("b", 4, 8, 2_400.0, 3)
            .at(at(30.0))
            .cancelled_at(at(30.0)),
        JobSpec::malleable("c", 2, 4, 1_200.0, 3).at(at(60.0)),
        JobSpec::malleable("d", 10, 26, 5_180.0, 3).at(at(70.0)),
    ]);
    let policy = || {
        Box::new(Policy::elastic(PolicyConfig {
            rescale_gap: Duration::ZERO,
            launcher_slots: 1,
            shrink_spares_head: false,
        }))
    };

    let cfg = SimConfig {
        capacity: CAPACITY,
        policy: policy(),
        scaling: ScalingModel::default(),
        overhead: OverheadModel::zero(),
        cancellations: Vec::new(),
    };
    let des = simulate(&cfg, &wl);

    let clock = VirtualClock::new();
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 8);
    let executor = ModelExecutor::ideal(plane.clock());
    let mut op = CharmOperator::new(plane, policy(), Box::new(executor));
    let op_metrics = run_workload_virtual(
        &mut op,
        &clock,
        &wl,
        Duration::from_secs(1.0),
        Duration::from_secs(100_000.0),
    );

    assert_eq!((des.cancelled, op.cancellations()), (2, 2));
    assert_eq!((des.rescales, op.rescales()), (5, 5));
    let done: Vec<(&str, f64)> = (des.metrics.jobs.iter())
        .map(|j| (j.name.as_str(), j.completed_at.as_secs()))
        .collect();
    assert_eq!(done, [("c", 370.0), ("d", 270.0)]);
    assert_eq!(des.metrics, op_metrics);
}
