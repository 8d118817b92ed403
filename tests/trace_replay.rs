//! SWF trace replay, cross-validated between the two engines.
//!
//! The bundled 24-job SWF trace, rigidly annotated (every job replays
//! at exactly its requested processor count under a linear speed
//! model), replays on its 32-slot machine under FCFS backfill in the
//! discrete-event simulator and in the watch-driven operator, and the
//! two `RunMetrics` must be **identical**, not merely close. With
//! integer arrival/runtime seconds, a linear speed model and the same
//! instant launch of completion-triggered admissions, every timestamp
//! the metrics are computed from (submit, start, complete, per job) is
//! bit-equal between the engines, so the full struct compares with
//! `==`. Beside it: a machine-wide job, the elastic annotation (DES
//! only) and a hand-written cancellation schedule.

mod common;

use common::assert_agree;
use elastic_hpc::core::{FcfsBackfill, Policy, PolicyConfig, PolicyKind};
use elastic_hpc::metrics::{Counter, Duration};
use elastic_hpc::scenario::{self, bundled_trace, Engine::*, Scenario, TRACE_CAPACITY};
use elastic_hpc::sim::OverheadModel;
use elastic_hpc::workload::{load_workload, JobSpec, SwfLoadConfig, WorkloadSpec};

#[test]
fn bundled_trace_parses_with_expected_shape() {
    let wl = bundled_trace(&SwfLoadConfig::rigid(TRACE_CAPACITY));
    assert_eq!(wl.len(), 24);
    // Names are zero-padded, so lexicographic order == submission order.
    let names: Vec<&str> = wl.jobs.iter().map(|j| &*j.name).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, names);
    // The same-instant burst survives parsing.
    assert_eq!(wl.jobs[4].arrival, wl.jobs[5].arrival);
    // Rigid annotation: min == max == requested procs.
    assert!(wl.jobs.iter().all(|j| j.min_replicas() == j.max_replicas()));
    // The -1 fallbacks: job 7 took processors from the allocated field,
    // job 9 its runtime from the requested time.
    let j7 = wl.jobs.iter().find(|j| &*j.name == "swf0000007").unwrap();
    assert_eq!((j7.min_replicas(), j7.work()), (1, 150.0));
    let j9 = wl.jobs.iter().find(|j| &*j.name == "swf0000009").unwrap();
    assert_eq!(j9.work(), 90.0 * 2.0);
}

/// The acceptance criterion of the workload layer: one trace, two
/// engines, **identical** metrics.
#[test]
fn des_and_operator_replays_of_the_bundled_trace_are_identical() {
    let des = assert_agree(&Scenario::trace(FcfsBackfill::new), &[Des, Operator]);
    assert_eq!(des.jobs.len(), 24, "every trace job completes");
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
    let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(TRACE_CAPACITY))
        .expect("machine-wide trace parses");
    assert_eq!(wl.jobs[0].min_replicas(), TRACE_CAPACITY - 1);
    let scenario = Scenario::new(wl, TRACE_CAPACITY, FcfsBackfill::new);
    let des = assert_agree(&scenario, &[Des, Operator]);
    assert_eq!(des.jobs.len(), 2, "machine-wide job completes");
}

/// Replays are deterministic per engine as well (guards the `==` above
/// from being vacuously flaky).
#[test]
fn trace_replays_are_deterministic() {
    let scenario = Scenario::trace(FcfsBackfill::new);
    assert_agree(&scenario, &[Des, Des]);
    assert_agree(&scenario, &[Operator, Operator]);
}

/// The elastic annotation (half-to-double envelope) changes the
/// workload the policies see: the DES replay must still complete every
/// job, and an elastic policy exploits the envelope where rigid FCFS
/// cannot.
#[test]
fn elastic_annotation_replays_through_the_des() {
    let wl = bundled_trace(&SwfLoadConfig::elastic(TRACE_CAPACITY));
    assert!(wl.jobs.iter().any(|j| j.min_replicas() < j.max_replicas()));
    let elastic = || {
        let cfg = PolicyConfig {
            rescale_gap: Duration::from_secs(180.0),
            launcher_slots: 1,
            shrink_spares_head: true,
        };
        Policy::of_kind(PolicyKind::Elastic, cfg)
    };
    let scenario =
        Scenario::new(wl, TRACE_CAPACITY, elastic).with_overhead(OverheadModel::default());
    let out = scenario::des(&scenario);
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
    let at = Duration::from_secs;
    let wl = WorkloadSpec::new(vec![
        JobSpec::malleable("a", 2, 30, 30_000.0, 3).cancelled_at(at(90.0)),
        JobSpec::malleable("b", 4, 8, 2_400.0, 3)
            .at(at(30.0))
            .cancelled_at(at(30.0)),
        JobSpec::malleable("c", 2, 4, 1_200.0, 3).at(at(60.0)),
        JobSpec::malleable("d", 10, 26, 5_180.0, 3).at(at(70.0)),
    ]);
    let scenario = Scenario::new(wl, TRACE_CAPACITY, || {
        Policy::elastic(PolicyConfig {
            rescale_gap: Duration::ZERO,
            launcher_slots: 1,
            shrink_spares_head: false,
        })
    });

    let des = scenario::des(&scenario);
    let (op_metrics, op) = scenario::operator_replay(&scenario);
    assert_eq!(
        (des.cancelled, op.counters()[Counter::Cancellations]),
        (2, 2)
    );
    assert_eq!((des.rescales, op.rescales()), (5, 5));
    let done: Vec<(&str, f64)> = (des.metrics.jobs.iter())
        .map(|j| (&*j.name, j.completed_at.as_secs()))
        .collect();
    assert_eq!(done, [("c", 370.0), ("d", 270.0)]);
    assert_eq!(scenario::divergence(&des.metrics, &op_metrics), None);
}
