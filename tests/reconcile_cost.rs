//! A reconcile round costs O(changes), not O(history) — held by count,
//! not by clock.
//!
//! The CharmJob store keeps every job ever submitted. A store's
//! `Counter::FullScans` (`Store::counters`) counts the reads that visit
//! every object, and the operator's `Counter::SettleRounds` the
//! reconcile rounds it ran, so "a tick does not scan the job store" is
//! an exact, host-independent number: zero in release builds, and
//! exactly one per tick in debug builds, where the operator
//! cross-checks its handle keys and completion counters against a scan.
//! The pod store is not scanned either: the scheduler, the kubelet and
//! garbage collection read its lifecycle-stage index, so a tick in which
//! no pod changed visits no pod, however many are settled. The one scan
//! left is the placement pass of a round that binds pods. What those
//! reads find is edited where it is found: the kubelet and garbage
//! collection walk their stage's list and update or delete each due pod
//! in the same call (`Store::update_in` / `Store::delete_in`), a job's
//! teardown walks its owner list the same way, and a binding round's
//! binds go through one `Store::update_each`. None of them counts as a
//! scan, so the counts below are those of the reads alone.

use std::sync::Arc;

use elastic_hpc::core::{
    CharmJobSpec, CharmOperator, JobPhase, ModelExecutor, Policy, PolicyConfig, SubmitRequest,
};
use elastic_hpc::kube::{ControlPlane, KubeletConfig, Pod, PodRole, TickOutcome};
use elastic_hpc::metrics::{Counter, Duration, VirtualClock};
use elastic_hpc::serving::{run_workload_ingest, IngestConfig};
use elastic_hpc::workload::poisson_workload;

/// Job-store scans the debug-build cross-check adds to every tick.
const CROSS_CHECK_SCANS_PER_TICK: u64 = cfg!(debug_assertions) as u64;
/// Pod-store scans of a tick with nothing pending. A tick that binds
/// pods adds the scheduler's placement pass.
const IDLE_POD_SCANS_PER_TICK: u64 = 0;
const MAX_POD_SCANS_PER_TICK: u64 = 1;

fn operator() -> (CharmOperator, VirtualClock) {
    let clock = VirtualClock::new();
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 16);
    let executor = ModelExecutor::ideal(plane.clock());
    let policy = Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(180.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    });
    let op = CharmOperator::new(plane, Box::new(policy), Box::new(executor));
    (op, clock)
}

fn rigid(name: String, replicas: u32, iters: u64) -> SubmitRequest {
    let spec = CharmJobSpec::builder(name)
        .rigid(replicas)
        .modeled_iters(iters)
        .build()
        .expect("valid spec");
    SubmitRequest::v1(spec).expect("valid request")
}

#[test]
fn idle_ticks_do_not_depend_on_how_many_jobs_the_store_has_held() {
    const HISTORY: usize = 10_000;
    const TICKS: u64 = 100;
    let (mut op, clock) = operator();
    let client = op.client();

    // 10 000 terminal jobs: cancelled before the reconciler saw them.
    for i in 0..HISTORY {
        client
            .submit_request(rigid(format!("done-{i}"), 2, 10))
            .unwrap();
        client.cancel(&format!("done-{i}")).unwrap();
    }
    op.tick();
    assert!(op.all_complete(), "history is all terminal");
    // Three rigid jobs fill 63 of the 64 slots and outlast the test;
    // 10 000 more then queue behind them for good.
    for i in 0..3 {
        client
            .submit_request(rigid(format!("run-{i}"), 20, u64::MAX / 4))
            .unwrap();
    }
    for i in 0..HISTORY {
        client
            .submit_request(rigid(format!("wait-{i}"), 2, 10))
            .unwrap();
    }
    for _ in 0..3 {
        op.tick();
    }
    assert_eq!(op.jobs.len(), 2 * HISTORY + 3);
    assert_eq!(op.leased_executors(), 3, "the three fillers run");
    assert_eq!(op.queued_jobs().len(), HISTORY);

    let job_scans = op.jobs.counters()[Counter::FullScans];
    let pod_scans = op.plane.pods.counters()[Counter::FullScans];
    for _ in 0..TICKS {
        clock.advance(Duration::from_secs(1.0));
        op.tick();
        assert!(!op.all_complete(), "queued and running jobs remain");
    }
    assert_eq!(
        op.jobs.counters()[Counter::FullScans] - job_scans,
        TICKS * CROSS_CHECK_SCANS_PER_TICK,
        "tick/all_complete scanned the 20 003-job store"
    );
    assert_eq!(
        op.plane.pods.counters()[Counter::FullScans] - pod_scans,
        TICKS * IDLE_POD_SCANS_PER_TICK
    );
    assert_eq!(op.leased_executors(), 3);
    assert_eq!(
        client.phase("wait-0"),
        Some(JobPhase::Queued),
        "nothing moved"
    );
}

#[test]
fn idle_ticks_visit_no_settled_pod() {
    const PODS: usize = 1_000;
    const TICKS: u64 = 100;
    let clock = VirtualClock::new();
    let kubelet = KubeletConfig::instant();
    let mut plane = ControlPlane::with_nodes(Arc::new(clock.clone()), kubelet, 4, 250);
    for i in 0..PODS {
        let pod = Pod::worker(format!("w{i:04}"), format!("j{}", i % 10), plane.now());
        plane.pods.create(pod).unwrap();
    }
    let bound = plane.tick();
    assert_eq!(bound.schedule.bound.len(), PODS);
    assert_eq!(
        bound.transitioned.len(),
        PODS,
        "an instant kubelet starts what binds"
    );
    assert!(plane.job_pods_running("j0", PodRole::Worker, PODS / 10));

    let scans = plane.pods.counters()[Counter::FullScans];
    for _ in 0..TICKS {
        clock.advance(Duration::from_secs(1.0));
        assert_eq!(plane.tick(), TickOutcome::default());
        assert_eq!(plane.reap_finished(), 0);
    }
    assert_eq!(
        plane.pods.counters()[Counter::FullScans],
        scans,
        "1 000 settled pods, none read"
    );
    assert_eq!(plane.pods.len(), PODS);
}

#[test]
fn a_whole_ingest_replay_never_scans_the_job_store() {
    let workload = poisson_workload(11, 40, Duration::from_secs(20.0));
    let tick = Duration::from_secs(60.0);
    let cfg = IngestConfig {
        max_delay: Duration::ZERO,
        ..IngestConfig::default()
    };
    let (mut op, clock) = operator();
    let job_scans = op.jobs.counters()[Counter::FullScans];
    let pod_scans = op.plane.pods.counters()[Counter::FullScans];
    let (metrics, stats) = run_workload_ingest(
        &mut op,
        &clock,
        &workload,
        tick,
        Duration::from_secs(1e7),
        cfg,
    );
    assert_eq!(metrics.jobs.len(), workload.len());
    assert_eq!(stats.flushed, workload.len() as u64);

    // The harness settles each instant, and an instant takes as many
    // rounds as it needs — counted, not assumed.
    let ticks = op.counters()[Counter::SettleRounds];
    // None, the final `metrics()` included: it reads the outcome rows
    // the kernel wrote as each job completed, not the store.
    assert_eq!(
        op.jobs.counters()[Counter::FullScans] - job_scans,
        ticks * CROSS_CHECK_SCANS_PER_TICK,
        "a tick or all_complete() scanned the job store ({ticks} ticks)"
    );
    let pods = op.plane.pods.counters()[Counter::FullScans] - pod_scans;
    assert!(
        (ticks * IDLE_POD_SCANS_PER_TICK..=ticks * MAX_POD_SCANS_PER_TICK).contains(&pods),
        "{pods} pod-store scans over {ticks} ticks"
    );
}
