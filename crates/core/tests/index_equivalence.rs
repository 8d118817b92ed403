//! The operator's tick-path indexes equal the store scans they replace.
//!
//! A reconcile round no longer scans the CharmJob store: the `Running`
//! jobs are the executor-handle keys, `all_complete()` is two counters,
//! and a job's pods come from the pod store's by-owner index. This test
//! drives random sequences of submit / cancel (before the reconciler
//! saw the job, and while a shrink or expand is in flight) / complete /
//! evict / requeue through the public surface and holds, before
//! and after every reconcile, that each of those answers equals the
//! full-scan answer it replaced. Debug builds additionally assert the
//! exact handle-key set inside every `tick()`.

use std::sync::Arc;

use elastic_core::{
    CharmJobSpec, CharmOperator, JobPhase, ModelExecutor, OverheadModel, Policy, PolicyConfig,
    ScalingModel, SchedulerClient, SubmitRequest,
};
use hpc_metrics::{Duration, VirtualClock};
use hpc_workload::{FaultSpec, FlakyOp, FlakySpec};
use kube_sim::{ControlPlane, KubeletConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Slow pod starts and slow rescales keep `Starting` jobs and
/// `ShrinkSignalled` / `ExpandPodsPending` flows open across ticks, so
/// cancels and faults land in the middle of them.
fn operator(clock: &VirtualClock) -> CharmOperator {
    let kubelet = KubeletConfig {
        startup_latency: Duration::from_secs(2.0),
        termination_grace: Duration::ZERO,
    };
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), kubelet, 4, 16);
    let executor = ModelExecutor::new(
        plane.clock(),
        ScalingModel::default(),
        OverheadModel {
            lb_base: 4.0,
            ..OverheadModel::zero()
        },
    );
    let policy = Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(1.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    });
    let mut op = CharmOperator::new(plane, Box::new(policy), Box::new(executor));
    // Requeues come back within the run; the breaker never absorbs a
    // fault; the small retry budget runs dry, so some victims fail for
    // good.
    op.set_fault_spec(
        FaultSpec::default()
            .with_backoff_base(Duration::from_secs(2.0))
            .with_flaky(
                FlakySpec::default()
                    .with_breaker(u32::MAX, Duration::from_secs(1.0))
                    .with_retry_budget(6.0, 0.0),
            ),
    );
    op
}

fn live_jobs(op: &CharmOperator) -> Vec<String> {
    let mut names: Vec<String> = op
        .jobs
        .list()
        .into_iter()
        .filter(|s| !s.obj.status.phase.is_terminal())
        .map(|s| s.obj.spec.name.clone())
        .collect();
    names.sort();
    names
}

/// The answers the tick path reads off its own state, against the
/// scans they replaced.
fn check(op: &CharmOperator, context: &str) -> Result<(), TestCaseError> {
    let jobs = op.jobs.list();
    let scanned_complete =
        !jobs.is_empty() && jobs.iter().all(|s| s.obj.status.phase.is_terminal());
    prop_assert_eq!(op.all_complete(), scanned_complete, "{}", context);
    let running = jobs
        .iter()
        .filter(|s| s.obj.status.phase == JobPhase::Running)
        .count();
    prop_assert_eq!(op.leased_executors() as usize, running, "{}", context);

    let pods = op.plane.pods.list();
    for job in &jobs {
        let owner = &job.obj.spec.name;
        // The owner index files a pod once, at creation: uid order.
        let mut scanned: Vec<_> = pods
            .iter()
            .filter(|p| *p.obj.owner == **owner && p.obj.consumes_resources())
            .collect();
        scanned.sort_by_key(|p| p.uid);
        let scanned: Vec<_> = scanned.iter().map(|p| Arc::clone(&p.obj.name)).collect();
        prop_assert_eq!(
            op.plane.pod_names_of_job(owner, None),
            scanned,
            "{}: pods of {}",
            context,
            owner
        );
    }
    Ok(())
}

fn submit(client: &SchedulerClient, rng: &mut ChaCha8Rng, serial: &mut u32) -> String {
    let name = format!("j{serial}");
    *serial += 1;
    let min = rng.gen_range(1..=8);
    let spec = CharmJobSpec::builder(name.clone())
        .replicas(min, rng.gen_range(min..=min + 24))
        .priority(rng.gen_range(1..=5))
        .modeled_iters(rng.gen_range(20..=400))
        .build()
        .expect("valid spec");
    client
        .submit_request(SubmitRequest::v1(spec).expect("valid request"))
        .expect("unique name");
    name
}

proptest! {
    #[test]
    fn tick_path_indexes_equal_store_scans(
        seed in any::<u64>(),
        steps in 10usize..70,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let clock = VirtualClock::new();
        let mut op = operator(&clock);
        let client = op.client();
        let mut serial = 0u32;

        for step in 0..steps {
            let action = rng.gen_range(0..11u32);
            match action {
                // Submit; sometimes cancel before the reconciler looks.
                0..=4 => {
                    let name = submit(&client, &mut rng, &mut serial);
                    if rng.gen_bool(0.2) {
                        client.cancel(&name).expect("live job");
                    }
                }
                // Cancel any live job, whatever it is in the middle of.
                5 => {
                    let live = live_jobs(&op);
                    if !live.is_empty() {
                        let _ = client.cancel(&live[rng.gen_range(0..live.len())]);
                    }
                }
                // Cancel a job whose shrink or expand was last started:
                // with 4 s acks and 2 s pod starts it is still in
                // flight more often than not.
                6 => {
                    let flows = op
                        .events
                        .of_kind("ShrinkSignalled")
                        .into_iter()
                        .chain(op.events.of_kind("ExpandStarted"));
                    if let Some(ev) = flows.max_by(|a, b| a.at.cmp(&b.at)) {
                        let _ = client.cancel(&ev.subject);
                    }
                }
                // Transient faults: evict the oldest executor, or
                // kill-and-requeue the oldest / youngest.
                7..=9 => {
                    let fault = [FlakyOp::StuckRescale, FlakyOp::LaunchFail, FlakyOp::CrashOnStart]
                        [(action - 7) as usize];
                    op.post_flaky(fault);
                }
                // Let work complete.
                _ => clock.advance(Duration::from_secs(rng.gen_range(5..=40) as f64)),
            }
            check(&op, &format!("step {step} (action {action}) before tick"))?;
            clock.advance(Duration::from_secs(rng.gen_range(1..=3) as f64));
            op.tick();
            check(&op, &format!("step {step} (action {action}) after tick"))?;
        }

        // Run dry: everything still live completes or fails for good.
        for _ in 0..400 {
            clock.advance(Duration::from_secs(5.0));
            op.tick();
        }
        check(&op, "after the run")?;
        prop_assert!(op.all_complete(), "live after the run: {:?}", live_jobs(&op));
    }
}
