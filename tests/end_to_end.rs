//! Whole-stack integration: real runtime + real apps + operator +
//! policies, exercised together the way the paper's evaluation does.

use std::sync::Arc;

use elastic_hpc::apps::{JacobiApp, JacobiConfig};
use elastic_hpc::charm::{GreedyLb, RuntimeConfig};
use elastic_hpc::core::{
    run_real, AppSpec, CharmExecutor, CharmJobSpec, CharmOperator, Policy, PolicyConfig,
    PolicyKind, Schedule,
};
use elastic_hpc::kube::{ControlPlane, KubeletConfig};
use elastic_hpc::metrics::{Duration, RealClock};
use elastic_hpc::scenario::{des, Scenario};
use elastic_hpc::workload::{generate_workload, SizeClass};

fn policy(gap_s: f64) -> Policy {
    Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(gap_s),
        launcher_slots: 1,
        shrink_spares_head: true,
    })
}

/// The full "Actual" pipeline in miniature: compressed wall clock, real
/// Jacobi jobs, elastic policy — submissions force a shrink and a
/// completion triggers an expand, while every job still finishes with
/// correct numerics.
#[test]
fn mini_actual_campaign_with_real_jobs() {
    let clock = Arc::new(RealClock::with_compression(180.0));
    let plane = ControlPlane::with_nodes(
        clock,
        KubeletConfig {
            startup_latency: Duration::from_secs(1.0),
            termination_grace: Duration::from_secs(0.5),
        },
        2,
        4, // 8 slots
    );
    let mut op = CharmOperator::new(plane, Box::new(policy(60.0)), Box::new(CharmExecutor));
    let jacobi = |name: &str, prio: u32, min: u32, max: u32, iters: u64| CharmJobSpec {
        name: name.into(),
        min_replicas: min,
        max_replicas: max,
        priority: prio,
        walltime_estimate: None,
        app: AppSpec::Jacobi {
            grid: 256,
            blocks: 4,
            total_iters: iters,
            window: 100,
        },
    };
    // "head" (highest priority) is spared by the Fig. 2 quirk, so the
    // shrink lands on "bulk" when "hot" arrives: 8 slots, head holds
    // 2+1, bulk fills the rest, hot needs 2+1 at minimum.
    let schedule = Schedule::every(
        vec![
            jacobi("head", 5, 1, 2, 15_000),
            jacobi("bulk", 1, 1, 5, 15_000),
            jacobi("hot", 4, 2, 5, 5_000),
        ],
        Duration::from_secs(90.0),
    );
    let metrics = run_real(
        &mut op,
        &schedule,
        Duration::from_secs(2.0),
        Duration::from_secs(30_000.0),
    );
    assert_eq!(metrics.jobs.len(), 3);
    assert!(metrics.utilization > 0.1 && metrics.utilization <= 1.0);
    for j in &metrics.jobs {
        assert!(j.completed_at > j.started_at);
        assert!(j.started_at >= j.submitted_at);
    }
    // The squeeze must have forced at least one rescale of "bulk".
    assert!(
        op.rescales() >= 1,
        "expected elastic rescaling under contention, events: {:?}",
        op.events.snapshot()
    );
}

/// Workload generation, the scaling model and the class bounds stay
/// mutually consistent — guards against calibration drift.
#[test]
fn workload_and_model_are_consistent() {
    use elastic_hpc::sim::ScalingModel;
    let model = ScalingModel::default();
    for job in generate_workload(123, 64).jobs {
        let class = job.class().expect("paper generator emits class jobs");
        let (lo, hi) = class.replica_bounds();
        assert_eq!((job.min_replicas(), job.max_replicas()), (lo, hi));
        // Runtime at min must exceed runtime at max (strong scaling).
        assert!(model.runtime(class, lo) > model.runtime(class, hi));
    }
    // Classes are ordered by work: small jobs are shorter than xlarge
    // at their respective max configurations... not necessarily, but
    // their total slot-work must increase with class size.
    let work = |c: SizeClass| {
        let (_, hi) = c.replica_bounds();
        model.runtime(c, hi) * f64::from(hi)
    };
    assert!(work(SizeClass::Small) < work(SizeClass::Medium));
    assert!(work(SizeClass::Medium) < work(SizeClass::Large));
    assert!(work(SizeClass::Large) < work(SizeClass::XLarge));
}

/// A real Jacobi solve pushed through repeated CCS rescales still
/// matches the serial reference — the end-to-end statement of the
/// paper's C1 contribution.
#[test]
fn repeated_rescaling_preserves_numerics() {
    use elastic_hpc::apps::jacobi::reference_jacobi;
    let cfg = JacobiConfig::new(48, 4, 4);
    let mut app = JacobiApp::new(cfg, RuntimeConfig::new(4));
    let client = app.driver.rt.ccs_client();
    let plan = [3usize, 5, 2, 6, 4];
    for (i, &target) in plan.iter().enumerate() {
        app.run_window(4).unwrap();
        let _ack = client.request_rescale(target);
        app.driver.poll_rescale(&GreedyLb).expect("pending request");
        assert_eq!(app.driver.num_pes(), target, "rescale {i} failed");
    }
    app.run_window(4).unwrap();
    let parallel = app.gather_grid().unwrap();
    let serial = reference_jacobi(&cfg, 24);
    for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
        assert_eq!(p.to_bits(), s.to_bits(), "cell {i} diverged");
    }
    app.shutdown();
}

/// Determinism of the umbrella pipeline: the same seed produces the
/// same simulated Table 1, byte for byte.
#[test]
fn table1_simulation_is_reproducible() {
    let table1 = || -> Vec<String> {
        let replay = |kind| {
            let policy = move || Policy::of_kind(kind, PolicyConfig::default());
            let campaign = Scenario::campaign(42, Duration::from_secs(90.0), policy);
            des(&campaign).metrics.table_row()
        };
        PolicyKind::ALL.into_iter().map(replay).collect()
    };
    assert_eq!(table1(), table1());
}
