//! Quickstart: submit four jobs to an elastic-scheduled cluster and
//! watch the scheduler create, shrink and expand them.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use elastic_hpc::core::{
    run_virtual, AppSpec, CharmJobSpec, CharmOperator, ModelExecutor, Policy, PolicyConfig,
    Schedule,
};
use elastic_hpc::kube::{ControlPlane, KubeletConfig};
use elastic_hpc::metrics::{Duration, VirtualClock};

fn job(name: &str, priority: u32, min: u32, max: u32, iters: u64) -> CharmJobSpec {
    CharmJobSpec {
        name: name.into(),
        min_replicas: min,
        max_replicas: max,
        priority,
        walltime_estimate: None,
        app: AppSpec::linear(iters as f64, min, max),
    }
}

fn main() {
    // A 4-node, 64-slot cluster — the paper's EKS testbed — on a
    // virtual clock, with jobs advanced by an ideal-speedup model.
    let clock = VirtualClock::new();
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 16);
    let executor = ModelExecutor::ideal(plane.clock());

    // The paper's elastic policy: priority-based, rescaling running
    // jobs subject to T_rescale_gap.
    let policy = Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(30.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    });
    let mut op = CharmOperator::new(plane, Box::new(policy), Box::new(executor));

    // Four jobs, 60 s apart: a long low-priority job grabs the cluster,
    // then higher-priority arrivals force it to shrink.
    let schedule = Schedule::every(
        vec![
            job("background", 1, 4, 60, 40_000),
            job("analysis", 3, 8, 32, 12_000),
            job("urgent", 5, 16, 32, 6_000),
            job("followup", 2, 4, 16, 4_000),
        ],
        Duration::from_secs(60.0),
    );

    let metrics = run_virtual(
        &mut op,
        &clock,
        &schedule,
        Duration::from_secs(1.0),
        Duration::from_secs(100_000.0),
    );

    println!("scheduling events:");
    for ev in op.events.snapshot() {
        println!(
            "  t={:>8.1}s {:12} {:16} {}",
            ev.at.as_secs(),
            ev.subject,
            ev.kind,
            ev.message
        );
    }
    println!("\nrun metrics:\n  {}", metrics.table_row());
    println!("\nper-job outcomes:");
    for j in &metrics.jobs {
        println!(
            "  {:12} prio {} response {:>7.1}s completion {:>7.1}s",
            j.name,
            j.priority,
            (j.started_at - j.submitted_at).as_secs(),
            (j.completed_at - j.submitted_at).as_secs()
        );
    }
}
