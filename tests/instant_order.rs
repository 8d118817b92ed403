//! One instant, one order: generated scenarios through both engines.
//!
//! The bundled-trace replays (`trace_replay`, `fault_replay`,
//! `resilience_replay`) prove the DES and the operator agree on one
//! trace and a few hand-written schedules. This file generates small
//! scenarios whose events *collide* — two completions at one instant, a
//! reclamation or a requeue re-entry on a policy-timer firing, a client
//! cancellation at the instant another job finishes — and holds the two
//! engines to bit-identical [`RunMetrics`] on every one of them. Which
//! of the colliding events the kernel sees first is
//! `elastic_core::kernel::EventClass`; the DES queue sorts by it and one
//! operator tick applies it statement by statement.
//!
//! A scenario is 14 rigid (`min == max`) jobs on 16 slots under
//! `AgingSweep(RecoveryPolicy(elastic, KillRequeue))` with a 30 s
//! timer, replayed with 1 s operator ticks. Both engines run the jobs
//! through the one execution model (`hpc_workload::model`), here at no
//! cost; whole-second arrivals, runtimes and fault times put every
//! event on the tick grid; zero-padded names make the operator's
//! `(submitted_at, name)` admission order the workload's job order.
//!
//! What the generated scenarios catch is mostly the `JobId` tie-break
//! (two completions at one instant, applied in queue-push order by a
//! DES that sorts by time and insertion alone). The class order has a
//! scenario of its own at the end of the file. One class stays
//! unobservable here: with rigid jobs every decision leaves no queued
//! job that fits the free slots, so a timer firing finds nothing to do
//! wherever it falls in its instant; its place (last) is pinned by the
//! queue's unit tests and by `CharmOperator::tick`'s statement order.

use std::cell::Cell;
use std::sync::Arc;

use elastic_hpc::core::{
    run_workload_virtual, AgingSweep, CharmOperator, ModelExecutor, Policy, PolicyConfig,
    RecoveryPolicy, RecoveryStrategy, RunMetrics, SchedulingPolicy,
};
use elastic_hpc::kube::{ControlPlane, KubeletConfig};
use elastic_hpc::metrics::{Duration, VirtualClock};
use elastic_hpc::sim::{simulate, OverheadModel, ScalingModel, SimConfig};
use elastic_hpc::workload::{FaultEvent, FaultKind, FaultSpec, JobSpec, WorkloadSpec};

const CAPACITY: u32 = 16;
const JOBS: usize = 14;
const SEEDS: u64 = 300;
const TIMER_S: f64 = 30.0;

/// Knuth's 64-bit LCG; the high bits are the usable ones.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

/// 14 rigid jobs: 1–6 replicas (plus a launcher) on 16 slots, 10–99 s
/// of runtime, arrival gaps of 0–19 s (a zero gap is a same-instant
/// burst), priorities 1–5. Short runtimes on a narrow cluster make
/// same-instant completions common.
fn scenario(seed: u64) -> WorkloadSpec {
    let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut arrival = 0u64;
    let jobs = (0..JOBS)
        .map(|i| {
            arrival += rng.below(20);
            let replicas = 1 + rng.below(6) as u32;
            let runtime_s = 10 + rng.below(90);
            let work = f64::from(replicas) * runtime_s as f64;
            let priority = 1 + rng.below(5) as u32;
            JobSpec::malleable(format!("j{i:02}"), replicas, replicas, work, priority)
                .at(Duration::from_secs(arrival as f64))
        })
        .collect();
    WorkloadSpec::new(jobs)
}

/// Half the cluster reclaimed at `at_s`, back 45 s later. With the
/// default 30 s requeue backoff, a reclaim on the timer grid also puts
/// the victims' re-entry on it.
fn reclaim_at(at_s: f64) -> FaultSpec {
    let event = |at_s: f64, kind| FaultEvent {
        at: Duration::from_secs(at_s),
        slots: CAPACITY / 2,
        kind,
    };
    FaultSpec::new(vec![
        event(at_s, FaultKind::Reclaim),
        event(at_s + 45.0, FaultKind::Return),
    ])
}

fn policy() -> Box<dyn SchedulingPolicy> {
    let elastic = Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(60.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    });
    let recovering = RecoveryPolicy::new(Box::new(elastic), RecoveryStrategy::KillRequeue);
    Box::new(AgingSweep::new(
        Box::new(recovering),
        Duration::from_secs(120.0),
        Duration::from_secs(TIMER_S),
    ))
}

fn replay_des(workload: &WorkloadSpec) -> RunMetrics {
    let cfg = SimConfig {
        capacity: CAPACITY,
        policy: policy(),
        scaling: ScalingModel::default(),
        overhead: OverheadModel::zero(),
        cancellations: Vec::new(),
    };
    simulate(&cfg, workload).metrics
}

fn replay_operator(workload: &WorkloadSpec) -> RunMetrics {
    let clock = VirtualClock::new();
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 2, 8);
    assert_eq!(plane.capacity(), CAPACITY);
    let executor = ModelExecutor::ideal(plane.clock());
    let mut op = CharmOperator::new(plane, policy(), Box::new(executor));
    run_workload_virtual(
        &mut op,
        &clock,
        workload,
        Duration::from_secs(1.0),
        Duration::from_secs(100_000.0),
    )
}

/// `None` when the engines agree; otherwise the first job they place
/// differently (or the first aggregate that differs).
fn divergence(des: &RunMetrics, op: &RunMetrics) -> Option<String> {
    if des == op {
        return None;
    }
    for (a, b) in des.jobs.iter().zip(&op.jobs) {
        if a != b {
            return Some(format!(
                "{}: DES start {} end {}, operator {} start {} end {}",
                a.name, a.started_at, a.completed_at, b.name, b.started_at, b.completed_at
            ));
        }
    }
    Some(format!(
        "jobs {} vs {}, faults {:?} vs {:?}, utilization {} vs {}",
        des.jobs.len(),
        op.jobs.len(),
        des.faults,
        op.faults,
        des.utilization,
        op.utilization
    ))
}

/// Replays every seed's scenario (as `variant` shapes it) through both
/// engines and fails with the whole list of diverging seeds.
fn hold_engines_equal(label: &str, variant: impl Fn(WorkloadSpec) -> WorkloadSpec) {
    let diverged: Vec<String> = (0..SEEDS)
        .filter_map(|seed| {
            let workload = variant(scenario(seed));
            let found = divergence(&replay_des(&workload), &replay_operator(&workload))?;
            Some(format!("  seed {seed}: {found}"))
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "{label}: {} of {SEEDS} scenarios diverge between DES and operator\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

#[test]
fn fault_free_scenarios_replay_identically() {
    hold_engines_equal("fault-free", |workload| workload);
}

#[test]
fn a_reclaim_on_the_timer_grid_replays_identically() {
    hold_engines_equal("reclaim at 30 s", |wl| wl.with_faults(reclaim_at(TIMER_S)));
    hold_engines_equal("reclaim at 60 s", |wl| {
        wl.with_faults(reclaim_at(2.0 * TIMER_S))
    });
}

#[test]
fn a_reclaim_beside_the_timer_grid_replays_identically() {
    hold_engines_equal("reclaim at 31 s", |wl| {
        wl.with_faults(reclaim_at(TIMER_S + 1.0))
    });
}

/// The client cancels one job at the very instant another completes:
/// the cancellation is applied first in both engines, so the slots it
/// frees are decided on before the completion's.
#[test]
fn a_cancel_colliding_with_a_completion_replays_identically() {
    let collisions = Cell::new(0u64);
    hold_engines_equal("cancel at a completion instant", |mut workload| {
        let plain = replay_des(&workload);
        // The victim is the first job still running when some other
        // job completes; it is cancelled at that instant.
        let collision = plain.jobs.iter().find_map(|done| {
            let victim = plain.jobs.iter().find(|j| {
                j.name != done.name
                    && j.started_at < done.completed_at
                    && done.completed_at < j.completed_at
            })?;
            Some((victim.name.clone(), done.completed_at))
        });
        if let Some((victim, at)) = collision {
            let job = workload.jobs.iter_mut().find(|j| j.name == victim);
            let job = job.expect("victim is a workload job");
            job.cancel_at = Some(Duration::from_secs(at.as_secs()));
            collisions.set(collisions.get() + 1);
        }
        workload
    });
    assert!(
        collisions.get() > SEEDS / 2,
        "only {} of {SEEDS} scenarios overlap two jobs",
        collisions.get()
    );
}

/// Class order on its own (no `JobId` tie involved): a kill-and-requeued
/// job's re-entry lands on the instant a running job completes. The
/// re-entry goes first (`Requeue < Completion`), so the completion's
/// freed slots go to the re-entered job, which outranks the one that
/// queued meanwhile. A queue ordered by push time would complete first
/// — the completion was scheduled at launch, long before the kill —
/// and hand the slots to the lower-priority job.
#[test]
fn a_requeue_re_entry_colliding_with_a_completion_replays_identically() {
    let rigid = |name: &str, runtime_s: f64, priority, arrival_s| {
        JobSpec::malleable(name, 6, 6, 6.0 * runtime_s, priority).at(Duration::from_secs(arrival_s))
    };
    // "a" and "b" fill 14 of 16 slots. The reclaim at 30 s takes 8: "b"
    // (the lower priority) is killed, back at 60 s — when "a" finishes.
    // "c" arrived at 40 s and found one free slot.
    let workload = WorkloadSpec::new(vec![
        rigid("a", 60.0, 5, 0.0),
        rigid("b", 100.0, 3, 0.0),
        rigid("c", 50.0, 1, 40.0),
    ])
    .with_faults(reclaim_at(TIMER_S));
    let (des, op) = (replay_des(&workload), replay_operator(&workload));
    assert_eq!(divergence(&des, &op), None);
    let started = |name: &str| {
        let job = des.jobs.iter().find(|j| j.name == name);
        job.expect("every job completes").started_at.as_secs()
    };
    assert_eq!(des.faults.requeues, 1);
    // "b" restarts on the slots "a" freed; "c" waits for the return.
    assert_eq!((started("b"), started("c")), (60.0, 75.0));
}
