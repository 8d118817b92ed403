//! The differential harness: a cross-engine test is a [`Scenario`] and
//! the list of [`Engine`]s that must replay it alike.
//!
//! A scenario is everything a replay depends on: the workload (with its
//! faults and cancellations), the cluster's capacity, a policy
//! constructor, one execution model handed to *every* engine, the
//! operator's tick and the horizon a hung replay panics at. An engine
//! is the DES, the operator with direct submissions, the operator
//! behind a batching ingest queue, or a federation of DES shards, each
//! shard the scenario's cluster. [`run`] replays a scenario on one
//! engine; [`assert_agree`] replays it on several and names the first
//! job or aggregate on which two of them part. The lower-level [`des`],
//! [`operator_replay`], [`ingest`] and [`federate`] hand back what a
//! test reads beyond [`RunMetrics`].
//!
//! The operator's control plane is `capacity / 8` nodes of 8 slots with
//! an instant kubelet, built in [`operator`] and nowhere else.

#![allow(dead_code)]

use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

use elastic_hpc::core::{
    run_workload_virtual, CharmOperator, FcfsBackfill, ModelExecutor, RecoveryPolicy,
    RecoveryStrategy, RunMetrics, SchedulingPolicy,
};
use elastic_hpc::federation::{FederationConfig, FederationOutcome, FederationRuntime, RoundRobin};
use elastic_hpc::kube::{ControlPlane, KubeletConfig};
use elastic_hpc::metrics::{Duration, VirtualClock};
use elastic_hpc::serving::{run_workload_ingest, IngestConfig, IngestStats};
use elastic_hpc::sim::{simulate, OverheadModel, ScalingModel, SimConfig, SimOutcome};
use elastic_hpc::workload::{load_workload, FaultSpec, FlakySpec, SwfLoadConfig, WorkloadSpec};

/// The bundled SWF trace's machine size, in slots.
pub const TRACE_CAPACITY: u32 = 32;

/// Slots per node of the operator's control plane.
const NODE_SLOTS: u32 = 8;

/// The bundled SWF trace (24 jobs on a 32-slot machine) under `cfg`'s
/// malleability annotation, validated.
pub fn bundled_trace(cfg: &SwfLoadConfig) -> WorkloadSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sample.swf");
    let file = std::fs::File::open(&path).expect("bundled trace exists");
    let wl = load_workload(std::io::BufReader::new(file), cfg).expect("bundled trace parses");
    wl.validate().expect("bundled trace is replayable");
    wl
}

/// FCFS backfill under kill-and-requeue recovery: the policy of the
/// bundled trace's fault replays.
pub fn kill_requeue_fcfs() -> RecoveryPolicy {
    RecoveryPolicy::new(Box::new(FcfsBackfill::new()), RecoveryStrategy::KillRequeue)
}

/// The bundled trace's reclamation schedule: two reclaim/return pairs
/// of 8 slots inside its busy part, at whole-second instants so both
/// engines observe them on the same tick.
pub fn trace_reclamation() -> FaultSpec {
    let (horizon, outage) = (Duration::from_secs(1600.0), Duration::from_secs(300.0));
    FaultSpec::reclamation(11, 2, 8, horizon, outage)
}

/// [`trace_reclamation`] plus a seeded transient-fault storm across the
/// busy part of the trace. A low breaker threshold and a small retry
/// budget make every resilience primitive (breaker trips, budget
/// denials, health evictions) exercise during the replay.
pub fn trace_storm(seed: u64) -> FaultSpec {
    trace_reclamation().with_flaky(
        FlakySpec::storm(seed, 24, Duration::from_secs(4000.0))
            .with_breaker(3, Duration::from_secs(240.0))
            .with_retry_budget(6.0, 0.25)
            .with_health_threshold(2),
    )
}

/// One replay's inputs, the same for every engine.
#[derive(Clone)]
pub struct Scenario {
    pub workload: WorkloadSpec,
    /// Cluster slots (per shard, for a federation).
    pub capacity: u32,
    policy: Rc<dyn Fn() -> Box<dyn SchedulingPolicy>>,
    /// `None`: every shape speeds up linearly at no cost, which is
    /// `ModelExecutor::ideal` and has no DES counterpart.
    scaling: Option<ScalingModel>,
    overhead: OverheadModel,
    /// The operator's pace; event times off this grid break agreement.
    pub tick: Duration,
    /// A replay still running at this instant panics.
    horizon: Duration,
}

impl Scenario {
    /// `workload` on `capacity` slots under a fresh `policy()` per
    /// engine; the default scaling model, no overhead, 1 s ticks, a
    /// 100 000 s horizon.
    pub fn new<P: SchedulingPolicy + 'static>(
        workload: WorkloadSpec,
        capacity: u32,
        policy: impl Fn() -> P + 'static,
    ) -> Self {
        Scenario {
            workload,
            capacity,
            policy: Rc::new(move || Box::new(policy())),
            scaling: Some(ScalingModel::default()),
            overhead: OverheadModel::zero(),
            tick: Duration::from_secs(1.0),
            horizon: Duration::from_secs(100_000.0),
        }
    }

    /// The bundled trace, rigidly annotated, on its own machine.
    pub fn trace<P: SchedulingPolicy + 'static>(policy: impl Fn() -> P + 'static) -> Self {
        let workload = bundled_trace(&SwfLoadConfig::rigid(TRACE_CAPACITY));
        Self::new(workload, TRACE_CAPACITY, policy)
    }

    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.workload = self.workload.with_faults(faults);
        self
    }

    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Every shape at linear speedup, nothing costs (`scaling: None`).
    pub fn linear(mut self) -> Self {
        self.scaling = None;
        self.overhead = OverheadModel::zero();
        self
    }

    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    pub fn with_horizon(mut self, horizon: Duration) -> Self {
        self.horizon = horizon;
        self
    }

    /// A fresh instance of the scenario's policy.
    fn policy(&self) -> Box<dyn SchedulingPolicy> {
        (self.policy)()
    }
}

/// What replays a [`Scenario`].
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// The discrete-event simulator.
    Des,
    /// The operator on a virtual clock, submissions through its client.
    Operator,
    /// The operator, submissions through a batching ingest queue.
    Ingest(IngestConfig),
    /// DES shards fed round-robin; metrics merged.
    Federation { shards: usize, workers: usize },
}

/// Replays `scenario` on `engine`.
pub fn run(scenario: &Scenario, engine: Engine) -> RunMetrics {
    match engine {
        Engine::Des => des(scenario).metrics,
        Engine::Operator => operator_replay(scenario).0,
        Engine::Ingest(cfg) => ingest(scenario, cfg).0,
        Engine::Federation { shards, workers } => federate(scenario, shards, workers).merged,
    }
}

/// Replays `scenario` on every engine and returns the first engine's
/// metrics; panics naming the first job or aggregate that differs.
pub fn assert_agree(scenario: &Scenario, engines: &[Engine]) -> RunMetrics {
    agreement(scenario, engines).unwrap_or_else(|found| panic!("engines diverge: {found}"))
}

/// [`assert_agree`] without the panic: the first engine's metrics, or
/// where an engine parts from it.
pub fn agreement(scenario: &Scenario, engines: &[Engine]) -> Result<RunMetrics, String> {
    let (&first, rest) = engines.split_first().expect("at least one engine");
    let base = run(scenario, first);
    for &engine in rest {
        if let Some(found) = divergence(&base, &run(scenario, engine)) {
            return Err(format!("{first:?} vs {engine:?}: {found}"));
        }
    }
    Ok(base)
}

/// `None` when `a == b`; otherwise the first job the two runs place
/// differently, or else both runs' aggregates.
pub fn divergence(a: &RunMetrics, b: &RunMetrics) -> Option<String> {
    if a == b {
        return None;
    }
    if let Some((x, y)) = a.jobs.iter().zip(&b.jobs).find(|(x, y)| x != y) {
        return Some(format!("first diverging job {x:?} vs {y:?}"));
    }
    let (n, m) = (a.jobs.len(), b.jobs.len());
    let aggregates = |r: &RunMetrics| {
        format!(
            "{:?}",
            RunMetrics {
                jobs: Vec::new(),
                ..r.clone()
            }
        )
    };
    Some(format!(
        "{n} vs {m} jobs, {} vs {}",
        aggregates(a),
        aggregates(b)
    ))
}

/// The DES's configuration for `scenario`.
pub fn sim_config(scenario: &Scenario) -> SimConfig {
    let scaling = scenario.scaling.clone();
    SimConfig {
        capacity: scenario.capacity,
        policy: scenario.policy(),
        scaling: scaling.expect("the DES has no linear-everything model"),
        overhead: scenario.overhead,
        cancellations: Vec::new(),
    }
}

pub fn des(scenario: &Scenario) -> SimOutcome {
    simulate(&sim_config(scenario), &scenario.workload)
}

/// A fresh operator for `scenario` and the virtual clock its plane reads.
pub fn operator(scenario: &Scenario) -> (CharmOperator, VirtualClock) {
    let clock = VirtualClock::new();
    let nodes = (scenario.capacity / NODE_SLOTS) as usize;
    let kubelet = KubeletConfig::instant();
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), kubelet, nodes, NODE_SLOTS);
    assert_eq!(plane.capacity(), scenario.capacity, "whole nodes only");
    let executor = match &scenario.scaling {
        Some(scaling) => ModelExecutor::new(plane.clock(), scaling.clone(), scenario.overhead),
        None => ModelExecutor::ideal(plane.clock()),
    };
    let op = CharmOperator::new(plane, scenario.policy(), Box::new(executor));
    (op, clock)
}

/// The operator after replaying `scenario`, with the run's metrics.
pub fn operator_replay(scenario: &Scenario) -> (RunMetrics, CharmOperator) {
    let (mut op, clock) = operator(scenario);
    let (tick, horizon) = (scenario.tick, scenario.horizon);
    let metrics = run_workload_virtual(&mut op, &clock, &scenario.workload, tick, horizon);
    (metrics, op)
}

pub fn ingest(scenario: &Scenario, cfg: IngestConfig) -> (RunMetrics, IngestStats) {
    let (mut op, clock) = operator(scenario);
    let (wl, tick, horizon) = (&scenario.workload, scenario.tick, scenario.horizon);
    run_workload_ingest(&mut op, &clock, wl, tick, horizon, cfg)
}

/// `scenario`'s workload dealt round-robin over `shards` clusters of
/// `scenario.capacity` slots each.
pub fn federate(scenario: &Scenario, shards: usize, workers: usize) -> FederationOutcome {
    let cfg = FederationConfig::new(shards).with_workers(workers);
    let mut fed = FederationRuntime::new(cfg, |_| sim_config(scenario));
    fed.submit(&scenario.workload, &mut RoundRobin::new());
    fed.start();
    fed.join()
}
