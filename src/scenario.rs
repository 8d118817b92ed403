//! One description of a replay, and the engines that run it.
//!
//! A [`Scenario`] is everything a replay depends on: the workload (with
//! its faults and cancellations), the cluster's capacity, a policy
//! constructor, one execution model handed to *every* engine, the
//! operator's tick and the horizon a hung replay panics at. An
//! [`Engine`] is the DES, the operator with direct submissions, the
//! operator behind a batching ingest queue, or a federation of DES
//! shards, each shard the scenario's cluster. [`run`] replays a
//! scenario on one engine; [`agreement`] replays it on several and
//! names the first job or aggregate on which two of them part. The
//! lower-level [`des`], [`operator_replay`], [`ingest`] and
//! [`federate`] hand back what a caller reads beyond [`RunMetrics`].
//!
//! This module is the one place a replay's inputs become an engine:
//! the DES configuration ([`sim_config`]); the operator's control plane
//! of `capacity / 8` nodes of 8 slots with an instant kubelet, and its
//! executor chosen from the scaling model ([`operator`]); and the
//! round-robin federation ([`federate`]). It is also the one loader of
//! an SWF trace ([`load_trace`]) and the one place that names the
//! bundled one ([`BUNDLED_TRACE`]).

use std::io::BufReader;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

use crate::core::{
    run_workload_virtual, CharmOperator, ModelExecutor, RunMetrics, SchedulingPolicy,
};
use crate::federation::{FederationConfig, FederationOutcome, FederationRuntime, RoundRobin};
use crate::kube::{ControlPlane, KubeletConfig};
use crate::metrics::{Duration, VirtualClock};
use crate::serving::{run_workload_ingest, IngestConfig, IngestStats};
use crate::sim::{simulate, OverheadModel, ScalingModel, SimConfig, SimOutcome};
use crate::workload::{load_workload, FaultSpec, SwfLoadConfig, WorkloadSpec};

/// The bundled SWF trace: 24 jobs logged on a [`TRACE_CAPACITY`]-slot
/// machine.
pub const BUNDLED_TRACE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/sample.swf");

/// The bundled SWF trace's machine size, in slots.
pub const TRACE_CAPACITY: u32 = 32;

/// Slots per node of the operator's control plane.
const NODE_SLOTS: u32 = 8;

/// Loads the SWF trace at `path` under `cfg` and checks it replays.
pub fn load_trace(path: &Path, cfg: &SwfLoadConfig) -> WorkloadSpec {
    let shown = path.display();
    let file = std::fs::File::open(path).unwrap_or_else(|e| panic!("open {shown}: {e}"));
    let wl =
        load_workload(BufReader::new(file), cfg).unwrap_or_else(|e| panic!("parse {shown}: {e}"));
    wl.validate().expect("trace is replayable");
    wl
}

/// The bundled SWF trace under `cfg`'s malleability annotation,
/// validated.
pub fn bundled_trace(cfg: &SwfLoadConfig) -> WorkloadSpec {
    load_trace(Path::new(BUNDLED_TRACE), cfg)
}

/// One replay's inputs, the same for every engine.
#[derive(Clone)]
pub struct Scenario {
    /// The jobs, their faults and their cancellations.
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

    /// The workload with `faults` injected.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.workload = self.workload.with_faults(faults);
        self
    }

    /// Rescales and recoveries cost what `overhead` says.
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

    /// The operator ticks every `tick`.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// A replay still running at `horizon` panics.
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
    Federation {
        /// Clusters, each of the scenario's capacity.
        shards: usize,
        /// Threads that replay them.
        workers: usize,
    },
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

/// Replays `scenario` on every engine: the first engine's metrics, or
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

/// `scenario` replayed on the DES.
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

/// `scenario` replayed on the operator, its submissions through a
/// batching ingest queue configured by `cfg`.
pub fn ingest(scenario: &Scenario, cfg: IngestConfig) -> (RunMetrics, IngestStats) {
    let (mut op, clock) = operator(scenario);
    let (wl, tick, horizon) = (&scenario.workload, scenario.tick, scenario.horizon);
    run_workload_ingest(&mut op, &clock, wl, tick, horizon, cfg)
}

/// `scenario`'s workload dealt round-robin over `shards` clusters of
/// `scenario.capacity` slots each, replayed by `workers` threads.
pub fn federate(scenario: &Scenario, shards: usize, workers: usize) -> FederationOutcome {
    let cfg = FederationConfig::new(shards).with_workers(workers);
    let mut fed = FederationRuntime::new(cfg, |_| sim_config(scenario));
    fed.submit(&scenario.workload, &mut RoundRobin::new());
    fed.start();
    fed.join()
}
