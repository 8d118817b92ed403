//! `fed-easy-faults`: a four-shard federation under EASY backfill,
//! spot reclamations and a transient-fault storm, on two workers.

use std::sync::Mutex;
use std::time::Instant;

use elastic_core::{EasyBackfill, RecoveryPolicy, RecoveryStrategy, SchedulingPolicy};
use hpc_federation::{FederationConfig, FederationOutcome, FederationRuntime, LeastLoaded};
use hpc_metrics::Duration;
use hpc_workload::{poisson_workload, FaultSpec, FlakySpec, WorkloadSpec};
use sched_sim::{OverheadModel, ScalingModel, SimConfig};

use super::{sample_faults, sample_policy, sample_run_metrics};
use crate::fingerprint;
use crate::policy::{PolicyLedger, SharedLedger, TimedPolicy};
use crate::runner::{Iteration, Probe, Samples, Workload};

/// One replay lasts about 0.15 s: `start → join` is a black box, so
/// the whole replay has to fit into a quiet window of the host.
const JOBS: usize = 20_000;
/// Arrivals outrun the 4096 slots by about a quarter. At the critical
/// load of the heavy-traffic scenario (1.5 s) the backlog is a random
/// walk and replay time swings ±15 % with the seed; in overload it
/// grows the same way for every seed (±3 %), and EASY's scan of it is
/// what the replay spends its time on.
const MEAN_GAP_S: f64 = 1.2;
const SHARDS: usize = 4;
const SHARD_SLOTS: u32 = 1024;
/// The host has two cores; no workload runs more busy threads.
const MAX_WORKERS: usize = 2;

pub struct FedEasyFaults {
    workload: WorkloadSpec,
    workers: usize,
}

fn easy_with_recovery() -> Box<dyn SchedulingPolicy> {
    Box::new(RecoveryPolicy::new(
        Box::new(EasyBackfill::new()),
        RecoveryStrategy::CheckpointRestart,
    ))
}

struct Replay {
    out: FederationOutcome,
    route_s: f64,
    run_s: f64,
    wall_s: f64,
    policy: Option<PolicyLedger>,
}

fn replay(workload: &WorkloadSpec, workers: usize, probe: &mut Probe) -> Replay {
    let ledgers: Mutex<Vec<SharedLedger>> = Mutex::new(Vec::new());
    let traced = probe.on();
    let cfg = FederationConfig::new(SHARDS).with_workers(workers);
    let mut fed = FederationRuntime::new(cfg, |_| {
        let (policy, ledger) = TimedPolicy::wrap_if(traced, easy_with_recovery());
        ledgers.lock().expect("ledger list poisoned").extend(ledger);
        SimConfig {
            capacity: SHARD_SLOTS,
            policy,
            scaling: ScalingModel::default(),
            overhead: OverheadModel::default(),
            cancellations: Vec::new(),
        }
    });
    let started = Instant::now();
    let span = probe.open("fed.route");
    fed.handle().submit(workload, &mut LeastLoaded::new());
    let route_s = probe.close(span);
    let span = probe.open("fed.run");
    let run_from = Instant::now();
    fed.start();
    let out = fed.join();
    let run_s = run_from.elapsed().as_secs_f64();
    let wall_s = started.elapsed().as_secs_f64();
    let policy = traced.then(|| {
        let mut merged = PolicyLedger::default();
        for ledger in ledgers.lock().expect("ledger list poisoned").iter() {
            merged.merge(&ledger.lock().expect("policy ledger poisoned"));
        }
        merged
    });
    if let (Some(t), Some(id), Some(p)) = (probe.tracer(), span, &policy) {
        t.attach(id, "policy.decide", p.decide.clone());
    }
    probe.close(span);
    Replay {
        out,
        route_s,
        run_s,
        wall_s,
        policy,
    }
}

impl Workload for FedEasyFaults {
    const NAME: &'static str = "fed-easy-faults";

    fn generate(seed: u64, quick: bool) -> Self {
        let n = if quick { JOBS / 10 } else { JOBS };
        let mut workload = poisson_workload(seed, n, Duration::from_secs(MEAN_GAP_S));
        // EASY plans around walltime estimates: 1.5 × the runtime at
        // full width, the usual user over-estimate.
        for job in &mut workload.jobs {
            let estimate = 1.5 * job.work() / f64::from(job.max_replicas());
            job.walltime_estimate = Some(Duration::from_secs(estimate));
        }
        let horizon = Duration::from_secs(MEAN_GAP_S * n as f64);
        let reclaims = FaultSpec::reclamation(
            seed + 1,
            (n / 1000) as u32,
            128,
            horizon,
            Duration::from_secs(600.0),
        );
        let storm = FlakySpec::storm(seed + 2, (n / 100) as u32, horizon);
        let workload = workload.with_faults(reclaims.with_flaky(storm));
        let host = std::thread::available_parallelism().map_or(1, |p| p.get());
        FedEasyFaults {
            workload,
            workers: host.min(MAX_WORKERS),
        }
    }

    fn iterate(&mut self, probe: &mut Probe) -> Iteration {
        let iteration = probe.open_iteration();
        let r = replay(&self.workload, self.workers, probe);
        probe.close(iteration);
        let events = r.out.total_events();
        let wl = &self.workload;

        if let Some(policy) = &r.policy {
            let mean = events as f64 / SHARDS as f64;
            let max = r.out.events.iter().copied().max().unwrap_or(0) as f64;
            let faults = wl.faults.events.len() + wl.faults.flaky.events.len();
            probe.sample("workload.jobs", wl.len() as f64);
            probe.sample("workload.fault_events", faults as f64);
            probe.sample("fed.route_s", r.route_s);
            probe.sample("fed.run_s", r.run_s);
            probe.sample("fed.events", events as f64);
            probe.sample("fed.turns", r.out.turns.iter().sum::<u64>() as f64);
            probe.sample("fed.shard_imbalance", max / mean);
            probe.sample("sim.events", events as f64);
            probe.sample("sim.ns_per_event", r.run_s * 1e9 / events as f64);
            sample_policy(probe, policy);
            sample_run_metrics(probe, &r.out.merged);
            sample_faults(probe, &r.out.merged.faults);
        }

        let merged = &r.out.merged;
        let accounted = merged.jobs.len() as u64 + u64::from(merged.faults.permanent_failures);
        Iteration {
            segments_s: vec![r.wall_s],
            work: events as f64,
            request_p50_ms: None,
            attempted: 1,
            failed: u64::from(accounted != wl.len() as u64),
            fingerprint: Some(fingerprint::of_run(merged, &[("events", events)])),
        }
    }

    fn extras(&mut self, samples: &mut Samples) {
        // Untraced replays, so the decorator's cost is in neither side
        // of a ratio. One worker against `workers`: how much of the
        // second core the work queue actually uses.
        // The quietest of five replays each, as everywhere on this host.
        let fastest = |workload: &WorkloadSpec, workers: usize| {
            (0..5)
                .map(|_| replay(workload, workers, &mut Probe::off()))
                .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
                .expect("five replays")
        };
        let parallel = fastest(&self.workload, self.workers);
        let single = fastest(&self.workload, 1);
        samples.push(
            "fed.parallel_efficiency",
            single.run_s / (self.workers as f64 * parallel.run_s),
        );
        // The same jobs with no fault schedule: what the fault layer's
        // work costs when it has work to do.
        let mut plain = self.workload.clone();
        plain.faults = FaultSpec::default();
        let plain = fastest(&plain, self.workers);
        let rate = |r: &Replay| r.out.total_events() as f64 / r.wall_s;
        samples.push(
            "resilience.faulted_over_plain",
            rate(&parallel) / rate(&plain),
        );
    }
}
