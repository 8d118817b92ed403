//! `des-elastic-400k`: one monolithic DES replay of the heavy-traffic
//! trace under the elastic policy, on one thread.

use std::time::Instant;

use hpc_metrics::{JobId, SimTime};
use hpc_workload::WorkloadSpec;
use sched_sim::events::{Event, EventQueue};
use sched_sim::experiments::SCALE_CAPACITY;
use sched_sim::{heavy_traffic_workload, OverheadModel, ScalingModel, SimConfig, SimState};

use super::{elastic, sample_policy, sample_run_metrics};
use crate::fingerprint;
use crate::policy::TimedPolicy;
use crate::runner::{Iteration, Probe, Samples, Workload};

const JOBS: usize = 400_000;
/// Events per `SimState::step` call: the span granularity of the
/// traced run, and the same stepping in the untraced one.
const QUANTUM: usize = 65_536;

pub struct DesElastic {
    workload: WorkloadSpec,
}

impl Workload for DesElastic {
    const NAME: &'static str = "des-elastic-400k";

    fn generate(seed: u64, quick: bool) -> Self {
        DesElastic {
            workload: heavy_traffic_workload(seed, if quick { JOBS / 10 } else { JOBS }),
        }
    }

    fn iterate(&mut self, probe: &mut Probe) -> Iteration {
        let (policy, ledger) = TimedPolicy::wrap_if(probe.on(), elastic());
        let cfg = SimConfig {
            capacity: SCALE_CAPACITY,
            policy,
            scaling: ScalingModel::default(),
            overhead: OverheadModel::default(),
            cancellations: Vec::new(),
        };
        let wl = &self.workload;

        // Segments: construction, each step quantum, finish.
        let mut segments_s = Vec::new();
        let mut mark = Instant::now();
        let mut segment_ends = || {
            let now = Instant::now();
            segments_s.push((now - mark).as_secs_f64());
            mark = now;
        };
        let iteration = probe.open_iteration();
        let span = probe.open("sim.new");
        let mut state = SimState::new(&cfg, wl);
        let new_s = probe.close(span);
        segment_ends();
        let step = probe.open("sim.step");
        loop {
            let quantum = probe.open("sim.quantum");
            let more = state.step(&cfg, wl, QUANTUM);
            probe.close(quantum);
            segment_ends();
            if !more {
                break;
            }
        }
        let events = state.events_processed();
        if let (Some(t), Some(id), Some(l)) = (probe.tracer(), step, &ledger) {
            let decide = l.lock().expect("policy ledger poisoned").decide.clone();
            t.attach(id, "policy.decide", decide);
        }
        let step_s = probe.close(step);
        let span = probe.open("sim.finish");
        let out = state.finish(&cfg, wl);
        let finish_s = probe.close(span);
        segment_ends();
        probe.close(iteration);

        if let Some(ledger) = ledger {
            let ledger = ledger.lock().expect("policy ledger poisoned");
            let ev = events as f64;
            probe.sample("workload.jobs", wl.len() as f64);
            probe.sample("sim.new_s", new_s);
            probe.sample("sim.step_s", step_s);
            probe.sample("sim.finish_s", finish_s);
            probe.sample("sim.events", ev);
            probe.sample("sim.ns_per_event", step_s * 1e9 / ev);
            probe.sample(
                "sim.self_ns_per_event",
                (step_s - ledger.decide.total_s()) * 1e9 / ev,
            );
            probe.sample("sim.peak_queue_len", out.peak_queue_len as f64);
            probe.sample("sim.peak_queue_len_raw", out.peak_queue_len_raw as f64);
            sample_policy(probe, &ledger);
            sample_run_metrics(probe, &out.metrics);
        }

        let lost = wl.len() as u64 - out.metrics.jobs.len() as u64 - u64::from(out.cancelled);
        Iteration {
            segments_s,
            work: events as f64,
            request_p50_ms: None,
            attempted: 1,
            failed: u64::from(lost > 0),
            fingerprint: Some(fingerprint::of_run(
                &out.metrics,
                &[
                    ("events", events),
                    ("peak_queue_len", out.peak_queue_len as u64),
                ],
            )),
        }
    }

    fn extras(&mut self, samples: &mut Samples) {
        // The quietest of three passes, as everywhere on this host.
        let passes = (0..3).map(|_| queue_ns_per_op(&self.workload));
        samples.push("sim.queue_ns_per_op", passes.fold(f64::INFINITY, f64::min));
    }
}

/// The event queue on its own: every arrival pushed, then each popped
/// and answered with a completion one nominal runtime later — the
/// timestamp pattern of a replay without the engine around it.
fn queue_ns_per_op(wl: &WorkloadSpec) -> f64 {
    let mut queue = EventQueue::new();
    let started = Instant::now();
    let mut ops = 0u64;
    for (i, job) in wl.jobs.iter().enumerate() {
        let first = JobId(i as u32);
        queue.push(
            SimTime::ZERO + job.arrival,
            Event::Submit { first, count: 1 },
        );
        ops += 1;
    }
    while let Some((at, event)) = queue.pop() {
        ops += 1;
        if let Event::Submit { first, .. } = event {
            let spec = &wl.jobs[first.0 as usize];
            let runtime = spec.work() / f64::from(spec.max_replicas());
            let done = Event::Completion {
                job: first,
                generation: 0,
            };
            queue.push(at + hpc_metrics::Duration::from_secs(runtime), done);
            ops += 1;
        }
    }
    std::hint::black_box(&queue);
    started.elapsed().as_secs_f64() * 1e9 / ops as f64
}
