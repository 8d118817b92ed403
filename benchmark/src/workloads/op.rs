//! `op-ingest-replay`: the whole submit → ingest → operator → policy →
//! completion path on the operator engine, virtual clock, one thread.

use std::sync::Arc;
use std::time::Instant;

use elastic_core::{
    CharmOperator, ModelExecutor, RunMetrics, Schedule, SchedulingPolicy, SubmitRequest,
};
use elastic_serving::{run_workload_ingest, IngestConfig, IngestQueue, IngestStats, ShardRouter};
use hpc_metrics::{Clock, Duration, VirtualClock};
use hpc_workload::{poisson_workload, WorkloadSpec};
use kube_sim::{ControlPlane, KubeletConfig};

use super::{elastic, sample_policy, sample_run_metrics};
use crate::agg::Agg;
use crate::fingerprint;
use crate::policy::TimedPolicy;
use crate::runner::{Iteration, Probe, Workload};

/// Enough jobs that the replay's length barely depends on the seed's
/// class mix (±2 % across seeds).
const JOBS: usize = 240;
const MEAN_GAP_S: f64 = 20.0;
/// Drive-loop step, chosen so one replay (~2300 instants) lasts about
/// 0.4 s: the harness is a black box, so the whole replay is the one
/// segment that has to fit into a quiet window of the host. The
/// paper-sized jobs run for thousands of seconds; noticing a completion
/// up to a minute late costs a few points of utilization, and most
/// instants still find nothing to do.
const TICK_S: f64 = 60.0;
const MAX_TIME_S: f64 = 1e7;

const INGEST: IngestConfig = IngestConfig {
    shards: 4,
    shard_capacity: 4096,
    batch_size: 256,
    // Flush on every pump: the bit-identical replay setting.
    max_delay: Duration::ZERO,
    retry_after: Duration::ZERO,
    router: ShardRouter::RoundRobin,
};

pub struct OpIngestReplay {
    workload: WorkloadSpec,
    /// What the public harness produced, for the replica to match.
    harness: Option<RunMetrics>,
}

fn operator(policy: Box<dyn SchedulingPolicy>) -> (CharmOperator, VirtualClock) {
    let clock = VirtualClock::new();
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 16);
    let executor = ModelExecutor::ideal(plane.clock());
    (CharmOperator::new(plane, policy, Box::new(executor)), clock)
}

impl Workload for OpIngestReplay {
    const NAME: &'static str = "op-ingest-replay";

    fn generate(seed: u64, quick: bool) -> Self {
        let jobs = if quick { JOBS / 10 } else { JOBS };
        OpIngestReplay {
            workload: poisson_workload(seed, jobs, Duration::from_secs(MEAN_GAP_S)),
            harness: None,
        }
    }

    fn iterate(&mut self, probe: &mut Probe) -> Iteration {
        let started = Instant::now();
        let (metrics, stats) = if probe.on() {
            let metrics = self.replica(probe);
            assert_eq!(
                Some(&metrics.0),
                self.harness.as_ref(),
                "the traced replica of run_workload_ingest must reproduce its RunMetrics"
            );
            metrics
        } else {
            let (mut op, clock) = operator(elastic());
            let out = run_workload_ingest(
                &mut op,
                &clock,
                &self.workload,
                Duration::from_secs(TICK_S),
                Duration::from_secs(MAX_TIME_S),
                INGEST,
            );
            self.harness = Some(out.0.clone());
            out
        };
        let wall_s = started.elapsed().as_secs_f64();

        let jobs = self.workload.len() as u64;
        let lost = stats.shed + stats.rejected + (jobs - metrics.jobs.len() as u64);
        Iteration {
            segments_s: vec![wall_s],
            work: jobs as f64,
            request_p50_ms: None,
            attempted: 1,
            failed: u64::from(lost > 0),
            fingerprint: Some(fingerprint::of_run(
                &metrics,
                &[("batches", stats.batches), ("flushed", stats.flushed)],
            )),
        }
    }
}

impl OpIngestReplay {
    /// The benchmark's own copy of `run_workload_ingest`'s loop — the
    /// same public calls in the same order, each one timed.
    fn replica(&self, probe: &mut Probe) -> (RunMetrics, IngestStats) {
        let (policy, ledger) = TimedPolicy::wrap(elastic());
        let (mut op, clock) = operator(policy);
        let tick = Duration::from_secs(TICK_S);
        let schedule = Schedule::from_workload(&self.workload);
        assert!(
            schedule.cancellations.is_empty(),
            "generated jobs never cancel"
        );
        let client = op.client();
        let mut watch = client.watch_events();
        let queue = IngestQueue::new(client.clone(), INGEST);

        let mut submit = Agg::default();
        let mut pump = Agg::default();
        let mut idle_tick = Agg::default();
        let mut busy_tick = Agg::default();
        let mut all_complete = Agg::default();
        let mut watch_events = 0u64;
        let timed = |agg: &mut Agg, from: Instant| agg.record(from.elapsed().as_nanos() as u64);

        let iteration = probe.open_iteration();
        let replay = probe.open("operator.replay");
        let start = clock.now();
        let mut next = 0;
        let metrics = loop {
            let now = clock.now();
            let elapsed = now - start;
            let due_from = next;
            while next < schedule.jobs.len() && elapsed >= schedule.submit_at(next) {
                let req = SubmitRequest::v1(schedule.jobs[next].clone()).expect("valid spec");
                let t = Instant::now();
                let resp = queue.submit(req).expect("queue open");
                timed(&mut submit, t);
                assert!(!resp.is_shed(), "shard capacity covers every burst");
                next += 1;
            }
            let t = Instant::now();
            queue.pump(now);
            timed(&mut pump, t);
            // An instant is busy when something was due or the store
            // changed; everything else is the idle reconcile floor.
            let mut ticks = [Instant::now(); 4];
            for slot in &mut ticks[1..] {
                op.tick();
                *slot = Instant::now();
            }
            let seen = std::iter::from_fn(|| watch.try_next()).count() as u64;
            watch_events += seen;
            let agg = if next > due_from || seen > 0 {
                &mut busy_tick
            } else {
                &mut idle_tick
            };
            for pair in ticks.windows(2) {
                agg.record((pair[1] - pair[0]).as_nanos() as u64);
            }
            let t = Instant::now();
            let done = next >= schedule.jobs.len() && queue.depth() == 0 && op.all_complete();
            timed(&mut all_complete, t);
            if done {
                assert!(queue.take_errors().is_empty(), "no flush-time rejects");
                let span = probe.open("operator.metrics");
                let metrics = op.metrics();
                let metrics_s = probe.close(span);
                probe.sample("operator.metrics_s", metrics_s);
                break metrics;
            }
            assert!(elapsed.as_secs() <= MAX_TIME_S, "replay did not complete");
            clock.advance(tick);
        };
        let stats = queue.stats();
        let ledger = ledger.lock().expect("policy ledger poisoned").clone();

        let tracer = probe.tracer().expect("replica runs traced");
        let id = replay.expect("replica runs traced");
        for (name, agg) in [
            ("ingest.submit", &submit),
            ("ingest.pump", &pump),
            ("operator.tick.idle", &idle_tick),
            ("operator.tick.busy", &busy_tick),
            ("operator.all_complete", &all_complete),
        ] {
            tracer.attach(id, name, agg.clone());
        }
        probe.close(replay);
        probe.close(iteration);
        let tracer = probe.tracer().expect("replica runs traced");
        let self_s = tracer.self_ns(id) as f64 / 1e9;

        probe.sample("workload.jobs", schedule.jobs.len() as f64);
        probe.sample("operator.ticks", (idle_tick.count + busy_tick.count) as f64);
        probe.sample("operator.tick_s", idle_tick.total_s() + busy_tick.total_s());
        probe.sample("operator.idle_tick_us", idle_tick.mean_ns() / 1e3);
        probe.sample("operator.busy_tick_us", busy_tick.mean_ns() / 1e3);
        probe.sample("operator.self_s", self_s);
        probe.sample("operator.all_complete_s", all_complete.total_s());
        probe.sample("kube.watch_events", watch_events as f64);
        probe.sample("kube.jobs_stored", client.list_status().len() as f64);
        probe.sample("ingest.submit_s", submit.total_s());
        probe.sample("ingest.pump_s", pump.total_s());
        probe.sample("ingest.batches", stats.batches as f64);
        probe.sample("ingest.jobs_per_batch", stats.jobs_per_batch());
        probe.sample("ingest.shed", stats.shed as f64);
        probe.sample("ingest.rejected", stats.rejected as f64);
        sample_policy(probe, &ledger);
        sample_run_metrics(probe, &metrics);
        (metrics, stats)
    }
}
