//! `serving-paced`: an open loop on the wall clock. One generator
//! thread submits at a fixed rate whatever the system does; one server
//! thread pumps the ingest queue, reconciles, and fans watch events out
//! over the bus, where a subscriber sees each job's `Submitted` event.
//! A request is timed from the instant it was *due* to that sighting,
//! so a stall is charged to every request it delays.
//!
//! Each iteration first preloads the store (fast, untimed) and then
//! measures one second of paced load: reconcile cost grows with the
//! store, and a scheduler that has been up for a while is the regime
//! whose latency a user sees.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration as StdDuration, Instant};

use elastic_core::{CharmOperator, JobEventKind, ModelExecutor, Schedule, SubmitRequest};
use elastic_serving::{BusPoll, EventBus, IngestConfig, IngestQueue, ShardRouter};
use hpc_metrics::{Clock, Duration, RealClock};
use hpc_workload::poisson_workload;
use kube_sim::{ControlPlane, KubeletConfig};

use super::{elastic, sample_policy};
use crate::agg::{highest_percentile, median, percentile, Agg};
use crate::policy::{PolicyLedger, TimedPolicy};
use crate::runner::{Iteration, Probe, Workload};

/// Measured submissions per second, fixed: the load does not back off.
const RATE: u64 = 10_000;
/// Measured submissions per iteration: one second of load, short
/// enough to fit into a quiet window of the host.
const REQUESTS: usize = 10_000;
/// Jobs already in the store when the measured second starts, loaded at
/// [`PRELOAD_RATE`] through the same queue.
const PRELOAD: usize = 50_000;
const PRELOAD_RATE: u64 = 100_000;
/// Time buckets of the measured second: a request's latency depends on
/// how far the store has grown, so requests are compared with those
/// due at the same point of other iterations.
const BUCKETS: usize = 10;
/// How long the server waits for stragglers once the generator is
/// done; a submission still unseen then is a failed op.
const DRAIN_TIMEOUT: StdDuration = StdDuration::from_secs(5);
/// Ring size: the subscriber is polled every server turn, so lagging
/// means one turn swallowed more than this many events.
const BUS_CAPACITY: usize = 65_536;

fn ingest_config() -> IngestConfig {
    IngestConfig {
        shards: 4,
        shard_capacity: 4096,
        batch_size: 256,
        max_delay: Duration::from_millis(1.0),
        retry_after: Duration::from_millis(10.0),
        router: ShardRouter::RoundRobin,
    }
}

pub struct ServingPaced {
    /// The preload jobs, then the measured ones.
    requests: Vec<SubmitRequest>,
    preload: usize,
}

/// What the generator thread saw while pacing one batch of requests.
#[derive(Default)]
struct Paced {
    /// Send time minus due time per submission, ns.
    late_ns: Vec<u64>,
    shed: u64,
    submit: Agg,
    submit_ns: Vec<u64>,
}

fn due(start: Instant, rate: u64, i: usize) -> Instant {
    start + StdDuration::from_nanos(i as u64 * 1_000_000_000 / rate)
}

/// Submits `requests` at `rate` from `start` on, never waiting for the
/// system.
fn pace(
    queue: &IngestQueue,
    requests: &[SubmitRequest],
    rate: u64,
    start: Instant,
    timed: bool,
) -> Paced {
    let mut out = Paced::default();
    for (i, req) in requests.iter().enumerate() {
        let req = req.clone();
        let due = due(start, rate, i);
        let mut now = Instant::now();
        while now < due {
            // Gaps are 100 µs or less: too short to sleep through.
            std::hint::spin_loop();
            now = Instant::now();
        }
        out.late_ns.push((now - due).as_nanos() as u64);
        let resp = queue.submit(req).expect("queue open");
        if timed {
            let ns = now.elapsed().as_nanos() as u64;
            out.submit.record(ns);
            out.submit_ns.push(ns);
        }
        out.shed += u64::from(resp.is_shed());
    }
    out
}

/// The server thread's ledger over the measured second.
#[derive(Default)]
struct Served {
    turn_ns: Vec<u64>,
    pump: Agg,
    tick: Agg,
    bus_pump: Agg,
    watch_events: u64,
    lagged: u64,
}

fn ns_to(unit_per_s: f64, ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 * unit_per_s / 1e9).collect()
}

impl Workload for ServingPaced {
    const NAME: &'static str = "serving-paced";

    fn generate(seed: u64, quick: bool) -> Self {
        let shrink = if quick { 10 } else { 1 };
        let (preload, measured) = (PRELOAD / shrink, REQUESTS / shrink);
        // The generator's job mix; its arrival times are replaced by
        // the fixed rates.
        let workload = poisson_workload(seed, preload + measured, Duration::from_millis(1.0));
        let requests = Schedule::from_workload(&workload)
            .jobs
            .into_iter()
            .map(|spec| SubmitRequest::v1(spec).expect("generated specs are valid"))
            .collect();
        ServingPaced { requests, preload }
    }

    fn iterate(&mut self, probe: &mut Probe) -> Iteration {
        let traced = probe.on();
        let (preload, measured) = self.requests.split_at(self.preload);
        let n = measured.len();
        let clock = Arc::new(RealClock::new());
        let plane = ControlPlane::with_nodes(clock.clone(), KubeletConfig::instant(), 4, 16);
        let executor = ModelExecutor::ideal(plane.clock());
        let (policy, ledger) = TimedPolicy::wrap_if(traced, elastic());
        let mut op = CharmOperator::new(plane, policy, Box::new(executor));
        let client = op.client();
        let queue = IngestQueue::new(client.clone(), ingest_config());
        let bus = EventBus::new(BUS_CAPACITY);
        let mut stream = client.watch_events();
        let mut counted = traced.then(|| client.watch_events());
        let mut subscriber = bus.subscribe();

        // Sightings by position in `requests`; the measured second
        // starts once the server has seen the whole preload.
        let mut seen_at: Vec<Option<Instant>> = vec![None; self.requests.len()];
        let mut observed = 0usize;
        let mut served = Served::default();
        let go: OnceLock<Instant> = OnceLock::new();
        let generator_done = AtomicBool::new(false);

        let iteration = probe.open_iteration();
        let serve = probe.open("serving.serve");
        let (paced, finished) = std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                pace(&queue, preload, PRELOAD_RATE, Instant::now(), false);
                let start = loop {
                    match go.get() {
                        Some(&start) => break start,
                        None => std::hint::spin_loop(),
                    }
                };
                let paced = pace(&queue, measured, RATE, start, traced);
                generator_done.store(true, Ordering::Release);
                paced
            });
            let began = Instant::now();
            let mut done_at: Option<Instant> = None;
            let finished = loop {
                let turn = Instant::now();
                queue.pump(clock.now());
                let pumped = Instant::now();
                op.tick();
                let ticked = Instant::now();
                bus.pump_from(&mut stream);
                let fanned = Instant::now();
                loop {
                    match subscriber.poll() {
                        BusPoll::Event(ev) => {
                            if ev.kind == JobEventKind::Submitted {
                                let i: usize = ev.job[3..].parse().expect("generated job name");
                                seen_at[i] = Some(Instant::now());
                                observed += 1;
                            }
                        }
                        BusPoll::Lagged { missed } => served.lagged += missed,
                        BusPoll::Empty => break,
                    }
                }
                if let Some(s) = counted.as_mut() {
                    served.watch_events += std::iter::from_fn(|| s.try_next()).count() as u64;
                }
                if go.get().is_none() {
                    // A preload that never lands in full must not hang
                    // the run: its stragglers only stay unseen.
                    if observed >= preload.len() || turn - began > DRAIN_TIMEOUT {
                        // A short lead so request 0 is not already late.
                        let lead = StdDuration::from_millis(2);
                        go.set(Instant::now() + lead).expect("set once");
                        // The ledgers cover the measured second only;
                        // the policy runs on this thread, so nothing
                        // records while they are reset.
                        served = Served::default();
                        if let Some(l) = &ledger {
                            *l.lock().expect("ledger poisoned") = PolicyLedger::default();
                        }
                    }
                } else if traced {
                    served.pump.record((pumped - turn).as_nanos() as u64);
                    served.tick.record((ticked - pumped).as_nanos() as u64);
                    served.bus_pump.record((fanned - ticked).as_nanos() as u64);
                    served.turn_ns.push(turn.elapsed().as_nanos() as u64);
                }
                if observed == self.requests.len() {
                    break Instant::now();
                }
                if generator_done.load(Ordering::Acquire) {
                    let since = *done_at.get_or_insert_with(Instant::now);
                    if since.elapsed() > DRAIN_TIMEOUT {
                        break Instant::now();
                    }
                }
            };
            (generator.join().expect("generator thread"), finished)
        });
        let start = *go.get().expect("the measured second started");
        let wall_s = (finished - start).as_secs_f64();
        if let (Some(t), Some(id)) = (probe.tracer(), serve) {
            for (name, agg) in [
                ("ingest.submit", &paced.submit),
                ("ingest.pump", &served.pump),
                ("operator.tick", &served.tick),
                ("bus.pump_from", &served.bus_pump),
            ] {
                t.attach(id, name, agg.clone());
            }
        }
        probe.close(serve);
        probe.close(iteration);

        let measured_seen = &seen_at[preload.len()..];
        let latency_of = |(i, seen): (usize, &Option<Instant>)| {
            seen.map(|t| (t - due(start, RATE, i)).as_secs_f64() * 1e3)
        };
        let latency_ms: Vec<f64> = measured_seen
            .iter()
            .enumerate()
            .filter_map(latency_of)
            .collect();
        let per_bucket = n.div_ceil(BUCKETS);
        let request_p50_ms = measured_seen
            .chunks(per_bucket)
            .enumerate()
            .map(|(b, chunk)| {
                let seen = chunk
                    .iter()
                    .enumerate()
                    .map(|(k, s)| (b * per_bucket + k, s));
                let bucket: Vec<f64> = seen.filter_map(latency_of).collect();
                median(&bucket).unwrap_or(f64::INFINITY)
            })
            .collect();
        let stats = queue.stats();
        let unseen = (n - latency_ms.len()) as u64;
        // Shed and rejected submissions are among the unseen ones;
        // lagged events may hide sightings of admitted ones.
        let failed = unseen
            .max(paced.shed + stats.rejected)
            .max(served.lagged.min(n as u64));

        if let Some(ledger) = ledger {
            sample_policy(probe, &ledger.lock().expect("ledger poisoned"));
            let late_ms = ns_to(1e3, &paced.late_ns);
            let submit_us = ns_to(1e6, &paced.submit_ns);
            let turn_us = ns_to(1e6, &served.turn_ns);
            let quantile = |q| queue.latency_quantile(q).map_or(0.0, Duration::as_millis);
            probe.sample("workload.jobs", self.requests.len() as f64);
            probe.sample("operator.ticks", served.tick.count as f64);
            probe.sample("operator.tick_s", served.tick.total_s());
            probe.sample("operator.busy_tick_us", served.tick.mean_ns() / 1e3);
            probe.sample("kube.watch_events", served.watch_events as f64);
            probe.sample("kube.jobs_stored", client.list_status().len() as f64);
            probe.sample("ingest.submit_s", paced.submit.total_s());
            probe.sample("ingest.pump_s", served.pump.total_s());
            probe.sample("ingest.batches", stats.batches as f64);
            probe.sample("ingest.jobs_per_batch", stats.jobs_per_batch());
            probe.sample("ingest.shed", stats.shed as f64);
            probe.sample("ingest.rejected", stats.rejected as f64);
            probe.sample("ingest.admit_p50_ms", quantile(0.5));
            probe.sample("ingest.admit_p99_ms", quantile(0.99));
            probe.sample("bus.pump_s", served.bus_pump.total_s());
            probe.sample("bus.published", bus.published() as f64);
            probe.sample("bus.lagged", served.lagged as f64);
            for (name, values, p) in [
                ("ingest.submit_p50_us", &submit_us, 50.0),
                ("ingest.submit_p99_us", &submit_us, 99.0),
                ("serving.loop_p50_us", &turn_us, 50.0),
                ("serving.loop_p99_us", &turn_us, 99.0),
                ("serving.event_p90_ms", &latency_ms, 90.0),
                ("serving.event_p99_ms", &latency_ms, 99.0),
                ("serving.gen_late_p99_ms", &late_ms, 99.0),
            ] {
                if let Some(v) = percentile(values, p) {
                    probe.sample(name, v);
                }
            }
            // The tail as far as this many samples carry it.
            if let Some(p) = highest_percentile(latency_ms.len()) {
                let tail = percentile(&latency_ms, p).expect("supported percentile");
                probe.sample("serving.event_tail_pct", p);
                probe.sample("serving.event_tail_ms", tail);
            }
        }

        Iteration {
            segments_s: vec![wall_s],
            work: latency_ms.len() as f64,
            request_p50_ms: Some(request_p50_ms),
            attempted: n as u64,
            failed,
            fingerprint: None,
        }
    }
}
