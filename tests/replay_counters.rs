//! The work a trace-scale replay does, held by count, not by clock.
//!
//! Every number here is exact and host-independent: events popped off
//! the DES queue, rescales applied, federation events per shard count,
//! ingest batches flushed and policy dispatches per submission storm,
//! reconcile rounds per settled instant. A change that makes a replay
//! do more (or different) work moves one of them on any host; how long
//! that work takes is the `benchmark/` package's question, not this
//! file's.
//!
//! The scenarios are the ones the retired wall-clock smokes ran: the
//! heavy-traffic scale cluster under the elastic policy and FCFS, the
//! same trace federated over 1/2/4/8 shards, the bundled SWF trace
//! through the fault-recovery wrapper with nothing to recover from, a
//! 20 000-request storm through the batched ingest queue, and the
//! operator replays of the bundled trace and of `benchmark/`'s
//! `op-ingest-replay` Poisson storm, settled instant by instant.

use std::collections::BTreeMap;

mod common;

use elastic_hpc::core::{
    ArrivalSink, CharmOperator, FaultStats, FcfsBackfill, Policy, PolicyConfig, RunMetrics,
    Schedule, SchedulingPolicy, SubmitRequest,
};
use elastic_hpc::metrics::{Clock, Counter, Duration, SimTime, VirtualClock};
use elastic_hpc::scenario::{federate, operator, run, sim_config, Engine, Scenario};
use elastic_hpc::serving::{IngestConfig, IngestQueue, ShardRouter};
use elastic_hpc::sim::experiments::{
    heavy_traffic_workload, SCALE_CAPACITY, SCALE_SUBMISSION_GAP_S,
};
use elastic_hpc::sim::{OverheadModel, SimOutcome, SimState};
use elastic_hpc::workload::{poisson_workload, WorkloadSpec};

fn elastic() -> Policy {
    Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(180.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    })
}

/// `workload` on `capacity` slots under the simulator's default models.
fn calibrated<P: SchedulingPolicy + 'static>(
    workload: WorkloadSpec,
    capacity: u32,
    policy: impl Fn() -> P + 'static,
) -> Scenario {
    Scenario::new(workload, capacity, policy).with_overhead(OverheadModel::default())
}

/// Replays `scenario` through the DES to the end; returns the events
/// popped with the outcome.
fn replay(scenario: &Scenario) -> (u64, SimOutcome) {
    let (cfg, workload) = (sim_config(scenario), &scenario.workload);
    let mut state = SimState::new(&cfg, workload);
    while state.step(&cfg, workload, 4096) {}
    let events = state.events_processed();
    (events, state.finish(&cfg, workload))
}

/// One heavy-traffic scale replay as `(events popped, rescales, jobs
/// completed, utilization rounded to four decimals x 10^4)`.
fn scale_replay<P: SchedulingPolicy + 'static>(
    policy: impl Fn() -> P + 'static,
    workload: &WorkloadSpec,
) -> (u64, u32, usize, u64) {
    let (events, out) = replay(&calibrated(workload.clone(), SCALE_CAPACITY, policy));
    let utilization_e4 = (out.metrics.utilization * 1e4).round() as u64;
    (events, out.rescales, out.metrics.jobs.len(), utilization_e4)
}

#[test]
fn a_heavy_traffic_replay_pops_exactly_these_events() {
    let small = heavy_traffic_workload(0, 1_000);
    let large = heavy_traffic_workload(0, 10_000);
    // Trace-shaped (bursty) arrivals at the same mean rate.
    let poisson = poisson_workload(0, 10_000, Duration::from_secs(SCALE_SUBMISSION_GAP_S));
    assert_eq!(scale_replay(elastic, &small), (2_663, 810, 1_000, 8_148));
    assert_eq!(
        scale_replay(FcfsBackfill::new, &small),
        (2_000, 0, 1_000, 6_770)
    );
    assert_eq!(
        scale_replay(elastic, &large),
        (31_161, 11_334, 10_000, 9_354)
    );
    assert_eq!(
        scale_replay(FcfsBackfill::new, &large),
        (20_000, 0, 10_000, 8_983)
    );
    assert_eq!(
        scale_replay(elastic, &poisson),
        (30_453, 10_566, 10_000, 9_373)
    );
}

/// The scale trace split round-robin over equal shards: the events the
/// whole federation processes are a function of the shard count alone —
/// worker threads only change who drains them. So are the turns: a
/// worker drains a claimed shard to its end in one turn, so every
/// shard the round-robin deal seeds costs exactly one.
#[test]
fn federated_replay_events_depend_on_shards_not_workers() {
    let n = 20_000;
    let workload = heavy_traffic_workload(0, n);
    for (shards, events, turns) in [
        (1, 63_164, 1),
        // 62 283 events until same-instant completions applied in
        // `JobId` order (the operator's) instead of queue-push order.
        (2, 62_230, 2),
        (4, 60_923, 4),
        (8, 59_171, 8),
    ] {
        let shard = calibrated(workload.clone(), SCALE_CAPACITY / shards as u32, elastic);
        for workers in [1, 2] {
            let out = federate(&shard, shards, workers);
            assert_eq!(
                out.merged.jobs.len(),
                n,
                "every job completes ({shards} shards, {workers} workers)"
            );
            assert_eq!(
                out.total_events(),
                events,
                "{shards} shards, {workers} workers"
            );
            assert_eq!(
                out.turns.iter().sum::<u64>(),
                turns,
                "{shards} shards, {workers} workers"
            );
        }
    }
}

/// Unused means free: with no fault on the schedule, the recovery
/// wrapper pops exactly the events the bare policy pops, tallies
/// nothing, and reports the same run.
#[test]
fn an_idle_fault_layer_adds_no_event() {
    let bare = Scenario::trace(FcfsBackfill::new).with_overhead(OverheadModel::default());
    let faults = &bare.workload.faults;
    assert!(faults.events.is_empty() && faults.flaky.is_empty());
    let wrapped = calibrated(
        bare.workload.clone(),
        bare.capacity,
        common::kill_requeue_fcfs,
    );
    let ((bare_events, bare), (events, wrapped)) = (replay(&bare), replay(&wrapped));
    // 24 jobs, two of them arriving in one coalesced `Submit`.
    assert_eq!((events, bare_events), (47, 47));
    assert_eq!(wrapped.metrics.faults, FaultStats::default());
    // Only the name tells the two runs apart.
    assert_eq!(
        RunMetrics {
            policy: bare.metrics.policy.clone(),
            ..wrapped.metrics
        },
        bare.metrics
    );
}

/// A storm of `n` submissions through the batched ingest queue costs
/// O(batches) store flushes and O(reconciles) policy dispatches, not
/// O(jobs): size-512 inline flushes, a deadline pump plus one operator
/// reconcile every 4 096 submissions, on a clock that never moves.
#[test]
fn a_submission_storm_costs_batches_not_jobs() {
    const BATCH_SIZE: usize = 512;
    const PUMP_EVERY: usize = 4096;
    let n = 20_000;
    let workload = poisson_workload(0, n, Duration::from_millis(1.0));
    let requests: Vec<SubmitRequest> = Schedule::from_workload(&workload)
        .jobs
        .into_iter()
        .map(|spec| SubmitRequest::v1(spec).expect("generated specs are valid"))
        .collect();
    let cluster = Scenario::new(workload, 64, elastic).linear();
    for shards in [1, 4] {
        let (mut op, clock) = operator(&cluster);
        let queue = IngestQueue::new(
            op.client(),
            IngestConfig {
                shards,
                shard_capacity: 4 * BATCH_SIZE,
                batch_size: BATCH_SIZE,
                max_delay: Duration::from_millis(1.0),
                retry_after: Duration::from_millis(10.0),
                router: ShardRouter::RoundRobin,
            },
        );
        for (i, req) in requests.iter().enumerate() {
            queue.submit(req.clone()).expect("queue open");
            if (i + 1) % PUMP_EVERY == 0 {
                queue.pump(clock.now());
                op.tick();
            }
        }
        queue.flush_all();
        op.tick();
        op.tick();

        let (stats, counters) = (queue.stats(), op.counters());
        let n = n as u64;
        assert_eq!(
            (
                stats.accepted,
                stats.flushed,
                counters[Counter::Submissions]
            ),
            (n, n, n),
            "every submission reaches the store and the policy once ({shards} shards)"
        );
        assert_eq!((stats.shed, stats.rejected), (0, 0), "{shards} shards");
        assert_eq!(stats.batches, 40, "{shards} shards");
        assert_eq!(counters[Counter::SubmitBursts], 5, "{shards} shards");
    }
}

/// Replays a fault- and cancellation-free scenario the way the
/// harness's drive loop does — submit what fell due, flush, settle,
/// advance by the scenario's tick — and returns how many instants
/// settled in 1, 2, … reconcile rounds, with the run's metrics.
fn settle_histogram(
    op: &mut CharmOperator,
    clock: &VirtualClock,
    sink: &impl ArrivalSink,
    scenario: &Scenario,
) -> (BTreeMap<u64, u32>, RunMetrics) {
    let workload = &scenario.workload;
    let schedule = Schedule::from_workload(workload);
    assert!(schedule.cancellations.is_empty() && workload.faults.events.is_empty());
    let mut histogram = BTreeMap::new();
    let mut next = 0;
    loop {
        let now = clock.now();
        while next < schedule.jobs.len() && now - SimTime::ZERO >= schedule.submit_at(next) {
            let req = SubmitRequest::v1(schedule.jobs[next].clone()).expect("valid spec");
            sink.submit(req, now);
            next += 1;
        }
        sink.flush(now);
        let settled = op.counters()[Counter::SettleRounds];
        op.settle();
        let rounds = op.counters()[Counter::SettleRounds] - settled;
        *histogram.entry(rounds).or_insert(0) += 1;
        if next == schedule.jobs.len() && sink.pending() == 0 && op.all_complete() {
            return (histogram, op.metrics());
        }
        clock.advance(scenario.tick);
    }
}

/// How many reconcile rounds an instant takes to settle — a histogram,
/// not the old harness's constant three. Most instants are idle and
/// settle in the one round that finds nothing; an instant with a
/// completion → admit → launch chain takes the rounds that chain needs
/// and no more: the operator's watches carry only what it acts on, not
/// its own status writes. The hand loop is held to the product loop by
/// the metrics it must reproduce.
#[test]
fn an_instant_settles_in_these_many_rounds() {
    // The bundled trace, FCFS, 1 s ticks, direct submissions.
    let trace = Scenario::trace(FcfsBackfill::new);
    let (mut op, clock) = operator(&trace);
    let client = op.client();
    let (histogram, metrics) = settle_histogram(&mut op, &clock, &client, &trace);
    assert_eq!(metrics, run(&trace, Engine::Operator), "bundled trace");
    let pinned = BTreeMap::from([(1, 2081), (2, 20), (3, 11), (4, 9)]);
    assert_eq!(histogram, pinned, "bundled trace");

    // `benchmark/`'s op-ingest-replay at seed 0: 240 Poisson arrivals,
    // elastic policy, 60 s ticks, zero-delay ingest over 4 shards.
    let storm = poisson_workload(0, 240, Duration::from_secs(20.0));
    let storm = Scenario::new(storm, 64, elastic)
        .linear()
        .with_tick(Duration::from_secs(60.0))
        .with_horizon(Duration::from_secs(1e7));
    let ingest = IngestConfig {
        shards: 4,
        shard_capacity: 4096,
        batch_size: 256,
        max_delay: Duration::ZERO,
        retry_after: Duration::ZERO,
        router: ShardRouter::RoundRobin,
    };
    let (mut op, clock) = operator(&storm);
    let queue = IngestQueue::new(op.client(), ingest);
    let (histogram, metrics) = settle_histogram(&mut op, &clock, &queue, &storm);
    let harness = run(&storm, Engine::Ingest(ingest));
    assert_eq!(metrics, harness, "op-ingest-replay storm");
    let pinned = BTreeMap::from([(1, 1974), (2, 64), (3, 4), (4, 114), (5, 116)]);
    assert_eq!(histogram, pinned, "op-ingest-replay storm");
    // 2 272 instants, 3 150 rounds; three rounds an instant were 6 816.
    assert_eq!(
        (
            histogram.values().sum::<u32>(),
            op.counters()[Counter::SettleRounds]
        ),
        (2_272, 3_150)
    );
}
