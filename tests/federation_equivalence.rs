//! Federation equivalence and conservation properties.
//!
//! * A 1-shard federation is **bit-identical** to the single-cluster
//!   DES: same trace, same policy instance type, `RunMetrics ==` —
//!   the runtime's threads must not perturb a single bit.
//! * Worker count is invisible: the same workload sharded the same way
//!   yields identical per-shard and merged metrics whether one worker
//!   or as many as there are shards claim the shards.
//! * Both hold for EASY with evictions: checkpoint-restart recovery
//!   under spot reclamations and a transient-fault storm.
//! * `RunMetrics::merge` conserves the physical quantities — job
//!   counts, busy core-seconds, rescales and fault tallies — over any
//!   randomly generated shard partition (proptest).

mod common;

use common::assert_agree;
use elastic_hpc::core::{
    EasyBackfill, FaultStats, FcfsBackfill, JobOutcome, Policy, PolicyConfig, RecoveryPolicy,
    RecoveryStrategy, RunMetrics, SchedulingPolicy,
};
use elastic_hpc::metrics::{Duration, SimTime};
use elastic_hpc::scenario::{bundled_trace, des, federate, Engine::*, Scenario, TRACE_CAPACITY};
use elastic_hpc::sim::OverheadModel;
use elastic_hpc::workload::{FaultSpec, FlakySpec, SwfLoadConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The bundled trace under `cfg`'s annotation and `policy`, every shard
/// its 32-slot machine under the simulator's default models.
fn trace<P: SchedulingPolicy + 'static>(
    cfg: &SwfLoadConfig,
    policy: impl Fn() -> P + 'static,
) -> Scenario {
    Scenario::new(bundled_trace(cfg), TRACE_CAPACITY, policy)
        .with_overhead(OverheadModel::default())
}

fn elastic() -> Policy {
    Policy::elastic(PolicyConfig::default())
}

/// The tentpole acceptance criterion: a 1-shard, 1-worker federation
/// replaying the bundled trace produces the *exact* `RunMetrics` the
/// single-cluster DES produces — for the rigid FCFS baseline and for
/// EASY backfilling.
#[test]
fn single_shard_federation_is_bit_identical_to_the_des() {
    let rigid = SwfLoadConfig::rigid(TRACE_CAPACITY);
    for (label, scenario) in [
        ("fcfs", trace(&rigid, FcfsBackfill::new)),
        ("easy", trace(&rigid, EasyBackfill::new)),
    ] {
        let des = des(&scenario);
        let fed = federate(&scenario, 1, 1);
        assert_eq!(
            fed.merged, des.metrics,
            "{label}: merged metrics must be bit-identical to the DES"
        );
        assert_eq!(fed.shards[0].metrics, des.metrics, "{label}: shard metrics");
        assert_eq!(fed.shards[0].rescales, des.rescales, "{label}: rescales");
        assert_eq!(fed.shards[0].cancelled, des.cancelled, "{label}: cancelled");
    }

    // The elastic annotation exercises rescale events through the same
    // path.
    let open = trace(&SwfLoadConfig::elastic(TRACE_CAPACITY), elastic);
    let one = Federation {
        shards: 1,
        workers: 1,
    };
    assert_agree(&open, &[Des, one]);
}

/// Determinism regression: the same workload and shard count replayed
/// with 1 worker and with one worker per shard yields identical
/// per-shard and merged metrics — thread interleaving is invisible.
#[test]
fn worker_count_is_invisible_in_federation_results() {
    let open = trace(&SwfLoadConfig::elastic(TRACE_CAPACITY), elastic);
    let serial = federate(&open, 4, 1);
    let parallel = federate(&open, 4, 4);
    assert_eq!(serial.merged, parallel.merged, "merged metrics");
    assert_eq!(serial.events, parallel.events, "per-shard event counts");
    for (shard, (a, b)) in serial.shards.iter().zip(&parallel.shards).enumerate() {
        assert_eq!(a.metrics, b.metrics, "shard {shard} metrics");
        assert_eq!(a.peak_queue_len, b.peak_queue_len, "shard {shard} queue");
    }
}

/// The benchmark's `fed-easy-faults` shape at test scale: EASY with
/// checkpoint-restart recovery replays the bundled trace under spot
/// reclamations and a transient-fault storm, so evicted jobs re-enter
/// the queue and the victims of every fault are ranked. A 1-shard
/// federation is bit-identical to the DES, and 4 shards give the same
/// merged metrics at 1 and 2 workers.
#[test]
fn easy_with_evictions_federates_exactly() {
    let easy = || {
        RecoveryPolicy::new(
            Box::new(EasyBackfill::new()),
            RecoveryStrategy::CheckpointRestart,
        )
    };
    let plain = trace(&SwfLoadConfig::rigid(TRACE_CAPACITY), easy);
    // Quarter-capacity outages spread over the fault-free makespan,
    // each a third of their spacing long, so no two overlap.
    let makespan = des(&plain).metrics.total_time;
    const PAIRS: u32 = 6;
    let outage = makespan / f64::from(3 * (PAIRS + 1));
    let horizon = Duration::from_secs(makespan);
    let faults = FaultSpec::reclamation(
        3,
        PAIRS,
        TRACE_CAPACITY / 4,
        horizon,
        Duration::from_secs(outage),
    )
    .with_flaky(FlakySpec::storm(4, 30, horizon));
    let faulted = plain.with_faults(faults);

    let des = des(&faulted);
    assert!(
        des.metrics.faults.evictions > 0 && des.metrics.faults.transient_faults > 0,
        "the faults must reach running work: {:?}",
        des.metrics.faults
    );
    let fed = federate(&faulted, 1, 1);
    assert_eq!(fed.merged, des.metrics, "merged metrics");
    assert_eq!(fed.shards[0].metrics, des.metrics, "shard metrics");
    assert_eq!(fed.shards[0].rescales, des.rescales, "rescales");
    assert_eq!(fed.shards[0].cancelled, des.cancelled, "cancelled");

    let serial = federate(&faulted, 4, 1);
    let parallel = federate(&faulted, 4, 2);
    assert_eq!(serial.merged, parallel.merged, "merged metrics");
    assert_eq!(serial.events, parallel.events, "per-shard event counts");
}

/// A randomly generated shard's metrics: either a completed-jobs run
/// built through `from_outcomes` or (sometimes) an all-cancelled empty
/// run, each with random fault tallies.
fn random_shard(rng: &mut ChaCha8Rng, shard: usize) -> (u32, RunMetrics) {
    let capacity = rng.gen_range(8u32..=64);
    let rescales = rng.gen_range(0u32..10);
    let faults = FaultStats {
        wasted_core_seconds: rng.gen_range(0.0..500.0),
        evictions: rng.gen_range(0u32..5),
        requeues: rng.gen_range(0u32..5),
        permanent_failures: rng.gen_range(0u32..3),
        transient_faults: rng.gen_range(0u32..8),
        retries: rng.gen_range(0u32..6),
        breaker_trips: rng.gen_range(0u32..3),
    };
    let n_jobs = rng.gen_range(0usize..6);
    let metrics = if n_jobs == 0 {
        RunMetrics::empty("p", rescales).with_fault_stats(faults)
    } else {
        let jobs: Vec<JobOutcome> = (0..n_jobs)
            .map(|j| {
                let submitted = rng.gen_range(0.0..1000.0);
                let started = submitted + rng.gen_range(0.0..500.0);
                let completed = started + rng.gen_range(1.0..2000.0);
                JobOutcome {
                    name: format!("s{shard}-j{j}").into(),
                    priority: rng.gen_range(1u32..=5),
                    submitted_at: SimTime::from_secs(submitted),
                    started_at: SimTime::from_secs(started),
                    completed_at: SimTime::from_secs(completed),
                }
            })
            .collect();
        RunMetrics::from_outcomes("p", jobs, rng.gen_range(0.0..=1.0), rescales)
            .with_fault_stats(faults)
    };
    (capacity, metrics)
}

proptest! {
    /// Over any shard partition, `RunMetrics::merge` conserves job
    /// counts, busy core-seconds, rescale counts and fault tallies.
    #[test]
    fn merge_conserves_jobs_core_seconds_and_fault_tallies(seed in 0u64..512) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n_shards = rng.gen_range(1usize..6);
        let shards: Vec<(u32, RunMetrics)> =
            (0..n_shards).map(|s| random_shard(&mut rng, s)).collect();
        let by_ref: Vec<(u32, &RunMetrics)> =
            shards.iter().map(|(cap, m)| (*cap, m)).collect();
        let merged = RunMetrics::merge(&by_ref);

        // Job count conservation.
        let total_jobs: usize = shards.iter().map(|(_, m)| m.jobs.len()).sum();
        prop_assert_eq!(merged.jobs.len(), total_jobs);

        // Rescale and fault-tally conservation (exact: u32 sums).
        prop_assert_eq!(merged.rescales, shards.iter().map(|(_, m)| m.rescales).sum::<u32>());
        prop_assert_eq!(
            merged.faults.evictions,
            shards.iter().map(|(_, m)| m.faults.evictions).sum::<u32>()
        );
        prop_assert_eq!(
            merged.faults.requeues,
            shards.iter().map(|(_, m)| m.faults.requeues).sum::<u32>()
        );
        prop_assert_eq!(
            merged.faults.permanent_failures,
            shards.iter().map(|(_, m)| m.faults.permanent_failures).sum::<u32>()
        );
        prop_assert_eq!(
            merged.faults.transient_faults,
            shards.iter().map(|(_, m)| m.faults.transient_faults).sum::<u32>()
        );
        prop_assert_eq!(
            merged.faults.retries,
            shards.iter().map(|(_, m)| m.faults.retries).sum::<u32>()
        );
        prop_assert_eq!(
            merged.faults.breaker_trips,
            shards.iter().map(|(_, m)| m.faults.breaker_trips).sum::<u32>()
        );
        let wasted: f64 = shards.iter().map(|(_, m)| m.faults.wasted_core_seconds).sum();
        prop_assert!((merged.faults.wasted_core_seconds - wasted).abs() < 1e-9);

        // Busy-core-second conservation: the merged utilization over the
        // summed per-shard availability reproduces the summed per-shard
        // busy core-seconds, whatever the partition.
        let busy: f64 = shards.iter().map(|(cap, m)| m.busy_core_seconds(*cap)).sum();
        let available: f64 = shards
            .iter()
            .map(|(cap, m)| f64::from(*cap) * m.total_time)
            .sum();
        if total_jobs > 0 && available > 0.0 {
            prop_assert!(
                (merged.utilization * available - busy).abs() <= 1e-9 * busy.max(1.0),
                "merged util {} over {available} core-s must bank {busy} busy core-s",
                merged.utilization
            );
        } else {
            prop_assert_eq!(merged.utilization, 0.0);
        }
    }
}
