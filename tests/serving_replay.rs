//! Determinism across the serving front-end: routing a trace through
//! the batched ingest queue must not change the schedule.
//!
//! The bundled SWF trace replays on the operator under FCFS backfill
//! twice: once through the direct per-submission client loop, once
//! through the batching ingest queue with `max_delay = 0`. The two
//! `RunMetrics` must be **identical**, not merely close. The zero
//! deadline flushes every shard at the enqueue instant, so each job's
//! `submitted_at` is bit-equal to the direct path's, and the operator
//! sorts same-instant admissions canonically by `(submitted_at, name)`,
//! which is why the equality must hold for *any* shard count and either
//! router, not just the trivially ordered single shard. This is the
//! serving layer's acceptance criterion: batching buys O(batches)
//! policy dispatches without costing one bit of replay determinism.
//!
//! The ingest replay runs the same drive loop as the direct one, so the
//! workload's faults go through it too: `fault_replay`'s reclamation
//! schedule and `resilience_replay`'s transient-fault storm, under
//! kill-and-requeue recovery, must come out of the ingest path, the
//! direct path and the DES as one `RunMetrics`, fault and flaky tallies
//! included.

mod common;

use common::{kill_requeue_fcfs, trace_reclamation, trace_storm};
use elastic_hpc::core::FcfsBackfill;
use elastic_hpc::metrics::Duration;
use elastic_hpc::scenario::{agreement, divergence, ingest, run, Engine::*, Scenario};
use elastic_hpc::serving::{IngestConfig, ShardRouter};

/// The deterministic-replay ingest setting: flush on every pump.
fn zero_delay(shards: usize, router: ShardRouter) -> IngestConfig {
    IngestConfig {
        shards,
        max_delay: Duration::ZERO,
        router,
        ..IngestConfig::default()
    }
}

#[test]
fn single_shard_ingest_replay_is_bit_identical_to_the_legacy_loop() {
    let scenario = Scenario::trace(FcfsBackfill::new);
    let (ingested, stats) = ingest(&scenario, zero_delay(1, ShardRouter::RoundRobin));
    let legacy = run(&scenario, Operator);
    assert_eq!(
        divergence(&legacy, &ingested),
        None,
        "batched ingest changed the schedule"
    );
    // The equality is not vacuous: the trace actually exercised the
    // batch path (same-instant arrival bursts coalesce into batches).
    let jobs = scenario.workload.len() as u64;
    assert_eq!(stats.accepted, jobs);
    assert_eq!(stats.flushed, jobs);
    assert!(
        stats.batches < stats.flushed,
        "trace must coalesce at least one multi-job batch \
         ({} batches for {} jobs)",
        stats.batches,
        stats.flushed
    );
}

#[test]
fn sharded_ingest_replay_is_bit_identical_for_any_router() {
    let scenario = Scenario::trace(FcfsBackfill::new);
    let legacy = run(&scenario, Operator);
    for (shards, router) in [
        (2, ShardRouter::RoundRobin),
        (4, ShardRouter::RoundRobin),
        (4, ShardRouter::HashByName),
    ] {
        let (ingested, stats) = ingest(&scenario, zero_delay(shards, router));
        assert_eq!(
            divergence(&legacy, &ingested),
            None,
            "schedule diverged at {shards} shards ({router:?})"
        );
        assert_eq!(stats.flushed, scenario.workload.len() as u64);
    }
}

/// Faults through the ingest path: the queue changes how submissions
/// reach the store, and nothing about when a fault is posted or what
/// the operator makes of it.
#[test]
fn fault_laden_ingest_replays_match_the_direct_replay_and_the_des() {
    for (label, faults) in [
        ("reclamation", trace_reclamation()),
        ("reclamation + storm", trace_storm(11)),
    ] {
        let scenario = Scenario::trace(kill_requeue_fcfs).with_faults(faults);
        let des = agreement(&scenario, &[Des, Operator])
            .unwrap_or_else(|found| panic!("{label}: direct operator replay vs DES: {found}"));
        for shards in [1, 4] {
            let (ingested, stats) = ingest(&scenario, zero_delay(shards, ShardRouter::RoundRobin));
            let found = divergence(&des, &ingested);
            assert_eq!(found, None, "{label}: ingest over {shards} shards");
            assert_eq!(stats.flushed, scenario.workload.len() as u64);
        }
        // Not vacuous: the schedule preempted someone, and the storm hit.
        assert!(des.faults.requeues > 0, "{label}: nobody was requeued");
        let storming = !scenario.workload.faults.flaky.events.is_empty();
        assert_eq!(des.faults.transient_faults > 0, storming, "{label}");
    }
}
