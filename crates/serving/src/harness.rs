//! Workload replay through the batched ingest front-end.
//!
//! [`run_workload_ingest`] is `elastic_core::run_workload_virtual` with
//! a different [`ArrivalSink`]: the same drive loop
//! (`elastic_core::harness`), except every submission enters through an
//! [`IngestQueue`] (buffer → batch → flush) instead of a direct client
//! call — fault events, transient faults and cancellations included,
//! since the loop is the same one. With `max_delay = 0` the queue flushes at the
//! enqueue instant, every batch lands with the timestamps the direct
//! path would have produced, and the operator's admission pass sorts
//! same-instant arrivals identically — so the replay is
//! **bit-identical** to the direct one, for any shard count. The
//! workspace `serving_replay` test pins that equivalence.

use elastic_core::harness::ArrivalSink;
use elastic_core::{CharmOperator, RunMetrics, SubmitRequest};
use hpc_metrics::{Duration, SimTime, VirtualClock};
use hpc_workload::WorkloadSpec;

use crate::ingest::{IngestConfig, IngestQueue, IngestStats};

/// A shed submission is retried once after pumping the queue at the
/// same instant; a second shed panics — deterministic replay requires
/// capacity for every arrival, so size `shard_capacity` to the trace's
/// largest same-instant burst.
impl ArrivalSink for IngestQueue {
    fn submit(&self, req: SubmitRequest, now: SimTime) {
        // (The inherent, one-argument `IngestQueue::submit`.)
        if IngestQueue::submit(self, req.clone())
            .expect("queue open")
            .is_shed()
        {
            self.pump(now);
            let retried = IngestQueue::submit(self, req).expect("queue open");
            assert!(
                !retried.is_shed(),
                "shard shed twice at one instant; raise shard_capacity"
            );
        }
    }

    /// Flushes the deadline-due shards — with `max_delay = 0` that is
    /// all of them, at the arrival instant (the bit-identity setting).
    fn flush(&self, now: SimTime) {
        self.pump(now);
    }

    fn pending(&self) -> usize {
        self.depth()
    }
}

/// Replays a [`WorkloadSpec`] through `op` with submissions routed
/// through a fresh [`IngestQueue`] configured by `cfg`
/// ([`ArrivalSink::replay`]). Panics if the replay fails to finish
/// within `max_time` or a flush was rejected by the store.
pub fn run_workload_ingest(
    op: &mut CharmOperator,
    clock: &VirtualClock,
    workload: &WorkloadSpec,
    tick: Duration,
    max_time: Duration,
    cfg: IngestConfig,
) -> (RunMetrics, IngestStats) {
    let queue = IngestQueue::new(op.client(), cfg);
    let metrics = queue.replay(op, clock, workload, tick, max_time);
    let rejects = queue.take_errors();
    assert!(
        rejects.is_empty(),
        "flush-time rejects on a validated trace: {rejects:?}"
    );
    (metrics, queue.stats())
}
