//! An evicted job restarts as soon as slots allow: `T_rescale_gap`
//! spaces out rescales of *running* jobs and never binds the queue.
//!
//! `Action::Evict` (checkpoint/restart recovery) returns a running job
//! to the queue with the eviction instant on record as its last action.
//! If the gap test read that instant, the job would sit out a full gap
//! beside free slots under the elastic policy — and forever under the
//! moldable one, whose gap is infinite. The DES replays a seeded
//! reclamation schedule through both and holds every job to a prompt
//! restart.

use elastic_hpc::core::{Policy, PolicyConfig, PolicyKind, RecoveryPolicy, RecoveryStrategy};
use elastic_hpc::metrics::{Duration, JobId, SimTime};
use elastic_hpc::sim::{simulate, SimConfig};
use elastic_hpc::workload::{generate_workload, FaultSpec};

#[test]
fn an_evicted_job_is_not_gap_blocked_in_the_queue() {
    let faults = FaultSpec::reclamation(
        1,
        4,
        24,
        Duration::from_secs(1500.0),
        Duration::from_secs(120.0),
    );
    let first_reclaim = SimTime::ZERO + faults.events[0].at;
    let workload = generate_workload(3, 16)
        .spaced_every(Duration::from_secs(90.0))
        .with_faults(faults);
    for kind in [PolicyKind::Moldable, PolicyKind::Elastic] {
        let policy = RecoveryPolicy::new(
            Box::new(Policy::of_kind(kind, PolicyConfig::default())),
            RecoveryStrategy::CheckpointRestart,
        );
        // A job left in the queue when the events run out panics the
        // replay ("never completed (starved in queue)").
        let outcome = simulate(&SimConfig::paper_default(Box::new(policy)), &workload);
        assert_eq!(
            outcome.metrics.jobs.len(),
            16,
            "{kind}: every job completes"
        );
        assert!(outcome.metrics.faults.evictions > 0, "{kind}: no eviction");
        // The first reclamation evicts job02 and leaves slots free: it
        // restarts on them in the same instant (smaller, from its
        // checkpoint) instead of idling beside them.
        let job02 = &outcome.util.per_job_series()[&JobId(2)];
        let held = job02.iter().find(|&&(at, _)| at == first_reclaim);
        assert!(
            matches!(held, Some(&(_, slots)) if slots > 0),
            "{kind}: job02 idle after its eviction at {first_reclaim}: {job02:?}"
        );
    }
}
