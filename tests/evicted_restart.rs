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
use elastic_hpc::scenario::{sim_config, Scenario};
use elastic_hpc::sim::SimState;
use elastic_hpc::workload::FaultSpec;

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
    for kind in [PolicyKind::Moldable, PolicyKind::Elastic] {
        let policy = move || {
            RecoveryPolicy::new(
                Box::new(Policy::of_kind(kind, PolicyConfig::default())),
                RecoveryStrategy::CheckpointRestart,
            )
        };
        let gap = Duration::from_secs(90.0);
        let scenario = Scenario::campaign(3, gap, policy).with_faults(faults.clone());
        // A job left in the queue when the events run out panics the
        // replay ("never completed (starved in queue)"). The replay
        // keeps its allocation changes, for job02's series below.
        let (cfg, workload) = (sim_config(&scenario), &scenario.workload);
        let mut state = SimState::new(&cfg, workload);
        state.record_allocations();
        while state.step(&cfg, workload, usize::MAX) {}
        let outcome = state.finish(&cfg, workload);
        assert_eq!(
            outcome.metrics.jobs.len(),
            16,
            "{kind}: every job completes"
        );
        assert!(outcome.metrics.faults.evictions > 0, "{kind}: no eviction");
        // The first reclamation evicts job02 and leaves slots free: it
        // restarts on them in the same instant (smaller, from its
        // checkpoint) instead of idling beside them.
        let series = outcome.util.log().expect("recorded").per_job_series();
        let job02 = &series[&JobId(2)];
        let held = job02.iter().find(|&&(at, _)| at == first_reclaim);
        assert!(
            matches!(held, Some(&(_, slots)) if slots > 0),
            "{kind}: job02 idle after its eviction at {first_reclaim}: {job02:?}"
        );
    }
}
