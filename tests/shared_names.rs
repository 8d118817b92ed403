//! A job's name is one shared string from the workload to the report.
//!
//! Every `JobOutcome::name` a replay reports is the very `Arc<str>` the
//! run was given — the workload's own for the DES and for every shard
//! of a federation (merged or per shard), the `JobRegistry`'s for the
//! operator, which interns the names it is submitted. A report that
//! copies a name into a fresh string fails here, though it reads the
//! same.

use std::collections::HashMap;
use std::sync::Arc;

use elastic_hpc::core::{EasyBackfill, JobOutcome};
use elastic_hpc::metrics::Duration;
use elastic_hpc::scenario::{des, federate, operator_replay, Scenario};
use elastic_hpc::workload::{JobSpec, WorkloadSpec};

const JOBS: usize = 48;

/// Malleable jobs 5 s apart on a 32-slot machine: short enough for the
/// operator's 1 s ticks in a debug build, crowded enough that EASY
/// queues some of them.
fn scenario() -> Scenario {
    let jobs = (0..JOBS)
        .map(|i| {
            let work = 40.0 + (i % 7) as f64 * 30.0;
            JobSpec::malleable(
                format!("j{i:02}"),
                1 + (i % 4) as u32,
                8,
                work,
                1 + (i % 5) as u32,
            )
            .at(Duration::from_secs(5.0 * i as f64))
        })
        .collect();
    Scenario::new(WorkloadSpec::new(jobs), 32, EasyBackfill::new)
}

/// Asserts that every outcome's name is the string `shared` holds
/// under it, and that `outcomes` reports every job once.
fn assert_shared<'a>(
    what: &str,
    outcomes: &[JobOutcome],
    shared: impl Fn(&str) -> &'a Arc<str>,
    jobs: usize,
) {
    assert_eq!(outcomes.len(), jobs, "{what}: every job completes");
    for outcome in outcomes {
        assert!(
            Arc::ptr_eq(&outcome.name, shared(&outcome.name)),
            "{what}: {} is a copy of its name",
            outcome.name
        );
    }
}

#[test]
fn every_report_holds_the_workloads_or_the_registrys_name() {
    let s = scenario();
    let workload: HashMap<&str, &Arc<str>> = s
        .workload
        .jobs
        .iter()
        .map(|j| (&*j.name, &j.name))
        .collect();
    let from_workload = |name: &str| workload[name];

    let des = des(&s);
    assert_shared("des", &des.metrics.jobs, from_workload, JOBS);

    let fed = federate(&s, 4, 2);
    assert_shared("merged federation", &fed.merged.jobs, from_workload, JOBS);
    let per_shard: usize = fed.shards.iter().map(|o| o.metrics.jobs.len()).sum();
    assert_eq!(per_shard, JOBS, "the shards report every job once");
    for (i, shard) in fed.shards.iter().enumerate() {
        let jobs = shard.metrics.jobs.len();
        assert!(jobs > 0, "round-robin loads shard {i}");
        assert_shared(
            &format!("shard {i}"),
            &shard.metrics.jobs,
            from_workload,
            jobs,
        );
    }

    let (metrics, op) = operator_replay(&s);
    let registry = op.registry();
    let interned = |name: &str| {
        let id = registry.id(name).expect("a reported job was interned");
        registry.shared_name(id)
    };
    assert_shared("operator", &metrics.jobs, interned, JOBS);
}
