//! The paper's claims on the DES-side artifacts, asserted at the rate
//! each holds. Figs. 7 and 8 and the EASY sweep run at their own scale
//! (100 seeds per sweep point, the bundled trace), where every claim
//! holds. Table 1 is one workload, so its claims are read over seeds
//! 0–19: two hold on every seed and are asserted per seed; the two
//! elastic ones hold on 11 and 12 of the 20 and are asserted at those
//! rates, so a change that makes them fail more often fails here. Over
//! the population of workloads both elastic statements hold: they are
//! fig7's two claims on the 100-seed means at gap 90 s.
//! Two real-path claims are asserted too: `fig5_compare`'s byte counts
//! and its migrated-chare counts, which do not depend on the host's
//! speed. The three DES sweeps and the ablations also pin each CSV
//! table they return by its 64-bit FNV-1a digest, and Table 1's
//! Simulation rows over seeds 0–19 are pinned by one digest of their
//! exact `{:?}` text, so a refactor that moves one byte of a figure's
//! data fails here. The fault paths are pinned the same way: the
//! `fault_tolerance` and `resilience_sweep` tables, and the DES
//! `RunMetrics` of every cancellation, reclamation and transient-fault
//! schedule the cross-engine fault tests replay — the runs in which a
//! cancelled or failed job holds slots outside the utilization window,
//! which cross-engine equality cannot check because both engines share
//! the kernel.

use std::collections::BTreeMap;

use elastic_bench::{des, real, traces, Claim, Options, Report};
use elastic_hpc::core::{
    FcfsBackfill, Policy, PolicyConfig, RecoveryPolicy, RecoveryStrategy, RunMetrics,
};
use elastic_hpc::metrics::Duration;
use elastic_hpc::scenario::{self, Scenario, TRACE_CAPACITY};
use elastic_hpc::sim::OverheadModel;
use elastic_hpc::workload::{
    FaultEvent, FaultKind, FaultSpec, FlakyEvent, FlakyOp, FlakySpec, JobSpec, WorkloadSpec,
};

/// Every claim of `claims` that does not hold, printed.
fn failing(claims: &[Claim]) -> Vec<String> {
    claims
        .iter()
        .filter(|c| !c.holds)
        .map(Claim::to_string)
        .collect()
}

/// The 64-bit FNV-1a digest of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Each table of `report` by name, with the digest of its CSV.
fn digests(report: &Report) -> Vec<(&str, u64)> {
    let tables = report.tables.iter();
    tables
        .map(|(name, table)| (*name, fnv1a(&table.to_csv_string())))
        .collect()
}

#[test]
fn every_fig7_claim_holds() {
    let report = des::fig7(&Options::default());
    let csv = [("fig7_submission_gap.csv", 0x5854_0ef8_d338_315a)];
    assert_eq!(digests(&report), csv);
    assert_eq!(report.claims.len(), 8);
    assert_eq!(failing(&report.claims), Vec::<String>::new());
}

#[test]
fn every_fig8_claim_holds() {
    let report = des::fig8(&Options::default());
    let csv = [
        ("fig8_rescale_gap.csv", 0x4ffd_09bf_6c9d_b087),
        ("fig8_rescale_gap_incremental.csv", 0x0f53_c236_12a2_6e15),
    ];
    assert_eq!(digests(&report), csv);
    assert_eq!(report.claims.len(), 4);
    assert_eq!(failing(&report.claims), Vec::<String>::new());
}

#[test]
fn easy_never_loses_to_fcfs_backfill_up_to_the_archive_load() {
    let report = traces::easy_vs_conservative(&Options::default());
    let csv = [("easy_vs_conservative.csv", 0x543e_1ae3_df6f_64f3)];
    assert_eq!(digests(&report), csv);
    assert_eq!(report.claims.len(), 1);
    assert_eq!(failing(&report.claims), Vec::<String>::new());
}

#[test]
fn the_ablation_rows_are_pinned() {
    let report = des::ablations(&Options::default());
    let csv = [("ablations.csv", 0xed4a_f435_cc84_171e)];
    assert_eq!(digests(&report), csv);
}

/// Every row of Table 1's Simulation column over seeds 0–19, each
/// float printed exactly (`{:?}`), pinned by one digest.
#[test]
fn table1_simulation_rows_are_pinned() {
    let rows: String = (0..20)
        .flat_map(|seed| des::table1_simulation_column(seed).0)
        .map(|row| format!("{row:?}\n"))
        .collect();
    assert_eq!(fnv1a(&rows), 0x02ba_9119_e582_96d7);
}

#[test]
fn table1_claims_hold_at_their_rate_over_seeds_0_to_19() {
    let mut failed_at: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for seed in 0..20 {
        for claim in des::table1_simulation_column(seed).1 {
            let seeds = failed_at.entry(claim.statement).or_default();
            if !claim.holds {
                seeds.push(seed);
            }
        }
    }
    let rates = [
        ("min_replicas lowest utilization", 20),
        ("min_replicas highest completion", 20),
        ("elastic best utilization", 11),
        ("elastic lowest total time", 12),
    ];
    assert_eq!(failed_at.len(), rates.len());
    for (statement, rate) in rates {
        let failed = &failed_at[statement];
        assert!(
            20 - failed.len() >= rate,
            "{statement}: holds on {} of 20 seeds, at least {rate} expected; fails at seeds {failed:?}",
            20 - failed.len()
        );
    }
}

#[test]
fn every_fig5_compare_claim_holds() {
    let claims = real::fig5_compare(&Options::default()).claims;
    assert_eq!(claims.len(), 2);
    assert_eq!(failing(&claims), Vec::<String>::new());
}

#[test]
fn the_fault_tolerance_table_is_pinned() {
    let report = traces::fault_tolerance(&Options::default());
    let csv = [("fault_tolerance.csv", 0x20a1_b03e_35c9_ee32)];
    assert_eq!(digests(&report), csv);
}

#[test]
fn the_resilience_sweep_table_is_pinned() {
    let report = traces::resilience_sweep(&Options::default());
    let csv = [("resilience_sweep.csv", 0x3d68_b281_3f88_3334)];
    assert_eq!(digests(&report), csv);
}

/// The bundled trace under kill-and-requeue FCFS and `faults`: the
/// policy and trace of `tests/fault_replay.rs` and
/// `tests/resilience_replay.rs`.
fn faulted(faults: FaultSpec) -> Scenario {
    let policy =
        || RecoveryPolicy::new(Box::new(FcfsBackfill::new()), RecoveryStrategy::KillRequeue);
    Scenario::trace(policy).with_faults(faults)
}

/// Two reclaim/return pairs of 8 slots inside the trace's busy part.
fn reclamation() -> FaultSpec {
    let (horizon, outage) = (Duration::from_secs(1600.0), Duration::from_secs(300.0));
    FaultSpec::reclamation(11, 2, 8, horizon, outage)
}

/// [`reclamation`] plus a seeded storm that trips every resilience
/// primitive.
fn storm(seed: u64) -> FaultSpec {
    reclamation().with_flaky(
        FlakySpec::storm(seed, 24, Duration::from_secs(4000.0))
            .with_breaker(3, Duration::from_secs(240.0))
            .with_retry_budget(6.0, 0.25)
            .with_health_threshold(2),
    )
}

/// A 5 s recovery window per checkpoint relaunch, nothing else.
fn restart_5s() -> OverheadModel {
    OverheadModel {
        restart_base: 5.0,
        ..OverheadModel::zero()
    }
}

/// A capacity reclaim and a stuck-rescale eviction at t = 500 s.
fn reclaim_racing_an_evict() -> Scenario {
    let faults = FaultSpec {
        events: vec![FaultEvent {
            at: Duration::from_secs(500.0),
            slots: 8,
            kind: FaultKind::Reclaim,
        }],
        ..FaultSpec::default()
    }
    .with_flaky(FlakySpec {
        events: vec![FlakyEvent {
            at: Duration::from_secs(500.0),
            op: FlakyOp::StuckRescale,
        }],
        ..FlakySpec::default()
    });
    faulted(faults)
}

/// The whole cluster reclaimed at 400 s and returned at 1 000 s.
fn full_capacity_reclaim() -> Scenario {
    let ev = |at: f64, kind: FaultKind| FaultEvent {
        at: Duration::from_secs(at),
        slots: TRACE_CAPACITY,
        kind,
    };
    faulted(FaultSpec {
        events: vec![ev(400.0, FaultKind::Reclaim), ev(1000.0, FaultKind::Return)],
        ..FaultSpec::default()
    })
}

/// A job cancelled mid-run and one cancelled at its arrival, under the
/// elastic policy with no rescale gap (`tests/trace_replay.rs`).
fn cancellations() -> Scenario {
    let at = Duration::from_secs;
    let wl = WorkloadSpec::new(vec![
        JobSpec::malleable("a", 2, 30, 30_000.0, 3).cancelled_at(at(90.0)),
        JobSpec::malleable("b", 4, 8, 2_400.0, 3)
            .at(at(30.0))
            .cancelled_at(at(30.0)),
        JobSpec::malleable("c", 2, 4, 1_200.0, 3).at(at(60.0)),
        JobSpec::malleable("d", 10, 26, 5_180.0, 3).at(at(70.0)),
    ]);
    Scenario::new(wl, TRACE_CAPACITY, || {
        Policy::elastic(PolicyConfig {
            rescale_gap: Duration::ZERO,
            launcher_slots: 1,
            shrink_spares_head: false,
        })
    })
}

/// The DES `RunMetrics` of every fault schedule, each float printed
/// exactly (`{:?}`), pinned by digest one schedule at a time.
#[test]
fn the_fault_replays_are_pinned() {
    let mut runs: Vec<(String, Scenario)> = vec![
        ("reclamation".into(), faulted(reclamation())),
        ("cancellations".into(), cancellations()),
        ("reclaim_racing_an_evict".into(), reclaim_racing_an_evict()),
        (
            "reclaim_racing_an_evict+restart".into(),
            reclaim_racing_an_evict().with_overhead(restart_5s()),
        ),
        ("full_capacity_reclaim".into(), full_capacity_reclaim()),
    ];
    for seed in [11, 3, 77] {
        runs.push((format!("storm {seed}"), faulted(storm(seed))));
        let paid = faulted(storm(seed)).with_overhead(restart_5s());
        runs.push((format!("storm {seed}+restart"), paid));
    }
    let metrics = |s: &Scenario| -> RunMetrics { scenario::des(s).metrics };
    let got: Vec<(String, u64)> = runs
        .iter()
        .map(|(name, s)| (name.clone(), fnv1a(&format!("{:?}", metrics(s)))))
        .collect();
    let pinned: [(&str, u64); 11] = [
        ("reclamation", 0x8a82_266d_0b47_5229),
        ("cancellations", 0xa170_113f_c772_31f7),
        ("reclaim_racing_an_evict", 0x3085_1b31_7de9_9432),
        ("reclaim_racing_an_evict+restart", 0x3a0e_c0d7_32b0_622a),
        ("full_capacity_reclaim", 0xfb83_61a7_5b7e_0591),
        ("storm 11", 0x50de_e0a8_89d2_b2e1),
        ("storm 11+restart", 0x59b9_2fec_36db_5873),
        ("storm 3", 0x7c54_7165_5c13_d836),
        ("storm 3+restart", 0x3a15_ee4a_89bc_0275),
        ("storm 77", 0xfc51_65b4_a51c_15ec),
        ("storm 77+restart", 0x02ce_a5b3_5c3b_49a1),
    ];
    let pinned: Vec<(String, u64)> = pinned.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, pinned);
}
