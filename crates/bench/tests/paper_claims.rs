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
//! data fails here.

use std::collections::BTreeMap;

use elastic_bench::{des, real, traces, Claim, Options, Report};

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
