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
//! speed.

use std::collections::BTreeMap;

use elastic_bench::{des, real, traces, Claim, Options};

/// Every claim of `claims` that does not hold, printed.
fn failing(claims: &[Claim]) -> Vec<String> {
    claims
        .iter()
        .filter(|c| !c.holds)
        .map(Claim::to_string)
        .collect()
}

#[test]
fn every_fig7_claim_holds() {
    let claims = des::fig7(&Options::default()).claims;
    assert_eq!(claims.len(), 6);
    assert_eq!(failing(&claims), Vec::<String>::new());
}

#[test]
fn every_fig8_claim_holds() {
    let claims = des::fig8(&Options::default()).claims;
    assert_eq!(claims.len(), 4);
    assert_eq!(failing(&claims), Vec::<String>::new());
}

#[test]
fn easy_never_loses_to_fcfs_backfill_up_to_the_archive_load() {
    let claims = traces::easy_vs_conservative(&Options::default()).claims;
    assert_eq!(claims.len(), 1);
    assert_eq!(failing(&claims), Vec::<String>::new());
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
