//! Dynamic load balancing.
//!
//! Charm++'s measurement-based load balancers observe per-chare execution
//! time and produce a new chare→PE assignment; the runtime migrates the
//! difference. The same machinery drives rescaling: a *shrink* runs the
//! balancer with the dying PEs in the evacuation set (mirroring Charm++
//! disabling object assignment to PEs about to be removed, §2.2 of the
//! paper), and an *expand* runs it right after restart to spread load
//! onto the new PEs.

mod greedy;
mod rotate;

pub use greedy::GreedyLb;
pub use rotate::RotateLb;

use std::collections::{HashMap, HashSet};

use crate::ids::{ChareId, PeId};

/// One chare's measured load, as reported by its hosting PE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChareStat {
    /// The chare.
    pub id: ChareId,
    /// Where it currently lives.
    pub pe: PeId,
    /// Busy seconds accumulated since the last stats collection.
    pub load: f64,
}

/// A chare→PE assignment produced by a strategy.
pub type Assignment = HashMap<ChareId, PeId>;

/// A load-balancing strategy.
///
/// Contract: the returned assignment must map **every** chare in `stats`
/// to a PE in `0..num_pes` that is not in `evacuate`. The framework
/// validates this (see [`validate_assignment`]) and panics on violation,
/// since a dropped chare is unrecoverable.
pub trait LbStrategy: Send + Sync {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Computes a full assignment.
    fn assign(&self, stats: &[ChareStat], num_pes: usize, evacuate: &HashSet<PeId>) -> Assignment;

    /// Assignment for an *incremental shrink*: chares on surviving PEs
    /// must not move; only evacuees are (re)placed. The default spreads
    /// evacuees LPT-style over the least-loaded survivors, so migration
    /// traffic is exactly the evacuated state. Strategies may override
    /// with something smarter, but must honour the same contract as
    /// [`LbStrategy::assign`] plus the keep-survivors-in-place rule.
    fn assign_evacuation(
        &self,
        stats: &[ChareStat],
        num_pes: usize,
        evacuate: &HashSet<PeId>,
    ) -> Assignment {
        evacuation_only(stats, num_pes, evacuate)
    }

    /// Assignment for an *incremental expand*: `fresh` PEs just joined
    /// empty. The default keeps every chare in place except the minimum
    /// set of moves needed to fill the fresh PEs to the post-expand
    /// average load, so migration traffic scales with the added
    /// capacity, not with total state.
    fn assign_expansion(
        &self,
        stats: &[ChareStat],
        num_pes: usize,
        fresh: &HashSet<PeId>,
    ) -> Assignment {
        expansion_fill(stats, num_pes, fresh)
    }
}

/// The default evacuation-only assignment (see
/// [`LbStrategy::assign_evacuation`]): survivors stay put, evacuees go
/// LPT-first onto the least-loaded surviving PE.
fn evacuation_only(stats: &[ChareStat], num_pes: usize, evacuate: &HashSet<PeId>) -> Assignment {
    let targets = allowed_pes(num_pes, evacuate);
    assert!(!targets.is_empty(), "no PEs left after evacuation");
    let stats = effective_stats(stats);
    let mut out = Assignment::with_capacity(stats.len());
    let mut loads = vec![0.0f64; num_pes];
    let mut evacuees: Vec<&ChareStat> = Vec::new();
    for s in &stats {
        if evacuate.contains(&s.pe) || s.pe.as_usize() >= num_pes {
            evacuees.push(s);
        } else {
            out.insert(s.id, s.pe);
            loads[s.pe.as_usize()] += s.load;
        }
    }
    evacuees.sort_by(|a, b| b.load.total_cmp(&a.load).then_with(|| a.id.cmp(&b.id)));
    for s in evacuees {
        let dest = *targets
            .iter()
            .min_by(|a, b| {
                loads[a.as_usize()]
                    .total_cmp(&loads[b.as_usize()])
                    .then_with(|| a.cmp(b))
            })
            .expect("non-empty targets");
        out.insert(s.id, dest);
        loads[dest.as_usize()] += s.load;
    }
    out
}

/// The default expansion-fill assignment (see
/// [`LbStrategy::assign_expansion`]): pulls the largest productive
/// chares off the most-loaded veteran PEs until each fresh PE reaches
/// the post-expand average, then stops. Every chare not needed to fill
/// the fresh PEs keeps its placement.
fn expansion_fill(stats: &[ChareStat], num_pes: usize, fresh: &HashSet<PeId>) -> Assignment {
    let stats = effective_stats(stats);
    let mut out = Assignment::with_capacity(stats.len());
    let mut loads = vec![0.0f64; num_pes];
    for s in &stats {
        // A chare recorded on an out-of-range PE is a protocol bug on
        // this path (expansion never removes PEs), but rescue it anyway.
        let pe = if s.pe.as_usize() < num_pes {
            s.pe
        } else {
            PeId(0)
        };
        out.insert(s.id, pe);
        loads[pe.as_usize()] += s.load;
    }
    let total: f64 = loads.iter().sum();
    let avg = total / num_pes as f64;
    if avg <= 0.0 {
        return out;
    }
    let veterans: Vec<PeId> = (0..num_pes as u32)
        .map(PeId)
        .filter(|pe| !fresh.contains(pe))
        .collect();
    let mut fresh_sorted: Vec<PeId> = fresh.iter().copied().collect();
    fresh_sorted.sort();
    // Each move strictly shrinks a donor→recipient gap, so the loop
    // terminates; the cap is a safety valve.
    for _ in 0..stats.len() {
        let Some(&recipient) = fresh_sorted
            .iter()
            .filter(|pe| loads[pe.as_usize()] < avg)
            .min_by(|a, b| {
                loads[a.as_usize()]
                    .total_cmp(&loads[b.as_usize()])
                    .then_with(|| a.cmp(b))
            })
        else {
            break;
        };
        // Consider every veteran, most-loaded first: the heaviest donor
        // may hold only indivisible (load >= gap) chares while a
        // lighter one can still donate productively.
        let mut donors: Vec<PeId> = veterans
            .iter()
            .copied()
            .filter(|pe| loads[pe.as_usize()] > loads[recipient.as_usize()])
            .collect();
        donors.sort_by(|a, b| {
            loads[b.as_usize()]
                .total_cmp(&loads[a.as_usize()])
                .then_with(|| a.cmp(b))
        });
        let mut moved = false;
        for donor in donors {
            let gap = loads[donor.as_usize()] - loads[recipient.as_usize()];
            let candidate = stats
                .iter()
                .filter(|s| out.get(&s.id) == Some(&donor) && s.load > 0.0 && s.load < gap)
                .max_by(|a, b| a.load.total_cmp(&b.load).then_with(|| b.id.cmp(&a.id)));
            if let Some(s) = candidate {
                out.insert(s.id, recipient);
                loads[donor.as_usize()] -= s.load;
                loads[recipient.as_usize()] += s.load;
                moved = true;
                break;
            }
        }
        if !moved {
            break;
        }
    }
    out
}

/// Checks the [`LbStrategy`] contract; panics with a diagnostic on
/// violation.
pub fn validate_assignment(
    assignment: &Assignment,
    stats: &[ChareStat],
    num_pes: usize,
    evacuate: &HashSet<PeId>,
) {
    assert!(
        num_pes > evacuate.len(),
        "evacuating {} of {num_pes} PEs leaves nothing to run on",
        evacuate.len()
    );
    for s in stats {
        let pe = assignment
            .get(&s.id)
            .unwrap_or_else(|| panic!("LB dropped chare {}", s.id));
        assert!(
            pe.as_usize() < num_pes,
            "LB assigned {} to nonexistent {pe}",
            s.id
        );
        assert!(
            !evacuate.contains(pe),
            "LB assigned {} to evacuated {pe}",
            s.id
        );
    }
}

/// The PEs allowed to receive chares: `0..num_pes` minus `evacuate`,
/// sorted — shared by strategies for deterministic iteration order.
pub(crate) fn allowed_pes(num_pes: usize, evacuate: &HashSet<PeId>) -> Vec<PeId> {
    (0..num_pes as u32)
        .map(PeId)
        .filter(|pe| !evacuate.contains(pe))
        .collect()
}

/// Sorts stats by descending load, tie-broken by id for determinism.
pub(crate) fn by_descending_load(stats: &[ChareStat]) -> Vec<&ChareStat> {
    let mut v: Vec<&ChareStat> = stats.iter().collect();
    v.sort_by(|a, b| b.load.total_cmp(&a.load).then_with(|| a.id.cmp(&b.id)));
    v
}

/// Replaces missing load measurements with usable ones: if *no* chare
/// has measured load (e.g. the LB step right after an expand-restart,
/// when fresh PEs have empty accumulators), fall back to unit loads so
/// strategies balance by chare count; otherwise give zero-load chares a
/// tiny epsilon so they still spread instead of piling onto one PE.
pub(crate) fn effective_stats(stats: &[ChareStat]) -> Vec<ChareStat> {
    let total: f64 = stats.iter().map(|s| s.load).sum();
    if total <= 0.0 {
        return stats
            .iter()
            .map(|s| ChareStat { load: 1.0, ..*s })
            .collect();
    }
    let min_pos = stats
        .iter()
        .map(|s| s.load)
        .filter(|&l| l > 0.0)
        .fold(f64::INFINITY, f64::min);
    let eps = min_pos * 1e-3;
    stats
        .iter()
        .map(|s| ChareStat {
            load: if s.load > 0.0 { s.load } else { eps },
            ..*s
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::ids::{ArrayId, Index};

    /// Per-PE total load under an assignment.
    pub(crate) fn pe_loads(
        assignment: &Assignment,
        stats: &[ChareStat],
        num_pes: usize,
    ) -> Vec<f64> {
        let mut loads = vec![0.0; num_pes];
        for s in stats {
            if let Some(pe) = assignment.get(&s.id) {
                loads[pe.as_usize()] += s.load;
            }
        }
        loads
    }

    /// Max/average load ratio (1.0 = perfectly balanced); `None` if total
    /// load is zero.
    pub(crate) fn imbalance(
        assignment: &Assignment,
        stats: &[ChareStat],
        num_pes: usize,
    ) -> Option<f64> {
        let loads = pe_loads(assignment, stats, num_pes);
        let total: f64 = loads.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let avg = total / num_pes as f64;
        let max = loads.iter().copied().fold(0.0, f64::max);
        Some(max / avg)
    }

    /// Builds stats: chare i on PE (i % pes) with the given load.
    pub(crate) fn mk_stats(loads: &[f64], pes: usize) -> Vec<ChareStat> {
        loads
            .iter()
            .enumerate()
            .map(|(i, &load)| ChareStat {
                id: ChareId::new(ArrayId(0), Index::d1(i as u64)),
                pe: PeId((i % pes) as u32),
                load,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{imbalance, mk_stats, pe_loads};
    use super::*;
    use crate::ids::{ArrayId, Index};
    use proptest::prelude::*;

    #[test]
    fn helpers_compute_loads_and_imbalance() {
        let stats = mk_stats(&[1.0, 2.0, 3.0, 6.0], 2);
        let mut a = Assignment::new();
        for s in &stats {
            a.insert(s.id, s.pe);
        }
        // PE0: 1+3=4, PE1: 2+6=8; avg 6 -> imbalance 8/6.
        assert_eq!(pe_loads(&a, &stats, 2), vec![4.0, 8.0]);
        assert!((imbalance(&a, &stats, 2).unwrap() - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_none_for_zero_load() {
        let stats = mk_stats(&[0.0, 0.0], 2);
        let mut a = Assignment::new();
        for s in &stats {
            a.insert(s.id, s.pe);
        }
        assert_eq!(imbalance(&a, &stats, 2), None);
    }

    #[test]
    #[should_panic(expected = "dropped chare")]
    fn validate_catches_dropped_chare() {
        let stats = mk_stats(&[1.0], 2);
        validate_assignment(&Assignment::new(), &stats, 2, &HashSet::new());
    }

    #[test]
    #[should_panic(expected = "evacuated")]
    fn validate_catches_evacuated_target() {
        let stats = mk_stats(&[1.0], 2);
        let mut a = Assignment::new();
        a.insert(stats[0].id, PeId(1));
        let evac: HashSet<PeId> = [PeId(1)].into_iter().collect();
        validate_assignment(&a, &stats, 2, &evac);
    }

    #[test]
    #[should_panic(expected = "nonexistent")]
    fn validate_catches_out_of_range_pe() {
        let stats = mk_stats(&[1.0], 2);
        let mut a = Assignment::new();
        a.insert(stats[0].id, PeId(7));
        validate_assignment(&a, &stats, 2, &HashSet::new());
    }

    #[test]
    #[should_panic(expected = "leaves nothing")]
    fn validate_catches_total_evacuation() {
        let evac: HashSet<PeId> = [PeId(0)].into_iter().collect();
        validate_assignment(&Assignment::new(), &[], 1, &evac);
    }

    #[test]
    fn evacuation_only_moves_nothing_but_evacuees() {
        let stats = mk_stats(&[1.0; 16], 4);
        let evac: HashSet<PeId> = [PeId(2), PeId(3)].into_iter().collect();
        let a = evacuation_only(&stats, 4, &evac);
        validate_assignment(&a, &stats, 4, &evac);
        for s in &stats {
            if !evac.contains(&s.pe) {
                assert_eq!(a[&s.id], s.pe, "survivor {} moved", s.id);
            }
        }
        // Evacuees split evenly over the two survivors.
        assert_eq!(pe_loads(&a, &stats, 4), vec![8.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn evacuation_only_balances_skewed_evacuees() {
        // Heavy chares on the dying PE spread LPT over survivors.
        let stats = mk_stats(&[0.0, 0.0, 8.0, 4.0, 0.0, 0.0, 2.0, 2.0], 2);
        let evac: HashSet<PeId> = [PeId(1)].into_iter().collect();
        let a = evacuation_only(&stats, 2, &evac);
        validate_assignment(&a, &stats, 2, &evac);
    }

    #[test]
    fn expansion_fill_only_feeds_fresh_pes() {
        // 16 unit chares on 2 PEs, expand to 4: fresh PEs 2,3 must each
        // receive ~avg (4.0) and no chare may move between veterans.
        let stats = mk_stats(&[1.0; 16], 2);
        let fresh: HashSet<PeId> = [PeId(2), PeId(3)].into_iter().collect();
        let a = expansion_fill(&stats, 4, &fresh);
        validate_assignment(&a, &stats, 4, &HashSet::new());
        let loads = pe_loads(&a, &stats, 4);
        assert_eq!(loads.iter().sum::<f64>(), 16.0);
        assert!(
            loads[2] >= 3.0 && loads[3] >= 3.0,
            "fresh starved: {loads:?}"
        );
        for s in &stats {
            let dest = a[&s.id];
            assert!(
                dest == s.pe || fresh.contains(&dest),
                "{} moved veteran->veteran ({} -> {dest})",
                s.id,
                s.pe
            );
        }
    }

    #[test]
    fn expansion_fill_moves_proportional_to_added_capacity() {
        // Expanding 4 -> 5 should move roughly 1/5 of the chares, not
        // rebalance the world.
        let stats = mk_stats(&[1.0; 40], 4);
        let fresh: HashSet<PeId> = [PeId(4)].into_iter().collect();
        let a = expansion_fill(&stats, 5, &fresh);
        let moved = stats.iter().filter(|s| a[&s.id] != s.pe).count();
        assert!(moved <= 10, "expansion moved {moved} of 40 chares");
        assert!(moved >= 6, "fresh PE underfilled: moved {moved}");
    }

    #[test]
    fn expansion_fill_skips_indivisible_donor_for_lighter_ones() {
        // PE0 holds one indivisible 100-load chare; PE1 holds fifty
        // 1-load chares. The fresh PE must still be fed from PE1 even
        // though the heaviest donor (PE0) has nothing it can give.
        let mut stats = vec![ChareStat {
            id: ChareId::new(ArrayId(0), Index::d1(1000)),
            pe: PeId(0),
            load: 100.0,
        }];
        for i in 0..50 {
            stats.push(ChareStat {
                id: ChareId::new(ArrayId(0), Index::d1(i)),
                pe: PeId(1),
                load: 1.0,
            });
        }
        let fresh: HashSet<PeId> = [PeId(2)].into_iter().collect();
        let a = expansion_fill(&stats, 3, &fresh);
        validate_assignment(&a, &stats, 3, &HashSet::new());
        let loads = pe_loads(&a, &stats, 3);
        assert!(
            loads[2] >= 20.0,
            "fresh PE starved despite a viable donor: {loads:?}"
        );
        // The indivisible chare stays put.
        assert_eq!(a[&ChareId::new(ArrayId(0), Index::d1(1000))], PeId(0));
    }

    #[test]
    fn expansion_fill_zero_load_balances_by_count() {
        let stats = mk_stats(&[0.0; 12], 2);
        let fresh: HashSet<PeId> = [PeId(2)].into_iter().collect();
        let a = expansion_fill(&stats, 3, &fresh);
        let mut counts = [0usize; 3];
        for pe in a.values() {
            counts[pe.as_usize()] += 1;
        }
        assert!(counts[2] >= 3, "fresh PE got {counts:?}");
    }

    #[test]
    fn trait_default_hooks_delegate_to_helpers() {
        let stats = mk_stats(&[1.0; 8], 2);
        let evac: HashSet<PeId> = [PeId(1)].into_iter().collect();
        for s in strategies() {
            let a = s.assign_evacuation(&stats, 2, &evac);
            validate_assignment(&a, &stats, 2, &evac);
            let fresh: HashSet<PeId> = [PeId(2), PeId(3)].into_iter().collect();
            let a = s.assign_expansion(&stats, 4, &fresh);
            validate_assignment(&a, &stats, 4, &HashSet::new());
        }
    }

    /// Both strategies must satisfy the framework contract on
    /// arbitrary inputs — the single most important LB property.
    fn strategies() -> Vec<Box<dyn LbStrategy>> {
        vec![Box::new(GreedyLb), Box::new(RotateLb)]
    }

    proptest! {
        #[test]
        fn all_strategies_satisfy_contract(
            loads in proptest::collection::vec(0.0f64..10.0, 1..64),
            num_pes in 1usize..12,
            evac_mask in any::<u16>(),
        ) {
            let evacuate: HashSet<PeId> = (0..num_pes as u32)
                .filter(|i| evac_mask & (1 << (i % 16)) != 0)
                .map(PeId)
                .collect();
            prop_assume!(evacuate.len() < num_pes);
            let stats = mk_stats(&loads, num_pes);
            for s in strategies() {
                let a = s.assign(&stats, num_pes, &evacuate);
                validate_assignment(&a, &stats, num_pes, &evacuate);
            }
        }

        #[test]
        fn greedy_imbalance_bounded(
            loads in proptest::collection::vec(0.01f64..10.0, 8..64),
            num_pes in 2usize..8,
        ) {
            // Greedy (LPT) guarantees max load <= (4/3 - 1/3m) * OPT, and
            // OPT >= max(avg, largest item). Check the looser avg+max bound.
            let stats = mk_stats(&loads, num_pes);
            let a = GreedyLb.assign(&stats, num_pes, &HashSet::new());
            let per_pe = pe_loads(&a, &stats, num_pes);
            let total: f64 = loads.iter().sum();
            let avg = total / num_pes as f64;
            let lmax = loads.iter().copied().fold(0.0, f64::max);
            let max = per_pe.iter().copied().fold(0.0, f64::max);
            prop_assert!(max <= avg + lmax + 1e-9,
                "greedy max {max} > avg {avg} + largest {lmax}");
        }
    }
}
