//! GreedyLB: longest-processing-time-first assignment.
//!
//! The classic Charm++ `GreedyLB`: sort chares by descending measured
//! load and repeatedly hand the heaviest unassigned chare to the
//! least-loaded PE. Ignores current placement entirely (maximal
//! migration, best balance) — the strategy the paper's rescale path uses
//! to redistribute after shrink/expand.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use crate::ids::PeId;

use super::{allowed_pes, by_descending_load, effective_stats, Assignment, ChareStat, LbStrategy};

/// Longest-processing-time greedy balancer.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyLb;

/// Heap entry ordered by (load, pe) so ties break deterministically.
#[derive(Debug, PartialEq)]
struct Slot {
    load: f64,
    pe: PeId,
}

impl Eq for Slot {}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.load
            .total_cmp(&other.load)
            .then_with(|| self.pe.cmp(&other.pe))
    }
}

impl LbStrategy for GreedyLb {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn assign(&self, stats: &[ChareStat], num_pes: usize, evacuate: &HashSet<PeId>) -> Assignment {
        let targets = allowed_pes(num_pes, evacuate);
        assert!(!targets.is_empty(), "no PEs left after evacuation");
        let stats = effective_stats(stats);
        let mut heap: BinaryHeap<Reverse<Slot>> = targets
            .into_iter()
            .map(|pe| Reverse(Slot { load: 0.0, pe }))
            .collect();
        let mut out = Assignment::with_capacity(stats.len());
        for stat in by_descending_load(&stats) {
            let Reverse(mut slot) = heap.pop().expect("heap never empties");
            out.insert(stat.id, slot.pe);
            slot.load += stat.load;
            heap.push(Reverse(slot));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{imbalance, mk_stats, pe_loads};
    use super::*;

    #[test]
    fn balances_uniform_loads_perfectly() {
        let stats = mk_stats(&[1.0; 8], 1); // all start on PE0
        let a = GreedyLb.assign(&stats, 4, &HashSet::new());
        assert_eq!(pe_loads(&a, &stats, 4), vec![2.0; 4]);
        assert!((imbalance(&a, &stats, 4).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heaviest_chares_spread_first() {
        // Loads 8,7,6,5 on 2 PEs: LPT gives {8,5} and {7,6} = 13 each.
        let stats = mk_stats(&[8.0, 7.0, 6.0, 5.0], 1);
        let a = GreedyLb.assign(&stats, 2, &HashSet::new());
        let loads = pe_loads(&a, &stats, 2);
        assert_eq!(loads, vec![13.0, 13.0]);
    }

    #[test]
    fn evacuated_pes_receive_nothing() {
        let stats = mk_stats(&[1.0; 12], 4);
        let evac: HashSet<PeId> = [PeId(2), PeId(3)].into_iter().collect();
        let a = GreedyLb.assign(&stats, 4, &evac);
        let loads = pe_loads(&a, &stats, 4);
        assert_eq!(loads[2], 0.0);
        assert_eq!(loads[3], 0.0);
        assert_eq!(loads[0] + loads[1], 12.0);
    }

    #[test]
    fn deterministic_given_same_input() {
        let stats = mk_stats(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], 3);
        let a1 = GreedyLb.assign(&stats, 3, &HashSet::new());
        let a2 = GreedyLb.assign(&stats, 3, &HashSet::new());
        assert_eq!(a1, a2);
    }

    #[test]
    fn zero_load_chares_still_distributed() {
        let stats = mk_stats(&[0.0; 10], 1);
        let a = GreedyLb.assign(&stats, 5, &HashSet::new());
        assert_eq!(a.len(), 10);
        // Each PE gets exactly 2 zero-load chares (round-robin by ties).
        let mut counts = vec![0; 5];
        for pe in a.values() {
            counts[pe.as_usize()] += 1;
        }
        assert_eq!(counts, vec![2; 5]);
    }

    #[test]
    fn single_pe_gets_everything() {
        let stats = mk_stats(&[1.0, 2.0], 2);
        let a = GreedyLb.assign(&stats, 1, &HashSet::new());
        assert!(a.values().all(|&pe| pe == PeId(0)));
    }

    #[test]
    #[should_panic(expected = "no PEs left")]
    fn panics_when_everything_evacuated() {
        let evac: HashSet<PeId> = [PeId(0)].into_iter().collect();
        let _ = GreedyLb.assign(&[], 1, &evac);
    }
}
