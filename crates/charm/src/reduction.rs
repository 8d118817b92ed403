//! Reductions (Charm++ `contribute`).
//!
//! Each element of an array contributes a vector of `f64`s per epoch.
//! Contributions combine in two levels, like Charm++'s spanning tree:
//! the PE that hosts an element folds it into a PE-local partial, and
//! when every locally resident element has contributed, the partial is
//! shipped to the driver where the [`ReductionCollector`] completes the
//! epoch once the global contribution count matches the array size.
//!
//! Correctness of the two-level scheme depends on membership stability:
//! chares only migrate at sync boundaries, when no reduction epoch is in
//! flight — the runtime asserts this during extraction.

use std::collections::HashMap;

use crate::ids::ArrayId;

/// Element-wise combining operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// Folds `vals` into `acc` element-wise. `acc` is resized (with the
    /// operator's identity) if `vals` is longer.
    fn combine(self, acc: &mut Vec<f64>, vals: &[f64]) {
        if acc.len() < vals.len() {
            acc.resize(vals.len(), self.identity());
        }
        for (a, &v) in acc.iter_mut().zip(vals) {
            *a = match self {
                ReduceOp::Sum => *a + v,
                ReduceOp::Max => a.max(v),
                ReduceOp::Min => a.min(v),
            };
        }
    }

    /// The operator identity element.
    fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }
}

/// A partially combined reduction.
#[derive(Debug, Clone)]
pub struct Partial {
    /// Combining operator (must match across contributions of an epoch).
    pub op: ReduceOp,
    /// Combined values so far.
    pub acc: Vec<f64>,
    /// Contributions folded in.
    pub contributions: u64,
}

impl Partial {
    /// A partial holding one contribution.
    pub fn first(op: ReduceOp, vals: &[f64]) -> Partial {
        Partial {
            op,
            acc: vals.to_vec(),
            contributions: 1,
        }
    }

    /// Folds one more contribution in.
    pub fn add(&mut self, op: ReduceOp, vals: &[f64]) {
        debug_assert_eq!(self.op, op, "mixed reduction operators in one epoch");
        self.op.combine(&mut self.acc, vals);
        self.contributions += 1;
    }

    /// Merges another partial in.
    pub fn merge(&mut self, other: &Partial) {
        debug_assert_eq!(self.op, other.op, "mixed reduction operators in one epoch");
        self.op.combine(&mut self.acc, &other.acc);
        self.contributions += other.contributions;
    }
}

/// A completed reduction epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionResult {
    /// The array reduced over.
    pub array: ArrayId,
    /// The epoch number.
    pub seq: u64,
    /// Combined values.
    pub vals: Vec<f64>,
}

/// Driver-side epoch completion tracking.
#[derive(Debug, Default)]
pub struct ReductionCollector {
    pending: HashMap<(ArrayId, u64), Partial>,
}

impl ReductionCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a PE partial in; returns the completed result once the
    /// total contribution count reaches `expected_total`.
    pub fn offer(
        &mut self,
        array: ArrayId,
        seq: u64,
        op: ReduceOp,
        vals: &[f64],
        contributions: u64,
        expected_total: u64,
    ) -> Option<ReductionResult> {
        let key = (array, seq);
        let partial = self
            .pending
            .entry(key)
            .and_modify(|p| {
                p.op.combine(&mut p.acc, vals);
                p.contributions += contributions;
            })
            .or_insert_with(|| Partial {
                op,
                acc: vals.to_vec(),
                contributions,
            });
        debug_assert!(
            partial.contributions <= expected_total,
            "reduction {key:?} over-contributed: {} > {expected_total}",
            partial.contributions
        );
        if partial.contributions >= expected_total {
            let done = self.pending.remove(&key).unwrap();
            Some(ReductionResult {
                array,
                seq,
                vals: done.acc,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn combine_semantics() {
        let mut acc = vec![1.0, 5.0];
        ReduceOp::Sum.combine(&mut acc, &[2.0, 3.0]);
        assert_eq!(acc, vec![3.0, 8.0]);
        let mut acc = vec![1.0, 5.0];
        ReduceOp::Max.combine(&mut acc, &[2.0, 3.0]);
        assert_eq!(acc, vec![2.0, 5.0]);
        let mut acc = vec![1.0, 5.0];
        ReduceOp::Min.combine(&mut acc, &[2.0, 3.0]);
        assert_eq!(acc, vec![1.0, 3.0]);
    }

    #[test]
    fn combine_extends_short_accumulator() {
        let mut acc = vec![1.0];
        ReduceOp::Sum.combine(&mut acc, &[2.0, 3.0]);
        assert_eq!(acc, vec![3.0, 3.0]);
        let mut acc = vec![];
        ReduceOp::Max.combine(&mut acc, &[2.0]);
        assert_eq!(acc, vec![2.0]);
    }

    #[test]
    fn partial_accumulates() {
        let mut p = Partial::first(ReduceOp::Sum, &[1.0]);
        p.add(ReduceOp::Sum, &[2.0]);
        assert_eq!(p.contributions, 2);
        assert_eq!(p.acc, vec![3.0]);
        let q = Partial::first(ReduceOp::Sum, &[10.0]);
        let mut p2 = p.clone();
        p2.merge(&q);
        assert_eq!(p2.contributions, 3);
        assert_eq!(p2.acc, vec![13.0]);
    }

    #[test]
    fn collector_completes_at_expected_total() {
        let mut c = ReductionCollector::new();
        let a = ArrayId(0);
        assert!(c.offer(a, 1, ReduceOp::Sum, &[1.0], 2, 5).is_none());
        assert!(c.offer(a, 1, ReduceOp::Sum, &[2.0], 2, 5).is_none());
        let done = c.offer(a, 1, ReduceOp::Sum, &[3.0], 1, 5).unwrap();
        assert_eq!(done.vals, vec![6.0]);
        assert_eq!(done.seq, 1);
        assert_eq!(c.pending.len(), 0);
    }

    #[test]
    fn collector_tracks_epochs_independently() {
        let mut c = ReductionCollector::new();
        let a = ArrayId(0);
        assert!(c.offer(a, 1, ReduceOp::Max, &[1.0], 1, 2).is_none());
        assert!(c.offer(a, 2, ReduceOp::Max, &[9.0], 1, 2).is_none());
        assert_eq!(c.pending.len(), 2);
        let r1 = c.offer(a, 1, ReduceOp::Max, &[5.0], 1, 2).unwrap();
        assert_eq!(r1.vals, vec![5.0]);
        let r2 = c.offer(a, 2, ReduceOp::Max, &[3.0], 1, 2).unwrap();
        assert_eq!(r2.vals, vec![9.0]);
    }

    #[test]
    fn single_contribution_epoch_completes_immediately() {
        let mut c = ReductionCollector::new();
        let r = c.offer(ArrayId(7), 0, ReduceOp::Min, &[4.0], 1, 1).unwrap();
        assert_eq!(r.vals, vec![4.0]);
        assert_eq!(r.array, ArrayId(7));
    }

    proptest! {
        #[test]
        fn sum_reduction_order_independent(
            contribs in proptest::collection::vec(
                proptest::collection::vec(-1e6f64..1e6, 3), 1..20),
            shuffle_seed in any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let total = contribs.len() as u64;
            let run = |order: &[Vec<f64>]| {
                let mut c = ReductionCollector::new();
                let mut result = None;
                for v in order {
                    if let Some(r) = c.offer(ArrayId(0), 0, ReduceOp::Sum, v, 1, total) {
                        result = Some(r);
                    }
                }
                result.unwrap().vals
            };
            let base = run(&contribs);
            let mut shuffled = contribs.clone();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(shuffle_seed);
            shuffled.shuffle(&mut rng);
            let alt = run(&shuffled);
            for (x, y) in base.iter().zip(&alt) {
                prop_assert!((x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0));
            }
        }

        #[test]
        fn max_min_reduction_exact_any_order(
            contribs in proptest::collection::vec(-1e6f64..1e6, 1..50),
        ) {
            let total = contribs.len() as u64;
            let mut c = ReductionCollector::new();
            let mut done = None;
            for &v in &contribs {
                if let Some(r) = c.offer(ArrayId(0), 0, ReduceOp::Max, &[v], 1, total) {
                    done = Some(r);
                }
            }
            let expect = contribs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(done.unwrap().vals, vec![expect]);
        }
    }
}
