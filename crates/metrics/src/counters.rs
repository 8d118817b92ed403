//! What a run counts, and how it is read. Each layer that counts owns
//! one [`Counters`] and returns it from `counters()`, merged with the
//! counts of the layers it owns, so a reader asks the outermost one:
//! `op.counters()[Counter::SettleRounds]`. A gauge or a high-water mark
//! is not a sum, and is not a [`Counter`]; the bytes a run holds, by
//! column, are one ([`ColumnBytes`]).

use std::ops::Index;

/// One thing a run counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Policy submission-burst dispatches (`on_submit_burst` calls).
    SubmitBursts,
    /// Jobs admitted to a decision inside them.
    Submissions,
    /// Policy completion-burst dispatches (`on_complete_burst` calls).
    CompleteBursts,
    /// Jobs retired inside them.
    Completions,
    /// Jobs cancelled.
    Cancellations,
    /// Rescale actions applied (shrinks and expansions).
    Rescales,
    /// Operator reconcile rounds, over every instant it settled.
    SettleRounds,
    /// Store reads that visited every object.
    FullScans,
    /// 1 once a policy read the view's two priority orders (built together).
    PriorityOrdersBuilt,
    /// 1 once a policy read the view's running jobs by last action.
    RunningActionOrderBuilt,
    /// 1 once a policy read the view's queued jobs by submission.
    QueuedOrderBuilt,
    /// 1 once a policy read the view's running jobs by estimated end.
    RunningEndOrderBuilt,
    /// 1 once a policy read the view's queued jobs by minimum footprint.
    QueuedFootprintBuilt,
    /// Charm entry-method messages sent.
    Messages,
    /// Charm chare migrations.
    Migrations,
    /// Charm checkpoints taken.
    Checkpoints,
}

/// One slot per [`Counter`]; the last variant sets the length.
const SLOTS: usize = Counter::Checkpoints as usize + 1;

/// A count of every [`Counter`], each 0 until added to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters([u64; SLOTS]);

impl Counters {
    /// Adds `n` to `counter`.
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.0[counter as usize] += n;
    }

    /// These counts plus `other`'s, counter by counter.
    pub fn merge(mut self, other: Counters) -> Counters {
        self.0
            .iter_mut()
            .zip(other.0)
            .for_each(|(n, more)| *n += more);
        self
    }
}

impl Index<Counter> for Counters {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

/// The bytes one column of a run's state holds: `len` in use, and
/// `capacity` allocated. A gauge, not a [`Counter`]: read at an
/// instant, summed over no run. A tree's capacity is its elements'
/// (its nodes add a little).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnBytes {
    /// What the column is.
    pub column: &'static str,
    /// Bytes of its elements.
    pub len: usize,
    /// Bytes allocated for it.
    pub capacity: usize,
}

impl ColumnBytes {
    /// A vector's elements and buffer.
    pub fn of_vec<T>(column: &'static str, v: &Vec<T>) -> ColumnBytes {
        let size = std::mem::size_of::<T>();
        ColumnBytes {
            column,
            len: v.len() * size,
            capacity: v.capacity() * size,
        }
    }

    /// `n` elements of `T` held in nodes (a tree): `len` and
    /// `capacity` alike.
    pub fn of_elements<T>(column: &'static str, n: usize) -> ColumnBytes {
        let bytes = n * std::mem::size_of::<T>();
        ColumnBytes {
            column,
            len: bytes,
            capacity: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_merge_and_index() {
        let mut a = Counters::default();
        assert_eq!(a[Counter::FullScans], 0);
        a.add(Counter::FullScans, 2);
        a.add(Counter::FullScans, 1);
        a.add(Counter::Checkpoints, 7);
        let mut b = Counters::default();
        b.add(Counter::FullScans, 10);
        b.add(Counter::SubmitBursts, 1);
        let sum = a.merge(b);
        assert_eq!(sum[Counter::FullScans], 13);
        assert_eq!(sum[Counter::Checkpoints], 7);
        assert_eq!(sum[Counter::SubmitBursts], 1);
        assert_eq!(sum[Counter::Messages], 0);
        assert_eq!(sum, b.merge(a), "merge is a sum");
        assert_eq!(a.merge(Counters::default()), a);
    }
}
