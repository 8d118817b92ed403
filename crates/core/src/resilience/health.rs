//! Per-executor health checking by consecutive failures.
//!
//! The nebula resource-lifecycle pattern: every executor in the pool
//! carries a consecutive-failure count; a success resets it, and at the
//! threshold the executor is declared unhealthy and evicted from the
//! pool. Tracking *consecutive* rather than total failures means a
//! long-lived executor with occasional hiccups is never evicted, while
//! one that goes dark is evicted after exactly `threshold` misses.

use std::collections::HashMap;

use hpc_metrics::JobId;

/// Tracks consecutive failures per executor and flags eviction at the
/// threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthChecker {
    threshold: u32,
    misses: HashMap<JobId, u32>,
}

impl HealthChecker {
    /// A checker evicting after `threshold` consecutive failures.
    pub fn new(threshold: u32) -> HealthChecker {
        assert!(threshold > 0, "a zero threshold would evict on sight");
        HealthChecker {
            threshold,
            misses: HashMap::new(),
        }
    }

    /// Records a failed health probe (missed heartbeat) for `id`.
    /// Returns `true` when the consecutive count reaches the threshold
    /// — the executor is unhealthy and must be evicted; its count is
    /// reset so a relaunched attempt starts clean.
    pub fn record_miss(&mut self, id: JobId) -> bool {
        let count = self.misses.entry(id).or_insert(0);
        *count += 1;
        if *count >= self.threshold {
            self.misses.remove(&id);
            true
        } else {
            false
        }
    }

    /// Drops all state for `id` (the executor left the pool).
    pub fn forget(&mut self, id: JobId) {
        self.misses.remove(&id);
    }

    /// Consecutive misses currently held against `id`.
    #[cfg(test)]
    pub(crate) fn misses(&self, id: JobId) -> u32 {
        self.misses.get(&id).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_at_consecutive_threshold_only() {
        let mut h = HealthChecker::new(3);
        let a = JobId(1);
        assert!(!h.record_miss(a));
        assert!(!h.record_miss(a));
        h.forget(a);
        assert_eq!(h.misses(a), 0, "forgetting resets the count");
        assert!(!h.record_miss(a));
        assert!(!h.record_miss(a));
        assert!(h.record_miss(a), "third consecutive miss evicts");
        assert_eq!(h.misses(a), 0, "eviction resets for the relaunch");
    }

    #[test]
    fn executors_are_tracked_independently() {
        let mut h = HealthChecker::new(2);
        assert!(!h.record_miss(JobId(1)));
        assert!(!h.record_miss(JobId(2)));
        assert!(h.record_miss(JobId(1)));
        assert_eq!(h.misses(JobId(2)), 1);
        h.forget(JobId(2));
        assert_eq!((h.misses(JobId(1)), h.misses(JobId(2))), (0, 0));
    }
}
