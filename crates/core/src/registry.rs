//! Interning of job names to dense [`JobId`]s.
//!
//! Every engine (the watch-driven operator, the DES) owns one
//! [`JobRegistry`] per run. Names cross the registry exactly twice: on
//! the way *in* (client submission / workload definition, where the
//! name is interned to the `JobId` all hot-path structures are keyed
//! by) and on the way *out* (pod names, store objects, event logs,
//! final reports). Nothing between those edges — policy decisions,
//! [`ClusterView`](crate::view::ClusterView) maintenance, utilization
//! samples — touches a `String`. A name is interned as one `Arc<str>`
//! ([`JobRegistry::shared_name`]), which the operator hands on to the
//! job's pods as their owner instead of copying it.
//!
//! Ids are assigned contiguously from 0 in interning order, and engines
//! intern in admission order, so ascending `JobId` is submission order
//! (equal-timestamp ties are interned in deterministic name order).
//! That makes `JobId` the canonical final tie-breaker of every
//! scheduling ordering.

use std::collections::HashMap;
use std::sync::Arc;

use hpc_metrics::JobId;

/// A name ↔ [`JobId`] interning table (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct JobRegistry {
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, JobId>,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id for `name`, interning it if unseen. Idempotent: a name
    /// keeps its id for the registry's lifetime.
    pub fn intern(&mut self, name: &str) -> JobId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = JobId::from_index(self.names.len());
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, id);
        id
    }

    /// The id for `name`, if it has been interned.
    pub fn id(&self, name: &str) -> Option<JobId> {
        self.by_name.get(name).copied()
    }

    /// The name behind `id`.
    ///
    /// Panics on an id this registry never issued — ids are not
    /// transferable between runs.
    pub fn name(&self, id: JobId) -> &str {
        &self.names[id.index()]
    }

    /// The name behind `id` as the registry's own shared string: clone
    /// it (a reference-count bump) to hold the name without copying it.
    ///
    /// Panics on an id this registry never issued.
    pub fn shared_name(&self, id: JobId) -> &Arc<str> {
        &self.names[id.index()]
    }

    /// Number of interned jobs.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All `(id, name)` pairs in id (= interning) order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (JobId::from_index(i), &**n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_densely_and_idempotently() {
        let mut r = JobRegistry::new();
        let a = r.intern("job-a");
        let b = r.intern("job-b");
        assert_eq!(a, JobId(0));
        assert_eq!(b, JobId(1));
        assert_eq!(r.intern("job-a"), a, "re-intern returns the same id");
        assert_eq!(r.len(), 2);
        assert_eq!(r.name(a), "job-a");
        assert_eq!(&**r.shared_name(a), "job-a");
        let pinned = Arc::clone(r.shared_name(b));
        assert!(
            Arc::ptr_eq(&pinned, r.shared_name(b)),
            "one string per name"
        );
        assert_eq!(r.id("job-b"), Some(b));
        assert_eq!(r.id("ghost"), None);
        let pairs: Vec<(JobId, &str)> = r.iter().collect();
        assert_eq!(pairs, vec![(JobId(0), "job-a"), (JobId(1), "job-b")]);
    }

    #[test]
    #[should_panic]
    fn unknown_id_panics() {
        let r = JobRegistry::new();
        let _ = r.name(JobId(3));
    }
}
