//! Cluster event log.
//!
//! A timestamped, append-only record of notable control-plane actions
//! (job admitted, pods created, rescale issued, …). The operator writes
//! to it; tests and the examples read it back.

use std::sync::{Arc, Mutex};

use hpc_metrics::sync::locked;
use hpc_metrics::SimTime;

/// One recorded event. The kind is a constant and the subject a shared
/// name (the operator passes the one its job registry holds), so an
/// entry copies neither.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When it happened.
    pub at: SimTime,
    /// Subject (job or pod name).
    pub subject: Arc<str>,
    /// What happened (e.g. "Created", "Shrunk").
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

/// Shared append-only event log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Arc<Mutex<Vec<Event>>>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(
        &self,
        at: SimTime,
        subject: impl Into<Arc<str>>,
        kind: &'static str,
        message: impl Into<String>,
    ) {
        locked(&self.inner).push(Event {
            at,
            subject: subject.into(),
            kind,
            message: message.into(),
        });
    }

    /// A snapshot of all events in record order.
    pub fn snapshot(&self) -> Vec<Event> {
        locked(&self.inner).clone()
    }

    /// Events of a given kind.
    pub fn of_kind(&self, kind: &str) -> Vec<Event> {
        locked(&self.inner)
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Events concerning a subject.
    pub fn of_subject(&self, subject: &str) -> Vec<Event> {
        locked(&self.inner)
            .iter()
            .filter(|e| *e.subject == *subject)
            .cloned()
            .collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        locked(&self.inner).len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let log = EventLog::new();
        log.record(SimTime::ZERO, "j1", "Created", "16 replicas");
        log.record(SimTime::from_secs(5.0), "j1", "Shrink", "16 -> 8");
        log.record(SimTime::from_secs(9.0), "j2", "Created", "4 replicas");
        assert_eq!(log.len(), 3);
        assert_eq!(log.of_kind("Created").len(), 2);
        assert_eq!(log.of_subject("j1").len(), 2);
        assert_eq!(log.of_subject("j1")[1].kind, "Shrink");
    }

    #[test]
    fn clones_share_storage() {
        let log = EventLog::new();
        let clone = log.clone();
        log.record(SimTime::ZERO, "x", "K", "m");
        assert_eq!(clone.len(), 1);
        assert!(!clone.is_empty());
    }

    #[test]
    fn snapshot_preserves_order() {
        let log = EventLog::new();
        for i in 0..10 {
            log.record(SimTime::from_secs(i as f64), "s", "K", format!("{i}"));
        }
        let snap = log.snapshot();
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.message, i.to_string());
        }
    }
}
