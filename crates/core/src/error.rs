//! The unified control-plane error type.
//!
//! Every fallible control-plane call — [`SchedulerClient`],
//! [`CharmOperator::submit`], the serving ingest queue, the federation
//! handle — speaks the one [`SchedulerError`] enum.
//!
//! [`SchedulerClient`]: crate::client::SchedulerClient
//! [`CharmOperator::submit`]: crate::operator::CharmOperator::submit

/// Errors surfaced by the control-plane API (client, operator and the
/// serving ingest path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerError {
    /// The spec failed validation (bad replica bounds, non-positive
    /// walltime estimate, …).
    InvalidSpec(String),
    /// A job with this name already exists.
    AlreadyExists(String),
    /// No job with this name is known to the control plane.
    UnknownJob(String),
    /// The job already reached a terminal phase; cancelling it is
    /// meaningless.
    AlreadyTerminal(String),
    /// The serving front-end is shutting down (or the operator stopped
    /// accepting); the submission was not enqueued.
    QueueClosed,
}

impl std::fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerError::InvalidSpec(m) => write!(f, "invalid spec: {m}"),
            SchedulerError::AlreadyExists(n) => write!(f, "job {n:?} already exists"),
            SchedulerError::UnknownJob(n) => write!(f, "job {n:?} not found"),
            SchedulerError::AlreadyTerminal(n) => write!(f, "job {n:?} already finished"),
            SchedulerError::QueueClosed => write!(f, "submission queue closed"),
        }
    }
}

impl std::error::Error for SchedulerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(
            SchedulerError::InvalidSpec("min > max".into()).to_string(),
            "invalid spec: min > max"
        );
        assert_eq!(
            SchedulerError::UnknownJob("j1".into()).to_string(),
            "job \"j1\" not found"
        );
        assert_eq!(
            SchedulerError::QueueClosed.to_string(),
            "submission queue closed"
        );
    }
}
