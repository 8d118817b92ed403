//! Phased shutdown.
//!
//! Shutting a pool down is three distinct phases, in order (the nebula
//! resource-manager pattern):
//!
//! 1. **Drain** — stop accepting new work; in-flight work finishes (or
//!    is forcibly retired by the caller's policy).
//! 2. **Cleanup** — release per-resource state: stop executors, return
//!    their slots. Only legal once draining has begun.
//! 3. **Terminate** — tear down the background machinery (threads,
//!    queues, stores). Only legal after cleanup.
//!
//! [`Lifecycle`] enforces the order at runtime (a skipped phase is a
//! caller bug and panics).

/// The shutdown phase a pool or runtime is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownPhase {
    /// Accepting and executing work.
    Running,
    /// No new work; in-flight work finishing.
    Draining,
    /// Per-resource state being released.
    Cleanup,
    /// Fully shut down.
    Terminated,
}

/// A phase tracker enforcing drain → cleanup → terminate order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lifecycle {
    phase: ShutdownPhase,
}

impl Default for Lifecycle {
    fn default() -> Self {
        Lifecycle::new()
    }
}

impl Lifecycle {
    /// A running lifecycle.
    pub fn new() -> Lifecycle {
        Lifecycle {
            phase: ShutdownPhase::Running,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> ShutdownPhase {
        self.phase
    }

    /// Whether new work may still be accepted.
    pub fn is_accepting(&self) -> bool {
        self.phase == ShutdownPhase::Running
    }

    /// Running → Draining.
    ///
    /// # Panics
    /// If shutdown already began.
    pub fn begin_drain(&mut self) {
        assert_eq!(
            self.phase,
            ShutdownPhase::Running,
            "drain must start from Running"
        );
        self.phase = ShutdownPhase::Draining;
    }

    /// Draining → Cleanup.
    ///
    /// # Panics
    /// If called before [`Lifecycle::begin_drain`] (phases cannot be
    /// skipped) or after cleanup already began.
    pub fn begin_cleanup(&mut self) {
        assert_eq!(
            self.phase,
            ShutdownPhase::Draining,
            "cleanup must follow drain"
        );
        self.phase = ShutdownPhase::Cleanup;
    }

    /// Cleanup → Terminated.
    ///
    /// # Panics
    /// If called before [`Lifecycle::begin_cleanup`].
    pub fn terminate(&mut self) {
        assert_eq!(
            self.phase,
            ShutdownPhase::Cleanup,
            "terminate must follow cleanup"
        );
        self.phase = ShutdownPhase::Terminated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_run_in_order() {
        let mut lc = Lifecycle::new();
        assert!(lc.is_accepting());
        lc.begin_drain();
        assert!(!lc.is_accepting());
        lc.begin_cleanup();
        lc.terminate();
        assert_eq!(lc.phase(), ShutdownPhase::Terminated);
    }

    #[test]
    fn skipping_a_phase_panics() {
        let mut lc = Lifecycle::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lc.begin_cleanup()));
        assert!(err.is_err(), "cleanup before drain must panic");
    }
}
