//! The shared windowed-execution driver.
//!
//! Applications run as chare arrays that iterate autonomously within a
//! *window* of iterations and contribute to a reduction at the window's
//! end. The driver broadcasts the window-start message, waits for the
//! reduction, and — between windows — applies pending CCS rescale
//! requests. This is the `AtSync` discipline: at a window boundary no
//! application messages are in flight (see the protocol argument in the
//! jacobi module docs), so migration and checkpoint/restart are safe.

use std::collections::HashSet;
use std::time::Duration as StdDuration;

use charm_rt::codec::Writer;
use charm_rt::{ArrayId, Bytes, GreedyLb, LbStrategy, MethodId, RescaleReport, Runtime, WaitError};
use hpc_metrics::Duration;

/// How long a window's (or a query's) reduction may take.
const REDUCTION_TIMEOUT: StdDuration = StdDuration::from_secs(120);

/// The window-start entry method every windowed app implements.
/// Payload: `u64` window length (iterations), `u64` reduction epoch.
pub const M_START: MethodId = 1;

/// Result of one completed window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    /// Reduction values produced by the app (app-specific meaning;
    /// Jacobi2D reports `[max_residual]`, LeanMD `[kinetic_energy]`).
    pub values: Vec<f64>,
    /// Wall-clock time of the window (broadcast → reduction complete).
    pub duration: Duration,
    /// First iteration of the window (0-based).
    pub start_iter: u64,
    /// One past the last iteration executed.
    pub end_iter: u64,
}

impl WindowResult {
    /// Mean wall-clock time per iteration in this window.
    pub fn time_per_iter(&self) -> Duration {
        let n = (self.end_iter - self.start_iter).max(1);
        Duration::from_secs(self.duration.as_secs() / n as f64)
    }
}

/// Drives a windowed application: owns the runtime, the iteration
/// cursor, and the reduction epoch counter.
pub struct IterativeDriver {
    /// The underlying runtime (public: apps layer helpers on top).
    pub rt: Runtime,
    /// The application's chare array.
    pub arr: ArrayId,
    iter: u64,
    seq: u64,
}

impl IterativeDriver {
    /// Wraps a runtime + array; iteration counter starts at zero.
    pub fn new(rt: Runtime, arr: ArrayId) -> Self {
        IterativeDriver {
            rt,
            arr,
            iter: 0,
            seq: 0,
        }
    }

    /// Current PE count.
    pub fn num_pes(&self) -> usize {
        self.rt.num_pes()
    }

    /// Runs one window of `iters` iterations and waits for its
    /// completion reduction.
    pub fn run_window(&mut self, iters: u64) -> Result<WindowResult, WaitError> {
        assert!(iters >= 1, "window must run at least one iteration");
        let start_iter = self.iter;
        let seq = self.seq;
        self.seq += 1;
        let mut w = Writer::new();
        w.u64(iters).u64(seq);
        let started = std::time::Instant::now();
        self.rt.broadcast(self.arr, M_START, w.finish());
        let red = self.rt.wait_reduction(self.arr, REDUCTION_TIMEOUT)?;
        debug_assert_eq!(red.seq, seq, "window reductions must complete in order");
        self.iter += iters;
        Ok(WindowResult {
            values: red.vals,
            duration: Duration::from_secs(started.elapsed().as_secs_f64()),
            start_iter,
            end_iter: self.iter,
        })
    }

    /// Applies the latest pending CCS rescale request, if any — call
    /// between windows (the sync boundary).
    pub fn poll_rescale(&mut self, lb: &dyn LbStrategy) -> Option<RescaleReport> {
        self.rt.poll_rescale(lb)
    }

    /// Rescales directly (used by overhead benchmarks).
    pub fn rescale(&mut self, new_pes: usize) -> RescaleReport {
        self.rt.rescale(new_pes, &GreedyLb)
    }

    /// Runs a load-balance step at the current boundary.
    pub fn load_balance(&mut self, lb: &dyn LbStrategy) -> charm_rt::LbReport {
        self.rt.run_lb(lb, &HashSet::new())
    }

    /// Broadcasts an app-specific query method carrying a fresh
    /// reduction epoch and returns the reduction values — used for
    /// checksums in equivalence tests.
    pub fn query(&mut self, method: MethodId) -> Result<Vec<f64>, WaitError> {
        let seq = self.seq;
        self.seq += 1;
        let mut w = Writer::new();
        w.u64(seq);
        self.rt.broadcast(self.arr, method, w.finish());
        let red = self.rt.wait_reduction(self.arr, REDUCTION_TIMEOUT)?;
        Ok(red.vals)
    }

    /// Sends a raw broadcast (no reduction implied).
    pub fn broadcast(&self, method: MethodId, data: Bytes) {
        self.rt.broadcast(self.arr, method, data);
    }

    /// Shuts the runtime down.
    pub fn shutdown(self) {
        self.rt.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_per_iter_divides_by_window_length() {
        let wr = WindowResult {
            values: vec![],
            duration: Duration::from_secs(2.0),
            start_iter: 10,
            end_iter: 20,
        };
        assert!((wr.time_per_iter().as_secs() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn time_per_iter_handles_degenerate_window() {
        let wr = WindowResult {
            values: vec![],
            duration: Duration::from_secs(1.0),
            start_iter: 5,
            end_iter: 5,
        };
        assert_eq!(wr.time_per_iter().as_secs(), 1.0);
    }
}
