//! Job executors: how a scheduled job actually runs.
//!
//! The operator is executor-agnostic. Two implementations:
//!
//! * [`CharmExecutor`] — launches a *real* `charm-rt` application
//!   (Jacobi2D or the synthetic app) on a background thread, one PE
//!   thread per worker replica, rescaled through the CCS channel exactly
//!   like the paper's operator signals its Charm++ jobs. Used for the
//!   "Actual" experiments.
//! * [`ModelExecutor`] — advances job progress analytically on the
//!   harness clock using a speed model (iterations/s at a given replica
//!   count) and a rescale-overhead model. Used for deterministic
//!   operator tests on virtual time and for operator-vs-DES
//!   cross-validation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use charm_apps::{JacobiApp, JacobiConfig, SyntheticApp, SyntheticConfig};
use charm_rt::{GreedyLb, RescaleReport, RuntimeConfig};
use crossbeam::channel::Receiver;
use hpc_metrics::{Clock, Duration, SimTime};

use crate::crd::{AppSpec, CharmJobSpec};

/// Observed execution state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStatus {
    /// Application still coming up or mid-window.
    Running {
        /// Iterations completed so far.
        iters: u64,
    },
    /// All iterations done.
    Finished,
}

/// A handle to one launched job.
pub trait ExecHandle: Send {
    /// Asks the application to rescale to `replicas` PEs at its next
    /// sync boundary (the CCS signal of §3.1).
    fn request_rescale(&mut self, replicas: u32);

    /// Polls execution state.
    fn status(&mut self) -> ExecStatus;

    /// Returns (and clears) the acknowledgement of the last rescale
    /// request, if the application has applied it.
    fn rescale_acked(&mut self) -> Option<RescaleReport>;

    /// Requests early termination and releases resources.
    fn stop(&mut self);

    /// Iterations preserved by the job's most recent periodic
    /// checkpoint, `rollback` before `now` (the kernel's
    /// `Stop::Evicted` tail). `None` means the executor cannot recover
    /// partial progress (the fault layer then restarts the job from
    /// scratch).
    fn checkpointed_iters(&mut self, now: SimTime, rollback: Duration) -> Option<f64> {
        let _ = (now, rollback);
        None
    }
}

/// Launches jobs.
pub trait Executor: Send {
    /// Starts `spec` with `replicas` PEs.
    fn launch(&mut self, spec: &CharmJobSpec, replicas: u32) -> Box<dyn ExecHandle>;
}

// ---------------------------------------------------------------------
// Real executor
// ---------------------------------------------------------------------

/// Runs real charm-rt applications on background threads.
#[derive(Default)]
pub struct CharmExecutor;

struct CharmHandle {
    ccs: charm_rt::CcsClient,
    iters: Arc<AtomicU64>,
    finished: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    pending_ack: Option<Receiver<RescaleReport>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Executor for CharmExecutor {
    fn launch(&mut self, spec: &CharmJobSpec, replicas: u32) -> Box<dyn ExecHandle> {
        let iters = Arc::new(AtomicU64::new(0));
        let finished = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let rt_cfg = RuntimeConfig::new(replicas as usize).with_name(spec.name.clone());

        let (ccs, join) = match &spec.app {
            AppSpec::Jacobi {
                grid,
                blocks,
                total_iters,
                window,
            } => {
                let cfg = JacobiConfig::new(*grid, *blocks, *blocks);
                let mut app = JacobiApp::new(cfg, rt_cfg);
                let ccs = app.driver.rt.ccs_client();
                let (total, window) = (*total_iters, (*window).max(1));
                let (iters, finished, stop) =
                    (Arc::clone(&iters), Arc::clone(&finished), Arc::clone(&stop));
                let join = std::thread::spawn(move || {
                    let mut done = 0u64;
                    while done < total && !stop.load(Ordering::Acquire) {
                        let step = window.min(total - done);
                        if app.run_window(step).is_err() {
                            break;
                        }
                        done += step;
                        iters.store(done, Ordering::Release);
                        app.driver.poll_rescale(&GreedyLb);
                    }
                    finished.store(true, Ordering::Release);
                    app.shutdown();
                });
                (ccs, join)
            }
            AppSpec::Synthetic {
                chares,
                spin,
                total_iters,
                window,
            } => {
                let cfg = SyntheticConfig::uniform(*chares, *spin);
                let mut app = SyntheticApp::new(cfg, rt_cfg);
                let ccs = app.driver.rt.ccs_client();
                let (total, window) = (*total_iters, (*window).max(1));
                let (iters, finished, stop) =
                    (Arc::clone(&iters), Arc::clone(&finished), Arc::clone(&stop));
                let join = std::thread::spawn(move || {
                    let mut done = 0u64;
                    while done < total && !stop.load(Ordering::Acquire) {
                        let step = window.min(total - done);
                        if app.run_window(step).is_err() {
                            break;
                        }
                        done += step;
                        iters.store(done, Ordering::Release);
                        app.driver.poll_rescale(&GreedyLb);
                    }
                    finished.store(true, Ordering::Release);
                    app.shutdown();
                });
                (ccs, join)
            }
            AppSpec::Modeled { .. } => {
                panic!("CharmExecutor cannot run AppSpec::Modeled; use ModelExecutor")
            }
        };
        Box::new(CharmHandle {
            ccs,
            iters,
            finished,
            stop,
            pending_ack: None,
            join: Some(join),
        })
    }
}

impl ExecHandle for CharmHandle {
    fn request_rescale(&mut self, replicas: u32) {
        self.pending_ack = Some(self.ccs.request_rescale(replicas as usize));
    }

    fn status(&mut self) -> ExecStatus {
        if self.finished.load(Ordering::Acquire) {
            ExecStatus::Finished
        } else {
            ExecStatus::Running {
                iters: self.iters.load(Ordering::Acquire),
            }
        }
    }

    fn rescale_acked(&mut self) -> Option<RescaleReport> {
        let rx = self.pending_ack.as_ref()?;
        match rx.try_recv() {
            Ok(report) => {
                self.pending_ack = None;
                Some(report)
            }
            Err(_) => None,
        }
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
    }
}

impl Drop for CharmHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

// ---------------------------------------------------------------------
// Modeled executor
// ---------------------------------------------------------------------

/// Iterations/second of a job at a given replica count.
pub type SpeedModel = Arc<dyn Fn(&CharmJobSpec, u32) -> f64 + Send + Sync>;
/// Wall-clock overhead of a rescale `from → to` replicas.
pub type OverheadModel = Arc<dyn Fn(&CharmJobSpec, u32, u32) -> Duration + Send + Sync>;

/// Advances job progress analytically on a clock.
pub struct ModelExecutor {
    clock: Arc<dyn Clock>,
    speed: SpeedModel,
    overhead: OverheadModel,
}

impl ModelExecutor {
    /// An executor on `clock` with the given models.
    pub fn new(clock: Arc<dyn Clock>, speed: SpeedModel, overhead: OverheadModel) -> Self {
        ModelExecutor {
            clock,
            speed,
            overhead,
        }
    }

    /// Linear-speedup model (`replicas` iters/s) with zero overhead —
    /// handy for tests.
    pub fn ideal(clock: Arc<dyn Clock>) -> Self {
        ModelExecutor::new(
            clock,
            Arc::new(|_, replicas| f64::from(replicas)),
            Arc::new(|_, _, _| Duration::ZERO),
        )
    }
}

struct ModelHandle {
    clock: Arc<dyn Clock>,
    spec: CharmJobSpec,
    speed: SpeedModel,
    overhead: OverheadModel,
    replicas: u32,
    iters: f64,
    total: f64,
    last: SimTime,
    /// In-flight rescale: (completes_at, target, report-to-ack).
    rescale: Option<(SimTime, u32)>,
    unacked: Option<RescaleReport>,
    stopped: bool,
}

impl ModelHandle {
    fn advance(&mut self, now: SimTime) {
        // Resolve a pending rescale window first: progress is paused
        // inside it, and the new replica count applies at its end.
        if let Some((until, target)) = self.rescale {
            if now >= until {
                self.last = self.last.max(until);
                let from = self.replicas;
                self.replicas = target;
                self.rescale = None;
                self.unacked = Some(RescaleReport {
                    kind: if target < from {
                        charm_rt::RescaleKind::Shrink
                    } else {
                        charm_rt::RescaleKind::Expand
                    },
                    // The default OverheadModel curves model the
                    // paper's checkpoint/restart protocol.
                    mode: charm_rt::RescaleMode::FullRestart,
                    from_pes: from as usize,
                    to_pes: target as usize,
                    stages: charm_rt::StageTimings::default(),
                    migrated: 0,
                    bytes_moved: 0,
                    checkpoint_bytes: 0,
                });
            } else {
                // Still inside the overhead window: time passes, no work.
                self.last = self.last.max(now);
                return;
            }
        }
        if now > self.last {
            let dt = (now - self.last).as_secs();
            self.iters += (self.speed)(&self.spec, self.replicas) * dt;
            self.last = now;
        }
    }
}

impl Executor for ModelExecutor {
    fn launch(&mut self, spec: &CharmJobSpec, replicas: u32) -> Box<dyn ExecHandle> {
        Box::new(ModelHandle {
            clock: Arc::clone(&self.clock),
            spec: spec.clone(),
            speed: Arc::clone(&self.speed),
            overhead: Arc::clone(&self.overhead),
            replicas,
            iters: 0.0,
            total: spec.app.total_iters() as f64,
            last: self.clock.now(),
            rescale: None,
            unacked: None,
            stopped: false,
        })
    }
}

impl ExecHandle for ModelHandle {
    fn request_rescale(&mut self, replicas: u32) {
        let now = self.clock.now();
        self.advance(now);
        let cost = (self.overhead)(&self.spec, self.replicas, replicas);
        self.rescale = Some((now + cost, replicas));
    }

    fn status(&mut self) -> ExecStatus {
        let now = self.clock.now();
        self.advance(now);
        if self.stopped || self.iters >= self.total {
            ExecStatus::Finished
        } else {
            ExecStatus::Running {
                iters: self.iters as u64,
            }
        }
    }

    fn rescale_acked(&mut self) -> Option<RescaleReport> {
        let now = self.clock.now();
        self.advance(now);
        self.unacked.take()
    }

    fn stop(&mut self) {
        self.stopped = true;
    }

    fn checkpointed_iters(&mut self, now: SimTime, rollback: Duration) -> Option<f64> {
        self.advance(now);
        // Progress since the last checkpoint is lost: replay the
        // modeled speed backwards over that tail.
        let lost = (self.speed)(&self.spec, self.replicas) * rollback.as_secs();
        Some((self.iters - lost).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_metrics::VirtualClock;

    fn spec(total: u64) -> CharmJobSpec {
        CharmJobSpec {
            name: "j".into(),
            min_replicas: 2,
            max_replicas: 8,
            priority: 3,
            walltime_estimate: None,
            app: AppSpec::Modeled { total_iters: total },
        }
    }

    #[test]
    fn model_progresses_linearly_with_replicas() {
        let clock = VirtualClock::new();
        let mut ex = ModelExecutor::ideal(Arc::new(clock.clone()));
        let mut h = ex.launch(&spec(100), 4);
        clock.advance(Duration::from_secs(10.0)); // 40 iters
        assert_eq!(h.status(), ExecStatus::Running { iters: 40 });
        clock.advance(Duration::from_secs(15.0)); // 100 iters total
        assert_eq!(h.status(), ExecStatus::Finished);
    }

    #[test]
    fn model_rescale_pauses_then_changes_speed() {
        let clock = VirtualClock::new();
        let mut ex = ModelExecutor::new(
            Arc::new(clock.clone()),
            Arc::new(|_, r| f64::from(r)),
            Arc::new(|_, _, _| Duration::from_secs(5.0)),
        );
        let mut h = ex.launch(&spec(1000), 4);
        clock.advance(Duration::from_secs(10.0)); // 40 iters
        h.request_rescale(8);
        assert!(h.rescale_acked().is_none(), "ack only after overhead");
        clock.advance(Duration::from_secs(5.0)); // overhead window: no progress
        let ack = h.rescale_acked().expect("rescale applied");
        assert_eq!(ack.to_pes, 8);
        assert_eq!(h.status(), ExecStatus::Running { iters: 40 });
        clock.advance(Duration::from_secs(10.0)); // 80 more at 8/s
        assert_eq!(h.status(), ExecStatus::Running { iters: 120 });
    }

    #[test]
    fn model_checkpointed_iters_roll_back_to_the_boundary() {
        let clock = VirtualClock::new();
        let mut ex = ModelExecutor::ideal(Arc::new(clock.clone()));
        let mut h = ex.launch(&spec(100_000), 4);
        // 280 iters at 4/s. Checkpoints every 30 s: last boundary at
        // t=60, 10 s rolled back → 240 iters kept.
        clock.advance(Duration::from_secs(70.0));
        let kept = h
            .checkpointed_iters(clock.now(), Duration::from_secs(10.0))
            .unwrap();
        assert!((kept - 240.0).abs() < 1e-9, "{kept}");
    }

    #[test]
    fn model_stop_finishes_immediately() {
        let clock = VirtualClock::new();
        let mut ex = ModelExecutor::ideal(Arc::new(clock.clone()));
        let mut h = ex.launch(&spec(1_000_000), 1);
        h.stop();
        assert_eq!(h.status(), ExecStatus::Finished);
    }

    #[test]
    fn charm_executor_runs_synthetic_to_completion() {
        let mut ex = CharmExecutor;
        let spec = CharmJobSpec {
            name: "s".into(),
            min_replicas: 1,
            max_replicas: 4,
            priority: 1,
            walltime_estimate: None,
            app: AppSpec::Synthetic {
                chares: 8,
                spin: 50,
                total_iters: 20,
                window: 5,
            },
        };
        let mut h = ex.launch(&spec, 2);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            match h.status() {
                ExecStatus::Finished => break,
                _ if std::time::Instant::now() > deadline => panic!("job hung"),
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
    }

    #[test]
    fn charm_executor_rescales_live_job() {
        let mut ex = CharmExecutor;
        let spec = CharmJobSpec {
            name: "s".into(),
            min_replicas: 1,
            max_replicas: 4,
            priority: 1,
            walltime_estimate: None,
            app: AppSpec::Synthetic {
                chares: 8,
                spin: 2000,
                total_iters: 400,
                window: 4,
            },
        };
        let mut h = ex.launch(&spec, 2);
        h.request_rescale(4);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let report = loop {
            if let Some(r) = h.rescale_acked() {
                break r;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "rescale never acknowledged"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert_eq!(report.to_pes, 4);
        h.stop();
    }

    #[test]
    #[should_panic(expected = "ModelExecutor")]
    fn charm_executor_rejects_modeled_spec() {
        let mut ex = CharmExecutor;
        let _ = ex.launch(&spec(10), 2);
    }
}
