//! Job executors: how a scheduled job actually runs.
//!
//! The operator is executor-agnostic. Two implementations:
//!
//! * [`CharmExecutor`] — launches a *real* `charm-rt` application
//!   (Jacobi2D or the synthetic app) on a background thread, one PE
//!   thread per worker replica, rescaled through the CCS channel exactly
//!   like the paper's operator signals its Charm++ jobs. Used for the
//!   "Actual" experiments.
//! * [`ModelExecutor`] — runs a job through the execution model the DES
//!   runs it through (`hpc_workload::model`: the same [`ScalingModel`] /
//!   [`OverheadModel`] structs, the same [`Progress`] integrator), read
//!   against the harness clock. Used for deterministic operator tests on
//!   virtual time and for operator-vs-DES cross-validation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use charm_apps::{JacobiApp, JacobiConfig, SyntheticApp, SyntheticConfig};
use charm_rt::{GreedyLb, RescaleReport, RuntimeConfig};
use hpc_metrics::{Clock, Duration, SimTime};
use hpc_workload::model::{OverheadModel, Progress, ScalingModel};
use hpc_workload::JobShape;

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

    /// Work preserved by the job's most recent periodic checkpoint,
    /// `rollback` before `now` (the kernel's `Stop::Evicted` tail) —
    /// what [`Executor::launch`] is handed back as `resume` when the job
    /// relaunches. `None` means the executor cannot recover partial
    /// progress (the job then resumes from zero).
    fn checkpointed_iters(&mut self, now: SimTime, rollback: Duration) -> Option<f64> {
        let _ = (now, rollback);
        None
    }
}

/// Launches jobs.
pub trait Executor: Send {
    /// Starts `spec` with `replicas` PEs. `resume` is `Some` exactly when
    /// this is the relaunch of an evicted job: the work its last
    /// checkpoint preserved ([`ExecHandle::checkpointed_iters`]; zero if
    /// it never launched). `None` is a fresh start from zero.
    fn launch(
        &mut self,
        spec: &CharmJobSpec,
        replicas: u32,
        resume: Option<f64>,
    ) -> Box<dyn ExecHandle>;
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
    fn launch(
        &mut self,
        spec: &CharmJobSpec,
        replicas: u32,
        _resume: Option<f64>,
    ) -> Box<dyn ExecHandle> {
        let rt_cfg = RuntimeConfig::new(replicas as usize).with_name(spec.name.clone());
        let (mut driver, window) = match spec.app {
            AppSpec::Jacobi {
                grid,
                blocks,
                window,
                ..
            } => {
                let cfg = JacobiConfig::new(grid, blocks, blocks);
                (JacobiApp::new(cfg, rt_cfg).driver, window)
            }
            AppSpec::Synthetic {
                chares,
                spin,
                window,
                ..
            } => {
                let cfg = SyntheticConfig::uniform(chares, spin);
                (SyntheticApp::new(cfg, rt_cfg).driver, window)
            }
            AppSpec::Modeled { .. } => {
                panic!("CharmExecutor cannot run AppSpec::Modeled; use ModelExecutor")
            }
        };
        let total = spec.app.total_iters().expect("a real app");
        let window = window.max(1);
        let ccs = driver.rt.ccs_client();
        let iters = Arc::new(AtomicU64::new(0));
        let finished = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let join = {
            let (iters, finished, stop) =
                (Arc::clone(&iters), Arc::clone(&finished), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut done = 0u64;
                while done < total && !stop.load(Ordering::Acquire) {
                    let step = window.min(total - done);
                    if driver.run_window(step).is_err() {
                        break;
                    }
                    done += step;
                    iters.store(done, Ordering::Release);
                    driver.poll_rescale(&GreedyLb);
                }
                finished.store(true, Ordering::Release);
                driver.shutdown();
            })
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
    /// Stops the app driver and joins it, re-raising its panic (a PE's,
    /// which the runtime re-raises on the driver) unless this thread is
    /// already unwinding.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(Err(panic)) = self.join.take().map(|join| join.join()) {
            if !std::thread::panicking() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Modeled executor
// ---------------------------------------------------------------------

/// What a modeled job runs under; one copy shared by the executor and
/// every handle it launched.
struct Models {
    /// `None`: every shape speeds up linearly (`replicas` work units per
    /// second) — [`ModelExecutor::ideal`].
    scaling: Option<ScalingModel>,
    overhead: OverheadModel,
}

impl Models {
    fn rate(&self, shape: &JobShape, replicas: u32) -> f64 {
        match &self.scaling {
            Some(scaling) => scaling.job_rate(shape, replicas),
            None => f64::from(replicas),
        }
    }
}

/// Runs jobs through the shared execution model on a clock.
pub struct ModelExecutor {
    clock: Arc<dyn Clock>,
    models: Arc<Models>,
}

impl ModelExecutor {
    /// An executor on `clock` under the given models — the structs a
    /// `sched_sim::SimConfig` carries, so both engines can be handed
    /// the same pair.
    pub fn new(clock: Arc<dyn Clock>, scaling: ScalingModel, overhead: OverheadModel) -> Self {
        Self::under(clock, Some(scaling), overhead)
    }

    /// Linear speedup for every shape (`replicas` work units per second)
    /// and no rescale or recovery cost — handy for tests.
    pub fn ideal(clock: Arc<dyn Clock>) -> Self {
        Self::under(clock, None, OverheadModel::zero())
    }

    fn under(
        clock: Arc<dyn Clock>,
        scaling: Option<ScalingModel>,
        overhead: OverheadModel,
    ) -> Self {
        let models = Arc::new(Models { scaling, overhead });
        ModelExecutor { clock, models }
    }
}

struct ModelHandle {
    clock: Arc<dyn Clock>,
    models: Arc<Models>,
    shape: JobShape,
    replicas: u32,
    progress: Progress,
    /// Target of the in-flight rescale; acknowledged once its pause
    /// window is over.
    rescaling_to: Option<u32>,
    stopped: bool,
}

impl Executor for ModelExecutor {
    fn launch(
        &mut self,
        spec: &CharmJobSpec,
        replicas: u32,
        resume: Option<f64>,
    ) -> Box<dyn ExecHandle> {
        let AppSpec::Modeled { shape } = spec.app else {
            panic!("ModelExecutor runs AppSpec::Modeled only; use CharmExecutor")
        };
        let models = Arc::clone(&self.models);
        // Restoring from a checkpoint costs the recovery window, as in
        // the DES; a start from zero costs nothing.
        let recovery = match resume {
            Some(_) => models.overhead.recovery_total(&shape, replicas),
            None => Duration::ZERO,
        };
        let (now, rate) = (self.clock.now(), models.rate(&shape, replicas));
        Box::new(ModelHandle {
            clock: Arc::clone(&self.clock),
            models,
            shape,
            replicas,
            progress: Progress::launch(now, resume.unwrap_or(0.0), rate, recovery),
            rescaling_to: None,
            stopped: false,
        })
    }
}

impl ExecHandle for ModelHandle {
    fn request_rescale(&mut self, replicas: u32) {
        // From the allocation the last request asked for, acknowledged
        // or not: the new pause window replaces the open one.
        let from = self.rescaling_to.unwrap_or(self.replicas);
        let rate = self.models.rate(&self.shape, replicas);
        let pause = self.models.overhead.job_total(&self.shape, from, replicas);
        self.progress.resize(self.clock.now(), rate, pause);
        self.rescaling_to = Some(replicas);
    }

    fn status(&mut self) -> ExecStatus {
        let now = self.clock.now();
        if self.stopped || now >= self.progress.finishes_at(self.shape.work()) {
            ExecStatus::Finished
        } else {
            ExecStatus::Running {
                iters: self.progress.done_at(now) as u64,
            }
        }
    }

    fn rescale_acked(&mut self) -> Option<RescaleReport> {
        if self.clock.now() < self.progress.pause_until() {
            return None;
        }
        let target = self.rescaling_to.take()?;
        let from = std::mem::replace(&mut self.replicas, target);
        Some(RescaleReport {
            kind: if target < from {
                charm_rt::RescaleKind::Shrink
            } else {
                charm_rt::RescaleKind::Expand
            },
            // The default OverheadModel curves model the paper's
            // checkpoint/restart protocol.
            mode: charm_rt::RescaleMode::FullRestart,
            from_pes: from as usize,
            to_pes: target as usize,
            stages: charm_rt::StageTimings::default(),
            migrated: 0,
            bytes_moved: 0,
            checkpoint_bytes: 0,
        })
    }

    fn stop(&mut self) {
        self.stopped = true;
    }

    fn checkpointed_iters(&mut self, now: SimTime, rollback: Duration) -> Option<f64> {
        // Progress since the last checkpoint is lost.
        self.progress.advance(now);
        self.progress.roll_back(rollback);
        Some(self.progress.done())
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
            app: AppSpec::linear(total as f64, 2, 8),
        }
    }

    #[test]
    #[should_panic(expected = "app driver died")]
    fn dropping_a_handle_re_raises_its_driver_panic() {
        let handle = CharmHandle {
            ccs: charm_rt::CcsEndpoint::new().client(),
            iters: Arc::default(),
            finished: Arc::default(),
            stop: Arc::default(),
            pending_ack: None,
            join: Some(std::thread::spawn(|| panic!("app driver died"))),
        };
        drop(handle);
    }

    #[test]
    fn model_progresses_linearly_with_replicas() {
        let clock = VirtualClock::new();
        let mut ex = ModelExecutor::ideal(Arc::new(clock.clone()));
        let mut h = ex.launch(&spec(100), 4, None);
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
            ScalingModel::default(),
            OverheadModel {
                lb_base: 5.0,
                ..OverheadModel::zero()
            },
        );
        let mut h = ex.launch(&spec(1000), 4, None);
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
        let mut h = ex.launch(&spec(100_000), 4, None);
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
        let mut h = ex.launch(&spec(1_000_000), 1, None);
        h.stop();
        assert_eq!(h.status(), ExecStatus::Finished);
    }

    #[test]
    fn model_status_does_not_depend_on_how_often_it_is_polled() {
        // One handle polled every tick, one never until the end, through
        // a rescale with a 5 s pause: `Finished` at the same tick, and
        // an eviction at any tick retains the same work.
        let overhead = OverheadModel {
            lb_base: 5.0,
            ..OverheadModel::zero()
        };
        for evict_at in [Some(37u32), Some(150), None] {
            let clock = VirtualClock::new();
            let mut ex =
                ModelExecutor::new(Arc::new(clock.clone()), ScalingModel::default(), overhead);
            let mut polled = ex.launch(&spec(1000), 3, None);
            let mut quiet = ex.launch(&spec(1000), 3, None);
            let mut finished_at = None;
            for tick in 1..=200u32 {
                clock.advance(Duration::from_secs(1.0));
                if tick == 20 {
                    polled.request_rescale(7);
                    quiet.request_rescale(7);
                }
                if Some(tick) == evict_at {
                    let rollback = Duration::from_secs(4.0);
                    let kept = polled.checkpointed_iters(clock.now(), rollback);
                    assert_eq!(kept, quiet.checkpointed_iters(clock.now(), rollback));
                    // 60 at 3/s, 5 s pause, 7/s since t=25, 28 lost.
                    assert_eq!(kept, Some(60.0 + 7.0 * (f64::from(tick) - 25.0) - 28.0));
                    break;
                }
                if polled.status() == ExecStatus::Finished {
                    assert_eq!(quiet.status(), ExecStatus::Finished);
                    finished_at = Some(tick);
                    break;
                }
            }
            // The remaining 940 at 7/s end 134.3 s after t=25.
            assert_eq!(finished_at, evict_at.is_none().then_some(160));
        }
    }

    #[test]
    fn model_relaunch_from_a_checkpoint_pays_the_recovery_window() {
        let overhead = OverheadModel {
            restart_base: 5.0,
            ..OverheadModel::zero()
        };
        let clock = VirtualClock::new();
        let mut ex = ModelExecutor::new(Arc::new(clock.clone()), ScalingModel::default(), overhead);
        // 400 of 1000 retained, 4/s: 5 s of recovery, then 150 s.
        let mut h = ex.launch(&spec(1000), 4, Some(400.0));
        clock.advance(Duration::from_secs(5.0));
        assert_eq!(h.status(), ExecStatus::Running { iters: 400 });
        clock.advance(Duration::from_secs(149.0));
        assert_eq!(h.status(), ExecStatus::Running { iters: 996 });
        clock.advance(Duration::from_secs(1.0));
        assert_eq!(h.status(), ExecStatus::Finished);
        // A start from zero, or an ideal executor, pays nothing.
        let mut fresh = ex.launch(&spec(8), 4, None);
        let mut ideal =
            ModelExecutor::ideal(Arc::new(clock.clone())).launch(&spec(8), 4, Some(0.0));
        clock.advance(Duration::from_secs(2.0));
        assert_eq!(fresh.status(), ExecStatus::Finished);
        assert_eq!(ideal.status(), ExecStatus::Finished);
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
        let mut h = ex.launch(&spec, 2, None);
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
        let mut h = ex.launch(&spec, 2, None);
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
        let _ = ex.launch(&spec(10), 2, None);
    }
}
