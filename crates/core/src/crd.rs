//! The CharmJob custom resource.
//!
//! The paper extends the MPI-operator CRD with `minReplicas`,
//! `maxReplicas` and `priority` fields (§3.2.1). A CharmJob's spec also
//! carries the application template (which mini-app to run and its
//! problem size) so the operator can launch real work; status tracks the
//! job's scheduling lifecycle and the timestamps the evaluation metrics
//! are computed from.

use hpc_metrics::{Duration, SimTime};
use hpc_workload::JobShape;
use kube_sim::Resource;

use crate::error::SchedulerError;

/// Which application a job runs, with its problem parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum AppSpec {
    /// Jacobi2D: `grid`×`grid` points in `blocks`×`blocks` chares,
    /// `total_iters` iterations in windows of `window`.
    Jacobi {
        /// Grid dimension.
        grid: usize,
        /// Blocks per dimension.
        blocks: u64,
        /// Total iterations to run.
        total_iters: u64,
        /// Iterations per sync window.
        window: u64,
    },
    /// Synthetic spin workload: `chares` chares × `total_iters`
    /// iterations of `spin` work units, windows of `window`.
    Synthetic {
        /// Chare count.
        chares: u64,
        /// Spin units per iteration.
        spin: u64,
        /// Total iterations.
        total_iters: u64,
        /// Iterations per sync window.
        window: u64,
    },
    /// No real execution: completion is driven by the execution model
    /// (`hpc_workload::model`) both engines share — virtual-time
    /// operator runs and the DES cross-validation.
    Modeled {
        /// The workload job's own shape: its work (un-rounded), and for
        /// a class job the scaling curve and state size the models key
        /// on. The scheduler reads the spec's replica bounds, not the
        /// shape's.
        shape: JobShape,
    },
}

impl AppSpec {
    /// A modeled app of `work` units that speeds up linearly between
    /// `min_replicas` and `max_replicas` (`work / replicas` seconds
    /// under the default models).
    pub fn linear(work: f64, min_replicas: u32, max_replicas: u32) -> AppSpec {
        AppSpec::Modeled {
            shape: JobShape::Malleable {
                min_replicas,
                max_replicas,
                work,
            },
        }
    }

    /// Total iterations a real app must execute to complete; `None` for
    /// a modeled job, whose work is its shape's, un-rounded.
    pub fn total_iters(&self) -> Option<u64> {
        match self {
            AppSpec::Jacobi { total_iters, .. } | AppSpec::Synthetic { total_iters, .. } => {
                Some(*total_iters)
            }
            AppSpec::Modeled { .. } => None,
        }
    }
}

/// The user-provided job specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CharmJobSpec {
    /// Unique job name.
    pub name: String,
    /// Smallest worker count the job can run with.
    pub min_replicas: u32,
    /// Largest worker count the job can use.
    pub max_replicas: u32,
    /// User priority; larger is more important (paper uses 1–5).
    pub priority: u32,
    /// User walltime estimate — how long the job claims to run at its
    /// requested size (the SWF requested-time field). Feeds
    /// reservation-based backfilling (`EasyBackfill`); `None` means the
    /// user gave no estimate.
    pub walltime_estimate: Option<Duration>,
    /// The application to execute.
    pub app: AppSpec,
}

impl CharmJobSpec {
    /// A builder for `name` with conservative defaults: a rigid
    /// single-replica, priority-3 job running one modeled iteration.
    /// Validation happens once, at [`JobSpecBuilder::build`] — every
    /// entry point (client, harness, federation handle) goes through
    /// the same [`CharmJobSpec::validate`] rules.
    pub fn builder(name: impl Into<String>) -> JobSpecBuilder {
        JobSpecBuilder {
            spec: CharmJobSpec {
                name: name.into(),
                min_replicas: 1,
                max_replicas: 1,
                priority: 3,
                walltime_estimate: None,
                app: AppSpec::linear(1.0, 1, 1),
            },
        }
    }

    /// Validates invariants (min ≤ max, min ≥ 1, positive estimate).
    pub fn validate(&self) -> Result<(), String> {
        if self.min_replicas == 0 {
            return Err(format!("{}: min_replicas must be >= 1", self.name));
        }
        if self.min_replicas > self.max_replicas {
            return Err(format!(
                "{}: min_replicas {} > max_replicas {}",
                self.name, self.min_replicas, self.max_replicas
            ));
        }
        if let Some(est) = self.walltime_estimate {
            let s = est.as_secs();
            if !(s.is_finite() && s > 0.0) {
                return Err(format!(
                    "{}: walltime_estimate must be finite and positive, got {s}s",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// Builds a [`CharmJobSpec`] with validation deferred to
/// [`build`](JobSpecBuilder::build), so a successfully built spec is
/// valid by construction:
///
/// ```
/// use elastic_core::CharmJobSpec;
/// use hpc_metrics::Duration;
///
/// let spec = CharmJobSpec::builder("jacobi-17")
///     .replicas(2, 8)
///     .priority(5)
///     .walltime_estimate(Duration::from_secs(3_600.0))
///     .modeled_iters(10_000)
///     .build()
///     .unwrap();
/// assert_eq!((spec.min_replicas, spec.max_replicas), (2, 8));
///
/// // Invalid bounds surface at build(), not at submission time.
/// assert!(CharmJobSpec::builder("bad").replicas(8, 2).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    spec: CharmJobSpec,
}

impl JobSpecBuilder {
    /// Elastic replica bounds `[min, max]`.
    pub fn replicas(mut self, min: u32, max: u32) -> Self {
        self.spec.min_replicas = min;
        self.spec.max_replicas = max;
        self
    }

    /// A rigid job: exactly `n` replicas (min = max = n).
    pub fn rigid(self, n: u32) -> Self {
        self.replicas(n, n)
    }

    /// User priority (the paper uses 1–5; larger is more important).
    pub fn priority(mut self, priority: u32) -> Self {
        self.spec.priority = priority;
        self
    }

    /// User walltime estimate (feeds reservation-based backfilling).
    pub fn walltime_estimate(mut self, estimate: Duration) -> Self {
        self.spec.walltime_estimate = Some(estimate);
        self
    }

    /// The application to execute.
    fn app(mut self, app: AppSpec) -> Self {
        self.spec.app = app;
        self
    }

    /// Shorthand for a linear modeled app of `total_iters` iterations
    /// ([`AppSpec::linear`] over the replica bounds set so far; only
    /// the work is read).
    pub fn modeled_iters(self, total_iters: u64) -> Self {
        let (min, max) = (self.spec.min_replicas, self.spec.max_replicas);
        self.app(AppSpec::linear(total_iters as f64, min, max))
    }

    /// Validates and returns the spec; all invariant violations
    /// (replica bounds, walltime positivity) surface here as
    /// [`SchedulerError::InvalidSpec`].
    pub fn build(self) -> Result<CharmJobSpec, SchedulerError> {
        self.spec.validate().map_err(SchedulerError::InvalidSpec)?;
        Ok(self.spec)
    }
}

/// Scheduling lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Submitted, waiting in the scheduler queue.
    Queued,
    /// Pods created; waiting for all of them to run.
    Starting,
    /// Application executing.
    Running,
    /// Application finished; resources released.
    Completed,
    /// Cancelled by the client before finishing; resources released.
    Cancelled,
    /// Permanently failed: killed-and-requeued until the fault layer's
    /// retry budget ran out. Resources released; never rescheduled.
    Failed,
}

impl JobPhase {
    /// `true` for the end-of-life phases a job never leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Completed | JobPhase::Cancelled | JobPhase::Failed
        )
    }
}

/// Server-side job status.
#[derive(Debug, Clone, PartialEq)]
pub struct CharmJobStatus {
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Current worker allocation (0 while queued).
    pub replicas: u32,
    /// Worker count the operator is converging toward (differs from
    /// `replicas` while a rescale is in flight).
    pub desired_replicas: u32,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Time of the last scheduling action on this job (creation,
    /// shrink or expand) — the `lastAction` of the paper's `T_rescale_gap`
    /// bookkeeping. `NEG_INFINITY` until the first action.
    pub last_action: SimTime,
    /// First time the application actually started.
    pub started_at: Option<SimTime>,
    /// Completion (or cancellation) time.
    pub completed_at: Option<SimTime>,
    /// Set by [`SchedulerClient::cancel`]; the reconciler reacts to the
    /// resulting watch event by tearing the job down (kill signal, pod
    /// deletion, slot reclaim) and moving it to [`JobPhase::Cancelled`].
    ///
    /// [`SchedulerClient::cancel`]: crate::client::SchedulerClient::cancel
    pub cancel_requested: bool,
    /// When the fault layer kill-and-requeued this job, the time its
    /// backoff expires and it re-enters the scheduling queue. The
    /// scheduler orders a requeued job by this time (it lost its
    /// original place); metrics keep using `submitted_at`.
    pub requeued_at: Option<SimTime>,
    /// Kill-and-requeue attempts consumed from the retry budget.
    pub attempts: u32,
}

impl CharmJobStatus {
    /// Fresh status for a job submitted at `t`.
    pub fn submitted(t: SimTime) -> Self {
        CharmJobStatus {
            phase: JobPhase::Queued,
            replicas: 0,
            desired_replicas: 0,
            submitted_at: t,
            last_action: SimTime::NEG_INFINITY,
            started_at: None,
            completed_at: None,
            cancel_requested: false,
            requeued_at: None,
            attempts: 0,
        }
    }
}

/// The stored custom resource: spec + status.
#[derive(Debug, Clone, PartialEq)]
pub struct CharmJob {
    /// User spec.
    pub spec: CharmJobSpec,
    /// Controller-managed status.
    pub status: CharmJobStatus,
}

impl CharmJob {
    /// A freshly submitted job.
    pub fn submitted(spec: CharmJobSpec, t: SimTime) -> Self {
        CharmJob {
            spec,
            status: CharmJobStatus::submitted(t),
        }
    }
}

impl Resource for CharmJob {
    fn name(&self) -> &str {
        &self.spec.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, min: u32, max: u32) -> CharmJobSpec {
        CharmJobSpec {
            name: name.into(),
            min_replicas: min,
            max_replicas: max,
            priority: 3,
            walltime_estimate: None,
            app: AppSpec::linear(100.0, min, max),
        }
    }

    #[test]
    fn validation_rules() {
        assert!(spec("a", 2, 8).validate().is_ok());
        assert!(spec("a", 0, 8).validate().is_err());
        assert!(spec("a", 9, 8).validate().is_err());
        assert!(spec("a", 8, 8).validate().is_ok(), "rigid jobs allowed");
    }

    #[test]
    fn builder_validates_at_build() {
        let spec = CharmJobSpec::builder("j1")
            .replicas(2, 8)
            .priority(5)
            .walltime_estimate(Duration::from_secs(60.0))
            .modeled_iters(400)
            .build()
            .unwrap();
        assert_eq!(spec.name, "j1");
        assert_eq!((spec.min_replicas, spec.max_replicas), (2, 8));
        assert_eq!(spec.priority, 5);
        let AppSpec::Modeled { shape } = spec.app else {
            panic!("modeled_iters builds a modeled app")
        };
        assert_eq!(shape.work(), 400.0);

        let rigid = CharmJobSpec::builder("r").rigid(4).build().unwrap();
        assert_eq!((rigid.min_replicas, rigid.max_replicas), (4, 4));

        assert!(matches!(
            CharmJobSpec::builder("bad").replicas(8, 2).build(),
            Err(SchedulerError::InvalidSpec(_))
        ));
        assert!(matches!(
            CharmJobSpec::builder("bad").replicas(0, 2).build(),
            Err(SchedulerError::InvalidSpec(_))
        ));
        assert!(matches!(
            CharmJobSpec::builder("bad")
                .walltime_estimate(Duration::from_secs(-1.0))
                .build(),
            Err(SchedulerError::InvalidSpec(_))
        ));
    }

    #[test]
    fn status_lifecycle_metrics() {
        let st = CharmJobStatus::submitted(SimTime::from_secs(10.0));
        assert_eq!(st.phase, JobPhase::Queued);
        assert_eq!(st.last_action, SimTime::NEG_INFINITY);
        assert_eq!(st.started_at, None);
        assert_eq!(st.completed_at, None);
    }

    #[test]
    fn terminal_phases() {
        assert!(JobPhase::Completed.is_terminal());
        assert!(JobPhase::Cancelled.is_terminal());
        assert!(JobPhase::Failed.is_terminal());
        for phase in [JobPhase::Queued, JobPhase::Starting, JobPhase::Running] {
            assert!(!phase.is_terminal());
        }
        assert!(!CharmJobStatus::submitted(SimTime::ZERO).cancel_requested);
    }

    #[test]
    fn app_spec_total_iters() {
        assert_eq!(AppSpec::linear(7.5, 1, 2).total_iters(), None);
        assert_eq!(
            AppSpec::Jacobi {
                grid: 64,
                blocks: 4,
                total_iters: 40,
                window: 10
            }
            .total_iters(),
            Some(40)
        );
    }

    #[test]
    fn job_is_a_resource() {
        let job = CharmJob::submitted(spec("j1", 2, 8), SimTime::ZERO);
        assert_eq!(Resource::name(&job), "j1");
        let store: kube_sim::Store<CharmJob> = kube_sim::Store::new();
        store.create(job).unwrap();
        assert!(store.get("j1").is_some());
    }
}
