//! The unified workload model.
//!
//! A [`WorkloadSpec`] is an ordered list of [`JobSpec`]s — each with its
//! own arrival time, replica bounds, work estimate, priority and
//! optional cancellation time. Every engine (DES, operator harness,
//! benches) replays the same struct; producers (SWF traces, the paper
//! generator, the Poisson generator) only ever build it.

use std::sync::Arc;

use hpc_metrics::Duration;

use crate::fault::{FaultError, FaultSpec};

/// The four job size classes of the paper's §4.3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// 512² grid, 40 000 steps, replicas ∈ [2, 8].
    Small,
    /// 2048² grid, 40 000 steps, replicas ∈ [4, 16].
    Medium,
    /// 8192² grid, 40 000 steps, replicas ∈ [8, 32].
    Large,
    /// 16 384² grid, 10 000 steps, replicas ∈ [16, 64].
    XLarge,
}

impl SizeClass {
    /// All classes.
    pub const ALL: [SizeClass; 4] = [
        SizeClass::Small,
        SizeClass::Medium,
        SizeClass::Large,
        SizeClass::XLarge,
    ];

    /// Grid dimension (one side of the square grid).
    pub(crate) fn grid(self) -> u64 {
        match self {
            SizeClass::Small => 512,
            SizeClass::Medium => 2048,
            SizeClass::Large => 8192,
            SizeClass::XLarge => 16_384,
        }
    }

    /// Total timesteps.
    pub fn steps(self) -> u64 {
        match self {
            SizeClass::XLarge => 10_000,
            _ => 40_000,
        }
    }

    /// `(min_replicas, max_replicas)` per the paper.
    pub fn replica_bounds(self) -> (u32, u32) {
        match self {
            SizeClass::Small => (2, 8),
            SizeClass::Medium => (4, 16),
            SizeClass::Large => (8, 32),
            SizeClass::XLarge => (16, 64),
        }
    }

    /// Grid state size in bytes (f64 cells).
    pub fn state_bytes(self) -> f64 {
        let g = self.grid() as f64;
        g * g * 8.0
    }
}

impl std::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SizeClass::Small => write!(f, "small"),
            SizeClass::Medium => write!(f, "medium"),
            SizeClass::Large => write!(f, "large"),
            SizeClass::XLarge => write!(f, "xlarge"),
        }
    }
}

/// Surrogate state bytes per core-second of work for [`JobShape::Malleable`]
/// jobs (traces carry no grid geometry; rescale-overhead models need a
/// byte count, so malleable jobs charge this much serializable state per
/// unit of work).
const MALLEABLE_STATE_BYTES_PER_WORK: f64 = 1.0e4;

/// How a job scales: a paper size class (bounds, work and strong-scaling
/// curve all come from the class) or explicit malleable bounds with a
/// linear speedup model (the trace-replay annotation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobShape {
    /// Paper §4.3.1 size class.
    Class(SizeClass),
    /// Synthetic-malleability annotation: linear speedup, `work` in
    /// core-seconds (`work / replicas` seconds of runtime at any
    /// replica count within bounds).
    Malleable {
        /// Smallest worker count the job can run with.
        min_replicas: u32,
        /// Largest worker count the job can use.
        max_replicas: u32,
        /// Total work in core-seconds.
        work: f64,
    },
}

impl JobShape {
    /// Minimum replicas.
    pub fn min_replicas(&self) -> u32 {
        match self {
            JobShape::Class(c) => c.replica_bounds().0,
            JobShape::Malleable { min_replicas, .. } => *min_replicas,
        }
    }

    /// Maximum replicas.
    pub fn max_replicas(&self) -> u32 {
        match self {
            JobShape::Class(c) => c.replica_bounds().1,
            JobShape::Malleable { max_replicas, .. } => *max_replicas,
        }
    }

    /// Total work: timesteps for a class job, core-seconds for a
    /// malleable one (the unit only has to agree with the rate model —
    /// see `sched_sim::ScalingModel::job_rate`).
    pub fn work(&self) -> f64 {
        match self {
            JobShape::Class(c) => c.steps() as f64,
            JobShape::Malleable { work, .. } => *work,
        }
    }

    /// Serializable state in bytes (drives rescale-overhead models).
    pub fn state_bytes(&self) -> f64 {
        match self {
            JobShape::Class(c) => c.state_bytes(),
            JobShape::Malleable { work, .. } => work * MALLEABLE_STATE_BYTES_PER_WORK,
        }
    }

    /// The size class, for class-shaped jobs.
    pub fn class(&self) -> Option<SizeClass> {
        match self {
            JobShape::Class(c) => Some(*c),
            JobShape::Malleable { .. } => None,
        }
    }
}

/// One job of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job name. Producers pad numeric suffixes so that
    /// lexicographic order equals submission order (the engines use
    /// names as the final deterministic tie-breaker at the report edge).
    /// Shared, not copied: a shard's slice of the workload and every
    /// report of the job hold this one string.
    pub name: Arc<str>,
    /// Arrival (submission) time relative to the workload epoch.
    pub arrival: Duration,
    /// Priority, larger = more important (the paper uses 1–5).
    pub priority: u32,
    /// Replica bounds + work model.
    pub shape: JobShape,
    /// If set, a client cancellation is injected at this time (relative
    /// to the epoch, like `arrival`). A time before `arrival` is a
    /// no-op in both engines — exactly like a real client cancelling a
    /// job name that has not been submitted yet.
    pub cancel_at: Option<Duration>,
    /// User walltime estimate: how long the job is expected to run at
    /// its requested size (SWF field 9, falling back to the actual run
    /// time). Reservation-based backfilling (`EasyBackfill`) plans the
    /// queue-head shadow start from these; `None` means "no estimate" —
    /// such a job is treated as unbounded by reservation arithmetic and
    /// can only backfill into slots no reservation will ever need.
    pub walltime_estimate: Option<Duration>,
}

impl JobSpec {
    /// A job of `class` with the class's replica bounds, arriving at
    /// the epoch.
    pub fn of_class(name: impl Into<Arc<str>>, class: SizeClass, priority: u32) -> Self {
        JobSpec {
            name: name.into(),
            arrival: Duration::ZERO,
            priority,
            shape: JobShape::Class(class),
            cancel_at: None,
            walltime_estimate: None,
        }
    }

    /// A malleable job with explicit bounds and `work` core-seconds,
    /// arriving at the epoch.
    pub fn malleable(
        name: impl Into<Arc<str>>,
        min_replicas: u32,
        max_replicas: u32,
        work: f64,
        priority: u32,
    ) -> Self {
        JobSpec {
            name: name.into(),
            arrival: Duration::ZERO,
            priority,
            shape: JobShape::Malleable {
                min_replicas,
                max_replicas,
                work,
            },
            cancel_at: None,
            walltime_estimate: None,
        }
    }

    /// Builder: sets the arrival time.
    pub fn at(mut self, arrival: Duration) -> Self {
        self.arrival = arrival;
        self
    }

    /// Builder: injects a cancellation at `t`.
    pub fn cancelled_at(mut self, t: Duration) -> Self {
        self.cancel_at = Some(t);
        self
    }

    /// Builder: sets the user walltime estimate.
    pub fn with_walltime_estimate(mut self, estimate: Duration) -> Self {
        self.walltime_estimate = Some(estimate);
        self
    }

    /// Minimum replicas.
    pub fn min_replicas(&self) -> u32 {
        self.shape.min_replicas()
    }

    /// Maximum replicas.
    pub fn max_replicas(&self) -> u32 {
        self.shape.max_replicas()
    }

    /// Total work (see [`JobShape::work`]).
    pub fn work(&self) -> f64 {
        self.shape.work()
    }

    /// The size class, for class-shaped jobs.
    pub fn class(&self) -> Option<SizeClass> {
        self.shape.class()
    }
}

/// Why a [`WorkloadSpec`] is not replayable.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// No jobs at all.
    Empty,
    /// Two jobs share a name.
    DuplicateName(String),
    /// A job violates `1 <= min <= max`.
    BadBounds {
        /// Offending job.
        name: String,
        /// Its minimum replicas.
        min: u32,
        /// Its maximum replicas.
        max: u32,
    },
    /// A job's work is zero, negative or non-finite.
    BadWork {
        /// Offending job.
        name: String,
        /// Its work value.
        work: f64,
    },
    /// A job's walltime estimate is zero, negative or non-finite.
    BadWalltime {
        /// Offending job.
        name: String,
        /// Its estimate in seconds.
        estimate_s: f64,
    },
    /// Arrivals are not nondecreasing in job order.
    UnsortedArrivals {
        /// First job observed out of order.
        name: String,
    },
    /// The fault layer violates its contract (see [`FaultError`]).
    BadFaults(FaultError),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Empty => write!(f, "workload has no jobs"),
            WorkloadError::DuplicateName(n) => write!(f, "duplicate job name {n}"),
            WorkloadError::BadBounds { name, min, max } => {
                write!(f, "{name}: bad replica bounds [{min}, {max}]")
            }
            WorkloadError::BadWork { name, work } => {
                write!(f, "{name}: bad work {work}")
            }
            WorkloadError::BadWalltime { name, estimate_s } => {
                write!(f, "{name}: bad walltime estimate {estimate_s}s")
            }
            WorkloadError::UnsortedArrivals { name } => {
                write!(f, "{name}: arrival earlier than its predecessor")
            }
            WorkloadError::BadFaults(e) => write!(f, "fault layer: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A replayable workload: jobs in submission order with their own
/// arrival times.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadSpec {
    /// Jobs in submission (arrival) order.
    pub jobs: Vec<JobSpec>,
    /// The fault layer: capacity-change events and recovery parameters
    /// (empty by default — fault-free replay pays nothing for it).
    pub faults: FaultSpec,
}

impl WorkloadSpec {
    /// A workload over `jobs` (assumed already in arrival order; call
    /// [`WorkloadSpec::validate`] to check) with an empty fault layer.
    pub fn new(jobs: Vec<JobSpec>) -> Self {
        WorkloadSpec {
            jobs,
            faults: FaultSpec::default(),
        }
    }

    /// Builder: attaches a fault layer (capacity events + recovery
    /// parameters) to the workload.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when there are no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Builder: job `i` arrives at `i × gap` (the classic fixed
    /// submission-gap schedule), overwriting any prior arrivals.
    pub fn spaced_every(mut self, gap: Duration) -> Self {
        let gap_s = gap.as_secs();
        for (i, job) in self.jobs.iter_mut().enumerate() {
            job.arrival = Duration::from_secs(gap_s * i as f64);
        }
        self
    }

    /// Builder: compresses the arrival timeline by `factor` — every
    /// arrival, cancellation *and* fault-event instant is divided by
    /// it, so a
    /// multi-week archive trace replays in bounded simulation time
    /// while the relative order of all timeline events (and each job's
    /// cancellation offset, proportionally) is preserved. A factor
    /// below 1 dilates instead. Work and walltime estimates are left
    /// untouched, so compressing arrivals *raises* the offered load.
    ///
    /// # Panics
    /// If `factor` is not finite and positive.
    pub fn compress_arrivals(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "compression factor must be finite and > 0, got {factor}"
        );
        for job in &mut self.jobs {
            job.arrival = Duration::from_secs(job.arrival.as_secs() / factor);
            if let Some(c) = job.cancel_at {
                job.cancel_at = Some(Duration::from_secs(c.as_secs() / factor));
            }
        }
        for e in &mut self.faults.events {
            e.at = Duration::from_secs((e.at.as_secs() / factor).round());
        }
        self
    }

    /// Splits the workload into `n` per-shard workloads according to
    /// `assignment` (one shard index per job, in job order) — the
    /// replay-side half of cross-cluster placement: a federation's
    /// `PlacementPolicy` produces the assignment, this builds the
    /// per-shard replay inputs.
    ///
    /// Jobs keep their arrival times, cancellation instants and
    /// relative order, so each part is itself a valid arrival-sorted
    /// workload. The fault layer is **replicated** into every
    /// non-empty part: each shard models an independent cluster
    /// experiencing the same capacity timeline (a reclamation hits
    /// every cluster of the fleet, as with a zone-wide spot event).
    /// Parts may come back empty when no job routed to that shard.
    ///
    /// # Panics
    /// If `assignment.len() != self.jobs.len()` or any index is `>= n`.
    pub fn partition(&self, assignment: &[usize], n: usize) -> Vec<WorkloadSpec> {
        assert_eq!(
            assignment.len(),
            self.jobs.len(),
            "one shard index per job required"
        );
        let mut sizes = vec![0; n];
        for (job, &shard) in self.jobs.iter().zip(assignment) {
            assert!(shard < n, "job {} routed to shard {shard} of {n}", job.name);
            sizes[shard] += 1;
        }
        // Each part allocated once at its size; a job's clone shares
        // its name.
        let mut parts: Vec<WorkloadSpec> = sizes
            .into_iter()
            .map(|size| WorkloadSpec::new(Vec::with_capacity(size)))
            .collect();
        for (job, &shard) in self.jobs.iter().zip(assignment) {
            parts[shard].jobs.push(job.clone());
        }
        for part in &mut parts {
            if !part.jobs.is_empty() {
                part.faults = self.faults.clone();
            }
        }
        parts
    }

    /// Checks the engine contract: at least one job, unique names, sane
    /// bounds, work and walltime estimates, nondecreasing arrivals.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.jobs.is_empty() {
            return Err(WorkloadError::Empty);
        }
        // Names that strictly increase are unique, and the generators'
        // padded names and the SWF parser's do: one pass proves it. Only
        // names out of order are sorted to find a duplicate.
        if !self.jobs.windows(2).all(|w| w[0].name < w[1].name) {
            let mut names: Vec<&str> = self.jobs.iter().map(|j| &*j.name).collect();
            names.sort_unstable();
            if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
                return Err(WorkloadError::DuplicateName(w[0].to_string()));
            }
        }
        let mut prev = Duration::ZERO;
        for job in &self.jobs {
            let (min, max) = (job.min_replicas(), job.max_replicas());
            if min == 0 || min > max {
                return Err(WorkloadError::BadBounds {
                    name: job.name.to_string(),
                    min,
                    max,
                });
            }
            let work = job.work();
            if !(work.is_finite() && work > 0.0) {
                return Err(WorkloadError::BadWork {
                    name: job.name.to_string(),
                    work,
                });
            }
            if let Some(est) = job.walltime_estimate {
                let estimate_s = est.as_secs();
                if !(estimate_s.is_finite() && estimate_s > 0.0) {
                    return Err(WorkloadError::BadWalltime {
                        name: job.name.to_string(),
                        estimate_s,
                    });
                }
            }
            if job.arrival < prev {
                return Err(WorkloadError::UnsortedArrivals {
                    name: job.name.to_string(),
                });
            }
            prev = job.arrival;
        }
        self.faults.validate().map_err(WorkloadError::BadFaults)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_parameters_match_paper() {
        assert_eq!(SizeClass::Small.replica_bounds(), (2, 8));
        assert_eq!(SizeClass::Medium.replica_bounds(), (4, 16));
        assert_eq!(SizeClass::Large.replica_bounds(), (8, 32));
        assert_eq!(SizeClass::XLarge.replica_bounds(), (16, 64));
        assert_eq!(SizeClass::Small.steps(), 40_000);
        assert_eq!(SizeClass::XLarge.steps(), 10_000);
        assert_eq!(SizeClass::XLarge.grid(), 16_384);
    }

    #[test]
    fn shapes_expose_bounds_and_work() {
        let c = JobSpec::of_class("a", SizeClass::Medium, 3);
        assert_eq!((c.min_replicas(), c.max_replicas()), (4, 16));
        assert_eq!(c.work(), 40_000.0);
        assert_eq!(c.class(), Some(SizeClass::Medium));

        let m = JobSpec::malleable("b", 2, 8, 1600.0, 1);
        assert_eq!((m.min_replicas(), m.max_replicas()), (2, 8));
        assert_eq!(m.work(), 1600.0);
        assert_eq!(m.class(), None);
        assert!(m.shape.state_bytes() > 0.0);
    }

    #[test]
    fn spaced_every_sets_linear_arrivals() {
        let wl = WorkloadSpec::new(vec![
            JobSpec::of_class("a", SizeClass::Small, 1),
            JobSpec::of_class("b", SizeClass::Small, 1),
            JobSpec::of_class("c", SizeClass::Small, 1),
        ])
        .spaced_every(Duration::from_secs(90.0));
        let arrivals: Vec<f64> = wl.jobs.iter().map(|j| j.arrival.as_secs()).collect();
        assert_eq!(arrivals, vec![0.0, 90.0, 180.0]);
        assert!(wl.validate().is_ok());
    }

    #[test]
    fn validate_catches_each_contract_violation() {
        assert_eq!(
            WorkloadSpec::new(vec![]).validate(),
            Err(WorkloadError::Empty)
        );

        let dup = WorkloadSpec::new(vec![
            JobSpec::of_class("a", SizeClass::Small, 1),
            JobSpec::of_class("a", SizeClass::Large, 1),
        ]);
        assert!(matches!(
            dup.validate(),
            Err(WorkloadError::DuplicateName(_))
        ));

        let bounds = WorkloadSpec::new(vec![JobSpec::malleable("z", 8, 4, 100.0, 1)]);
        assert!(matches!(
            bounds.validate(),
            Err(WorkloadError::BadBounds { .. })
        ));
        let zero_min = WorkloadSpec::new(vec![JobSpec::malleable("z", 0, 4, 100.0, 1)]);
        assert!(matches!(
            zero_min.validate(),
            Err(WorkloadError::BadBounds { .. })
        ));

        let work = WorkloadSpec::new(vec![JobSpec::malleable("w", 1, 4, 0.0, 1)]);
        assert!(matches!(
            work.validate(),
            Err(WorkloadError::BadWork { .. })
        ));

        let unsorted = WorkloadSpec::new(vec![
            JobSpec::of_class("a", SizeClass::Small, 1).at(Duration::from_secs(10.0)),
            JobSpec::of_class("b", SizeClass::Small, 1).at(Duration::from_secs(5.0)),
        ]);
        assert!(matches!(
            unsorted.validate(),
            Err(WorkloadError::UnsortedArrivals { .. })
        ));
    }

    fn named(names: &[&str]) -> WorkloadSpec {
        WorkloadSpec::new(
            names
                .iter()
                .map(|&n| JobSpec::of_class(n, SizeClass::Small, 1))
                .collect(),
        )
    }

    #[test]
    fn validate_accepts_increasing_names_in_one_pass() {
        assert_eq!(named(&["job0", "job1", "job2"]).validate(), Ok(()));
        assert_eq!(named(&["only"]).validate(), Ok(()));
    }

    #[test]
    fn validate_catches_an_adjacent_duplicate() {
        assert_eq!(
            named(&["a", "b", "b", "c"]).validate(),
            Err(WorkloadError::DuplicateName("b".into()))
        );
    }

    #[test]
    fn validate_catches_a_duplicate_among_unsorted_names() {
        assert_eq!(
            named(&["c", "a", "b", "a"]).validate(),
            Err(WorkloadError::DuplicateName("a".into()))
        );
        // Unsorted but unique is fine.
        assert_eq!(named(&["c", "a", "b"]).validate(), Ok(()));
    }

    #[test]
    fn builders_compose() {
        let j = JobSpec::malleable("j", 2, 4, 50.0, 3)
            .at(Duration::from_secs(7.0))
            .cancelled_at(Duration::from_secs(30.0))
            .with_walltime_estimate(Duration::from_secs(25.0));
        assert_eq!(j.arrival.as_secs(), 7.0);
        assert_eq!(j.cancel_at.unwrap().as_secs(), 30.0);
        assert_eq!(j.walltime_estimate.unwrap().as_secs(), 25.0);
        assert_eq!(j.priority, 3);
    }

    #[test]
    fn validate_rejects_bad_walltime_estimates() {
        for bad in [0.0, -5.0, f64::INFINITY] {
            let wl = WorkloadSpec::new(vec![JobSpec::malleable("w", 1, 4, 100.0, 1)
                .with_walltime_estimate(Duration::from_secs(bad))]);
            assert!(
                matches!(wl.validate(), Err(WorkloadError::BadWalltime { .. })),
                "estimate {bad} accepted"
            );
        }
        let ok = WorkloadSpec::new(vec![JobSpec::malleable("w", 1, 4, 100.0, 1)
            .with_walltime_estimate(Duration::from_secs(1.0))]);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn compress_arrivals_preserves_order_and_cancellation_offsets() {
        let wl = WorkloadSpec::new(vec![
            JobSpec::malleable("a", 1, 4, 100.0, 1).at(Duration::from_secs(0.0)),
            JobSpec::malleable("b", 1, 4, 100.0, 1)
                .at(Duration::from_secs(600.0))
                .cancelled_at(Duration::from_secs(900.0)),
            JobSpec::malleable("c", 1, 4, 100.0, 1).at(Duration::from_secs(1200.0)),
        ])
        .compress_arrivals(10.0);
        let arrivals: Vec<f64> = wl.jobs.iter().map(|j| j.arrival.as_secs()).collect();
        assert_eq!(arrivals, vec![0.0, 60.0, 120.0]);
        // The cancellation instant compresses with the timeline, so its
        // offset past the arrival scales by the same factor.
        let b = &wl.jobs[1];
        assert_eq!(b.cancel_at.unwrap().as_secs(), 90.0);
        assert_eq!((b.cancel_at.unwrap() - b.arrival).as_secs(), 30.0);
        assert!(wl.validate().is_ok());
    }

    #[test]
    fn fault_layer_rides_the_workload() {
        use crate::fault::{FaultEvent, FaultKind, FaultSpec};
        let faults = FaultSpec {
            events: vec![
                FaultEvent {
                    at: Duration::from_secs(600.0),
                    slots: 8,
                    kind: FaultKind::Reclaim,
                },
                FaultEvent {
                    at: Duration::from_secs(1200.0),
                    slots: 8,
                    kind: FaultKind::Return,
                },
            ],
            ..FaultSpec::default()
        };
        let wl = WorkloadSpec::new(vec![JobSpec::malleable("a", 1, 4, 100.0, 1)])
            .with_faults(faults)
            .compress_arrivals(10.0);
        assert_eq!(wl.faults.events[0].at.as_secs(), 60.0);
        assert_eq!(wl.faults.events[1].at.as_secs(), 120.0);
        assert!(wl.validate().is_ok());

        // An invalid fault layer fails workload validation.
        let bad = WorkloadSpec::new(vec![JobSpec::malleable("a", 1, 4, 100.0, 1)]).with_faults(
            FaultSpec {
                events: vec![FaultEvent {
                    at: Duration::from_secs(10.0),
                    slots: 8,
                    kind: FaultKind::Return,
                }],
                ..FaultSpec::default()
            },
        );
        assert!(matches!(bad.validate(), Err(WorkloadError::BadFaults(_))));
    }

    #[test]
    fn partition_splits_by_assignment_and_replicates_faults() {
        use crate::fault::{FaultEvent, FaultKind, FaultSpec};
        let wl = WorkloadSpec::new(vec![
            JobSpec::malleable("a", 1, 4, 100.0, 1).at(Duration::from_secs(0.0)),
            JobSpec::malleable("b", 1, 4, 100.0, 1).at(Duration::from_secs(10.0)),
            JobSpec::malleable("c", 1, 4, 100.0, 1).at(Duration::from_secs(20.0)),
            JobSpec::malleable("d", 1, 4, 100.0, 1).at(Duration::from_secs(30.0)),
        ])
        .with_faults(FaultSpec::new(vec![
            FaultEvent {
                at: Duration::from_secs(5.0),
                slots: 2,
                kind: FaultKind::Reclaim,
            },
            FaultEvent {
                at: Duration::from_secs(50.0),
                slots: 2,
                kind: FaultKind::Return,
            },
        ]));
        let parts = wl.partition(&[0, 1, 0, 1], 3);
        assert_eq!(parts.len(), 3);
        fn names(p: &WorkloadSpec) -> Vec<&str> {
            p.jobs.iter().map(|j| &*j.name).collect()
        }
        assert_eq!(names(&parts[0]), vec!["a", "c"]);
        assert_eq!(names(&parts[1]), vec!["b", "d"]);
        assert!(parts[2].is_empty());
        // Arrival order survives per part, so each part validates.
        assert!(parts[0].validate().is_ok());
        assert!(parts[1].validate().is_ok());
        // The fault timeline replicates into non-empty parts only.
        assert_eq!(parts[0].faults.events.len(), 2);
        assert_eq!(parts[1].faults.events.len(), 2);
        assert!(parts[2].faults.events.is_empty());
        // Job counts conserve across the partition.
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, wl.len());
    }

    #[test]
    #[should_panic(expected = "routed to shard")]
    fn partition_rejects_out_of_range_assignment() {
        let wl = WorkloadSpec::new(vec![JobSpec::malleable("a", 1, 2, 10.0, 1)]);
        let _ = wl.partition(&[2], 2);
    }

    #[test]
    #[should_panic(expected = "compression factor")]
    fn compress_rejects_nonpositive_factor() {
        let _ =
            WorkloadSpec::new(vec![JobSpec::malleable("a", 1, 2, 10.0, 1)]).compress_arrivals(0.0);
    }
}
