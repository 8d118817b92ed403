//! Experiment harnesses: submit a job schedule, drive the operator to
//! completion, report metrics.
//!
//! A [`Schedule`] carries *per-job submission times* (plus optional
//! client cancellations). It is built one of two ways: the classic fixed
//! gap ([`Schedule::every`]), or straight from a unified
//! [`WorkloadSpec`] ([`Schedule::from_workload`]) — the same struct the
//! DES replays, so one trace drives both engines.
//!
//! There is **one drive loop**, the shape of the paper's experimental
//! campaign (`generate_jobs.py submit` + operator, §9.1). Each instant
//! it hands the submissions that fell due to an [`ArrivalSink`] and
//! lets the sink flush, issues the due client cancellations (those of
//! one instant in job order), posts the due capacity and transient
//! fault events of the workload's `FaultSpec`
//! ([`CharmOperator::post_fault`], [`CharmOperator::post_flaky`], in
//! schedule order), calls [`CharmOperator::settle`], and — unless every
//! submission, fault event and job is through — paces on by one `tick`.
//! `settle` is what makes a completion → free → admit → launch chain
//! resolve *within one instant*, as it does in the DES (see its docs
//! for why that takes more than one reconcile round). A modeled job
//! executes under the
//! one model both engines embed (`hpc_workload::model`), so with
//! arrivals, runtimes, fault times and overhead windows that are whole
//! multiples of `tick` the operator replay is *timestamp-identical* to
//! the DES replay, whatever collides at an instant —
//! `tests/instant_order.rs` generates the collisions, the trace
//! cross-validation tests replay the bundled trace.
//!
//! What differs between runs is the sink and the pace:
//!
//! * [`run_virtual`] / [`run_workload_virtual`] — submissions straight
//!   through the public [`SchedulerClient`], the virtual clock advanced
//!   by hand; fully deterministic, used by tests and operator-vs-DES
//!   validation.
//! * [`run_real`] — the same sink, the operator's own (wall, optionally
//!   compressed) clock slept on; real `charm-rt` jobs, used by the
//!   Fig. 9 / Table 1 "Actual" binaries.
//! * `elastic_serving::run_workload_ingest` — submissions through a
//!   batching `IngestQueue`, which implements [`ArrivalSink`].
//!
//! Every sink ends in the store-mediated client path every external
//! consumer uses, so the bench binaries exercise the real control-plane
//! API rather than an operator-internal shortcut.
//!
//! [`SchedulerClient`]: crate::client::SchedulerClient

use std::collections::HashMap;
use std::ops::Range;

use hpc_metrics::{Duration, SimTime, VirtualClock};
use hpc_workload::{FaultSpec, WorkloadSpec};

use crate::client::{SchedulerClient, SubmitRequest};
use crate::crd::{AppSpec, CharmJobSpec};
use crate::operator::CharmOperator;
use crate::report::RunMetrics;

/// Submission schedule: per-job submission times plus optional client
/// cancellations.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Jobs in submission order.
    pub jobs: Vec<CharmJobSpec>,
    /// Submission time of each job (same order as `jobs`, nondecreasing).
    arrivals: Vec<Duration>,
    /// Client cancellations to inject, as `(time, job name)`: sorted by
    /// time, those of one instant in job order.
    pub cancellations: Vec<(Duration, String)>,
}

impl Schedule {
    /// A schedule submitting `jobs` every `gap` (job `i` at `i × gap`).
    pub fn every(jobs: Vec<CharmJobSpec>, gap: Duration) -> Self {
        let gap_s = gap.as_secs();
        let arrivals = (0..jobs.len())
            .map(|i| Duration::from_secs(gap_s * i as f64))
            .collect();
        Self::build(jobs, arrivals)
    }

    /// The operator-side rendering of a unified [`WorkloadSpec`]: every
    /// job becomes a [`CharmJobSpec`] whose [`AppSpec::Modeled`] app
    /// carries the job's own shape, and per-job `cancel_at`s become
    /// client cancellations.
    pub fn from_workload(workload: &WorkloadSpec) -> Self {
        workload.validate().expect("replayable workload");
        let mut jobs = Vec::with_capacity(workload.len());
        let mut arrivals = Vec::with_capacity(workload.len());
        let mut cancellations = Vec::new();
        for job in &workload.jobs {
            if let Some(t) = job.cancel_at {
                cancellations.push((t, job.name.to_string()));
            }
            arrivals.push(job.arrival);
            jobs.push(CharmJobSpec {
                name: job.name.to_string(),
                min_replicas: job.min_replicas(),
                max_replicas: job.max_replicas(),
                priority: job.priority,
                walltime_estimate: job.walltime_estimate,
                app: AppSpec::Modeled { shape: job.shape },
            });
        }
        Self::build(jobs, arrivals).with_cancellations(cancellations)
    }

    /// Adds client cancellations (`(time, job name)`) and keeps the
    /// list sorted by time, those of one instant by their job's
    /// position in the schedule — the DES's order, where a *name* order
    /// would put `j10` before `j2`. One naming no scheduled job (a
    /// client no-op) goes last at its instant.
    fn with_cancellations(mut self, cancellations: Vec<(Duration, String)>) -> Self {
        self.cancellations.extend(cancellations);
        let names = self.jobs.iter().enumerate();
        let position: HashMap<&str, usize> = names.map(|(i, j)| (j.name.as_str(), i)).collect();
        let job = |name: &String| position.get(name.as_str()).copied().unwrap_or(usize::MAX);
        self.cancellations
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| job(&a.1).cmp(&job(&b.1))));
        self
    }

    fn build(jobs: Vec<CharmJobSpec>, arrivals: Vec<Duration>) -> Self {
        assert!(!jobs.is_empty(), "schedule needs at least one job");
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "submission times must be nondecreasing"
        );
        Schedule {
            jobs,
            arrivals,
            cancellations: Vec::new(),
        }
    }

    /// Submission time of job `i`.
    pub fn submit_at(&self, i: usize) -> Duration {
        self.arrivals[i]
    }
}

/// Where the drive loop's submissions enter the control plane: straight
/// into the job store ([`SchedulerClient`]) or through a front-end that
/// batches them (`elastic_serving::IngestQueue`).
pub trait ArrivalSink {
    /// Takes one submission that fell due at `now`.
    fn submit(&self, req: SubmitRequest, now: SimTime);

    /// The instant's last submission is in: push what should reach the
    /// job store at `now` (cancellations are issued right after).
    fn flush(&self, _now: SimTime) {}

    /// Submissions taken that have not reached the job store yet.
    fn pending(&self) -> usize {
        0
    }

    /// Replays a unified [`WorkloadSpec`] through `op` on the virtual
    /// `clock` (the one `op`'s control plane reads), submissions
    /// entering here: per-job arrivals and cancellations from the
    /// workload itself, its [`FaultSpec`] installed on the operator and
    /// its capacity and transient fault events posted to it as they
    /// fall due — the operator-side rendering of the DES's fault
    /// events. `tick` must divide the workload's arrival, cancellation
    /// and fault times for the event timestamps to be exact. Panics if the replay is not
    /// over within `max_time` — a hung schedule is a bug.
    fn replay(
        &self,
        op: &mut CharmOperator,
        clock: &VirtualClock,
        workload: &WorkloadSpec,
        tick: Duration,
        max_time: Duration,
    ) -> RunMetrics
    where
        Self: Sized,
    {
        let schedule = Schedule::from_workload(workload);
        op.set_fault_spec(workload.faults.clone());
        let pace = |d| clock.advance(d);
        drive(op, self, &schedule, &workload.faults, tick, max_time, pace)
    }
}

impl ArrivalSink for SchedulerClient {
    fn submit(&self, req: SubmitRequest, _now: SimTime) {
        self.submit_request(req).expect("unique job name");
    }
}

/// The entries of a time-sorted list that fell due since the last call,
/// as an index range; advances `cursor` past them.
fn due<T>(items: &[T], cursor: &mut usize, is_due: impl Fn(&T) -> bool) -> Range<usize> {
    let from = *cursor;
    while *cursor < items.len() && is_due(&items[*cursor]) {
        *cursor += 1;
    }
    from..*cursor
}

/// The drive loop (module docs): pump what fell due, settle, test for
/// completion, pace on by `tick`.
fn drive(
    op: &mut CharmOperator,
    sink: &impl ArrivalSink,
    schedule: &Schedule,
    faults: &FaultSpec,
    tick: Duration,
    max_time: Duration,
    pace: impl Fn(Duration),
) -> RunMetrics {
    assert!(tick.as_secs() > 0.0, "tick must be positive");
    let client = op.client();
    let start = op.plane.now();
    let (mut next_submit, mut next_cancel, mut next_fault, mut next_flaky) = (0, 0, 0, 0);
    loop {
        let now = op.plane.now();
        let elapsed = now - start;
        for i in due(&schedule.arrivals, &mut next_submit, |at| elapsed >= *at) {
            let req = SubmitRequest::v1(schedule.jobs[i].clone()).expect("valid spec");
            sink.submit(req, now);
        }
        sink.flush(now);
        let cancels = &schedule.cancellations;
        for i in due(cancels, &mut next_cancel, |c| elapsed >= c.0) {
            // A cancellation may target a job already terminal (or, with a
            // too-coarse tick, not yet submitted); both are client no-ops.
            let _ = client.cancel(&cancels[i].1);
        }
        for i in due(&faults.events, &mut next_fault, |e| elapsed >= e.at) {
            op.post_fault(faults.events[i].kind, faults.events[i].slots);
        }
        for i in due(&faults.flaky.events, &mut next_flaky, |e| elapsed >= e.at) {
            op.post_flaky(faults.flaky.events[i].op);
        }
        op.settle();
        // Tail fault/flaky events past the last completion still count:
        // the DES drains its whole queue, so the run only ends once
        // every scheduled event was posted and reconciled.
        if next_submit == schedule.jobs.len()
            && next_fault == faults.events.len()
            && next_flaky == faults.flaky.events.len()
            && sink.pending() == 0
            && op.all_complete()
        {
            return op.metrics();
        }
        assert!(
            elapsed <= max_time,
            "schedule did not complete within {max_time}s (queued: {:?})",
            op.queued_jobs()
        );
        pace(tick);
    }
}

/// Drives `op` through `schedule` on the virtual `clock` (the one its
/// control plane reads), advancing in `tick` steps until all jobs
/// complete (or `max_time` elapses, which panics — a hung schedule is a
/// bug).
pub fn run_virtual(
    op: &mut CharmOperator,
    clock: &VirtualClock,
    schedule: &Schedule,
    tick: Duration,
    max_time: Duration,
) -> RunMetrics {
    let (sink, faults) = (op.client(), FaultSpec::default());
    let pace = |d| clock.advance(d);
    drive(op, &sink, schedule, &faults, tick, max_time, pace)
}

/// Replays a unified [`WorkloadSpec`] — arrivals, cancellations and
/// faults — through the operator on a virtual clock, submissions
/// straight through the [`SchedulerClient`]: [`ArrivalSink::replay`]
/// with the direct sink.
pub fn run_workload_virtual(
    op: &mut CharmOperator,
    clock: &VirtualClock,
    workload: &WorkloadSpec,
    tick: Duration,
    max_time: Duration,
) -> RunMetrics {
    op.client().replay(op, clock, workload, tick, max_time)
}

/// Drives `op` through `schedule` on its own (real) clock, sleeping
/// `tick` of experiment time between instants. Returns metrics when all
/// jobs complete; panics after `max_time` experiment seconds.
pub fn run_real(
    op: &mut CharmOperator,
    schedule: &Schedule,
    tick: Duration,
    max_time: Duration,
) -> RunMetrics {
    let (sink, faults, clock) = (op.client(), FaultSpec::default(), op.plane.clock());
    let pace = |d| clock.sleep(d);
    drive(op, &sink, schedule, &faults, tick, max_time, pace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crd::AppSpec;
    use hpc_workload::JobSpec;

    fn spec(name: &str) -> CharmJobSpec {
        CharmJobSpec {
            name: name.into(),
            min_replicas: 1,
            max_replicas: 2,
            priority: 1,
            walltime_estimate: None,
            app: AppSpec::linear(1.0, 1, 2),
        }
    }

    #[test]
    fn schedule_submission_times() {
        let s = Schedule::every(vec![spec("a"), spec("b")], Duration::from_secs(90.0));
        assert_eq!(s.submit_at(0).as_secs(), 0.0);
        assert_eq!(s.submit_at(1).as_secs(), 90.0);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn a_negative_gap_is_rejected_as_unsorted_arrivals() {
        let _ = Schedule::every(vec![spec("a"), spec("b")], Duration::from_secs(-1.0));
    }

    #[test]
    fn from_workload_maps_jobs_and_cancellations() {
        let wl = WorkloadSpec::new(vec![
            JobSpec::malleable("t0", 2, 4, 100.0, 3).at(Duration::from_secs(0.0)),
            JobSpec::malleable("t1", 1, 8, 400.0, 5)
                .at(Duration::from_secs(30.0))
                .cancelled_at(Duration::from_secs(60.0)),
        ]);
        let s = Schedule::from_workload(&wl);
        assert_eq!(s.jobs.len(), 2);
        assert_eq!(s.submit_at(1).as_secs(), 30.0);
        assert_eq!(s.jobs[0].min_replicas, 2);
        assert_eq!(s.jobs[1].priority, 5);
        assert_eq!(
            s.jobs[1].app,
            AppSpec::linear(400.0, 1, 8),
            "the app is the job's own shape"
        );
        assert_eq!(
            s.cancellations,
            vec![(Duration::from_secs(60.0), "t1".into())]
        );
    }

    #[test]
    fn same_instant_cancellations_go_in_job_order_not_name_order() {
        // Eleven jobs named j0..j10: by name, "j10" sorts before "j2".
        let jobs: Vec<CharmJobSpec> = (0..11).map(|i| spec(&format!("j{i}"))).collect();
        let at = Duration::from_secs(5.0);
        let cancel = |name: &str, at: Duration| (at, name.to_string());
        let s = Schedule::every(jobs, Duration::from_secs(1.0)).with_cancellations(vec![
            cancel("nobody", at),
            cancel("j10", at),
            cancel("j2", at),
            cancel("j9", Duration::from_secs(1.0)),
        ]);
        let order: Vec<&str> = s.cancellations.iter().map(|c| c.1.as_str()).collect();
        assert_eq!(order, ["j9", "j2", "j10", "nobody"]);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_schedule_rejected() {
        let _ = Schedule::every(vec![], Duration::from_secs(1.0));
    }
}
