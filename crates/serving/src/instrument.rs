//! Policy-dispatch instrumentation: counts how many times the engine
//! actually invoked the policy, proving the batched ingest path
//! amortizes dispatch.
//!
//! [`InstrumentedPolicy`] wraps any [`SchedulingPolicy`] and forwards
//! every hook unchanged while counting burst dispatches and per-job
//! decisions on shared atomics; the detached [`DispatchCounters`]
//! handle reads them while the operator owns the policy. The headline
//! figure is [`DispatchCounters::jobs_per_submit_dispatch`]: under the
//! batched ingest path a 100k-submission burst storm should cost
//! O(batches) policy invocations, not O(jobs) —
//! `tests/replay_counters.rs` pins exactly that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use elastic_core::{Action, ClusterView, CompleteBurst, SchedulingPolicy, SubmitBurst};
use hpc_metrics::{Duration, JobId, SimTime};
use hpc_workload::FaultEvent;

#[derive(Default)]
struct Counts {
    submit_bursts: AtomicU64,
    complete_bursts: AtomicU64,
    submit_calls: AtomicU64,
    complete_calls: AtomicU64,
}

/// Read-side handle onto an [`InstrumentedPolicy`]'s counters; clones
/// share the same counters.
#[derive(Clone)]
pub struct DispatchCounters {
    counts: Arc<Counts>,
}

impl DispatchCounters {
    /// Engine→policy submission *burst* dispatches (one per drained
    /// batch of same-instant arrivals).
    pub fn submit_bursts(&self) -> u64 {
        self.counts.submit_bursts.load(Ordering::Relaxed)
    }

    /// Engine→policy completion burst dispatches.
    pub fn complete_bursts(&self) -> u64 {
        self.counts.complete_bursts.load(Ordering::Relaxed)
    }

    /// Per-job `on_submit` decisions taken (inside or outside bursts).
    pub fn submit_calls(&self) -> u64 {
        self.counts.submit_calls.load(Ordering::Relaxed)
    }

    /// Per-completion `on_complete` decisions taken.
    pub fn complete_calls(&self) -> u64 {
        self.counts.complete_calls.load(Ordering::Relaxed)
    }

    /// Jobs decided per submission burst dispatch — the batch
    /// amortization factor (0 before the first burst).
    pub fn jobs_per_submit_dispatch(&self) -> f64 {
        let bursts = self.submit_bursts();
        if bursts == 0 {
            0.0
        } else {
            self.submit_calls() as f64 / bursts as f64
        }
    }
}

/// A transparent [`SchedulingPolicy`] decorator that counts dispatches
/// (see the module docs). Behaviour is bit-identical to the inner
/// policy: every hook forwards verbatim, including the burst hooks.
pub struct InstrumentedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    counts: Arc<Counts>,
}

impl InstrumentedPolicy {
    /// Wraps `inner`, returning the policy (give it to the operator)
    /// and the counter handle (keep it).
    pub fn wrap(inner: Box<dyn SchedulingPolicy>) -> (Box<dyn SchedulingPolicy>, DispatchCounters) {
        let counts = Arc::new(Counts::default());
        let handle = DispatchCounters {
            counts: Arc::clone(&counts),
        };
        (Box::new(InstrumentedPolicy { inner, counts }), handle)
    }
}

impl SchedulingPolicy for InstrumentedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn launcher_slots(&self) -> u32 {
        self.inner.launcher_slots()
    }

    fn on_submit(&self, view: &ClusterView, job: JobId, now: SimTime) -> Vec<Action> {
        self.counts.submit_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.on_submit(view, job, now)
    }

    fn on_complete(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        self.counts.complete_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.on_complete(view, now)
    }

    fn on_timer(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        self.inner.on_timer(view, now)
    }

    fn timer_interval(&self) -> Option<Duration> {
        self.inner.timer_interval()
    }

    fn on_fault(&self, view: &ClusterView, fault: &FaultEvent, now: SimTime) -> Vec<Action> {
        self.inner.on_fault(view, fault, now)
    }

    fn on_submit_burst(&self, burst: &mut dyn SubmitBurst) {
        self.counts.submit_bursts.fetch_add(1, Ordering::Relaxed);
        // The inner policy's burst loop calls its *own* on_submit, not
        // this wrapper's, so per-job decisions are counted by shimming
        // the burst driver instead.
        let mut shim = CountingBurst {
            inner: burst,
            pulls: &self.counts.submit_calls,
        };
        self.inner.on_submit_burst(&mut shim);
    }

    fn on_complete_burst(&self, burst: &mut dyn CompleteBurst) {
        self.counts.complete_bursts.fetch_add(1, Ordering::Relaxed);
        let mut shim = CountingCompleteBurst {
            inner: burst,
            retires: &self.counts.complete_calls,
        };
        self.inner.on_complete_burst(&mut shim);
    }
}

/// Burst shim counting each admitted job as one per-job decision,
/// since the inner policy's burst loop calls its own `on_submit`
/// directly (not through the wrapper).
struct CountingBurst<'a> {
    inner: &'a mut dyn SubmitBurst,
    pulls: &'a AtomicU64,
}

impl SubmitBurst for CountingBurst<'_> {
    fn view(&self) -> &ClusterView {
        self.inner.view()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn admit_next(&mut self) -> Option<JobId> {
        let next = self.inner.admit_next();
        if next.is_some() {
            self.pulls.fetch_add(1, Ordering::Relaxed);
        }
        next
    }

    fn apply(&mut self, actions: &[Action]) {
        self.inner.apply(actions);
    }
}

struct CountingCompleteBurst<'a> {
    inner: &'a mut dyn CompleteBurst,
    retires: &'a AtomicU64,
}

impl CompleteBurst for CountingCompleteBurst<'_> {
    fn view(&self) -> &ClusterView {
        self.inner.view()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn retire_next(&mut self) -> bool {
        let more = self.inner.retire_next();
        if more {
            self.retires.fetch_add(1, Ordering::Relaxed);
        }
        more
    }

    fn apply(&mut self, actions: &[Action]) {
        self.inner.apply(actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::{FcfsBackfill, JobState};

    struct VecBurst {
        view: ClusterView,
        jobs: Vec<JobId>,
        now: SimTime,
    }

    impl SubmitBurst for VecBurst {
        fn view(&self) -> &ClusterView {
            &self.view
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn admit_next(&mut self) -> Option<JobId> {
            self.jobs.pop()
        }
        fn apply(&mut self, _actions: &[Action]) {}
    }

    #[test]
    fn counts_bursts_and_per_job_decisions() {
        let (policy, counters) = InstrumentedPolicy::wrap(Box::new(FcfsBackfill::new()));
        assert_eq!(policy.name(), "fcfs_backfill");
        assert_eq!(counters.jobs_per_submit_dispatch(), 0.0);

        // One burst of 3 same-instant arrivals: one dispatch, three
        // per-job decisions. (`apply` here is a no-op — only counting
        // is under test.)
        let mut view = ClusterView::new(8);
        let ids: Vec<JobId> = (0..3)
            .map(|i| {
                let id = JobId(i);
                view.insert(
                    JobState {
                        id,
                        min_replicas: 1,
                        max_replicas: 1,
                        priority: 3,
                        submitted_at: SimTime::ZERO,
                        replicas: 0,
                        last_action: SimTime::NEG_INFINITY,
                        running: false,
                        walltime_estimate: None,
                    },
                    1,
                );
                id
            })
            .collect();
        let mut burst = VecBurst {
            view,
            jobs: ids,
            now: SimTime::ZERO,
        };
        policy.on_submit_burst(&mut burst);
        assert_eq!(counters.submit_bursts(), 1);
        assert_eq!(counters.submit_calls(), 3);
        assert_eq!(counters.jobs_per_submit_dispatch(), 3.0);
        assert_eq!(counters.complete_bursts(), 0);
        assert_eq!(counters.complete_calls(), 0);
    }
}
