//! A timing [`SchedulingPolicy`] decorator: the traced run's view of
//! the policy layer, taken from outside.
//!
//! Every hook forwards to the wrapped policy unchanged — the burst
//! hooks through driver shims, exactly as
//! `elastic_serving::InstrumentedPolicy` does — so decisions, and with
//! them every fingerprint, are identical to the undecorated run. A
//! decision inside a burst is timed from the engine handing over a job
//! (`admit_next` / `retire_next` returning) to the policy handing back
//! its plan (`apply` being entered): the engine's own work on either
//! side of that window is not charged to the policy.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use elastic_core::{Action, ClusterView, CompleteBurst, SchedulingPolicy, SubmitBurst};
use hpc_metrics::{Duration, JobId, SimTime};
use hpc_workload::FaultEvent;

use crate::agg::Agg;

/// What the decorator saw; shared with the benchmark through
/// [`TimedPolicy::wrap`].
#[derive(Debug, Clone, Default)]
pub struct PolicyLedger {
    /// One entry per decision (submit, completion, timer, fault).
    pub decide: Agg,
    /// Actions the policy returned.
    pub actions: u64,
    /// Engine → policy submission burst dispatches, and the jobs they
    /// admitted.
    pub submit_dispatches: u64,
    pub burst_admissions: u64,
}

impl PolicyLedger {
    pub fn merge(&mut self, other: &PolicyLedger) {
        self.decide.merge(&other.decide);
        self.actions += other.actions;
        self.submit_dispatches += other.submit_dispatches;
        self.burst_admissions += other.burst_admissions;
    }

    /// Jobs admitted per submission burst dispatch (0 before the first).
    pub fn jobs_per_dispatch(&self) -> f64 {
        if self.submit_dispatches == 0 {
            0.0
        } else {
            self.burst_admissions as f64 / self.submit_dispatches as f64
        }
    }
}

pub type SharedLedger = Arc<Mutex<PolicyLedger>>;

pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    ledger: SharedLedger,
}

impl TimedPolicy {
    /// Wraps `inner`; the ledger is uncontended because an engine calls
    /// its policy from one thread at a time.
    pub fn wrap(inner: Box<dyn SchedulingPolicy>) -> (Box<dyn SchedulingPolicy>, SharedLedger) {
        let ledger = SharedLedger::default();
        let policy = TimedPolicy {
            inner,
            ledger: Arc::clone(&ledger),
        };
        (Box::new(policy), ledger)
    }

    /// [`TimedPolicy::wrap`] for a traced run, `inner` itself otherwise.
    pub fn wrap_if(
        traced: bool,
        inner: Box<dyn SchedulingPolicy>,
    ) -> (Box<dyn SchedulingPolicy>, Option<SharedLedger>) {
        if traced {
            let (policy, ledger) = Self::wrap(inner);
            (policy, Some(ledger))
        } else {
            (inner, None)
        }
    }

    fn timed(&self, decide: impl FnOnce() -> Vec<Action>) -> Vec<Action> {
        let started = Instant::now();
        let actions = decide();
        let ns = started.elapsed().as_nanos() as u64;
        let mut ledger = self.ledger.lock().expect("policy ledger poisoned");
        ledger.decide.record(ns);
        ledger.actions += actions.len() as u64;
        actions
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn launcher_slots(&self) -> u32 {
        self.inner.launcher_slots()
    }

    fn on_submit(&self, view: &ClusterView, job: JobId, now: SimTime) -> Vec<Action> {
        self.timed(|| self.inner.on_submit(view, job, now))
    }

    fn on_complete(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        self.timed(|| self.inner.on_complete(view, now))
    }

    fn on_timer(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        self.timed(|| self.inner.on_timer(view, now))
    }

    fn timer_interval(&self) -> Option<Duration> {
        self.inner.timer_interval()
    }

    fn on_fault(&self, view: &ClusterView, fault: &FaultEvent, now: SimTime) -> Vec<Action> {
        self.timed(|| self.inner.on_fault(view, fault, now))
    }

    fn on_submit_burst(&self, burst: &mut dyn SubmitBurst) {
        let mut shim = TimedSubmitBurst {
            inner: burst,
            window: DecisionWindow::default(),
        };
        self.inner.on_submit_burst(&mut shim);
        let mut ledger = self.ledger.lock().expect("policy ledger poisoned");
        ledger.submit_dispatches += 1;
        ledger.burst_admissions += shim.window.decide.count;
        shim.window.bank(&mut ledger);
    }

    fn on_complete_burst(&self, burst: &mut dyn CompleteBurst) {
        let mut shim = TimedCompleteBurst {
            inner: burst,
            window: DecisionWindow::default(),
        };
        self.inner.on_complete_burst(&mut shim);
        let mut ledger = self.ledger.lock().expect("policy ledger poisoned");
        shim.window.bank(&mut ledger);
    }
}

/// Decision timing shared by the two burst shims: a window opens when
/// the engine hands a job over and closes when the plan comes back.
#[derive(Default)]
struct DecisionWindow {
    opened: Option<Instant>,
    decide: Agg,
    actions: u64,
}

impl DecisionWindow {
    fn open(&mut self) {
        self.opened = Some(Instant::now());
    }

    fn close(&mut self, actions: usize) {
        if let Some(opened) = self.opened.take() {
            self.decide.record(opened.elapsed().as_nanos() as u64);
        }
        self.actions += actions as u64;
    }

    fn bank(&self, ledger: &mut PolicyLedger) {
        ledger.decide.merge(&self.decide);
        ledger.actions += self.actions;
    }
}

struct TimedSubmitBurst<'a> {
    inner: &'a mut dyn SubmitBurst,
    window: DecisionWindow,
}

impl SubmitBurst for TimedSubmitBurst<'_> {
    fn view(&self) -> &ClusterView {
        self.inner.view()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn admit_next(&mut self) -> Option<JobId> {
        let next = self.inner.admit_next();
        if next.is_some() {
            self.window.open();
        }
        next
    }

    fn apply(&mut self, actions: &[Action]) {
        self.window.close(actions.len());
        self.inner.apply(actions);
    }
}

struct TimedCompleteBurst<'a> {
    inner: &'a mut dyn CompleteBurst,
    window: DecisionWindow,
}

impl CompleteBurst for TimedCompleteBurst<'_> {
    fn view(&self) -> &ClusterView {
        self.inner.view()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn retire_next(&mut self) -> bool {
        let more = self.inner.retire_next();
        if more {
            self.window.open();
        }
        more
    }

    fn apply(&mut self, actions: &[Action]) {
        self.window.close(actions.len());
        self.inner.apply(actions);
    }
}
