//! Starvation-aging sweep: a timer-driven policy decorator.
//!
//! Backfilling baselines and strict priority scheduling both starve
//! unlucky queued jobs: nothing re-examines them until a submission or
//! completion happens to. [`AgingSweep`] wraps any
//! [`SchedulingPolicy`] and uses the (otherwise unused) `on_timer`
//! surface to periodically re-run the inner policy's *admission*
//! decision for the most-starved queued job, against a view whose
//! queued jobs have their priority escalated by waiting time: a job's
//! effective priority doubles every `half_life` of queue time. A
//! long-starving low-priority job thus eventually outranks fresh
//! high-priority work, and the inner policy's Fig. 2 logic shrinks
//! that work to admit it — the paper's §3.2.2 aging remedy, driven by
//! the control plane's timer instead of piggybacking on unrelated
//! completions. One job is promoted per sweep tick, so each tick's
//! action list is exactly one inner admission plan (the contract-clean
//! unit both engines already apply).
//!
//! The decorator is policy-agnostic: `on_submit`/`on_complete` pass
//! straight through; only the timer pass sees boosted priorities. The
//! boosted view is a clone with its queued priorities rewritten in
//! place (made once per timer tick, never on the per-event hot path;
//! O(ids), for the view's row column), and the inner policy's actions
//! are id-keyed, so they apply to the real view unchanged — priorities
//! affect ordering, never applicability. Priority-blind inner policies
//! (the FCFS family) gain only the periodic re-examination, not
//! reordering — aging is a priority-scheduling remedy by nature.

use hpc_metrics::{Duration, JobId, SimTime};

use crate::view::{Action, ClusterView, JobFields};

use super::SchedulingPolicy;

/// Wraps a policy with a periodic priority-aging sweep (see the module
/// docs).
pub struct AgingSweep {
    inner: Box<dyn SchedulingPolicy>,
    /// Queue time after which a waiting job's effective priority has
    /// doubled (and quadrupled after two, …).
    half_life: Duration,
    /// How often the sweep runs.
    interval: Duration,
}

impl AgingSweep {
    /// Decorates `inner` with an aging sweep every `interval`; a queued
    /// job's effective priority doubles per `half_life` of waiting.
    ///
    /// # Panics
    /// If either duration is not finite and positive, or if `inner`
    /// already requests its own timer (the decorator owns the timer
    /// surface).
    pub fn new(inner: Box<dyn SchedulingPolicy>, half_life: Duration, interval: Duration) -> Self {
        assert!(
            half_life.as_secs().is_finite() && half_life.as_secs() > 0.0,
            "aging half-life must be finite and positive"
        );
        assert!(
            interval.as_secs().is_finite() && interval.as_secs() > 0.0,
            "aging sweep interval must be finite and positive"
        );
        assert!(
            inner.timer_interval().is_none(),
            "AgingSweep cannot wrap a policy that already uses the timer"
        );
        AgingSweep {
            inner,
            half_life,
            interval,
        }
    }

    /// The effective priority of a job that has waited `waited` at base
    /// priority `priority`: doubling per half-life, saturating.
    fn effective_priority(&self, priority: u32, waited: Duration) -> u32 {
        let halves = (waited.as_secs() / self.half_life.as_secs()).max(0.0);
        let boosted = f64::from(priority) * halves.exp2();
        if boosted >= f64::from(u32::MAX) {
            u32::MAX
        } else {
            boosted as u32
        }
    }

    /// A clone of `view` with every queued job's priority replaced by
    /// its aged effective priority at `now`.
    fn boosted_view(&self, view: &ClusterView, now: SimTime) -> ClusterView {
        let mut boosted = view.clone();
        boosted.set_queued_priorities(|j| {
            self.effective_priority(j.priority(), now - j.submitted_at())
        });
        boosted
    }
}

impl SchedulingPolicy for AgingSweep {
    fn name(&self) -> String {
        format!("{}+aging", self.inner.name())
    }

    fn launcher_slots(&self) -> u32 {
        self.inner.launcher_slots()
    }

    fn on_submit(&self, view: &ClusterView, job: JobId, now: SimTime) -> Vec<Action> {
        self.inner.on_submit(view, job, now)
    }

    fn on_complete(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        self.inner.on_complete(view, now)
    }

    fn on_timer(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        // The most-starved queued job: highest effective priority,
        // earliest submission (then lowest id) breaking ties.
        let Some(target) = view
            .queued_scan()
            .map(|j| {
                (
                    self.effective_priority(j.priority(), now - j.submitted_at()),
                    std::cmp::Reverse(j.submitted_at()),
                    std::cmp::Reverse(j.id()),
                )
            })
            .max()
            .map(|(_, std::cmp::Reverse(_), std::cmp::Reverse(id))| id)
        else {
            return Vec::new(); // nobody waiting: nothing to age
        };
        let boosted = self.boosted_view(view, now);
        let mut actions = self.inner.on_submit(&boosted, target, now);
        // Re-enqueueing an already-queued job is a no-op; drop it so a
        // fruitless sweep tick is silent.
        actions.retain(|a| !matches!(a, Action::Enqueue { .. }));
        actions
    }

    fn timer_interval(&self) -> Option<Duration> {
        Some(self.interval)
    }

    fn on_fault(
        &self,
        view: &ClusterView,
        fault: &hpc_workload::FaultEvent,
        now: SimTime,
    ) -> Vec<Action> {
        // Fault recovery is the inner policy's call (aging only boosts
        // admission); without this forward the decorator would silently
        // fall back to the trait default and mask a wrapped
        // `RecoveryPolicy`'s strategy.
        self.inner.on_fault(view, fault, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, PolicyConfig};
    use crate::view::JobState;

    fn cfg() -> PolicyConfig {
        PolicyConfig {
            rescale_gap: Duration::from_secs(10.0),
            launcher_slots: 1,
            shrink_spares_head: false,
        }
    }

    fn sweep() -> AgingSweep {
        AgingSweep::new(
            Box::new(Policy::elastic(cfg())),
            Duration::from_secs(100.0),
            Duration::from_secs(30.0),
        )
    }

    fn job(id: u32, prio: u32, submitted: f64, min: u32, max: u32) -> JobState {
        JobState {
            id: JobId(id),
            min_replicas: min,
            max_replicas: max,
            priority: prio,
            submitted_at: SimTime::from_secs(submitted),
            replicas: 0,
            last_action: SimTime::NEG_INFINITY,
            running: false,
            walltime_estimate: None,
        }
    }

    fn running(mut j: JobState, replicas: u32, last_action: f64) -> JobState {
        j.replicas = replicas;
        j.running = true;
        j.last_action = SimTime::from_secs(last_action);
        j
    }

    #[test]
    fn effective_priority_doubles_per_half_life() {
        let s = sweep();
        assert_eq!(s.effective_priority(2, Duration::from_secs(0.0)), 2);
        assert_eq!(s.effective_priority(2, Duration::from_secs(100.0)), 4);
        assert_eq!(s.effective_priority(2, Duration::from_secs(300.0)), 16);
        // Saturates instead of overflowing.
        assert_eq!(s.effective_priority(5, Duration::from_secs(1e6)), u32::MAX);
    }

    #[test]
    fn timer_shrinks_fresh_high_priority_work_for_a_starving_job() {
        let s = sweep();
        // A fresh priority-5 job hogs the cluster; a priority-1 job has
        // starved for 1000 s (10 half-lives: effective 1024).
        let hog = running(job(0, 5, 900.0, 4, 60), 60, 900.0);
        let starved = job(1, 1, 0.0, 8, 16);
        let v = crate::view::tests::view_of(64, 3, vec![hog, starved]);
        let now = SimTime::from_secs(1000.0);
        let actions = s.on_timer(&v, now);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Create { job, .. } if *job == JobId(1))),
            "starving job should be started by the sweep, got {actions:?}"
        );
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Shrink { job, .. } if *job == JobId(0))),
            "the hog should be shrunk to make room, got {actions:?}"
        );
        // Without the sweep (plain on_complete on the unboosted view)
        // nothing happens: the elastic policy orders by base priority
        // and 3 free slots cannot start an 8-min job.
        assert!(s.on_complete(&v, now).is_empty());
    }

    #[test]
    fn timer_is_quiet_with_an_empty_queue() {
        let s = sweep();
        let busy = running(job(0, 5, 0.0, 4, 60), 60, 0.0);
        let v = crate::view::tests::view_of(64, 3, vec![busy]);
        assert!(s.on_timer(&v, SimTime::from_secs(500.0)).is_empty());
    }

    #[test]
    fn pass_through_surfaces_delegate_to_the_inner_policy() {
        let s = sweep();
        assert_eq!(s.name(), "elastic+aging");
        assert_eq!(s.launcher_slots(), 1);
        assert_eq!(s.timer_interval(), Some(Duration::from_secs(30.0)));
        let q = job(0, 3, 0.0, 2, 8);
        let v = crate::view::tests::view_of(64, 64, vec![q]);
        let actions = s.on_submit(&v, JobId(0), SimTime::from_secs(0.0));
        assert!(matches!(actions[0], Action::Create { .. }));
    }

    #[test]
    #[should_panic(expected = "already uses the timer")]
    fn nesting_two_timers_is_rejected() {
        let inner = sweep();
        let _ = AgingSweep::new(
            Box::new(inner),
            Duration::from_secs(100.0),
            Duration::from_secs(30.0),
        );
    }
}
