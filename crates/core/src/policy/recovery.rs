//! Fault-recovery strategies as a policy decorator.
//!
//! When capacity is lost (node failure, spot reclamation) the engines
//! call `SchedulingPolicy::on_fault` with a view whose
//! [`ClusterView::deficit`] counts the occupied slots the fault landed
//! on. [`RecoveryPolicy`] wraps any inner policy and answers that call
//! with one of three classic strategies, leaving every other surface
//! untouched — so the same scheduling algorithm can be compared under
//! different recovery disciplines (the `fault_tolerance` sweep):
//!
//! * [`RecoveryStrategy::ShrinkOnReclaim`] — the elastic answer: shrink
//!   malleable running jobs toward their minimum footprint,
//!   lowest-priority first, and only evict whole jobs when shrinking
//!   alone cannot cover the deficit. No work is lost for jobs that
//!   merely shrink; the cluster rides out the outage at reduced width.
//! * [`RecoveryStrategy::CheckpointRestart`] — preempt lowest-priority
//!   running jobs with [`Action::Evict`]: they keep the progress of
//!   their last periodic checkpoint and later restart (FullRestart
//!   path) from it, paying the restart + state-restore overhead but
//!   wasting only the work since the checkpoint.
//! * [`RecoveryStrategy::KillRequeue`] — kill lowest-priority running
//!   jobs outright with [`Action::Requeue`]: all their progress is
//!   wasted and they resubmit from scratch after an exponential
//!   backoff, failing permanently once the retry budget is spent.

use hpc_metrics::{Duration, JobId, SimTime};
use hpc_workload::FaultEvent;

use crate::view::{Action, ClusterView, JobFields, JobRef};

use super::SchedulingPolicy;

/// How a [`RecoveryPolicy`] clears the capacity deficit a fault opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryStrategy {
    /// Shrink malleable running jobs toward their minimum, evicting
    /// only when shrinking cannot cover the deficit.
    ShrinkOnReclaim,
    /// Evict lowest-priority running jobs; they restart from their last
    /// periodic checkpoint.
    CheckpointRestart,
    /// Kill lowest-priority running jobs and resubmit them from
    /// scratch after a backoff.
    KillRequeue,
}

impl RecoveryStrategy {
    /// All three strategies, in sweep presentation order.
    pub const ALL: [RecoveryStrategy; 3] = [
        RecoveryStrategy::ShrinkOnReclaim,
        RecoveryStrategy::CheckpointRestart,
        RecoveryStrategy::KillRequeue,
    ];
}

impl std::fmt::Display for RecoveryStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryStrategy::ShrinkOnReclaim => write!(f, "shrink_on_reclaim"),
            RecoveryStrategy::CheckpointRestart => write!(f, "checkpoint_restart"),
            RecoveryStrategy::KillRequeue => write!(f, "kill_requeue"),
        }
    }
}

/// Decorates any [`SchedulingPolicy`] with a fault-recovery strategy
/// (see the module docs). Every surface except
/// [`on_fault`](SchedulingPolicy::on_fault) passes straight through to
/// the inner policy.
pub struct RecoveryPolicy {
    inner: Box<dyn SchedulingPolicy>,
    strategy: RecoveryStrategy,
}

impl RecoveryPolicy {
    /// Wraps `inner` with `strategy`.
    pub fn new(inner: Box<dyn SchedulingPolicy>, strategy: RecoveryStrategy) -> Self {
        RecoveryPolicy { inner, strategy }
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> RecoveryStrategy {
        self.strategy
    }

    /// The elastic plan: shrink running jobs toward their minimum,
    /// lowest-priority first ([`lowest_priority_first`]), evicting
    /// whole jobs only while shrinking the remainder cannot cover the
    /// deficit. Ignores the rescale gap — a fault is an emergency, not
    /// a routine rescale.
    fn shrink_plan(&self, view: &ClusterView) -> Vec<Action> {
        let launcher = self.inner.launcher_slots();
        let mut deficit = view.deficit();
        if deficit == 0 {
            return Vec::new();
        }
        let running = lowest_priority_first(view);
        let mut shrinkable: u32 = running
            .iter()
            .map(|j| j.replicas() - j.min_replicas())
            .sum();
        let mut actions = Vec::new();
        let mut idx = 0;
        while deficit > shrinkable && idx < running.len() {
            let j = &running[idx];
            actions.push(Action::Evict { job: j.id() });
            deficit = deficit.saturating_sub(j.replicas() + launcher);
            shrinkable -= j.replicas() - j.min_replicas();
            idx += 1;
        }
        for j in &running[idx..] {
            if deficit == 0 {
                break;
            }
            let take = (j.replicas() - j.min_replicas()).min(deficit);
            if take > 0 {
                actions.push(Action::Shrink {
                    job: j.id(),
                    to_replicas: j.replicas() - take,
                });
                deficit -= take;
            }
        }
        actions
    }
}

/// The running jobs, lowest priority first: the reverse of every
/// priority order. A fault asks this rarely, so it sorts the
/// last-action list (O(1) upkeep, and the transient-fault victim pick
/// reads it anyway) once per fault instead of having every start and
/// completion after the first fault keep the running priority order
/// current — which is why a rigid baseline under faults builds no
/// priority order.
fn lowest_priority_first(view: &ClusterView) -> Vec<JobRef<'_>> {
    let mut running: Vec<JobRef<'_>> = view.running_by_last_action().collect();
    running.sort_unstable_by(|a, b| b.cmp_priority(a));
    running
}

/// The kill-and-requeue and checkpoint/restart plans: preempts the
/// lowest-priority running jobs ([`lowest_priority_first`]) with
/// `preempt` until the deficit is covered (each preemption releases
/// the job's replicas plus its `launcher` slots). The trait default
/// [`SchedulingPolicy::on_fault`] is this with [`Action::Requeue`].
pub(super) fn preempt_lowest(
    view: &ClusterView,
    launcher: u32,
    preempt: impl Fn(JobId) -> Action,
) -> Vec<Action> {
    let mut deficit = view.deficit();
    if deficit == 0 {
        return Vec::new();
    }
    let mut actions = Vec::new();
    for j in lowest_priority_first(view) {
        if deficit == 0 {
            break;
        }
        actions.push(preempt(j.id()));
        deficit = deficit.saturating_sub(j.replicas() + launcher);
    }
    actions
}

impl SchedulingPolicy for RecoveryPolicy {
    fn name(&self) -> String {
        format!("{}+{}", self.inner.name(), self.strategy)
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
        self.inner.on_timer(view, now)
    }

    fn timer_interval(&self) -> Option<Duration> {
        self.inner.timer_interval()
    }

    fn on_fault(&self, view: &ClusterView, fault: &FaultEvent, now: SimTime) -> Vec<Action> {
        let _ = (fault, now);
        let launcher = self.inner.launcher_slots();
        match self.strategy {
            RecoveryStrategy::ShrinkOnReclaim => self.shrink_plan(view),
            RecoveryStrategy::CheckpointRestart => {
                preempt_lowest(view, launcher, |job| Action::Evict { job })
            }
            RecoveryStrategy::KillRequeue => {
                preempt_lowest(view, launcher, |job| Action::Requeue { job })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, PolicyConfig};
    use crate::view::{apply_action, tests::view_of, JobState};
    use hpc_workload::FaultKind;

    fn wrapped(strategy: RecoveryStrategy) -> RecoveryPolicy {
        RecoveryPolicy::new(Box::new(Policy::elastic(PolicyConfig::default())), strategy)
    }

    fn running(id: u32, prio: u32, min: u32, replicas: u32) -> JobState {
        JobState {
            id: JobId(id),
            min_replicas: min,
            max_replicas: 16,
            priority: prio,
            submitted_at: SimTime::from_secs(f64::from(id)),
            replicas,
            last_action: SimTime::ZERO,
            running: true,
            walltime_estimate: None,
        }
    }

    fn fault(slots: u32) -> FaultEvent {
        FaultEvent {
            at: Duration::from_secs(100.0),
            slots,
            kind: FaultKind::Reclaim,
        }
    }

    /// 32 slots, two running jobs (prio 5 with 8 workers, prio 1 with
    /// 8 workers), 14 free; fail 20 slots → deficit 6.
    fn faulted_view() -> crate::view::ClusterView {
        let mut v = view_of(32, 14, vec![running(0, 5, 2, 8), running(1, 1, 2, 8)]);
        v.fail_slots(20);
        assert_eq!(v.deficit(), 6);
        v
    }

    #[test]
    fn kill_requeue_preempts_lowest_priority_first() {
        let p = wrapped(RecoveryStrategy::KillRequeue);
        let now = SimTime::from_secs(100.0);
        let mut v = faulted_view();
        let actions = p.on_fault(&v, &fault(20), now);
        assert_eq!(actions, vec![Action::Requeue { job: JobId(1) }]);
        for a in &actions {
            apply_action(&mut v, a, now, 1);
        }
        assert_eq!(v.deficit(), 0, "one 8+1 preemption covers a 6 deficit");
        assert!(v.job(JobId(0)).is_some(), "high priority survives");
    }

    #[test]
    fn checkpoint_restart_evicts_instead_of_requeueing() {
        let p = wrapped(RecoveryStrategy::CheckpointRestart);
        let now = SimTime::from_secs(100.0);
        let mut v = faulted_view();
        let actions = p.on_fault(&v, &fault(20), now);
        assert_eq!(actions, vec![Action::Evict { job: JobId(1) }]);
        for a in &actions {
            apply_action(&mut v, a, now, 1);
        }
        assert_eq!(v.deficit(), 0);
        let evicted = v.job(JobId(1)).expect("evicted job stays queued");
        assert!(!evicted.running);
    }

    #[test]
    fn shrink_on_reclaim_shrinks_without_evicting_when_possible() {
        let p = wrapped(RecoveryStrategy::ShrinkOnReclaim);
        let now = SimTime::from_secs(100.0);
        let mut v = faulted_view();
        // 6 deficit vs 6 shrinkable on job 1 alone (8 → 2): the
        // low-priority job shrinks to its minimum, nobody is evicted.
        let actions = p.on_fault(&v, &fault(20), now);
        assert_eq!(
            actions,
            vec![Action::Shrink {
                job: JobId(1),
                to_replicas: 2
            }]
        );
        for a in &actions {
            apply_action(&mut v, a, now, 1);
        }
        assert_eq!(v.deficit(), 0);
        assert_eq!(v.running_count(), 2, "both jobs keep running");
    }

    #[test]
    fn shrink_on_reclaim_evicts_when_shrinking_cannot_cover() {
        let p = wrapped(RecoveryStrategy::ShrinkOnReclaim);
        let now = SimTime::from_secs(100.0);
        // Two rigid-ish jobs (min == replicas): zero shrinkable, so a
        // deficit forces evictions, lowest priority first.
        let mut v = view_of(32, 14, vec![running(0, 5, 8, 8), running(1, 1, 8, 8)]);
        v.fail_slots(20);
        assert_eq!(v.deficit(), 6);
        let actions = p.on_fault(&v, &fault(20), now);
        assert_eq!(actions, vec![Action::Evict { job: JobId(1) }]);
        for a in &actions {
            apply_action(&mut v, a, now, 1);
        }
        assert_eq!(v.deficit(), 0);
    }

    #[test]
    fn non_fault_surfaces_delegate_to_the_inner_policy() {
        let p = wrapped(RecoveryStrategy::KillRequeue);
        assert_eq!(p.name(), "elastic+kill_requeue");
        assert_eq!(p.launcher_slots(), 1);
        assert_eq!(p.timer_interval(), None);
        assert_eq!(p.strategy(), RecoveryStrategy::KillRequeue);
        assert_eq!(RecoveryStrategy::ALL.len(), 3);
    }

    #[test]
    fn default_trait_on_fault_matches_kill_requeue() {
        let inner = Policy::elastic(PolicyConfig::default());
        let wrapped = wrapped(RecoveryStrategy::KillRequeue);
        let v = faulted_view();
        let now = SimTime::from_secs(100.0);
        assert_eq!(
            SchedulingPolicy::on_fault(&inner, &v, &fault(20), now),
            wrapped.on_fault(&v, &fault(20), now)
        );
    }
}
