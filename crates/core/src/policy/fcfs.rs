//! First-come-first-served with min-footprint backfilling.
//!
//! The reference baseline of the batch-scheduling literature (the
//! FCFS+backfilling configurations of Zojer et al. and the *Kub*
//! elasticity comparison): jobs start strictly in submission order, and
//! when the queue head does not fit, later jobs may *backfill* into the
//! leftover slots at their minimum footprint. This variant ignores
//! walltime estimates entirely, so no reservation can be planned and
//! the backfill is reservation-less — guarded against the starvation
//! that implies: once the blocked head has waited longer than
//! [`FcfsBackfill::backfill_patience`], backfilling pauses entirely
//! until the head starts (every freed slot then accumulates for it).
//! The estimate-aware sibling, [`EasyBackfill`](super::EasyBackfill),
//! replaces the patience heuristic with a true EASY shadow
//! reservation.
//! Unlike the paper's elastic policy this scheduler ignores priorities
//! entirely and never rescales a running job.
//!
//! A decision never walks the backlog it cannot start: the queue is
//! read lazily off the view's submission index only until the head
//! blocks, and the backfills come from the footprint cursor
//! ([`ClusterView::queued_fitting`]) — only the queued jobs behind the
//! head whose minimum still fits the free slots, in submission order.
//! One decision costs O(jobs started), however deep the queue.
//!
//! `FcfsBackfill` exists to prove the [`SchedulingPolicy`] surface is
//! genuinely open: it shares no code with the Fig. 2 / Fig. 3 algorithm
//! yet runs unmodified through the operator, the DES engine and the
//! bench binaries.

use hpc_metrics::{Duration, JobId, SimTime};

use crate::view::{Action, ClusterView, JobFields};

use super::{backfill_fit, greedy_head_walk, SchedulingPolicy};

/// FCFS + min-footprint backfilling with a starvation guard (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FcfsBackfill {
    /// Slots consumed by a job's launcher pod (same accounting as
    /// [`PolicyConfig::launcher_slots`](super::PolicyConfig)).
    pub launcher_slots: u32,
    /// How long the blocked queue head may wait before backfilling is
    /// suspended on its behalf. `Duration::INFINITY` disables the
    /// guard (pure reservation-less backfill).
    pub backfill_patience: Duration,
}

impl Default for FcfsBackfill {
    fn default() -> Self {
        FcfsBackfill {
            launcher_slots: 1,
            backfill_patience: Duration::from_secs(600.0),
        }
    }
}

impl FcfsBackfill {
    /// The standard configuration (one launcher slot per job, 600 s of
    /// backfill patience).
    pub fn new() -> Self {
        Self::default()
    }

    /// One decision. Head-of-queue jobs are sized greedily up to their
    /// maximum; once a job does not fit the queue is *blocked* and the
    /// jobs behind it that still fit start at their minimum footprint,
    /// in submission order — unless the head has outwaited
    /// `backfill_patience`, in which case nothing backfills and freed
    /// slots drain toward the head.
    fn schedule_pass(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        let launcher = i64::from(self.launcher_slots);
        let mut actions = Vec::new();
        let (head, mut free) = greedy_head_walk(view, self.launcher_slots, |job, replicas| {
            actions.push(Action::Create { job, replicas })
        });
        let Some(head) = head else {
            return actions;
        };
        if now - head.submitted_at() > self.backfill_patience {
            // Starvation guard: the head has waited long enough; stop
            // backfilling so frees accumulate.
            return actions;
        }
        let Some(fit) = backfill_fit(free, launcher) else {
            return actions;
        };
        let mut candidates = view.queued_fitting(head.id(), fit);
        while let Some(j) = candidates.next() {
            actions.push(Action::Create {
                job: j.id(),
                replicas: j.min_replicas(),
            });
            free -= i64::from(j.min_replicas()) + launcher;
            let Some(fit) = backfill_fit(free, launcher) else {
                break;
            };
            candidates.shrink_to(fit);
        }
        actions
    }
}

impl SchedulingPolicy for FcfsBackfill {
    fn name(&self) -> String {
        "fcfs_backfill".to_string()
    }

    fn launcher_slots(&self) -> u32 {
        self.launcher_slots
    }

    fn on_submit(&self, view: &ClusterView, job: JobId, now: SimTime) -> Vec<Action> {
        let mut actions = self.schedule_pass(view, now);
        if !actions
            .iter()
            .any(|a| matches!(a, Action::Create { job: j, .. } if *j == job))
        {
            actions.push(Action::Enqueue { job });
        }
        actions
    }

    fn on_complete(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        self.schedule_pass(view, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{apply_action, JobState};
    use proptest::prelude::*;

    fn queued(id: u32, submitted: f64, min: u32, max: u32) -> JobState {
        JobState {
            id: JobId(id),
            min_replicas: min,
            max_replicas: max,
            priority: 3,
            submitted_at: SimTime::from_secs(submitted),
            replicas: 0,
            last_action: SimTime::NEG_INFINITY,
            running: false,
            walltime_estimate: None,
        }
    }

    fn running(id: u32, submitted: f64, replicas: u32) -> JobState {
        JobState {
            replicas,
            running: true,
            last_action: SimTime::from_secs(submitted),
            ..queued(id, submitted, 1, replicas)
        }
    }

    fn view(capacity: u32, free: u32, jobs: Vec<JobState>) -> ClusterView {
        crate::view::tests::view_of(capacity, free, jobs)
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn head_of_queue_gets_greedy_sizing() {
        let pol = FcfsBackfill::new();
        let v = view(64, 64, vec![queued(0, 0.0, 4, 32)]);
        assert_eq!(
            pol.on_submit(&v, JobId(0), t0()),
            vec![Action::Create {
                job: JobId(0),
                replicas: 32
            }]
        );
    }

    #[test]
    fn strict_submission_order_ignores_priority() {
        let pol = FcfsBackfill::new();
        // The *earlier submission* must win even though the later one
        // has higher priority and a smaller id.
        let mut early = queued(1, 1.0, 4, 8);
        early.priority = 1;
        let mut late = queued(0, 2.0, 4, 8);
        late.priority = 5;
        let v = view(64, 10, vec![late, early]);
        let actions = pol.on_complete(&v, t0());
        // Only the earlier submission fits (10 free: 8+1 leaves 1);
        // the higher-priority later job must wait.
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(1),
                replicas: 8
            }]
        );
    }

    #[test]
    fn blocked_head_limits_backfill_to_min_footprint() {
        let pol = FcfsBackfill::new();
        let v = view(
            64,
            10,
            vec![
                running(0, 0.0, 53),
                queued(1, 1.0, 16, 32), // head: needs 17, only 10 free
                queued(2, 2.0, 2, 8),   // backfills at min, not max
            ],
        );
        let actions = pol.on_complete(&v, t0());
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(2),
                replicas: 2
            }]
        );
    }

    #[test]
    fn starvation_guard_suspends_backfill_for_an_old_head() {
        let pol = FcfsBackfill::new();
        let v = view(
            64,
            10,
            vec![
                running(0, 0.0, 53),
                queued(1, 1.0, 16, 32), // blocked head
                queued(2, 2.0, 2, 8),   // would backfill
            ],
        );
        // Within patience: the small job backfills.
        let within = pol.on_complete(&v, SimTime::from_secs(100.0));
        assert!(matches!(&within[0], Action::Create { job, .. } if *job == JobId(2)));
        // Head has outwaited the 600 s patience: nothing backfills, the
        // freed slots drain toward the head.
        let beyond = pol.on_complete(&v, SimTime::from_secs(700.0));
        assert!(
            beyond.is_empty(),
            "backfill must pause for the starving head, got {beyond:?}"
        );
        // Disabling the guard restores pure reservation-less backfill.
        let pure = FcfsBackfill {
            backfill_patience: Duration::INFINITY,
            ..FcfsBackfill::new()
        };
        let still = pure.on_complete(&v, SimTime::from_secs(700.0));
        assert!(matches!(&still[0], Action::Create { job, .. } if *job == JobId(2)));
    }

    #[test]
    fn never_rescales_and_never_cancels() {
        let pol = FcfsBackfill::new();
        let v = view(64, 40, vec![running(0, 0.0, 23)]);
        // Plenty of free room, but a running job is never touched.
        assert!(pol.on_complete(&v, t0()).is_empty());
    }

    #[test]
    fn impossible_job_is_skipped_without_wedging_the_queue() {
        let pol = FcfsBackfill::new();
        let v = view(8, 8, vec![queued(0, 0.0, 64, 64), queued(1, 1.0, 2, 4)]);
        let actions = pol.on_complete(&v, t0());
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(1),
                replicas: 4
            }]
        );
    }

    #[test]
    fn submitted_job_that_cannot_start_is_enqueued() {
        let pol = FcfsBackfill::new();
        let v = view(64, 2, vec![running(0, 0.0, 61), queued(1, 1.0, 4, 8)]);
        assert_eq!(
            pol.on_submit(&v, JobId(1), t0()),
            vec![Action::Enqueue { job: JobId(1) }]
        );
    }

    #[test]
    fn emitted_actions_are_always_applicable() {
        // Greedy head + backfill bookkeeping must respect capacity and
        // bounds for arbitrary queue shapes; apply_action panics if not.
        let pol = FcfsBackfill::new();
        for free in 0..=32u32 {
            let mut jobs = vec![running(0, 0.0, 64 - 1 - free)];
            for i in 0..6u32 {
                jobs.push(queued(1 + i, 1.0 + f64::from(i), 1 + i % 5, 4 + i * 3));
            }
            let mut v = view(64, free, jobs);
            for action in pol.on_complete(&v, t0()) {
                apply_action(&mut v, &action, t0(), 1);
            }
        }
    }

    /// The full-scan pass the indexed `schedule_pass` replaced, kept
    /// as the reference the proptest below holds it to: it assembles
    /// every queued job, in submission order, and decides each one.
    fn schedule_pass_reference(
        pol: &FcfsBackfill,
        view: &ClusterView,
        now: SimTime,
    ) -> Vec<Action> {
        let launcher = i64::from(pol.launcher_slots);
        let cap_workers = i64::from(view.capacity().saturating_sub(pol.launcher_slots).max(1));
        let mut free = i64::from(view.free_slots());
        let mut actions = Vec::new();
        let mut blocked = false;
        for j in view.queued_submission_order() {
            let mn = i64::from(j.min_replicas);
            let mx = i64::from(j.max_replicas).min(cap_workers);
            if mn > cap_workers {
                continue;
            }
            if !blocked && free - launcher >= mn {
                let replicas = (free - launcher).min(mx);
                actions.push(Action::Create {
                    job: j.id,
                    replicas: replicas as u32,
                });
                free -= replicas + launcher;
            } else {
                if !blocked && now - j.submitted_at > pol.backfill_patience {
                    break;
                }
                blocked = true;
                if free - launcher >= mn {
                    actions.push(Action::Create {
                        job: j.id,
                        replicas: j.min_replicas,
                    });
                    free -= mn + launcher;
                }
            }
        }
        actions
    }

    proptest! {
        /// The indexed pass (lazy head walk + fitting cursor) decides
        /// exactly what the full scan decided, action for action — on
        /// a fresh view and again after its own actions and a
        /// completion were folded in — with the head inside and beyond
        /// its patience.
        #[test]
        fn indexed_pass_equals_full_scan_reference(seed in proptest::any::<u64>()) {
            let pol = FcfsBackfill::new();
            let mut v = crate::view::tests::random_backlog(seed);
            for round in 0..3u32 {
                // Queued jobs were submitted at 0..12 s: a `now` of
                // 20..1220 s straddles the 600 s patience.
                let now = SimTime::from_secs(20.0 + f64::from(round) + (seed % 1200) as f64);
                let actions = pol.schedule_pass(&v, now);
                prop_assert_eq!(
                    &actions,
                    &schedule_pass_reference(&pol, &v, now),
                    "diverged in round {}", round
                );
                for a in &actions {
                    apply_action(&mut v, a, now, 1);
                }
                let oldest = v.running_desc_priority().map(|j| j.id).min();
                if let Some(done) = oldest {
                    v.remove(done, 1);
                }
            }
        }
    }
}
