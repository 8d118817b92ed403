//! The priority-based elastic scheduling algorithm.
//!
//! Direct transcriptions of the paper's Fig. 2 (`newJob`) and Fig. 3
//! (`completeJob`) pseudocode, with these interpretation decisions:
//!
//! 1. A running job occupies `replicas + launcher_slots` slots; the
//!    launcher term is the `−1`/`+1` in the paper's arithmetic.
//! 2. The shrink loops iterate `while index > 0` over `runningJobs`
//!    sorted by decreasing priority — sparing `runningJobs[0]` — kept
//!    behind `shrink_spares_head`.
//! 3. The priority break is *strict* (`j.priority > job.priority`):
//!    equal-priority jobs may be shrunk, exactly as written.
//! 4. Fig. 2 ends without an explicit create after the shrink pass; we
//!    create at `min(free_after − launcher, max)`.
//! 5. `completeJob` distributes all currently free slots rather than
//!    only those the finishing job released (a strict improvement that
//!    un-strands slots left by gap-blocked earlier passes; the paper
//!    folds leftovers back into `freeSlots` with the same effect over
//!    time).
//! 6. A job never acted on carries `last_action = −∞`
//!    (`SimTime::NEG_INFINITY`) for the paper's unset `lastAction`, so
//!    `now − lastAction < T_rescale_gap` can never block its first
//!    action.
//!
//! Both figures walk `runningJobs` in priority order and step over
//! every job still inside its `T_rescale_gap` — which, on a busy
//! cluster, is nearly all of them. So the walks do not start from the
//! priority order: [`actionable_running`] walks the view's last-action
//! order once, up to the first job the gap still blocks (the *exact*
//! [`Policy::gap_blocked`] predicate — `now − last_action` only falls
//! along that order, so the first blocked row ends the eligible set),
//! and inserts each row into a fixed-size buffer on the stack kept in
//! priority order. Fig. 2's two passes read the one buffer; Fig. 3
//! merges it with the view's queued-by-priority lane, whose rows the
//! gap never binds. A decision then costs O(jobs it may act on), not
//! O(running jobs). Only when the gap blocks too few jobs for that to
//! pay (more than a sixteenth of them are past it — a quiet cluster,
//! or the rigid kinds, whose jobs are never rescaled — or more than
//! the buffer holds) do the same passes read the running priority
//! order instead, testing the gap row by row. Neither walk ages a job:
//! the paper's aging remedy (§3.2.2) is the
//! [`AgingSweep`](super::AgingSweep) decorator, which re-runs Fig. 2 on
//! a timer against boosted priorities.
//!
//! Nor does Fig. 3 walk the whole queue when the leftover slots start
//! none of it. Its queued lane is
//! [`ClusterView::queued_fitting_by_priority`]: queued jobs in priority
//! order, drawn from footprint buckets, shrunk to the workers left
//! after every grant. A queued job whose spec minimum exceeds them can
//! never act (no kind's effective minimum is below the spec one), and
//! the budget only falls along the walk, so the rows the lane skips
//! are exactly those the full walk would have passed over. Fig. 3 then
//! costs O(jobs it may act on + buckets), not O(queue).

use hpc_metrics::{JobId, SimTime};

use crate::view::{Action, ClusterView, JobFields, JobRef, JobState};

use super::Policy;

/// The policy's replica bounds for `job`, the maximum clamped so that
/// the job plus its launcher can physically fit the cluster. The clamp
/// matters most for the rigid-max emulation: an XLarge job pinned to 64
/// replicas can never coexist with its launcher on a 64-slot cluster
/// (on the paper's EKS testbed the launcher pod is not CPU-bound, so
/// their emulation still fit), so its pin follows the clamped maximum.
///
/// The minimum is never below the spec minimum, for any kind: a job
/// whose spec minimum cannot fit stays queued. So a queued job whose
/// spec minimum exceeds the workers on offer is one no kind can start
/// — what lets Fig. 3's queued lane skip its footprint bucket.
fn effective_bounds<J: JobFields>(policy: &Policy, capacity: u32, job: &J) -> (u32, u32) {
    let cap_workers = capacity.saturating_sub(policy.cfg.launcher_slots).max(1);
    let (mn, mx) = policy.bounds(job);
    let mx = mx.min(cap_workers);
    match policy.kind {
        super::PolicyKind::RigidMax => (mx.max(job.min_replicas()), mx),
        _ => (mn, mx),
    }
}

/// The most rows [`actionable_running`] keeps. On `des-elastic-400k`'s
/// 4 096 slots a sixteenth of the running jobs stayed at or under 15
/// throughout a seed-3 replay, so the buffer never binds there.
const FEW: usize = 32;

/// The running jobs a decision may touch, highest priority first, held
/// on the stack: no decision allocates for them.
struct Few<'a> {
    rows: [Option<JobRef<'a>>; FEW],
    len: usize,
}

impl<'a> Few<'a> {
    /// Inserts `job` at its place in priority order, moving each row it
    /// outranks up by one.
    fn insert(&mut self, job: JobRef<'a>) {
        let mut at = self.len;
        while let Some(prev) = at.checked_sub(1).and_then(|p| self.rows[p]) {
            if job.cmp_priority(&prev).is_ge() {
                break;
            }
            self.rows[at] = Some(prev);
            at -= 1;
        }
        self.rows[at] = Some(job);
        self.len += 1;
    }

    /// The rows from the `from`-th on, highest priority first.
    fn from(&self, from: usize) -> impl DoubleEndedIterator<Item = JobRef<'a>> + '_ {
        self.rows[from..self.len].iter().flatten().copied()
    }
}

/// The running jobs `T_rescale_gap` lets a decision at `now` touch, in
/// decreasing priority order: the unblocked prefix of the view's
/// last-action order, read once into a [`Few`] kept in priority order.
/// Every running job it leaves out is one the figures' walks would
/// have stepped over.
///
/// `None` when more than a sixteenth of the running jobs are past their
/// gap, or more than [`FEW`]: ordering that many costs more than the
/// walk it replaces (which ends early, and at worst visits each running
/// job once), so the caller filters the running priority order
/// instead. The walk stops at the first row past that limit.
fn actionable_running<'a>(policy: &Policy, view: &'a ClusterView, now: SimTime) -> Option<Few<'a>> {
    let limit = (view.running_count() / 16).min(FEW);
    let mut few = Few {
        rows: [None; FEW],
        len: 0,
    };
    for job in view.running_by_last_action() {
        if policy.gap_blocked(&job, now) {
            break;
        }
        if few.len == limit {
            return None;
        }
        few.insert(job);
    }
    Some(few)
}

/// Fig. 2: decision for a newly submitted job.
pub(super) fn plan_submit(
    policy: &Policy,
    view: &ClusterView,
    job_id: JobId,
    now: SimTime,
) -> Vec<Action> {
    let job = view
        .job(job_id)
        .unwrap_or_else(|| panic!("on_submit for unknown job {job_id}"));
    assert!(!job.running, "on_submit for already-running {job_id}");
    let (jmin, jmax) = effective_bounds(policy, view.capacity(), &job);
    let launcher = i64::from(policy.cfg.launcher_slots);
    let free = i64::from(view.free_slots());

    // Fast path: fits right now (possibly below max).
    let replicas = (free - launcher).min(i64::from(jmax));
    if replicas >= i64::from(jmin) {
        return vec![Action::Create {
            job: job_id,
            replicas: replicas as u32,
        }];
    }

    // A job whose *spec* minimum footprint exceeds the cluster can
    // never run (the effective bounds above are already clamped).
    if i64::from(job.min_replicas) + launcher > i64::from(view.capacity()) {
        return vec![Action::Enqueue { job: job_id }];
    }

    // The shrink scans walk `runningJobs` from the *lowest* priority
    // upward, sparing the head — the top of the whole running order,
    // blocked or not.
    let spares_head = policy.cfg.shrink_spares_head;
    match actionable_running(policy, view, now) {
        Some(few) => {
            // The head outranks every running job: if the gap leaves
            // it open it is the first of the few.
            let is_head = |first: JobRef<'_>| {
                let head = view.running_scan().next().expect("a job is running");
                first.id() == head.id()
            };
            let spared = usize::from(spares_head && few.from(0).next().is_some_and(is_head));
            shrink_to_fit(policy, view, &job, || few.from(spared).rev())
        }
        None => shrink_to_fit(policy, view, &job, || {
            let below_head = view
                .running_count()
                .saturating_sub(usize::from(spares_head));
            let open = |j: &JobRef<'_>| !policy.gap_blocked(j, now);
            view.running_scan().rev().take(below_head).filter(open)
        }),
    }
}

/// Fig. 2's two shrink passes for `job` (which does not fit the free
/// slots), each over a fresh `shrinkable()`: the running jobs this
/// decision may shrink, lowest priority first.
fn shrink_to_fit<'a, I: Iterator<Item = JobRef<'a>>>(
    policy: &Policy,
    view: &ClusterView,
    job: &JobState,
    shrinkable: impl Fn() -> I,
) -> Vec<Action> {
    let (jmin, jmax) = effective_bounds(policy, view.capacity(), job);
    let launcher = i64::from(policy.cfg.launcher_slots);
    let free = i64::from(view.free_slots());

    // Pass 1 (dry run): can shrinking lower-priority jobs free enough
    // slots to start at the *minimum* configuration?
    let mut num_to_free = i64::from(jmin) + launcher - free;
    debug_assert!(num_to_free > 0);
    for j in shrinkable() {
        if num_to_free <= 0 || j.priority() > job.priority {
            break;
        }
        let (mn, _) = effective_bounds(policy, view.capacity(), &j);
        if j.replicas() > mn {
            let new_replicas = i64::from(mn).max(i64::from(j.replicas()) - num_to_free);
            num_to_free -= i64::from(j.replicas()) - new_replicas;
        }
    }
    if num_to_free > 0 {
        return vec![Action::Enqueue { job: job.id }];
    }

    // Pass 2: shrink for real, aiming for the *maximum* configuration.
    let mut actions = Vec::new();
    let mut min_to_free = i64::from(jmin) + launcher - free;
    let mut max_to_free = i64::from(jmax) + launcher - free;
    let mut freed_total: i64 = 0;
    for j in shrinkable() {
        if max_to_free <= 0 || j.priority() > job.priority {
            break;
        }
        let (mn, _) = effective_bounds(policy, view.capacity(), &j);
        if j.replicas() > mn {
            let new_replicas = i64::from(mn).max(i64::from(j.replicas()) - max_to_free) as u32;
            let freed = i64::from(j.replicas()) - i64::from(new_replicas);
            debug_assert!(freed > 0);
            actions.push(Action::Shrink {
                job: j.id(),
                to_replicas: new_replicas,
            });
            min_to_free -= freed;
            max_to_free -= freed;
            freed_total += freed;
        }
    }
    if min_to_free > 0 {
        // The paper's guard for failed shrinks; unreachable with our
        // deterministic apply, but kept for structural fidelity.
        actions.push(Action::Enqueue { job: job.id });
        return actions;
    }
    let replicas = (free + freed_total - launcher).min(i64::from(jmax));
    debug_assert!(replicas >= i64::from(jmin));
    actions.push(Action::Create {
        job: job.id,
        replicas: replicas as u32,
    });
    actions
}

/// One Fig. 3 distribution step for `j` — a running job the gap does
/// not block, or a queued one; updates the remaining-worker budget and
/// the action list.
fn distribute_to<J: JobFields>(
    policy: &Policy,
    capacity: u32,
    launcher: i64,
    j: &J,
    num_workers: &mut i64,
    actions: &mut Vec<Action>,
) {
    let (mn, mx) = effective_bounds(policy, capacity, j);
    if j.running() {
        if j.replicas() < mx {
            let add = (*num_workers).min(i64::from(mx) - i64::from(j.replicas()));
            actions.push(Action::Expand {
                job: j.id(),
                to_replicas: j.replicas() + add as u32,
            });
            *num_workers -= add;
        }
    } else {
        // Queued job: needs its launcher slot plus >= min workers.
        if *num_workers <= launcher {
            return;
        }
        let add = (*num_workers - launcher).min(i64::from(mx));
        if add >= i64::from(mn) {
            actions.push(Action::Create {
                job: j.id(),
                replicas: add as u32,
            });
            *num_workers -= add + launcher;
        }
    }
}

/// Fig. 3: redistribution when slots free up (a job completed).
///
/// The candidates are the running jobs the gap lets this decision
/// touch and every queued job the leftover can start, walked in
/// decreasing priority until the free slots are spent: the two lanes
/// merged, no sort of the queue.
pub(super) fn plan_complete(policy: &Policy, view: &ClusterView, now: SimTime) -> Vec<Action> {
    if view.free_slots() == 0 {
        return Vec::new();
    }
    match actionable_running(policy, view, now) {
        Some(few) => redistribute(policy, view, few.from(0)),
        None => {
            let open = |j: &JobRef<'_>| !policy.gap_blocked(j, now);
            redistribute(policy, view, view.running_scan().filter(open))
        }
    }
}

/// Fig. 3 over `running` — the running jobs this decision may expand,
/// highest priority first — and the queued jobs that fit the workers
/// left at each step.
fn redistribute<'a>(
    policy: &Policy,
    view: &'a ClusterView,
    running: impl Iterator<Item = JobRef<'a>>,
) -> Vec<Action> {
    let launcher = i64::from(policy.cfg.launcher_slots);
    let mut num_workers = i64::from(view.free_slots());
    // The largest spec minimum a queued job can start at with its
    // launcher paid for (`distribute_to`'s queued branch).
    let fit = |num_workers: i64| u32::try_from(num_workers - launcher).unwrap_or(0);
    let mut actions = Vec::new();
    // A running job already at its maximum takes nothing wherever it
    // ranks: out of the lane, so it costs the walk no comparison.
    let mut running = running
        .filter(|j| j.replicas() < effective_bounds(policy, view.capacity(), j).1)
        .peekable();
    let mut queued = view.queued_fitting_by_priority(fit(num_workers));
    while num_workers > 0 {
        let j = match (running.peek(), queued.peek()) {
            (Some(r), Some(q)) if q.cmp_priority(r).is_lt() => queued.next(),
            (Some(_), _) => running.next(),
            (None, _) => queued.next(),
        };
        let Some(j) = j else { break };
        distribute_to(
            policy,
            view.capacity(),
            launcher,
            &j,
            &mut num_workers,
            &mut actions,
        );
        queued.shrink_to(fit(num_workers));
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, PolicyConfig, PolicyKind};
    use crate::view::{apply_action, JobState};
    use hpc_metrics::Duration;
    use proptest::prelude::*;

    const CAP: u32 = 64;

    fn cfg(gap_s: f64) -> PolicyConfig {
        PolicyConfig {
            rescale_gap: Duration::from_secs(gap_s),
            launcher_slots: 1,
            shrink_spares_head: true,
        }
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

    fn view(free: u32, jobs: Vec<JobState>) -> ClusterView {
        crate::view::tests::view_of(CAP, free, jobs)
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    // ---- Fig. 2: submission ------------------------------------------

    #[test]
    fn empty_cluster_creates_at_max() {
        let pol = Policy::elastic(cfg(180.0));
        let v = view(64, vec![job(0, 3, 0.0, 8, 32)]);
        let actions = pol.on_submit(&v, JobId(0), t(0.0));
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(0),
                replicas: 32
            }]
        );
    }

    #[test]
    fn launcher_slot_is_reserved() {
        // 33 free, max 32: only 32 fit after the launcher -> 32. With 32
        // free, 31 workers fit.
        let pol = Policy::elastic(cfg(180.0));
        let v = view(32, vec![job(0, 3, 0.0, 8, 32)]);
        let actions = pol.on_submit(&v, JobId(0), t(0.0));
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(0),
                replicas: 31
            }]
        );
    }

    #[test]
    fn partial_fit_between_min_and_max() {
        let pol = Policy::elastic(cfg(180.0));
        let v = view(10, vec![job(0, 3, 0.0, 4, 32)]);
        let actions = pol.on_submit(&v, JobId(0), t(0.0));
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(0),
                replicas: 9
            }]
        );
    }

    #[test]
    fn shrinks_lower_priority_to_make_room() {
        // Head job (high prio, id 0) + low-prio job (id 1) at 30 of
        // [4,30]; new high-prio job (id 2) needs min 16. Free = 2.
        let pol = Policy::elastic(cfg(180.0));
        let head = running(job(0, 5, 0.0, 8, 31), 31, 0.0);
        let low = running(job(1, 1, 1.0, 4, 30), 30, 0.0);
        let new = job(2, 4, 500.0, 16, 32);
        let v = view(2, vec![head, low, new]);
        let actions = pol.on_submit(&v, JobId(2), t(500.0));
        // Shrink low to min (frees 26), create new at min(2+26-1, 32)=27.
        assert_eq!(
            actions,
            vec![
                Action::Shrink {
                    job: JobId(1),
                    to_replicas: 4
                },
                Action::Create {
                    job: JobId(2),
                    replicas: 27
                },
            ]
        );
    }

    #[test]
    fn shrink_only_as_much_as_needed_for_max() {
        // low at 30 of [4,30]; new needs max 8 (min 2). Free = 3.
        // max_to_free = 8 + 1 - 3 = 6 -> low shrinks 30 -> 24.
        let pol = Policy::elastic(cfg(180.0));
        let head = running(job(0, 5, 0.0, 8, 31), 31, 0.0);
        let low = running(job(1, 1, 1.0, 4, 30), 30, 0.0);
        let new = job(2, 4, 500.0, 8, 8);
        let v = view(3, vec![head, low, new]);
        let actions = pol.on_submit(&v, JobId(2), t(500.0));
        assert_eq!(
            actions,
            vec![
                Action::Shrink {
                    job: JobId(1),
                    to_replicas: 24
                },
                Action::Create {
                    job: JobId(2),
                    replicas: 8
                },
            ]
        );
    }

    #[test]
    fn enqueues_when_higher_priority_blocks() {
        let pol = Policy::elastic(cfg(180.0));
        let head = running(job(0, 5, 0.0, 4, 40), 40, 0.0);
        let mid = running(job(1, 4, 1.0, 4, 22), 22, 0.0);
        let new = job(2, 3, 500.0, 16, 32);
        let v = view(1, vec![head, mid, new]);
        // Both running jobs outrank "new": break immediately -> enqueue.
        let actions = pol.on_submit(&v, JobId(2), t(500.0));
        assert_eq!(actions, vec![Action::Enqueue { job: JobId(2) }]);
    }

    #[test]
    fn gap_blocks_shrink_and_causes_enqueue() {
        let pol = Policy::elastic(cfg(180.0));
        let head = running(job(0, 5, 0.0, 8, 32), 32, 0.0);
        // Low-priority job acted on recently (t=400, now=500 < 400+180).
        let low = running(job(1, 1, 1.0, 4, 30), 30, 400.0);
        let new = job(2, 4, 500.0, 16, 32);
        let v = view(1, vec![head, low, new]);
        let actions = pol.on_submit(&v, JobId(2), t(500.0));
        assert_eq!(actions, vec![Action::Enqueue { job: JobId(2) }]);
        // Once the gap expires the same submission shrinks.
        let actions = pol.on_submit(&v, JobId(2), t(600.0));
        assert!(matches!(actions[0], Action::Shrink { .. }));
    }

    #[test]
    fn head_job_is_spared_by_default() {
        let pol = Policy::elastic(cfg(180.0));
        // Only ONE running job — it is runningJobs[0] and spared, even
        // though it is low priority and shrinkable.
        let solo = running(job(0, 1, 0.0, 4, 60), 60, 0.0);
        let new = job(1, 5, 500.0, 16, 32);
        let v = view(3, vec![solo, new]);
        let actions = pol.on_submit(&v, JobId(1), t(500.0));
        assert_eq!(actions, vec![Action::Enqueue { job: JobId(1) }]);
    }

    #[test]
    fn head_job_shrinkable_when_quirk_disabled() {
        let mut c = cfg(180.0);
        c.shrink_spares_head = false;
        let pol = Policy::elastic(c);
        let solo = running(job(0, 1, 0.0, 4, 60), 60, 0.0);
        let new = job(1, 5, 500.0, 16, 32);
        let v = view(3, vec![solo, new]);
        let actions = pol.on_submit(&v, JobId(1), t(500.0));
        assert_eq!(
            actions,
            vec![
                Action::Shrink {
                    job: JobId(0),
                    to_replicas: 30
                },
                Action::Create {
                    job: JobId(1),
                    replicas: 32
                },
            ]
        );
    }

    #[test]
    fn equal_priority_is_shrinkable_strict_break() {
        // Paper's break is strictly `>`: an equal-priority job may be
        // shrunk for the newcomer.
        let pol = Policy::elastic(cfg(180.0));
        let head = running(job(0, 5, 0.0, 8, 32), 32, 0.0);
        let peer = running(job(1, 3, 1.0, 4, 30), 30, 0.0);
        let new = job(2, 3, 500.0, 16, 32);
        let v = view(1, vec![head, peer, new]);
        let actions = pol.on_submit(&v, JobId(2), t(500.0));
        assert!(
            matches!(&actions[0], Action::Shrink { job, .. } if *job == JobId(1)),
            "expected shrink of equal-priority peer, got {actions:?}"
        );
    }

    #[test]
    fn shrinks_lowest_priority_first() {
        let pol = Policy::elastic(cfg(180.0));
        let head = running(job(0, 5, 0.0, 4, 24), 24, 0.0);
        let mid = running(job(1, 3, 1.0, 4, 20), 20, 0.0);
        let low = running(job(2, 1, 2.0, 4, 18), 18, 0.0);
        let new = job(3, 4, 500.0, 16, 64);
        let v = view(2, vec![head, mid, low, new]);
        let actions = pol.on_submit(&v, JobId(3), t(500.0));
        // max_to_free = 64+1-2 = 63: low sheds 14, then mid sheds 16.
        assert_eq!(
            actions,
            vec![
                Action::Shrink {
                    job: JobId(2),
                    to_replicas: 4
                },
                Action::Shrink {
                    job: JobId(1),
                    to_replicas: 4
                },
                Action::Create {
                    job: JobId(3),
                    replicas: 31
                },
            ]
        );
    }

    #[test]
    fn impossible_job_enqueued() {
        let pol = Policy::elastic(cfg(180.0));
        let new = job(0, 5, 0.0, 64, 64); // min 64 + launcher > 64
        let v = view(64, vec![new]);
        let actions = pol.on_submit(&v, JobId(0), t(0.0));
        assert_eq!(actions, vec![Action::Enqueue { job: JobId(0) }]);
    }

    // ---- Fig. 3: completion ------------------------------------------

    #[test]
    fn completion_expands_highest_priority_first() {
        let pol = Policy::elastic(cfg(180.0));
        let a = running(job(0, 5, 0.0, 4, 32), 8, 0.0);
        let b = running(job(1, 3, 1.0, 4, 32), 8, 0.0);
        let v = view(30, vec![a, b]);
        let actions = pol.on_complete(&v, t(500.0));
        assert_eq!(
            actions,
            vec![
                Action::Expand {
                    job: JobId(0),
                    to_replicas: 32
                },
                Action::Expand {
                    job: JobId(1),
                    to_replicas: 14
                },
            ]
        );
    }

    #[test]
    fn completion_starts_queued_jobs_with_launcher_budget() {
        let pol = Policy::elastic(cfg(180.0));
        let q = job(0, 4, 0.0, 4, 16);
        let v = view(10, vec![q]);
        let actions = pol.on_complete(&v, t(100.0));
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(0),
                replicas: 9
            }]
        );
    }

    #[test]
    fn completion_backfills_out_of_order() {
        // Improvement (b) of §3.2: a large queued high-priority job that
        // doesn't fit is skipped; a smaller lower-priority one starts.
        let pol = Policy::elastic(cfg(180.0));
        let big = job(0, 5, 0.0, 32, 64);
        let small = job(1, 1, 1.0, 4, 8);
        let v = view(10, vec![big, small]);
        let actions = pol.on_complete(&v, t(100.0));
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(1),
                replicas: 8
            }]
        );
    }

    #[test]
    fn completion_respects_gap_for_running_jobs() {
        let pol = Policy::elastic(cfg(180.0));
        let recent = running(job(0, 5, 0.0, 4, 32), 8, 450.0);
        let old = running(job(1, 3, 1.0, 4, 32), 8, 0.0);
        let v = view(10, vec![recent, old]);
        let actions = pol.on_complete(&v, t(500.0));
        // "recent" is inside the gap; only "old" expands.
        assert_eq!(
            actions,
            vec![Action::Expand {
                job: JobId(1),
                to_replicas: 18
            }]
        );
    }

    #[test]
    fn completion_with_no_capacity_is_quiet() {
        let pol = Policy::elastic(cfg(180.0));
        let a = running(job(0, 5, 0.0, 4, 32), 8, 0.0);
        let v = view(0, vec![a]);
        assert!(pol.on_complete(&v, t(100.0)).is_empty());
    }

    #[test]
    fn completion_single_free_slot_cannot_start_queued_job() {
        let pol = Policy::elastic(cfg(180.0));
        let q = job(0, 4, 0.0, 1, 8);
        let v = view(1, vec![q]);
        // 1 free == launcher budget: nothing can start.
        assert!(pol.on_complete(&v, t(100.0)).is_empty());
    }

    // ---- Baseline emulations ----------------------------------------

    #[test]
    fn rigid_max_all_or_nothing() {
        let pol = Policy::of_kind(PolicyKind::RigidMax, cfg(180.0));
        let new = job(0, 3, 0.0, 4, 16);
        let fits = view(17, vec![new]);
        assert_eq!(
            pol.on_submit(&fits, JobId(0), t(0.0)),
            vec![Action::Create {
                job: JobId(0),
                replicas: 16
            }]
        );
        let tight = view(16, vec![new]);
        assert_eq!(
            pol.on_submit(&tight, JobId(0), t(0.0)),
            vec![Action::Enqueue { job: JobId(0) }]
        );
    }

    #[test]
    fn rigid_max_never_starts_a_job_below_its_spec_minimum() {
        // Min 70 cannot fit 64 slots: the clamp that pins rigid-max
        // jobs to the cluster's 63 workers must not start it at 63.
        let pol = Policy::of_kind(PolicyKind::RigidMax, cfg(180.0));
        let v = view(64, vec![job(0, 3, 0.0, 70, 80)]);
        assert_eq!(
            pol.on_submit(&v, JobId(0), t(0.0)),
            vec![Action::Enqueue { job: JobId(0) }]
        );
        assert!(pol.on_complete(&v, t(0.0)).is_empty());
        // The pin still follows the clamped maximum for a job whose
        // minimum fits: 64 replicas is capped at 63.
        let v = view(64, vec![job(0, 3, 0.0, 8, 64)]);
        assert_eq!(
            pol.on_submit(&v, JobId(0), t(0.0)),
            vec![Action::Create {
                job: JobId(0),
                replicas: 63
            }]
        );
    }

    #[test]
    fn rigid_min_never_uses_extra_room() {
        let pol = Policy::of_kind(PolicyKind::RigidMin, cfg(180.0));
        let new = job(0, 3, 0.0, 4, 16);
        let v = view(64, vec![new]);
        assert_eq!(
            pol.on_submit(&v, JobId(0), t(0.0)),
            vec![Action::Create {
                job: JobId(0),
                replicas: 4
            }]
        );
    }

    #[test]
    fn rigid_jobs_never_rescale_on_completion() {
        for pol in [
            Policy::of_kind(PolicyKind::RigidMin, cfg(180.0)),
            Policy::of_kind(PolicyKind::RigidMax, cfg(180.0)),
        ] {
            let a = running(job(0, 5, 0.0, 8, 8), 8, 0.0);
            let v = view(40, vec![a]);
            assert!(
                pol.on_complete(&v, t(500.0)).is_empty(),
                "{} rescaled a rigid job",
                pol.kind
            );
        }
    }

    #[test]
    fn moldable_sizes_at_admission_but_never_rescales() {
        let pol = Policy::of_kind(PolicyKind::Moldable, cfg(180.0));
        let new = job(0, 3, 0.0, 4, 16);
        let v = view(10, vec![new]);
        assert_eq!(
            pol.on_submit(&v, JobId(0), t(0.0)),
            vec![Action::Create {
                job: JobId(0),
                replicas: 9
            }]
        );
        // Never shrinks for a newcomer...
        let lowrunning = running(job(0, 1, 0.0, 4, 30), 30, 0.0);
        let newcomer = job(1, 5, 500.0, 16, 32);
        let v = view(1, vec![lowrunning, newcomer]);
        assert_eq!(
            pol.on_submit(&v, JobId(1), t(500.0)),
            vec![Action::Enqueue { job: JobId(1) }]
        );
        // ...and never expands on completion, but starts queued jobs.
        let a = running(job(0, 5, 0.0, 4, 32), 8, 0.0);
        let q = job(1, 3, 1.0, 4, 8);
        let v = view(12, vec![a, q]);
        assert_eq!(
            pol.on_complete(&v, t(500.0)),
            vec![Action::Create {
                job: JobId(1),
                replicas: 8
            }]
        );
    }

    /// A start enters its priority's running list with a walk in from
    /// the nearer end. The walk is short when the job lands near an
    /// end — a fresh start usually has its priority's newest
    /// submission — but a large-minimum job that waited starts behind
    /// newer small ones. Pinned over a trace-scale elastic replay:
    /// 4 096 slots and the paper's job mix every 1.5 s (the DES's
    /// heavy-traffic scenario), driven here on the view and the policy
    /// alone, with run times from the shared execution model. A mirror
    /// view takes every mutation but builds only the priority lists,
    /// so the search steps it takes on a `Create` are exactly the
    /// running-list inserts'.
    #[test]
    fn a_heavy_traffic_replay_starts_jobs_near_an_end_of_their_running_list() {
        use hpc_workload::{generate_workload, OverheadModel, Progress, ScalingModel};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        const CAPACITY: u32 = 4096;
        const JOBS: usize = 40_000;

        /// The replay's state beside the two views: per job its
        /// progress and the generation of its live completion event,
        /// the pending completions by (instant, id), and the tallies.
        struct Replay {
            view: ClusterView,
            mirror: ClusterView,
            progress: Vec<(Progress, u32)>,
            completions: BinaryHeap<Reverse<(SimTime, JobId, u32)>>,
            starts: u64,
            insert_steps: u64,
        }

        let workload = generate_workload(0, JOBS).spaced_every(Duration::from_secs(1.5));
        let (scaling, overhead) = (ScalingModel::default(), OverheadModel::default());
        let pol = Policy::of_kind(PolicyKind::Elastic, PolicyConfig::default());
        let launcher = pol.cfg.launcher_slots;
        let steps = || crate::view::SEARCH_STEPS.with(|steps| steps.get());
        let apply = |r: &mut Replay, actions: Vec<Action>, now: SimTime| {
            for action in actions {
                let (job, replicas) = match action {
                    Action::Create { job, replicas } => (job, replicas),
                    Action::Expand { job, to_replicas } | Action::Shrink { job, to_replicas } => {
                        (job, to_replicas)
                    }
                    Action::Enqueue { .. } => continue,
                    other => unreachable!("{other:?} in a fault-free replay"),
                };
                let from = r.view.job(job).expect("live").replicas;
                apply_action(&mut r.view, &action, now, launcher);
                let before = steps();
                apply_action(&mut r.mirror, &action, now, launcher);
                let shape = &workload.jobs[job.index()].shape;
                let rate = scaling.job_rate(shape, replicas);
                let (run, generation) = &mut r.progress[job.index()];
                if let Action::Create { .. } = action {
                    r.starts += 1;
                    r.insert_steps += steps() - before;
                    *run = Progress::launch(now, 0.0, rate, Duration::ZERO);
                } else {
                    run.resize(now, rate, overhead.job_total(shape, from, replicas));
                }
                *generation += 1;
                let at = run.finishes_at(shape.work());
                r.completions.push(Reverse((at, job, *generation)));
            }
        };
        let mut r = Replay {
            view: ClusterView::new(CAPACITY),
            mirror: ClusterView::new(CAPACITY),
            progress: vec![(Progress::default(), 0); JOBS],
            completions: BinaryHeap::new(),
            starts: 0,
            insert_steps: 0,
        };
        r.mirror.running_scan().count();
        let mut arrivals = workload.jobs.iter().enumerate().peekable();
        loop {
            let next_arrival = arrivals
                .peek()
                .map(|(_, spec)| SimTime::ZERO + spec.arrival);
            let next_completion = r.completions.peek().map(|Reverse((at, _, _))| *at);
            match (next_arrival, next_completion) {
                (None, None) => break,
                (Some(at), done) if done.is_none_or(|done| at <= done) => {
                    let (idx, spec) = arrivals.next().expect("peeked");
                    let job = JobState {
                        id: JobId::from_index(idx),
                        min_replicas: spec.min_replicas(),
                        max_replicas: spec.max_replicas(),
                        priority: spec.priority,
                        submitted_at: at,
                        replicas: 0,
                        last_action: SimTime::NEG_INFINITY,
                        running: false,
                        walltime_estimate: spec.walltime_estimate,
                    };
                    r.view.insert(job, launcher);
                    r.mirror.insert(job, launcher);
                    let actions = pol.on_submit(&r.view, job.id, at);
                    apply(&mut r, actions, at);
                }
                (_, at) => {
                    let at = at.expect("the arrival was not due first");
                    let Reverse((_, job, generation)) = r.completions.pop().expect("peeked");
                    if r.progress[job.index()].1 != generation {
                        continue; // rescaled since: a stale event
                    }
                    r.view.remove(job, launcher).expect("running job is live");
                    r.mirror.remove(job, launcher).expect("running job is live");
                    let actions = pol.on_complete(&r.view, at);
                    apply(&mut r, actions, at);
                }
            }
        }
        assert_eq!(r.view.len(), 0, "every job ran to completion");
        assert_eq!(r.mirror, r.view);
        assert_eq!(r.starts, JOBS as u64);
        // 45 965 steps here (1.15 per start; at 400 000 jobs, with the
        // queue ≈ 2 100 deep at a start, 1.27), where a tree of a
        // priority's ≈ 50 running jobs takes ≈ 6 comparisons.
        assert!(
            r.insert_steps * 4 <= r.starts * 5,
            "{} search steps for {} running-list inserts",
            r.insert_steps,
            r.starts
        );
    }

    // ---- Reference: the gap-blind walks --------------------------------

    /// Fig. 2 as a walk over the whole running priority order, stepping
    /// over each gap-blocked job one row at a time.
    fn plan_submit_reference(
        policy: &Policy,
        view: &ClusterView,
        job_id: JobId,
        now: SimTime,
    ) -> Vec<Action> {
        let job = view.job(job_id).expect("submitted job is live");
        let (jmin, jmax) = effective_bounds(policy, view.capacity(), &job);
        let launcher = i64::from(policy.cfg.launcher_slots);
        let free = i64::from(view.free_slots());
        let replicas = (free - launcher).min(i64::from(jmax));
        if replicas >= i64::from(jmin) {
            return vec![Action::Create {
                job: job_id,
                replicas: replicas as u32,
            }];
        }
        if i64::from(job.min_replicas) + launcher > i64::from(view.capacity()) {
            return vec![Action::Enqueue { job: job_id }];
        }
        let skip_head = usize::from(policy.cfg.shrink_spares_head);
        let shrinkable = view.running_count().saturating_sub(skip_head);

        let mut num_to_free = i64::from(jmin) + launcher - free;
        for j in view.running_scan().rev().take(shrinkable) {
            if num_to_free <= 0 {
                break;
            }
            if policy.gap_blocked(&j, now) {
                continue;
            }
            if j.priority() > job.priority {
                break;
            }
            let (mn, _) = effective_bounds(policy, view.capacity(), &j);
            if j.replicas() > mn {
                let new_replicas = i64::from(mn).max(i64::from(j.replicas()) - num_to_free);
                num_to_free -= i64::from(j.replicas()) - new_replicas;
            }
        }
        if num_to_free > 0 {
            return vec![Action::Enqueue { job: job_id }];
        }

        let mut actions = Vec::new();
        let mut min_to_free = i64::from(jmin) + launcher - free;
        let mut max_to_free = i64::from(jmax) + launcher - free;
        let mut freed_total: i64 = 0;
        for j in view.running_scan().rev().take(shrinkable) {
            if max_to_free <= 0 {
                break;
            }
            if policy.gap_blocked(&j, now) {
                continue;
            }
            if j.priority() > job.priority {
                break;
            }
            let (mn, _) = effective_bounds(policy, view.capacity(), &j);
            if j.replicas() > mn {
                let new_replicas = i64::from(mn).max(i64::from(j.replicas()) - max_to_free) as u32;
                let freed = i64::from(j.replicas()) - i64::from(new_replicas);
                actions.push(Action::Shrink {
                    job: j.id(),
                    to_replicas: new_replicas,
                });
                min_to_free -= freed;
                max_to_free -= freed;
                freed_total += freed;
            }
        }
        if min_to_free > 0 {
            actions.push(Action::Enqueue { job: job_id });
            return actions;
        }
        let replicas = (free + freed_total - launcher).min(i64::from(jmax));
        actions.push(Action::Create {
            job: job_id,
            replicas: replicas as u32,
        });
        actions
    }

    /// Fig. 3 as a walk over every live job, sorted from the job table
    /// (no index) by `(priority desc, submitted_at, id)`, testing the
    /// gap row by row.
    fn plan_complete_reference(policy: &Policy, view: &ClusterView, now: SimTime) -> Vec<Action> {
        let launcher = i64::from(policy.cfg.launcher_slots);
        let mut num_workers = i64::from(view.free_slots());
        let mut actions = Vec::new();
        let mut ordered: Vec<JobState> = view.jobs().collect();
        ordered.sort_by(|a, b| {
            b.priority
                .cmp(&a.priority)
                .then_with(|| a.submitted_at.cmp(&b.submitted_at))
                .then_with(|| a.id.cmp(&b.id))
        });
        for j in ordered {
            if num_workers <= 0 {
                break;
            }
            if policy.gap_blocked(&j, now) {
                continue;
            }
            distribute_to(
                policy,
                view.capacity(),
                launcher,
                &j,
                &mut num_workers,
                &mut actions,
            );
        }
        actions
    }

    // ---- Property tests ----------------------------------------------

    proptest! {
        /// The gap-aware passes (last-action prefix, sorted, merged with
        /// the queued lane) decide exactly what the gap-blind walks
        /// decide, action for action, for every policy kind, with the
        /// head spared or not — on a fresh view and again after their
        /// own actions and a completion were folded in. The backlog draws from few enough priorities and
        /// submission instants that whole orders ride on the id
        /// tie-break, holds jobs evicted back into the queue with their
        /// eviction instant on record, and starts its running jobs at
        /// 12..20 s against a 4 s gap read at whole seconds, so rows
        /// sit exactly on the gap boundary. Both routes to the running
        /// jobs the gap leaves open are taken (see the padding below).
        #[test]
        fn indexed_pass_equals_full_scan_reference(
            seed in any::<u64>(),
            spares_head in any::<bool>(),
        ) {
            let (priorities, instants) = if seed & 1 == 0 { (2, 3) } else { (5, 12) };
            let mut base = crate::view::tests::random_backlog_of(seed, priorities, instants);
            // Two cases in three, pad the cluster with small running
            // jobs: most acted on after every `now` below (blocked
            // throughout), up to three never acted on and free to
            // resize. The jobs past their gap are then sometimes a
            // handful of the running set (the sorted-prefix route) and
            // sometimes not (the priority-order route); unpadded, they
            // are most of it.
            let free = base.free_slots();
            let open = (seed / 3 % 4) as u32;
            for pad in 0..(seed % 3) as u32 * 24 {
                base.set_free_slots(3);
                let filler = job(1000 + pad, 1 + pad % priorities, f64::from(pad % instants), 1, 3);
                let acted_at = if pad < open { f64::NEG_INFINITY } else { 1e6 };
                base.insert(running(filler, 2, acted_at), 1);
            }
            base.set_free_slots(free);
            for kind in PolicyKind::ALL {
                let pol = Policy::of_kind(kind, PolicyConfig {
                    shrink_spares_head: spares_head,
                    ..cfg(4.0)
                });
                let mut v = base.clone();
                for round in 0..4u32 {
                    let now = t(14.0 + f64::from(round * 2) + (seed % 5) as f64);
                    let queued: Vec<JobId> = v.queued_scan().map(|j| j.id()).collect();
                    if let Some(&newcomer) = queued.get(seed as usize % queued.len().max(1)) {
                        let actions = pol.on_submit(&v, newcomer, now);
                        prop_assert_eq!(
                            &actions,
                            &plan_submit_reference(&pol, &v, newcomer, now),
                            "{} on_submit diverged in round {}", kind, round
                        );
                        for a in &actions {
                            apply_action(&mut v, a, now, 1);
                        }
                    }
                    let oldest = v.running_scan().map(|j| j.id()).min();
                    if let Some(done) = oldest {
                        v.remove(done, 1);
                    }
                    let actions = pol.on_complete(&v, now);
                    prop_assert_eq!(
                        &actions,
                        &plan_complete_reference(&pol, &v, now),
                        "{} on_complete diverged in round {}", kind, round
                    );
                    for a in &actions {
                        apply_action(&mut v, a, now, 1);
                    }
                }
            }
        }

        /// Applying every emitted action keeps all invariants: capacity
        /// respected, replica bounds respected, no action on gap-blocked
        /// jobs (except queued creation).
        #[test]
        fn submit_actions_are_always_applicable(
            free in 0u32..=64,
            njobs in 0usize..6,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut jobs = Vec::new();
            let mut used = 0u32;
            for i in 0..njobs {
                let min = rng.gen_range(1..=8);
                let max = rng.gen_range(min..=min + 24);
                let reps = rng.gen_range(min..=max);
                if used + reps + 1 > 64 {
                    break;
                }
                used += reps + 1;
                jobs.push(running(
                    job(i as u32, rng.gen_range(1..=5), i as f64, min, max),
                    reps,
                    rng.gen_range(0.0..400.0),
                ));
            }
            let free = free.min(64 - used);
            let nmin = rng.gen_range(1..=16);
            let nmax = rng.gen_range(nmin..=nmin + 32);
            let new_id = JobId(jobs.len() as u32);
            jobs.push(job(new_id.0, rng.gen_range(1..=5), 999.0, nmin, nmax));
            let v = view(free, jobs);
            let now = t(500.0);
            for kind in PolicyKind::ALL {
                let pol = Policy::of_kind(kind, cfg(180.0));
                let mut scratch = v.clone();
                let actions = pol.on_submit(&scratch, new_id, now);
                // apply_action panics on any invariant violation.
                for a in &actions {
                    apply_action(&mut scratch, a, now, 1);
                    // Gap check: shrunk/expanded jobs must have been
                    // actionable.
                    if let Action::Shrink { job, .. } | Action::Expand { job, .. } = a {
                        let before = v.job(*job).unwrap();
                        prop_assert!(!pol.gap_blocked(&before, now));
                    }
                }
                // At most one action per job.
                let mut ids: Vec<JobId> = actions.iter().map(|a| a.job()).collect();
                ids.sort_unstable();
                let len_before = ids.len();
                ids.dedup();
                prop_assert_eq!(ids.len(), len_before, "duplicate action on one job");
            }
        }

        /// §4.3.2's equivalence, action for action: the moldable
        /// scheduler IS the elastic scheduler with `T_rescale_gap = ∞`,
        /// on arbitrary views, for both decision points.
        #[test]
        fn moldable_equals_elastic_with_infinite_gap(
            free in 0u32..=64,
            njobs in 0usize..6,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            use hpc_metrics::Duration;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut jobs = Vec::new();
            let mut used = 0u32;
            for i in 0..njobs {
                let min = rng.gen_range(1..=8);
                let max = rng.gen_range(min..=min + 24);
                let queued = rng.gen_bool(0.3);
                if queued {
                    jobs.push(job(jobs.len() as u32, rng.gen_range(1..=5), i as f64, min, max));
                } else {
                    let reps = rng.gen_range(min..=max);
                    if used + reps + 1 > 64 {
                        continue;
                    }
                    used += reps + 1;
                    jobs.push(running(
                        job(jobs.len() as u32, rng.gen_range(1..=5), i as f64, min, max),
                        reps,
                        rng.gen_range(0.0..400.0),
                    ));
                }
            }
            let free = free.min(64 - used);
            let nmin = rng.gen_range(1..=16);
            let nmax = rng.gen_range(nmin..=nmin + 32);
            let new_id = JobId(jobs.len() as u32);
            jobs.push(job(new_id.0, rng.gen_range(1..=5), 999.0, nmin, nmax));
            let v = view(free, jobs);
            let now = t(rng.gen_range(0.0..2000.0));

            let moldable = Policy::of_kind(PolicyKind::Moldable, cfg(180.0));
            let mut inf = cfg(180.0);
            inf.rescale_gap = Duration::INFINITY;
            let elastic_inf = Policy::elastic(inf);

            prop_assert_eq!(
                moldable.on_submit(&v, new_id, now),
                elastic_inf.on_submit(&v, new_id, now),
                "on_submit diverged"
            );
            prop_assert_eq!(
                moldable.on_complete(&v, now),
                elastic_inf.on_complete(&v, now),
                "on_complete diverged"
            );
        }

        /// Completion planning never over-allocates and never violates
        /// max bounds, for all policy kinds.
        #[test]
        fn complete_actions_are_always_applicable(
            free in 0u32..=64,
            njobs in 0usize..6,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut jobs = Vec::new();
            let mut used = 0u32;
            for i in 0..njobs {
                let min = rng.gen_range(1..=8);
                let max = rng.gen_range(min..=min + 24);
                let queued = rng.gen_bool(0.3);
                if queued {
                    jobs.push(job(jobs.len() as u32, rng.gen_range(1..=5), i as f64, min, max));
                } else {
                    let reps = rng.gen_range(min..=max);
                    if used + reps + 1 > 64 {
                        continue;
                    }
                    used += reps + 1;
                    jobs.push(running(
                        job(jobs.len() as u32, rng.gen_range(1..=5), i as f64, min, max),
                        reps,
                        rng.gen_range(0.0..400.0),
                    ));
                }
            }
            let free = free.min(64 - used);
            let v = view(free, jobs);
            let now = t(500.0);
            for kind in PolicyKind::ALL {
                let pol = Policy::of_kind(kind, cfg(180.0));
                let mut scratch = v.clone();
                for a in pol.on_complete(&scratch, now) {
                    apply_action(&mut scratch, &a, now, 1);
                }
            }
        }
    }
}
