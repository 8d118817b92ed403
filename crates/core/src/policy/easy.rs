//! EASY backfilling on user walltime estimates.
//!
//! The field-standard rigid baseline of the batch-scheduling literature
//! (Lifka's EASY scheduler, the configuration Zojer et al. evaluate
//! malleable policies against): jobs start strictly in submission
//! order; when the queue head does not fit, the scheduler makes a
//! **shadow reservation** for it — the earliest instant the completion
//! frontier of running jobs (by their walltime estimates) frees enough
//! slots — and later jobs may backfill *only if they cannot delay that
//! reservation*: either they are estimated to finish before the shadow
//! start, or they fit into the surplus slots the reservation will not
//! need.
//!
//! This replaces the patience-counter heuristic of [`FcfsBackfill`]
//! (kept as the conservative, estimate-free variant): EASY never pauses
//! backfilling wholesale, yet the head's start time is provably never
//! pushed back by a backfill (see the property test at the bottom —
//! the classic EASY invariant).
//!
//! A decision never walks the backlog it cannot start. The queue is
//! read lazily off the view's submission index only until the head
//! blocks; the completion frontier comes off the estimated-end index
//! ([`ClusterView::running_by_estimated_end`]); and the backfill
//! candidates come from the footprint cursor
//! ([`ClusterView::queued_fitting`]) — only the queued jobs behind the
//! head whose minimum still fits the free slots. One decision costs
//! O(jobs started + frontier walked + candidates that fit), however
//! deep the queue, and with no slot free behind the head it costs O(1).
//! That is exact, not a heuristic: the free slots only fall during a
//! pass, so a job that does not fit them now cannot be admitted later
//! in it. Jobs without an estimate key at infinity on the frontier:
//! they never free slots as far as the reservation arithmetic is
//! concerned, and as backfill candidates they only qualify for the
//! reservation's surplus.
//!
//! [`EasyBackfill::sjbf`] switches the candidate ordering to
//! shortest-job-backfilled-first: behind the reserved head, candidates
//! are tried in ascending estimated walltime (estimate-less last)
//! instead of submission order. Short jobs slot into the reservation
//! window more often, at the cost of FCFS fairness among backfillers;
//! the head's shadow-start guarantee is unchanged.
//!
//! [`FcfsBackfill`]: super::FcfsBackfill

use hpc_metrics::{Duration, JobId, SimTime};

use crate::view::{Action, ClusterView, JobFields, JobState};

use super::{backfill_fit, greedy_head_walk, SchedulingPolicy, LAUNCHER_SLOTS};

/// EASY backfilling (aggressive backfilling with one shadow
/// reservation) on walltime estimates. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EasyBackfill {
    /// Backfill candidate ordering: `false` keeps classic EASY
    /// (candidates behind the reserved head are tried in submission
    /// order); `true` tries shortest estimated walltime first
    /// (SJBF — estimate-less candidates last), which packs more short
    /// jobs into the reservation window at the cost of FCFS fairness
    /// among backfillers. The head's guarantee is identical either way.
    pub shortest_first: bool,
}

impl Default for EasyBackfill {
    fn default() -> Self {
        Self::new()
    }
}

/// The shadow reservation for a blocked queue head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Reservation {
    /// The reserved job (the first queued job that does not fit now).
    job: JobId,
    /// Earliest instant the completion frontier frees the head's
    /// minimum footprint — the head's guaranteed start time.
    /// `INFINITY` when running jobs without estimates hold slots the
    /// head needs (no reservation can be planned; backfilling is then
    /// unrestricted, since no guarantee exists to protect).
    shadow_start: SimTime,
    /// Slots still available at `shadow_start` *beyond* the head's
    /// footprint: a backfill running past the shadow start may take at
    /// most this many.
    surplus: i64,
}

impl Reservation {
    /// Whether a backfill taking `footprint` slots from `now` for its
    /// `estimate` cannot delay this reservation: it ends by the shadow
    /// start, or it fits the surplus — which it then consumes, being
    /// still there when the head starts.
    fn admit(&mut self, now: SimTime, footprint: i64, estimate: Option<Duration>) -> bool {
        if estimate.is_some_and(|est| now + est <= self.shadow_start) {
            return true;
        }
        let fits = footprint <= self.surplus;
        if fits {
            self.surplus -= footprint;
        }
        fits
    }
}

impl EasyBackfill {
    /// The standard configuration (one launcher slot per job,
    /// submission-order backfilling).
    pub fn new() -> Self {
        EasyBackfill {
            shortest_first: false,
        }
    }

    /// EASY with shortest-job-backfilled-first candidate ordering.
    pub fn sjbf() -> Self {
        EasyBackfill {
            shortest_first: true,
        }
    }

    /// Plans the shadow reservation for the first queued job that does
    /// not fit in the current free slots, walking the estimated
    /// completion frontier until the head's minimum footprint
    /// accumulates. Returns `None` when the queue is empty, every
    /// queued job fits right now, or no queued job can ever run on this
    /// cluster.
    #[cfg(test)]
    fn shadow_start(&self, view: &ClusterView, _now: SimTime) -> Option<Reservation> {
        let (head, free) = greedy_head_walk(view, |_, _| {});
        head.map(|head| self.plan_reservation(view, &head, free))
    }

    /// Walks the frontier for `head`, starting from `free` available
    /// slots, and returns its reservation. The jobs the head walk
    /// started are irrelevant here: they only consumed slots that were
    /// free now, which `free` already reflects, and the frontier walk
    /// needs only additional releases.
    fn plan_reservation(
        &self,
        view: &ClusterView,
        head: &impl JobFields,
        free: i64,
    ) -> Reservation {
        let launcher = i64::from(LAUNCHER_SLOTS);
        let needed = i64::from(head.min_replicas()) + launcher;
        let mut avail = free;
        for r in view.running_by_estimated_end() {
            let end = r.estimated_end();
            if !end.is_finite() {
                // Estimate-less jobs never release slots: the frontier
                // ends here. If the head still lacks slots its shadow
                // start is unknowable.
                break;
            }
            avail += i64::from(r.replicas) + launcher;
            if avail >= needed {
                return Reservation {
                    job: head.id(),
                    shadow_start: end,
                    surplus: avail - needed,
                };
            }
        }
        Reservation {
            job: head.id(),
            shadow_start: SimTime::INFINITY,
            surplus: i64::MAX,
        }
    }

    /// One decision: jobs start greedily (up to their maximum) in
    /// submission order while they fit; the first job that does not
    /// fit becomes the reserved head, and the jobs behind it whose
    /// minimum fits the remaining free slots are backfill candidates,
    /// admitted at that minimum only if they cannot delay the
    /// reservation.
    fn schedule_pass(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        let launcher = i64::from(LAUNCHER_SLOTS);
        let mut actions = Vec::new();
        let (head, mut free) = greedy_head_walk(view, |job, replicas| {
            actions.push(Action::Create { job, replicas })
        });
        let (Some(head), Some(fit)) = (head, backfill_fit(free)) else {
            return actions;
        };
        let mut candidates = view.queued_fitting(head.id(), fit);
        // The reservation is planned at the first candidate (with none,
        // nothing reads it), from the slots free when the head blocked.
        let free_at_head = free;
        let mut res = None;
        let mut offer = |free: &mut i64, job: JobId, min: u32, estimate: Option<Duration>| {
            let res = res.get_or_insert_with(|| self.plan_reservation(view, &head, free_at_head));
            let footprint = i64::from(min) + launcher;
            let admitted = footprint <= *free && res.admit(now, footprint, estimate);
            if admitted {
                actions.push(Action::Create { job, replicas: min });
                *free -= footprint;
            }
            admitted
        };
        if self.shortest_first {
            // SJBF reorders the candidates that fit now; the rest
            // could not start later in the pass either.
            let mut fitting: Vec<JobState> = candidates.map(|j| j.snapshot()).collect();
            fitting.sort_by(sjbf_order);
            for j in fitting {
                offer(&mut free, j.id, j.min_replicas, j.walltime_estimate);
            }
        } else {
            while let Some(j) = candidates.next() {
                if offer(&mut free, j.id(), j.min_replicas(), j.walltime_estimate()) {
                    let Some(fit) = backfill_fit(free) else {
                        break;
                    };
                    candidates.shrink_to(fit);
                }
            }
        }
        actions
    }
}

/// SJBF candidate order: shortest estimated walltime first,
/// estimate-less candidates last, submission order breaking ties.
fn sjbf_order(a: &JobState, b: &JobState) -> std::cmp::Ordering {
    let est = |j: &JobState| j.walltime_estimate.map_or(f64::INFINITY, |e| e.as_secs());
    est(a)
        .total_cmp(&est(b))
        .then_with(|| a.submitted_at.cmp(&b.submitted_at))
        .then_with(|| a.id.cmp(&b.id))
}

impl SchedulingPolicy for EasyBackfill {
    fn name(&self) -> String {
        if self.shortest_first {
            "easy_sjbf".to_string()
        } else {
            "easy_backfill".to_string()
        }
    }

    fn launcher_slots(&self) -> u32 {
        LAUNCHER_SLOTS
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
    use crate::view::apply_action;
    use hpc_metrics::Duration;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn queued(id: u32, submitted: f64, min: u32, max: u32, est: Option<f64>) -> JobState {
        JobState {
            id: JobId(id),
            min_replicas: min,
            max_replicas: max,
            priority: 3,
            submitted_at: SimTime::from_secs(submitted),
            replicas: 0,
            last_action: SimTime::NEG_INFINITY,
            running: false,
            walltime_estimate: est.map(Duration::from_secs),
        }
    }

    fn running(id: u32, started: f64, replicas: u32, est: Option<f64>) -> JobState {
        JobState {
            replicas,
            running: true,
            last_action: SimTime::from_secs(started),
            ..queued(id, started, 1, replicas, est)
        }
    }

    fn view(capacity: u32, free: u32, jobs: Vec<JobState>) -> ClusterView {
        crate::view::tests::view_of(capacity, free, jobs)
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn head_of_queue_gets_greedy_sizing() {
        let pol = EasyBackfill::new();
        let v = view(64, 64, vec![queued(0, 0.0, 4, 32, Some(100.0))]);
        assert_eq!(
            pol.on_submit(&v, JobId(0), t(0.0)),
            vec![Action::Create {
                job: JobId(0),
                replicas: 32
            }]
        );
    }

    #[test]
    fn backfill_admitted_when_it_finishes_before_the_shadow_start() {
        let pol = EasyBackfill::new();
        // One running job holds 53+1; ends at t=1000. Head needs 16+1
        // of the 10 free -> blocked, shadow start 1000 with surplus
        // 64 - 17 = 47.
        let v = view(
            64,
            10,
            vec![
                running(0, 0.0, 53, Some(1000.0)),
                queued(1, 1.0, 16, 32, Some(500.0)), // reserved head
                queued(2, 2.0, 2, 8, Some(800.0)),   // ends 900 < 1000: ok
                queued(3, 3.0, 2, 8, Some(2000.0)),  // past shadow, but 3 <= surplus
            ],
        );
        let actions = pol.on_complete(&v, t(100.0));
        assert_eq!(
            actions,
            vec![
                Action::Create {
                    job: JobId(2),
                    replicas: 2
                },
                Action::Create {
                    job: JobId(3),
                    replicas: 2
                },
            ]
        );
        let res = pol.shadow_start(&v, t(100.0)).expect("head is blocked");
        assert_eq!(res.job, JobId(1));
        assert_eq!(res.shadow_start, t(1000.0));
        assert_eq!(res.surplus, 64 - 17);
    }

    #[test]
    fn backfill_into_surplus_may_run_past_the_shadow_start() {
        let pol = EasyBackfill::new();
        // Running job (30+1) ends at 1000, freeing 31; head needs 19+1
        // of 15 free -> blocked. At the shadow start: 15 + 31 = 46
        // available, 20 needed -> surplus 26. A practically-endless job
        // at min 4 (+1 launcher = 5 <= 26) backfills even though it
        // runs far past the shadow.
        let v = view(
            64,
            15,
            vec![
                running(0, 0.0, 30, Some(1000.0)),
                queued(1, 1.0, 19, 32, Some(500.0)),
                queued(2, 2.0, 4, 8, Some(1_000_000.0)),
            ],
        );
        let actions = pol.on_complete(&v, t(100.0));
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(2),
                replicas: 4
            }]
        );
        let res = pol.shadow_start(&v, t(100.0)).expect("blocked");
        assert_eq!(res.shadow_start, t(1000.0));
        assert_eq!(res.surplus, 26);
    }

    #[test]
    fn backfill_denied_when_it_would_delay_the_reservation() {
        let pol = EasyBackfill::new();
        // Tight surplus: head needs 48+1 of 12 free; the frontier frees
        // 41 at t=1000 (avail 53, surplus 4). A past-shadow candidate
        // needing 4+1 = 5 > 4 would delay the reservation -> denied,
        // even though 11 slots are free right now. A candidate that
        // finishes before the shadow start is still welcome.
        let v = view(
            64,
            12,
            vec![
                running(0, 0.0, 40, Some(1000.0)),
                queued(1, 1.0, 48, 60, Some(500.0)),
                queued(2, 2.0, 4, 4, Some(2000.0)), // past shadow, > surplus
                queued(3, 3.0, 4, 4, Some(500.0)),  // ends 600 <= 1000
            ],
        );
        let res = pol.shadow_start(&v, t(100.0)).expect("blocked");
        assert_eq!((res.shadow_start, res.surplus), (t(1000.0), 4));
        let actions = pol.on_complete(&v, t(100.0));
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(3),
                replicas: 4
            }],
            "only the finishes-before candidate may start"
        );
    }

    #[test]
    fn estimate_less_running_jobs_block_the_frontier() {
        let pol = EasyBackfill::new();
        // The running job has no estimate: the head's shadow start is
        // unknowable (INFINITY), so there is no guarantee to protect
        // and backfilling is unrestricted.
        let v = view(
            64,
            10,
            vec![
                running(0, 0.0, 53, None),
                queued(1, 1.0, 16, 32, Some(500.0)),
                queued(2, 2.0, 2, 8, None),
            ],
        );
        let res = pol.shadow_start(&v, t(100.0)).expect("blocked");
        assert_eq!(res.shadow_start, SimTime::INFINITY);
        let actions = pol.on_complete(&v, t(100.0));
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(2),
                replicas: 2
            }]
        );
    }

    #[test]
    fn estimate_less_backfill_candidate_needs_surplus() {
        let pol = EasyBackfill::new();
        // Finite shadow start, tight surplus: an estimate-less
        // candidate (end unknowable) cannot promise to finish before
        // the shadow, so it must fit the surplus — and does not
        // (avail at shadow = 10 + 27 = 37, needed 31, surplus 6 < the
        // candidate's 9-slot footprint, though 9 slots are free now).
        let v = view(
            32,
            10,
            vec![
                running(0, 0.0, 26, Some(1000.0)),
                queued(1, 1.0, 30, 31, Some(500.0)),
                queued(2, 2.0, 8, 8, None),
            ],
        );
        assert!(pol.on_complete(&v, t(100.0)).is_empty());
        // With a finite estimate ending before the shadow it starts.
        let v2 = view(
            32,
            10,
            vec![
                running(0, 0.0, 26, Some(1000.0)),
                queued(1, 1.0, 30, 31, Some(500.0)),
                queued(2, 2.0, 8, 8, Some(100.0)),
            ],
        );
        assert_eq!(
            pol.on_complete(&v2, t(100.0)),
            vec![Action::Create {
                job: JobId(2),
                replicas: 8
            }]
        );
    }

    #[test]
    fn strict_submission_order_ignores_priority() {
        let pol = EasyBackfill::new();
        let mut early = queued(1, 1.0, 4, 8, Some(100.0));
        early.priority = 1;
        let mut late = queued(0, 2.0, 4, 8, Some(100.0));
        late.priority = 5;
        let v = view(64, 10, vec![late, early]);
        let actions = pol.on_complete(&v, t(0.0));
        assert_eq!(
            actions,
            vec![Action::Create {
                job: JobId(1),
                replicas: 8
            }]
        );
    }

    #[test]
    fn never_rescales_and_enqueues_unstartable_submissions() {
        let pol = EasyBackfill::new();
        let v = view(64, 40, vec![running(0, 0.0, 23, Some(100.0))]);
        assert!(pol.on_complete(&v, t(0.0)).is_empty());
        let v = view(
            64,
            2,
            vec![
                running(0, 0.0, 61, Some(100.0)),
                queued(1, 1.0, 4, 8, Some(50.0)),
            ],
        );
        assert_eq!(
            pol.on_submit(&v, JobId(1), t(0.0)),
            vec![Action::Enqueue { job: JobId(1) }]
        );
    }

    #[test]
    fn impossible_job_is_skipped_without_wedging_the_queue() {
        let pol = EasyBackfill::new();
        let v = view(
            8,
            8,
            vec![
                queued(0, 0.0, 64, 64, Some(10.0)),
                queued(1, 1.0, 2, 4, Some(10.0)),
            ],
        );
        assert_eq!(
            pol.on_complete(&v, t(0.0)),
            vec![Action::Create {
                job: JobId(1),
                replicas: 4
            }]
        );
    }

    #[test]
    fn sjbf_tries_short_candidates_first() {
        // Submission order would spend the 10 free slots on the long
        // 8-slot candidate and starve the two short ones; SJBF starts
        // the short pair first. Head needs 16+1 of 10 free -> blocked;
        // all candidates finish before the t=1000 shadow start.
        let jobs = vec![
            running(0, 0.0, 53, Some(1000.0)),
            queued(1, 1.0, 16, 32, Some(500.0)), // reserved head
            queued(2, 2.0, 8, 8, Some(800.0)),   // long, submitted first
            queued(3, 3.0, 3, 3, Some(100.0)),   // short
            queued(4, 4.0, 3, 3, Some(200.0)),   // short
        ];
        let classic = EasyBackfill::new().on_complete(&view(64, 10, jobs.clone()), t(0.0));
        assert_eq!(
            classic,
            vec![Action::Create {
                job: JobId(2),
                replicas: 8
            }],
            "submission order admits the long candidate, exhausting free"
        );
        let sjbf = EasyBackfill::sjbf().on_complete(&view(64, 10, jobs), t(0.0));
        assert_eq!(
            sjbf,
            vec![
                Action::Create {
                    job: JobId(3),
                    replicas: 3
                },
                Action::Create {
                    job: JobId(4),
                    replicas: 3
                },
            ],
            "SJBF packs the two short candidates instead"
        );
        assert_eq!(EasyBackfill::sjbf().name(), "easy_sjbf");
    }

    #[test]
    fn sjbf_orders_estimate_less_candidates_last() {
        let jobs = vec![
            running(0, 0.0, 53, Some(1000.0)),
            queued(1, 1.0, 16, 32, Some(500.0)), // reserved head
            queued(2, 2.0, 4, 4, None),          // estimate-less
            queued(3, 3.0, 4, 4, Some(100.0)),   // short, later arrival
        ];
        // 10 free: both candidates fit 5 slots each; order is what the
        // actions record. Surplus is 64 - 17 = 47, so the estimate-less
        // job is admitted via surplus — but only after the short one.
        let actions = EasyBackfill::sjbf().on_complete(&view(64, 10, jobs), t(0.0));
        assert_eq!(
            actions,
            vec![
                Action::Create {
                    job: JobId(3),
                    replicas: 4
                },
                Action::Create {
                    job: JobId(2),
                    replicas: 4
                },
            ]
        );
    }

    /// Builds a random mixed view: running jobs with (mostly) finite
    /// estimates, queued jobs of varied footprints.
    fn random_view(seed: u64, capacity: u32) -> ClusterView {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut jobs = Vec::new();
        let mut used = 0u32;
        let mut id = 0u32;
        for _ in 0..rng.gen_range(0..5) {
            let reps = rng.gen_range(1..=capacity / 3);
            if used + reps + 1 > capacity {
                break;
            }
            used += reps + 1;
            let est = if rng.gen_bool(0.85) {
                Some(rng.gen_range(10.0..2000.0))
            } else {
                None
            };
            jobs.push(running(id, rng.gen_range(0.0..100.0), reps, est));
            id += 1;
        }
        for q in 0..rng.gen_range(1..6) {
            let mn = rng.gen_range(1..=capacity / 2);
            let mx = rng.gen_range(mn..=capacity);
            let est = if rng.gen_bool(0.8) {
                Some(rng.gen_range(10.0..3000.0))
            } else {
                None
            };
            jobs.push(queued(id, 100.0 + f64::from(q), mn, mx, est));
            id += 1;
        }
        let free = capacity - used;
        view(capacity, free, jobs)
    }

    /// The full-scan pass the indexed `schedule_pass` replaced, kept
    /// as the reference the proptest below holds it to: it assembles
    /// every queued job, in submission order, and decides each one.
    fn schedule_pass_reference(
        pol: &EasyBackfill,
        view: &ClusterView,
        now: SimTime,
    ) -> Vec<Action> {
        let launcher = i64::from(pol.launcher_slots());
        let cap_workers = i64::from(view.capacity().saturating_sub(pol.launcher_slots()).max(1));
        let mut free = i64::from(view.free_slots());
        let mut actions = Vec::new();
        let mut reservation: Option<Reservation> = None;
        let mut candidates: Vec<JobState> = Vec::new();
        for j in view.queued_scan().map(|j| j.snapshot()) {
            let mn = i64::from(j.min_replicas);
            let mx = i64::from(j.max_replicas).min(cap_workers);
            if mn > cap_workers {
                continue;
            }
            if reservation.is_some() {
                candidates.push(j);
            } else if free - launcher >= mn {
                let replicas = (free - launcher).min(mx);
                actions.push(Action::Create {
                    job: j.id,
                    replicas: replicas as u32,
                });
                free -= replicas + launcher;
            } else {
                reservation = Some(pol.plan_reservation(view, &j, free));
            }
        }
        let Some(mut res) = reservation else {
            return actions;
        };
        if pol.shortest_first {
            candidates.sort_by(sjbf_order);
        }
        for j in candidates {
            let mn = i64::from(j.min_replicas);
            if free - launcher < mn {
                continue;
            }
            let finishes_before = j
                .walltime_estimate
                .is_some_and(|est| now + est <= res.shadow_start);
            let fits_surplus = mn + launcher <= res.surplus;
            if finishes_before || fits_surplus {
                actions.push(Action::Create {
                    job: j.id,
                    replicas: j.min_replicas,
                });
                free -= mn + launcher;
                if !finishes_before {
                    res.surplus -= mn + launcher;
                }
            }
        }
        actions
    }

    proptest! {
        /// The indexed pass (lazy head walk + fitting cursor) decides
        /// exactly what the full scan decided, action for action, for
        /// both candidate orderings — on a fresh view (indexes built
        /// by this very read) and again after its own actions and a
        /// completion were folded in (indexes maintained).
        #[test]
        fn indexed_pass_equals_full_scan_reference(seed in proptest::any::<u64>()) {
            for pol in [EasyBackfill::new(), EasyBackfill::sjbf()] {
                let mut v = crate::view::tests::random_backlog(seed);
                for round in 0..3u32 {
                    let now = t(20.0 + f64::from(round) + (seed % 4000) as f64);
                    let actions = pol.schedule_pass(&v, now);
                    prop_assert_eq!(
                        &actions,
                        &schedule_pass_reference(&pol, &v, now),
                        "{} diverged in round {}", pol.name(), round
                    );
                    for a in &actions {
                        apply_action(&mut v, a, now, 1);
                    }
                    let oldest = v.running_by_estimated_end().next().map(|j| j.id);
                    if let Some(done) = oldest {
                        v.remove(done, 1);
                    }
                }
            }
        }

        /// THE EASY invariant: backfilling never delays the reserved
        /// queue head past its shadow start time. Formally: plan the
        /// reservation, apply every emitted action, and re-plan — the
        /// same head's shadow start must not move later (assuming, as
        /// EASY does, that every running job vacates at its estimated
        /// end).
        #[test]
        fn backfill_never_delays_the_reserved_head(seed in proptest::any::<u64>()) {
            // The invariant must hold for both candidate orderings.
            for pol in [EasyBackfill::new(), EasyBackfill::sjbf()] {
                let now = t(150.0);
                let v = random_view(seed, 32);
                let before = pol.shadow_start(&v, now);
                let mut after_view = v.clone();
                for a in pol.on_complete(&v, now) {
                    apply_action(&mut after_view, &a, now, 1);
                }
                let after = pol.shadow_start(&after_view, now);
                if let (Some(b), Some(a)) = (before, after) {
                    if a.job == b.job {
                        prop_assert!(
                            a.shadow_start <= b.shadow_start,
                            "{}: head {} delayed: shadow {} -> {}",
                            pol.name(),
                            b.job,
                            b.shadow_start.as_secs(),
                            a.shadow_start.as_secs()
                        );
                    }
                }
            }
        }

        /// Emitted actions are always applicable (capacity, bounds, at
        /// most one action per job) — the SchedulingPolicy contract.
        #[test]
        fn emitted_actions_are_always_applicable(seed in proptest::any::<u64>()) {
            for pol in [EasyBackfill::new(), EasyBackfill::sjbf()] {
                let now = t(150.0);
                let mut v = random_view(seed, 32);
                let actions = pol.on_complete(&v, now);
                let mut ids: Vec<JobId> = actions.iter().map(|a| a.job()).collect();
                ids.sort_unstable();
                let len = ids.len();
                ids.dedup();
                prop_assert_eq!(ids.len(), len, "duplicate action on one job");
                for a in actions {
                    apply_action(&mut v, &a, now, 1);
                }
            }
        }
    }
}
