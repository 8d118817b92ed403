//! The incremental-view equivalence property.
//!
//! The scheduler's hot path never rebuilds its [`ClusterView`]; it
//! folds every event in incrementally (insert / remove /
//! `apply_action`). That is only sound if, after *any* event sequence,
//! the maintained view is field-for-field equal — `free_slots`, the
//! dense job table, and every ordered index — to a view rebuilt from
//! scratch out of the surviving job states. The ordered indexes are
//! pay-per-use (built from the job table on first read, maintained
//! only from then on), so the first read lands at a random step: the
//! steps before it prove an unread index costs no correctness, the
//! steps after it prove the upkeep, index by index. This test
//! drives long random sequences of submit / create / expand / shrink /
//! complete / cancel / fail / restore / evict / requeue operations
//! against both representations and asserts exactly that, after every
//! single step — including the fault-layer `failed_slots`/`deficit`
//! counters and the deficit-first crediting every slot release goes
//! through. The clock advances on only some steps, so one job is
//! often acted on twice at one instant and its last-action key does
//! not move; on a few it steps *backwards*, and some jobs arrive
//! already running with a drawn `last_action` — no engine does either,
//! but the last-action list must stay sorted for any instant, and only
//! then does its insert search past the tail.

use elastic_core::{apply_action, Action, ClusterView, JobFields, JobId, JobState};
use hpc_metrics::{Duration, SimTime};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CAPACITY: u32 = 64;
const LAUNCHER: u32 = 1;

/// The trivially-correct model: a flat list of live job states plus
/// the fault counters.
#[derive(Default)]
struct Shadow {
    jobs: Vec<JobState>,
    failed: u32,
    deficit: u32,
}

impl Shadow {
    fn committed(&self) -> u32 {
        self.jobs
            .iter()
            .filter(|j| j.running)
            .map(|j| j.replicas + LAUNCHER)
            .sum()
    }

    fn free(&self) -> u32 {
        (CAPACITY + self.deficit) - (self.failed + self.committed())
    }

    /// Mirrors the view's deficit-first crediting of released slots.
    fn release(&mut self, n: u32) {
        self.deficit -= n.min(self.deficit);
    }

    /// A from-scratch view of the current model state. The fault
    /// counters are replayed through `fail_slots`: starting from the
    /// pre-fault free count, failing `failed` slots reproduces exactly
    /// (free, failed, deficit) because free > 0 implies deficit == 0.
    fn rebuild(&self) -> ClusterView {
        let mut v = ClusterView::new(CAPACITY);
        for j in &self.jobs {
            v.insert(*j, LAUNCHER);
        }
        v.set_free_slots(self.free() + self.failed - self.deficit);
        v.fail_slots(self.failed);
        v
    }

    fn pick<'a>(&'a self, rng: &mut ChaCha8Rng, running: bool) -> Option<&'a JobState> {
        let candidates: Vec<&JobState> =
            self.jobs.iter().filter(|j| j.running == running).collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[rng.gen_range(0..candidates.len())])
        }
    }
}

/// Every ordered index as the id sequence its public accessor yields
/// (reading them builds whichever are not built yet). The fitting
/// cursor is read behind each queued job at a footprint that cuts the
/// 1..=8 minimums in half.
fn index_orders(v: &ClusterView) -> [Vec<JobId>; 6] {
    let queued: Vec<JobId> = v.queued_scan().map(|j| j.id()).collect();
    let fitting = queued
        .iter()
        .flat_map(|&head| v.queued_fitting(head, 4).map(|j| j.id()))
        .collect();
    [
        v.running_scan().map(|j| j.id()).collect(),
        v.running_by_last_action().map(|j| j.id()).collect(),
        v.queued_desc_priority().map(|j| j.id()).collect(),
        v.queued_submission_order().map(|j| j.id).collect(),
        v.running_by_estimated_end().map(|j| j.id).collect(),
        fitting,
    ]
}

proptest! {
    /// After any random sequence of submit/create/expand/shrink/
    /// complete/cancel events, the incrementally maintained view equals
    /// one rebuilt from scratch — including `free_slots` and, from
    /// the step that first reads them, every ordered index
    /// (`ClusterView::eq` holds each *built* index to its from-scratch
    /// definition; the accessor comparison reads them all).
    #[test]
    fn incremental_view_equals_scratch_rebuild(
        seed in any::<u64>(),
        steps in 1usize..120,
        first_read in 0usize..120,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut view = ClusterView::new(CAPACITY);
        let mut shadow = Shadow::default();
        let mut next_id = 0u32;
        let mut clock = 0u32;

        for step in 0..steps {
            clock = match rng.gen_range(0..8u32) {
                0 => clock.saturating_sub(rng.gen_range(1..=3)),
                draw => clock + draw % 2,
            };
            let now = SimTime::from_secs(f64::from(clock));
            let free = shadow.free();
            let op = rng.gen_range(0..10u32);
            match op {
                // Submit: a fresh job enters both worlds — queued, or
                // (one in four, room permitting) already running since
                // an instant drawn around the clock.
                0 => {
                    let min = rng.gen_range(1..=8);
                    let running = rng.gen_bool(0.25) && free >= min + LAUNCHER;
                    let job = JobState {
                        id: JobId(next_id),
                        min_replicas: min,
                        max_replicas: rng.gen_range(min..=min + 24),
                        priority: rng.gen_range(1..=5),
                        // Deliberately collide timestamps sometimes so the
                        // id tie-breaker is exercised.
                        submitted_at: SimTime::from_secs(rng.gen_range(0..8) as f64),
                        replicas: if running { min } else { 0 },
                        last_action: if running {
                            SimTime::from_secs(f64::from(rng.gen_range(0..=clock + 2)))
                        } else {
                            SimTime::NEG_INFINITY
                        },
                        running,
                        // Mix estimates and their absence so the
                        // estimated-end index is part of the
                        // incremental == rebuilt equivalence.
                        walltime_estimate: if rng.gen_bool(0.5) {
                            Some(Duration::from_secs(rng.gen_range(1..=2000) as f64))
                        } else {
                            None
                        },
                    };
                    next_id += 1;
                    view.insert(job, LAUNCHER);
                    shadow.jobs.push(job);
                }
                // Create a queued job at a fitting size.
                1 => {
                    if let Some(j) = shadow.pick(&mut rng, false) {
                        if free > LAUNCHER && free - LAUNCHER >= j.min_replicas {
                            let hi = j.max_replicas.min(free - LAUNCHER);
                            let replicas = rng.gen_range(j.min_replicas..=hi);
                            let action = Action::Create { job: j.id, replicas };
                            let id = j.id;
                            apply_action(&mut view, &action, now, LAUNCHER);
                            let s = shadow.jobs.iter_mut().find(|s| s.id == id).unwrap();
                            s.running = true;
                            s.replicas = replicas;
                            s.last_action = now;
                        }
                    }
                }
                // Expand a running job within free capacity.
                2 => {
                    if let Some(j) = shadow.pick(&mut rng, true) {
                        let headroom = j.max_replicas.saturating_sub(j.replicas).min(free);
                        if headroom > 0 {
                            let to = j.replicas + rng.gen_range(1..=headroom);
                            let action = Action::Expand { job: j.id, to_replicas: to };
                            let id = j.id;
                            apply_action(&mut view, &action, now, LAUNCHER);
                            let s = shadow.jobs.iter_mut().find(|s| s.id == id).unwrap();
                            s.replicas = to;
                            s.last_action = now;
                        }
                    }
                }
                // Shrink a running job toward its minimum.
                3 => {
                    if let Some(j) = shadow.pick(&mut rng, true) {
                        if j.replicas > j.min_replicas {
                            let to = rng.gen_range(j.min_replicas..j.replicas);
                            let action = Action::Shrink { job: j.id, to_replicas: to };
                            let id = j.id;
                            let freed = j.replicas - to;
                            apply_action(&mut view, &action, now, LAUNCHER);
                            let s = shadow.jobs.iter_mut().find(|s| s.id == id).unwrap();
                            s.replicas = to;
                            s.last_action = now;
                            shadow.release(freed);
                        }
                    }
                }
                // Complete a running job (engine-style removal).
                4 => {
                    if let Some(j) = shadow.pick(&mut rng, true) {
                        let id = j.id;
                        let freed = j.replicas + LAUNCHER;
                        let removed = view.remove(id, LAUNCHER).expect("running job is live");
                        prop_assert!(removed.running);
                        shadow.jobs.retain(|s| s.id != id);
                        shadow.release(freed);
                    }
                }
                // Cancel any live job (action-style removal).
                5 => {
                    let any: Vec<JobId> = shadow.jobs.iter().map(|j| j.id).collect();
                    if !any.is_empty() {
                        let id = any[rng.gen_range(0..any.len())];
                        let j = shadow.jobs.iter().find(|j| j.id == id).unwrap();
                        let freed = if j.running { j.replicas + LAUNCHER } else { 0 };
                        apply_action(&mut view, &Action::Cancel { job: id }, now, LAUNCHER);
                        shadow.jobs.retain(|s| s.id != id);
                        shadow.release(freed);
                    }
                }
                // Fault: fail slots (free absorbed first, the rest
                // opens a deficit).
                6 => {
                    if shadow.failed < CAPACITY {
                        let n = rng.gen_range(1..=(CAPACITY - shadow.failed).min(16));
                        view.fail_slots(n);
                        let absorbed = n.min(free);
                        shadow.failed += n;
                        shadow.deficit += n - absorbed;
                    }
                }
                // Restore previously failed slots (deficit paid first).
                7 => {
                    if shadow.failed > 0 {
                        let n = rng.gen_range(1..=shadow.failed);
                        view.restore_slots(n);
                        shadow.failed -= n;
                        shadow.release(n);
                    }
                }
                // Evict a running job: checkpoint/restart demotion back
                // to the queue at its original submission time.
                8 => {
                    if let Some(j) = shadow.pick(&mut rng, true) {
                        let id = j.id;
                        let freed = j.replicas + LAUNCHER;
                        apply_action(&mut view, &Action::Evict { job: id }, now, LAUNCHER);
                        let s = shadow.jobs.iter_mut().find(|s| s.id == id).unwrap();
                        s.running = false;
                        s.replicas = 0;
                        s.last_action = now;
                        shadow.release(freed);
                    }
                }
                // Kill-and-requeue a running job: it leaves the view
                // entirely until its backoff re-submits it.
                _ => {
                    if let Some(j) = shadow.pick(&mut rng, true) {
                        let id = j.id;
                        let freed = j.replicas + LAUNCHER;
                        apply_action(&mut view, &Action::Requeue { job: id }, now, LAUNCHER);
                        shadow.jobs.retain(|s| s.id != id);
                        shadow.release(freed);
                    }
                }
            }

            // The property: maintained == rebuilt, after every step.
            let rebuilt = shadow.rebuild();
            prop_assert_eq!(
                &view, &rebuilt,
                "diverged after step {} (op {})", step, op
            );
            if step >= first_read {
                prop_assert_eq!(
                    index_orders(&view), index_orders(&rebuilt),
                    "index diverged after step {} (op {}), first read at {}", step, op, first_read
                );
            } else {
                prop_assert!(
                    view.built_indexes() == Default::default(),
                    "an index was built at step {} with no read", step
                );
            }
            prop_assert_eq!(view.free_slots(), shadow.free());
            prop_assert_eq!(view.failed_slots(), shadow.failed);
            prop_assert_eq!(view.deficit(), shadow.deficit);
            prop_assert_eq!(view.len(), shadow.jobs.len());
            prop_assert!(view.free_slots() == 0 || view.deficit() == 0);
        }
    }
}
