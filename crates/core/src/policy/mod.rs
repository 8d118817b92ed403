//! Scheduling policies: the open [`SchedulingPolicy`] trait and its
//! built-in implementations.
//!
//! A policy is *pure*: it reads a [`ClusterView`] and emits [`Action`]s;
//! the live operator and the discrete-event simulator apply them through
//! the same `apply_action`, so policy behaviour cannot diverge between
//! the Actual and Simulation columns of Table 1. Anything implementing
//! [`SchedulingPolicy`] plugs into the operator, the simulator and the
//! bench harnesses as a `Box<dyn SchedulingPolicy>`.
//!
//! Built-ins:
//!
//! * [`Policy`] — one algorithm serving the four schedulers the paper
//!   compares (§4.3), exactly as the paper's own experiments emulate
//!   them: **Elastic** (the full Fig. 2 / Fig. 3 priority-based
//!   algorithm), **Moldable** (elastic with `T_rescale_gap = ∞`,
//!   §4.3.2), and **Rigid-min / Rigid-max** (elastic with
//!   `min = max = {min,max}` replicas for every job, §4.3.2).
//! * [`FcfsBackfill`] — strict submission order with conservative,
//!   estimate-free backfilling (plus a patience-based starvation
//!   guard), the reservation-less baseline.
//! * [`EasyBackfill`] — **EASY backfilling** on user walltime
//!   estimates, the field-standard rigid baseline of the
//!   batch-scheduling literature (Zojer et al.; Medeiros et al.,
//!   *Kub*): a shadow reservation for the blocked queue head, computed
//!   from the running jobs' estimated completion frontier, with
//!   backfilling that provably never delays the reservation.
//! * [`AgingSweep`] — a decorator that wraps any policy with a
//!   timer-driven starvation-aging sweep (queued priorities double per
//!   configured half-life of waiting).

mod aging;
mod easy;
mod elastic;
mod fcfs;
mod recovery;

pub use aging::AgingSweep;
pub use easy::EasyBackfill;
pub use fcfs::FcfsBackfill;
pub use recovery::{RecoveryPolicy, RecoveryStrategy};

use hpc_metrics::{Duration, JobId, SimTime};
use hpc_workload::FaultEvent;

use crate::view::{Action, ClusterView, JobFields, JobRef};

/// Driver handed to [`SchedulingPolicy::on_submit_burst`]: the engine
/// side of a same-instant submission burst. The policy pulls jobs out
/// one at a time with [`admit_next`](SubmitBurst::admit_next) — each
/// call interns the next job of the burst into the view as a queued
/// entry — and answers each with [`apply`](SubmitBurst::apply).
///
/// Contract: after every `Some` from `admit_next`, call `apply` exactly
/// once (with an empty slice when the decision is "nothing"), *then*
/// pull the next job. The engine applies the actions and performs its
/// per-event bookkeeping inside `apply`, so skipping it desynchronises
/// the run.
pub trait SubmitBurst {
    /// The cluster view (already contains every job admitted so far).
    fn view(&self) -> &ClusterView;
    /// The burst instant — one timestamp for the whole batch.
    fn now(&self) -> SimTime;
    /// Admits the next job of the burst into the view; `None` when the
    /// burst is exhausted.
    fn admit_next(&mut self) -> Option<JobId>;
    /// Applies the decision for the most recently admitted job.
    fn apply(&mut self, actions: &[Action]);
}

/// Driver handed to [`SchedulingPolicy::on_complete_burst`]: the engine
/// side of a same-instant completion burst (slots freed by jobs
/// finishing or being cancelled at one timestamp). Same pull/answer
/// contract as [`SubmitBurst`], with
/// [`retire_next`](CompleteBurst::retire_next) retiring the next
/// completed job out of the view (stale completion events are consumed
/// and skipped internally).
pub trait CompleteBurst {
    /// The cluster view (the retired job is already gone).
    fn view(&self) -> &ClusterView;
    /// The burst instant.
    fn now(&self) -> SimTime;
    /// Retires the next completed job of the burst; `false` when the
    /// burst is exhausted.
    fn retire_next(&mut self) -> bool;
    /// Applies the redistribution decision for the most recent
    /// retirement. Call exactly once per `true` from `retire_next`.
    fn apply(&mut self, actions: &[Action]);
}

/// A pluggable scheduling policy.
///
/// Implementations are consulted by the control plane at three points;
/// each receives an immutable [`ClusterView`] (the *only* state a policy
/// may read) and returns the [`Action`]s to apply, in order:
///
/// * [`on_submit`](SchedulingPolicy::on_submit) — a new job appeared in
///   the queue (the view already contains it as a queued entry).
/// * [`on_complete`](SchedulingPolicy::on_complete) — slots were freed
///   (a job completed or was cancelled; the view no longer contains it).
/// * [`on_timer`](SchedulingPolicy::on_timer) — a periodic deadline
///   fired, if the policy asked for one via
///   [`timer_interval`](SchedulingPolicy::timer_interval). This is how a
///   policy acts without an external trigger (e.g. delayed promotion or
///   aging sweeps).
///
/// Emitted actions must be *applicable*: respect the view's free slots,
/// every job's replica bounds, and emit at most one action per job.
/// `view::apply_action` panics on violations, and the property tests in
/// this module enforce the contract for the built-ins.
pub trait SchedulingPolicy: Send + Sync {
    /// Label used for metrics rows and event logs (e.g. `"elastic"`).
    fn name(&self) -> String;

    /// Slots a running job's launcher pod consumes (the `−1` terms in
    /// the paper's Fig. 2 arithmetic). Engines build their capacity
    /// bookkeeping from this.
    fn launcher_slots(&self) -> u32;

    /// Scheduling decision when `job` is submitted (paper Fig. 2).
    /// The view already contains the job as a queued entry under its
    /// interned id.
    fn on_submit(&self, view: &ClusterView, job: JobId, now: SimTime) -> Vec<Action>;

    /// Redistribution when slots free up — a job completed or was
    /// cancelled (paper Fig. 3).
    fn on_complete(&self, view: &ClusterView, now: SimTime) -> Vec<Action>;

    /// Periodic decision, fired every [`timer_interval`] by the
    /// operator's timer. Default: no timer actions.
    ///
    /// [`timer_interval`]: SchedulingPolicy::timer_interval
    fn on_timer(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        let _ = (view, now);
        Vec::new()
    }

    /// How often [`on_timer`](SchedulingPolicy::on_timer) should fire;
    /// `None` (the default) disables the timer entirely.
    fn timer_interval(&self) -> Option<Duration> {
        None
    }

    /// Recovery decision when capacity is lost — a node failed or spot
    /// slots were reclaimed. The view already reflects the loss
    /// ([`ClusterView::fail_slots`] has run), so
    /// [`ClusterView::deficit`] says how many occupied slots the fault
    /// landed on; the returned actions must release at least that many
    /// (engines assert the deficit clears after applying them).
    ///
    /// The default preempts the lowest-priority running jobs with
    /// [`Action::Requeue`] (kill-and-requeue) until the deficit is
    /// covered. Override for checkpoint/restart eviction or elastic
    /// shrinking — or wrap any policy in [`RecoveryPolicy`] to pick a
    /// strategy without reimplementing it.
    fn on_fault(&self, view: &ClusterView, fault: &FaultEvent, now: SimTime) -> Vec<Action> {
        let _ = (fault, now);
        recovery::preempt_lowest(view, self.launcher_slots(), |job| Action::Requeue { job })
    }

    /// Decides a whole same-instant submission burst in one policy
    /// invocation. The default pulls each job and answers it with
    /// [`on_submit`](SchedulingPolicy::on_submit) — i.e. exactly the
    /// per-event semantics, one dynamic dispatch per *instant* instead
    /// of per event. Policies that can plan a burst jointly (one
    /// capacity scan for k arrivals) may override; the engine's replay
    /// bit-identity suite pins the observable behaviour either way.
    fn on_submit_burst(&self, burst: &mut dyn SubmitBurst) {
        while let Some(id) = burst.admit_next() {
            let actions = self.on_submit(burst.view(), id, burst.now());
            burst.apply(&actions);
        }
    }

    /// Decides a whole same-instant completion burst in one policy
    /// invocation; the default answers each retirement with
    /// [`on_complete`](SchedulingPolicy::on_complete), preserving
    /// per-event semantics exactly.
    fn on_complete_burst(&self, burst: &mut dyn CompleteBurst) {
        while burst.retire_next() {
            let actions = self.on_complete(burst.view(), burst.now());
            burst.apply(&actions);
        }
    }
}

/// The greedy head walk both rigid baselines ([`FcfsBackfill`],
/// [`EasyBackfill`]) open every decision with: queued jobs in
/// submission order start at the largest size that fits (reported
/// through `start`) until one does not fit. Returns that blocked head
/// (`None` when the whole queue started) and the slots still free in
/// front of it. Jobs whose minimum exceeds the cluster can never run
/// and are stepped over, so they do not wedge the queue forever.
///
/// The walk is lazy — [`JobRef`]s off the submission index — and ends
/// at the blocked head: the backlog behind it is the fitting cursor's
/// business ([`ClusterView::queued_fitting`]), never scanned here.
fn greedy_head_walk(
    view: &ClusterView,
    mut start: impl FnMut(JobId, u32),
) -> (Option<JobRef<'_>>, i64) {
    let launcher = i64::from(LAUNCHER_SLOTS);
    let cap_workers = i64::from(view.capacity().saturating_sub(LAUNCHER_SLOTS).max(1));
    let mut free = i64::from(view.free_slots());
    for j in view.queued_scan() {
        let mn = i64::from(j.min_replicas());
        if mn > cap_workers {
            continue;
        }
        if free - launcher < mn {
            return (Some(j), free);
        }
        let replicas = (free - launcher).min(i64::from(j.max_replicas()).min(cap_workers));
        start(j.id(), replicas as u32);
        free -= replicas + launcher;
    }
    (None, free)
}

/// The largest `min_replicas` a backfill can start at out of `free`
/// slots once its launcher is paid for; `None` when not even a
/// launcher fits.
fn backfill_fit(free: i64) -> Option<u32> {
    u32::try_from(free - i64::from(LAUNCHER_SLOTS)).ok()
}

/// Slots a launcher pod takes: what [`FcfsBackfill`] and
/// [`EasyBackfill`] report, and [`PolicyConfig`]'s default.
const LAUNCHER_SLOTS: u32 = 1;

/// Knobs shared by all policy kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Minimum gap between two scheduling actions on the same job
    /// (`T_rescale_gap`, §3.2.1).
    pub rescale_gap: Duration,
    /// Slots consumed by a job's launcher pod (the `freeSlots − 1` term
    /// of Fig. 2; decision 1 in the `policy/elastic.rs` header).
    pub launcher_slots: u32,
    /// Faithful Fig. 2 quirk: the loops iterate `while index > 0`, so
    /// the highest-priority running job is never shrunk. Disable to
    /// ablate (bench `ablations`).
    pub shrink_spares_head: bool,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            rescale_gap: Duration::from_secs(180.0),
            launcher_slots: LAUNCHER_SLOTS,
            shrink_spares_head: true,
        }
    }
}

/// Which scheduler variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Full elastic scheduling (Fig. 2 + Fig. 3).
    Elastic,
    /// Size-at-admission, never rescale.
    Moldable,
    /// Every job rigidly at `min_replicas`.
    RigidMin,
    /// Every job rigidly at `max_replicas`.
    RigidMax,
}

impl PolicyKind {
    /// All four, in the paper's presentation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::RigidMin,
        PolicyKind::RigidMax,
        PolicyKind::Moldable,
        PolicyKind::Elastic,
    ];
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::Elastic => write!(f, "elastic"),
            PolicyKind::Moldable => write!(f, "moldable"),
            PolicyKind::RigidMin => write!(f, "min_replicas"),
            PolicyKind::RigidMax => write!(f, "max_replicas"),
        }
    }
}

/// A configured scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// The variant.
    pub kind: PolicyKind,
    /// Shared knobs.
    pub cfg: PolicyConfig,
}

impl Policy {
    /// The full elastic policy.
    pub fn elastic(cfg: PolicyConfig) -> Policy {
        Self::of_kind(PolicyKind::Elastic, cfg)
    }

    /// A policy of `kind` with config `cfg`.
    pub fn of_kind(kind: PolicyKind, cfg: PolicyConfig) -> Policy {
        Policy { kind, cfg }
    }

    /// The `(min, max)` replica bounds this policy treats `job` as
    /// having — rigid variants pin both ends (paper §4.3.2). Generic
    /// over [`JobFields`] so the lazy scan cursors avoid assembling a
    /// full snapshot per job.
    pub fn bounds<J: JobFields>(&self, job: &J) -> (u32, u32) {
        match self.kind {
            PolicyKind::RigidMin => (job.min_replicas(), job.min_replicas()),
            PolicyKind::RigidMax => (job.max_replicas(), job.max_replicas()),
            _ => (job.min_replicas(), job.max_replicas()),
        }
    }

    /// The effective rescale gap — infinite for moldable (§4.3.2).
    fn gap(&self) -> Duration {
        if self.kind == PolicyKind::Moldable {
            Duration::INFINITY
        } else {
            self.cfg.rescale_gap
        }
    }

    /// `true` if the `T_rescale_gap` criterion forbids acting on `job`
    /// at `now`. The gap spaces out *rescales*, so it binds running
    /// jobs only: a queued job is never blocked, whether it has never
    /// run (`last_action = −∞`) or was evicted back to the queue a
    /// moment ago (its eviction instant is on record, and must not
    /// keep it from restarting — under moldable's infinite gap it
    /// would never restart at all).
    pub fn gap_blocked<J: JobFields>(&self, job: &J, now: SimTime) -> bool {
        job.running() && now - job.last_action() < self.gap()
    }

    /// Scheduling decision when `job` is submitted (Fig. 2).
    /// The view must already contain the job as a queued entry.
    pub fn on_submit(&self, view: &ClusterView, job: JobId, now: SimTime) -> Vec<Action> {
        elastic::plan_submit(self, view, job, now)
    }

    /// Scheduling decision after a job completes and its slots are
    /// freed (Fig. 3). The view must no longer contain the completed
    /// job.
    pub fn on_complete(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        elastic::plan_complete(self, view, now)
    }
}

impl SchedulingPolicy for Policy {
    fn name(&self) -> String {
        self.kind.to_string()
    }

    fn launcher_slots(&self) -> u32 {
        self.cfg.launcher_slots
    }

    fn on_submit(&self, view: &ClusterView, job: JobId, now: SimTime) -> Vec<Action> {
        Policy::on_submit(self, view, job, now)
    }

    fn on_complete(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        Policy::on_complete(self, view, now)
    }
}

impl From<Policy> for Box<dyn SchedulingPolicy> {
    fn from(policy: Policy) -> Self {
        Box::new(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::JobState;

    fn job(prio: u32) -> JobState {
        JobState {
            id: JobId(0),
            min_replicas: 2,
            max_replicas: 8,
            priority: prio,
            submitted_at: SimTime::ZERO,
            replicas: 4,
            last_action: SimTime::from_secs(100.0),
            running: true,
            walltime_estimate: None,
        }
    }

    #[test]
    fn bounds_by_kind() {
        let j = job(3);
        let cfg = PolicyConfig::default();
        assert_eq!(Policy::elastic(cfg).bounds(&j), (2, 8));
        assert_eq!(
            Policy::of_kind(PolicyKind::Moldable, cfg).bounds(&j),
            (2, 8)
        );
        assert_eq!(
            Policy::of_kind(PolicyKind::RigidMin, cfg).bounds(&j),
            (2, 2)
        );
        assert_eq!(
            Policy::of_kind(PolicyKind::RigidMax, cfg).bounds(&j),
            (8, 8)
        );
    }

    #[test]
    fn moldable_gap_is_infinite() {
        let cfg = PolicyConfig {
            rescale_gap: Duration::from_secs(10.0),
            ..Default::default()
        };
        let mold = Policy::of_kind(PolicyKind::Moldable, cfg);
        let j = job(3);
        // A running job is blocked forever under moldable...
        assert!(mold.gap_blocked(&j, SimTime::from_secs(1e12)));
        // ...but a queued job never is: neither one that has not run
        // yet nor one evicted back to the queue (whose eviction instant
        // stays on record as its last action).
        let queued = JobState {
            last_action: SimTime::NEG_INFINITY,
            running: false,
            replicas: 0,
            ..j
        };
        assert!(!mold.gap_blocked(&queued, SimTime::from_secs(5.0)));
        let evicted = JobState {
            last_action: SimTime::from_secs(100.0),
            ..queued
        };
        assert!(!mold.gap_blocked(&evicted, SimTime::from_secs(101.0)));
        assert!(!Policy::elastic(cfg).gap_blocked(&evicted, SimTime::from_secs(101.0)));
    }

    #[test]
    fn elastic_gap_follows_config() {
        let cfg = PolicyConfig {
            rescale_gap: Duration::from_secs(10.0),
            ..Default::default()
        };
        let pol = Policy::elastic(cfg);
        let j = job(3); // last action at t=100
        assert!(pol.gap_blocked(&j, SimTime::from_secs(105.0)));
        assert!(!pol.gap_blocked(&j, SimTime::from_secs(110.0)));
    }

    #[test]
    fn display_names_match_paper_tables() {
        assert_eq!(PolicyKind::Elastic.to_string(), "elastic");
        assert_eq!(PolicyKind::Moldable.to_string(), "moldable");
        assert_eq!(PolicyKind::RigidMin.to_string(), "min_replicas");
        assert_eq!(PolicyKind::RigidMax.to_string(), "max_replicas");
        assert_eq!(PolicyKind::ALL.len(), 4);
    }
}
