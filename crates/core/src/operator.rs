//! The CharmJob operator: a store/watch adapter and the paper's pod
//! choreography around the scheduling kernel.
//!
//! This file is an **adapter**. It decides nothing: which policy hook
//! fires after which view mutation, how an eviction or a requeue is
//! costed, who a transient fault hits, whether every job is terminal
//! and what the run's [`RunMetrics`] are all live in
//! [`Kernel`] — the same machine the
//! discrete-event simulator drives. What it *mechanises*, mirroring the
//! paper's modified MPI operator (§3.1–3.2) the way a real Kubernetes
//! controller is built:
//!
//! * **Watch drains and posted faults → kernel entry points.** The
//!   operator subscribes to the two stores a real controller would, the
//!   CharmJobs and the pods, with the atomic [`Store::list_watch_where`],
//!   filtered to what the drains act on, so its own status-mirror writes
//!   and the pod churn it does not read never reach it. Capacity changes
//!   and transient control-plane faults are not Kubernetes objects: the
//!   infrastructure (or the drive loop replaying a [`FaultSpec`]) tells
//!   the operator with [`post_fault`](CharmOperator::post_fault) and
//!   [`post_flaky`](CharmOperator::post_flaky), which queue them for the
//!   next round. One [`tick`](CharmOperator::tick) takes all of it in a
//!   fixed order. CharmJobs added while `Queued` become one submission
//!   burst (sorted by submission time, staged one by one as the policy
//!   pulls them; a job whose cancellation is already on record is
//!   retired undecided); `cancel_requested` on a live job becomes a
//!   cancel; posted faults become capacity-lost / capacity-returned /
//!   flaky, in posting order; expired requeue backoffs become
//!   re-entries; a pod reaching `Running` — or a pre-launch shrink,
//!   which can leave a `Starting` job's remaining pods all running —
//!   triggers the owning job's launch check. A *timer pass* covers what only polling can observe
//!   — rescale acknowledgements and completions surface on executor
//!   handles, not in any store — and the policy's periodic deadline.
//! * **The kernel's effects** ([`Effects`]), as the paper's pod
//!   sequences: **launch** is launcher pod + N worker pods + a nodelist
//!   ConfigMap, the application starting once they all run; **shrink**
//!   signals the application first and removes pods only after the
//!   acknowledgement; **expand** creates pods first, updates the
//!   nodelist, then signals (§3.1). Worker pod serials come from a
//!   counter at the job's kernel attempt row, reset when the job ends
//!   (never from re-parsing pod names), so creating
//!   workers is O(count); every pod of a job shares the registry's one
//!   `Arc` of the job name as its owner, and a pod's own name is
//!   allocated once, shared by the pod and the store's name map.
//!   **Stop** kills the executor and deletes its pods and nodelist.
//!   What the kernel cannot see it is told: the application started,
//!   the shrink was acknowledged.
//! * **The CRD status mirror.** Phase, replica counts, timestamps and
//!   attempts on each [`CharmJob`] follow the kernel's transitions so
//!   clients and the event log can watch them; the kernel never reads
//!   them back.
//!
//! ## A reconcile round costs O(changes), not O(history)
//!
//! The CharmJob store keeps every job ever submitted, so a round that
//! scanned it would get slower for as long as the operator stays up.
//! The rule: one [`tick`](CharmOperator::tick) costs
//! O(events drained + running jobs + pods that changed) and never
//! scans or deep-clones the job store. Names are interned into dense
//! [`JobId`]s by the [`JobRegistry`] at admission and everything per
//! event is keyed by id; what the operator needs from a CRD it reads
//! through the borrowed [`Store::read`]; which jobs are `Running` is
//! the key set of its launched-job records; whether all are terminal
//! ([`all_complete`](CharmOperator::all_complete)) is the kernel's
//! tallies against the store's length; a job's pods come from the pod
//! store's by-owner index, and the pod controllers (scheduler, kubelet,
//! garbage collection) read its lifecycle-stage index: a round in which
//! no pod moved visits none. What the watch streams deliver are
//! pointers to the stored objects, not copies, and only for the events
//! a drain acts on.
//!
//! `Counter::FullScans` ([`Store::counters`]) makes the rule a count
//! tests hold: it does not move on the job store across
//! `tick`/`all_complete`, except for the one scan per round by which
//! debug builds cross-check the handle keys and the completion answer
//! against the store. The scanning reads remain for the cold surface:
//! [`metrics`](CharmOperator::metrics) (one pass for the names),
//! [`queued_jobs`](CharmOperator::queued_jobs) and
//! [`rebuild_view`](CharmOperator::rebuild_view) (the from-scratch
//! construction tests compare the kernel's view against).
//!
//! [`Store::list_watch_where`]: kube_sim::Store::list_watch_where
//! [`Store::read`]: kube_sim::Store::read
//! [`Store::counters`]: kube_sim::Store::counters
//! [`JobRegistry`]: crate::registry::JobRegistry

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use hpc_metrics::{Counter, Counters, Duration, JobId, SimTime, Utilization};
use hpc_workload::{FaultEvent, FaultKind, FaultSpec, FlakyOp};
use kube_sim::{ControlPlane, EventKind, EventLog, Pod, PodPhase, PodRole, Store, WatchEvent};

use crate::client::{SchedulerClient, SubmitRequest};
use crate::crd::{CharmJob, CharmJobSpec, CharmJobStatus, JobPhase};
use crate::error::SchedulerError;
use crate::executor::{ExecHandle, ExecStatus, Executor};
use crate::kernel::{Admission, Effects, Kernel, Stop};
use crate::policy::SchedulingPolicy;
use crate::registry::JobRegistry;
use crate::report::{FaultStats, RunMetrics};
use crate::view::{ClusterView, JobState};

/// In-flight rescale state machine per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RescaleFlow {
    /// Shrink signalled; waiting for the application's ack before
    /// deleting pods.
    ShrinkSignalled {
        /// Target replica count.
        target: u32,
    },
    /// Expand pods created; waiting for them to run before signalling.
    ExpandPodsPending {
        /// Target replica count.
        target: u32,
    },
    /// Expand signalled; waiting for the application's ack.
    ExpandSignalled {
        /// Target replica count.
        target: u32,
    },
}

/// The operator.
pub struct CharmOperator {
    /// The cluster control plane.
    pub plane: ControlPlane,
    /// CharmJob CRD store.
    pub jobs: Store<CharmJob>,
    /// Operator event log.
    pub events: EventLog,
    policy: Box<dyn SchedulingPolicy>,
    /// The transition machine: view, ledgers, tallies, every decision.
    kernel: Kernel,
    /// What the kernel's effects act on.
    pool: ExecutorPool,
    /// Watch stream over the CharmJob store: admissions and
    /// cancellations only ([`job_event_acted_on`]).
    jobs_rx: Receiver<WatchEvent<CharmJob>>,
    /// Watch stream over the pod store: pods reaching `Running` only
    /// ([`pod_started`]).
    pods_rx: Receiver<WatchEvent<Pod>>,
    /// Capacity changes posted since the last round, in posting order
    /// ([`CharmOperator::post_fault`]).
    faults: VecDeque<(FaultKind, u32)>,
    /// Transient faults posted since the last round, in posting order
    /// ([`CharmOperator::post_flaky`]).
    flakies: VecDeque<FlakyOp>,
    /// Next policy-timer deadline, if the policy requested one.
    next_timer: Option<SimTime>,
    /// `SettleRounds`: the rounds of every settled instant.
    counters: Counters,
}

/// Everything held for one launched job. One record, so the executor
/// and its rescale flow leave together wherever the job stops, and the
/// records are the count of live executors.
struct Running {
    handle: Box<dyn ExecHandle>,
    /// The rescale in flight, if any.
    flow: Option<RescaleFlow>,
}

/// The per-job state the pod choreography keeps: executors with their
/// rescale flows, pod serials, checkpointed progress — plus the two
/// queues a burst is pulled from.
struct ExecutorPool {
    executor: Box<dyn Executor>,
    /// Name ↔ id interning (admission order).
    registry: JobRegistry,
    /// Live executors. The keys are exactly the `Running` jobs (inserted
    /// at launch, removed wherever a job stops), in admission order —
    /// the timer pass polls these, not the job store.
    running: BTreeMap<JobId, Running>,
    /// Next worker-pod serial of each live job, by its kernel attempt
    /// row; reset when the job ends.
    next_serial: Vec<u32>,
    /// Work the last checkpoint of an evicted job preserved (zero when it
    /// never launched), until its relaunch hands it to the executor.
    checkpointed: HashMap<JobId, f64>,
    /// Requeue backoffs the kernel asked to be woken for — the
    /// operator's stand-in for an event queue.
    backoffs: BTreeSet<(SimTime, JobId)>,
    /// Names of the submission burst not staged yet.
    admitting: VecDeque<String>,
    /// Running jobs the timer pass has not polled for completion yet.
    polling: VecDeque<JobId>,
    /// Jobs whose launch the next pod drain checks, beside the owners
    /// of the pods it drains: those a pre-launch shrink may have made
    /// launchable without any pod reaching `Running`.
    launch_checks: Vec<Arc<str>>,
    /// Where pod names are formatted before their one allocation.
    scratch: String,
}

impl ExecutorPool {
    /// A pod name, formatted in the scratch buffer and allocated once,
    /// as the shared string both the pod and the pod store key it by.
    fn pod_name(&mut self, name: std::fmt::Arguments<'_>) -> Arc<str> {
        use std::fmt::Write;
        self.scratch.clear();
        (self.scratch.write_fmt(name)).expect("formatting into a String cannot fail");
        Arc::from(self.scratch.as_str())
    }
}

/// The operator's [`Effects`]: the executor pool plus the stores the
/// choreography writes to.
struct Choreography<'a> {
    pool: &'a mut ExecutorPool,
    plane: &'a ControlPlane,
    jobs: &'a Store<CharmJob>,
    events: &'a EventLog,
}

impl CharmOperator {
    /// An operator over `plane` scheduling with `policy` and running
    /// jobs through `executor`.
    pub fn new(
        plane: ControlPlane,
        policy: Box<dyn SchedulingPolicy>,
        executor: Box<dyn Executor>,
    ) -> Self {
        let jobs: Store<CharmJob> = Store::new();
        // list+watch atomically: nothing submitted between "now" and the
        // first reconcile can be missed (the jobs store is freshly
        // created, so the snapshot is empty by construction; the pods
        // snapshot is ignored because pods only exist once this operator
        // creates them).
        let (_, jobs_rx) = jobs.list_watch_where(job_event_acted_on);
        let (_, pods_rx) = plane.pods.list_watch_where(pod_started);
        let next_timer = policy.timer_interval().map(|iv| plane.now() + iv);
        CharmOperator {
            kernel: Kernel::new(plane.capacity(), policy.launcher_slots()),
            plane,
            jobs,
            events: EventLog::new(),
            policy,
            pool: ExecutorPool {
                executor,
                registry: JobRegistry::new(),
                running: BTreeMap::new(),
                next_serial: Vec::new(),
                checkpointed: HashMap::new(),
                backoffs: BTreeSet::new(),
                admitting: VecDeque::new(),
                polling: VecDeque::new(),
                launch_checks: Vec::new(),
                scratch: String::new(),
            },
            jobs_rx,
            pods_rx,
            faults: VecDeque::new(),
            flakies: VecDeque::new(),
            next_timer,
            counters: Counters::default(),
        }
    }

    /// Installs the recovery parameters (checkpoint interval, retry
    /// budget, backoff base) the fault layer uses, and rebuilds the
    /// resilience decision core from the spec's `FlakySpec`. The event
    /// schedules inside `spec` are *not* replayed here — whoever replays
    /// them tells the operator each one as it falls due, with
    /// [`post_fault`](CharmOperator::post_fault) and
    /// [`post_flaky`](CharmOperator::post_flaky).
    pub fn set_fault_spec(&mut self, spec: FaultSpec) {
        self.kernel.set_recovery(&spec);
    }

    /// Tells the operator that `slots` worker slots failed, were
    /// reclaimed or came back (`kind`) — the operator analogue of the
    /// DES's capacity events. The next round applies it, after the job
    /// events, in posting order.
    pub fn post_fault(&mut self, kind: FaultKind, slots: u32) {
        self.faults.push_back((kind, slots));
    }

    /// Tells the operator that a control-plane operation `op` failed
    /// transiently — the analogue of the DES's flaky events. The next
    /// round hands it to the kernel after the capacity changes, in
    /// posting order.
    pub fn post_flaky(&mut self, op: FlakyOp) {
        self.flakies.push_back(op);
    }

    /// Fault-recovery tallies accumulated so far (including the
    /// resilience layer's transient-fault counters).
    pub fn fault_stats(&self) -> FaultStats {
        self.kernel.fault_stats()
    }

    /// The active policy.
    pub fn policy(&self) -> &dyn SchedulingPolicy {
        self.policy.as_ref()
    }

    /// Rescale actions issued so far.
    pub fn rescales(&self) -> u32 {
        let rescales = self.kernel.counters()[Counter::Rescales];
        u32::try_from(rescales).expect("a rescale count fits in u32")
    }

    /// [`Kernel::counters`], the rounds of every
    /// [`settle`](CharmOperator::settle) and both stores' full scans.
    pub fn counters(&self) -> Counters {
        (self.kernel.counters())
            .merge(self.counters)
            .merge(self.jobs.counters())
            .merge(self.plane.pods.counters())
    }

    /// Cluster utilization, folded so far; its
    /// [`log`](hpc_metrics::Utilization::log) of worker slots per job
    /// over time (keyed by [`JobId`]; resolve names via
    /// [`CharmOperator::registry`]) if
    /// [`record_allocations`](CharmOperator::record_allocations) asked
    /// for it.
    pub fn utilization(&self) -> &Utilization {
        self.kernel.utilization()
    }

    /// [`Kernel::record_allocations`]: keep every allocation change
    /// (the Fig. 9 profiles). Before the first submission.
    pub fn record_allocations(&mut self) {
        self.kernel.record_allocations();
    }

    /// The name ↔ id interning table for this run.
    pub fn registry(&self) -> &JobRegistry {
        &self.pool.registry
    }

    /// The persistent scheduler view, maintained incrementally by the
    /// kernel across reconciles (never rebuilt).
    pub fn view(&self) -> &ClusterView {
        self.kernel.view()
    }

    /// A typed client handle over this operator's job store. Clients
    /// talk exclusively through the store; the reconciler reacts to the
    /// watch events their calls generate.
    pub fn client(&self) -> SchedulerClient {
        SchedulerClient::new(self.jobs.clone(), self.plane.clock())
    }

    /// Submits a job through the client API and reconciles the
    /// resulting watch event immediately, so the admission decision
    /// runs at submission time (the behaviour scripts and tests relied
    /// on before the client existed). Fails with the same typed
    /// [`SchedulerError`] the client returns.
    pub fn submit(&mut self, spec: CharmJobSpec) -> Result<(), SchedulerError> {
        self.client().submit_request(SubmitRequest::v1(spec)?)?;
        self.reconcile_job_events();
        Ok(())
    }

    /// Rebuilds the scheduler view from CRD state by scanning the
    /// store — the *reference* construction. The hot path never calls
    /// this; it exists so tests can assert the incrementally maintained
    /// [`CharmOperator::view`] stays equal to a from-scratch rebuild.
    pub fn rebuild_view(&self) -> ClusterView {
        let capacity = self.plane.capacity();
        let launcher = self.policy.launcher_slots();
        let now = self.plane.now();
        let mut view = ClusterView::new(capacity);
        let mut committed = 0u32;
        for stored in self.jobs.list() {
            let job = &stored.obj;
            if job.status.phase.is_terminal() {
                continue;
            }
            // Jobs the reconciler has not admitted yet are not part of
            // the scheduler's world (the maintained view adds them at
            // admission time).
            let Some(id) = self.pool.registry.id(&job.spec.name) else {
                continue;
            };
            // A kill-and-requeued job waiting out its backoff is alive
            // but absent from the view until its re-entry instant.
            if job.status.phase == JobPhase::Queued
                && job.status.requeued_at.is_some_and(|due| due > now)
            {
                continue;
            }
            let running = matches!(job.status.phase, JobPhase::Starting | JobPhase::Running);
            if running {
                committed += job.status.desired_replicas + launcher;
            }
            view.insert(
                JobState {
                    id,
                    min_replicas: job.spec.min_replicas,
                    max_replicas: job.spec.max_replicas,
                    priority: job.spec.priority,
                    // A requeued job lost its original queue position:
                    // the scheduler orders it by its re-entry time.
                    submitted_at: job.status.requeued_at.unwrap_or(job.status.submitted_at),
                    replicas: if running {
                        job.status.desired_replicas
                    } else {
                        0
                    },
                    last_action: job.status.last_action,
                    running,
                    walltime_estimate: job.spec.walltime_estimate,
                },
                launcher,
            );
        }
        view.set_free_slots(capacity.saturating_sub(committed));
        // Replay the fault counters: `capacity - committed` is the
        // pre-fault free count, and failing `failed` slots from there
        // reproduces exactly (free, failed, deficit) because
        // free > 0 implies deficit == 0.
        view.fail_slots(self.kernel.view().failed_slots());
        view
    }

    /// The three things every kernel call takes, borrowed apart.
    fn split(&mut self) -> (&mut Kernel, &dyn SchedulingPolicy, Choreography<'_>) {
        let fx = Choreography {
            pool: &mut self.pool,
            plane: &self.plane,
            jobs: &self.jobs,
            events: &self.events,
        };
        (&mut self.kernel, self.policy.as_ref(), fx)
    }

    // -----------------------------------------------------------------
    // Watch-driven reconciliation
    // -----------------------------------------------------------------

    /// Drains the CharmJob watch stream: new submissions (in submission
    /// order) become one kernel submission burst — one policy dispatch
    /// per drain, not per job — and cancellation requests are executed.
    /// `true` if the stream held either.
    fn reconcile_job_events(&mut self) -> bool {
        let mut admissions: Vec<(SimTime, String)> = Vec::new();
        let mut cancels: Vec<String> = Vec::new();
        let mut drained = false;
        while let Ok(ev) = self.jobs_rx.try_recv() {
            drained = true;
            match ev {
                WatchEvent::Added(s) => {
                    admissions.push((s.obj.status.submitted_at, s.obj.spec.name.clone()));
                }
                WatchEvent::Modified(s) => cancels.push(s.obj.spec.name.clone()),
                WatchEvent::Deleted(_) => unreachable!("filtered out"),
            }
        }
        let now = self.plane.now();
        if !admissions.is_empty() {
            admissions.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let (kernel, policy, mut fx) = self.split();
            fx.pool
                .admitting
                .extend(admissions.into_iter().map(|(_, name)| name));
            kernel.submit_burst(now, policy, &mut fx);
        }
        for name in cancels {
            let (kernel, policy, mut fx) = self.split();
            // Every stored submission is admitted before its cancel
            // arrives, so an unknown name has nothing to cancel.
            if let Some(id) = fx.pool.registry.id(&name) {
                kernel.cancel(id, now, policy, &mut fx);
            }
        }
        drained
    }

    /// Applies the posted capacity losses and returns, in posting
    /// order, each stamped with this instant. `true` if there were any.
    fn reconcile_fault_events(&mut self) -> bool {
        let now = self.plane.now();
        let posted = !self.faults.is_empty();
        while let Some((kind, slots)) = self.faults.pop_front() {
            let (kernel, policy, mut fx) = self.split();
            if kind == FaultKind::Return {
                let message = format!("{slots} slots back");
                fx.events
                    .record(now, "cluster", "CapacityReturned", message);
                kernel.capacity_returned(slots, now, policy, &mut fx);
            } else {
                let message = format!("{kind} took {slots} slots");
                fx.events.record(now, "cluster", "CapacityLost", message);
                let at = Duration::from_secs(now.as_secs());
                kernel.capacity_lost(&FaultEvent { at, slots, kind }, now, policy, &mut fx);
            }
        }
        posted
    }

    /// Hands the posted transient faults to the kernel, in posting
    /// order. `true` if there were any.
    fn reconcile_flaky_events(&mut self) -> bool {
        let now = self.plane.now();
        let posted = !self.flakies.is_empty();
        while let Some(op) = self.flakies.pop_front() {
            let (kernel, policy, mut fx) = self.split();
            let outcome = kernel.flaky(op, now, policy, &mut fx);
            let message = format!("{op} -> {outcome:?}");
            fx.events
                .record(now, "control-plane", "TransientFault", message);
        }
        posted
    }

    /// Wakes the kernel for every requeue backoff that has expired.
    /// `true` if one had.
    fn process_due_requeues(&mut self) -> bool {
        let now = self.plane.now();
        let mut woke = false;
        while let Some(&(due, job)) = self.pool.backoffs.first() {
            if due > now {
                break;
            }
            woke = true;
            self.pool.backoffs.pop_first();
            let (kernel, policy, mut fx) = self.split();
            let name = fx.pool.registry.name(job).to_string();
            fx.pool.admitting.push_back(name);
            if !kernel.requeue_due(job, now, policy, &mut fx) {
                // Cancelled while waiting out the backoff.
                fx.pool.admitting.clear();
            }
        }
        woke
    }

    /// Drains the pod watch stream and runs the launch check of each
    /// pod's owner, and of each job queued by a pre-launch shrink, once,
    /// in name order. `true` if there was any.
    fn reconcile_pod_events(&mut self) -> bool {
        let mut owners = std::mem::take(&mut self.pool.launch_checks);
        while let Ok(ev) = self.pods_rx.try_recv() {
            let (WatchEvent::Added(s) | WatchEvent::Modified(s) | WatchEvent::Deleted(s)) = ev;
            owners.push(Arc::clone(&s.obj.owner));
        }
        owners.sort_unstable();
        owners.dedup();
        for owner in &owners {
            self.try_launch(owner);
        }
        let checked = !owners.is_empty();
        owners.clear();
        self.pool.launch_checks = owners;
        checked
    }

    /// Launches `name` if it is `Starting` and all its pods run.
    fn try_launch(&mut self, name: &Arc<str>) {
        let status = self.jobs.read(name, |s| {
            (s.obj.status.phase, s.obj.status.desired_replicas)
        });
        let Some((JobPhase::Starting, desired)) = status else {
            return;
        };
        if self
            .plane
            .job_pods_running(name, PodRole::Worker, desired as usize)
            && self.plane.job_pods_running(name, PodRole::Launcher, 1)
        {
            let now = self.plane.now();
            let pool = &mut self.pool;
            let id = pool.registry.id(name).expect("starting job was admitted");
            // The one spec clone of a launch.
            let spec = self
                .jobs
                .read(name, |s| s.obj.spec.clone())
                .expect("starting job exists");
            // A job relaunching after an eviction resumes from what its
            // last checkpoint preserved.
            let resume = pool.checkpointed.remove(&id);
            let launched = Running {
                handle: pool.executor.launch(&spec, desired, resume),
                flow: None,
            };
            pool.running.insert(id, launched);
            self.kernel.started(id, now);
            self.jobs
                .update(name, |j| {
                    j.status.phase = JobPhase::Running;
                    j.status.replicas = j.status.desired_replicas;
                    j.status.started_at = Some(now);
                })
                .expect("job exists");
            self.events.record(now, Arc::clone(name), "Started", "");
        }
    }

    /// The poll-only work no store event can deliver: rescale
    /// acknowledgements, expand-pods-ready transitions, completions, and
    /// the policy's periodic timer. `true` if a rescale flow advanced,
    /// a job completed, the timer fired or a finished pod was reaped.
    fn timer_pass(&mut self) -> bool {
        let now = self.plane.now();
        let timer_due = self.next_timer.is_some_and(|due| now >= due);
        let mut progressed = timer_due;
        if timer_due {
            let interval = self.policy.timer_interval().expect("timer configured");
            self.next_timer = Some(now + interval);
        }
        let (kernel, policy, mut fx) = self.split();

        // Progress rescale flows (BTreeMap: deterministic id order).
        let in_flow = |(id, r): (&JobId, &Running)| r.flow.map(|flow| (*id, flow));
        let flows: Vec<(JobId, RescaleFlow)> = fx.pool.running.iter().filter_map(in_flow).collect();
        for (id, flow) in flows {
            let name = Arc::clone(fx.pool.registry.shared_name(id));
            let job = fx.pool.running.get_mut(&id).expect("collected above");
            match flow {
                RescaleFlow::ShrinkSignalled { target } => {
                    if let Some(report) = job.handle.rescale_acked() {
                        progressed = true;
                        job.flow = None;
                        fx.remove_excess_workers(&name, target);
                        fx.update_nodelist(&name);
                        fx.mirror(&name, |s| s.replicas = target);
                        kernel.shrunk(id, now);
                        let message = format!("-> {target} (overhead {})", report.total());
                        fx.events.record(now, Arc::clone(&name), "Shrunk", message);
                    }
                }
                RescaleFlow::ExpandPodsPending { target } => {
                    if fx
                        .plane
                        .job_pods_running(&name, PodRole::Worker, target as usize)
                    {
                        progressed = true;
                        fx.update_nodelist(&name);
                        let job = fx.pool.running.get_mut(&id).expect("collected above");
                        job.handle.request_rescale(target);
                        job.flow = Some(RescaleFlow::ExpandSignalled { target });
                        let message = format!("-> {target}");
                        fx.events
                            .record(now, Arc::clone(&name), "ExpandSignalled", message);
                    }
                }
                RescaleFlow::ExpandSignalled { target } => {
                    if let Some(report) = job.handle.rescale_acked() {
                        progressed = true;
                        job.flow = None;
                        fx.mirror(&name, |s| s.replicas = target);
                        let message = format!("-> {target} (overhead {})", report.total());
                        fx.events
                            .record(now, Arc::clone(&name), "Expanded", message);
                    }
                }
            }
        }

        // Detect completions (executor handles are poll-only): the
        // keys of `running` are the `Running` jobs, in id = admission order.
        // The first finished one (polled again by the burst it opens)
        // starts a completion burst, which pulls the rest — each handle
        // polled after the completions before it were applied, because
        // a completion's redistribution may stop or rescale it.
        let pool = &mut *fx.pool;
        pool.polling.clear();
        pool.polling.extend(pool.running.keys().copied());
        if let Some(first) = fx.next_finished() {
            progressed = true;
            fx.pool.polling.push_front(first);
            kernel.complete_burst(now, policy, &mut fx);
        }

        if timer_due {
            kernel.timer(now, policy, &mut fx);
        }

        progressed |= self.plane.reap_finished() > 0;

        #[cfg(debug_assertions)]
        self.cross_check_against_store_scan();
        progressed
    }

    /// Debug builds re-derive, from one full scan of the job store, the
    /// two answers the tick path reads off its own state — which jobs
    /// are `Running` (the executor keys) and whether every job is
    /// terminal ([`CharmOperator::all_complete`]) — and have the kernel
    /// check its books.
    #[cfg(debug_assertions)]
    fn cross_check_against_store_scan(&self) {
        let jobs = self.jobs.list();
        let running: BTreeSet<JobId> = jobs
            .iter()
            .filter(|s| s.obj.status.phase == JobPhase::Running)
            .map(|s| {
                self.pool
                    .registry
                    .id(&s.obj.spec.name)
                    .expect("running job was admitted")
            })
            .collect();
        assert!(
            self.pool.running.keys().eq(running.iter()),
            "executors {:?} != Running jobs {running:?}",
            self.pool.running.keys().collect::<Vec<_>>()
        );
        let scanned = !jobs.is_empty() && jobs.iter().all(|s| s.obj.status.phase.is_terminal());
        assert_eq!(
            self.all_complete(),
            scanned,
            "all_complete ({} jobs known to the kernel) disagrees with a scan of {} jobs",
            self.kernel.known_jobs(),
            jobs.len()
        );
        self.kernel.check();
    }

    /// One reconcile round: drain job events (admissions, then
    /// cancellations), then the posted capacity changes and transient
    /// faults, wake due requeues, advance the control plane, drain pod
    /// events (launch progress), then run the timer pass (completions,
    /// then the policy timer) — the kernel's
    /// [`EventClass`](crate::kernel::EventClass) order.
    pub fn tick(&mut self) {
        self.round();
    }

    /// [`tick`](CharmOperator::tick); `true` if the round found
    /// anything to do.
    fn round(&mut self) -> bool {
        let mut progressed = self.reconcile_job_events();
        progressed |= self.reconcile_fault_events();
        progressed |= self.reconcile_flaky_events();
        progressed |= self.process_due_requeues();
        progressed |= self.plane.tick().moved();
        progressed |= self.reconcile_pod_events();
        progressed | self.timer_pass()
    }

    /// Ticks until the instant is settled — until a round drains no
    /// watch event, applies no posted fault, wakes no requeue, binds or
    /// moves no pod, runs no launch check, advances no rescale flow,
    /// sees no completion, fires no timer and reaps no pod — counting
    /// its rounds in `Counter::SettleRounds` (the quiet one included,
    /// so an idle instant settles in 1). More than one is needed
    /// whenever a round's effects are only observable by the next: a
    /// completion frees slots and the policy admits a queued job (its
    /// pods are created); the kubelet terminates the completed job's
    /// deleting pods, which hold node capacity until then; the admitted
    /// job's pods bind and start, so it launches at the completion's
    /// timestamp. Only real work counts: the operator's own
    /// status-mirror writes are filtered out of its job watch. Gives up
    /// after 64 rounds (a real executor can finish something in every
    /// one).
    pub fn settle(&mut self) {
        let mut rounds = 1;
        while self.round() && rounds < Self::SETTLE_MAX_ROUNDS {
            rounds += 1;
        }
        self.counters.add(Counter::SettleRounds, rounds);
    }

    const SETTLE_MAX_ROUNDS: u64 = 64;

    /// `true` once every submitted job reached a terminal phase
    /// (completed, cancelled or failed). O(1): every job in the store
    /// has been taken on by the kernel and all of those are terminal —
    /// so a submission not yet reconciled still answers `false`.
    pub fn all_complete(&self) -> bool {
        let stored = self.jobs.len();
        stored > 0 && stored == self.kernel.known_jobs() && self.kernel.all_terminal()
    }

    /// Jobs currently queued (submitted but never started).
    pub fn queued_jobs(&self) -> Vec<String> {
        self.jobs
            .list()
            .into_iter()
            .filter(|s| s.obj.status.phase == JobPhase::Queued)
            .map(|s| s.obj.spec.name.clone())
            .collect()
    }

    /// Final run metrics over the jobs that completed normally
    /// (cancelled jobs hold no meaningful response/completion times);
    /// call after [`CharmOperator::all_complete`].
    pub fn metrics(&self) -> RunMetrics {
        let registry = &self.pool.registry;
        let name = |id| Arc::clone(registry.shared_name(id));
        self.kernel.metrics(self.policy.as_ref(), name)
    }

    /// Executors currently launched (one per `Running` job).
    pub fn leased_executors(&self) -> u32 {
        self.pool.running.len() as u32
    }
}

/// The job watch's filter: what [`CharmOperator::tick`] acts on — a
/// job added while `Queued` (a submission) and a cancellation request on
/// a job still live. Everything else the store sees is the operator's
/// own status mirror.
fn job_event_acted_on(kind: EventKind, job: &CharmJob) -> bool {
    match kind {
        EventKind::Added => job.status.phase == JobPhase::Queued,
        EventKind::Modified => job.status.cancel_requested && !job.status.phase.is_terminal(),
        EventKind::Deleted => false,
    }
}

/// The pod watch's filter: a live pod that runs, the only pod news a
/// launch check can use.
fn pod_started(kind: EventKind, pod: &Pod) -> bool {
    kind != EventKind::Deleted && pod.phase == PodPhase::Running && !pod.deleting
}

impl Choreography<'_> {
    /// Writes the CRD status mirror of `name`.
    fn mirror(&self, name: &str, write: impl FnOnce(&mut CharmJobStatus)) {
        self.jobs
            .update(name, |j| write(&mut j.status))
            .expect("job exists");
    }

    /// Creates `count` fresh worker pods for the job on `row`. Serials
    /// come from the row's counter — pod names are `{job}-w{serial:04}`,
    /// monotonically increasing across expands and relaunches, without
    /// listing or re-parsing existing pods.
    fn create_workers(&mut self, row: usize, name: &Arc<str>, count: u32, now: SimTime) {
        let serials = &mut self.pool.next_serial;
        if row >= serials.len() {
            serials.resize(row + 1, 0);
        }
        let start = serials[row];
        serials[row] = start + count;
        for serial in start..start + count {
            let pod_name = self.pool.pod_name(format_args!("{name}-w{serial:04}"));
            self.plane
                .pods
                .create(Pod::worker(pod_name, Arc::clone(name), now))
                .expect("fresh worker pod");
        }
    }

    fn update_nodelist(&self, job: &str) {
        // The live workers, in creation (= serial) order.
        let workers = self.plane.pod_names_of_job(job, Some(PodRole::Worker));
        let hosts = workers.join("\n");
        let cm_name = format!("{job}-nodelist");
        if self.plane.configmaps.read(&cm_name, |_| ()).is_some() {
            self.plane
                .configmaps
                .update(&cm_name, move |cm| {
                    cm.data.insert("hosts".into(), hosts);
                })
                .expect("configmap exists");
        } else {
            let mut cm = kube_sim::ConfigMap::new(cm_name);
            cm.data.insert("hosts".into(), hosts);
            self.plane.configmaps.create(cm).expect("fresh configmap");
        }
    }

    fn remove_excess_workers(&self, job: &str, target: u32) {
        (self.plane).terminate_pods_of_job(job, Some(PodRole::Worker), target as usize);
    }

    /// Releases everything held for `job` — executor (kill signal),
    /// rescale flow, pods and nodelist — and returns its name. `hard`
    /// deletes the pods synchronously instead of gracefully.
    fn release(&mut self, job: JobId, hard: bool) -> Arc<str> {
        let name = Arc::clone(self.pool.registry.shared_name(job));
        if let Some(mut launched) = self.pool.running.remove(&job) {
            launched.handle.stop();
        }
        if hard {
            self.plane.delete_pods_of_job(&name);
        } else {
            self.plane.terminate_pods_of_job(&name, None, 0);
        }
        let _ = self.plane.configmaps.delete(&format!("{name}-nodelist"));
        name
    }

    /// The next running job, in admission order, whose executor reports
    /// it finished.
    fn next_finished(&mut self) -> Option<JobId> {
        while let Some(id) = self.pool.polling.pop_front() {
            let launched = self.pool.running.get_mut(&id);
            if launched.is_some_and(|l| l.handle.status() == ExecStatus::Finished) {
                return Some(id);
            }
        }
        None
    }

    /// Stages `name` for the kernel: interns its id and reads what the
    /// scheduler needs off the CRD. `None` for a job that vanished or
    /// is not `Queued` (cancelled while waiting out a backoff).
    fn stage(&mut self, name: &str) -> Option<Admission> {
        let mut admission = self.jobs.read(name, |s| {
            let (spec, status) = (&s.obj.spec, &s.obj.status);
            let job = JobState {
                id: JobId(0),
                min_replicas: spec.min_replicas,
                max_replicas: spec.max_replicas,
                priority: spec.priority,
                submitted_at: status.submitted_at,
                replicas: 0,
                last_action: SimTime::NEG_INFINITY,
                running: false,
                walltime_estimate: spec.walltime_estimate,
            };
            let cancelled = status.cancel_requested;
            (status.phase == JobPhase::Queued).then_some(Admission { job, cancelled })
        })??;
        let known = self.pool.registry.len();
        admission.job.id = self.pool.registry.intern(name);
        let (kind, message) = if admission.job.id.index() < known {
            ("Resubmitted", "requeue backoff expired")
        } else {
            ("Submitted", "")
        };
        let name = Arc::clone(self.pool.registry.shared_name(admission.job.id));
        self.events.record(self.plane.now(), name, kind, message);
        Some(admission)
    }
}

impl Effects for Choreography<'_> {
    fn next_admission(&mut self) -> Option<Admission> {
        while let Some(name) = self.pool.admitting.pop_front() {
            if let Some(admission) = self.stage(&name) {
                return Some(admission);
            }
        }
        None
    }

    /// The paper's create sequence: launcher pod, worker pods,
    /// nodelist. The application starts once they all run
    /// (`try_launch`).
    fn launch(&mut self, job: JobId, row: usize, replicas: u32, now: SimTime) -> bool {
        let name = Arc::clone(self.pool.registry.shared_name(job));
        self.mirror(&name, |s| {
            s.phase = JobPhase::Starting;
            s.desired_replicas = replicas;
            s.replicas = replicas;
            s.last_action = now;
        });
        let launcher = self.pool.pod_name(format_args!("{name}-launcher"));
        self.plane
            .pods
            .create(Pod::launcher(launcher, Arc::clone(&name), now))
            .expect("fresh launcher pod");
        self.create_workers(row, &name, replicas, now);
        self.update_nodelist(&name);
        let message = format!("{replicas} replicas");
        self.events
            .record(now, Arc::clone(&name), "Created", message);
        false
    }

    fn resize(&mut self, job: JobId, row: usize, from: u32, to: u32, now: SimTime) -> bool {
        let name = Arc::clone(self.pool.registry.shared_name(job));
        let mut current = 0;
        self.mirror(&name, |s| {
            current = s.replicas;
            s.desired_replicas = to;
            s.last_action = now;
        });
        if to > from {
            // Paper's expand sequence: pods first, nodelist, then signal.
            self.create_workers(row, &name, to.saturating_sub(current), now);
            let kind = if let Some(launched) = self.pool.running.get_mut(&job) {
                launched.flow = Some(RescaleFlow::ExpandPodsPending { target: to });
                "ExpandStarted"
            } else {
                "ExpandPreLaunch"
            };
            self.events
                .record(now, Arc::clone(&name), kind, format!("-> {to}"));
            true
        } else if let Some(launched) = self.pool.running.get_mut(&job) {
            // Paper's shrink sequence: signal first, remove pods on ack.
            launched.handle.request_rescale(to);
            launched.flow = Some(RescaleFlow::ShrinkSignalled { target: to });
            self.events.record(
                now,
                Arc::clone(&name),
                "ShrinkSignalled",
                format!("-> {to}"),
            );
            false
        } else {
            // Job hasn't launched yet: adjust pods directly. The pods
            // left may all run already, with none reaching `Running`
            // now, so the next pod drain checks the launch.
            self.remove_excess_workers(&name, to);
            self.mirror(&name, |s| s.replicas = to);
            self.pool.launch_checks.push(Arc::clone(&name));
            let message = format!("-> {to} (pre-launch)");
            self.events
                .record(now, Arc::clone(&name), "Shrunk", message);
            true
        }
    }

    fn stop(&mut self, job: JobId, row: Option<usize>, why: Stop, now: SimTime) {
        if let Stop::Evicted { rollback } = why {
            // The checkpoint the relaunch resumes from, asked of the
            // executor before it is killed. Every eviction leaves an
            // entry — that is what makes the relaunch pay recovery, as
            // `Des::stop` marks every evicted job: one evicted before
            // it launched keeps whatever an earlier attempt left.
            let launched = self.pool.running.get_mut(&job);
            let kept = launched.and_then(|l| l.handle.checkpointed_iters(now, rollback));
            let entry = self.pool.checkpointed.entry(job).or_insert(0.0);
            if let Some(kept) = kept {
                *entry = kept;
            }
        } else {
            self.pool.checkpointed.remove(&job);
        }
        // An evicted job may be relaunched in the same reconcile
        // instant (a transient-fault eviction frees its own slots with
        // capacity unchanged), so its fixed-name launcher pod must
        // leave the store synchronously.
        let name = self.release(job, matches!(why, Stop::Evicted { .. }));
        let (phase, kind, message) = match why {
            Stop::Completed => (JobPhase::Completed, "Completed", String::new()),
            Stop::Cancelled => (JobPhase::Cancelled, "Cancelled", String::new()),
            Stop::Evicted { .. } => {
                let message = "preempted; restart from checkpoint".to_string();
                (JobPhase::Queued, "Evicted", message)
            }
            Stop::Requeued { attempt, back_at } => {
                self.pool.backoffs.insert((back_at, job));
                let message = format!("attempt {attempt}, back at t={}s", back_at.as_secs());
                (JobPhase::Queued, "Requeued", message)
            }
            Stop::Failed { attempts } => {
                let message = format!("retry budget exhausted after {attempts} attempts");
                (JobPhase::Failed, "Failed", message)
            }
        };
        let serial = row.and_then(|row| self.pool.next_serial.get_mut(row));
        if let Some(serial) = serial.filter(|_| phase.is_terminal()) {
            *serial = 0; // the row's next holder numbers its pods from 0
        }
        self.mirror(&name, |s| {
            s.phase = phase;
            if phase.is_terminal() {
                s.completed_at = Some(now);
            }
            if phase != JobPhase::Completed {
                s.replicas = 0;
                s.desired_replicas = 0;
            }
            match why {
                Stop::Evicted { .. } => s.last_action = now,
                Stop::Requeued { attempt, back_at } => {
                    s.attempts = attempt;
                    s.requeued_at = Some(back_at);
                    s.last_action = SimTime::NEG_INFINITY;
                }
                Stop::Failed { attempts } => s.attempts = attempts,
                Stop::Completed | Stop::Cancelled => {}
            }
        });
        self.events.record(now, Arc::clone(&name), kind, message);
    }

    fn enqueued(&mut self, job: JobId, now: SimTime) {
        let name = Arc::clone(self.pool.registry.shared_name(job));
        self.events
            .record(now, name, "Enqueued", "no resources available");
    }

    fn next_completion(&mut self) -> Option<JobId> {
        self.next_finished()
    }

    /// What the job's CRD says.
    fn identify(&self, job: JobId) -> (u32, SimTime) {
        let name = self.pool.registry.shared_name(job);
        (self.jobs)
            .read(name, |s| (s.obj.spec.priority, s.obj.status.submitted_at))
            .expect("a completed job is stored")
    }
}
