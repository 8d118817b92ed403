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
//! * **Watch drains → kernel entry points.** The operator subscribes
//!   to the CharmJob, pod, fault-notice and flaky-notice stores with
//!   the atomic [`Store::list_watch`]; one [`tick`](CharmOperator::tick)
//!   drains them in a fixed order. CharmJobs added become one
//!   submission burst (sorted by submission time, staged one by one as
//!   the policy pulls them; a job whose cancellation is already on
//!   record is retired undecided); `cancel_requested` becomes a
//!   cancel; notices become capacity-lost / capacity-returned / flaky;
//!   expired requeue backoffs become re-entries; pod phase changes
//!   progress the owning job's launch. A *timer pass* covers what only
//!   polling can observe — rescale acknowledgements and completions
//!   surface on executor handles, not in any store — and the policy's
//!   periodic deadline.
//! * **The kernel's effects** ([`Effects`]), as the paper's pod
//!   sequences: **launch** is launcher pod + N worker pods + a nodelist
//!   ConfigMap, the application starting once they all run; **shrink**
//!   signals the application first and removes pods only after the
//!   acknowledgement; **expand** creates pods first, updates the
//!   nodelist, then signals (§3.1). Worker pod serials come from a
//!   per-job counter (never from re-parsing pod names), so creating
//!   workers is O(count); every pod of a job shares the registry's one
//!   `Arc` of the job name as its owner, and a pod's own name is
//!   allocated once, shared by the pod and the store's name map.
//!   **Stop** kills the executor, returns its slot
//!   lease, deletes pods and nodelist. What the kernel cannot see it is
//!   told: the application started, the shrink was acknowledged.
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
//! through the borrowed [`Store::read`]; which jobs are `Running` is the
//! key set of the executor-handle map; whether everything is terminal
//! ([`all_complete`](CharmOperator::all_complete)) is the kernel's
//! tallies against the store's length; a job's pods come from the pod
//! store's by-owner index, and the pod controllers (scheduler, kubelet,
//! garbage collection) read its lifecycle-stage index: a round in which
//! no pod moved visits none. What the watch streams deliver are
//! pointers to the stored objects, not copies.
//!
//! [`Store::full_scans`] makes the rule a count tests hold: it does
//! not move on the job store across `tick`/`all_complete`, except for
//! the one scan per round by which debug builds cross-check the handle
//! keys and the completion answer against the store. The scanning reads
//! remain for the cold surface: [`metrics`](CharmOperator::metrics)
//! (one pass for the names), [`queued_jobs`](CharmOperator::queued_jobs)
//! and [`rebuild_view`](CharmOperator::rebuild_view) (the from-scratch
//! construction tests compare the kernel's view against).
//!
//! [`Store::list_watch`]: kube_sim::Store::list_watch
//! [`Store::read`]: kube_sim::Store::read
//! [`Store::full_scans`]: kube_sim::Store::full_scans
//! [`JobRegistry`]: crate::registry::JobRegistry

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use crossbeam::channel::Receiver;
use hpc_metrics::{Duration, JobId, SimTime, UtilizationRecorder};
use hpc_workload::{FaultEvent, FaultKind, FaultSpec};
use kube_sim::{ControlPlane, EventLog, Pod, PodRole, Store, Stored, WatchEvent};

use elastic_resilience::{LeasePool, Lifecycle, ShutdownPhase, SlotLease};

use crate::client::{SchedulerClient, SubmitRequest};
use crate::crd::{CharmJob, CharmJobSpec, CharmJobStatus, FaultNotice, FlakyNotice, JobPhase};
use crate::error::SchedulerError;
use crate::executor::{ExecHandle, ExecStatus, Executor};
use crate::kernel::{Admission, Dispatches, Effects, Kernel, Stop};
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
    /// Fault notices posted by the infrastructure layer (or the harness
    /// replaying a [`FaultSpec`]); the operator watches this store the
    /// same way it watches jobs and pods.
    pub faults: Store<FaultNotice>,
    /// Transient control-plane fault notices (the operator rendering of
    /// the workload's `FlakySpec`), watched like every other store.
    pub flakies: Store<FlakyNotice>,
    /// Operator event log.
    pub events: EventLog,
    policy: Box<dyn SchedulingPolicy>,
    /// The transition machine: view, ledgers, tallies, every decision.
    kernel: Kernel,
    /// What the kernel's effects act on.
    pool: ExecutorPool,
    /// Watch stream over the CharmJob store (admissions, cancellations).
    jobs_rx: Receiver<WatchEvent<CharmJob>>,
    /// Watch stream over the pod store (launch/expand progress).
    pods_rx: Receiver<WatchEvent<Pod>>,
    /// Watch stream over the fault-notice store.
    faults_rx: Receiver<WatchEvent<FaultNotice>>,
    /// Watch stream over the flaky-notice store.
    flakies_rx: Receiver<WatchEvent<FlakyNotice>>,
    /// Next policy-timer deadline, if the policy requested one.
    next_timer: Option<SimTime>,
    /// Shutdown phase of the executor pool (Running until
    /// [`CharmOperator::begin_drain`]).
    lifecycle: Lifecycle,
}

/// Everything held for one launched job. One record, so the executor,
/// its slot and its rescale flow leave together wherever the job stops.
struct Running {
    handle: Box<dyn ExecHandle>,
    /// RAII slot accounting: the executor holds one leased slot for as
    /// long as this record exists, so an evicted executor structurally
    /// cannot leak its slot.
    _lease: SlotLease,
    /// The rescale in flight, if any.
    flow: Option<RescaleFlow>,
}

/// The per-job state the pod choreography keeps: executors with their
/// leases and rescale flows, pod serials, checkpointed progress — plus
/// the two queues a burst is pulled from.
struct ExecutorPool {
    executor: Box<dyn Executor>,
    /// Name ↔ id interning (admission order).
    registry: JobRegistry,
    /// Live executors. The keys are exactly the `Running` jobs (inserted
    /// at launch, removed wherever a job stops), in admission order —
    /// the timer pass polls these, not the job store.
    running: BTreeMap<JobId, Running>,
    /// Next worker-pod serial per job (indexed by `JobId`).
    next_serial: Vec<u32>,
    /// Work the last checkpoint of an evicted job preserved (zero when it
    /// never launched), until its relaunch hands it to the executor.
    checkpointed: HashMap<JobId, f64>,
    /// Where the executors' slot leases come from.
    leases: LeasePool,
    /// Requeue backoffs the kernel asked to be woken for — the
    /// operator's stand-in for an event queue.
    backoffs: BTreeSet<(SimTime, JobId)>,
    /// Names of the submission burst not staged yet.
    admitting: VecDeque<String>,
    /// Running jobs the timer pass has not polled for completion yet.
    polling: VecDeque<JobId>,
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
        let faults: Store<FaultNotice> = Store::new();
        let flakies: Store<FlakyNotice> = Store::new();
        // list+watch atomically: nothing submitted between "now" and the
        // first reconcile can be missed (the jobs store is freshly
        // created, so the snapshot is empty by construction; the pods
        // snapshot is ignored because pods only exist once this operator
        // creates them).
        let (_, jobs_rx) = jobs.list_watch();
        let (_, pods_rx) = plane.pods.list_watch();
        let (_, faults_rx) = faults.list_watch();
        let (_, flakies_rx) = flakies.list_watch();
        let next_timer = policy.timer_interval().map(|iv| plane.now() + iv);
        CharmOperator {
            kernel: Kernel::new(plane.capacity(), policy.launcher_slots()),
            plane,
            jobs,
            faults,
            flakies,
            events: EventLog::new(),
            policy,
            pool: ExecutorPool {
                executor,
                registry: JobRegistry::new(),
                running: BTreeMap::new(),
                next_serial: Vec::new(),
                checkpointed: HashMap::new(),
                leases: LeasePool::new(),
                backoffs: BTreeSet::new(),
                admitting: VecDeque::new(),
                polling: VecDeque::new(),
                scratch: String::new(),
            },
            jobs_rx,
            pods_rx,
            faults_rx,
            flakies_rx,
            next_timer,
            lifecycle: Lifecycle::new(),
        }
    }

    /// Installs the recovery parameters (checkpoint interval, retry
    /// budget, backoff base) the fault layer uses, and rebuilds the
    /// resilience decision core from the spec's `FlakySpec`. The event
    /// schedules inside `spec` are *not* replayed here — faults reach
    /// the operator as [`FaultNotice`]s on [`CharmOperator::faults`]
    /// and transient faults as [`FlakyNotice`]s on
    /// [`CharmOperator::flakies`].
    pub fn set_fault_spec(&mut self, spec: FaultSpec) {
        self.kernel.set_recovery(&spec);
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
        self.kernel.rescales()
    }

    /// How many policy burst dispatches the submissions and completions
    /// so far cost ([`Kernel::dispatches`]).
    pub fn dispatches(&self) -> Dispatches {
        self.kernel.dispatches()
    }

    /// Jobs cancelled so far.
    pub fn cancellations(&self) -> u32 {
        self.kernel.cancelled()
    }

    /// The utilization recorder (worker slots per job over time, keyed
    /// by [`JobId`]; resolve names via [`CharmOperator::registry`]).
    pub fn utilization(&self) -> &UtilizationRecorder {
        self.kernel.utilization()
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
    /// `true` if the stream held anything (the operator's own status
    /// writes echo back through it).
    fn reconcile_job_events(&mut self) -> bool {
        let mut admissions: Vec<(SimTime, String)> = Vec::new();
        let mut cancels: Vec<String> = Vec::new();
        let mut drained = false;
        while let Ok(ev) = self.jobs_rx.try_recv() {
            drained = true;
            match ev {
                WatchEvent::Added(s) => {
                    if s.obj.status.phase == JobPhase::Queued {
                        admissions.push((s.obj.status.submitted_at, s.obj.spec.name.clone()));
                    }
                }
                WatchEvent::Modified(s) => {
                    if s.obj.status.cancel_requested && !s.obj.status.phase.is_terminal() {
                        cancels.push(s.obj.spec.name.clone());
                    }
                }
                WatchEvent::Deleted(_) => {}
            }
        }
        let now = self.plane.now();
        // A draining (or further shut down) operator admits nothing:
        // the jobs stay queued for a future operator generation.
        if !admissions.is_empty() && self.lifecycle.is_accepting() {
            admissions.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let (kernel, policy, mut fx) = self.split();
            fx.pool
                .admitting
                .extend(admissions.into_iter().map(|(_, name)| name));
            kernel.submit_burst(now, policy, &mut fx);
        }
        for name in cancels {
            let (kernel, policy, mut fx) = self.split();
            match fx.pool.registry.id(&name) {
                Some(id) => {
                    kernel.cancel(id, now, policy, &mut fx);
                }
                // Never admitted (the operator is draining): with its
                // cancellation on record, admission retires it.
                None => {
                    fx.pool.admitting.push_back(name);
                    kernel.submit_burst(now, policy, &mut fx);
                }
            }
        }
        drained
    }

    /// Drains the fault-notice watch stream: capacity losses and
    /// returns, in notice order. `true` if there were any.
    fn reconcile_fault_events(&mut self) -> bool {
        let notices = drain_added(&self.faults_rx, |n| n.at);
        let now = self.plane.now();
        for n in &notices {
            let n = &n.obj;
            let (kernel, policy, mut fx) = self.split();
            if n.kind == FaultKind::Return {
                let message = format!("{} slots back", n.slots);
                fx.events.record(now, &n.name, "CapacityReturned", message);
                kernel.capacity_returned(n.slots, now, policy, &mut fx);
            } else {
                let message = format!("{} took {} slots", n.kind, n.slots);
                fx.events.record(now, &n.name, "CapacityLost", message);
                let fault = FaultEvent {
                    at: Duration::from_secs(n.at.as_secs()),
                    slots: n.slots,
                    kind: n.kind,
                };
                kernel.capacity_lost(&fault, now, policy, &mut fx);
            }
        }
        !notices.is_empty()
    }

    /// Drains the flaky-notice watch stream, in notice order. `true`
    /// if there were any.
    fn reconcile_flaky_events(&mut self) -> bool {
        let notices = drain_added(&self.flakies_rx, |n| n.at);
        let now = self.plane.now();
        for n in &notices {
            let n = &n.obj;
            let (kernel, policy, mut fx) = self.split();
            let outcome = kernel.flaky(n.op, now, policy, &mut fx);
            let message = format!("{} -> {outcome:?}", n.op);
            fx.events.record(now, &n.name, "TransientFault", message);
        }
        !notices.is_empty()
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

    /// Drains the pod watch stream and progresses the *owning jobs*
    /// only: launch checks for `Starting` jobs whose pods moved.
    /// `true` if any pod had.
    fn reconcile_pod_events(&mut self) -> bool {
        // The events' own pods lend their owners' names: sorted and
        // deduplicated by owner, nothing is cloned.
        let mut touched: Vec<Arc<Stored<Pod>>> = Vec::new();
        while let Ok(ev) = self.pods_rx.try_recv() {
            let (WatchEvent::Added(s) | WatchEvent::Modified(s) | WatchEvent::Deleted(s)) = ev;
            touched.push(s);
        }
        touched.sort_by(|a, b| a.obj.owner.cmp(&b.obj.owner));
        touched.dedup_by(|a, b| a.obj.owner == b.obj.owner);
        for pod in &touched {
            self.try_launch(&pod.obj.owner);
        }
        !touched.is_empty()
    }

    /// Launches `name` if it is `Starting` and all its pods run.
    fn try_launch(&mut self, name: &str) {
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
                _lease: pool.leases.lease(1),
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
            self.events.record(now, name, "Started", "");
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
                        fx.events.record(now, &*name, "Shrunk", message);
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
                        fx.events.record(now, &*name, "ExpandSignalled", message);
                    }
                }
                RescaleFlow::ExpandSignalled { target } => {
                    if let Some(report) = job.handle.rescale_acked() {
                        progressed = true;
                        job.flow = None;
                        fx.mirror(&name, |s| s.replicas = target);
                        let message = format!("-> {target} (overhead {})", report.total());
                        fx.events.record(now, &*name, "Expanded", message);
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
    /// cancellations), fault and flaky notices and due requeues, advance
    /// the control plane, drain pod events (launch progress), then run
    /// the timer pass (completions, then the policy timer) — the
    /// kernel's [`EventClass`](crate::kernel::EventClass) order.
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
        self.plane.tick();
        progressed |= self.reconcile_pod_events();
        progressed | self.timer_pass()
    }

    /// Ticks until the instant is settled — until a round drains no
    /// watch event, wakes no requeue, advances no rescale flow, sees no
    /// completion, fires no timer and reaps no pod — and returns how
    /// many rounds that took (the quiet one included, so an idle instant
    /// settles in 1). More than one is needed whenever a round's effects
    /// are only observable by the next: a completion frees slots and the
    /// policy admits a queued job (its pods are created); the kubelet
    /// terminates the completed job's deleting pods, which hold node
    /// capacity until then; the admitted job's pods bind and start, so
    /// it launches at the completion's timestamp. The operator's own
    /// status-mirror writes echo back through its job watch and cost a
    /// busy instant a round or two more. Gives up after 64 rounds (a
    /// real executor can finish something in every one).
    pub fn settle(&mut self) -> u32 {
        let mut rounds = 1;
        while self.round() && rounds < Self::SETTLE_MAX_ROUNDS {
            rounds += 1;
        }
        rounds
    }

    const SETTLE_MAX_ROUNDS: u32 = 64;

    /// `true` once every submitted job reached a terminal phase
    /// (completed, cancelled or failed). O(1): every job in the store
    /// has been taken on by the kernel and all of those are terminal —
    /// so a submission not yet reconciled, or one a draining operator
    /// refuses to admit, still answers `false`.
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
        // One pass over the store for what only the CRDs know.
        let mut identity = vec![None; self.pool.registry.len()];
        self.jobs.for_each(|s| {
            let job = &s.obj;
            if job.status.phase == JobPhase::Completed {
                let id = self
                    .pool
                    .registry
                    .id(&job.spec.name)
                    .expect("completed job was admitted");
                let known = (
                    job.spec.name.clone(),
                    job.spec.priority,
                    job.status.submitted_at,
                );
                identity[id.index()] = Some(known);
            }
        });
        self.kernel.metrics(self.policy.as_ref(), |id| {
            (identity[id.index()].take()).expect("completed job is stored")
        })
    }

    /// Shutdown phase of the executor pool ([`ShutdownPhase::Running`]
    /// until [`CharmOperator::begin_drain`]).
    pub fn shutdown_phase(&self) -> ShutdownPhase {
        self.lifecycle.phase()
    }

    /// Executor slots currently held by live RAII leases (one per
    /// launched executor).
    pub fn leased_executors(&self) -> u32 {
        self.pool.leases.leased()
    }

    /// Phase 1 of shutdown: stop admitting. Jobs already queued stay
    /// queued (their admission decisions no longer run); executors
    /// already launched keep running until
    /// [`CharmOperator::begin_cleanup`].
    ///
    /// # Panics
    /// If shutdown already began.
    pub fn begin_drain(&mut self) {
        self.lifecycle.begin_drain();
        let now = self.plane.now();
        self.events
            .record(now, "operator", "Draining", "admissions stopped");
    }

    /// Phase 2 of shutdown: tear down every live executor — kill
    /// signal, pod deletion, lease return — and demote its job back to
    /// `Queued` (progress is lost; a later operator may resubmit).
    ///
    /// # Panics
    /// If called before [`CharmOperator::begin_drain`].
    pub fn begin_cleanup(&mut self) {
        self.lifecycle.begin_cleanup();
        let now = self.plane.now();
        let (kernel, _, mut fx) = self.split();
        let live: Vec<JobId> = fx.pool.running.keys().copied().collect();
        for id in live {
            let name = fx.release(id, false);
            fx.mirror(&name, |s| {
                s.phase = JobPhase::Queued;
                s.replicas = 0;
                s.desired_replicas = 0;
            });
            kernel.withdraw(id, now);
            fx.events
                .record(now, &*name, "Stopped", "executor pool cleanup");
        }
        self.plane.reap_finished();
    }

    /// Phase 3 of shutdown: verify the pool is structurally drained —
    /// every executor lease returned — and terminate.
    ///
    /// # Panics
    /// If called before [`CharmOperator::begin_cleanup`], or if any
    /// executor leaked its slot lease past cleanup.
    pub fn terminate(&mut self) {
        self.pool.leases.assert_drained();
        self.lifecycle.terminate();
        let now = self.plane.now();
        self.events.record(now, "operator", "Terminated", "");
    }

    /// Runs the full phased shutdown: drain → cleanup → terminate.
    pub fn shutdown(&mut self) {
        self.begin_drain();
        self.begin_cleanup();
        self.terminate();
    }
}

/// Every notice added to a watched store since the last drain, by
/// instant, then in the order they were posted (the watch stream's; a
/// notice's name is a label, not a sort key — `fault-10000` does not
/// precede `fault-9999`).
fn drain_added<T>(rx: &Receiver<WatchEvent<T>>, at: impl Fn(&T) -> SimTime) -> Vec<Arc<Stored<T>>> {
    let added = |ev| match ev {
        WatchEvent::Added(s) => Some(s),
        _ => None,
    };
    let drained = std::iter::from_fn(|| rx.try_recv().ok());
    let mut notices: Vec<_> = drained.filter_map(added).collect();
    notices.sort_by_key(|n| at(&n.obj));
    notices
}

impl Choreography<'_> {
    /// Writes the CRD status mirror of `name`.
    fn mirror(&self, name: &str, write: impl FnOnce(&mut CharmJobStatus)) {
        self.jobs
            .update(name, |j| write(&mut j.status))
            .expect("job exists");
    }

    /// Names of `job`'s live worker pods, in creation (= serial) order.
    fn worker_pods(&self, job: &str) -> Vec<Arc<str>> {
        self.plane.pod_names_of_job(job, Some(PodRole::Worker))
    }

    /// Creates `count` fresh worker pods for `job`. Serials come from
    /// the per-job counter — pod names are `{job}-w{serial:04}`,
    /// monotonically increasing across expands, without listing or
    /// re-parsing existing pods.
    fn create_workers(&mut self, job: JobId, name: &Arc<str>, count: u32, now: SimTime) {
        let serials = &mut self.pool.next_serial;
        if job.index() >= serials.len() {
            serials.resize(job.index() + 1, 0);
        }
        let start = serials[job.index()];
        serials[job.index()] = start + count;
        for serial in start..start + count {
            let pod_name = self.pool.pod_name(format_args!("{name}-w{serial:04}"));
            self.plane
                .pods
                .create(Pod::worker(pod_name, Arc::clone(name), now))
                .expect("fresh worker pod");
        }
    }

    fn update_nodelist(&self, job: &str) {
        let hosts = self.worker_pods(job).join("\n");
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
        for pod in self.worker_pods(job).iter().skip(target as usize) {
            self.plane.delete_pod(pod);
        }
    }

    /// Releases everything held for `job` — executor (kill signal),
    /// slot lease, rescale flow, pods and nodelist — and returns its
    /// name. `hard` deletes the pods synchronously instead of
    /// gracefully.
    fn release(&mut self, job: JobId, hard: bool) -> Arc<str> {
        let name = Arc::clone(self.pool.registry.shared_name(job));
        if let Some(mut launched) = self.pool.running.remove(&job) {
            launched.handle.stop();
        }
        for pod in self.plane.pod_names_of_job(&name, None) {
            if hard {
                let _ = self.plane.pods.delete(&pod);
            } else {
                self.plane.delete_pod(&pod);
            }
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
    fn launch(&mut self, job: JobId, replicas: u32, now: SimTime) -> bool {
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
        self.create_workers(job, &name, replicas, now);
        self.update_nodelist(&name);
        let message = format!("{replicas} replicas");
        self.events.record(now, &*name, "Created", message);
        false
    }

    fn resize(&mut self, job: JobId, from: u32, to: u32, now: SimTime) -> bool {
        let name = Arc::clone(self.pool.registry.shared_name(job));
        let mut current = 0;
        self.mirror(&name, |s| {
            current = s.replicas;
            s.desired_replicas = to;
            s.last_action = now;
        });
        if to > from {
            // Paper's expand sequence: pods first, nodelist, then signal.
            self.create_workers(job, &name, to.saturating_sub(current), now);
            let kind = if let Some(launched) = self.pool.running.get_mut(&job) {
                launched.flow = Some(RescaleFlow::ExpandPodsPending { target: to });
                "ExpandStarted"
            } else {
                "ExpandPreLaunch"
            };
            self.events.record(now, &*name, kind, format!("-> {to}"));
            true
        } else if let Some(launched) = self.pool.running.get_mut(&job) {
            // Paper's shrink sequence: signal first, remove pods on ack.
            launched.handle.request_rescale(to);
            launched.flow = Some(RescaleFlow::ShrinkSignalled { target: to });
            self.events
                .record(now, &*name, "ShrinkSignalled", format!("-> {to}"));
            false
        } else {
            // Job hasn't launched yet: adjust pods directly.
            self.remove_excess_workers(&name, to);
            self.mirror(&name, |s| s.replicas = to);
            let message = format!("-> {to} (pre-launch)");
            self.events.record(now, &*name, "Shrunk", message);
            true
        }
    }

    fn stop(&mut self, job: JobId, why: Stop, now: SimTime) {
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
        self.events.record(now, &*name, kind, message);
    }

    fn enqueued(&mut self, job: JobId, now: SimTime) {
        let name = self.pool.registry.name(job);
        self.events
            .record(now, name, "Enqueued", "no resources available");
    }

    fn next_completion(&mut self) -> Option<JobId> {
        self.next_finished()
    }
}
