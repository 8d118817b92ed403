//! The CharmJob operator.
//!
//! A *watch-driven* reconciler, mirroring the paper's modified MPI
//! operator (§3.1–3.2) the way a real Kubernetes controller is built:
//! the operator subscribes to the CharmJob store and the pod store with
//! the atomic [`Store::list_watch`] and reacts to events —
//!
//! * **CharmJob added** — run the Fig. 2 admission decision.
//! * **CharmJob modified with `cancel_requested`** — tear the job down
//!   (kill signal, pod deletion, slot reclaim) and let the policy
//!   redistribute the freed slots.
//! * **Pod phase changed** — progress the owning job's launch or an
//!   in-flight expand.
//!
//! plus a *timer pass* for the things only polling can observe (rescale
//! acknowledgements and completions surface on executor handles, not in
//! any store) and for policies that request periodic
//! [`SchedulingPolicy::on_timer`] deadlines.
//!
//! ## A reconcile round costs O(changes), not O(history)
//!
//! The CharmJob store keeps every job ever submitted, so a round that
//! scanned it would get slower for as long as the operator stays up.
//! The rule: one [`tick`](CharmOperator::tick) costs
//! O(events drained + running jobs + live pods) and never scans or
//! deep-clones the job store.
//!
//! * Names are interned into dense [`JobId`]s by the operator's
//!   [`JobRegistry`] at admission, and everything the scheduler touches
//!   per event — the persistent [`ClusterView`], the policy's
//!   [`Action`]s, utilization samples, rescale flows, executor handles
//!   — is keyed by id. The view is never rebuilt: admissions insert
//!   into it, completions/cancellations remove from it, and every
//!   action is folded in by `view::apply_action` in O(log n).
//! * Admissions are *batched*: one watch-drain collects every pending
//!   submission, sorts once by submission time, and runs the decisions
//!   back-to-back against the shared maintained view.
//! * What the operator needs from a CRD it reads through the borrowed
//!   [`Store::read`] (a field or two under the store lock, no clone).
//!   Which jobs are `Running` is the key set of the executor-handle
//!   map; which hold capacity (`Starting | Running`) is the view's
//!   running set; whether everything is terminal
//!   ([`all_complete`](CharmOperator::all_complete)) is two counts —
//!   jobs taken on, and those of them still live — kept where the
//!   operator makes those transitions. A job's pods
//!   come from the pod store's by-owner index.
//! * The pod store *is* scanned each round (scheduler, kubelet,
//!   garbage collection), but borrowed, and it holds only live pods:
//!   bounded by cluster capacity and reaped every round.
//!
//! [`Store::full_scans`] makes the rule a count tests hold: it does
//! not move on the job store across `tick`/`all_complete`, except for
//! the one scan per round by which debug builds cross-check the handle
//! keys and the counters against the store. The snapshot reads
//! (`list`, `get`) remain for the cold surface:
//! [`metrics`](CharmOperator::metrics),
//! [`queued_jobs`](CharmOperator::queued_jobs),
//! [`rebuild_view`](CharmOperator::rebuild_view) (the from-scratch
//! construction tests compare the maintained view against) and
//! [`tick_polled`](CharmOperator::tick_polled). Names resurface only at
//! the edges: pod/store objects, event logs and final reports.
//!
//! Pod choreography follows the paper: **Create** is launcher pod +
//! N worker pods + a nodelist ConfigMap; **Shrink** signals the
//! application first and removes pods only after the acknowledgement;
//! **Expand** creates pods first, updates the nodelist, then signals
//! (§3.1's sequences). Scheduling state lives on the CharmJob CRDs; pods
//! converge to it asynchronously. Worker pod serials come from a
//! per-job counter (never from re-parsing existing pod names), so
//! creating workers is O(count).
//!
//! [`tick`](CharmOperator::tick) is a thin compatibility wrapper that
//! drains the event queues once; [`tick_polled`](CharmOperator::tick_polled)
//! preserves the legacy rebuild-the-world scan so the
//! `watch_equivalence` test can prove the two drives produce identical
//! [`RunMetrics`].
//!
//! [`Store::list_watch`]: kube_sim::Store::list_watch
//! [`Store::read`]: kube_sim::Store::read
//! [`Store::full_scans`]: kube_sim::Store::full_scans
//! [`JobRegistry`]: crate::registry::JobRegistry

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use crossbeam::channel::Receiver;
use hpc_metrics::{Duration, JobId, SimTime, UtilizationRecorder};
use hpc_workload::{FaultEvent, FaultKind, FaultSpec};
use kube_sim::{ControlPlane, EventLog, Pod, PodRole, Store, WatchEvent};

use elastic_resilience::{
    FlakyOutcome, LeasePool, Lifecycle, ResilienceState, ShutdownPhase, SlotLease,
};
use hpc_workload::FlakyOp;

use crate::client::{SchedulerClient, SubmitRequest};
use crate::crd::{AppSpec, CharmJob, CharmJobSpec, FaultNotice, FlakyNotice, JobPhase};
use crate::error::SchedulerError;
use crate::executor::{ExecHandle, ExecStatus, Executor};
use crate::policy::{SchedulingPolicy, SubmitBurst};
use crate::registry::JobRegistry;
use crate::report::{FaultStats, JobOutcome, RunMetrics};
use crate::view::{self, Action, ClusterView, JobFields, JobState};

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
    /// Shared so the submit-burst driver can hold `&mut self` while the
    /// policy (behind its own refcount) decides the burst.
    policy: Arc<dyn SchedulingPolicy>,
    executor: Box<dyn Executor>,
    /// Live executor handles. Its keys are exactly the `Running` jobs
    /// (inserted at launch, removed wherever a job stops running), in
    /// admission order — the timer pass polls these, not the job store.
    handles: BTreeMap<JobId, Box<dyn ExecHandle>>,
    flows: BTreeMap<JobId, RescaleFlow>,
    util: UtilizationRecorder,
    /// Name ↔ id interning (admission order).
    registry: JobRegistry,
    /// The persistent, incrementally-maintained scheduler view.
    view: ClusterView,
    /// Next worker-pod serial per job (indexed by `JobId`).
    next_serial: Vec<u32>,
    rescale_count: u32,
    cancel_count: u32,
    /// Watch stream over the CharmJob store (admissions, cancellations).
    jobs_rx: Receiver<WatchEvent<CharmJob>>,
    /// Watch stream over the pod store (launch/expand progress).
    pods_rx: Receiver<WatchEvent<Pod>>,
    /// Watch stream over the fault-notice store.
    faults_rx: Receiver<WatchEvent<FaultNotice>>,
    /// Watch stream over the flaky-notice store.
    flakies_rx: Receiver<WatchEvent<FlakyNotice>>,
    /// Jobs this operator has taken on: staged for admission (both
    /// drive modes consult it so a submission is planned exactly once)
    /// or cancelled while it was draining.
    planned: HashSet<JobId>,
    /// How many `planned` jobs have not reached a terminal phase.
    /// Bumped where the operator makes those transitions itself, so
    /// [`CharmOperator::all_complete`] needs no store scan.
    live_jobs: usize,
    /// Next policy-timer deadline, if the policy requested one.
    next_timer: Option<SimTime>,
    /// Recovery parameters (checkpoint interval, retry budget, backoff).
    fault_spec: FaultSpec,
    /// Kill-and-requeued jobs waiting out their backoff, ordered by the
    /// instant they re-enter the queue.
    pending_requeues: BTreeSet<(SimTime, JobId)>,
    /// Checkpointed iterations evicted jobs restart from.
    retained_iters: HashMap<JobId, f64>,
    /// Per-job (core-seconds already banked this attempt, time of the
    /// last allocation change) — flushed into wasted work on requeue.
    /// Updated only at allocation boundaries, mirroring the DES, so
    /// wasted core-seconds cross-validate bit-identically.
    attempt_ledger: HashMap<JobId, (f64, SimTime)>,
    /// Fault-recovery tallies for [`RunMetrics`].
    fault_stats: FaultStats,
    /// The shared breaker/budget/health decision core for the installed
    /// `FlakySpec` (idle while the spec is empty).
    resilience: ResilienceState,
    /// Shutdown phase of the executor pool (Running until
    /// [`CharmOperator::begin_drain`]).
    lifecycle: Lifecycle,
    /// RAII slot accounting for live executors: every launched executor
    /// holds one leased slot until its handle is torn down, so an
    /// evicted executor structurally cannot leak its slot.
    exec_pool: LeasePool,
    /// The per-executor leases (dropped wherever the handle is removed).
    exec_leases: HashMap<JobId, SlotLease>,
}

impl CharmOperator {
    /// An operator over `plane` scheduling with `policy` and running
    /// jobs through `executor`.
    pub fn new(
        plane: ControlPlane,
        policy: Box<dyn SchedulingPolicy>,
        executor: Box<dyn Executor>,
    ) -> Self {
        let capacity = plane.capacity().max(1);
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
            view: ClusterView::new(plane.capacity()),
            plane,
            jobs,
            faults,
            flakies,
            events: EventLog::new(),
            policy: Arc::from(policy),
            executor,
            handles: BTreeMap::new(),
            flows: BTreeMap::new(),
            util: UtilizationRecorder::new(capacity),
            registry: JobRegistry::new(),
            next_serial: Vec::new(),
            rescale_count: 0,
            cancel_count: 0,
            jobs_rx,
            pods_rx,
            faults_rx,
            flakies_rx,
            planned: HashSet::new(),
            live_jobs: 0,
            next_timer,
            fault_spec: FaultSpec::default(),
            pending_requeues: BTreeSet::new(),
            retained_iters: HashMap::new(),
            attempt_ledger: HashMap::new(),
            fault_stats: FaultStats::default(),
            resilience: ResilienceState::new(&FaultSpec::default().flaky),
            lifecycle: Lifecycle::new(),
            exec_pool: LeasePool::new(),
            exec_leases: HashMap::new(),
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
        self.resilience = ResilienceState::new(&spec.flaky);
        self.fault_spec = spec;
    }

    /// Fault-recovery tallies accumulated so far (including the
    /// resilience layer's transient-fault counters).
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.fault_stats;
        stats.transient_faults = self.resilience.transient_faults();
        stats.retries = self.resilience.retries();
        stats.breaker_trips = self.resilience.breaker_trips();
        stats
    }

    /// The active policy.
    pub fn policy(&self) -> &dyn SchedulingPolicy {
        self.policy.as_ref()
    }

    /// Rescale actions issued so far.
    pub fn rescales(&self) -> u32 {
        self.rescale_count
    }

    /// Jobs cancelled so far.
    pub fn cancellations(&self) -> u32 {
        self.cancel_count
    }

    /// The utilization recorder (worker slots per job over time, keyed
    /// by [`JobId`]; resolve names via [`CharmOperator::registry`]).
    pub fn utilization(&self) -> &UtilizationRecorder {
        &self.util
    }

    /// The name ↔ id interning table for this run.
    pub fn registry(&self) -> &JobRegistry {
        &self.registry
    }

    /// The persistent scheduler view, maintained incrementally across
    /// reconciles (never rebuilt).
    pub fn view(&self) -> &ClusterView {
        &self.view
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
            let Some(id) = self.registry.id(&job.spec.name) else {
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
        view.fail_slots(self.view.failed_slots());
        view
    }

    fn apply_actions(&mut self, actions: &[Action], now: SimTime) {
        let launcher = self.policy.launcher_slots();
        for action in actions {
            match *action {
                Action::Create { job, replicas } => {
                    view::apply_action(&mut self.view, action, now, launcher);
                    self.start_job(job, replicas, now);
                }
                Action::Shrink { job, to_replicas } => {
                    view::apply_action(&mut self.view, action, now, launcher);
                    self.start_shrink(job, to_replicas, now);
                }
                Action::Expand { job, to_replicas } => {
                    view::apply_action(&mut self.view, action, now, launcher);
                    self.start_expand(job, to_replicas, now);
                }
                Action::Enqueue { job } => {
                    let name = self.registry.name(job).to_string();
                    self.events
                        .record(now, &name, "Enqueued", "no resources available");
                }
                // `cancel_job` owns the view removal (it also serves
                // client cancellations arriving outside any action).
                Action::Cancel { job } => {
                    let name = self.registry.name(job).to_string();
                    self.cancel_job(&name, now);
                }
                Action::Evict { job } => {
                    view::apply_action(&mut self.view, action, now, launcher);
                    self.evict_job(job, now);
                }
                Action::Requeue { job } => {
                    view::apply_action(&mut self.view, action, now, launcher);
                    self.requeue_job(job, now);
                }
            }
        }
    }

    /// Names of `job`'s live worker pods, in name (= serial) order.
    fn worker_pods(&self, job: &str) -> Vec<String> {
        self.plane.pod_names_of_job(job, Some(PodRole::Worker))
    }

    /// Requests graceful deletion of every live pod of `job`.
    fn delete_job_pods(&self, job: &str) {
        for pod in self.plane.pod_names_of_job(job, None) {
            self.plane.delete_pod(&pod);
        }
    }

    /// Creates `count` fresh worker pods for `job`. Serials come from
    /// the per-job counter — pod names are identical to the historical
    /// scheme (`{job}-w{serial:04}`, monotonically increasing across
    /// expands) without listing or re-parsing existing pods.
    fn create_workers(&mut self, job: JobId, count: u32, now: SimTime) {
        let name = self.registry.name(job).to_string();
        if job.index() >= self.next_serial.len() {
            self.next_serial.resize(job.index() + 1, 0);
        }
        let start = self.next_serial[job.index()];
        for serial in start..start + count {
            let pod_name = format!("{name}-w{serial:04}");
            self.plane
                .pods
                .create(Pod::worker(pod_name, &name, now))
                .expect("fresh worker pod");
        }
        self.next_serial[job.index()] = start + count;
    }

    fn update_nodelist(&mut self, job: &str) {
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

    fn start_job(&mut self, job: JobId, replicas: u32, now: SimTime) {
        let name = self.registry.name(job).to_string();
        self.jobs
            .update(&name, |j| {
                j.status.phase = JobPhase::Starting;
                j.status.desired_replicas = replicas;
                j.status.replicas = replicas;
                j.status.last_action = now;
            })
            .expect("job exists");
        self.plane
            .pods
            .create(Pod::launcher(format!("{name}-launcher"), &name, now))
            .expect("fresh launcher pod");
        self.create_workers(job, replicas, now);
        self.update_nodelist(&name);
        self.util.set(now, job, replicas);
        // A fresh attempt: nothing banked yet, allocated from `now`.
        self.attempt_ledger.insert(job, (0.0, now));
        self.events
            .record(now, &name, "Created", format!("{replicas} replicas"));
    }

    /// Banks the current allocation period into the job's attempt
    /// ledger at an allocation change (`prev` replicas held since the
    /// last boundary). Same instants as the DES's accounting, so wasted
    /// core-seconds stay bit-identical across engines.
    fn bank_allocation(&mut self, job: JobId, prev: u32, now: SimTime) {
        if let Some((acc, since)) = self.attempt_ledger.get_mut(&job) {
            *acc += f64::from(prev) * (now - *since).as_secs();
            *since = now;
        }
    }

    fn start_shrink(&mut self, job: JobId, target: u32, now: SimTime) {
        let name = self.registry.name(job).to_string();
        self.rescale_count += 1;
        let prev = self
            .jobs
            .read(&name, |j| j.obj.status.desired_replicas)
            .unwrap_or(0);
        self.bank_allocation(job, prev, now);
        self.jobs
            .update(&name, |j| {
                j.status.desired_replicas = target;
                j.status.last_action = now;
            })
            .expect("job exists");
        if let Some(handle) = self.handles.get_mut(&job) {
            // Paper's shrink sequence: signal first, remove pods on ack.
            handle.request_rescale(target);
            self.flows
                .insert(job, RescaleFlow::ShrinkSignalled { target });
            self.events
                .record(now, &name, "ShrinkSignalled", format!("-> {target}"));
        } else {
            // Job hasn't launched yet: adjust pods directly.
            self.remove_excess_workers(&name, target);
            self.jobs
                .update(&name, |j| j.status.replicas = target)
                .expect("job exists");
            self.util.set(now, job, target);
            self.events
                .record(now, &name, "Shrunk", format!("-> {target} (pre-launch)"));
        }
    }

    fn start_expand(&mut self, job: JobId, target: u32, now: SimTime) {
        let name = self.registry.name(job).to_string();
        self.rescale_count += 1;
        let (current, prev) = self
            .jobs
            .read(&name, |j| {
                (j.obj.status.replicas, j.obj.status.desired_replicas)
            })
            .unwrap_or((0, 0));
        self.bank_allocation(job, prev, now);
        self.jobs
            .update(&name, |j| {
                j.status.desired_replicas = target;
                j.status.last_action = now;
            })
            .expect("job exists");
        // Paper's expand sequence: pods first, nodelist, then signal.
        self.create_workers(job, target.saturating_sub(current), now);
        self.util.set(now, job, target);
        if self.handles.contains_key(&job) {
            self.flows
                .insert(job, RescaleFlow::ExpandPodsPending { target });
            self.events
                .record(now, &name, "ExpandStarted", format!("-> {target}"));
        } else {
            self.events
                .record(now, &name, "ExpandPreLaunch", format!("-> {target}"));
        }
    }

    fn remove_excess_workers(&mut self, job: &str, target: u32) {
        for pod in self.worker_pods(job).iter().skip(target as usize) {
            self.plane.delete_pod(pod);
        }
    }

    // -----------------------------------------------------------------
    // Watch-driven reconciliation
    // -----------------------------------------------------------------

    /// Stages the admission of `name` exactly once: interns the id and
    /// inserts the queued job into the maintained view. Returns the id
    /// iff the policy should now decide it (`None` for duplicates,
    /// vanished/non-queued jobs, pre-cancelled jobs, or while the
    /// operator is draining).
    fn stage_admission(&mut self, name: &str) -> Option<JobId> {
        // A draining (or further shut down) operator admits nothing:
        // the job stays queued for a future operator generation.
        if !self.lifecycle.is_accepting() {
            return None;
        }
        let id = self.registry.intern(name);
        if !self.planned.insert(id) {
            return None;
        }
        let (phase, cancel_requested, queued) = self.jobs.read(name, |s| {
            let (spec, status) = (&s.obj.spec, &s.obj.status);
            let queued = JobState {
                id,
                min_replicas: spec.min_replicas,
                max_replicas: spec.max_replicas,
                priority: spec.priority,
                submitted_at: status.submitted_at,
                replicas: 0,
                last_action: status.last_action,
                running: false,
                walltime_estimate: spec.walltime_estimate,
            };
            (status.phase, status.cancel_requested, queued)
        })?;
        self.live_jobs += usize::from(!phase.is_terminal());
        if phase != JobPhase::Queued {
            return None;
        }
        let now = self.plane.now();
        self.view.insert(queued, self.policy.launcher_slots());
        self.events.record(now, name, "Submitted", "");
        if cancel_requested {
            // Cancelled before the reconciler ever saw it.
            self.cancel_job(name, now);
            return None;
        }
        Some(id)
    }

    /// Runs the admission decision for `name` exactly once — the
    /// per-event path (`tick_polled` and the requeue re-entry use it;
    /// the watch drive decides whole bursts through
    /// [`SchedulingPolicy::on_submit_burst`]).
    fn plan_admission(&mut self, name: &str) {
        let Some(id) = self.stage_admission(name) else {
            return;
        };
        let now = self.plane.now();
        let actions = self.policy.on_submit(&self.view, id, now);
        self.apply_actions(&actions, now);
    }

    /// Tears `name` down: kill signal to the executor, pod and nodelist
    /// deletion, slot reclaim — then lets the policy redistribute the
    /// freed slots (cancellation frees capacity exactly like a
    /// completion, so Fig. 3 applies).
    fn cancel_job(&mut self, name: &str, now: SimTime) {
        let Some(phase) = self.jobs.read(name, |s| s.obj.status.phase) else {
            return;
        };
        if phase.is_terminal() {
            return;
        }
        let id = self.registry.intern(name);
        // A staged job stops being live. One never staged (cancelled
        // while the operator drains) becomes this operator's here,
        // already terminal.
        if !self.planned.insert(id) {
            self.live_jobs -= 1;
        }
        self.cancel_count += 1;
        if let Some(mut handle) = self.handles.remove(&id) {
            handle.stop(); // executor kill path
        }
        self.exec_leases.remove(&id);
        self.flows.remove(&id);
        self.retained_iters.remove(&id);
        self.attempt_ledger.remove(&id);
        // Tolerant of jobs not in the view (e.g. cancelled while waiting
        // out a requeue backoff): `remove` returns an Option.
        self.view.remove(id, self.policy.launcher_slots());
        self.delete_job_pods(name);
        let _ = self.plane.configmaps.delete(&format!("{name}-nodelist"));
        self.jobs
            .update(name, |j| {
                j.status.phase = JobPhase::Cancelled;
                j.status.replicas = 0;
                j.status.desired_replicas = 0;
                j.status.completed_at = Some(now);
            })
            .expect("job exists");
        self.util.set(now, id, 0);
        self.events.record(now, name, "Cancelled", "");
        if phase != JobPhase::Queued {
            // The job held slots: run the completion redistribution so
            // the policy reassigns them in the same reconcile.
            let actions = self.policy.on_complete(&self.view, now);
            self.apply_actions(&actions, now);
        }
    }

    /// Checkpoint/restart preemption ([`Action::Evict`]): stop the
    /// application, tear its pods down, and demote the job back to
    /// `Queued` keeping the progress of its last periodic checkpoint.
    /// Work since that checkpoint is wasted; the retained iterations are
    /// replayed into the executor when the job relaunches. The caller
    /// (`apply_actions`) has already applied the view-side demotion.
    fn evict_job(&mut self, job: JobId, now: SimTime) {
        let name = self.registry.name(job).to_string();
        let (replicas, started) = self
            .jobs
            .read(&name, |s| {
                (s.obj.status.desired_replicas, s.obj.status.started_at)
            })
            .expect("evicting job exists");
        self.fault_stats.evictions += 1;
        let interval = self.fault_spec.checkpoint_interval;
        let retained = match (self.handles.get_mut(&job), started) {
            (Some(handle), Some(started_at)) => {
                handle.checkpointed_iters(started_at, now, interval)
            }
            _ => None,
        };
        if let Some(started_at) = started {
            // The tail since the last checkpoint boundary is lost.
            let t = interval.as_secs();
            let elapsed = (now - started_at).as_secs().max(0.0);
            let since_ckpt = elapsed - (elapsed / t).floor() * t;
            self.fault_stats.wasted_core_seconds += f64::from(replicas) * since_ckpt;
        }
        // Cumulative across attempts: the relaunch handle only models
        // the *remaining* iterations, so its checkpoint count is
        // relative to the previous attempt's floor. A second eviction
        // must add onto that floor, not replace it — forgetting it
        // would relaunch the job from scratch.
        let prior = self.retained_iters.get(&job).copied().unwrap_or(0.0);
        let banked = prior + retained.unwrap_or(0.0);
        if banked > 0.0 {
            self.retained_iters.insert(job, banked);
        } else {
            self.retained_iters.remove(&job);
        }
        if let Some(mut handle) = self.handles.remove(&job) {
            handle.stop();
        }
        self.exec_leases.remove(&job);
        self.flows.remove(&job);
        // Hard-delete rather than graceful: an evicted job may be
        // relaunched in the same reconcile instant (a transient-fault
        // eviction frees its own slots with capacity unchanged), so the
        // fixed-name launcher pod must leave the store synchronously.
        for pod in self.plane.pod_names_of_job(&name, None) {
            let _ = self.plane.pods.delete(&pod);
        }
        let _ = self.plane.configmaps.delete(&format!("{name}-nodelist"));
        self.jobs
            .update(&name, |j| {
                j.status.phase = JobPhase::Queued;
                j.status.replicas = 0;
                j.status.desired_replicas = 0;
                j.status.last_action = now;
            })
            .expect("job exists");
        self.util.set(now, job, 0);
        self.events
            .record(now, &name, "Evicted", "preempted; restart from checkpoint");
    }

    /// Kill-and-requeue preemption ([`Action::Requeue`]): the whole
    /// attempt is wasted. The job resubmits from scratch after an
    /// exponential backoff, or fails permanently once the retry budget
    /// is spent. The caller has already removed the job from the view.
    fn requeue_job(&mut self, job: JobId, now: SimTime) {
        let name = self.registry.name(job).to_string();
        let (replicas, attempts) = self
            .jobs
            .read(&name, |s| {
                (s.obj.status.desired_replicas, s.obj.status.attempts + 1)
            })
            .expect("requeueing job exists");
        let (acc, since) = self.attempt_ledger.remove(&job).unwrap_or((0.0, now));
        self.fault_stats.wasted_core_seconds += acc + f64::from(replicas) * (now - since).as_secs();
        self.fault_stats.requeues += 1;
        self.retained_iters.remove(&job);
        if let Some(mut handle) = self.handles.remove(&job) {
            handle.stop();
        }
        self.exec_leases.remove(&job);
        self.flows.remove(&job);
        self.delete_job_pods(&name);
        let _ = self.plane.configmaps.delete(&format!("{name}-nodelist"));
        self.util.set(now, job, 0);
        if attempts >= self.fault_spec.max_attempts {
            self.fault_stats.permanent_failures += 1;
            self.live_jobs -= 1;
            self.jobs
                .update(&name, |j| {
                    j.status.phase = JobPhase::Failed;
                    j.status.replicas = 0;
                    j.status.desired_replicas = 0;
                    j.status.attempts = attempts;
                    j.status.completed_at = Some(now);
                })
                .expect("job exists");
            self.events.record(
                now,
                &name,
                "Failed",
                format!("retry budget exhausted after {attempts} attempts"),
            );
        } else {
            let due = now + self.fault_spec.backoff_for(attempts);
            self.jobs
                .update(&name, |j| {
                    j.status.phase = JobPhase::Queued;
                    j.status.replicas = 0;
                    j.status.desired_replicas = 0;
                    j.status.attempts = attempts;
                    j.status.requeued_at = Some(due);
                    j.status.last_action = SimTime::NEG_INFINITY;
                })
                .expect("job exists");
            self.pending_requeues.insert((due, job));
            self.events.record(
                now,
                &name,
                "Requeued",
                format!("attempt {attempts}, back at t={}s", due.as_secs()),
            );
        }
    }

    /// Re-enters kill-and-requeued jobs whose backoff has expired: the
    /// job rejoins the scheduler view ordered by its re-entry time and
    /// the admission decision runs again.
    fn process_due_requeues(&mut self) {
        let now = self.plane.now();
        while let Some(&(due, job)) = self.pending_requeues.iter().next() {
            if due > now {
                break;
            }
            self.pending_requeues.remove(&(due, job));
            let name = self.registry.name(job).to_string();
            let resubmitted = self.jobs.read(&name, |s| {
                let spec = &s.obj.spec;
                // Cancelled (or otherwise finished) while waiting out
                // the backoff: nothing to resubmit.
                (s.obj.status.phase == JobPhase::Queued).then_some(JobState {
                    id: job,
                    min_replicas: spec.min_replicas,
                    max_replicas: spec.max_replicas,
                    priority: spec.priority,
                    submitted_at: due,
                    replicas: 0,
                    last_action: SimTime::NEG_INFINITY,
                    running: false,
                    walltime_estimate: spec.walltime_estimate,
                })
            });
            let Some(Some(queued)) = resubmitted else {
                continue;
            };
            self.view.insert(queued, self.policy.launcher_slots());
            self.events
                .record(now, &name, "Resubmitted", "requeue backoff expired");
            let actions = self.policy.on_submit(&self.view, job, now);
            self.apply_actions(&actions, now);
        }
    }

    /// Drains the fault-notice watch stream: capacity losses mark slots
    /// failed in the view and hand the deficit to the policy's
    /// `on_fault` surface; capacity returns restore the slots and run
    /// the completion redistribution over the regained room.
    fn reconcile_fault_events(&mut self) {
        let mut notices: Vec<FaultNotice> = Vec::new();
        while let Ok(ev) = self.faults_rx.try_recv() {
            if let WatchEvent::Added(s) = ev {
                notices.push(s.obj);
            }
        }
        notices.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.name.cmp(&b.name)));
        let now = self.plane.now();
        for n in notices {
            match n.kind {
                FaultKind::NodeFail | FaultKind::Reclaim => {
                    self.view.fail_slots(n.slots);
                    self.events.record(
                        now,
                        &n.name,
                        "CapacityLost",
                        format!("{} took {} slots", n.kind, n.slots),
                    );
                    let fault = FaultEvent {
                        at: Duration::from_secs(n.at.as_secs()),
                        slots: n.slots,
                        kind: n.kind,
                    };
                    let actions = self.policy.on_fault(&self.view, &fault, now);
                    self.apply_actions(&actions, now);
                    assert_eq!(
                        self.view.deficit(),
                        0,
                        "policy on_fault left an uncovered slot deficit"
                    );
                    // The fault reshaped the cluster; let the policy
                    // redistribute whatever room is left (same surface a
                    // completion uses).
                    let actions = self.policy.on_complete(&self.view, now);
                    self.apply_actions(&actions, now);
                }
                FaultKind::Return => {
                    self.view.restore_slots(n.slots);
                    self.events.record(
                        now,
                        &n.name,
                        "CapacityReturned",
                        format!("{} slots back", n.slots),
                    );
                    let actions = self.policy.on_complete(&self.view, now);
                    self.apply_actions(&actions, now);
                }
            }
        }
    }

    /// Deterministic victim selection for a transient fault: the
    /// *oldest* executor (lowest admitted [`JobId`] holding capacity)
    /// for launch failures, stuck rescales and heartbeat misses; the
    /// *youngest* for crash-on-start. `Starting` counts — the DES
    /// launches instantaneously, so a job admitted at the fault instant
    /// is already a candidate there.
    fn flaky_victim(&self, op: FlakyOp) -> Option<JobId> {
        // `Starting | Running` on the CRD is exactly `running` in the
        // maintained view: both flip together in `apply_actions`.
        let holding = self.view.running_scan().map(|j| j.id());
        match op {
            FlakyOp::CrashOnStart => holding.max(),
            FlakyOp::LaunchFail | FlakyOp::StuckRescale | FlakyOp::HeartbeatMiss => holding.min(),
        }
    }

    /// Drains the flaky-notice watch stream: each transient fault picks
    /// its deterministic victim, asks the shared [`ResilienceState`]
    /// for the outcome, and routes it through the existing
    /// requeue/evict machinery — the exact translation the DES applies,
    /// which is what keeps flaky replays bit-identical across engines.
    fn reconcile_flaky_events(&mut self) {
        let mut notices: Vec<FlakyNotice> = Vec::new();
        while let Ok(ev) = self.flakies_rx.try_recv() {
            if let WatchEvent::Added(s) = ev {
                notices.push(s.obj);
            }
        }
        notices.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.name.cmp(&b.name)));
        let now = self.plane.now();
        for n in notices {
            let victim = self.flaky_victim(n.op);
            let outcome = self.resilience.on_flaky(n.op, victim, now);
            self.events.record(
                now,
                &n.name,
                "TransientFault",
                format!("{} -> {outcome:?}", n.op),
            );
            match outcome {
                FlakyOutcome::Observed | FlakyOutcome::Absorbed => {}
                FlakyOutcome::Retry => {
                    let job = victim.expect("retry outcome implies a victim");
                    self.apply_actions(&[Action::Requeue { job }], now);
                    let actions = self.policy.on_complete(&self.view, now);
                    self.apply_actions(&actions, now);
                }
                FlakyOutcome::Deny => {
                    // Retry budget dry: force the attempt counter to
                    // the retry ceiling so the existing requeue path
                    // fails the job permanently — identically to the
                    // DES.
                    let job = victim.expect("deny outcome implies a victim");
                    let name = self.registry.name(job).to_string();
                    let ceiling = self.fault_spec.max_attempts.saturating_sub(1);
                    self.jobs
                        .update(&name, |j| {
                            j.status.attempts = j.status.attempts.max(ceiling);
                        })
                        .expect("denied job exists");
                    self.apply_actions(&[Action::Requeue { job }], now);
                    let actions = self.policy.on_complete(&self.view, now);
                    self.apply_actions(&actions, now);
                }
                FlakyOutcome::Evict => {
                    let job = victim.expect("evict outcome implies a victim");
                    self.apply_actions(&[Action::Evict { job }], now);
                    let actions = self.policy.on_complete(&self.view, now);
                    self.apply_actions(&actions, now);
                }
            }
        }
    }

    /// Drains the CharmJob watch stream: plans new submissions (in
    /// submission order) and executes cancellation requests. This is
    /// the *batched admission* path: a burst of submissions is
    /// collected in one drain, sorted once, and handed to the policy as
    /// a single [`SchedulingPolicy::on_submit_burst`] invocation — one
    /// policy dispatch per drain, not per job. The default burst impl
    /// replays the per-event `on_submit` sequence exactly, so replay
    /// bit-identity is preserved.
    fn reconcile_job_events(&mut self) {
        let mut admissions: Vec<(SimTime, String)> = Vec::new();
        let mut cancels: Vec<String> = Vec::new();
        while let Ok(ev) = self.jobs_rx.try_recv() {
            match ev {
                WatchEvent::Added(s) => {
                    if s.obj.status.phase == JobPhase::Queued {
                        admissions.push((s.obj.status.submitted_at, s.obj.spec.name));
                    }
                }
                WatchEvent::Modified(s) => {
                    if s.obj.status.cancel_requested && !s.obj.status.phase.is_terminal() {
                        cancels.push(s.obj.spec.name);
                    }
                }
                WatchEvent::Deleted(_) => {}
            }
        }
        if !admissions.is_empty() {
            admissions.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let pending = admissions.into_iter().map(|(_, name)| name).collect();
            let policy = Arc::clone(&self.policy);
            let mut burst = OpSubmitBurst {
                now: self.plane.now(),
                op: self,
                pending,
                cursor: 0,
            };
            policy.on_submit_burst(&mut burst);
        }
        let now = self.plane.now();
        for name in cancels {
            self.cancel_job(&name, now);
        }
    }

    /// Drains the pod watch stream and progresses the *owning jobs*
    /// only: launch checks for `Starting` jobs whose pods moved.
    fn reconcile_pod_events(&mut self) {
        // Owners sorted and deduplicated in one structure.
        let mut touched: BTreeSet<String> = BTreeSet::new();
        while let Ok(ev) = self.pods_rx.try_recv() {
            let pod = match ev {
                WatchEvent::Added(s) | WatchEvent::Modified(s) | WatchEvent::Deleted(s) => s.obj,
            };
            touched.insert(pod.owner);
        }
        for name in touched {
            self.try_launch(&name);
        }
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
            let id = self.registry.id(name).expect("starting job was admitted");
            // The one spec clone of a launch: the executor keeps it.
            let mut spec = self
                .jobs
                .read(name, |s| s.obj.spec.clone())
                .expect("starting job exists");
            // A job relaunching after an eviction resumes from its last
            // checkpoint: the executor runs only the remaining modeled
            // iterations (real apps restart from their own state files).
            // The ledger entry stays — a later eviction of this attempt
            // accumulates its own retained progress on top of it.
            if let Some(done) = self.retained_iters.get(&id).copied() {
                if let (true, AppSpec::Modeled { total_iters }) = (done > 0.0, &spec.app) {
                    let remaining = total_iters.saturating_sub(done.floor() as u64).max(1);
                    spec.app = AppSpec::Modeled {
                        total_iters: remaining,
                    };
                }
            }
            let handle = self.executor.launch(&spec, desired);
            self.handles.insert(id, handle);
            self.exec_leases.insert(id, self.exec_pool.lease(1));
            self.jobs
                .update(name, |j| {
                    j.status.phase = JobPhase::Running;
                    j.status.replicas = j.status.desired_replicas;
                    // Deliberately overwritten on every (re)launch: the
                    // DES does the same, and metrics must agree.
                    j.status.started_at = Some(now);
                })
                .expect("job exists");
            self.events.record(now, name, "Started", "");
        }
    }

    /// The poll-only work no store event can deliver: rescale
    /// acknowledgements, expand-pods-ready transitions, completions, and
    /// the policy's periodic timer. Identical for both drive modes.
    fn timer_pass(&mut self) {
        let now = self.plane.now();

        // Progress rescale flows (BTreeMap: deterministic id order).
        let flow_jobs: Vec<JobId> = self.flows.keys().copied().collect();
        for id in flow_jobs {
            let flow = self.flows[&id];
            let name = self.registry.name(id).to_string();
            match flow {
                RescaleFlow::ShrinkSignalled { target } => {
                    let acked = self.handles.get_mut(&id).and_then(|h| h.rescale_acked());
                    if let Some(report) = acked {
                        self.remove_excess_workers(&name, target);
                        self.update_nodelist(&name);
                        self.jobs
                            .update(&name, |j| j.status.replicas = target)
                            .expect("job exists");
                        self.util.set(now, id, target);
                        self.flows.remove(&id);
                        self.events.record(
                            now,
                            &name,
                            "Shrunk",
                            format!("-> {target} (overhead {})", report.total()),
                        );
                    }
                }
                RescaleFlow::ExpandPodsPending { target } => {
                    if self
                        .plane
                        .job_pods_running(&name, PodRole::Worker, target as usize)
                    {
                        self.update_nodelist(&name);
                        if let Some(handle) = self.handles.get_mut(&id) {
                            handle.request_rescale(target);
                        }
                        self.flows
                            .insert(id, RescaleFlow::ExpandSignalled { target });
                        self.events
                            .record(now, &name, "ExpandSignalled", format!("-> {target}"));
                    }
                }
                RescaleFlow::ExpandSignalled { target } => {
                    let acked = self.handles.get_mut(&id).and_then(|h| h.rescale_acked());
                    if let Some(report) = acked {
                        self.jobs
                            .update(&name, |j| j.status.replicas = target)
                            .expect("job exists");
                        self.flows.remove(&id);
                        self.events.record(
                            now,
                            &name,
                            "Expanded",
                            format!("-> {target} (overhead {})", report.total()),
                        );
                    }
                }
            }
        }

        // Detect completions (executor handles are poll-only): the
        // handle keys are the `Running` jobs, in id = admission order,
        // deterministic in both drive modes. Each handle is polled
        // after the completions before it were applied, because a
        // completion's redistribution may stop or rescale it.
        let running: Vec<JobId> = self.handles.keys().copied().collect();
        for id in running {
            let finished = self
                .handles
                .get_mut(&id)
                .is_some_and(|h| h.status() == ExecStatus::Finished);
            if finished {
                let name = self.registry.name(id).to_string();
                self.complete_job(&name, now);
            }
        }

        // Policy timer deadline.
        if let Some(due) = self.next_timer {
            if now >= due {
                let interval = self.policy.timer_interval().expect("timer configured");
                self.next_timer = Some(now + interval);
                let actions = self.policy.on_timer(&self.view, now);
                self.apply_actions(&actions, now);
            }
        }

        self.plane.reap_finished();

        #[cfg(debug_assertions)]
        self.cross_check_against_store_scan();
    }

    /// Debug builds re-derive, from one full scan of the job store, the
    /// two answers the tick path reads off the operator's own state:
    /// which jobs are `Running` (the handle keys) and whether every job
    /// is terminal ([`CharmOperator::all_complete`]'s counters).
    #[cfg(debug_assertions)]
    fn cross_check_against_store_scan(&self) {
        let jobs = self.jobs.list();
        let running: BTreeSet<JobId> = jobs
            .iter()
            .filter(|s| s.obj.status.phase == JobPhase::Running)
            .map(|s| {
                self.registry
                    .id(&s.obj.spec.name)
                    .expect("running job was admitted")
            })
            .collect();
        assert!(
            self.handles.keys().eq(running.iter()),
            "executor handles {:?} != Running jobs {running:?}",
            self.handles.keys().collect::<Vec<_>>()
        );
        let scanned = !jobs.is_empty() && jobs.iter().all(|s| s.obj.status.phase.is_terminal());
        assert_eq!(
            self.complete_with(jobs.len()),
            scanned,
            "all_complete counters (planned {}, live {}) disagree with a scan of {} jobs",
            self.planned.len(),
            self.live_jobs,
            jobs.len()
        );
    }

    /// One reconcile round, watch-driven: drain job events (admissions,
    /// cancellations), advance the control plane, drain pod events
    /// (launch progress), then run the timer pass. This is the thin
    /// compatibility wrapper the pre-watch `tick()` callers keep using.
    pub fn tick(&mut self) {
        self.reconcile_job_events();
        self.reconcile_fault_events();
        self.reconcile_flaky_events();
        self.process_due_requeues();
        self.plane.tick();
        self.reconcile_pod_events();
        self.timer_pass();
    }

    /// The legacy polled drive: ignores the watch streams entirely and
    /// rediscovers admissions and cancellations by scanning the stores
    /// every round. Retained so tests can assert the watch-driven path
    /// is observationally identical (`watch_equivalence`). Note the
    /// *view* is still the maintained one — the equivalence proof
    /// covers it in both drive modes.
    pub fn tick_polled(&mut self) {
        // Discard watch events — this drive mode rediscovers everything
        // by scanning, and an unbounded queue would otherwise grow.
        while self.jobs_rx.try_recv().is_ok() {}
        while self.pods_rx.try_recv().is_ok() {}

        // Full-store admission + cancellation scan.
        let mut jobs: Vec<(SimTime, String, JobPhase, bool)> = self
            .jobs
            .list()
            .into_iter()
            .map(|s| {
                (
                    s.obj.status.submitted_at,
                    s.obj.spec.name,
                    s.obj.status.phase,
                    s.obj.status.cancel_requested,
                )
            })
            .collect();
        jobs.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (_, name, phase, _) in &jobs {
            if *phase == JobPhase::Queued
                && !self
                    .registry
                    .id(name)
                    .is_some_and(|id| self.planned.contains(&id))
            {
                self.plan_admission(name);
            }
        }
        let now = self.plane.now();
        for (_, name, phase, cancel) in &jobs {
            if *cancel && !phase.is_terminal() {
                self.cancel_job(name, now);
            }
        }

        // Faults have no polled analogue (notices only arrive through
        // the store), so both drive modes share the watch-driven path.
        self.reconcile_fault_events();
        self.reconcile_flaky_events();
        self.process_due_requeues();

        self.plane.tick();

        // Full-store launch scan.
        let mut starting: Vec<String> = self
            .jobs
            .list()
            .into_iter()
            .filter(|s| s.obj.status.phase == JobPhase::Starting)
            .map(|s| s.obj.spec.name)
            .collect();
        starting.sort();
        for name in starting {
            self.try_launch(&name);
        }

        self.timer_pass();
    }

    fn complete_job(&mut self, name: &str, now: SimTime) {
        let id = self.registry.id(name).expect("completing job was admitted");
        self.jobs
            .update(name, |j| {
                j.status.phase = JobPhase::Completed;
                j.status.completed_at = Some(now);
            })
            .expect("job exists");
        self.live_jobs -= 1;
        self.delete_job_pods(name);
        let _ = self.plane.configmaps.delete(&format!("{name}-nodelist"));
        if let Some(mut handle) = self.handles.remove(&id) {
            handle.stop();
        }
        self.exec_leases.remove(&id);
        self.flows.remove(&id);
        self.retained_iters.remove(&id);
        self.attempt_ledger.remove(&id);
        self.view.remove(id, self.policy.launcher_slots());
        self.util.set(now, id, 0);
        self.events.record(now, name, "Completed", "");
        // A successful retirement feeds the resilience layer (breaker
        // reset, budget deposit, health forgiveness) at the same
        // boundary the DES's completion event uses.
        if !self.fault_spec.flaky.is_empty() {
            self.resilience.on_success(id, now);
        }

        // Fig. 3: redistribute the freed slots.
        let actions = self.policy.on_complete(&self.view, now);
        self.apply_actions(&actions, now);
    }

    /// `true` once every submitted job reached a terminal phase
    /// (completed, cancelled or failed). O(1): every job in the store
    /// has been taken on by this operator and none of those is live —
    /// so a submission not yet reconciled, or one a draining operator
    /// refuses to admit, still answers `false`.
    pub fn all_complete(&self) -> bool {
        self.complete_with(self.jobs.len())
    }

    /// [`CharmOperator::all_complete`] for a job store holding
    /// `stored` jobs.
    fn complete_with(&self, stored: usize) -> bool {
        stored > 0 && stored == self.planned.len() && self.live_jobs == 0
    }

    /// Jobs currently queued (submitted but never started).
    pub fn queued_jobs(&self) -> Vec<String> {
        self.jobs
            .list()
            .into_iter()
            .filter(|s| s.obj.status.phase == JobPhase::Queued)
            .map(|s| s.obj.spec.name)
            .collect()
    }

    /// Final run metrics over the jobs that completed normally
    /// (cancelled jobs hold no meaningful response/completion times);
    /// call after [`CharmOperator::all_complete`].
    pub fn metrics(&self) -> RunMetrics {
        let mut outcomes = Vec::new();
        let mut last_complete = SimTime::ZERO;
        for stored in self.jobs.list() {
            let j = &stored.obj;
            if j.status.phase != JobPhase::Completed {
                continue;
            }
            let (Some(started), Some(completed)) = (j.status.started_at, j.status.completed_at)
            else {
                continue;
            };
            last_complete = last_complete.max(completed);
            outcomes.push(JobOutcome {
                name: j.spec.name.clone(),
                priority: j.spec.priority,
                submitted_at: j.status.submitted_at,
                started_at: started,
                completed_at: completed,
            });
        }
        if outcomes.is_empty() {
            // Every job was cancelled or failed: nothing completed,
            // nothing to aggregate.
            return RunMetrics::empty(self.policy.name(), self.rescale_count)
                .with_fault_stats(self.fault_stats());
        }
        // The store lists in hash order; sort so metrics (and the float
        // accumulation inside them) are reproducible run to run.
        outcomes.sort_by(|a, b| {
            a.submitted_at
                .cmp(&b.submitted_at)
                .then_with(|| a.name.cmp(&b.name))
        });
        let first_submit = outcomes
            .iter()
            .map(|o| o.submitted_at)
            .min()
            .unwrap_or(SimTime::ZERO);
        let util = self.util.average_utilization(first_submit, last_complete);
        RunMetrics::from_outcomes(self.policy.name(), outcomes, util, self.rescale_count)
            .with_fault_stats(self.fault_stats())
    }

    /// Shutdown phase of the executor pool ([`ShutdownPhase::Running`]
    /// until [`CharmOperator::begin_drain`]).
    pub fn shutdown_phase(&self) -> ShutdownPhase {
        self.lifecycle.phase()
    }

    /// Executor slots currently held by live RAII leases (one per
    /// launched executor).
    pub fn leased_executors(&self) -> u32 {
        self.exec_pool.leased()
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
        let live: Vec<JobId> = self.handles.keys().copied().collect();
        for id in live {
            let name = self.registry.name(id).to_string();
            if let Some(mut handle) = self.handles.remove(&id) {
                handle.stop();
            }
            self.exec_leases.remove(&id);
            self.flows.remove(&id);
            self.delete_job_pods(&name);
            let _ = self.plane.configmaps.delete(&format!("{name}-nodelist"));
            self.jobs
                .update(&name, |j| {
                    j.status.phase = JobPhase::Queued;
                    j.status.replicas = 0;
                    j.status.desired_replicas = 0;
                })
                .expect("job exists");
            self.view.remove(id, self.policy.launcher_slots());
            self.util.set(now, id, 0);
            self.events
                .record(now, &name, "Stopped", "executor pool cleanup");
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
        self.exec_pool.assert_drained();
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

/// The operator side of a submission burst: the engine driver handed to
/// [`SchedulingPolicy::on_submit_burst`] by `reconcile_job_events`.
/// Pulls pending admissions (already sorted by `(submitted_at, name)`)
/// through [`CharmOperator::stage_admission`] and applies each decision
/// via the operator's ordinary action path — the mirror of the DES's
/// `SubmitDriver`.
struct OpSubmitBurst<'a> {
    op: &'a mut CharmOperator,
    pending: Vec<String>,
    cursor: usize,
    now: SimTime,
}

impl SubmitBurst for OpSubmitBurst<'_> {
    fn view(&self) -> &ClusterView {
        &self.op.view
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn admit_next(&mut self) -> Option<JobId> {
        while self.cursor < self.pending.len() {
            let name = std::mem::take(&mut self.pending[self.cursor]);
            self.cursor += 1;
            // Duplicates, vanished jobs and pre-cancelled submissions
            // are consumed here (their bookkeeping already ran); the
            // policy only ever sees decidable admissions.
            if let Some(id) = self.op.stage_admission(&name) {
                return Some(id);
            }
        }
        None
    }

    fn apply(&mut self, actions: &[Action]) {
        self.op.apply_actions(actions, self.now);
    }
}
