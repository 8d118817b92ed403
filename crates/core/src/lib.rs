//! # elastic-core — the paper's primary contribution
//!
//! A CharmJob Kubernetes operator with a priority-based **elastic** job
//! scheduling policy that rescales running jobs on the fly to maximize
//! cluster utilization while minimizing response times for
//! high-priority jobs — plus the open control-plane API grown around
//! it.
//!
//! ## The control-plane API
//!
//! Three typed surfaces compose the control plane; everything else in
//! the workspace (DES simulator, bench binaries, examples) builds on
//! them:
//!
//! * **[`SchedulingPolicy`]** — the open policy trait. A policy is a
//!   pure function from a [`ClusterView`] to [`Action`]s, consulted on
//!   submission (`on_submit`, paper Fig. 2), on freed slots
//!   (`on_complete`, Fig. 3 — completions *and* cancellations), and
//!   optionally on a periodic timer (`on_timer` — the DES schedules
//!   timer events and the operator runs a timer pass, so timer-driven
//!   policies replay in both engines). Built-ins: the four-variant
//!   [`Policy`] (elastic / moldable / rigid-min / rigid-max, §4.3),
//!   [`FcfsBackfill`] (conservative, estimate-free backfilling),
//!   [`EasyBackfill`] (EASY backfilling on walltime estimates — see
//!   the worked example below) and the [`AgingSweep`] timer decorator.
//!   The operator, the simulator and the benches all take
//!   `Box<dyn SchedulingPolicy>` — a new policy plugs in without
//!   touching any engine.
//! * **[`CharmOperator`]** — the watch-driven reconciler. It subscribes
//!   to the CharmJob and pod stores with the atomic
//!   `Store::list_watch` and reconciles per event (admission on job
//!   added, teardown on cancellation, launch progress on pod phase
//!   changes) plus a timer pass for poll-only state (executor
//!   acknowledgements, completions). `tick()` drains the event queues
//!   and costs O(events + running jobs + pods that changed) — it never
//!   scans the job store, however many jobs that has held, nor the pod
//!   store unless it binds pods; `settle()` ticks
//!   until the instant has nothing left to reconcile.
//! * **[`SchedulerClient`]** — the typed client handle, speaking the
//!   versioned request/response API: build a spec with
//!   [`CharmJobSpec::builder`] (validation at `build()`), wrap it in a
//!   [`SubmitRequest`], and `submit_request` answers with a
//!   [`SubmitResponse`] (`Admitted` with a [`JobTicket`] on the direct
//!   path; `Queued`/`Shed` arise on the batched `elastic-serving`
//!   ingest path). Queries are `job_status`/`phase`, teardown is
//!   `cancel`, observation is `watch_events` (a lifecycle stream
//!   folded from raw store events) — and every fallible call returns
//!   the one [`SchedulerError`] enum. The client talks *only* through
//!   the kube-style stores, exactly like `kubectl` against a real API
//!   server, so the reconciler picks its requests up from the same
//!   watch streams it already consumes:
//!
//!   ```
//!   use elastic_core::{CharmJobSpec, SubmitRequest, SubmitResponse};
//!   use hpc_metrics::Duration;
//!
//!   # use std::sync::Arc;
//!   # let client = elastic_core::SchedulerClient::new(
//!   #     kube_sim::Store::<elastic_core::crd::CharmJob>::new(),
//!   #     Arc::new(hpc_metrics::VirtualClock::new()),
//!   # );
//!   let spec = CharmJobSpec::builder("jacobi-17")
//!       .replicas(2, 8)
//!       .priority(5)
//!       .walltime_estimate(Duration::from_secs(3_600.0))
//!       .modeled_iters(10_000)
//!       .build()?;
//!   let response = client.submit_request(SubmitRequest::v1(spec)?)?;
//!   let ticket = response.ticket().expect("direct path admits").clone();
//!   assert_eq!(ticket.name, "jacobi-17");
//!   assert!(client.job_status("jacobi-17").is_ok());
//!   # Ok::<(), elastic_core::SchedulerError>(())
//!   ```
//!
//! ## The hot path: interned ids, incremental view
//!
//! The per-event decision path is allocation-free and never rebuilds
//! state:
//!
//! * Job names are interned into dense **[`JobId`]s** by the engine's
//!   **[`JobRegistry`]** at admission; [`Action`], [`JobState`],
//!   utilization samples and all engine-side bookkeeping are keyed by
//!   id. Names survive only at the edges — client submissions
//!   ([`JobTicket`]), pod/store objects, and final reports. Ids are
//!   issued in admission order, so ascending `JobId` doubles as the
//!   submission-order tie-breaker that keeps operator and simulator
//!   ordering identical even for equal `(priority, submitted_at)`.
//! * The **[`ClusterView`]** is *persistent and incrementally
//!   maintained*: a hot/cold packed job arena indexed by id (one
//!   32-byte hot row per job holds everything policy scans read — one
//!   cache line per visited job — with submission time and walltime
//!   estimate in cold columns) and carried `free_slots` / job
//!   counters, all updated in O(1) per mutation, `job(id)` in O(1).
//!   The ordered indexes over it are **pay-per-use**: `BTreeSet`s
//!   keyed `(Reverse(priority), submitted_at, JobId)` serving
//!   `running_desc_priority` / `queued_desc_priority`, the running
//!   jobs by last scheduling action behind
//!   [`ClusterView::running_by_last_action`] (the elastic policy's gap
//!   cursor: the jobs `T_rescale_gap` lets a decision touch are a
//!   prefix of it — a recency list linked through the arena, O(1)
//!   upkeep under the engines' non-decreasing clock), the submission
//!   order behind `queued_submission_order`, the completion frontier,
//!   and the queued-by-minimum-footprint buckets behind
//!   [`ClusterView::queued_fitting`] are each built from the arena the
//!   first time a policy reads them and pay their upkeep (O(log n) for
//!   the trees) in `insert` / `remove` / [`apply_action`] only from
//!   then on — a run maintains exactly the indexes its policy walks
//!   ([`ClusterView::built_indexes`]). Reads are O(k); one view per
//!   run, zero rebuilds, zero `String`s.
//!   A property test (`view_equivalence`) proves any event sequence,
//!   with the first index read at any step, leaves the incremental
//!   view equal to a from-scratch rebuild, and
//!   [`CharmOperator::rebuild_view`] keeps the reference construction
//!   alive for the operator-side assertion.
//!
//! ## One kernel under both engines
//!
//! The operator and the DES are adapters around one transition machine,
//! [`kernel::Kernel`]. It owns the view, the utilization record, the
//! tallies, [`FaultStats`], the resilience core, the recovery
//! parameters and the per-job attempt ledger, and it alone calls a
//! policy hook, folds an [`Action`], costs an eviction or a requeue,
//! picks a flaky victim, decides the run is over and builds
//! [`RunMetrics`]. An engine turns what it observes into one entry
//! point, passing the instant, the policy and its [`kernel::Effects`]
//! (launch / resize / stop, the next admission or completion of a
//! burst):
//!
//! | within one instant | an engine observes | kernel entry point | policy hooks, in order |
//! |---|---|---|---|
//! | 1 | jobs submitted at one instant | `submit_burst` | `on_submit_burst` → per job `on_submit`; none for a job whose cancellation is already on record |
//! | 2 | a client cancellation | `cancel` | `on_complete` if the job held slots |
//! | 3 | node failure / reclamation | `capacity_lost` | `on_fault` (must clear the deficit), then `on_complete` |
//! | 3 | reclaimed capacity back | `capacity_returned` | `on_complete` |
//! | 4 | a transient control-plane fault | `flaky` | `on_complete` if a victim was requeued or evicted |
//! | 5 | a requeue backoff expired | `requeue_due` | `on_submit_burst`, as a one-job burst |
//! | 6 | jobs finished at one instant | `complete_burst` | `on_complete_burst` → per job `on_complete` |
//! | 7 | the policy's timer deadline | `timer` | `on_timer`, unless every job is terminal |
//!
//! The first column is the order in which events that share an instant
//! reach the kernel, in both engines: rows top to bottom
//! ([`kernel::EventClass`], whose declaration order it is), events of
//! one row by ascending [`JobId`], then in the order the engine learned
//! of them (capacity events in schedule order, whichever way they
//! point). The DES's event queue sorts its same-instant entries by that
//! key; one [`CharmOperator::tick`] is those seven steps, top to bottom.
//! Because a step's consequences can take further reconcile rounds to
//! show in the stores (a completion's freed pods, an admitted job's
//! launch), the operator is driven an *instant* at a time with
//! [`CharmOperator::settle`], which ticks until a round finds nothing
//! left to do; what settles late re-enters at its own row of the next
//! round.
//!
//! A burst is one policy dispatch however many jobs it carries, and
//! the default burst hooks replay the per-event decisions exactly: n
//! submissions cost n O(log n) decisions, not n view rebuilds or n
//! dispatches. The kernel counts both ([`kernel::Dispatches`], read
//! through [`CharmOperator::dispatches`]).
//!
//! What the kernel decides, a modeled job then *executes* the same way
//! in both engines too. The execution model is one module,
//! `hpc_workload::model`: [`ScalingModel`] (work rate of a job shape at
//! a replica count), [`OverheadModel`] (the pause a rescale costs, the
//! recovery window a checkpoint relaunch pays first) and the
//! `Progress` integrator (work done, rate, pause window;
//! `resize`, `roll_back`, `finishes_at`). The DES keeps a `Progress`
//! per job and schedules a completion event at `finishes_at`;
//! [`ModelExecutor`] keeps one per handle and answers `Finished` once
//! the clock is past it. Both integrate at a job's own events only, so
//! given the same two structs, a launch, a rescale, an eviction's
//! rollback and the relaunch after it run through the same arithmetic —
//! [`AppSpec::Modeled`] carries the workload job's own shape to get
//! there. [`ModelExecutor::ideal`] is that model with every cost zero
//! and every shape linear.
//!
//! ## Plugging in a fifth policy: how `EasyBackfill` was built
//!
//! [`EasyBackfill`] is the worked example of the open surface: true
//! EASY backfilling — a shadow reservation for the blocked queue head,
//! planned from the running jobs' walltime estimates — implemented
//! purely against the [`ClusterView`]/[`Action`] contract. It reads
//! `free_slots` and three indexes, each built on its first read and
//! kept current (O(log n) per event) only from then on: the queue in
//! submission order, walked lazily and only until the head blocks
//! ([`ClusterView::queued_scan`]); the completion frontier
//! ([`ClusterView::running_by_estimated_end`]); and the footprint
//! cursor ([`ClusterView::queued_fitting`]) that yields only the
//! backfill candidates whose minimum fits the free slots — so a
//! decision costs O(started + candidates that fit), never O(queue),
//! and a run under another policy never pays for any of the three. It
//! emits ordinary `Create`/`Enqueue` actions; neither engine changed
//! to run it:
//!
//! ```
//! use elastic_core::{Action, ClusterView, EasyBackfill, JobState, SchedulingPolicy};
//! use hpc_metrics::{Duration, JobId, SimTime};
//!
//! let mut view = ClusterView::new(32);
//! let job = |id: u32, min: u32, replicas: u32, est_s: f64, submitted: f64| JobState {
//!     id: JobId(id),
//!     min_replicas: min,
//!     max_replicas: min,
//!     priority: 3,
//!     submitted_at: SimTime::from_secs(submitted),
//!     replicas,
//!     last_action: if replicas > 0 { SimTime::ZERO } else { SimTime::NEG_INFINITY },
//!     running: replicas > 0,
//!     walltime_estimate: Some(Duration::from_secs(est_s)),
//! };
//! // 26 workers + 1 launcher running, estimated to vacate at t = 1000.
//! view.insert(job(0, 26, 26, 1000.0, 0.0), 1);
//! // The queue head needs 20+1 of the 5 free slots: blocked, so EASY
//! // reserves its start at the t = 1000 completion frontier…
//! view.insert(job(1, 20, 0, 500.0, 10.0), 1);
//! // …and a short job (estimated done by t = 300 < 1000) may backfill.
//! view.insert(job(2, 4, 0, 200.0, 20.0), 1);
//!
//! let policy = EasyBackfill::new();
//! let now = SimTime::from_secs(100.0);
//! let reservation = policy.shadow_start(&view, now).expect("head is blocked");
//! assert_eq!(reservation.shadow_start, SimTime::from_secs(1000.0));
//! let actions = policy.on_complete(&view, now);
//! assert_eq!(actions, vec![Action::Create { job: JobId(2), replicas: 4 }]);
//! ```
//!
//! Pass `Box::new(EasyBackfill::new())` (or your own impl) to
//! [`CharmOperator::new`] or `sched_sim::SimConfig` and both engines
//! drive it through the same kernel — behaviour cannot diverge between
//! the Actual and Simulation columns of Table 1 (the trace
//! cross-validation asserts the replays are bit-identical). Policies
//! that need to act without an external
//! trigger implement `on_timer`/`timer_interval` — see [`AgingSweep`],
//! which wraps any inner policy with a periodic starvation-aging
//! sweep.
//!
//! ## The fault layer: policies see capacity loss
//!
//! Node failures and spot reclamations reach the policy through a
//! fourth surface, [`SchedulingPolicy::on_fault`]: the engine marks the
//! lost slots failed in the view — opening a [`ClusterView::deficit`]
//! when the fault landed on occupied slots — and the policy must answer
//! with actions that cover the deficit: [`Action::Evict`]
//! (checkpoint/restart preemption), [`Action::Requeue`] (kill and
//! resubmit after a backoff, bounded by a retry budget) or ordinary
//! `Shrink`s of malleable jobs. [`RecoveryPolicy`] packages the three
//! classic disciplines as a decorator over any inner policy:
//!
//! ```
//! use elastic_core::{
//!     apply_action, Action, ClusterView, JobState, Policy, PolicyConfig, RecoveryPolicy,
//!     RecoveryStrategy, SchedulingPolicy,
//! };
//! use hpc_metrics::{Duration, JobId, SimTime};
//! use hpc_workload::{FaultEvent, FaultKind};
//!
//! let mut view = ClusterView::new(32);
//! let running = |id: u32, prio: u32, min: u32, replicas: u32| JobState {
//!     id: JobId(id),
//!     min_replicas: min,
//!     max_replicas: 16,
//!     priority: prio,
//!     submitted_at: SimTime::ZERO,
//!     replicas,
//!     last_action: SimTime::ZERO,
//!     running: true,
//!     walltime_estimate: None,
//! };
//! view.insert(running(0, 5, 2, 8), 1); // high priority, 8 workers + launcher
//! view.insert(running(1, 1, 2, 8), 1); // low priority, 8 workers + launcher
//! assert_eq!(view.free_slots(), 14);
//!
//! // A spot reclamation takes 20 slots: 14 were free, 6 were occupied.
//! view.fail_slots(20);
//! assert_eq!(view.deficit(), 6);
//!
//! let policy = RecoveryPolicy::new(
//!     Box::new(Policy::elastic(PolicyConfig::default())),
//!     RecoveryStrategy::ShrinkOnReclaim,
//! );
//! let now = SimTime::from_secs(100.0);
//! let fault = FaultEvent {
//!     at: Duration::from_secs(100.0),
//!     slots: 20,
//!     kind: FaultKind::Reclaim,
//! };
//! let actions = policy.on_fault(&view, &fault, now);
//! // The elastic answer: shrink the low-priority job down to its
//! // minimum — nobody is evicted and no work is lost.
//! assert_eq!(actions, vec![Action::Shrink { job: JobId(1), to_replicas: 2 }]);
//! for a in &actions {
//!     apply_action(&mut view, a, now, 1);
//! }
//! assert_eq!(view.deficit(), 0, "the policy covered the deficit");
//! ```
//!
//! The kernel asserts the deficit is zero after applying the plan, then
//! runs the usual `on_complete` redistribution. When the reclaimed
//! capacity returns (a `FaultKind::Return` event), the slots rejoin the
//! free pool and the policy may expand or admit into them. The kernel
//! keeps the [`FaultStats`] (wasted core-seconds, evictions, requeues,
//! permanent failures), so fault-laden replays cross-validate
//! bit-identically.
//!
//! ## Module layering
//!
//! * [`crd`] — the CharmJob custom resource (min/max replicas,
//!   priority, app template, lifecycle status incl. cancellation) and
//!   the [`JobSpecBuilder`].
//! * [`error`] — the unified [`SchedulerError`] enum.
//! * [`view`] — the [`ClusterView`]/[`Action`] policy interface.
//! * [`registry`] — the [`JobRegistry`] name ↔ [`JobId`] interner.
//! * [`policy`] — [`SchedulingPolicy`] and the built-in policies.
//! * [`client`] — [`SchedulerClient`], [`JobTicket`], lifecycle events.
//! * [`executor`] — real (`charm-rt`) job execution, and modeled
//!   execution under `hpc_workload::model`.
//! * [`kernel`] — the transition machine both engines drive.
//! * [`operator`] — the store/watch adapter around it, with the
//!   paper's shrink/expand pod sequences.
//! * [`harness`] — the one drive loop (submissions through an
//!   [`ArrivalSink`], cancellations and fault notices as they fall due,
//!   `settle()`, pace) behind the virtual- and wall-clock runs,
//!   including the [`run_workload_virtual`] replay of a unified
//!   `hpc_workload::WorkloadSpec`.
//! * [`report`] — the Table 1 metrics plus the trace-replay bounded
//!   slowdown.

#![warn(missing_docs)]

pub mod client;
pub mod crd;
pub mod error;
pub mod executor;
pub mod harness;
pub mod kernel;
pub mod operator;
pub mod policy;
pub mod registry;
pub mod report;
pub mod view;

pub use client::{
    JobEvent, JobEventKind, JobEventStream, JobTicket, SchedulerClient, SubmitRequest,
    SubmitResponse,
};
pub use crd::{
    AppSpec, CharmJob, CharmJobSpec, CharmJobStatus, FaultNotice, FlakyNotice, JobPhase,
    JobSpecBuilder,
};
pub use elastic_resilience::ShutdownPhase;
pub use error::SchedulerError;
pub use executor::{CharmExecutor, ExecHandle, ExecStatus, Executor, ModelExecutor};
pub use harness::{run_real, run_virtual, run_workload_virtual, ArrivalSink, Schedule};
pub use hpc_metrics::JobId;
// What `ModelExecutor::new` takes.
pub use hpc_workload::model::{OverheadModel, ScalingModel};
pub use operator::CharmOperator;
pub use policy::{
    AgingSweep, CompleteBurst, EasyBackfill, FcfsBackfill, Policy, PolicyConfig, PolicyKind,
    RecoveryPolicy, RecoveryStrategy, Reservation, SchedulingPolicy, SubmitBurst,
};
pub use registry::JobRegistry;
pub use report::{FaultStats, JobOutcome, RunMetrics, BSLD_TAU_S};
pub use view::{
    apply_action, Action, BuiltIndexes, ClusterView, FittingCursor, JobFields, JobRef, JobState,
};
