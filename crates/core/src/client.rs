//! The typed scheduler client and its request/response API.
//!
//! [`SchedulerClient`] is the public control-plane API: everything a
//! user-facing front end needs — submit, query, cancel, observe — and
//! *nothing but the kube-style stores underneath*. The client never
//! touches the operator in-process; it creates and mutates `CharmJob`
//! objects, and the watch-driven reconciler reacts to the resulting
//! store events exactly as a Kubernetes controller reacts to `kubectl`.
//! That store-mediated indirection is what makes the surface safe to
//! expose remotely later: the client is a thin handle over API calls,
//! not a reference into scheduler internals.
//!
//! ## The request/response surface
//!
//! Submission is a *typed* exchange: build a spec with
//! [`CharmJobSpec::builder`], wrap it in a [`SubmitRequest`] (validation
//! happens at construction, so an in-flight request is valid by type),
//! and pass it to [`SchedulerClient::submit_request`], which answers
//! with a [`SubmitResponse`]. The direct client path always answers
//! [`SubmitResponse::Admitted`]; the batched serving front-end
//! (`elastic-serving`) answers [`SubmitResponse::Queued`] while a
//! submission waits in an ingest shard and [`SubmitResponse::Shed`]
//! when backpressure rejects it. Every error is the one
//! [`SchedulerError`] enum.
//!
//! ```
//! use elastic_core::{CharmJobSpec, SubmitRequest, SubmitResponse};
//! # use elastic_core::crd::CharmJob;
//! # use std::sync::Arc;
//! let spec = CharmJobSpec::builder("j1")
//!     .replicas(2, 8)
//!     .priority(4)
//!     .modeled_iters(1_000)
//!     .build()
//!     .unwrap();
//! let client = elastic_core::SchedulerClient::new(
//!     kube_sim::Store::<CharmJob>::new(),
//!     Arc::new(hpc_metrics::VirtualClock::new()),
//! );
//! let resp = client.submit_request(SubmitRequest::v1(spec).unwrap()).unwrap();
//! let SubmitResponse::Admitted { ticket } = resp else {
//!     panic!("direct submission always admits");
//! };
//! assert_eq!(ticket.name, "j1");
//! ```
//!
//! ## Lookup by name vs lookup by ticket
//!
//! Jobs have two identities. The **name** is the client's vocabulary:
//! every getter ([`job_status`], [`phase`], [`cancel`]) looks up by
//! name, and names are unique among *live* objects in the store. The
//! **ticket** returned at admission additionally carries the
//! server-assigned uid, which is stable for the lifetime of the object
//! and never reused — hold the [`JobTicket`] when you must distinguish
//! "the job I submitted" from "whatever currently owns that name"
//! (compare `ticket.uid` against the stored uid). The scheduler's
//! interned [`JobId`](hpc_metrics::JobId) is a third, internal identity
//! that never crosses this API.
//!
//! Obtain a client with [`CharmOperator::client`]; handles are cheap to
//! clone and thread-safe (they share the underlying store).
//!
//! [`job_status`]: SchedulerClient::job_status
//! [`phase`]: SchedulerClient::phase
//! [`cancel`]: SchedulerClient::cancel
//! [`CharmOperator::client`]: crate::operator::CharmOperator::client

use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use hpc_metrics::{Clock, Duration, SimTime};
use kube_sim::{ApiError, Store, WatchEvent};

use crate::crd::{CharmJob, CharmJobSpec, CharmJobStatus, JobPhase};
use crate::error::SchedulerError;

/// A validated submission receipt returned at admission: the unique
/// name plus the server-assigned uid (stable across status updates,
/// never reused). See the module docs for when to prefer the ticket
/// over the bare name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobTicket {
    /// The job's unique name.
    pub name: String,
    /// Server-assigned uid.
    pub uid: u64,
}

impl std::fmt::Display for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.name, self.uid)
    }
}

/// A validated submission. Constructing one runs the full spec
/// validation, so any `SubmitRequest` in flight is valid by type — the
/// ingest queues and the client trust it without re-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    spec: CharmJobSpec,
}

impl SubmitRequest {
    /// A request around `spec`; fails with
    /// [`SchedulerError::InvalidSpec`] if the spec is malformed.
    pub fn v1(spec: CharmJobSpec) -> Result<Self, SchedulerError> {
        spec.validate().map_err(SchedulerError::InvalidSpec)?;
        Ok(SubmitRequest { spec })
    }

    /// The validated spec.
    pub fn spec(&self) -> &CharmJobSpec {
        &self.spec
    }

    /// The job name (unique submission key).
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Unwraps the validated spec.
    fn into_spec(self) -> CharmJobSpec {
        self.spec
    }
}

/// The answer to a [`SubmitRequest`]: what the serving path did with
/// the submission.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitResponse {
    /// The job was created in the store; the reconciler will run its
    /// admission decision. The direct client path always answers this.
    Admitted {
        /// The submission receipt.
        ticket: JobTicket,
    },
    /// The job is buffered in an ingest shard awaiting a batch flush
    /// (size K or deadline T); no ticket exists yet.
    Queued {
        /// Jobs buffered in the accepting shard, this one included.
        depth: usize,
    },
    /// Backpressure: the shard's bounded buffer is full and the
    /// submission was rejected. Retry no sooner than `retry_after`.
    Shed {
        /// Suggested client backoff.
        retry_after: Duration,
    },
}

impl SubmitResponse {
    /// The admission ticket, if the job was admitted synchronously.
    pub fn ticket(&self) -> Option<&JobTicket> {
        match self {
            SubmitResponse::Admitted { ticket } => Some(ticket),
            _ => None,
        }
    }

    /// `true` if the submission was rejected by backpressure.
    pub fn is_shed(&self) -> bool {
        matches!(self, SubmitResponse::Shed { .. })
    }
}

/// The typed client handle (see the module docs).
#[derive(Clone)]
pub struct SchedulerClient {
    jobs: Store<CharmJob>,
    clock: Arc<dyn Clock>,
}

impl SchedulerClient {
    /// A client over `jobs`, timestamping submissions with `clock`.
    pub fn new(jobs: Store<CharmJob>, clock: Arc<dyn Clock>) -> Self {
        SchedulerClient { jobs, clock }
    }

    /// The clock this client stamps submissions with (shared with the
    /// operator; the serving ingest queue times its flush deadlines and
    /// submit→admit latencies off the same clock).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Submits a validated request: creates the CRD in the store and
    /// answers [`SubmitResponse::Admitted`]. The reconciler picks the
    /// submission up from the watch stream and runs the admission
    /// decision. (Queued/Shed responses only arise on the batched
    /// ingest path of `elastic-serving`, which fronts this call.)
    pub fn submit_request(&self, req: SubmitRequest) -> Result<SubmitResponse, SchedulerError> {
        let spec = req.into_spec();
        let name = spec.name.clone();
        let stored = self
            .jobs
            .create(CharmJob::submitted(spec, self.clock.now()))
            .map_err(|e| match e {
                ApiError::AlreadyExists(n) => SchedulerError::AlreadyExists(n),
                ApiError::NotFound(n) => SchedulerError::UnknownJob(n),
            })?;
        Ok(SubmitResponse::Admitted {
            ticket: JobTicket {
                name,
                uid: stored.uid,
            },
        })
    }

    /// The job's current status, or [`SchedulerError::UnknownJob`].
    pub fn job_status(&self, name: &str) -> Result<CharmJobStatus, SchedulerError> {
        self.jobs
            .read(name, |s| s.obj.status.clone())
            .ok_or_else(|| SchedulerError::UnknownJob(name.to_string()))
    }

    /// The job's lifecycle phase, or `None` if it does not exist — the
    /// infallible convenience getter (poll loops prefer it).
    pub fn phase(&self, name: &str) -> Option<JobPhase> {
        self.jobs.read(name, |s| s.obj.status.phase)
    }

    /// Every job's `(name, status)`, in unspecified order — the
    /// snapshot half of a lagging-subscriber re-sync (see
    /// `elastic-serving`'s event bus).
    pub fn list_status(&self) -> Vec<(String, CharmJobStatus)> {
        self.jobs
            .list()
            .into_iter()
            .map(|s| (s.obj.spec.name.clone(), s.obj.status.clone()))
            .collect()
    }

    /// Requests cancellation. The reconciler performs the actual
    /// teardown (kill signal, pod deletion, slot reclaim) on its next
    /// reconcile; observe completion via [`watch_events`] or
    /// [`phase`] reaching [`JobPhase::Cancelled`].
    ///
    /// [`watch_events`]: SchedulerClient::watch_events
    /// [`phase`]: SchedulerClient::phase
    pub fn cancel(&self, name: &str) -> Result<(), SchedulerError> {
        let phase = self
            .phase(name)
            .ok_or_else(|| SchedulerError::UnknownJob(name.to_string()))?;
        if phase.is_terminal() {
            return Err(SchedulerError::AlreadyTerminal(name.to_string()));
        }
        self.jobs
            .update(name, |j| j.status.cancel_requested = true)
            .map_err(|_| SchedulerError::UnknownJob(name.to_string()))?;
        Ok(())
    }

    /// Opens a lifecycle event stream covering *future* transitions of
    /// every job (submissions, starts, rescales, completions,
    /// cancellations). Uses the store's atomic `list_watch`, so no
    /// transition between "now" and the first poll can be missed.
    ///
    /// This is the *single-consumer* primitive: each stream owns its
    /// receiver. For many subscribers with lag detection and
    /// store-snapshot recovery, pump one stream into
    /// `elastic-serving`'s `EventBus` instead.
    pub fn watch_events(&self) -> JobEventStream {
        let (snapshot, rx) = self.jobs.list_watch();
        let known = snapshot
            .into_iter()
            .map(|s| {
                let j = &s.obj;
                (j.spec.name.clone(), (j.status.phase, j.status.replicas))
            })
            .collect();
        JobEventStream { rx, known }
    }
}

/// What happened to a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEventKind {
    /// Entered the queue.
    Submitted,
    /// The application launched.
    Started,
    /// The allocation changed to `replicas` workers.
    Rescaled {
        /// New worker count.
        replicas: u32,
    },
    /// Finished normally.
    Completed,
    /// Torn down on client request.
    Cancelled,
}

/// One lifecycle transition observed on the watch stream.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEvent {
    /// The job concerned.
    pub job: String,
    /// When the transition happened (from the job's status timestamps).
    pub at: SimTime,
    /// The transition.
    pub kind: JobEventKind,
}

/// A pull-based lifecycle stream (see
/// [`SchedulerClient::watch_events`]). Raw store events are folded into
/// semantic transitions: phase changes become
/// Submitted/Started/Completed/Cancelled, replica changes while running
/// become [`JobEventKind::Rescaled`].
pub struct JobEventStream {
    rx: Receiver<WatchEvent<CharmJob>>,
    known: HashMap<String, (JobPhase, u32)>,
}

impl JobEventStream {
    /// The next pending lifecycle event, or `None` when the stream is
    /// currently drained (more may arrive later).
    pub fn try_next(&mut self) -> Option<JobEvent> {
        while let Ok(ev) = self.rx.try_recv() {
            let stored = match ev {
                WatchEvent::Added(s) | WatchEvent::Modified(s) => s,
                WatchEvent::Deleted(_) => continue,
            };
            let name = stored.obj.spec.name.clone();
            let st = &stored.obj.status;
            let prev = self.known.insert(name.clone(), (st.phase, st.replicas));
            let kind = match (prev, st.phase) {
                (None, JobPhase::Queued) => Some(JobEventKind::Submitted),
                (Some((p, _)), JobPhase::Running) if p != JobPhase::Running => {
                    Some(JobEventKind::Started)
                }
                (Some((p, _)), JobPhase::Completed) if p != JobPhase::Completed => {
                    Some(JobEventKind::Completed)
                }
                (Some((p, _)), JobPhase::Cancelled) if p != JobPhase::Cancelled => {
                    Some(JobEventKind::Cancelled)
                }
                (Some((JobPhase::Running, from)), JobPhase::Running) if from != st.replicas => {
                    Some(JobEventKind::Rescaled {
                        replicas: st.replicas,
                    })
                }
                _ => None,
            };
            if let Some(kind) = kind {
                return Some(JobEvent {
                    job: name,
                    at: event_time(st, &kind),
                    kind,
                });
            }
        }
        None
    }

    /// Drains every currently pending lifecycle event.
    pub fn drain(&mut self) -> Vec<JobEvent> {
        std::iter::from_fn(|| self.try_next()).collect()
    }
}

fn event_time(st: &CharmJobStatus, kind: &JobEventKind) -> SimTime {
    match kind {
        JobEventKind::Submitted => st.submitted_at,
        JobEventKind::Started => st.started_at.unwrap_or(st.submitted_at),
        JobEventKind::Rescaled { .. } => st.last_action,
        JobEventKind::Completed | JobEventKind::Cancelled => {
            st.completed_at.unwrap_or(st.submitted_at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crd::AppSpec;
    use hpc_metrics::VirtualClock;

    fn client() -> (SchedulerClient, Store<CharmJob>, VirtualClock) {
        let clock = VirtualClock::new();
        let jobs: Store<CharmJob> = Store::new();
        (
            SchedulerClient::new(jobs.clone(), Arc::new(clock.clone())),
            jobs,
            clock,
        )
    }

    fn spec(name: &str, min: u32, max: u32) -> CharmJobSpec {
        CharmJobSpec {
            name: name.into(),
            min_replicas: min,
            max_replicas: max,
            priority: 3,
            walltime_estimate: None,
            app: AppSpec::linear(100.0, min, max),
        }
    }

    fn submit(client: &SchedulerClient, spec: CharmJobSpec) -> Result<JobTicket, SchedulerError> {
        let resp = client.submit_request(SubmitRequest::v1(spec)?)?;
        Ok(resp.ticket().expect("direct path admits").clone())
    }

    #[test]
    fn submit_request_returns_validated_ticket() {
        let (client, jobs, _) = client();
        let id = submit(&client, spec("j1", 2, 8)).unwrap();
        assert_eq!(id.name, "j1");
        assert_eq!(jobs.get("j1").unwrap().uid, id.uid);
        assert_eq!(id.to_string(), format!("j1#{}", id.uid));
        assert!(matches!(
            submit(&client, spec("j1", 2, 8)),
            Err(SchedulerError::AlreadyExists(_))
        ));
        assert!(matches!(
            SubmitRequest::v1(spec("bad", 8, 2)),
            Err(SchedulerError::InvalidSpec(_))
        ));
        let req = SubmitRequest::v1(spec("j2", 2, 8)).unwrap();
        assert_eq!(req.name(), "j2");
        assert_eq!(req.spec().max_replicas, 8);
        assert_eq!(client.phase("j1"), Some(JobPhase::Queued));
        assert_eq!(client.phase("zzz"), None);
    }

    #[test]
    fn job_status_has_a_typed_unknown_path() {
        let (client, _, _) = client();
        assert!(matches!(
            client.job_status("ghost"),
            Err(SchedulerError::UnknownJob(_))
        ));
        submit(&client, spec("j1", 2, 8)).unwrap();
        assert_eq!(client.job_status("j1").unwrap().phase, JobPhase::Queued);
        assert_eq!(client.list_status().len(), 1);
    }

    #[test]
    fn cancel_marks_the_crd_and_rejects_terminal_jobs() {
        let (client, jobs, _) = client();
        assert!(matches!(
            client.cancel("ghost"),
            Err(SchedulerError::UnknownJob(_))
        ));
        submit(&client, spec("j1", 2, 8)).unwrap();
        client.cancel("j1").unwrap();
        assert!(jobs.get("j1").unwrap().obj.status.cancel_requested);
        jobs.update("j1", |j| j.status.phase = JobPhase::Cancelled)
            .unwrap();
        assert!(matches!(
            client.cancel("j1"),
            Err(SchedulerError::AlreadyTerminal(_))
        ));
    }

    #[test]
    fn watch_events_folds_store_events_into_lifecycle() {
        let (client, jobs, clock) = client();
        submit(&client, spec("old", 1, 4)).unwrap();
        let mut stream = client.watch_events();
        // Pre-existing jobs produce no replayed events.
        assert!(stream.try_next().is_none());

        clock.advance(hpc_metrics::Duration::from_secs(5.0));
        submit(&client, spec("j1", 2, 8)).unwrap();
        jobs.update("j1", |j| {
            j.status.phase = JobPhase::Starting;
            j.status.replicas = 8;
        })
        .unwrap();
        jobs.update("j1", |j| {
            j.status.phase = JobPhase::Running;
            j.status.started_at = Some(SimTime::from_secs(6.0));
        })
        .unwrap();
        jobs.update("j1", |j| {
            j.status.replicas = 4;
            j.status.last_action = SimTime::from_secs(9.0);
        })
        .unwrap();
        jobs.update("j1", |j| {
            j.status.phase = JobPhase::Completed;
            j.status.completed_at = Some(SimTime::from_secs(20.0));
        })
        .unwrap();
        let kinds: Vec<JobEventKind> = stream.drain().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                JobEventKind::Submitted,
                JobEventKind::Started,
                JobEventKind::Rescaled { replicas: 4 },
                JobEventKind::Completed,
            ]
        );
    }

    #[test]
    fn cancellation_appears_on_the_stream() {
        let (client, jobs, _) = client();
        let mut stream = client.watch_events();
        submit(&client, spec("j1", 2, 8)).unwrap();
        client.cancel("j1").unwrap();
        jobs.update("j1", |j| {
            j.status.phase = JobPhase::Cancelled;
            j.status.completed_at = Some(SimTime::from_secs(3.0));
        })
        .unwrap();
        let kinds: Vec<JobEventKind> = stream.drain().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![JobEventKind::Submitted, JobEventKind::Cancelled]
        );
    }
}
