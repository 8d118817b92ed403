//! # elastic-serving — the production submission front-end
//!
//! `elastic-core`'s [`SchedulerClient`] is a direct, synchronous
//! surface: one submission, one store create, one watch event, one
//! policy decision. That is the right primitive — and the wrong shape
//! for a serving tier taking tens of thousands of submissions per
//! second. This crate is the layer between the two: a concurrent
//! front-end over the store-shaped client that batches, backpressures
//! and broadcasts, without ever bypassing the client API underneath.
//!
//! ## Batched ingest with explicit backpressure
//!
//! [`IngestQueue`] shards submissions over N independent bounded
//! buffers ([`ShardRouter::RoundRobin`] or
//! [`ShardRouter::HashByName`]), accumulating each shard into a batch
//! that flushes on **size K** ([`IngestConfig::batch_size`]) or
//! **deadline T** ([`IngestConfig::max_delay`]). A flush is one run of
//! store creates the operator's watch drain coalesces into a *single*
//! [`SchedulingPolicy::on_submit_burst`] dispatch — a 100k-submission
//! storm costs O(batches) policy invocations, not O(jobs)
//! (`CharmOperator::counters` counts them as `Counter::SubmitBursts`;
//! `tests/replay_counters.rs` pins the exact counts). Every submission
//! is answered explicitly: [`SubmitResponse::Admitted`] (the push
//! completed a batch — the ticket is real), [`SubmitResponse::Queued`] with the shard depth, or
//! [`SubmitResponse::Shed`] with a retry-after hint when the bounded
//! buffer is full. Load shedding is a *first-class answer*, not an
//! error: the `shed_then_retry_round_trip` test pins the full
//! backoff-and-resubmit cycle.
//!
//! Batching does not cost determinism: with `max_delay = 0` and a pump
//! per drive-loop round, flushes happen at the enqueue instant and the
//! operator sorts same-instant admissions canonically, so
//! [`run_workload_ingest`] replays a trace **bit-identically** to the
//! direct-client replay (`elastic_core::run_workload_virtual`, the same
//! drive loop), for any shard count (the workspace `serving_replay`
//! test asserts equality of the full `RunMetrics`).
//!
//! ## The lifecycle event bus
//!
//! [`EventBus`] fans the client's single-consumer
//! [`watch_events`](elastic_core::SchedulerClient::watch_events) stream
//! out to any number of [`Subscriber`]s through a bounded ring. A slow
//! subscriber never stalls the bus: once it falls behind by more than
//! the ring capacity its next poll answers [`BusPoll::Lagged`] with the
//! exact missed count, and [`Subscriber::resync`] recovers by fetching
//! a full status snapshot from the store — the source of truth the
//! events were derived from — and resuming gap-free from the ring
//! head.
//!
//! [`SchedulerClient`]: elastic_core::SchedulerClient
//! [`SchedulingPolicy::on_submit_burst`]:
//! elastic_core::SchedulingPolicy::on_submit_burst
//! [`SubmitResponse::Admitted`]: elastic_core::SubmitResponse::Admitted
//! [`SubmitResponse::Queued`]: elastic_core::SubmitResponse::Queued
//! [`SubmitResponse::Shed`]: elastic_core::SubmitResponse::Shed

#![warn(missing_docs)]

pub mod bus;
pub mod harness;
pub mod ingest;

pub use bus::{BusPoll, EventBus, Subscriber};
pub use harness::run_workload_ingest;
pub use ingest::{IngestConfig, IngestQueue, IngestStats, ShardRouter};
