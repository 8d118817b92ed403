//! # elastic-hpc
//!
//! A from-scratch Rust reproduction of *"An elastic job scheduler for HPC
//! applications on the cloud"* (Bhosale, Chandrasekar, Kale,
//! Kokkila-Schumacher — SC Workshops '25, arXiv:2510.15147).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`charm`] — a Charm++-like migratable-objects runtime with dynamic
//!   load balancing and shrink/expand (paper contribution C1).
//! * [`apps`] — Jacobi2D and LeanMD mini-apps written against it.
//! * [`kube`] — an in-process simulated Kubernetes control plane.
//! * [`core`] — the CharmJob operator and the four scheduling policies
//!   (elastic, moldable, rigid-min, rigid-max) — contribution C2.
//! * [`sim`] — the discrete-event scheduling simulator — contribution C3.
//! * [`serving`] — the production submission front-end: sharded
//!   batched ingest queues with explicit backpressure and a bounded
//!   lifecycle event bus over the core client API.
//! * [`federation`] — sharded multi-cluster federation: cross-shard
//!   job placement plus a FIFO run queue that replays one workload
//!   across N cluster simulations on M worker threads.
//! * [`workload`] — the unified workload layer: one `WorkloadSpec`
//!   model with SWF trace replay, the paper's seeded generator and
//!   Poisson heavy-traffic arrivals, consumed identically by the DES
//!   and the operator harness.
//! * [`metrics`] — clocks, interpolation and metric recording shared by
//!   the "actual" and "simulated" experiment paths.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the architecture and
//! substitution notes, and `EXPERIMENTS.md` for paper-vs-measured results
//! for every figure and table.

pub use charm_apps as apps;
pub use charm_rt as charm;
pub use elastic_core as core;
pub use elastic_resilience as resilience;
pub use elastic_serving as serving;
pub use hpc_federation as federation;
pub use hpc_metrics as metrics;
pub use hpc_workload as workload;
pub use kube_sim as kube;
pub use sched_sim as sim;
