//! # kube-sim — an in-process simulated Kubernetes control plane
//!
//! The paper runs its operator on AWS EKS; this crate supplies the
//! control-plane surface that operator logic actually touches, entirely
//! in-process and clock-abstracted so the same code runs in wall-clock
//! experiments and deterministic virtual-time tests:
//!
//! * [`api`] — typed object stores with resource versions and watch
//!   streams (the API-server analogue).
//! * [`resources`] — `Node`, `Pod` (launcher/worker roles, affinity
//!   groups, CPU requests), `ConfigMap` (nodelists).
//! * [`scheduler`] — a filter/score pod scheduler with the pod-affinity
//!   behaviour the paper adds to the MPI operator (§3.1).
//! * [`kubelet`] — pod start/termination latency model.
//! * [`cluster`] — the assembled [`ControlPlane`]
//!   with the capacity arithmetic policies consume.
//! * [`events`] — an event log for observability and tests.
//!
//! Custom resources (the CharmJob CRD) are defined by the operator crate
//! using the same generic [`api::Store`].

#![warn(missing_docs)]

pub mod api;
pub mod cluster;
pub mod events;
#[cfg(test)]
mod index_equivalence;
pub mod kubelet;
pub mod resources;
pub mod scheduler;

pub use api::{ApiError, Resource, Store, Stored, WatchEvent};
pub use cluster::ControlPlane;
pub use events::{Event, EventLog};
pub use kubelet::{Kubelet, KubeletConfig};
pub use resources::{ConfigMap, Node, Pod, PodPhase, PodRole, PodStage};
pub use scheduler::{PodScheduler, ScheduleOutcome};
