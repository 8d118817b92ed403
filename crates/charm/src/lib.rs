//! # charm-rt — a Charm++-like migratable-objects runtime
//!
//! This crate reimplements, from scratch in Rust, the runtime substrate
//! that *"An elastic job scheduler for HPC applications on the cloud"*
//! (SC Workshops '25) builds on: an asynchronous message-driven parallel
//! programming model where computation lives in *chares* (migratable
//! objects), over-decomposed onto *PEs* (processing elements — here OS
//! threads, each running a scheduler loop over a message queue).
//!
//! Supported Charm++ features, mapped to the paper's needs:
//!
//! | Paper mechanism | Module |
//! |---|---|
//! | chare arrays, entry methods, location management | [`ids`], [`chare`], [`location`], [`runtime`] |
//! | PUP serialization for migration/checkpoint | [`codec`] |
//! | reductions (`contribute`) | [`reduction`] |
//! | measurement-based load balancing (Greedy/Rotate) | [`lb`] |
//! | in-memory (shared-memory) checkpoint | [`ckpt`] |
//! | shrink/expand with LB→ckpt→restart→restore staging | [`runtime`], [`rescale`] |
//! | CCS external control signals | [`ccs`] |
//!
//! ## Rescale modes
//!
//! The runtime has two rescale protocols.
//! [`Runtime::rescale`](runtime::Runtime::rescale) and
//! [`Runtime::poll_rescale`](runtime::Runtime::poll_rescale) run the
//! first; [`Runtime::rescale_with_mode`](runtime::Runtime::rescale_with_mode)
//! picks one per call:
//!
//! * [`RescaleMode::Incremental`] (**default**) — resize the live PE
//!   pool in place. Shrink evacuates only the chares on dying PEs (via
//!   the evacuation-aware LB assignment), retires exactly those threads
//!   and compacts the router; expand spawns only the new PE threads and
//!   moves just enough load onto them. Surviving PEs never tear down and
//!   untouched chares never serialize, so overhead is proportional to
//!   [`RescaleReport::bytes_moved`], not to total state.
//! * [`RescaleMode::FullRestart`] — the paper's checkpoint → restart →
//!   restore protocol, kept for the Fig. 5/6 MPI-relaunch
//!   reproductions. Both report through the same [`StageTimings`]
//!   stages so their costs compare directly.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use charm_rt::codec::{Reader, Writer};
//! use charm_rt::{Chare, Ctx, Index, MethodId, ReduceOp, Runtime, RuntimeConfig};
//!
//! // A chare holding one number; method 0 adds, then contributes.
//! struct Cell { value: f64 }
//! impl Chare for Cell {
//!     fn dispatch(&mut self, ctx: &mut Ctx<'_>, _m: MethodId, data: &[u8]) {
//!         let mut r = Reader::new(data);
//!         self.value += r.f64().unwrap();
//!         ctx.contribute(0, ReduceOp::Sum, &[self.value]);
//!     }
//!     fn pack(&self, w: &mut Writer) { w.f64(self.value); }
//! }
//!
//! let mut rt = Runtime::new(RuntimeConfig::new(2));
//! let elements = (0..8)
//!     .map(|i| (Index::d1(i), Box::new(Cell { value: i as f64 }) as Box<dyn Chare>))
//!     .collect();
//! let arr = rt.create_array(
//!     "cells",
//!     Arc::new(|_, r: &mut Reader<'_>| Box::new(Cell { value: r.f64().unwrap() }) as Box<dyn Chare>),
//!     elements,
//! );
//! let mut msg = Writer::new();
//! msg.f64(1.0);
//! rt.broadcast(arr, 0, msg.finish());
//! let sum = rt.wait_reduction(arr, std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(sum.vals[0], (0..8).map(|i| i as f64 + 1.0).sum::<f64>());
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

pub mod ccs;
pub mod chare;
pub mod ckpt;
pub mod codec;
pub mod ids;
pub mod lb;
pub mod location;
pub mod msg;
mod pe;
pub mod reduction;
pub mod rescale;
pub mod router;
pub mod runtime;

pub use ccs::{CcsClient, CcsEndpoint};
pub use chare::{Chare, ChareFactory, Ctx};
pub use codec::Bytes;
pub use ids::{ArrayId, ChareId, Index, MethodId, PeId};
pub use lb::{ChareStat, GreedyLb, LbStrategy, RotateLb};
pub use msg::MainEvent;
pub use reduction::{ReduceOp, ReductionResult};
pub use rescale::{RescaleKind, RescaleMode, RescaleReport, StageTimings};
pub use runtime::{CkptReport, LbReport, Runtime, RuntimeConfig, WaitError};
