//! # hpc-workload — the first-class workload layer
//!
//! One unified job model — [`WorkloadSpec`] — feeds every engine in the
//! workspace: the discrete-event simulator (`sched_sim::simulate`), the
//! operator harness (`elastic_core::run_workload_virtual`) and the
//! bench binaries. A job carries its own **arrival time**, replica
//! bounds (a paper [`SizeClass`] *or* explicit malleable bounds), a
//! work estimate, a **walltime estimate** (the user's claimed runtime,
//! SWF field 9 — what reservation-based backfilling like
//! `elastic_core::EasyBackfill` plans from), a priority and an
//! optional cancellation time — so a workload is a self-contained
//! replayable trace, not a job list plus out-of-band submission-gap
//! conventions.
//!
//! Three producers ship with the crate, plus the export side:
//!
//! * [`swf`] — a streaming parser for the Standard Workload Format
//!   (Feitelson's SWF, the archive format of the malleable-scheduling
//!   literature), with a configurable malleability annotation à la
//!   Zojer, Posner & Özden. Walltime estimates load with a
//!   requested→actual fallback, so every loadable record carries one.
//! * [`swf::write_workload`] — the SWF *writer*: any `WorkloadSpec`
//!   (generated, annotated, or programmatic) exports as an SWF stream
//!   that round-trips through the parser (proptested, including the
//!   walltime field and its `-1` sentinel).
//! * [`generator::generate_workload`] — the paper's seeded random
//!   16-job/4-class generator (§4.3.1).
//! * [`generator::poisson_workload`] — a heavy-traffic synthetic
//!   generator with exponential (Poisson-process) interarrivals, the
//!   trace-shaped alternative to a fixed submission gap.
//!
//! Multi-week archives replay in bounded simulation time via the
//! timeline knob [`WorkloadSpec::compress_arrivals`]: it divides every
//! arrival/cancellation instant by a factor (preserving relative
//! order) and leaves the work alone, so it raises the offered load.
//!
//! ## How a modeled job executes
//!
//! [`model`] holds what both engines run such a job through: the
//! strong-scaling [`ScalingModel`] and four-stage [`OverheadModel`] of
//! the paper's simulator (§4.3.1), defined over [`JobShape`], and the
//! [`Progress`] integrator (work done, rate, the pause a rescale or a
//! checkpoint recovery opens). It lives here, beside the shapes, so the
//! DES and the operator's modeled executor embed one copy.
//!
//! ## Plugging a new trace format
//!
//! A trace loader is just a function producing a [`WorkloadSpec`]: map
//! each record to a [`JobSpec`] (name, arrival, bounds, work, priority),
//! call [`WorkloadSpec::new`], and [`WorkloadSpec::validate`] enforces
//! the engine contract (unique names, sane bounds, nondecreasing
//! arrivals). Nothing downstream knows where a workload came from — the
//! DES, the operator harness and the report layer consume the same
//! struct. See [`swf::load_workload`] for the worked example.
//!
//! ## How malleability annotation maps processors to replica bounds
//!
//! SWF jobs are rigid: one requested-processor count `p`. The
//! [`MalleabilityModel`] turns `p` into scheduler bounds
//! `min = clamp(ceil(p · min_factor), 1, cap)` and
//! `max = clamp(ceil(p · max_factor), min, cap)`, and the job's work is
//! `runtime · p` core-seconds under a linear speedup model — so a
//! *rigid* annotation (`min_factor = max_factor = 1`) reproduces the
//! trace's runtimes exactly, while an elastic annotation
//! ([`MalleabilityModel::elastic`]) lets the policies shrink/expand
//! inside the scaled envelope exactly as the synthetic-malleability
//! methodology of Zojer et al. prescribes.

#![warn(missing_docs)]

pub mod fault;
pub mod generator;
pub mod malleability;
pub mod model;
pub mod spec;
pub mod swf;

pub use fault::{FaultError, FaultEvent, FaultKind, FaultSpec, FlakyEvent, FlakyOp, FlakySpec};
pub use generator::{generate_workload, poisson_workload};
pub use malleability::MalleabilityModel;
pub use model::{OverheadBreakdown, OverheadModel, Progress, ScalingModel};
pub use spec::{JobShape, JobSpec, SizeClass, WorkloadError, WorkloadSpec};
pub use swf::{
    load_workload, workload_records, write_swf, write_workload, SwfError, SwfLoadConfig, SwfRecord,
};
