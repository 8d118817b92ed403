//! The operator path's allocation ledger — held by count, not by clock.
//!
//! One zero-delay ingest replay of the shape `benchmark/`'s
//! `op-ingest-replay` runs (seed 0, 240 Poisson jobs 20 s apart, 60 s
//! drive step, the elastic policy on 4 × 16 slots) is driven under a
//! counting global allocator. Calls into the allocator are what the
//! replay's wall time mostly was: before the kube stand-in shared its
//! objects, ≈ 97 % of them came from `crates/kube` deep-copying pods
//! into return values and watch queues and rebuilding `String`-keyed
//! maps every binding round.
//!
//! Measured with this file (`alloc` + `alloc_zeroed` + `realloc` calls
//! of one replay, and per job):
//!
//! | build   | copying, scanning store (PR 21) | shared, indexed store (PR 22) | slab store, shared names (PR 25) |
//! |---------|---------------------------------|-------------------------------|----------------------------------|
//! | release | 618 357 = 2 576 per job         | 168 717 = 702 per job         | 51 966 = 216 per job             |
//! | debug   | 1 419 948 = 5 916 per job       | 181 914 = 757 per job         | 85 228 = 355 per job             |
//!
//! (A debug build adds the per-round cross-check's snapshot of the job
//! store — a deep copy of every job before PR 22, one `Vec` of pointers
//! since.) PR 25 took a pod's four names to `Arc<str>`s shared with its
//! job, so a copy-on-write copy of a pod bumps counts, and made the
//! store's indexes lists through its slots instead of sets of names.
//! The bounds below leave ≈ 10 % of room over the right-hand column: a
//! change that brings back a copied name per pod mutation, or a map per
//! binding round, does not fit.
//!
//! The count is exact, and the two replays must agree: the counter is
//! the replaying thread's own (libtest's threads allocate beside it),
//! and every map inside a `kube_sim::Store` hashes with the one random
//! key of the process, so how a churning map regrows does not depend on
//! which replay built it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use elastic_hpc::core::{CharmOperator, ModelExecutor, Policy, PolicyConfig};
use elastic_hpc::kube::{ControlPlane, KubeletConfig};
use elastic_hpc::metrics::{Duration, VirtualClock};
use elastic_hpc::serving::{run_workload_ingest, IngestConfig, ShardRouter};
use elastic_hpc::workload::poisson_workload;

/// `System`, counting every call that can obtain memory on the thread
/// that makes it.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor: reading it neither
    // allocates nor can fail, from inside the allocator or at thread exit.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.set(ALLOCATIONS.get() + 1);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counter is a
// statistic and guards nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const JOBS: usize = 240;
const MAX_ALLOCATIONS_PER_JOB: u64 = if cfg!(debug_assertions) { 390 } else { 238 };

/// Allocator calls of one replay, workload generation and operator
/// construction included.
fn allocations_of_a_replay() -> u64 {
    let before = ALLOCATIONS.get();
    let workload = poisson_workload(0, JOBS, Duration::from_secs(20.0));
    let clock = VirtualClock::new();
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 16);
    let executor = ModelExecutor::ideal(plane.clock());
    let policy = Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(180.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    });
    let mut op = CharmOperator::new(plane, Box::new(policy), Box::new(executor));
    let ingest = IngestConfig {
        shards: 4,
        shard_capacity: 4096,
        batch_size: 256,
        max_delay: Duration::ZERO,
        retry_after: Duration::ZERO,
        router: ShardRouter::RoundRobin,
    };
    let (metrics, stats) = run_workload_ingest(
        &mut op,
        &clock,
        &workload,
        Duration::from_secs(60.0),
        Duration::from_secs(1e7),
        ingest,
    );
    assert_eq!(metrics.jobs.len(), JOBS);
    assert_eq!(stats.flushed, JOBS as u64);
    drop((metrics, op, workload));
    ALLOCATIONS.get() - before
}

#[test]
fn an_ingest_replay_stays_inside_its_allocation_budget() {
    let first = allocations_of_a_replay();
    let second = allocations_of_a_replay();
    assert_eq!(first, second, "the count is a function of the input");
    let per_job = first / JOBS as u64;
    println!("{first} allocations, {per_job} per job");
    assert!(
        per_job <= MAX_ALLOCATIONS_PER_JOB,
        "{first} allocations = {per_job} per job, over the {MAX_ALLOCATIONS_PER_JOB} budget"
    );
}
