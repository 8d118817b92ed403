//! The allocation ledgers of the operator path and of the DES — held by
//! count, not by clock.
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
//! Just before the operator's job and pod watches were filtered to what
//! it acts on, the replay measured 49 768 = 207 and 83 030 = 345 per
//! job; with them filtered:
//!
//! | build   | filtered operator watches |
//! |---------|---------------------------|
//! | release | 35 595 = 148 per job      |
//! | debug   | 66 592 = 277 per job      |
//!
//! Its own status writes stopped queueing the job they wrote, so the
//! next write no longer deep-copies it (name `String` included), and an
//! instant settles in fewer rounds, each with its own drains. Then the
//! pod controllers stopped collecting the names they had just read in
//! order to look each up again — the kubelet, garbage collection and a
//! job's teardown edit the pods where their index walk finds them — and
//! an event-log entry stopped copying its subject and kind:
//!
//! | build   | in-place pod walks, shared event subjects |
//! |---------|-------------------------------------------|
//! | release | 31 093 = 129 per job                      |
//! | debug   | 62 090 = 258 per job                      |
//!
//! The elastic policy's Fig. 3 walk then drew its queued lane from
//! footprint buckets, and the lane keeps one list of them per walk that
//! has a bucket the leftover fits (31 308 = 130 per job in release,
//! 62 305 = 259 in debug; the walk over a priority tree allocated
//! nothing). The gap cursor then counted its rows before collecting
//! them, so a decision that finds too many past their gap allocates no
//! list at all (30 840 = 128 per job in release, 61 837 = 257 in debug).
//! The operator's report then named each job with the registry's own
//! string instead of a copy of the stored spec's (30 601 = 127 per job
//! in release, 61 598 = 256 in debug).
//!
//! The bounds below leave ≈ 10 % of room over the in-place measurement: a
//! change that brings back a copied name per pod mutation, a map per
//! binding round, a name list per controller pass, or the echo of every
//! status write, does not fit.
//!
//! The count is exact, and the two replays must agree: the counter is
//! the replaying thread's own (libtest's threads allocate beside it),
//! and every map inside a `kube_sim::Store` hashes with the one random
//! key of the process, so how a churning map regrows does not depend on
//! which replay built it.
//!
//! The same allocator also keeps the thread's live bytes and their
//! peak. One DES replay of the heavy-traffic scale scenario (seed 0,
//! 10 000 jobs, the elastic policy) is held by its peak live bytes
//! above what the generated workload already holds, per job:
//!
//! | build   | event queue holding every seeded input | inputs read through cursors |
//! |---------|----------------------------------------|-----------------------------|
//! | release | 4 339 048 B = 433 per job              | 3 814 760 B = 381 per job   |
//! | debug   | 4 339 048 B = 433 per job              | 3 814 760 B = 381 per job   |
//!
//! The difference is exactly 524 288 B: a queue that held its inputs
//! kept the 10 000 seeded arrivals in a 16 384-entry × 32 B buffer
//! until the replay ended. The peak falls at the end, when the run's
//! metrics collect one outcome per job; a stable sort of those outcomes
//! allocated scratch for half of them although they arrive sorted (ids
//! are workload order), and the sort is now skipped when they do. The
//! two priority orders then became lists through one link column of
//! 8 B per job, where two trees held only the live jobs:
//!
//! | build   | sort skipped when sorted | and the priority orders bucketed |
//! |---------|--------------------------|----------------------------------|
//! | release | 3 320 296 B = 332 per job | 3 438 024 B = 343 per job       |
//! | debug   | 3 320 296 B = 332 per job | 3 438 024 B = 343 per job       |
//!
//! Then a job's name became one shared `Arc<str>`: the outcomes point
//! at the workload's names instead of each holding a copy, and the run
//! no longer returns a list of copied names beside its metrics:
//!
//! | build   | shared names               |
//! |---------|----------------------------|
//! | release | 3 288 024 B = 328 per job  |
//! | debug   | 3 288 024 B = 328 per job  |
//!
//! Until then the peak fell inside `SimState::finish`: the outcome list
//! was allocated while the timeline's per-job column and heap and the
//! kernel's view were still alive, though neither is read again. Now
//! `finish` drops the timeline and the kernel drops its view before the
//! outcomes are built, so the replay peaks while it steps, and `finish`
//! raises the peak by nothing (held below, with the steps' own peak
//! within one decision's scratch of their end state). The two per-job
//! rows that live through the whole run then lost their padding: the
//! timeline's from 48 to 40 B (a `u32` generation), the kernel's attempt
//! row from 56 to 40 B (sentinel instants in place of `Option` and
//! enum payloads):
//!
//! | build   | replay state freed before the report | and 40 B per-job rows     |
//! |---------|--------------------------------------|---------------------------|
//! | release | 2 742 800 B = 274 per job            | 2 502 800 B = 250 per job |
//! | debug   | 2 742 800 B = 274 per job            | 2 502 800 B = 250 per job |
//!
//! Then the kernel, the view and the DES retired a job's rows when it
//! ended, so the rows are as many as the jobs live at once (at most
//! 400 here) and what stays per job is two 4-byte row-map entries (the
//! kernel's and the DES's) and a 48-byte outcome row, reserved in one
//! allocation when the replay is built and written as the job
//! completes; utilization is folded as the clock advances instead of
//! logged:
//!
//! | build   | rows retired, utilization folded |
//! |---------|----------------------------------|
//! | release | 666 552 B = 66 per job           |
//! | debug   | 666 552 B = 66 per job           |
//!
//! Then the DES kept a job's execution row at the kernel's attempt row
//! of the job, which the kernel hands with every launch, resize and
//! stop, and its own job map and free list went; what stays per job is
//! the kernel's 4-byte row-map entry and the outcome row:
//!
//! | build   | execution rows at the kernel's rows |
//! |---------|-------------------------------------|
//! | release | 636 552 B = 63 per job              |
//! | debug   | 636 552 B = 63 per job              |
//!
//! Then the view's dense row column became the run's one job row map:
//! the kernel's map and free list went, its attempt ledger sits at the
//! view's rows, and the view's hash map of the live jobs went (whose
//! last rehash had set the steps' peak); what stays per job is the
//! view's 4-byte row-column entry and the outcome row:
//!
//! | build   | one row map in the run |
//! |---------|------------------------|
//! | release | 624 328 B = 62 per job |
//! | debug   | 624 328 B = 62 per job |
//!
//! The bound leaves ≈ 3 % of room over the last measurement, so neither
//! a copy of the inputs, nor the sort's scratch, nor a copy of the
//! names, nor a report built beside the run state, nor any column
//! indexed by every job the workload holds fits.
//! `SimState::column_bytes` reports each column of the run state; a
//! test below holds the workload-sized ones to their 52 bytes per job
//! and the rest to the jobs live at once.
//!
//! The same counter holds a 4-shard federation's calling thread (seed-0
//! Poisson jobs 1.2 s apart, EASY on 64 slots a shard, two workers) to
//! what `submit → start → join` allocates there. The workers build,
//! drain and finish the shards they claim, so the calling thread only
//! routes, partitions and merges:
//!
//! | jobs   | each shard seeded and finished on the calling thread | by its worker, placement on heaps | on one sorted expiry timeline |
//! |--------|------------------------------------------------------|-----------------------------------|-------------------------------|
//! | 1 000  | 4 135                                                | 60                                | 29                            |
//! | 4 000  | 16 154                                               | 63                                | 29                            |
//! | 16 000 | 64 171                                               | 64                                | 29                            |
//!
//! (release and debug alike). What is left grows with the shards and
//! the workers — the slices, the threads, the outcome vectors — and not
//! with the jobs: placement's per-shard heaps, which regrew with the
//! logarithm of the jobs, are one timeline allocated at its size, and
//! the merge reserves the union of the outcomes once. The bound is not
//! met by a single per-job allocation on that thread, nor by a column
//! that regrows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use elastic_hpc::core::{CharmOperator, EasyBackfill, ModelExecutor, Policy, PolicyConfig};
use elastic_hpc::federation::{FederationConfig, FederationRuntime, LeastLoaded};
use elastic_hpc::kube::{ControlPlane, KubeletConfig};
use elastic_hpc::metrics::{ColumnBytes, Duration, VirtualClock};
use elastic_hpc::scenario::{des, sim_config, Scenario};
use elastic_hpc::serving::{run_workload_ingest, IngestConfig, ShardRouter};
use elastic_hpc::sim::experiments::SCALE_CAPACITY;
use elastic_hpc::sim::{heavy_traffic_workload, OverheadModel, SimState};
use elastic_hpc::workload::poisson_workload;

/// `System`, counting every call that can obtain memory on the thread
/// that makes it, and the bytes that thread holds.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor: reading it neither
    // allocates nor can fail, from inside the allocator or at thread exit.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Bytes obtained minus bytes released on this thread, and the
    // highest that difference has been since `peak_bytes_of` reset it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.set(ALLOCATIONS.get() + 1);
}

/// Books `bytes` more (or, negative, fewer) live bytes when `ptr` says
/// the call succeeded; passes `ptr` through.
fn hold(ptr: *mut u8, bytes: i64) -> *mut u8 {
    if !ptr.is_null() {
        let live = LIVE.get() + bytes;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
    }
    ptr
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counters are
// statistics and guard nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        hold(System.alloc(layout), layout.size() as i64)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        hold(System.alloc_zeroed(layout), layout.size() as i64)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        let grown = new_size as i64 - layout.size() as i64;
        hold(System.realloc(ptr, layout, new_size), grown)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        hold(ptr, -(layout.size() as i64));
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn elastic() -> Policy {
    Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(180.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    })
}

const JOBS: usize = 240;
const MAX_ALLOCATIONS_PER_JOB: u64 = if cfg!(debug_assertions) { 284 } else { 142 };

/// Allocator calls of one replay, workload generation and operator
/// construction included.
fn allocations_of_a_replay() -> u64 {
    let before = ALLOCATIONS.get();
    let workload = poisson_workload(0, JOBS, Duration::from_secs(20.0));
    let clock = VirtualClock::new();
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 16);
    let executor = ModelExecutor::ideal(plane.clock());
    let mut op = CharmOperator::new(plane, Box::new(elastic()), Box::new(executor));
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

const DES_JOBS: usize = 10_000;
const MAX_PEAK_BYTES_PER_JOB: u64 = 64;

/// The most bytes `f` held at once on this thread beyond those live
/// when it started, with what `f` returned.
fn peak_bytes_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let base = LIVE.get();
    PEAK.set(base);
    let out = f();
    ((PEAK.get() - base) as u64, out)
}

#[test]
fn a_des_replay_holds_no_copy_of_its_inputs() {
    let workload = heavy_traffic_workload(0, DES_JOBS);
    let scenario = Scenario::new(workload, SCALE_CAPACITY, elastic);
    let scenario = scenario.with_overhead(OverheadModel::default());
    let replay = || des(&scenario);
    let (first, out) = peak_bytes_of(replay);
    assert_eq!(out.metrics.jobs.len(), DES_JOBS);
    drop(out);
    let (second, _) = peak_bytes_of(replay);
    assert_eq!(first, second, "the peak is a function of the input");
    let per_job = first / DES_JOBS as u64;
    println!("peak {first} live bytes, {per_job} per job");
    assert!(
        per_job <= MAX_PEAK_BYTES_PER_JOB,
        "peak {first} live bytes = {per_job} per job, over the {MAX_PEAK_BYTES_PER_JOB} budget"
    );
}

/// The heavy-traffic DES replay above, stepped by hand: its live bytes at the end of its last
/// `step`, its peak up to then and its peak with `finish`, each above
/// what was live when it began.
#[test]
fn a_des_replay_peaks_at_its_run_state_not_its_report() {
    let workload = heavy_traffic_workload(0, DES_JOBS);
    let scenario = Scenario::new(workload, SCALE_CAPACITY, elastic);
    let scenario = scenario.with_overhead(OverheadModel::default());
    let (cfg, workload) = (sim_config(&scenario), &scenario.workload);
    let base = LIVE.get();
    PEAK.set(base);
    let mut state = SimState::new(&cfg, workload);
    while state.step(&cfg, workload, usize::MAX) {}
    let step_end = LIVE.get() - base;
    let stepping = PEAK.get() - base;
    let out = state.finish(&cfg, workload);
    let peak = PEAK.get() - base;
    assert_eq!(out.metrics.jobs.len(), DES_JOBS);
    println!("live at the last step's end {step_end} B, peak while stepping {stepping} B, with finish {peak} B");
    assert_eq!(
        peak,
        stepping,
        "finish raised the peak {} B above the run state",
        peak - stepping
    );
    // What the steps peak above their end is one decision's scratch.
    assert!(
        stepping - step_end <= 1024,
        "the steps peaked {} B above their end state",
        stepping - step_end
    );
}

/// The peak live bytes of the heavy-traffic replay of `jobs` jobs, and
/// the columns its run state holds at the end of its last step; with
/// the most jobs the view held at once (stepped one event at a time).
fn stepped_replay(jobs: usize) -> (u64, Vec<ColumnBytes>, usize) {
    let workload = heavy_traffic_workload(0, jobs);
    let scenario = Scenario::new(workload, SCALE_CAPACITY, elastic);
    let scenario = scenario.with_overhead(OverheadModel::default());
    let (cfg, workload) = (sim_config(&scenario), &scenario.workload);
    let (peak, (columns, live)) = peak_bytes_of(|| {
        let mut state = SimState::new(&cfg, workload);
        let mut live = 0;
        while state.step(&cfg, workload, 1) {
            live = live.max(state.view().len());
        }
        (state.column_bytes(), live)
    });
    (peak, columns, live)
}

/// Each column of a heavy-traffic replay's run state, by the
/// allocator's count: the workload-sized columns are the view's
/// 4-byte row-column entry and the 48-byte outcome row per job, reserved
/// once; the rest hold the jobs live at once. Less the workload-sized
/// columns, the peak per job live at once is flat from 10 000 to
/// 40 000 jobs — within 25 % of the 10 000-job figure (measured: 241,
/// 208 and 220 B; the DES's rows, at the view's rows, cover the
/// queued jobs too) — though the live jobs double (400 to 796), so no
/// column grows with the jobs a run has seen.
#[test]
fn a_des_replay_is_sized_by_its_live_jobs() {
    let mut per_live_at_10k = None;
    for jobs in [10_000, 20_000, 40_000] {
        let (peak, columns, live) = stepped_replay(jobs);
        let column = |name: &str| {
            let found = columns.iter().find(|c| c.column == name);
            *found.unwrap_or_else(|| panic!("no column {name}"))
        };
        let map = column("view row map");
        assert_eq!(
            (map.len, map.capacity),
            (4 * jobs, 4 * jobs),
            "one entry a job"
        );
        let outcomes = column("outcome rows");
        assert_eq!(outcomes.capacity, 48 * jobs, "one reservation");
        let held: usize = columns.iter().map(|c| c.capacity).sum();
        // The columns are what the run state holds, to a few hundred
        // bytes (the policy and the replay's own fields).
        assert!(
            (held as u64) <= peak && peak - held as u64 <= 4096,
            "{jobs} jobs: columns {held} B, peak {peak} B"
        );
        let rest = peak - (4 * jobs + outcomes.capacity) as u64;
        let per_live = rest / live as u64;
        println!("{jobs} jobs: peak {peak} B, {rest} B beside the workload-sized columns, {live} live, {per_live} B per live job");
        for c in &columns {
            println!("  {:<30} {:>9} {:>9}", c.column, c.len, c.capacity);
        }
        let first = *per_live_at_10k.get_or_insert(per_live);
        assert!(
            per_live * 4 <= first * 5 && per_live * 4 >= first * 3,
            "{jobs} jobs: {per_live} B per live job, {first} at 10 000"
        );
    }
}

const FED_SHARDS: usize = 4;
const MAX_FED_ALLOCATIONS: u64 = 40;

/// Allocator calls on a 4-shard federation's calling thread: what
/// `submit → start → join` allocates there, the workload and the
/// runtime built beforehand. Returns them with the merged job count.
fn allocations_of_a_federated_replay(jobs: usize) -> (u64, usize) {
    let workload = poisson_workload(0, jobs, Duration::from_secs(1.2));
    let scenario = Scenario::new(workload, 64, EasyBackfill::new);
    let scenario = scenario.with_overhead(OverheadModel::default());
    let cfg = FederationConfig::new(FED_SHARDS).with_workers(2);
    let mut fed = FederationRuntime::new(cfg, |_| sim_config(&scenario));
    let before = ALLOCATIONS.get();
    fed.submit(&scenario.workload, &mut LeastLoaded::new());
    fed.start();
    let out = fed.join();
    (ALLOCATIONS.get() - before, out.merged.jobs.len())
}

#[test]
fn a_federated_replay_allocates_per_shard_not_per_job_on_the_calling_thread() {
    for jobs in [1_000, 4_000, 16_000] {
        let (first, done) = allocations_of_a_federated_replay(jobs);
        let (second, _) = allocations_of_a_federated_replay(jobs);
        assert_eq!(done, jobs);
        assert_eq!(first, second, "the count is a function of the input");
        println!("{jobs} jobs: {first} allocations on the calling thread");
        assert!(
            first <= MAX_FED_ALLOCATIONS,
            "{first} allocations for {jobs} jobs, over the {MAX_FED_ALLOCATIONS} budget"
        );
    }
}
