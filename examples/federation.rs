//! Sharded federation replay: one SWF trace, four clusters, one table.
//!
//! Loads the bundled Standard Workload Format trace
//! (`tests/data/sample.swf`), routes it across a 4-shard federation
//! with the least-loaded placement policy (each shard an 8-slot
//! cluster running its own EASY-backfilling instance), replays all
//! shards off one FIFO run queue (a worker that finds it empty is
//! done: the batch is closed), and prints a per-shard
//! utilization table next to the merged federation-level metrics.
//!
//! Run with: `cargo run --release --example federation`

use std::path::PathBuf;

use elastic_hpc::core::EasyBackfill;
use elastic_hpc::federation::{FederationConfig, FederationRuntime, LeastLoaded};
use elastic_hpc::sim::{OverheadModel, ScalingModel, SimConfig};
use elastic_hpc::workload::{load_workload, SwfLoadConfig, WorkloadSpec};

const SHARDS: usize = 4;
const SHARD_CAPACITY: u32 = 8;

fn load() -> WorkloadSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sample.swf");
    let file = std::fs::File::open(&path).expect("bundled trace exists");
    // Annotate for the shard size, not the monolithic cluster: replica
    // bounds clamp to the capacity a job can actually get.
    load_workload(
        std::io::BufReader::new(file),
        &SwfLoadConfig::rigid(SHARD_CAPACITY),
    )
    .expect("trace parses")
}

fn main() {
    let workload = load();
    println!(
        "== federated SWF replay: {} jobs over {SHARDS} shards x {SHARD_CAPACITY} slots ==",
        workload.len()
    );

    let mut fed = FederationRuntime::new(FederationConfig::new(SHARDS), |_| SimConfig {
        capacity: SHARD_CAPACITY,
        policy: Box::new(EasyBackfill::new()),
        scaling: ScalingModel::default(),
        overhead: OverheadModel::default(),
        cancellations: Vec::new(),
    });
    println!(
        "   (workers: {}, quantum: {} events/turn, placement: least-loaded)",
        fed.config().workers,
        fed.config().quantum
    );

    let assignment = fed.handle().submit(&workload, &mut LeastLoaded::new());
    fed.start();
    let out = fed.join();

    println!();
    println!("shard  jobs  events  turns  util     makespan");
    println!("-----  ----  ------  -----  -------  ---------");
    for (shard, sim) in out.shards.iter().enumerate() {
        let jobs = assignment.iter().filter(|&&s| s == shard).count();
        println!(
            "{shard:>5}  {jobs:>4}  {:>6}  {:>5}  {:>6.1}%  {:>8.0}s",
            out.events[shard],
            out.turns[shard],
            sim.metrics.utilization * 100.0,
            sim.metrics.total_time,
        );
    }
    println!(
        "drain order: {:?} (light shards finish first under the quantum)",
        out.drain_order
    );

    println!();
    println!("-- merged federation metrics --");
    println!("  {}", out.merged.table_row());
    println!(
        "  {} events total; merged utilization weights each shard by its busy core-seconds",
        out.total_events()
    );
}
