//! Sharded federation replay: one SWF trace, four clusters, one table.
//!
//! Loads the bundled Standard Workload Format trace, routes it across
//! a 4-shard federation with the least-loaded placement policy (each
//! shard an 8-slot cluster running its own EASY-backfilling instance),
//! replays the shards on worker threads that each drain whole shards
//! until none is left (the batch is closed), and prints a per-shard
//! utilization table next to the merged federation-level metrics.
//!
//! Run with: `cargo run --release --example federation`

use elastic_hpc::core::EasyBackfill;
use elastic_hpc::federation::{FederationConfig, FederationRuntime, LeastLoaded};
use elastic_hpc::scenario::{bundled_trace, sim_config, Scenario};
use elastic_hpc::sim::OverheadModel;
use elastic_hpc::workload::SwfLoadConfig;

const SHARDS: usize = 4;
const SHARD_CAPACITY: u32 = 8;

fn main() {
    // Annotate for the shard size, not the monolithic cluster: replica
    // bounds clamp to the capacity a job can actually get.
    let workload = bundled_trace(&SwfLoadConfig::rigid(SHARD_CAPACITY));
    let scenario = Scenario::new(workload, SHARD_CAPACITY, EasyBackfill::new)
        .with_overhead(OverheadModel::default());
    println!(
        "== federated SWF replay: {} jobs over {SHARDS} shards x {SHARD_CAPACITY} slots ==",
        scenario.workload.len()
    );

    let mut fed = FederationRuntime::new(FederationConfig::new(SHARDS), |_| sim_config(&scenario));
    println!(
        "   (workers: {}, placement: least-loaded)",
        fed.config().workers
    );

    let assignment = fed.submit(&scenario.workload, &mut LeastLoaded::new());
    fed.start();
    let out = fed.join();

    println!();
    println!("shard  jobs  events  util     makespan");
    println!("-----  ----  ------  -------  ---------");
    for (shard, sim) in out.shards.iter().enumerate() {
        let jobs = assignment.iter().filter(|&&s| s == shard).count();
        println!(
            "{shard:>5}  {jobs:>4}  {:>6}  {:>6.1}%  {:>8.0}s",
            out.events[shard],
            sim.metrics.utilization * 100.0,
            sim.metrics.total_time,
        );
    }

    println!();
    println!("-- merged federation metrics --");
    println!("  {}", out.merged.table_row());
    println!(
        "  {} events total; merged utilization weights each shard by its busy core-seconds",
        out.total_events()
    );
}
