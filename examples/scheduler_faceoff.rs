//! Scheduler face-off: simulate the paper's four policies over the same
//! random workload and print a Table-1-style comparison, plus the Fig.
//! 9a-style utilization profiles — entirely in the discrete-event
//! simulator, so it runs in milliseconds.
//!
//! Run with: `cargo run --release --example scheduler_faceoff [seed]`

use elastic_hpc::core::{Policy, PolicyConfig, PolicyKind};
use elastic_hpc::metrics::{ascii, Duration};
use elastic_hpc::scenario::{sim_config, Scenario};
use elastic_hpc::sim::SimState;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64);
    println!("16 random jobs (seed {seed}), submission gap 90s, T_rescale_gap 180s\n");

    // Each replay keeps its allocation changes for the profiles.
    let replay = |kind| {
        let policy = move || Policy::of_kind(kind, PolicyConfig::default());
        let scenario = Scenario::campaign(seed, Duration::from_secs(90.0), policy);
        let (cfg, workload) = (sim_config(&scenario), &scenario.workload);
        let mut state = SimState::new(&cfg, workload);
        state.record_allocations();
        while state.step(&cfg, workload, usize::MAX) {}
        state.finish(&cfg, workload)
    };
    let rows: Vec<_> = PolicyKind::ALL.into_iter().map(replay).collect();
    println!("{:-<78}", "");
    for outcome in &rows {
        let metrics = &outcome.metrics;
        println!("{}", metrics.table_row());
        let total: Vec<(f64, f64)> = (outcome.util.log())
            .expect("recorded")
            .total_series()
            .iter()
            .map(|&(t, v)| (t.as_secs(), f64::from(v)))
            .collect();
        if let (Some(first), Some(last)) = (total.first(), total.last()) {
            println!(
                "{}",
                ascii::step_profile(&metrics.policy, &total, first.0, last.0, 64.0, 60)
            );
        }
    }
    println!("{:-<78}", "");
    println!("(block height = fraction of the 64 slots in use, like Fig. 9a)");

    let elastic = rows.iter().find(|o| o.metrics.policy == "elastic").unwrap();
    let moldable = rows
        .iter()
        .find(|o| o.metrics.policy == "moldable")
        .unwrap();
    println!(
        "\nelastic vs moldable: {:+.1}% utilization, {:+.1}s total time, {} rescales",
        (elastic.metrics.utilization - moldable.metrics.utilization) * 100.0,
        elastic.metrics.total_time - moldable.metrics.total_time,
        elastic.rescales
    );
}
