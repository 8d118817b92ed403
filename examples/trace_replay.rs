//! SWF trace replay, end to end: parse → annotate → simulate → report.
//!
//! Loads the bundled Standard Workload Format trace, annotates it for
//! malleability two ways (rigid = replay the trace as logged; elastic =
//! the half-to-double envelope of Zojer et al.), replays both through
//! the DES on its 32-slot machine under FCFS+backfilling and the
//! elastic policy, and prints the Table-1-style rows plus the
//! trace-replay bounded slowdown.
//!
//! Run with: `cargo run --release --example trace_replay`

use elastic_hpc::core::{FcfsBackfill, Policy, PolicyConfig, PolicyKind};
use elastic_hpc::scenario::{bundled_trace, run, Engine, Scenario, TRACE_CAPACITY};
use elastic_hpc::sim::OverheadModel;
use elastic_hpc::workload::SwfLoadConfig;

fn elastic() -> Policy {
    Policy::of_kind(PolicyKind::Elastic, PolicyConfig::default())
}

fn main() {
    let rigid = bundled_trace(&SwfLoadConfig::rigid(TRACE_CAPACITY));
    println!(
        "== SWF replay: {} jobs over {:.0}s of arrivals, {TRACE_CAPACITY}-slot cluster ==",
        rigid.len(),
        rigid.jobs.last().expect("jobs").arrival.as_secs(),
    );
    let open = bundled_trace(&SwfLoadConfig::elastic(TRACE_CAPACITY));
    for (label, workload) in [
        ("rigid annotation (trace as logged)", rigid),
        ("elastic annotation (half-to-double envelope)", open),
    ] {
        println!("-- {label} --");
        let fcfs = Scenario::new(workload.clone(), TRACE_CAPACITY, FcfsBackfill::new);
        for scenario in [fcfs, Scenario::new(workload, TRACE_CAPACITY, elastic)] {
            let scenario = scenario.with_overhead(OverheadModel::default());
            println!("  {}", run(&scenario, Engine::Des).table_row());
        }
    }

    println!(
        "(bsld = mean bounded slowdown, τ = {} s — the trace-replay headline metric)",
        elastic_hpc::core::BSLD_TAU_S
    );
}
