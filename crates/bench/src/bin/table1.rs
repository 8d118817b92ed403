//! Table 1 — Actual and Simulation metrics for the four policies.
//!
//! Paper: one job configuration (drawn by the simulator's generator),
//! submission gap 90 s, `T_rescale_gap` = 180 s; the Actual column from
//! the EKS run, the Simulation column from the simulator. Here the
//! Actual column runs the real operator + real Jacobi jobs
//! (time-compressed, problem sizes scaled to the host as in
//! `elastic_bench::actual`), the Simulation
//! column runs the DES at the paper's full scale — the policy *code* is
//! shared between the two.
//!
//! Usage: `table1 [--seed N] [--compression N] [--full] [--skip-actual]`

use elastic_bench::actual::run_campaign;
use elastic_bench::{emit_csv, flag_f64, flag_u64, has_flag, CsvTable};
use elastic_core::{PolicyKind, RunMetrics};
use sched_sim::table1_simulation;

fn main() {
    let seed = flag_u64("--seed", 0);
    let compression = flag_f64("--compression", 60.0);
    let full = has_flag("--full");
    let skip_actual = has_flag("--skip-actual");

    println!("== Table 1 (seed {seed}) ==");
    println!("-- Simulation column (paper-scale DES) --");
    let sim_rows = table1_simulation(seed);
    for (m, _) in &sim_rows {
        println!("  sim    {}", m.table_row());
    }

    let mut actual_rows: Vec<RunMetrics> = Vec::new();
    if !skip_actual {
        println!("-- Actual column (real operator + charm-rt jobs, compressed clock) --");
        for kind in PolicyKind::ALL {
            let res = run_campaign(kind, seed, compression, full);
            println!("  actual {}", res.metrics.table_row());
            actual_rows.push(res.metrics);
        }
    }

    let mut table = CsvTable::new([
        "scheduler",
        "total_time_actual_s",
        "total_time_sim_s",
        "utilization_actual",
        "utilization_sim",
        "weighted_response_actual_s",
        "weighted_response_sim_s",
        "weighted_completion_actual_s",
        "weighted_completion_sim_s",
        "bounded_slowdown_actual",
        "bounded_slowdown_sim",
    ]);
    for (sim, _) in &sim_rows {
        let actual = actual_rows.iter().find(|a| a.policy == sim.policy);
        let cell = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.2}"));
        table.row([
            sim.policy.clone(),
            cell(actual.map(|a| a.total_time)),
            format!("{:.2}", sim.total_time),
            cell(actual.map(|a| a.utilization * 100.0)),
            format!("{:.2}", sim.utilization * 100.0),
            cell(actual.map(|a| a.weighted_response)),
            format!("{:.2}", sim.weighted_response),
            cell(actual.map(|a| a.weighted_completion)),
            format!("{:.2}", sim.weighted_completion),
            cell(actual.map(|a| a.mean_bounded_slowdown)),
            format!("{:.2}", sim.mean_bounded_slowdown),
        ]);
    }
    emit_csv(&table, "table1.csv");

    // Shape verdicts mirroring the paper's Table 1 narrative.
    let sim = |k: PolicyKind| {
        sim_rows
            .iter()
            .map(|(m, _)| m)
            .find(|m| m.policy == k.to_string())
            .expect("policy row")
    };
    println!("shape checks (simulation):");
    println!(
        "  elastic best utilization: {}",
        PolicyKind::ALL
            .iter()
            .all(|&k| sim(PolicyKind::Elastic).utilization >= sim(k).utilization - 1e-9)
    );
    println!(
        "  elastic lowest total time: {}",
        PolicyKind::ALL
            .iter()
            .all(|&k| sim(PolicyKind::Elastic).total_time <= sim(k).total_time + 1e-9)
    );
    println!(
        "  min_replicas lowest utilization: {}",
        PolicyKind::ALL
            .iter()
            .all(|&k| sim(PolicyKind::RigidMin).utilization <= sim(k).utilization + 1e-9)
    );
    println!(
        "  min_replicas highest completion: {}",
        PolicyKind::ALL
            .iter()
            .all(|&k| sim(PolicyKind::RigidMin).weighted_completion
                >= sim(k).weighted_completion - 1e-9)
    );
}
