//! Fig. 7 — simulated scheduler metrics vs job submission rate.
//!
//! Paper: 16 random jobs (4 size classes, priorities 1–5), 100 seeds,
//! `T_rescale_gap` = 180 s, submission gap swept 0–300 s; four policies
//! compared on utilization, total time, weighted response and weighted
//! completion time.
//!
//! Usage: `fig7_submission_gap [--seeds N] [--jobs N]`

use elastic_bench::{emit_csv, flag_u64, CsvTable};
use elastic_core::PolicyKind;
use hpc_metrics::ascii;
use sched_sim::{sweep_submission_gap, SweepPoint};

fn chart(points: &[SweepPoint], metric: fn(&SweepPoint) -> f64, title: &str) {
    let names = PolicyKind::ALL.map(|kind| kind.to_string());
    let series: Vec<(&str, Vec<(f64, f64)>)> = PolicyKind::ALL
        .iter()
        .zip(&names)
        .map(|(&kind, name)| {
            let pts: Vec<(f64, f64)> = points
                .iter()
                .filter(|p| p.policy == kind)
                .map(|p| (p.x, metric(p)))
                .collect();
            (name.as_str(), pts)
        })
        .collect();
    println!("{}", ascii::line_chart(title, &series, 64, 12, false));
}

fn main() {
    let seeds = flag_u64("--seeds", 100);
    let jobs = flag_u64("--jobs", 16) as usize;
    let gaps: Vec<f64> = (0..=10).map(|i| f64::from(i) * 30.0).collect();
    println!(
        "== Fig. 7: sweep submission gap {:?} (T_rescale_gap=180s, {seeds} seeds, {jobs} jobs) ==",
        gaps
    );

    let points = sweep_submission_gap(&gaps, 180.0, seeds, jobs);

    let mut table = CsvTable::new([
        "submission_gap_s",
        "policy",
        "utilization",
        "total_time_s",
        "weighted_response_s",
        "weighted_completion_s",
        "bounded_slowdown",
        "total_time_std",
    ]);
    for p in &points {
        table.row([
            format!("{}", p.x),
            p.policy.to_string(),
            format!("{:.4}", p.utilization),
            format!("{:.2}", p.total_time),
            format!("{:.2}", p.weighted_response),
            format!("{:.2}", p.weighted_completion),
            format!("{:.3}", p.bounded_slowdown),
            format!("{:.2}", p.total_time_std),
        ]);
    }
    emit_csv(&table, "fig7_submission_gap.csv");

    chart(
        &points,
        |p| p.utilization,
        "Fig 7a: utilization vs submission gap",
    );
    chart(
        &points,
        |p| p.total_time,
        "Fig 7b: total time (s) vs submission gap",
    );
    chart(
        &points,
        |p| p.weighted_response,
        "Fig 7c: weighted mean response (s)",
    );
    chart(
        &points,
        |p| p.weighted_completion,
        "Fig 7d: weighted mean completion (s)",
    );
    chart(
        &points,
        |p| p.bounded_slowdown,
        "Companion: mean bounded slowdown (tau=10s)",
    );

    // The paper's §4.3.1 narrative, checked on this sweep.
    let at = |x: f64, k: PolicyKind| points.iter().find(|p| p.x == x && p.policy == k).unwrap();
    println!("shape checks:");
    println!(
        "  utilization@gap90: elastic {:.3} >= moldable {:.3} >= rigid-min {:.3}: {}",
        at(90.0, PolicyKind::Elastic).utilization,
        at(90.0, PolicyKind::Moldable).utilization,
        at(90.0, PolicyKind::RigidMin).utilization,
        at(90.0, PolicyKind::Elastic).utilization >= at(90.0, PolicyKind::Moldable).utilization
            && at(90.0, PolicyKind::Moldable).utilization
                >= at(90.0, PolicyKind::RigidMin).utilization
    );
    println!(
        "  total@gap0: min_replicas {:.0} < max_replicas {:.0} (small-gap crossover): {}",
        at(0.0, PolicyKind::RigidMin).total_time,
        at(0.0, PolicyKind::RigidMax).total_time,
        at(0.0, PolicyKind::RigidMin).total_time < at(0.0, PolicyKind::RigidMax).total_time
    );
    println!(
        "  response: rigid-min lowest at gap 90: {}",
        PolicyKind::ALL.iter().all(|&k| {
            at(90.0, PolicyKind::RigidMin).weighted_response <= at(90.0, k).weighted_response + 1e-9
        })
    );
    println!(
        "  completion: rigid-min highest at gap 90: {}",
        PolicyKind::ALL.iter().all(|&k| {
            at(90.0, PolicyKind::RigidMin).weighted_completion
                >= at(90.0, k).weighted_completion - 1e-9
        })
    );
}
