//! Fig. 8 — simulated scheduler metrics vs `T_rescale_gap`.
//!
//! Paper: submission gap fixed at 180 s, `T_rescale_gap` swept 0–1200 s.
//! Elastic's metrics converge to moldable's as the gap grows (moldable
//! *is* elastic-that-never-rescales), and the total time increases
//! monotonically with the gap because overhead is cheap relative to the
//! utilization recovered by rescaling.
//!
//! A companion sweep re-runs the same grid under
//! `OverheadModel::incremental()` (the in-place rescale protocol):
//! cheaper rescales mean the elastic policy keeps more of its
//! utilization edge as the gap grows, and its total-time penalty vs
//! the full-restart protocol shrinks at every gap.
//!
//! Usage: `fig8_rescale_gap [--seeds N] [--jobs N]`

use elastic_bench::{emit_csv, flag_u64, CsvTable};
use elastic_core::PolicyKind;
use hpc_metrics::ascii;
use sched_sim::{sweep_rescale_gap, OverheadModel, SweepPoint};

fn emit_points_csv(points: &[SweepPoint], name: &str) {
    let mut table = CsvTable::new([
        "rescale_gap_s",
        "policy",
        "utilization",
        "total_time_s",
        "weighted_response_s",
        "weighted_completion_s",
        "bounded_slowdown",
        "total_time_std",
    ]);
    for p in points {
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
    emit_csv(&table, name);
}

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
    let gaps = [0.0, 60.0, 120.0, 180.0, 300.0, 450.0, 600.0, 900.0, 1200.0];
    println!(
        "== Fig. 8: sweep T_rescale_gap {:?} (submission gap 180s, {seeds} seeds, {jobs} jobs) ==",
        gaps
    );

    let points = sweep_rescale_gap(&gaps, 180.0, seeds, jobs, OverheadModel::default());
    emit_points_csv(&points, "fig8_rescale_gap.csv");

    chart(
        &points,
        |p| p.utilization,
        "Fig 8a: utilization vs T_rescale_gap",
    );
    chart(
        &points,
        |p| p.total_time,
        "Fig 8b: total time (s) vs T_rescale_gap",
    );
    chart(
        &points,
        |p| p.weighted_response,
        "Fig 8c: weighted mean response (s)",
    );
    chart(
        &points,
        |p| p.weighted_completion,
        "Fig 8d: weighted mean completion (s)",
    );

    let at = |x: f64, k: PolicyKind| points.iter().find(|p| p.x == x && p.policy == k).unwrap();
    println!("shape checks:");
    println!(
        "  elastic utilization declines with gap: {:.3} (0s) -> {:.3} (1200s): {}",
        at(0.0, PolicyKind::Elastic).utilization,
        at(1200.0, PolicyKind::Elastic).utilization,
        at(0.0, PolicyKind::Elastic).utilization >= at(1200.0, PolicyKind::Elastic).utilization
    );
    println!(
        "  elastic total grows with gap: {:.0} (0s) -> {:.0} (1200s): {}",
        at(0.0, PolicyKind::Elastic).total_time,
        at(1200.0, PolicyKind::Elastic).total_time,
        at(0.0, PolicyKind::Elastic).total_time <= at(1200.0, PolicyKind::Elastic).total_time
    );
    let e = at(1200.0, PolicyKind::Elastic);
    let m = at(1200.0, PolicyKind::Moldable);
    println!(
        "  elastic -> moldable at large gap: |Δutil|={:.4} |Δtotal|={:.1}",
        (e.utilization - m.utilization).abs(),
        (e.total_time - m.total_time).abs()
    );

    // Companion: the same grid under the in-place (incremental) rescale
    // protocol. Rescales cost bytes-moved instead of a full
    // checkpoint/restart cycle, so elastic pays less for every rescale
    // it performs.
    println!("\n== Fig. 8 companion: incremental (in-place) rescale protocol, same grid ==");
    let inc_points = sweep_rescale_gap(&gaps, 180.0, seeds, jobs, OverheadModel::incremental());
    emit_points_csv(&inc_points, "fig8_rescale_gap_incremental.csv");

    let inc_at = |x: f64, k: PolicyKind| {
        inc_points
            .iter()
            .find(|p| p.x == x && p.policy == k)
            .unwrap()
    };
    let full_vs_inc: Vec<(&str, Vec<(f64, f64)>)> = vec![
        (
            "elastic/full-restart",
            points
                .iter()
                .filter(|p| p.policy == PolicyKind::Elastic)
                .map(|p| (p.x, p.total_time))
                .collect(),
        ),
        (
            "elastic/incremental",
            inc_points
                .iter()
                .filter(|p| p.policy == PolicyKind::Elastic)
                .map(|p| (p.x, p.total_time))
                .collect(),
        ),
    ];
    println!(
        "{}",
        ascii::line_chart(
            "Fig 8 companion: elastic total time (s), full restart vs incremental",
            &full_vs_inc,
            64,
            12,
            false
        )
    );
    println!("protocol comparison (elastic):");
    let mut inc_never_worse = true;
    for &gap in &gaps {
        let full = at(gap, PolicyKind::Elastic);
        let inc = inc_at(gap, PolicyKind::Elastic);
        inc_never_worse &= inc.total_time <= full.total_time + 1e-9;
        println!(
            "  gap={:>6.0}s  total {:.0}s -> {:.0}s ({:+.1}%)  util {:.3} -> {:.3}",
            gap,
            full.total_time,
            inc.total_time,
            100.0 * (inc.total_time - full.total_time) / full.total_time,
            full.utilization,
            inc.utilization,
        );
    }
    println!(
        "  incremental total time never exceeds full restart: {}",
        inc_never_worse
    );
}
