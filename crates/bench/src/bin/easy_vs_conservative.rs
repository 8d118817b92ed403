//! EASY vs conservative backfilling under rising trace load.
//!
//! Replays the bundled SWF trace through the DES under three rigid
//! backfilling baselines — `FcfsBackfill` (reservation-less, patience
//! guard), `EasyBackfill` (shadow reservations on walltime estimates,
//! FCFS candidate order), and `EasyBackfill::sjbf()` (same reservation,
//! shortest-job-first candidate order) — at a sweep of
//! arrival-compression factors
//! (`WorkloadSpec::compress_arrivals`): factor 1 is the archive's own
//! timeline, larger factors squeeze the same jobs into less time, so
//! the queue deepens and the backfilling discipline starts to matter.
//! Emits `results/easy_vs_conservative.csv` and an ASCII quick-look of
//! mean bounded slowdown vs load.
//!
//! The shape worth reading off the CSV: at and below the archive's own
//! load EASY's reservations strictly win (earlier starts, better mean
//! bounded slowdown); under heavy overload the reservation guarantee
//! costs mean slowdown versus unrestricted backfilling — the classic
//! fairness-vs-throughput trade of the backfilling literature, now
//! reproducible from one command.
//!
//! Usage: `easy_vs_conservative [--trace path.swf] [--capacity N]`

use elastic_bench::{emit_csv, flag_u64, load_trace, trace_path, CsvTable};
use elastic_core::{EasyBackfill, FcfsBackfill, RunMetrics, SchedulingPolicy};
use hpc_metrics::ascii;
use sched_sim::{simulate, OverheadModel, ScalingModel, SimConfig};
use sched_sim::{SwfLoadConfig, WorkloadSpec};

/// Arrival-compression factors swept (1 = the trace's own timeline).
const FACTORS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];

fn replay(policy: Box<dyn SchedulingPolicy>, capacity: u32, wl: &WorkloadSpec) -> RunMetrics {
    let cfg = SimConfig {
        capacity,
        policy,
        scaling: ScalingModel::default(),
        overhead: OverheadModel::default(),
        cancellations: Vec::new(),
    };
    simulate(&cfg, wl).metrics
}

fn main() {
    let capacity = flag_u64("--capacity", 32) as u32;
    let path = trace_path();
    let base = load_trace(&path, &SwfLoadConfig::rigid(capacity));
    println!(
        "== EASY vs conservative backfilling: {} jobs from {path}, {capacity} slots ==",
        base.len()
    );

    let mut table = CsvTable::new([
        "compression_factor",
        "policy",
        "utilization",
        "total_time_s",
        "weighted_response_s",
        "weighted_completion_s",
        "bounded_slowdown",
    ]);
    let mut curves: Vec<(&str, Vec<(f64, f64)>)> = vec![
        ("fcfs_backfill", Vec::new()),
        ("easy_backfill", Vec::new()),
        ("easy_sjbf", Vec::new()),
    ];
    let mut easy_wins = 0usize;
    for factor in FACTORS {
        let wl = base.clone().compress_arrivals(factor);
        let fcfs = replay(Box::new(FcfsBackfill::new()), capacity, &wl);
        let easy = replay(Box::new(EasyBackfill::new()), capacity, &wl);
        let sjbf = replay(Box::new(EasyBackfill::sjbf()), capacity, &wl);
        if easy.mean_bounded_slowdown <= fcfs.mean_bounded_slowdown {
            easy_wins += 1;
        }
        for m in [&fcfs, &easy, &sjbf] {
            println!("  x{factor:<4} {}", m.table_row());
            table.row([
                format!("{factor}"),
                m.policy.clone(),
                format!("{:.4}", m.utilization),
                format!("{:.2}", m.total_time),
                format!("{:.2}", m.weighted_response),
                format!("{:.2}", m.weighted_completion),
                format!("{:.3}", m.mean_bounded_slowdown),
            ]);
        }
        curves[0].1.push((factor, fcfs.mean_bounded_slowdown));
        curves[1].1.push((factor, easy.mean_bounded_slowdown));
        curves[2].1.push((factor, sjbf.mean_bounded_slowdown));
    }
    emit_csv(&table, "easy_vs_conservative.csv");
    println!(
        "{}",
        ascii::line_chart(
            "mean bounded slowdown vs arrival compression",
            &curves,
            64,
            12,
            false,
        )
    );
    println!(
        "  easy <= conservative on bsld at {easy_wins}/{} load points",
        FACTORS.len()
    );
}
