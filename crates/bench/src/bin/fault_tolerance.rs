//! Fault-tolerance sweep: recovery strategies under spot reclamation.
//!
//! Replays the bundled SWF trace (elastic malleability model) through
//! the DES while a seeded reclamation schedule repeatedly takes a block
//! of slots away and gives it back ([`FaultSpec::reclamation`]). Three
//! recovery strategies wrap the same elastic policy:
//!
//! - `shrink` ([`RecoveryStrategy::ShrinkOnReclaim`]) — malleable jobs
//!   give slots back by shrinking toward their minimum; nothing is
//!   killed unless shrinking cannot cover the deficit. No work is lost
//!   for deficits the shrink range absorbs.
//! - `ckpt` ([`RecoveryStrategy::CheckpointRestart`]) — lowest-priority
//!   running jobs are evicted and later restart from their last
//!   periodic checkpoint, paying the measured restart overhead
//!   ([`OverheadModel::recovery_total`], calibrated from
//!   `BENCH_rescale.json`) plus the work since the checkpoint.
//! - `kill` ([`RecoveryStrategy::KillRequeue`]) — lowest-priority
//!   running jobs are killed outright and resubmitted from scratch
//!   after an exponential backoff; the whole attempt is wasted.
//! - `tuned` — checkpoint/restart again, but with the interval set to
//!   the Young/Daly optimum ([`FaultSpec::tuned_checkpoint_interval`]):
//!   δ from the overhead model's measured recovery cost, MTBF from the
//!   injected reclamation schedule itself.
//!
//! The sweep runs each strategy at increasing reclamation intensities
//! (0, 1, 2, 4 reclaim/return pairs over the trace horizon) and emits
//! `results/fault_tolerance.csv` with bounded slowdown, wasted
//! core-seconds, and the recovery tallies. The shape worth reading off:
//! shrink wastes (near) zero work but squeezes running jobs; ckpt
//! wastes only the checkpoint remainder; kill wastes whole attempts and
//! its bsld grows fastest with intensity.
//!
//! Usage: `fault_tolerance [--trace path.swf] [--capacity N] [--slots N]`

use elastic_bench::{emit_csv, flag_u64, load_trace, trace_horizon, trace_path, CsvTable};
use elastic_core::{Policy, PolicyConfig, RecoveryPolicy, RecoveryStrategy, RunMetrics};
use hpc_metrics::{ascii, Duration};
use sched_sim::{simulate, OverheadModel, ScalingModel, SimConfig};
use sched_sim::{FaultSpec, SwfLoadConfig, WorkloadSpec};

/// Reclaim/return pairs injected over the trace horizon.
const INTENSITIES: [u32; 4] = [0, 1, 2, 4];

/// Seed for the deterministic reclamation schedule.
const SEED: u64 = 7;

fn replay(strategy: RecoveryStrategy, capacity: u32, wl: &WorkloadSpec) -> RunMetrics {
    let cfg = SimConfig {
        capacity,
        policy: Box::new(RecoveryPolicy::new(
            Box::new(Policy::elastic(PolicyConfig::default())),
            strategy,
        )),
        scaling: ScalingModel::default(),
        overhead: OverheadModel::default(),
        cancellations: Vec::new(),
    };
    simulate(&cfg, wl).metrics
}

/// The measured per-eviction recovery cost δ feeding the Young/Daly
/// interval: the overhead model's restart-plus-state-reload total,
/// averaged over the trace's jobs at their maximum sizes.
fn mean_recovery_cost(wl: &WorkloadSpec, overhead: &OverheadModel) -> Duration {
    let total: f64 = wl
        .jobs
        .iter()
        .map(|j| {
            overhead
                .recovery_total(&j.shape, j.shape.max_replicas())
                .as_secs()
        })
        .sum();
    Duration::from_secs(total / wl.len().max(1) as f64)
}

fn main() {
    let capacity = flag_u64("--capacity", 32) as u32;
    let slots = flag_u64("--slots", (capacity / 4).max(1).into()) as u32;
    let path = trace_path();
    let base = load_trace(&path, &SwfLoadConfig::elastic(capacity));
    let horizon = trace_horizon(&base);
    println!(
        "== Fault tolerance: {} jobs from {path}, {capacity} slots, \
         reclamations of {slots} slots over {:.0}s ==",
        base.len(),
        horizon.as_secs()
    );

    // The fourth column re-runs checkpoint/restart with the interval
    // auto-tuned to the Young/Daly optimum: δ from the overhead
    // model's measured recovery cost, MTBF from the reclamation
    // schedule itself (horizon / pairs).
    let delta = mean_recovery_cost(&base, &OverheadModel::default());
    let rows: [(&str, RecoveryStrategy, bool); 4] = [
        ("shrink", RecoveryStrategy::ShrinkOnReclaim, false),
        ("ckpt", RecoveryStrategy::CheckpointRestart, false),
        ("kill", RecoveryStrategy::KillRequeue, false),
        ("tuned", RecoveryStrategy::CheckpointRestart, true),
    ];
    let mut table = CsvTable::new([
        "reclaim_pairs",
        "strategy",
        "ckpt_interval_s",
        "utilization",
        "total_time_s",
        "bounded_slowdown",
        "wasted_core_seconds",
        "evictions",
        "requeues",
        "permanent_failures",
    ]);
    let mut curves: Vec<(&str, Vec<(f64, f64)>)> =
        rows.iter().map(|&(l, _, _)| (l, Vec::new())).collect();
    for pairs in INTENSITIES {
        for (i, &(label, strategy, tuned)) in rows.iter().enumerate() {
            let mut faults =
                FaultSpec::reclamation(SEED, pairs, slots, horizon, Duration::from_secs(600.0));
            if tuned {
                // MTBF of the injected schedule; a fault-free row has
                // no faults to tune for, so any interval is optimal.
                let mtbf = Duration::from_secs(horizon.as_secs() / f64::from(pairs.max(1)));
                faults = faults.tuned_checkpoint_interval(delta, mtbf);
            }
            let interval = faults.checkpoint_interval;
            let wl = base.clone().with_faults(faults);
            let m = replay(strategy, capacity, &wl);
            println!(
                "  pairs={pairs} {label:<6} tau={:<5.0} bsld={:<7.3} wasted={:<10.0} \
                 evict={:<3} requeue={:<3} failed={}",
                interval.as_secs(),
                m.mean_bounded_slowdown,
                m.faults.wasted_core_seconds,
                m.faults.evictions,
                m.faults.requeues,
                m.faults.permanent_failures,
            );
            table.row([
                format!("{pairs}"),
                label.to_string(),
                format!("{:.0}", interval.as_secs()),
                format!("{:.4}", m.utilization),
                format!("{:.2}", m.total_time),
                format!("{:.3}", m.mean_bounded_slowdown),
                format!("{:.1}", m.faults.wasted_core_seconds),
                format!("{}", m.faults.evictions),
                format!("{}", m.faults.requeues),
                format!("{}", m.faults.permanent_failures),
            ]);
            curves[i]
                .1
                .push((f64::from(pairs), m.faults.wasted_core_seconds));
        }
    }
    emit_csv(&table, "fault_tolerance.csv");
    println!(
        "{}",
        ascii::line_chart(
            "wasted core-seconds vs reclamation intensity",
            &curves,
            64,
            12,
            false,
        )
    );
}
