//! Resilience sweep: retry discipline under transient-fault storms.
//!
//! Replays the bundled SWF trace through the DES while a seeded
//! [`FlakySpec::storm`] of operation-level transient faults (launch
//! failures, crash-on-start, stuck rescales, heartbeat misses) fires at
//! increasing intensities. Three retry disciplines face each storm:
//!
//! - `breaker` — the full resilience layer: a circuit breaker (trip
//!   after 5 consecutive failures, 120 s cooldown) in front of a
//!   token-bucket retry budget. Once the breaker opens, faults are
//!   absorbed instead of burning attempts; the budget bounds how many
//!   retries a storm can extract.
//! - `naive` — retry everything: no breaker, effectively unlimited
//!   budget. Every retryable fault burns an attempt, so sustained
//!   storms walk jobs toward the `max_attempts` ceiling.
//! - `noretry` — retry nothing: no breaker, an empty budget. Every
//!   retryable fault is denied, which forfeits the job's remaining
//!   attempts and fails it permanently on the next requeue.
//!
//! The sweep emits `results/resilience_sweep.csv` plus an ascii chart
//! of permanently-failed jobs per intensity. The shape worth reading
//! off: `noretry` sacrifices jobs fastest, `naive` wastes the most
//! core-seconds re-running work the storm keeps killing, and `breaker`
//! holds both tails down.
//!
//! Usage: `resilience_sweep [--trace path.swf] [--capacity N]`

use elastic_bench::{emit_csv, flag_u64, load_trace, trace_horizon, trace_path, CsvTable};
use elastic_core::{FcfsBackfill, RecoveryPolicy, RecoveryStrategy, RunMetrics};
use hpc_metrics::{ascii, Duration};
use sched_sim::{simulate, OverheadModel, ScalingModel, SimConfig};
use sched_sim::{FaultSpec, FlakySpec, SwfLoadConfig, WorkloadSpec};

/// Transient-fault storm sizes swept over the trace horizon.
const INTENSITIES: [u32; 5] = [0, 8, 16, 32, 64];

/// Seed for the deterministic storm schedules.
const SEED: u64 = 13;

fn replay(capacity: u32, wl: &WorkloadSpec) -> RunMetrics {
    let cfg = SimConfig {
        capacity,
        policy: Box::new(RecoveryPolicy::new(
            Box::new(FcfsBackfill::new()),
            RecoveryStrategy::KillRequeue,
        )),
        scaling: ScalingModel::default(),
        overhead: OverheadModel::default(),
        cancellations: Vec::new(),
    };
    simulate(&cfg, wl).metrics
}

/// The three retry disciplines, as `FlakySpec` decorations of the same
/// seeded storm. A `u32::MAX` threshold never trips the breaker; a
/// `1e9`-token budget never runs dry over any realistic storm.
fn disciplines(storm: FlakySpec) -> [(&'static str, FlakySpec); 3] {
    let off = Duration::from_secs(1.0);
    [
        ("breaker", storm.clone()),
        (
            "naive",
            storm
                .clone()
                .with_breaker(u32::MAX, off)
                .with_retry_budget(1e9, 0.0),
        ),
        (
            "noretry",
            storm
                .with_breaker(u32::MAX, off)
                .with_retry_budget(0.0, 0.0),
        ),
    ]
}

fn main() {
    let capacity = flag_u64("--capacity", 32) as u32;
    let path = trace_path();
    let base = load_trace(&path, &SwfLoadConfig::rigid(capacity));
    let horizon = trace_horizon(&base);
    println!(
        "== Resilience sweep: {} jobs from {path}, {capacity} slots, \
         storms over {:.0}s ==",
        base.len(),
        horizon.as_secs()
    );

    let mut table = CsvTable::new([
        "storm_events",
        "discipline",
        "completed_jobs",
        "bounded_slowdown",
        "wasted_core_seconds",
        "transient_faults",
        "retries",
        "breaker_trips",
        "requeues",
        "permanent_failures",
    ]);
    let labels: Vec<&str> = disciplines(FlakySpec::default())
        .iter()
        .map(|(l, _)| *l)
        .collect();
    let mut curves: Vec<(&str, Vec<(f64, f64)>)> =
        labels.iter().map(|&l| (l, Vec::new())).collect();
    for n in INTENSITIES {
        let storm = FlakySpec::storm(SEED, n, horizon);
        for (i, (label, spec)) in disciplines(storm).into_iter().enumerate() {
            let wl = base
                .clone()
                .with_faults(FaultSpec::default().with_flaky(spec));
            let m = replay(capacity, &wl);
            println!(
                "  storm={n:<3} {label:<8} done={:<3} bsld={:<7.3} wasted={:<9.0} \
                 retries={:<3} trips={:<2} failed={}",
                m.jobs.len(),
                m.mean_bounded_slowdown,
                m.faults.wasted_core_seconds,
                m.faults.retries,
                m.faults.breaker_trips,
                m.faults.permanent_failures,
            );
            table.row([
                format!("{n}"),
                label.to_string(),
                format!("{}", m.jobs.len()),
                format!("{:.3}", m.mean_bounded_slowdown),
                format!("{:.1}", m.faults.wasted_core_seconds),
                format!("{}", m.faults.transient_faults),
                format!("{}", m.faults.retries),
                format!("{}", m.faults.breaker_trips),
                format!("{}", m.faults.requeues),
                format!("{}", m.faults.permanent_failures),
            ]);
            curves[i]
                .1
                .push((f64::from(n), f64::from(m.faults.permanent_failures)));
        }
    }
    emit_csv(&table, "resilience_sweep.csv");
    println!(
        "{}",
        ascii::line_chart(
            "permanently failed jobs vs storm intensity",
            &curves,
            64,
            12,
            false,
        )
    );
}
