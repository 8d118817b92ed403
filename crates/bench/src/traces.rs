//! Policy sweeps over an SWF trace (`--trace`, by default the bundled
//! one), replayed through the DES on a 32-slot cluster: backfilling
//! disciplines under rising load, recovery strategies under spot
//! reclamation, and retry disciplines under transient-fault storms.

use elastic_core::{EasyBackfill, FcfsBackfill, Policy, PolicyConfig, RunMetrics};
use elastic_core::{RecoveryPolicy, RecoveryStrategy, SchedulingPolicy};
use elastic_hpc::scenario::{load_trace, run, Engine, Scenario};
use hpc_metrics::{ascii, Duration};
use sched_sim::{FaultSpec, FlakySpec, OverheadModel, SwfLoadConfig, WorkloadSpec};

use crate::{trace_horizon, Claim, CsvTable, Options, Report};

/// Cluster slots of every trace sweep.
const CAPACITY: u32 = 32;

/// Replays `wl` on the [`CAPACITY`]-slot cluster under `policy()`, the
/// default scaling model and the default overhead model.
fn replay<P: SchedulingPolicy + 'static>(
    wl: WorkloadSpec,
    policy: impl Fn() -> P + 'static,
) -> RunMetrics {
    let scenario = Scenario::new(wl, CAPACITY, policy).with_overhead(OverheadModel::default());
    run(&scenario, Engine::Des)
}

/// Prints `curves` against the swept intensity.
fn chart(title: &str, curves: &[(&str, Vec<(f64, f64)>)]) {
    println!("{}", ascii::line_chart(title, curves, 64, 12, false));
}

/// Arrival-compression factors swept (1 = the trace's own timeline).
const FACTORS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];

/// EASY vs conservative backfilling under rising trace load.
///
/// Replays the trace under three rigid backfilling baselines —
/// `FcfsBackfill` (reservation-less, patience guard), `EasyBackfill`
/// (shadow reservations on walltime estimates, FCFS candidate order),
/// and `EasyBackfill::sjbf()` (same reservation, shortest-job-first
/// candidate order) — at a sweep of arrival-compression factors
/// (`WorkloadSpec::compress_arrivals`): factor 1 is the archive's own
/// timeline, larger factors squeeze the same jobs into less time, so
/// the queue deepens and the backfilling discipline starts to matter.
///
/// The shape worth reading off the CSV: at and below the archive's own
/// load EASY's reservations never lose on mean bounded slowdown, and at
/// factor 1 they strictly win (earlier starts). At factor 0.5 the
/// jobs arrive so far apart that no queue forms and all three
/// disciplines start every job at once, so they tie. Under heavy
/// overload the reservation guarantee costs mean slowdown versus
/// unrestricted backfilling — the classic fairness-vs-throughput trade
/// of the backfilling literature.
pub fn easy_vs_conservative(options: &Options) -> Report {
    let path = &options.trace;
    let base = load_trace(path, &SwfLoadConfig::rigid(CAPACITY));
    println!(
        "== EASY vs conservative backfilling: {} jobs from {}, {CAPACITY} slots ==",
        base.len(),
        path.display()
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
    let (mut easy_never_loses, mut easy_wins_at_1) = (true, false);
    let mut detail = Vec::new();
    for factor in FACTORS {
        let wl = base.clone().compress_arrivals(factor);
        let fcfs = replay(wl.clone(), FcfsBackfill::new);
        let easy = replay(wl.clone(), EasyBackfill::new);
        let sjbf = replay(wl, EasyBackfill::sjbf);
        let (e, f) = (easy.mean_bounded_slowdown, fcfs.mean_bounded_slowdown);
        if factor <= 1.0 {
            easy_never_loses &= e <= f;
            easy_wins_at_1 = e < f;
            detail.push(format!("x{factor}: easy {e:.3} vs fcfs {f:.3}"));
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
    chart("mean bounded slowdown vs arrival compression", &curves);
    Report {
        tables: vec![("easy_vs_conservative.csv", table)],
        claims: vec![Claim {
            artifact: "easy_vs_conservative",
            statement: "EASY bsld <= FCFS backfill at factors <= 1, and < at factor 1",
            holds: easy_never_loses && easy_wins_at_1,
            detail: detail.join(", "),
        }],
    }
}

/// Reclaim/return pairs injected over the trace horizon.
const RECLAIM_PAIRS: [u32; 4] = [0, 1, 2, 4];

/// Slots each reclamation takes.
const RECLAIMED_SLOTS: u32 = CAPACITY / 4;

/// Seed for the deterministic reclamation schedule.
const RECLAIM_SEED: u64 = 7;

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

/// Fault tolerance: recovery strategies under spot reclamation.
///
/// Replays the trace (elastic malleability model) while a seeded
/// reclamation schedule repeatedly takes a block of slots away and
/// gives it back ([`FaultSpec::reclamation`]). Four recovery rows wrap
/// the same elastic policy:
///
/// - `shrink` ([`RecoveryStrategy::ShrinkOnReclaim`]) — malleable jobs
///   give slots back by shrinking toward their minimum; nothing is
///   killed unless shrinking cannot cover the deficit. No work is lost
///   for deficits the shrink range absorbs.
/// - `ckpt` ([`RecoveryStrategy::CheckpointRestart`]) — lowest-priority
///   running jobs are evicted and later restart from their last
///   periodic checkpoint, paying the measured restart overhead
///   ([`OverheadModel::recovery_total`], calibrated from
///   `BENCH_rescale.json`) plus the work since the checkpoint.
/// - `kill` ([`RecoveryStrategy::KillRequeue`]) — lowest-priority
///   running jobs are killed outright and resubmitted from scratch
///   after an exponential backoff; the whole attempt is wasted.
/// - `tuned` — checkpoint/restart again, but with the interval set to
///   the Young/Daly optimum ([`FaultSpec::tuned_checkpoint_interval`]):
///   δ from the overhead model's measured recovery cost, MTBF from the
///   injected reclamation schedule itself.
///
/// Each runs at 0, 1, 2 and 4 reclaim/return pairs over the trace
/// horizon. The shape worth reading off: shrink wastes (near) zero
/// work but squeezes running jobs; ckpt wastes only the checkpoint
/// remainder; kill wastes whole attempts and its bsld grows fastest
/// with intensity.
pub fn fault_tolerance(options: &Options) -> Report {
    let path = &options.trace;
    let base = load_trace(path, &SwfLoadConfig::elastic(CAPACITY));
    let horizon = trace_horizon(&base);
    println!(
        "== Fault tolerance: {} jobs from {}, {CAPACITY} slots, \
         reclamations of {RECLAIMED_SLOTS} slots over {:.0}s ==",
        base.len(),
        path.display(),
        horizon.as_secs()
    );

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
    for pairs in RECLAIM_PAIRS {
        for (i, &(label, strategy, tuned)) in rows.iter().enumerate() {
            let every = Duration::from_secs(600.0);
            let mut faults =
                FaultSpec::reclamation(RECLAIM_SEED, pairs, RECLAIMED_SLOTS, horizon, every);
            if tuned {
                // MTBF of the injected schedule; a fault-free row has
                // no faults to tune for, so any interval is optimal.
                let mtbf = Duration::from_secs(horizon.as_secs() / f64::from(pairs.max(1)));
                faults = faults.tuned_checkpoint_interval(delta, mtbf);
            }
            let interval = faults.checkpoint_interval;
            let m = replay(base.clone().with_faults(faults), move || {
                let elastic = Box::new(Policy::elastic(PolicyConfig::default()));
                RecoveryPolicy::new(elastic, strategy)
            });
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
    chart("wasted core-seconds vs reclamation intensity", &curves);
    Report {
        tables: vec![("fault_tolerance.csv", table)],
        claims: Vec::new(),
    }
}

/// Transient-fault storm sizes swept over the trace horizon.
const STORM_EVENTS: [u32; 5] = [0, 8, 16, 32, 64];

/// Seed for the deterministic storm schedules.
const STORM_SEED: u64 = 13;

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

/// Resilience: retry disciplines under transient-fault storms.
///
/// Replays the trace under FCFS backfill with kill-requeue recovery
/// while a seeded [`FlakySpec::storm`] of operation-level transient
/// faults (launch failures, crash-on-start, stuck rescales, heartbeat
/// misses) fires at increasing intensities. Three retry disciplines
/// face each storm:
///
/// - `breaker` — the full resilience layer: a circuit breaker (trip
///   after 5 consecutive failures, 120 s cooldown) in front of a
///   token-bucket retry budget. Once the breaker opens, faults are
///   absorbed instead of burning attempts; the budget bounds how many
///   retries a storm can extract.
/// - `naive` — retry everything: no breaker, effectively unlimited
///   budget. Every retryable fault burns an attempt, so sustained
///   storms walk jobs toward the `max_attempts` ceiling.
/// - `noretry` — retry nothing: no breaker, an empty budget. Every
///   retryable fault is denied, which forfeits the job's remaining
///   attempts and fails it permanently on the next requeue.
///
/// The shape worth reading off: `noretry` sacrifices jobs fastest,
/// `naive` wastes the most core-seconds re-running work the storm
/// keeps killing, and `breaker` holds both tails down.
pub fn resilience_sweep(options: &Options) -> Report {
    let path = &options.trace;
    let base = load_trace(path, &SwfLoadConfig::rigid(CAPACITY));
    let horizon = trace_horizon(&base);
    println!(
        "== Resilience sweep: {} jobs from {}, {CAPACITY} slots, \
         storms over {:.0}s ==",
        base.len(),
        path.display(),
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
    let labels = disciplines(FlakySpec::default()).map(|(l, _)| l);
    let mut curves: Vec<(&str, Vec<(f64, f64)>)> =
        labels.iter().map(|&l| (l, Vec::new())).collect();
    for n in STORM_EVENTS {
        let storm = FlakySpec::storm(STORM_SEED, n, horizon);
        for (i, (label, spec)) in disciplines(storm).into_iter().enumerate() {
            let wl = base
                .clone()
                .with_faults(FaultSpec::default().with_flaky(spec));
            let m = replay(wl, || {
                let fcfs = Box::new(FcfsBackfill::new());
                RecoveryPolicy::new(fcfs, RecoveryStrategy::KillRequeue)
            });
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
    chart("permanently failed jobs vs storm intensity", &curves);
    Report {
        tables: vec![("resilience_sweep.csv", table)],
        claims: Vec::new(),
    }
}
