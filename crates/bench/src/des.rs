//! The paper's simulator artifacts: the Fig. 7 and Fig. 8 sweeps, Table
//! 1 (whose Simulation column is the DES and whose Actual column is the
//! real campaign of [`crate::actual`]) and the elastic-policy
//! ablations.
//!
//! Paper §4.3.1: 16 random jobs (4 size classes, priorities 1–5), 100
//! seeds per point, four policies compared on utilization, total time,
//! weighted response and weighted completion time. The policy *code* is
//! the one the operator runs.

use elastic_core::{AgingSweep, Policy, PolicyConfig, PolicyKind, RunMetrics};
use elastic_hpc::scenario::{des, Scenario};
use hpc_metrics::{ascii, Duration, Summary};
use sched_sim::{generate_workload, WorkloadSpec};
use sched_sim::{sweep_rescale_gap, sweep_submission_gap, OverheadModel, SweepPoint};
use sched_sim::{DEFAULT_JOBS as JOBS, DEFAULT_SEEDS as SEEDS};

use crate::actual::run_campaign;
use crate::{Claim, CsvTable, Options, Report};

/// Workloads each ablation row averages over.
const ABLATION_SEEDS: u64 = 50;

/// Workloads (seeds `0..TABLE1_RATE_SEEDS`) over which `table1` reports
/// how often each of its per-workload claims holds.
const TABLE1_RATE_SEEDS: u64 = 100;

/// The sweep's points as CSV, `x_column` naming the swept coordinate.
fn sweep_table(x_column: &str, points: &[SweepPoint]) -> CsvTable {
    let mut table = CsvTable::new([
        x_column,
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
    table
}

/// Prints one line per policy of `metric` against the swept coordinate.
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

/// The point of policy `kind` at coordinate `x`.
fn at(points: &[SweepPoint], x: f64, kind: PolicyKind) -> &SweepPoint {
    let found = points.iter().find(|p| p.x == x && p.policy == kind);
    found.expect("the sweep covers every policy at every coordinate")
}

/// Fig. 7: metrics vs job submission gap (0–300 s), `T_rescale_gap`
/// 180 s, and the §4.3.1 narrative checked at gaps 0 and 90 s and, for
/// the claims only, at Fig. 7b's right edge (2 000 s).
pub fn fig7(_: &Options) -> Report {
    let gaps: Vec<f64> = (0..=10).map(|i| f64::from(i) * 30.0).collect();
    println!(
        "== Fig. 7: sweep submission gap {gaps:?} (T_rescale_gap=180s, {SEEDS} seeds, {JOBS} jobs) ==",
    );
    let points = sweep_submission_gap(&gaps, 180.0, SEEDS, JOBS);
    let edge = sweep_submission_gap(&[2000.0], 180.0, SEEDS, JOBS);
    let edge = PolicyKind::ALL.map(|kind| at(&edge, 2000.0, kind).total_time);
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

    let at = |x: f64, kind: PolicyKind| at(&points, x, kind);
    let (elastic, moldable, min) = (
        at(90.0, PolicyKind::Elastic).utilization,
        at(90.0, PolicyKind::Moldable).utilization,
        at(90.0, PolicyKind::RigidMin).utilization,
    );
    let (min0, max0) = (
        at(0.0, PolicyKind::RigidMin).total_time,
        at(0.0, PolicyKind::RigidMax).total_time,
    );
    let at90 = |metric: fn(&SweepPoint) -> f64| PolicyKind::ALL.map(|k| metric(at(90.0, k)));
    let (utilization, total) = (at90(|p| p.utilization), at90(|p| p.total_time));
    let response = at90(|p| p.weighted_response);
    let completion = at90(|p| p.weighted_completion);
    let [edge_min, edge_max, edge_moldable, edge_elastic] = edge;
    let claim = |statement, holds, detail| Claim {
        artifact: "fig7",
        statement,
        holds,
        detail,
    };
    let claims = vec![
        claim(
            "utilization at gap 90 s: elastic >= moldable >= rigid-min",
            elastic >= moldable && moldable >= min,
            format!("elastic {elastic:.3}, moldable {moldable:.3}, rigid-min {min:.3}"),
        ),
        claim(
            "total time at gap 0 s: rigid-min < rigid-max (small-gap crossover)",
            min0 < max0,
            format!("rigid-min {min0:.0} s, rigid-max {max0:.0} s"),
        ),
        claim(
            "weighted response at gap 90 s: rigid-min lowest",
            extreme(&response, PolicyKind::RigidMin, false),
            by_policy(&response, 2),
        ),
        claim(
            "weighted completion at gap 90 s: rigid-min highest",
            extreme(&completion, PolicyKind::RigidMin, true),
            by_policy(&completion, 2),
        ),
        // Table 1's two elastic statements, read over the population of
        // workloads rather than per workload.
        claim(
            "mean utilization at gap 90 s: elastic highest of the four",
            extreme(&utilization, PolicyKind::Elastic, true),
            by_policy(&utilization, 3),
        ),
        claim(
            "mean total time at gap 90 s: elastic lowest of the four",
            extreme(&total, PolicyKind::Elastic, false),
            by_policy(&total, 0),
        ),
        claim(
            "total time at gap 2000 s: elastic within 2 % of moldable and rigid-max",
            [edge_moldable, edge_max]
                .iter()
                .all(|t| (edge_elastic - t).abs() / edge_elastic < 0.02),
            by_policy(&edge, 0),
        ),
        claim(
            "total time at gap 2000 s: rigid-min lags elastic by > 100 s",
            edge_min > edge_elastic + 100.0,
            by_policy(&edge, 0),
        ),
    ];
    let table = sweep_table("submission_gap_s", &points);
    Report {
        tables: vec![("fig7_submission_gap.csv", table)],
        claims,
    }
}

/// Fig. 8: metrics vs `T_rescale_gap` (0–1200 s) at a 180 s submission
/// gap, once under the checkpoint/restart protocol and once under
/// `OverheadModel::incremental()` (the in-place protocol). Elastic
/// converges to moldable as the gap grows (moldable *is*
/// elastic-that-never-rescales), its total time grows with the gap
/// because rescaling recovers more than it costs, and cheaper
/// rescales never make it slower.
pub fn fig8(_: &Options) -> Report {
    let gaps = [0.0, 60.0, 120.0, 180.0, 300.0, 450.0, 600.0, 900.0, 1200.0];
    println!(
        "== Fig. 8: sweep T_rescale_gap {gaps:?} (submission gap 180s, {SEEDS} seeds, {JOBS} jobs) ==",
    );
    let points = sweep_rescale_gap(&gaps, 180.0, SEEDS, JOBS, OverheadModel::default());
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

    println!("\n== Fig. 8 companion: incremental (in-place) rescale protocol, same grid ==");
    let inc_points = sweep_rescale_gap(&gaps, 180.0, SEEDS, JOBS, OverheadModel::incremental());
    let elastic_total = |points: &[SweepPoint]| -> Vec<(f64, f64)> {
        let elastic = points.iter().filter(|p| p.policy == PolicyKind::Elastic);
        elastic.map(|p| (p.x, p.total_time)).collect()
    };
    let full_vs_inc = [
        ("elastic/full-restart", elastic_total(&points)),
        ("elastic/incremental", elastic_total(&inc_points)),
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
    let mut worst = f64::NEG_INFINITY;
    for &gap in &gaps {
        let full = at(&points, gap, PolicyKind::Elastic);
        let inc = at(&inc_points, gap, PolicyKind::Elastic);
        worst = worst.max(inc.total_time - full.total_time);
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

    let elastic = |x: f64| at(&points, x, PolicyKind::Elastic);
    let (e, m) = (elastic(1200.0), at(&points, 1200.0, PolicyKind::Moldable));
    let deltas = [
        (e.utilization - m.utilization).abs(),
        (e.total_time - m.total_time).abs(),
        (e.weighted_completion - m.weighted_completion).abs(),
    ];
    let claim = |statement, holds, detail| Claim {
        artifact: "fig8",
        statement,
        holds,
        detail,
    };
    let claims = vec![
        claim(
            "elastic utilization declines with the gap (0 s -> 1200 s)",
            elastic(0.0).utilization >= elastic(1200.0).utilization,
            format!("{:.3} -> {:.3}", elastic(0.0).utilization, elastic(1200.0).utilization),
        ),
        claim(
            "elastic total time grows with the gap (0 s -> 1200 s)",
            elastic(0.0).total_time <= elastic(1200.0).total_time,
            format!("{:.0} s -> {:.0} s", elastic(0.0).total_time, elastic(1200.0).total_time),
        ),
        // Moldable is elastic that never rescales: alike to rounding.
        claim(
            "elastic -> moldable at gap 1200 s (utilization, total and weighted completion within 1e-9)",
            deltas.iter().all(|&d| d < 1e-9),
            format!(
                "|Δutil| {:.1e}, |Δtotal| {:.1e}, |Δwcomp| {:.1e}",
                deltas[0], deltas[1], deltas[2]
            ),
        ),
        claim(
            "incremental rescale total time never exceeds full restart (every gap)",
            worst <= 1e-9,
            format!("largest incremental - full: {worst:+.2} s"),
        ),
    ];
    Report {
        tables: vec![
            (
                "fig8_rescale_gap.csv",
                sweep_table("rescale_gap_s", &points),
            ),
            (
                "fig8_rescale_gap_incremental.csv",
                sweep_table("rescale_gap_s", &inc_points),
            ),
        ],
        claims,
    }
}

/// Whether `kind`'s entry of `values` (one per policy of
/// [`PolicyKind::ALL`]) is the lowest of them, or the highest if
/// `highest`, within 1e-9.
fn extreme(values: &[f64], kind: PolicyKind, highest: bool) -> bool {
    let i = PolicyKind::ALL.iter().position(|&k| k == kind);
    let own = values[i.expect("ALL holds every kind")];
    let sign = if highest { -1.0 } else { 1.0 };
    values.iter().all(|&v| sign * own <= sign * v + 1e-9)
}

/// `values`, one per policy of [`PolicyKind::ALL`], as `name value`
/// pairs with `decimals` places.
fn by_policy(values: &[f64], decimals: usize) -> String {
    let pairs = PolicyKind::ALL.iter().zip(values);
    let pairs: Vec<String> = pairs.map(|(k, v)| format!("{k} {v:.decimals$}")).collect();
    pairs.join(", ")
}

/// Table 1's Simulation column for workload `seed` (the DES at paper
/// scale: 16 jobs 90 s apart, `T_rescale_gap` 180 s), one row per
/// policy of [`PolicyKind::ALL`], and the paper's four Table 1
/// statements checked on it.
pub fn table1_simulation_column(seed: u64) -> (Vec<RunMetrics>, Vec<Claim>) {
    let rows: Vec<RunMetrics> = sched_sim::table1_simulation(seed)
        .into_iter()
        .map(|(m, _)| m)
        .collect();
    let column = |metric: fn(&RunMetrics) -> f64| -> Vec<f64> { rows.iter().map(metric).collect() };
    let (util, total) = (column(|m| m.utilization), column(|m| m.total_time));
    let completion = column(|m| m.weighted_completion);
    let percent: Vec<f64> = util.iter().map(|u| u * 100.0).collect();
    let claim = |statement, holds, detail| Claim {
        artifact: "table1",
        statement,
        holds,
        detail,
    };
    let claims = vec![
        claim(
            "elastic best utilization",
            extreme(&util, PolicyKind::Elastic, true),
            by_policy(&percent, 2),
        ),
        claim(
            "elastic lowest total time",
            extreme(&total, PolicyKind::Elastic, false),
            by_policy(&total, 1),
        ),
        claim(
            "min_replicas lowest utilization",
            extreme(&util, PolicyKind::RigidMin, false),
            by_policy(&percent, 2),
        ),
        claim(
            "min_replicas highest completion",
            extreme(&completion, PolicyKind::RigidMin, true),
            by_policy(&completion, 2),
        ),
    ];
    (rows, claims)
}

/// Table 1: the Simulation column ([`table1_simulation_column`]) beside
/// the Actual column, the real operator with real Jacobi jobs on a
/// time-compressed clock, problem sizes scaled to the host as in
/// [`crate::actual`] (paper scale under `--full`). Paper: one job
/// configuration, submission gap 90 s, `T_rescale_gap` 180 s.
pub fn table1(options: &Options) -> Report {
    let seed = options.seed;
    println!("== Table 1 (seed {seed}) ==");
    println!("-- Simulation column (paper-scale DES) --");
    let (sim_rows, mut claims) = table1_simulation_column(seed);
    let mut held = vec![0; claims.len()];
    for other in 0..TABLE1_RATE_SEEDS {
        for (n, claim) in held.iter_mut().zip(table1_simulation_column(other).1) {
            *n += usize::from(claim.holds);
        }
    }
    for (claim, n) in claims.iter_mut().zip(held) {
        let rate = format!("; holds on {n} of seeds 0-{}", TABLE1_RATE_SEEDS - 1);
        claim.detail.push_str(&rate);
    }
    for m in &sim_rows {
        println!("  sim    {}", m.table_row());
    }
    println!("-- Actual column (real operator + charm-rt jobs, compressed clock) --");
    let mut actual_rows = Vec::new();
    for kind in PolicyKind::ALL {
        let res = run_campaign(kind, seed, options.full);
        println!("  actual {}", res.metrics.table_row());
        actual_rows.push(res.metrics);
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
    for (sim, actual) in sim_rows.iter().zip(&actual_rows) {
        table.row([
            sim.policy.clone(),
            format!("{:.2}", actual.total_time),
            format!("{:.2}", sim.total_time),
            format!("{:.2}", actual.utilization * 100.0),
            format!("{:.2}", sim.utilization * 100.0),
            format!("{:.2}", actual.weighted_response),
            format!("{:.2}", sim.weighted_response),
            format!("{:.2}", actual.weighted_completion),
            format!("{:.2}", sim.weighted_completion),
            format!("{:.2}", actual.mean_bounded_slowdown),
            format!("{:.2}", sim.mean_bounded_slowdown),
        ]);
    }
    Report {
        tables: vec![("table1.csv", table)],
        claims,
    }
}

/// One ablation row: a change against `baseline(paper)`.
struct Variant {
    label: &'static str,
    cfg: PolicyConfig,
    /// Wrap the policy in `AgingSweep` (600 s half-life, 90 s sweep).
    aging_sweep: bool,
}

/// `wl` under `v` on the paper's 64-slot testbed, calibrated models.
fn ablated(v: &Variant, wl: WorkloadSpec) -> Scenario {
    let elastic = Policy::of_kind(PolicyKind::Elastic, v.cfg);
    let (half_life, every) = (Duration::from_secs(600.0), Duration::from_secs(90.0));
    let scenario = if v.aging_sweep {
        Scenario::new(wl, 64, move || {
            AgingSweep::new(Box::new(elastic), half_life, every)
        })
    } else {
        Scenario::new(wl, 64, move || elastic)
    };
    scenario.with_overhead(OverheadModel::default())
}

/// Means of (utilization, total time, weighted response, rescales) of
/// `v` over [`ABLATION_SEEDS`] workloads spaced 90 s apart.
fn run_variant(v: &Variant) -> (f64, f64, f64, f64) {
    let mut util = Vec::new();
    let mut total = Vec::new();
    let mut resp = Vec::new();
    let mut resc = Vec::new();
    for seed in 0..ABLATION_SEEDS {
        let wl = generate_workload(seed, JOBS).spaced_every(Duration::from_secs(90.0));
        let out = des(&ablated(v, wl));
        util.push(out.metrics.utilization);
        total.push(out.metrics.total_time);
        resp.push(out.metrics.weighted_response);
        resc.push(f64::from(out.rescales));
    }
    let mean = |v: &[f64]| Summary::of(v).expect("non-empty").mean;
    (mean(&util), mean(&total), mean(&resp), mean(&resc))
}

/// Ablations of the elastic policy's interpretation decisions (the
/// numbered list in the `policy/elastic.rs` header of `elastic-core`),
/// each row one change against `baseline(paper)` (gap 180 s, one
/// launcher slot, head spared):
///
/// * `no-head-sparing` — Fig. 2 iterates `while index > 0`, never
///   shrinking the highest-priority running job; off here.
/// * `launcher=0` — the `freeSlots − 1` launcher term dropped.
/// * `gap=0s`, `gap=600s` — out-of-order backfill on completion,
///   measured indirectly: the rescale gap is what blocks in-order
///   expansion and forces backfill.
/// * `aging-sweep(600s/90s)` — the §3.2.2 starvation remedy: the policy
///   wrapped in `AgingSweep`, a queued job's priority doubling per
///   600 s of waiting, swept every 90 s.
pub fn ablations(_: &Options) -> Report {
    let base = PolicyConfig::default();
    let variant = |label, cfg, aging_sweep| Variant {
        label,
        cfg,
        aging_sweep,
    };
    let gap = |s: f64| PolicyConfig {
        rescale_gap: Duration::from_secs(s),
        ..base
    };
    let variants = [
        variant("baseline(paper)", base, false),
        variant(
            "no-head-sparing",
            PolicyConfig {
                shrink_spares_head: false,
                ..base
            },
            false,
        ),
        variant(
            "launcher=0",
            PolicyConfig {
                launcher_slots: 0,
                ..base
            },
            false,
        ),
        variant("gap=0s", gap(0.0), false),
        variant("gap=600s", gap(600.0), false),
        variant("aging-sweep(600s/90s)", base, true),
    ];

    println!("== Elastic-policy ablations ({ABLATION_SEEDS} seeds, submission gap 90s) ==");
    let mut table = CsvTable::new([
        "variant",
        "utilization",
        "total_time_s",
        "weighted_response_s",
        "rescales",
    ]);
    for v in &variants {
        let (util, total, resp, resc) = run_variant(v);
        println!(
            "  {:<18} util={util:.4} total={total:.1} wresp={resp:.2} rescales={resc:.1}",
            v.label
        );
        table.row([
            v.label.to_string(),
            format!("{util:.4}"),
            format!("{total:.2}"),
            format!("{resp:.2}"),
            format!("{resc:.1}"),
        ]);
    }
    Report {
        tables: vec![("ablations.csv", table)],
        claims: Vec::new(),
    }
}
