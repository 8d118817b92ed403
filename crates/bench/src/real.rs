//! The artifacts that time real `charm-rt` runs on this host: strong
//! scaling (Fig. 4), rescale overhead (Fig. 5 and the protocol
//! comparison), the rescale timeline (Fig. 6) and the scaling anchors
//! the simulator is calibrated from. Replica counts follow
//! [`replica_ladder`]; problem sizes are scaled to the host unless
//! `--full`.

use charm_apps::{IterativeDriver, JacobiApp, JacobiConfig, LeanMdApp, LeanMdConfig};
use charm_rt::{GreedyLb, RescaleMode, RescaleReport, RuntimeConfig};
use hpc_metrics::ascii;

use crate::{replica_ladder, Claim, CsvTable, Options, Report};

/// Timed windows per measurement, after one warm-up window.
const WINDOWS: u64 = 2;

/// Per-PE startup surrogate charged on a restart, standing in for the
/// MPI job launch that dominates the paper's restart stage (thread
/// relaunch is microseconds).
const MPI_STARTUP: std::time::Duration = std::time::Duration::from_millis(25);

/// The best time per iteration over [`WINDOWS`] windows of `iters`
/// iterations, after one warm-up window of the same length; shuts
/// `driver` down.
fn best_time_per_iter(mut driver: IterativeDriver, iters: u64) -> f64 {
    driver.run_window(iters).expect("warm-up window");
    let mut best = f64::INFINITY;
    for _ in 0..WINDOWS {
        let window = driver.run_window(iters).expect("window");
        best = best.min(window.time_per_iter().as_secs());
    }
    driver.shutdown();
    best
}

/// Jacobi2D on a `grid`² grid in 8×8 blocks (64 chares: over-decomposed
/// for any ladder rung) on `pes` PEs, 10-iteration windows.
fn measure_jacobi(grid: usize, pes: usize) -> f64 {
    let app = JacobiApp::new(JacobiConfig::new(grid, 8, 8), RuntimeConfig::new(pes));
    best_time_per_iter(app.driver, 10)
}

/// Prints `series` (named by `String`) against replicas, log y.
fn scaling_chart(title: &str, series: &[(String, Vec<(f64, f64)>)]) {
    let named: Vec<(&str, Vec<(f64, f64)>)> = series
        .iter()
        .map(|(n, p)| (n.as_str(), p.clone()))
        .collect();
    println!("{}", ascii::line_chart(title, &named, 60, 12, true));
}

/// Fig. 4: strong scaling of Jacobi2D and LeanMD.
///
/// Paper: Jacobi2D over grids {2048², 8192², 16384²} and LeanMD over
/// cell grids {4×4×4, 4×4×8, 4×8×8}, 4–64 replicas on EKS. Here the
/// same apps run on `charm-rt` PE threads, Jacobi grids scaled to the
/// host ({512², 1024², 2048²}; the paper's under `--full`).
pub fn fig4(options: &Options) -> Report {
    println!("== Fig. 4a: Jacobi2D strong scaling ==");
    let grids: Vec<usize> = if options.full {
        vec![2048, 8192, 16_384]
    } else {
        vec![512, 1024, 2048]
    };
    let ladder = replica_ladder(64);
    let mut jacobi = CsvTable::new(["grid", "replicas", "time_per_iter_s"]);
    let mut series = Vec::new();
    for &grid in &grids {
        let mut pts = Vec::new();
        for &pes in &ladder {
            let t = measure_jacobi(grid, pes);
            println!("  jacobi {grid}x{grid}  p={pes:<3} t_iter={t:.6}s");
            jacobi.row([grid.to_string(), pes.to_string(), format!("{t:.9}")]);
            pts.push((pes as f64, t));
        }
        series.push((format!("{grid}x{grid}"), pts));
    }
    scaling_chart("time/iter vs replicas (log y)", &series);

    println!("== Fig. 4b: LeanMD strong scaling ==");
    let mut leanmd = CsvTable::new(["cells", "replicas", "time_per_step_s"]);
    let mut series = Vec::new();
    for cells in [(4, 4, 4), (4, 4, 8), (4, 8, 8)] {
        let label = format!("{}x{}x{}", cells.0, cells.1, cells.2);
        let mut pts = Vec::new();
        for &pes in &ladder {
            let mut cfg = LeanMdConfig::new(cells, 24);
            cfg.dt = 1e-5;
            let t = best_time_per_iter(LeanMdApp::new(cfg, RuntimeConfig::new(pes)).driver, 3);
            println!("  leanmd {label}  p={pes:<3} t_step={t:.6}s");
            leanmd.row([label.clone(), pes.to_string(), format!("{t:.9}")]);
            pts.push((pes as f64, t));
        }
        series.push((label, pts));
    }
    scaling_chart("time/step vs replicas (log y)", &series);
    Report {
        tables: vec![
            ("fig4a_jacobi_scaling.csv", jacobi),
            ("fig4b_leanmd_scaling.csv", leanmd),
        ],
        claims: Vec::new(),
    }
}

/// A Jacobi2D problem: grid dimension and blocks per dimension.
type Problem = (usize, u64);

/// The problem of Fig. 5's replica sweeps and the protocol comparison.
fn rescaled_problem(full: bool) -> Problem {
    if full {
        (8192, 16)
    } else {
        (1024, 8)
    }
}

/// One `from -> to` rescale of a Jacobi app under `mode`, after a
/// 5-iteration warm-up, and how many chares sat on PEs `to..from` (the
/// ones a shrink retires) just before it.
fn rescale_once(
    (grid, blocks): Problem,
    from: usize,
    to: usize,
    mode: RescaleMode,
) -> (RescaleReport, usize) {
    let rt_cfg = RuntimeConfig::new(from).with_startup_delay(MPI_STARTUP);
    let mut app = JacobiApp::new(JacobiConfig::new(grid, blocks, blocks), rt_cfg);
    app.run_window(5).expect("warmup");
    let dying = app.driver.rt.occupancy().iter().skip(to).sum();
    let report = app.driver.rt.rescale_with_mode(to, &GreedyLb, mode);
    app.shutdown();
    (report, dying)
}

/// One Fig. 5 panel: a full-restart rescale per rung `(x, problem,
/// from, to)`, printed as a stage breakdown, charted against `x` (log
/// y) and returned as CSV keyed by `x_column`.
fn stage_panel(title: &str, x_column: &str, rungs: &[(usize, Problem, usize, usize)]) -> CsvTable {
    let mut table = CsvTable::new([x_column, "lb", "ckpt", "restart", "restore", "total"]);
    let mut rows = Vec::new();
    for &(x, problem, from, to) in rungs {
        let (r, _) = rescale_once(problem, from, to, RescaleMode::FullRestart);
        println!(
            "  {:<18} lb={:<8.4} ckpt={:<8.4} restart={:<8.4} restore={:<8.4} total={:<8.4}",
            format!("{x_column}={x} {from}->{to}"),
            r.stages.lb.as_secs(),
            r.stages.checkpoint.as_secs(),
            r.stages.restart.as_secs(),
            r.stages.restore.as_secs(),
            r.total().as_secs()
        );
        table.row([
            x.to_string(),
            format!("{:.6}", r.stages.lb.as_secs()),
            format!("{:.6}", r.stages.checkpoint.as_secs()),
            format!("{:.6}", r.stages.restart.as_secs()),
            format!("{:.6}", r.stages.restore.as_secs()),
            format!("{:.6}", r.total().as_secs()),
        ]);
        rows.push((x as f64, r));
    }
    let pick = |f: fn(&RescaleReport) -> f64| -> Vec<(f64, f64)> {
        rows.iter().map(|(x, r)| (*x, f(r).max(1e-6))).collect()
    };
    let series = [
        ("lb", pick(|r| r.stages.lb.as_secs())),
        ("ckpt", pick(|r| r.stages.checkpoint.as_secs())),
        ("restart", pick(|r| r.stages.restart.as_secs())),
        ("restore", pick(|r| r.stages.restore.as_secs())),
        ("total", pick(|r| r.total().as_secs())),
    ];
    println!("{}", ascii::line_chart(title, &series, 60, 12, true));
    table
}

/// Fig. 5: the contribution of each rescale stage (load balance,
/// checkpoint, restart, restore) to the overhead of the
/// checkpoint/restart protocol (`RescaleMode::FullRestart`), on
/// Jacobi2D: (a) shrink to half and (b) expand to double for each
/// replica count, (c) shrink to half for each grid size. Restart time
/// in the paper is dominated by MPI job launch, which grows with rank
/// count, so each PE is charged a 25 ms startup surrogate.
pub fn fig5(options: &Options) -> Report {
    let problem = rescaled_problem(options.full);
    let ladder = replica_ladder(64);
    println!(
        "== Fig. 5a: shrink to half, varying replicas (grid {}) ==",
        problem.0
    );
    let rungs = ladder.iter().filter(|&&p| p >= 2);
    let rungs: Vec<_> = rungs.map(|&p| (p, problem, p, p / 2)).collect();
    let shrink = stage_panel(
        "Fig 5a: shrink overhead vs replicas (log y)",
        "replicas_before",
        &rungs,
    );

    println!(
        "== Fig. 5b: expand to double, varying replicas (grid {}) ==",
        problem.0
    );
    let cores = ladder.last().copied().unwrap_or(2).max(2);
    let rungs = ladder.iter().filter(|&&p| p * 2 <= cores);
    let rungs: Vec<_> = rungs.map(|&p| (p, problem, p, p * 2)).collect();
    let expand = stage_panel(
        "Fig 5b: expand overhead vs replicas (log y)",
        "replicas_before",
        &rungs,
    );

    println!("== Fig. 5c: shrink (half) for varying grid sizes ==");
    let grids: Vec<usize> = if options.full {
        vec![512, 2048, 8192, 16_384]
    } else {
        vec![256, 512, 1024, 2048, 4096]
    };
    let from = replica_ladder(32).last().copied().unwrap_or(4).max(4);
    let rungs: Vec<_> = grids.iter().map(|&g| (g, (g, 8), from, from / 2)).collect();
    let grid = stage_panel(
        "Fig 5c: shrink overhead vs grid size (log y)",
        "grid",
        &rungs,
    );
    Report {
        tables: vec![
            ("fig5a_shrink_overhead.csv", shrink),
            ("fig5b_expand_overhead.csv", expand),
            ("fig5c_gridsize_overhead.csv", grid),
        ],
        claims: Vec::new(),
    }
}

/// The checkpoint/restart protocol against the incremental in-place
/// one (`RescaleMode::Incremental`): each ladder rung shrunk to half
/// and expanded back under both, with totals, speedup and bytes moved.
pub fn fig5_compare(options: &Options) -> Report {
    let problem = rescaled_problem(options.full);
    println!(
        "== Full-restart vs incremental rescale (grid {}) ==",
        problem.0
    );
    let mut table = CsvTable::new([
        "direction",
        "replicas_before",
        "replicas_after",
        "full_total",
        "incremental_total",
        "speedup",
        "full_bytes",
        "incremental_bytes",
    ]);
    let (mut full_shrinks, mut inc_shrinks) = (Vec::new(), Vec::new());
    let (mut bytes, mut evacuations) = (Vec::new(), Vec::new());
    for &p in replica_ladder(64).iter().filter(|&&p| p >= 2) {
        for (dir, from, to) in [("shrink", p, p / 2), ("expand", p / 2, p)] {
            let (full, _) = rescale_once(problem, from, to, RescaleMode::FullRestart);
            let (inc, dying) = rescale_once(problem, from, to, RescaleMode::Incremental);
            let speedup = full.total().as_secs() / inc.total().as_secs().max(1e-9);
            let full_bytes = full.checkpoint_bytes + full.bytes_moved;
            println!(
                "  {dir:<7} {from:>3}->{to:<3} full={:<9.4} incremental={:<9.4} speedup={speedup:<6.1} bytes {full_bytes} -> {}",
                full.total().as_secs(),
                inc.total().as_secs(),
                inc.bytes_moved,
            );
            bytes.push((format!("{dir} {from}->{to}"), inc.bytes_moved, full_bytes));
            table.row([
                dir.to_string(),
                from.to_string(),
                to.to_string(),
                format!("{:.6}", full.total().as_secs()),
                format!("{:.6}", inc.total().as_secs()),
                format!("{speedup:.2}"),
                full_bytes.to_string(),
                inc.bytes_moved.to_string(),
            ]);
            if dir == "shrink" {
                evacuations.push((format!("{from}->{to}"), inc.migrated, dying));
                full_shrinks.push((p as f64, full.total().as_secs().max(1e-6)));
                inc_shrinks.push((p as f64, inc.total().as_secs().max(1e-6)));
            }
        }
    }
    let series = [("full", full_shrinks), ("incremental", inc_shrinks)];
    println!(
        "{}",
        ascii::line_chart(
            "shrink-to-half overhead: full vs incremental (log y)",
            &series,
            60,
            12,
            true
        )
    );
    let detail = |rows: &[(String, usize, usize)]| {
        rows.iter()
            .map(|(rescale, a, b)| format!("{rescale} {a} vs {b}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    Report {
        tables: vec![("fig5_compare_modes.csv", table)],
        claims: vec![
            Claim {
                artifact: "fig5_compare",
                statement: "incremental rescale moves fewer bytes than full restart (checkpoint + moved), each direction, every rung",
                holds: !bytes.is_empty() && bytes.iter().all(|(_, inc, full)| inc < full),
                detail: detail(&bytes),
            },
            Claim {
                artifact: "fig5_compare",
                statement: "an incremental shrink migrates exactly the chares on the dying PEs, every rung",
                holds: !evacuations.is_empty()
                    && evacuations.iter().all(|(_, migrated, dying)| migrated == dying),
                detail: detail(&evacuations),
            },
        ],
    }
}

/// Fig. 6: the iteration timeline across a shrink and an expand.
///
/// Paper: Jacobi2D 16 384², 3000 iterations; shrink 32→16 around
/// iteration 1000, expand back 16→32 around 2000. Per-10-iteration
/// times rise after the shrink and fall back after the expand; the
/// timeline shows rescale overhead as gaps. Here the same protocol
/// runs on 1024² and 300 iterations (8192² and 3000 under `--full`),
/// the top PE count the host ladder's largest.
pub fn fig6(options: &Options) -> Report {
    let (grid, total_iters, window) = if options.full {
        (8192usize, 3000u64, 10u64)
    } else {
        (1024, 300, 10)
    };
    let high = replica_ladder(32).last().copied().unwrap_or(4).max(4);
    let low = high / 2;
    let shrink_at = total_iters / 3;
    let expand_at = 2 * total_iters / 3;

    println!("== Fig. 6: Jacobi2D {grid}x{grid}, {total_iters} iters, shrink {high}->{low} at {shrink_at}, expand back at {expand_at} ==");

    let mut app = JacobiApp::new(
        JacobiConfig::new(grid, 8, 8),
        RuntimeConfig::new(high).with_startup_delay(MPI_STARTUP),
    );
    let started = std::time::Instant::now();
    let mut per_window = Vec::new(); // (iteration, window seconds)
    let mut timeline = Vec::new(); // (iteration, completion timestamp)
    let mut marks = Vec::new();
    let mut iter = 0u64;
    // Paper fidelity: Fig. 6's gaps are the checkpoint/restart
    // protocol's overhead, so both rescales run FullRestart rather
    // than the incremental default.
    while iter < total_iters {
        if iter == shrink_at {
            let r = app
                .driver
                .rt
                .rescale_with_mode(low, &GreedyLb, RescaleMode::FullRestart);
            println!("  shrink at iter {iter}: {r}");
            marks.push(("shrink", started.elapsed().as_secs_f64()));
        }
        if iter == expand_at {
            let r = app
                .driver
                .rt
                .rescale_with_mode(high, &GreedyLb, RescaleMode::FullRestart);
            println!("  expand at iter {iter}: {r}");
            marks.push(("expand", started.elapsed().as_secs_f64()));
        }
        let wr = app.run_window(window).expect("window");
        iter = wr.end_iter;
        per_window.push((iter as f64, wr.duration.as_secs()));
        timeline.push((iter as f64, started.elapsed().as_secs_f64()));
    }
    app.shutdown();

    let mut t6a = CsvTable::new(["iteration", "window_seconds"]);
    for &(i, s) in &per_window {
        t6a.row_f64([i, s]);
    }
    let mut t6b = CsvTable::new(["iteration", "timestamp_s"]);
    for &(i, ts) in &timeline {
        t6b.row_f64([i, ts]);
    }

    println!(
        "{}",
        ascii::line_chart(
            &format!("Fig 6a: time per {window} iterations (s)"),
            &[("window time", per_window.clone())],
            64,
            12,
            false,
        )
    );
    println!(
        "{}",
        ascii::line_chart(
            "Fig 6b: completion timestamp vs iteration",
            &[("timestamp", timeline)],
            64,
            12,
            false,
        )
    );
    for (kind, at) in &marks {
        println!("  {kind} at t={at:.2}s");
    }

    // The paper's narrative, printed: windows during the shrunk phase
    // are slower than before and after (wall time, so not a claim).
    let phase_mean = |lo: u64, hi: u64| -> f64 {
        let vals: Vec<f64> = per_window
            .iter()
            .filter(|(i, _)| (*i as u64) > lo && (*i as u64) <= hi)
            .map(|(_, s)| *s)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let before = phase_mean(0, shrink_at);
    let during = phase_mean(shrink_at, expand_at);
    let after = phase_mean(expand_at, total_iters);
    println!(
        "  mean window time: before={before:.4}s  shrunk={during:.4}s  after-expand={after:.4}s"
    );
    Report {
        tables: vec![("fig6a_window_times.csv", t6a), ("fig6b_timeline.csv", t6b)],
        claims: Vec::new(),
    }
}

/// Calibration: strong-scaling anchors measured from real Jacobi2D
/// runs, printed as `ScalingModel::from_anchors` input — the loop the
/// paper describes in §4.3.1 (the simulator is driven by measured
/// scaling data). Each anchor is Fig. 4's measurement on a host-scaled
/// stand-in for one of the paper's four size classes.
pub fn calibrate(_: &Options) -> Report {
    let classes = [
        ("small", 256usize),
        ("medium", 512),
        ("large", 1024),
        ("xlarge", 2048),
    ];
    let ladder = replica_ladder(64);
    println!("== Calibrating scaling anchors on this host (ladder {ladder:?}) ==");
    let mut table = CsvTable::new(["class", "grid", "replicas", "time_per_iter_s"]);
    let mut code = String::from("ScalingModel::from_anchors(\n");
    for (name, grid) in classes {
        let mut anchors = Vec::new();
        for &p in &ladder {
            let t = measure_jacobi(grid, p);
            println!("  {name} ({grid}x{grid}) p={p:<3} t_iter={t:.6}s");
            table.row([
                name.to_string(),
                grid.to_string(),
                p.to_string(),
                format!("{t:.9}"),
            ]);
            anchors.push(format!("({p}.0, {t:.6})"));
        }
        code.push_str(&format!("    vec![{}],\n", anchors.join(", ")));
    }
    code.push_str(")\n");
    println!("\n// paste into sched_sim::ScalingModel::from_anchors:\n{code}");
    Report {
        tables: vec![("calibration_anchors.csv", table)],
        claims: Vec::new(),
    }
}
