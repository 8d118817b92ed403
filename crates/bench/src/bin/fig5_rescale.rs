//! Fig. 5 — contribution of each rescale stage to the total overhead.
//!
//! Paper: Jacobi2D on EKS, stages = load-balance / checkpoint / restart
//! / restore. (a) shrink to half for varying replica counts; (b) expand
//! to double; (c) shrink 32→16 for varying grid sizes. Restart time in
//! the paper is dominated by MPI job launch, which grows with rank
//! count; thread relaunch is microseconds, so the runtime charges a
//! configurable per-PE startup surrogate (`--mpi-startup-ms`, default
//! 25 ms).
//!
//! The paper's Fig. 5 sub-commands measure the checkpoint/restart
//! protocol (`RescaleMode::FullRestart`) for fidelity; the `compare`
//! sub-command reruns each rung under the incremental in-place protocol
//! and reports the side-by-side totals plus speedup.
//!
//! Usage: `fig5_rescale [shrink|expand|gridsweep|compare|all] [--full]
//!         [--mpi-startup-ms N]`

use charm_apps::{JacobiApp, JacobiConfig};
use charm_rt::{GreedyLb, RescaleMode, RescaleReport, RuntimeConfig};
use elastic_bench::{emit_csv, flag_f64, has_flag, replica_ladder, CsvTable};
use hpc_metrics::ascii;

fn rescale_once_mode(
    grid: usize,
    blocks: u64,
    from: usize,
    to: usize,
    startup_ms: f64,
    mode: RescaleMode,
) -> RescaleReport {
    let rt_cfg = RuntimeConfig::new(from)
        .with_startup_delay(std::time::Duration::from_secs_f64(startup_ms / 1e3))
        .with_rescale_mode(mode);
    let mut app = JacobiApp::new(JacobiConfig::new(grid, blocks, blocks), rt_cfg);
    app.run_window(5).expect("warmup");
    let report = app.driver.rt.rescale_with_mode(to, &GreedyLb, mode);
    app.shutdown();
    report
}

fn rescale_once(
    grid: usize,
    blocks: u64,
    from: usize,
    to: usize,
    startup_ms: f64,
) -> RescaleReport {
    rescale_once_mode(grid, blocks, from, to, startup_ms, RescaleMode::FullRestart)
}

fn print_report(label: &str, r: &RescaleReport, table: &mut CsvTable, x: String) {
    println!(
        "  {label:<18} lb={:<8.4} ckpt={:<8.4} restart={:<8.4} restore={:<8.4} total={:<8.4}",
        r.stages.lb.as_secs(),
        r.stages.checkpoint.as_secs(),
        r.stages.restart.as_secs(),
        r.stages.restore.as_secs(),
        r.total().as_secs()
    );
    table.row([
        x,
        format!("{:.6}", r.stages.lb.as_secs()),
        format!("{:.6}", r.stages.checkpoint.as_secs()),
        format!("{:.6}", r.stages.restart.as_secs()),
        format!("{:.6}", r.stages.restore.as_secs()),
        format!("{:.6}", r.total().as_secs()),
    ]);
}

fn chart(rows: &[(f64, RescaleReport)], title: &str) {
    let pick = |f: fn(&RescaleReport) -> f64| -> Vec<(f64, f64)> {
        rows.iter().map(|(x, r)| (*x, f(r).max(1e-6))).collect()
    };
    let series = vec![
        ("lb", pick(|r| r.stages.lb.as_secs())),
        ("ckpt", pick(|r| r.stages.checkpoint.as_secs())),
        ("restart", pick(|r| r.stages.restart.as_secs())),
        ("restore", pick(|r| r.stages.restore.as_secs())),
        ("total", pick(|r| r.total().as_secs())),
    ];
    println!("{}", ascii::line_chart(title, &series, 60, 12, true));
}

fn run_shrink(grid: usize, blocks: u64, startup_ms: f64) {
    println!("== Fig. 5a: shrink to half, varying replicas (grid {grid}) ==");
    let mut table = CsvTable::new([
        "replicas_before",
        "lb",
        "ckpt",
        "restart",
        "restore",
        "total",
    ]);
    let mut rows = Vec::new();
    for &p in replica_ladder(64).iter().filter(|&&p| p >= 2) {
        let r = rescale_once(grid, blocks, p, p / 2, startup_ms);
        print_report(
            &format!("shrink {p}->{}", p / 2),
            &r,
            &mut table,
            p.to_string(),
        );
        rows.push((p as f64, r));
    }
    chart(&rows, "Fig 5a: shrink overhead vs replicas (log y)");
    emit_csv(&table, "fig5a_shrink_overhead.csv");
}

fn run_expand(grid: usize, blocks: u64, startup_ms: f64) {
    println!("== Fig. 5b: expand to double, varying replicas (grid {grid}) ==");
    let mut table = CsvTable::new([
        "replicas_before",
        "lb",
        "ckpt",
        "restart",
        "restore",
        "total",
    ]);
    let mut rows = Vec::new();
    let cores = replica_ladder(64).last().copied().unwrap_or(2);
    for &p in replica_ladder(64)
        .iter()
        .filter(|&&p| p * 2 <= cores.max(2))
    {
        let r = rescale_once(grid, blocks, p, p * 2, startup_ms);
        print_report(
            &format!("expand {p}->{}", p * 2),
            &r,
            &mut table,
            p.to_string(),
        );
        rows.push((p as f64, r));
    }
    chart(&rows, "Fig 5b: expand overhead vs replicas (log y)");
    emit_csv(&table, "fig5b_expand_overhead.csv");
}

fn run_gridsweep(full: bool, startup_ms: f64) {
    println!("== Fig. 5c: shrink (half) for varying grid sizes ==");
    let grids: Vec<usize> = if full {
        vec![512, 2048, 8192, 16_384]
    } else {
        vec![256, 512, 1024, 2048, 4096]
    };
    let ladder = replica_ladder(32);
    let from = ladder.last().copied().unwrap_or(4).max(4);
    let to = from / 2;
    let mut table = CsvTable::new(["grid", "lb", "ckpt", "restart", "restore", "total"]);
    let mut rows = Vec::new();
    for &grid in &grids {
        let r = rescale_once(grid, 8, from, to, startup_ms);
        print_report(
            &format!("grid {grid} {from}->{to}"),
            &r,
            &mut table,
            grid.to_string(),
        );
        rows.push((grid as f64, r));
    }
    chart(&rows, "Fig 5c: shrink overhead vs grid size (log y)");
    emit_csv(&table, "fig5c_gridsize_overhead.csv");
}

fn run_compare(grid: usize, blocks: u64, startup_ms: f64) {
    println!("== Full-restart vs incremental rescale (grid {grid}) ==");
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
    let mut rows = Vec::new();
    for &p in replica_ladder(64).iter().filter(|&&p| p >= 2) {
        for (dir, from, to) in [("shrink", p, p / 2), ("expand", p / 2, p)] {
            let full =
                rescale_once_mode(grid, blocks, from, to, startup_ms, RescaleMode::FullRestart);
            let inc =
                rescale_once_mode(grid, blocks, from, to, startup_ms, RescaleMode::Incremental);
            let speedup = full.total().as_secs() / inc.total().as_secs().max(1e-9);
            println!(
                "  {dir:<7} {from:>3}->{to:<3} full={:<9.4} incremental={:<9.4} speedup={speedup:<6.1} bytes {} -> {}",
                full.total().as_secs(),
                inc.total().as_secs(),
                full.checkpoint_bytes + full.bytes_moved,
                inc.bytes_moved,
            );
            table.row([
                dir.to_string(),
                from.to_string(),
                to.to_string(),
                format!("{:.6}", full.total().as_secs()),
                format!("{:.6}", inc.total().as_secs()),
                format!("{speedup:.2}"),
                (full.checkpoint_bytes + full.bytes_moved).to_string(),
                inc.bytes_moved.to_string(),
            ]);
            if dir == "shrink" {
                rows.push((p as f64, full, inc));
            }
        }
    }
    let series = vec![
        (
            "full",
            rows.iter()
                .map(|(x, f, _)| (*x, f.total().as_secs().max(1e-6)))
                .collect::<Vec<_>>(),
        ),
        (
            "incremental",
            rows.iter()
                .map(|(x, _, i)| (*x, i.total().as_secs().max(1e-6)))
                .collect::<Vec<_>>(),
        ),
    ];
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
    emit_csv(&table, "fig5_compare_modes.csv");
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let full = has_flag("--full");
    let startup_ms = flag_f64("--mpi-startup-ms", 25.0);
    let (grid, blocks) = if full { (8192, 16) } else { (1024, 8) };
    match which.as_str() {
        "shrink" => run_shrink(grid, blocks, startup_ms),
        "expand" => run_expand(grid, blocks, startup_ms),
        "gridsweep" => run_gridsweep(full, startup_ms),
        "compare" => run_compare(grid, blocks, startup_ms),
        _ => {
            run_shrink(grid, blocks, startup_ms);
            run_expand(grid, blocks, startup_ms);
            run_gridsweep(full, startup_ms);
            run_compare(grid, blocks, startup_ms);
        }
    }
}
