//! Bench: incremental vs full-restart rescale latency.
//!
//! The tentpole claim of the in-place rescale protocol is that overhead
//! scales with the bytes actually moved instead of the cluster size.
//! This bench pins that down at 64 PEs with a nonzero per-PE MPI-startup
//! surrogate (the regime of Fig. 5): shrink 64→32 and expand 32→64 under
//! both `RescaleMode`s, reporting medians and the incremental speedup.
//! It asserts the acceptance floor itself — incremental at least 5x
//! faster per direction, a same-process ratio the startup surrogate
//! dominates — and emits `BENCH_rescale.json` (with the `host_cores`
//! that wrote it) at the workspace root so successive PRs can track
//! the trajectory. The bytes a rescale moves are pinned by count in
//! `crates/charm/tests/runtime_integration.rs`.
//!
//! PEs are OS threads, so running 64 of them on a small CI host is
//! oversubscription, not a problem: the compared costs are dominated by
//! the protocol (startup surrogate, serialization, migration), which is
//! exactly what the comparison isolates. If even thread oversubscription
//! blows a CI timeout, set `RESCALE_MAX_PES` to cap the measured scale —
//! a capped run still asserts the floor but never overwrites the
//! tracked `BENCH_rescale.json` trajectory.

use std::time::Instant;

use charm_apps::{JacobiApp, JacobiConfig};
use charm_rt::{GreedyLb, RescaleMode, RescaleReport, RuntimeConfig};
use elastic_bench::workspace_root;

/// PE count the acceptance criterion is stated at.
const FULL_PES: usize = 64;

/// The measured PE count: [`FULL_PES`], capped by `RESCALE_MAX_PES`
/// (kept even so the shrink case halves cleanly).
fn pes() -> usize {
    std::env::var("RESCALE_MAX_PES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(FULL_PES, |cap| cap.clamp(2, FULL_PES) / 2 * 2)
}
/// Per-PE MPI-startup surrogate (nonzero, per the bench contract).
const STARTUP_MS: u64 = 5;
/// Median-of-N repetitions.
const REPS: usize = 3;
/// Acceptance floor on the incremental-over-full-restart speedup.
const MIN_SPEEDUP: f64 = 5.0;

fn jacobi_cfg() -> JacobiConfig {
    // 256 blocks of 16x16 cells: enough chares to spread over 64 PEs,
    // small enough that a window is cheap on a 1-core host.
    JacobiConfig::new(256, 16, 16)
}

fn one_rescale(from: usize, to: usize, mode: RescaleMode) -> (f64, RescaleReport) {
    let rt_cfg =
        RuntimeConfig::new(from).with_startup_delay(std::time::Duration::from_millis(STARTUP_MS));
    let mut app = JacobiApp::new(jacobi_cfg(), rt_cfg);
    app.run_window(2).expect("warmup window");
    let started = Instant::now();
    let report = app.driver.rt.rescale_with_mode(to, &GreedyLb, mode);
    let secs = started.elapsed().as_secs_f64();
    app.shutdown();
    (secs, report)
}

fn median_rescale(from: usize, to: usize, mode: RescaleMode) -> (f64, RescaleReport) {
    let mut runs: Vec<(f64, RescaleReport)> =
        (0..REPS).map(|_| one_rescale(from, to, mode)).collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs.swap_remove(runs.len() / 2)
}

struct Case {
    name: &'static str,
    from: usize,
    to: usize,
    full: (f64, RescaleReport),
    incremental: (f64, RescaleReport),
}

impl Case {
    fn speedup(&self) -> f64 {
        self.full.0 / self.incremental.0.max(1e-9)
    }
}

fn measure_cases() -> Vec<Case> {
    let pes = pes();
    [("shrink", pes, pes / 2), ("expand", pes / 2, pes)]
        .into_iter()
        .map(|(name, from, to)| Case {
            name,
            from,
            to,
            full: median_rescale(from, to, RescaleMode::FullRestart),
            incremental: median_rescale(from, to, RescaleMode::Incremental),
        })
        .collect()
}

fn emit_json(cases: &[Case]) {
    let pes = pes();
    if pes != FULL_PES {
        // The tracked trajectory only updates from a full-scale run.
        println!("capped run (RESCALE_MAX_PES={pes}): skipping BENCH_rescale.json");
        return;
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut body = String::from("{\n");
    body.push_str(&format!(
        "  \"pes\": {pes},\n  \"host_cores\": {host_cores},\n  \"startup_ms_per_pe\": {STARTUP_MS},\n  \"reps\": {REPS},\n  \"grid\": 256,\n  \"blocks\": 256,\n  \"cases\": [\n"
    ));
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        body.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"direction\": \"{}\",\n",
                "      \"from_pes\": {},\n",
                "      \"to_pes\": {},\n",
                "      \"full_restart_secs\": {:.6},\n",
                "      \"incremental_secs\": {:.6},\n",
                "      \"speedup\": {:.2},\n",
                "      \"meets_5x\": {},\n",
                "      \"full_checkpoint_bytes\": {},\n",
                "      \"full_bytes_moved\": {},\n",
                "      \"incremental_bytes_moved\": {},\n",
                "      \"incremental_migrated_chares\": {}\n",
                "    }}{}\n",
            ),
            c.name,
            c.from,
            c.to,
            c.full.0,
            c.incremental.0,
            c.speedup(),
            c.speedup() >= MIN_SPEEDUP,
            c.full.1.checkpoint_bytes,
            c.full.1.bytes_moved,
            c.incremental.1.bytes_moved,
            c.incremental.1.migrated,
            comma,
        ));
    }
    body.push_str("  ]\n}\n");
    let path = workspace_root().join("BENCH_rescale.json");
    std::fs::write(&path, body).expect("write BENCH_rescale.json");
    println!("wrote {}", path.display());
}

fn main() {
    let cases = measure_cases();
    emit_json(&cases);
    for case in &cases {
        println!(
            "rescale {:<6} {:>2}->{:<2}  full={:.4}s incremental={:.4}s speedup={:.1}x (moved {} bytes vs {} ckpt bytes)",
            case.name,
            case.from,
            case.to,
            case.full.0,
            case.incremental.0,
            case.speedup(),
            case.incremental.1.bytes_moved,
            case.full.1.checkpoint_bytes,
        );
        assert!(
            case.speedup() >= MIN_SPEEDUP,
            "incremental {} fell below the {MIN_SPEEDUP}x floor over full restart",
            case.name
        );
    }
}
