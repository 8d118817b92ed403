//! # elastic-bench — figure/table regenerators and benchmarks
//!
//! One binary per paper artifact (see DESIGN.md §5 for the experiment
//! index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig4_scaling` | Fig. 4a/4b strong scaling (real `charm-rt` runs) |
//! | `fig5_rescale` | Fig. 5a/5b/5c rescale-overhead breakdowns |
//! | `fig6_timeline` | Fig. 6a/6b shrink/expand timeline |
//! | `fig7_submission_gap` | Fig. 7a–d simulator sweep |
//! | `fig8_rescale_gap` | Fig. 8a–d simulator sweep |
//! | `fig9_profiles` | Fig. 9a/9b operator utilization profiles |
//! | `table1` | Table 1 (Actual + Simulation columns) |
//! | `ablations` | design-choice ablations (DESIGN.md §4) |
//! | `calibrate` | measures scaling anchors from real runs |
//!
//! Beside them sit the policy sweeps (`easy_vs_conservative`,
//! `fault_tolerance`, `resilience_sweep`) and the criterion benches;
//! `rescale_latency` asserts its own 5x floor and writes
//! `BENCH_rescale.json`. No binary here compares a wall-clock number
//! against a committed one: replay work is pinned by count in
//! `tests/replay_counters.rs`, and end-to-end time is the `benchmark/`
//! package's job.
//!
//! Every binary writes CSV under `results/` and prints an ASCII
//! quick-look chart. All accept `--full` for paper-scale parameters;
//! the default is a minutes-scale run sized for the host (problem sizes
//! and replica counts are scaled down per the DESIGN.md substitution
//! notes — shapes, not absolute numbers, are the reproduction target).

#![warn(missing_docs)]

pub mod actual;

use std::path::PathBuf;

pub use hpc_metrics::csv::CsvTable;

/// Returns the `results/` output directory, creating it if needed.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("ELASTIC_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Simple CLI argument check: `true` if `flag` appears in argv.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Returns the value following `--key` in argv, if present.
pub fn flag_value(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses `--key <number>` with a default.
pub fn flag_f64(key: &str, default: f64) -> f64 {
    flag_value(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses `--key <integer>` with a default.
pub fn flag_u64(key: &str, default: u64) -> u64 {
    flag_value(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Writes `table` to `results/<name>` and reports the path on stdout.
pub fn emit_csv(table: &CsvTable, name: &str) {
    let path = results_dir().join(name);
    table.write_to(&path).expect("write csv");
    println!("  wrote {}", path.display());
}

/// Replica counts `1, 2, 4, …` capped at both `limit` and the host's
/// available parallelism (real-runtime experiments cannot strong-scale
/// past physical cores; see DESIGN.md substitutions). Set
/// `ELASTIC_MAX_PES` to override the host-core cap — useful on small
/// CI machines where PEs are threads and oversubscription is fine.
pub fn replica_ladder(limit: usize) -> Vec<usize> {
    let cores = std::env::var("ELASTIC_MAX_PES")
        .ok()
        .and_then(|v| v.parse().ok())
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(8);
    ladder_with_cap(limit, cores)
}

/// The doubling ladder `1, 2, 4, …` capped at `limit.min(cap)`, with
/// the cap itself appended when it is not a power of two.
pub fn ladder_with_cap(limit: usize, cap: usize) -> Vec<usize> {
    let cap = limit.min(cap).max(1);
    let mut v = Vec::new();
    let mut p = 1;
    while p <= cap {
        v.push(p);
        p *= 2;
    }
    if v.last() != Some(&cap) && cap > 1 {
        v.push(cap);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_doubling_and_capped() {
        assert_eq!(ladder_with_cap(4, 8), vec![1, 2, 4]);
        assert_eq!(ladder_with_cap(1, 8), vec![1]);
        assert_eq!(ladder_with_cap(64, 1), vec![1]);
        // A non-power-of-two cap is appended as the last rung.
        assert_eq!(ladder_with_cap(64, 6), vec![1, 2, 4, 6]);
        // The host-derived ladder never exceeds the limit.
        for p in replica_ladder(64) {
            assert!(p <= 64);
        }
    }

    #[test]
    fn flags_parse_from_env_args() {
        // argv of the test harness won't contain these; defaults apply.
        assert!(!has_flag("--definitely-not-set"));
        assert_eq!(flag_f64("--nope", 1.5), 1.5);
        assert_eq!(flag_u64("--nope", 7), 7);
        assert_eq!(flag_value("--nope"), None);
    }
}
