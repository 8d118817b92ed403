//! # elastic-bench — the paper's figures and tables, reproduced
//!
//! One binary, `reproduce <artifact|all> [--full] [--seed N] [--trace
//! PATH]`, runs the artifacts of [`ARTIFACTS`]:
//!
//! | artifact | regenerates | claims |
//! |---|---|---|
//! | `fig4` | Fig. 4a/4b strong scaling (real `charm-rt` runs) | |
//! | `fig5` | Fig. 5a/5b/5c rescale-overhead breakdowns | |
//! | `fig5_compare` | full-restart vs incremental rescale, per rung | 2 |
//! | `fig6` | Fig. 6a/6b shrink/expand timeline | |
//! | `fig7` | Fig. 7a–d simulator sweep | 8 |
//! | `fig8` | Fig. 8a–d simulator sweep and its incremental companion | 4 |
//! | `fig9` | Fig. 9a/9b operator utilization profiles | |
//! | `table1` | Table 1 (Actual + Simulation columns) | 4 |
//! | `ablations` | elastic-policy ablations (rows listed in [`des::ablations`]) | |
//! | `calibrate` | measures scaling anchors from real runs | |
//! | `easy_vs_conservative` | EASY vs FCFS backfill on the SWF trace | 1 |
//! | `fault_tolerance` | recovery strategies under spot reclamation | |
//! | `resilience_sweep` | retry disciplines under transient-fault storms | |
//!
//! Each artifact is a function that returns a [`Report`]: its CSV
//! tables, which `reproduce` writes under `results/` (or
//! `$ELASTIC_RESULTS_DIR`), and its [`Claim`]s, the paper's statements
//! checked on the artifact's numbers. It prints its own progress and
//! ASCII quick-look charts. `--full` gives the real-path artifacts
//! (fig4/5/6/9, calibrate, Table 1 Actual) paper-scale problem sizes;
//! the default is sized for the host (shapes, not absolute numbers,
//! are the reproduction target). `--seed` picks Table 1's and Fig. 9's
//! workload, `--trace` the SWF file the three policy sweeps replay.
//! `crates/bench/tests/paper_claims.rs` asserts every claim of the
//! DES-side artifacts at the rate it has.
//!
//! Beside them sit two `harness = false` benches: `policy_decisions`
//! prints the median time of each scheduling decision, and
//! `rescale_latency` asserts its own 5x floor and writes
//! `BENCH_rescale.json`. Nothing here compares a wall-clock number
//! against a committed one: replay work is pinned by count in
//! `tests/replay_counters.rs`, and end-to-end time is the `benchmark/`
//! package's job.

#![warn(missing_docs)]

pub mod actual;
pub mod des;
pub mod real;
pub mod traces;

use std::fmt;
use std::path::PathBuf;

use elastic_hpc::scenario::BUNDLED_TRACE;
use elastic_hpc::workload::WorkloadSpec;
use hpc_metrics::Duration;

pub use hpc_metrics::csv::CsvTable;

/// An artifact: runs it under the given settings.
pub type Artifact = fn(&Options) -> Report;

/// Every artifact `reproduce` knows, by name, in the order `all` runs
/// them.
pub const ARTIFACTS: [(&str, Artifact); 13] = [
    ("fig4", real::fig4),
    ("fig5", real::fig5),
    ("fig5_compare", real::fig5_compare),
    ("fig6", real::fig6),
    ("fig7", des::fig7),
    ("fig8", des::fig8),
    ("fig9", actual::fig9),
    ("table1", des::table1),
    ("ablations", des::ablations),
    ("calibrate", real::calibrate),
    ("easy_vs_conservative", traces::easy_vs_conservative),
    ("fault_tolerance", traces::fault_tolerance),
    ("resilience_sweep", traces::resilience_sweep),
];

/// The settings an artifact reads; every other parameter is a
/// constant of the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Paper-scale problem sizes for the real-path artifacts.
    pub full: bool,
    /// The workload seed of Table 1 and Fig. 9.
    pub seed: u64,
    /// The SWF trace the policy sweeps replay.
    pub trace: PathBuf,
}

impl Default for Options {
    /// Host scale, seed 0, the bundled SWF trace.
    fn default() -> Self {
        Options {
            full: false,
            seed: 0,
            trace: PathBuf::from(BUNDLED_TRACE),
        }
    }
}

/// What an artifact produces.
#[derive(Debug)]
pub struct Report {
    /// CSV tables, by file name under `results/`.
    pub tables: Vec<(&'static str, CsvTable)>,
    /// The paper's statements, checked on the artifact's numbers.
    pub claims: Vec<Claim>,
}

/// One statement of the paper, checked on an artifact's numbers.
#[derive(Debug)]
pub struct Claim {
    /// The artifact the numbers come from.
    pub artifact: &'static str,
    /// The statement, as the check reads it.
    pub statement: &'static str,
    /// Whether the numbers bear it out.
    pub holds: bool,
    /// The numbers the verdict was read from.
    pub detail: String,
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Claim {
            artifact,
            statement,
            holds,
            detail,
        } = self;
        write!(f, "{artifact}: {statement}: {holds} ({detail})")
    }
}

/// The workspace root (this package lives at `crates/bench`).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// Last arrival plus the longest walltime estimate: a horizon that
/// keeps every injected fault inside the busy part of the replay.
pub fn trace_horizon(wl: &WorkloadSpec) -> Duration {
    let last = wl.jobs.iter().map(|j| j.arrival).max();
    let longest = wl.jobs.iter().filter_map(|j| j.walltime_estimate).max();
    last.unwrap_or(Duration::ZERO) + longest.unwrap_or(Duration::ZERO)
}

/// Replica counts `1, 2, 4, …` capped at both `limit` and the host's
/// available parallelism (real-runtime experiments cannot strong-scale
/// past physical cores). Set
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
fn ladder_with_cap(limit: usize, cap: usize) -> Vec<usize> {
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
}
