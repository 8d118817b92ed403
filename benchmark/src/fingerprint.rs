//! Output check for the deterministic workloads.
//!
//! A fingerprint is the canonical text of what a replay must
//! reproduce: job, event and rescale counts, the fault tallies, and
//! the bit patterns of the floating-point aggregates. Seed 0 (and its
//! `--quick` size) has its fingerprint on file under `expected/`; any
//! other seed only has to agree with itself across iterations.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use elastic_core::RunMetrics;

use crate::runner::Options;

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The fingerprint of a replay: `counts` first (caller's order), then
/// what every [`RunMetrics`] carries.
pub fn of_run(metrics: &RunMetrics, counts: &[(&str, u64)]) -> String {
    let f = &metrics.faults;
    let mut out = String::from("{\n");
    let mut line = |key: &str, value: String| {
        let _ = writeln!(out, "  \"{key}\": {value},");
    };
    for (key, n) in counts {
        line(key, n.to_string());
    }
    line("jobs_completed", metrics.jobs.len().to_string());
    line("rescales", metrics.rescales.to_string());
    line("evictions", f.evictions.to_string());
    line("requeues", f.requeues.to_string());
    line("permanent_failures", f.permanent_failures.to_string());
    line("transient_faults", f.transient_faults.to_string());
    line("retries", f.retries.to_string());
    line("breaker_trips", f.breaker_trips.to_string());
    for (key, x) in [
        ("wasted_core_seconds", f.wasted_core_seconds),
        ("total_time", metrics.total_time),
        ("utilization", metrics.utilization),
        ("mean_bounded_slowdown", metrics.mean_bounded_slowdown),
        ("weighted_response", metrics.weighted_response),
    ] {
        line(&format!("{key}_bits"), format!("\"{:016x}\"", x.to_bits()));
    }
    let _ = writeln!(out, "  \"policy\": \"{}\"\n}}", metrics.policy);
    out
}

/// Where the fingerprint of this workload, seed and size is kept.
pub fn expected_path(workload: &str, opts: &Options) -> PathBuf {
    let size = if opts.quick { "-quick" } else { "" };
    package_dir()
        .join("expected")
        .join(format!("{workload}-seed{}{size}.json", opts.seed))
}

/// Checks `actual` against the fingerprint at `path` — or, when
/// recording, puts it there. A seed with nothing on file passes: its
/// iterations were already compared with each other.
pub fn check_or_record(path: &Path, record: bool, actual: &str) -> bool {
    if record {
        std::fs::create_dir_all(path.parent().expect("fingerprints live in a directory"))
            .and_then(|()| std::fs::write(path, actual))
            .unwrap_or_else(|e| panic!("record {}: {e}", path.display()));
        eprintln!("recorded {}", path.display());
        return true;
    }
    match std::fs::read_to_string(path) {
        Ok(expected) if expected == actual => true,
        Ok(expected) => {
            eprintln!(
                "fingerprint mismatch against {}:\n--- expected\n{expected}--- actual\n{actual}",
                path.display()
            );
            false
        }
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_fingerprints_must_match_and_unrecorded_seeds_pass() {
        let metrics = RunMetrics::empty("elastic", 7);
        let a = of_run(&metrics, &[("events", 10)]);
        let b = of_run(&metrics, &[("events", 11)]);
        assert!(a.contains("\"events\": 10,") && a.contains("\"rescales\": 7,"));
        assert!(a.contains("\"utilization_bits\": \"0000000000000000\""));
        assert_ne!(a, b);

        let path = package_dir().join("out").join("fingerprint-test.json");
        let _ = std::fs::remove_file(&path);
        assert!(check_or_record(&path, false, &a), "nothing on file passes");
        assert!(check_or_record(&path, true, &a), "recording passes");
        assert!(check_or_record(&path, false, &a), "a match passes");
        assert!(!check_or_record(&path, false, &b), "a mismatch fails");
        std::fs::remove_file(&path).expect("test file removed");
    }
}
