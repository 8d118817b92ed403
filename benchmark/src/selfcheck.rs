//! `--selfcheck N`: is the benchmark steady enough to gate on?
//!
//! Runs the untraced suite as two interleaved sets (A₁ B₁ A₂ B₂ …) of
//! `N` runs of this same binary, each run with another seed, and
//! prints per workload × end-to-end metric both medians, both
//! inter-quartile ranges as a share of the median, and |A−B|÷A against
//! the metric's bound — the same statistics the PR driver computes.

use std::process::{Command, Stdio};

use crate::agg::{median, relative_iqr};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::runner::Options;

pub struct ChildRun {
    pub stdout: String,
    /// Exit status 0, which a run reports only when its outputs checked.
    pub ok: bool,
}

/// Runs one workload in a child process of this binary.
pub fn spawn_run(workload: &str, opts: &Options) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    if opts.record {
        cmd.arg("--record");
    }
    // `output` waits for the child, so none outlives this process.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    Ok(ChildRun {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        ok: out.status.success(),
    })
}

/// Reads `"<name>": {"value": <x>` out of a run's result line.
fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

pub fn run(n: usize, opts: &Options) -> bool {
    assert!(n >= 2, "--selfcheck needs at least 2 runs per set");
    let mut all_ok = true;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "IQR A", "IQR B", "|A-B|/A", "bound"
    );
    for w in &WORKLOADS {
        // sets[set][metric] = values
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for round in 0..n {
            for (set, values) in sets.iter_mut().enumerate() {
                let seed = opts.seed + (2 * round + set) as u64;
                let run = match spawn_run(w.name, &Options { seed, ..*opts }) {
                    Ok(run) if run.ok => run,
                    Ok(run) => {
                        eprintln!("{} seed {seed} failed its output check", w.name);
                        all_ok = false;
                        run
                    }
                    Err(e) => {
                        eprintln!("{} seed {seed}: {e}", w.name);
                        return false;
                    }
                };
                let line = run.stdout.lines().last().unwrap_or_default();
                for ((d, _), slot) in END_TO_END.iter().zip(values.iter_mut()) {
                    match metric_value(line, d.name) {
                        Some(v) => slot.push(v),
                        None => {
                            eprintln!("{} seed {seed}: no {} in {line:?}", w.name, d.name);
                            return false;
                        }
                    }
                }
            }
        }
        for (k, (d, bound)) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][k], &sets[1][k]);
            let (ma, mb) = (median(a).expect("n >= 2"), median(b).expect("n >= 2"));
            let (ia, ib) = (
                relative_iqr(a).unwrap_or(f64::INFINITY),
                relative_iqr(b).unwrap_or(f64::INFINITY),
            );
            let gap = (ma - mb).abs() / ma.abs();
            // setup_s answers for its medians only, as in the driver.
            let spread_ok = d.name == "setup_s" || (ia <= *bound && ib <= *bound);
            let ok = spread_ok && gap <= *bound;
            all_ok &= ok;
            println!(
                "{:<18} {:<12} {ma:>14.4} {mb:>14.4} {ia:>8.4} {ib:>8.4} {gap:>9.4} {bound:>6.2}  {}",
                w.name,
                d.name,
                if ok { "ok" } else { "TOO NOISY" }
            );
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::metric_value;

    #[test]
    fn reads_values_from_a_result_line() {
        let line = r#"{"correct": true, "attempted": 7, "failed": 0, "metrics": {"work_per_s": {"value": 941234.5, "unit": "1/s"}, "setup_s": {"value": 1.25, "unit": "s"}}}"#;
        assert_eq!(metric_value(line, "work_per_s"), Some(941234.5));
        assert_eq!(metric_value(line, "setup_s"), Some(1.25));
        assert_eq!(metric_value(line, "op_p50_ms"), None);
    }
}
