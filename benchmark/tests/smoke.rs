//! Drives the built binary the way the PR driver does, at `--quick`
//! size: all four workloads, untraced and traced, on the seed whose
//! fingerprint is on file (0) and on one that only has to agree with
//! itself (1).

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "des-elastic-400k",
    "op-ingest-replay",
    "serving-paced",
    "fed-easy-faults",
];

fn benchmark(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// The metric names of one section of the manifest, in order.
fn names(manifest: &str, section: &str) -> Vec<String> {
    let from = manifest.find(&format!("\"{section}\": [")).expect(section);
    let body = &manifest[from..];
    body[..body.find("\n  ]").expect("section closes")]
        .lines()
        .filter_map(|l| l.trim().strip_prefix("{\"name\": \""))
        .map(|l| l[..l.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn benchmark_json_is_the_manifest_the_binary_prints() {
    let (ok, manifest) = benchmark(&["--manifest"]);
    assert!(ok);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(on_disk, manifest, "regenerate with `benchmark --manifest`");
    assert_eq!(names(&manifest, "workloads"), WORKLOADS);
}

#[test]
fn every_workload_runs_quick_with_both_fingerprint_paths() {
    let (_, manifest) = benchmark(&["--manifest"]);
    for trace in ["0", "1"] {
        let section = if trace == "0" {
            "end_to_end"
        } else {
            "per_layer"
        };
        let expected = names(&manifest, section);
        for workload in WORKLOADS {
            for seed in ["0", "1"] {
                let (ok, stdout) = benchmark(&[
                    "--workload",
                    workload,
                    "--seed",
                    seed,
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--quick",
                ]);
                let what = format!("{workload} seed {seed} trace {trace}:\n{stdout}");
                assert!(ok, "{what}");
                assert!(
                    stdout.starts_with('#') && stdout.contains("comparable=false"),
                    "{what}"
                );
                let result = stdout.lines().last().expect("a result line");
                assert!(
                    result.starts_with("{\"correct\": true, \"attempted\": ")
                        && result.contains("\"failed\": 0, \"metrics\": {"),
                    "{what}"
                );
                let reported: Vec<&str> = result
                    .split("\": {\"value\": ")
                    .filter_map(|piece| piece.rsplit('"').next())
                    .collect();
                let reported = &reported[..reported.len() - 1];
                assert_eq!(reported, expected, "{what}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no-such"][..],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let (ok, stdout) = benchmark(args);
        assert!(!ok && stdout.is_empty(), "{args:?}: {stdout}");
    }
}
