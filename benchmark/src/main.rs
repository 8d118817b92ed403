//! The repository's end-to-end benchmark: four workloads, four
//! end-to-end metrics, and a per-layer ledger measured from outside
//! the product. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1   one run, result as the last line
//! benchmark [--seed S] [--traced] [--quick]                 every workload, one process each
//! benchmark --selfcheck N                                   two interleaved sets of N runs
//! benchmark --record                                        rewrite expected/ for the seed
//! benchmark --manifest                                      print BENCHMARK.json
//! ```

mod agg;
mod fingerprint;
mod metrics;
mod policy;
mod proc;
mod runner;
mod selfcheck;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use runner::{Options, Outcome, Workload};
use workloads::{des::DesElastic, fed::FedEasyFaults, op::OpIngestReplay, serving::ServingPaced};

struct Cli {
    workload: Option<String>,
    opts: Options,
    selfcheck: Option<usize>,
    manifest: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Options {
            seed: 0,
            seconds: f64::from(RUN_SECONDS),
            traced: false,
            quick: false,
            record: false,
        },
        selfcheck: None,
        manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => cli.opts.seed = num(flag, value()?)?,
            "--seconds" => cli.opts.seconds = num(flag, value()?)?,
            "--trace" => cli.opts.traced = num::<u8>(flag, value()?)? != 0,
            "--traced" => cli.opts.traced = true,
            "--quick" => cli.opts.quick = true,
            "--record" => cli.opts.record = true,
            "--selfcheck" => cli.selfcheck = Some(num(flag, value()?)?),
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|d| d.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|d| d.name).collect();
            return Err(format!("unknown workload {w:?}; one of {names:?}"));
        }
    }
    if !(cli.opts.seconds.is_finite() && cli.opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

fn run_workload(name: &str, opts: &Options) -> Outcome {
    match name {
        DesElastic::NAME => runner::run::<DesElastic>(opts),
        OpIngestReplay::NAME => runner::run::<OpIngestReplay>(opts),
        ServingPaced::NAME => runner::run::<ServingPaced>(opts),
        FedEasyFaults::NAME => runner::run::<FedEasyFaults>(opts),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// Prints every metric of the run by name, then the result object the
/// driver reads as the last line of standard output.
fn print_outcome(name: &str, opts: &Options, outcome: &Outcome) {
    let defs: Vec<&MetricDef> = if opts.traced {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().map(|(d, _)| d).collect()
    };
    println!(
        "# {name} seed={} seconds={} traced={} comparable={}",
        opts.seed, opts.seconds, opts.traced, !opts.quick
    );
    let mut json = String::new();
    for (i, d) in defs.iter().enumerate() {
        // A metric this workload never produced — a layer it does not
        // enter, a percentile without enough samples — is 0 from 0
        // samples.
        let (value, samples) = outcome
            .report
            .get(d.name)
            .map_or((0.0, 0), |m| (m.value, m.samples));
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{:<34} {value:>18.6} {:<6} n={samples}", d.name, d.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
}

/// Runs every workload in a process of its own (so peak RSS is per
/// workload) and relays what each prints.
fn run_all(opts: &Options) -> bool {
    let mut all_ok = true;
    for w in &WORKLOADS {
        match selfcheck::spawn_run(w.name, opts) {
            Ok(run) => {
                print!("{}", run.stdout);
                all_ok &= run.ok;
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                all_ok = false;
            }
        }
    }
    all_ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if cli.manifest {
        print!("{}", metrics::manifest_json());
        true
    } else if let Some(n) = cli.selfcheck {
        selfcheck::run(n, &cli.opts)
    } else if let Some(name) = &cli.workload {
        let outcome = run_workload(name, &cli.opts);
        print_outcome(name, &cli.opts, &outcome);
        outcome.correct
    } else {
        run_all(&cli.opts)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
