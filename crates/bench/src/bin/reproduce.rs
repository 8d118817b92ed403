//! `reproduce <artifact|all> [--full] [--seed N] [--trace PATH]`: runs
//! one artifact of `elastic_bench::ARTIFACTS`, or all of them in order,
//! writes each CSV table under `results/` (or `$ELASTIC_RESULTS_DIR`)
//! and prints every claim with its verdict. An unknown artifact or
//! flag, or a malformed value, prints the usage and exits with status 2.

use std::path::PathBuf;
use std::process::ExitCode;

use elastic_bench::{Options, Report, ARTIFACTS};

/// What to run, parsed once from the command line.
#[derive(Debug, PartialEq)]
struct Invocation {
    /// Indices into [`ARTIFACTS`].
    artifacts: Vec<usize>,
    options: Options,
}

fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|&(name, _)| name).collect();
    format!(
        "usage: reproduce <artifact|all> [--full] [--seed N] [--trace PATH]\nartifacts: {}",
        names.join(", ")
    )
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut options = Options::default();
    let mut which = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--full" => options.full = true,
            "--seed" => {
                let v = value()?;
                options.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not an integer"))?;
            }
            "--trace" => {
                options.trace = PathBuf::from(value()?);
                if !options.trace.is_file() {
                    return Err(format!("--trace {}: no such file", options.trace.display()));
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ if which.is_some() => return Err(format!("a second artifact, {arg}")),
            _ => which = Some(arg),
        }
    }
    let artifacts = match which.as_deref() {
        None => return Err("no artifact named".into()),
        Some("all") => (0..ARTIFACTS.len()).collect(),
        Some(name) => match ARTIFACTS.iter().position(|&(n, _)| n == name) {
            Some(i) => vec![i],
            None => return Err(format!("unknown artifact {name}")),
        },
    };
    Ok(Invocation { artifacts, options })
}

fn main() -> ExitCode {
    let Invocation { artifacts, options } = match parse(std::env::args().skip(1)) {
        Ok(invocation) => invocation,
        Err(problem) => {
            eprintln!("reproduce: {problem}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let results = std::env::var("ELASTIC_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let results = PathBuf::from(results);
    std::fs::create_dir_all(&results).expect("create the results directory");
    let mut claims = Vec::new();
    for i in artifacts {
        let Report {
            tables,
            claims: own,
        } = (ARTIFACTS[i].1)(&options);
        for (name, table) in tables {
            let path = results.join(name);
            table.write_to(&path).expect("write csv");
            println!("  wrote {}", path.display());
        }
        claims.extend(own);
    }
    if !claims.is_empty() {
        println!("claims:");
        for claim in claims {
            println!("  {claim}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    #[test]
    fn an_artifact_and_its_settings_parse() {
        let trace = Options::default().trace;
        let path = trace.display().to_string();
        let parsed = parse(args("table1 --full --seed 3 --trace").chain([path])).unwrap();
        let names: Vec<&str> = parsed.artifacts.iter().map(|&i| ARTIFACTS[i].0).collect();
        assert_eq!(names, ["table1"]);
        let options = Options {
            full: true,
            seed: 3,
            trace,
        };
        assert_eq!(parsed.options, options);
        let all = parse(args("all")).unwrap();
        assert_eq!(all.artifacts, (0..ARTIFACTS.len()).collect::<Vec<_>>());
        assert_eq!(all.options, Options::default());
    }

    #[test]
    fn an_unknown_artifact_is_refused() {
        assert_eq!(parse(args("fig10")).unwrap_err(), "unknown artifact fig10");
        assert_eq!(parse(args("")).unwrap_err(), "no artifact named");
        assert_eq!(
            parse(args("fig7 fig8")).unwrap_err(),
            "a second artifact, fig8"
        );
    }

    #[test]
    fn an_unknown_flag_is_refused() {
        assert_eq!(
            parse(args("ablations --seeds 3")).unwrap_err(),
            "unknown flag --seeds"
        );
        assert!(usage().contains("fig5_compare, fig6"), "{}", usage());
    }

    #[test]
    fn a_malformed_value_is_refused() {
        let seed = parse(args("table1 --seed x")).unwrap_err();
        assert_eq!(seed, "--seed x: not an integer");
        assert_eq!(
            parse(args("table1 --seed")).unwrap_err(),
            "--seed needs a value"
        );
        let trace = parse(args("easy_vs_conservative --trace no/such.swf")).unwrap_err();
        assert_eq!(trace, "--trace no/such.swf: no such file");
    }
}
