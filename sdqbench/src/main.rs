//! `sdqbench` command line.
//!
//! ```text
//! sdqbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! sdqbench run   [--seed <n>] [--smoke]
//! sdqbench check <a> <b>
//! sdqbench agree [--seed <n>] [--smoke]
//! sdqbench spec
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one
//! process, the result as one JSON object on the last line of stdout.
//! `run` and `agree` run that form as child processes, ten times per
//! workload on one seed, for the benchmark's own `run_seconds`.

use std::path::Path;
use std::process::ExitCode;

use sdqbench::script::{Sizes, Workload};
use sdqbench::workloads::RunConfig;
use sdqbench::{layers, ledger, report, spec, workloads};

/// `--key value` options and bare words of the command line.
struct Args {
    words: Vec<String>,
    options: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            options: Vec::new(),
            smoke: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => args.smoke = true,
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    args.options.push((key.to_string(), value));
                }
                None => args.words.push(arg),
            }
        }
        Ok(args)
    }

    /// Refuse an option the command does not take.
    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((key, _)) => Err(format!("--{key} is not an option here")),
            None => Ok(()),
        }
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.iter().find(|(k, _)| k == key) {
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{key} {v}: not understood")),
            None => Ok(default),
        }
    }
}

/// One workload in this process: measure with tracing off; with `trace`,
/// follow with the two-writer pass and the layer probe. Prints the table,
/// then the result line.
fn one_workload(workload: Workload, args: &Args, trace: bool) -> Result<bool, String> {
    let cfg = RunConfig {
        workload,
        seed: args.get("seed", 11)?,
        seconds: args.get("seconds", ledger::seconds(args.smoke) as f64)?,
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        setups: if args.smoke { 1 } else { 9 },
        trace,
    };
    let (outcome, world) = workloads::run(&cfg);
    let values = report::end_to_end_values(&outcome);
    println!(
        "{}",
        report::end_to_end_table(workload.name(), &outcome, &values)
    );
    if trace {
        let layer_values = layers::probe(&cfg, &world, &outcome);
        println!("{}", report::layer_table(workload.name(), &layer_values));
        println!(
            "{}",
            report::result_line(&outcome, &spec::PER_LAYER, &layer_values)
        );
    } else {
        println!(
            "{}",
            report::result_line(&outcome, &spec::END_TO_END, &values)
        );
    }
    Ok(outcome.failed == 0)
}

fn run_all(args: &Args) -> Result<bool, String> {
    let seed = args.get("seed", 11u64)?;
    eprintln!("untraced");
    let set = ledger::run_set(seed, args.smoke)?;
    eprintln!("traced: one run per workload");
    let mut layers = Vec::new();
    let mut correct = set.correct;
    for workload in Workload::ALL {
        let child = ledger::run_child(workload, seed, true, args.smoke)?;
        correct &= child.correct;
        layers.push((workload, child.metrics));
    }
    let record = ledger::record(&set, &layers, seed, ledger::seconds(args.smoke));
    println!("{}", record.pretty());
    if !args.smoke {
        ledger::append(Path::new(ledger::LEDGER), &record)
            .map_err(|e| format!("{}: {e}", ledger::LEDGER))?;
        eprintln!("appended to {}", ledger::LEDGER);
    }
    Ok(correct)
}

fn agree(args: &Args) -> Result<bool, String> {
    let seed = args.get("seed", 11u64)?;
    eprintln!("first set");
    let first = ledger::run_set(seed, args.smoke)?;
    eprintln!("second set");
    let second = ledger::run_set(seed, args.smoke)?;
    let (table, holds) = ledger::agree(&first, &second);
    println!("{table}");
    Ok(holds)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let workload_named = |name: &str| {
        Workload::parse(name).ok_or_else(|| {
            let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}' (known: {})", known.join(", "))
        })
    };
    match args.words.first().map(String::as_str) {
        None => {
            args.only(&["workload", "seed", "seconds", "trace"])?;
            let name: String = args.get("workload", String::new())?;
            let trace: u8 = args.get("trace", 0)?;
            one_workload(workload_named(&name)?, args, trace != 0)
        }
        Some(command @ ("run" | "agree")) => {
            args.only(&["seed"])?;
            if command == "run" {
                run_all(args)
            } else {
                agree(args)
            }
        }
        Some("check") => {
            args.only(&[])?;
            let [_, a, b] = args.words.as_slice() else {
                return Err("check needs two ledger records: <path>[#n] <path>[#n]".into());
            };
            let (table, any_worse) = ledger::check(&ledger::load(a)?, &ledger::load(b)?)?;
            println!("{table}");
            Ok(!any_worse)
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    match Args::parse().and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sdqbench: {e}");
            ExitCode::from(2)
        }
    }
}
