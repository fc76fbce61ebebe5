//! `sysbench`: the repo's one real-engine serving benchmark.
//!
//! `sysbench --workload W --seed S --seconds N --trace 0|1` runs one
//! workload in this process and prints the result object the driver
//! reads from the last line; `sysbench suite` runs the full set, each
//! workload in a fresh process; `sysbench benchmark-json` prints
//! `BENCHMARK.json`. See `README.md` beside `Cargo.toml`.

mod deploy;
mod idle;
mod layers;
mod phases;
mod report;
mod run;
mod spans;
mod spec;
mod stats;
mod suite;

use std::process::ExitCode;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} {v}: not a valid value")),
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("benchmark-json") => {
            print!("{}", spec::benchmark_json());
            Ok(())
        }
        Some("suite") => suite::run(
            parsed(args, "--seed", 1)?,
            parsed(args, "--repeat", 1)?,
            parsed(args, "--seconds", spec::RUN_SECONDS as f64)?,
        ),
        _ => {
            let name = flag(args, "--workload").ok_or("missing --workload <name>")?;
            let workload = spec::workload(name).ok_or_else(|| {
                let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; known: {}", known.join(", "))
            })?;
            let trace = match flag(args, "--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            let seconds: f64 = parsed(args, "--seconds", spec::RUN_SECONDS as f64)?;
            if !(1.0..=60.0).contains(&seconds) {
                return Err(format!("--seconds {seconds}: expected 1 to 60"));
            }
            run::run(workload, parsed(args, "--seed", 1)?, seconds, trace)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sysbench: {message}");
            ExitCode::FAILURE
        }
    }
}
