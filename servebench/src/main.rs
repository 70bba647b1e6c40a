//! `servebench` — the served benchmark of the BFL workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload <load-scaled|whatif-warm|whatif-cold> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the workspace root. Builds the release `bfl`, boots it as a
//! child process per run, drives the workload's seeded closed loop over
//! TCP, checks every answer against an oracle after the window, and
//! prints a report followed by one JSON line: the end-to-end metrics, or
//! with `--trace 1` the per-layer metrics of an in-process replay of the
//! same inputs. NOTES.md defines every metric.

mod hostspeed;
mod inputs;
mod oracle;
mod report;
mod run;
mod server;
mod stats;
mod trace;

use std::process::ExitCode;

use inputs::Workload;

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: servebench --workload <load-scaled|whatif-warm|whatif-cold> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match report::bench(args.workload, args.seed, args.seconds, args.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = parse_args(&strings(&[
            "--workload",
            "whatif-cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(a.workload, Workload::WhatifCold);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "load-scaled", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
    }
}
