//! End-to-end and per-layer benchmark of the TAO reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lock-flow|verify|sat-recover|sat-bmc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop driven from this one process, one
//! operation at a time; the only concurrency is the program's own grid
//! executor (`verify`) or solver portfolio (`sat-bmc`). Inputs are
//! generated from `--seed`. Every operation's output is checked against
//! an independent reference, and every deterministic count must repeat
//! exactly when the same instance runs again; either kind of miss counts
//! as a failed operation.
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off. Op
//! and set-up times are CPU times of the whole process (see
//! [`run::cpu_s`] for why).
//! `--trace 1` runs every op untraced and traced in turn, and reports
//! the per-layer metrics from the traced ops (see [`layers`]).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! A human-readable summary goes to standard error.

mod attack;
mod flow;
mod layers;
mod run;
#[cfg(test)]
mod selftest;
mod verify;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = run::Kind::from_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (known: {})",
            args.workload,
            run::Kind::names()
        );
        return ExitCode::from(2);
    };
    let report = match run::run(kind, args.seed, args.seconds, args.trace, run::Size::Full) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", report.summary);
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload verify --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a, Args { workload: "verify".into(), seed: 7, seconds: 10.0, trace: true });
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload verify --seed 7").is_err());
        assert!(args("--workload verify --seed x --seconds 1").is_err());
        assert!(args("--workload verify --seed 1 --seconds 0").is_err());
        assert!(args("--workload verify --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload verify --seed 1 --seconds 1 --bogus 2").is_err());
    }
}
