//! The robusched benchmark: one command per workload, printing every
//! end-to-end metric (or, with `--trace 1`, every per-layer metric) as the
//! last line of standard output.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study-classic --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `study-classic`, `study-mc`, `serve-mix`, `online-dynamic`
//! (see README.md for why each is there and what it measures).

mod harness;
mod online;
mod replay;
mod serve;
mod study;
mod trace;

use harness::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{LayerTime, Tracer};

const WORKLOADS: [&str; 4] = ["study-classic", "study-mc", "serve-mix", "online-dynamic"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker and client count: the machine's available parallelism.
    pub threads: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
    })
}

/// Writes the traced pass's spans to `.bench_trace/` under the working
/// directory and prints the per-layer self times to standard error.
pub fn write_trace(tracer: &Tracer, layers: &BTreeMap<&'static str, LayerTime>, args: &Args) {
    let path =
        PathBuf::from(".bench_trace").join(format!("{}-seed{}.csv", args.workload, args.seed));
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    let total: u64 = layers.values().map(|l| l.self_ns).sum();
    eprintln!(
        "{:<34} {:>9} {:>12} {:>12} {:>7}",
        "span", "calls", "total_ms", "self_ms", "self%"
    );
    for (name, l) in layers {
        eprintln!(
            "{name:<34} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            100.0 * l.self_ns as f64 / total.max(1) as f64
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "workload {} seed {} for {} s on {} threads{}",
        args.workload,
        args.seed,
        args.seconds,
        args.threads,
        if args.trace { " (traced)" } else { "" }
    );
    let mut report = Report::default();
    match args.workload.as_str() {
        "study-classic" => study::run("classic", &args, &mut report),
        "study-mc" => study::run("montecarlo", &args, &mut report),
        "serve-mix" => serve::run(&args, &mut report),
        _ => online::run(&args, &mut report),
    }
    let line = report.json_line(args.trace);
    for failure in &report.check_failures {
        eprintln!("check failed: {failure}");
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 2.5, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "study-mc", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "study-mc", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "study-mc", "--seed"]).is_err());
    }
}
