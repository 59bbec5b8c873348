//! `robusched-experiments` — regenerate the paper's figures and the
//! extension studies.
//!
//! ```text
//! robusched-experiments <experiment|all|ext-all|list>
//!                       [--scale F] [--seed N] [--threads N]
//!                       [--out DIR] [--no-out]
//! ```
//!
//! `list` prints every registered experiment. `--scale 1.0` (default) is
//! paper-faithful: 10 000 random schedules per case, 100 000 Monte-Carlo
//! realizations. `--scale 0.01` gives a smoke run in seconds. `--threads`
//! caps the per-study worker count (default: all cores). CSVs land in
//! `--out` (default `results/`).

use robusched_experiments::registry::ExperimentEntry;
use robusched_experiments::{
    experiment_by_name, registry, render_list, ExperimentGroup, RunOptions,
};
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: robusched-experiments <experiment|all|ext-all|list> \
         [--scale F] [--seed N] [--threads N] [--out DIR] [--no-out]\n\
         run `robusched-experiments list` for the registered experiments"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args[0].clone();
    let mut opts = RunOptions::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let raw = args.get(i).cloned().unwrap_or_else(|| usage());
                match raw.parse::<f64>() {
                    Ok(v) if v > 0.0 && v.is_finite() => opts.scale = v,
                    Ok(v) => {
                        eprintln!("--scale must be a positive finite number, got {v}");
                        std::process::exit(2);
                    }
                    Err(_) => {
                        eprintln!("--scale expects a number, got '{raw}'");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                let raw = args.get(i).cloned().unwrap_or_else(|| usage());
                match raw.parse::<usize>() {
                    Ok(0) => {
                        eprintln!("--threads must be at least 1 (0 workers cannot run a study)");
                        std::process::exit(2);
                    }
                    Ok(v) => opts.threads = Some(v),
                    Err(_) => {
                        eprintln!("--threads expects a positive integer, got '{raw}'");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => {
                i += 1;
                opts.out_dir = Some(PathBuf::from(
                    args.get(i).cloned().unwrap_or_else(|| usage()),
                ));
            }
            "--no-out" => opts.out_dir = None,
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
        i += 1;
    }

    let run_one = |e: &ExperimentEntry, opts: &RunOptions| {
        let t0 = Instant::now();
        match e.run(opts) {
            Ok(text) => println!("{text}"),
            Err(err) => {
                eprintln!("{} failed: {err}", e.name());
                std::process::exit(1);
            }
        }
        eprintln!("[{} done in {:.1?}]", e.name(), t0.elapsed());
    };

    match cmd.as_str() {
        "list" => print!("{}", render_list()),
        "all" => {
            for e in registry()
                .iter()
                .filter(|e| e.group() == ExperimentGroup::Figure)
            {
                run_one(e, &opts);
            }
        }
        "ext-all" => {
            for e in registry()
                .iter()
                .filter(|e| e.group() == ExperimentGroup::Extension)
            {
                run_one(e, &opts);
            }
        }
        name => match experiment_by_name(name) {
            Some(e) => run_one(e, &opts),
            None => {
                eprintln!("unknown experiment {name}");
                usage();
            }
        },
    }
}
