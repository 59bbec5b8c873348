//! Pins every bundled heuristic's schedules bit for bit.
//!
//! Each schedule's assignment and per-machine orders hash (64-bit FNV-1a)
//! to a digest, and the digests must match `tests/data/heuristic_digests.txt`
//! line for line. The grid covers every registry heuristic on paper-random
//! scenarios (n ∈ {5, 30, 100, 300} × m ∈ {2, 8, 32} at UL 1.01 and 1.5),
//! one structured-application and one sample-trace scenario, one scenario
//! whose machines all cost the same (so every placement breaks a tie), plus
//! σ-HEFT at κ ∈ {0, 2} under per-task ULs (the registry runs it at κ = 1
//! with one global UL). A refactor of the list-scheduling code must leave the file
//! unchanged; a deliberate change to a heuristic replaces it with the table
//! this test prints on a mismatch.

use robusched::dag::apps::AppClass;
use robusched::experiments::ext::traces::sample_trace;
use robusched::platform::{CostMatrix, Scenario, TraceCalibration};
use robusched::randvar::derive_seed;
use robusched::sched::{registry, sigma_heft, Schedule};

const EXPECTED: &str = include_str!("data/heuristic_digests.txt");

/// FNV-1a over the task count, the assignment, and each machine's order
/// (prefixed by its length), all as little-endian `u64`s.
fn digest(schedule: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: usize| {
        for b in (x as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(schedule.task_count());
    for &p in schedule.assignment() {
        feed(p);
    }
    for p in 0..schedule.machine_count() {
        let order = schedule.order_on(p);
        feed(order.len());
        for &t in order {
            feed(t);
        }
    }
    h
}

/// The labelled scenarios every registry heuristic runs on.
fn registry_grid() -> Vec<(String, Scenario)> {
    let mut grid = Vec::new();
    for n in [5, 30, 100, 300] {
        for m in [2, 8, 32] {
            for ul in [1.01, 1.5] {
                let seed = (n * 1000 + m) as u64;
                grid.push((
                    format!("paper-random/{n}/{m}/{ul}/{seed}"),
                    Scenario::paper_random(n, m, ul, seed),
                ));
            }
        }
    }
    grid.push((
        "app/cholesky/6/8/0.5/1.1/7".to_string(),
        Scenario::structured_app(AppClass::Cholesky.generate(6, 7), 8, 0.5, 1.1, 7),
    ));
    let trace = sample_trace("montage-like").expect("committed sample trace");
    let calibration = TraceCalibration {
        machines: 8,
        speed_cov: 0.5,
    };
    grid.push((
        "trace/montage-like/8/0.5/1.1/3".to_string(),
        Scenario::from_trace_with(&trace, &calibration, 1.1, 3),
    ));
    let s = Scenario::paper_random(30, 4, 1.1, 11);
    let costs = (0..30 * 4).map(|i| s.graph.task_work[i / 4]).collect();
    grid.push((
        "homogeneous/30/4/1.1/11".to_string(),
        Scenario::new(
            s.graph,
            s.platform,
            CostMatrix::from_rows(30, 4, costs),
            s.uncertainty,
        ),
    ));
    grid
}

/// Paper-random scenarios whose tasks alternate between UL 1.6 and 1.01
/// by seed parity, as in the `ext-sigma` study's variable regime.
fn per_task_ul_grid() -> Vec<(String, Scenario)> {
    let mut grid = Vec::new();
    for n in [5, 30, 100, 300] {
        for m in [2, 8, 32] {
            let seed = (n * 1000 + m) as u64 + 7;
            let s = Scenario::paper_random(n, m, 1.1, seed);
            let uls = (0..n)
                .map(|v| {
                    if derive_seed(seed, v as u64).is_multiple_of(2) {
                        1.6
                    } else {
                        1.01
                    }
                })
                .collect();
            grid.push((
                format!("per-task-ul/{n}/{m}/{seed}"),
                s.with_per_task_ul(uls),
            ));
        }
    }
    grid
}

fn actual_table() -> String {
    let mut lines = Vec::new();
    for (label, s) in registry_grid() {
        for h in registry() {
            let sched = h.schedule(&s).expect("bundled heuristics are infallible");
            lines.push(format!("{}\t{label}\t{:016x}", h.name(), digest(&sched)));
        }
    }
    for (label, s) in per_task_ul_grid() {
        for kappa in [0.0, 2.0] {
            let sched = sigma_heft(&s, kappa);
            lines.push(format!(
                "sigma_heft(κ={kappa})\t{label}\t{:016x}",
                digest(&sched)
            ));
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn heuristic_schedules_match_recorded_digests() {
    let actual = actual_table();
    if actual != EXPECTED {
        let changed: Vec<&str> = actual
            .lines()
            .filter(|line| !EXPECTED.lines().any(|e| e == *line))
            .collect();
        panic!(
            "{} of {} schedule digests differ from tests/data/heuristic_digests.txt:\n{}\n\
             full table:\n{actual}",
            changed.len(),
            actual.lines().count(),
            changed.join("\n")
        );
    }
}
