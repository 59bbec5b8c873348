//! Fig. 9 — slack is not robustness: four schedules of a join graph.
//!
//! §VII argues with four hand-drawn schedules of a join graph (`N + 1`
//! i.i.d. tasks on `P` processors) that the slack metric and the makespan
//! standard deviation are orthogonal: every (slack, robustness) quadrant is
//! populated. We build the four schedules, evaluate them analytically, and
//! print the measured (σ_M, S̄) pairs — turning the figure into an
//! assertion-backed experiment.

use crate::RunOptions;
use robusched_core::{compute_metrics, MetricOptions, MetricValues};
use robusched_dag::generators::fork_join;
use robusched_platform::{CostMatrix, Platform, Scenario, UncertaintyModel};
use robusched_sched::Schedule;
use robusched_stochastic::{ClassicEvaluator, Evaluator};

/// Branch count `N` (the join graph has `N + 1` tasks).
const N: usize = 12;
/// Processor count `P`.
const P: usize = 4;

/// One evaluated schedule of the figure.
#[derive(Debug, Clone)]
pub struct Quadrant {
    /// Schedule label (a–d, following the paper's layout).
    pub label: &'static str,
    /// What the paper claims about it.
    pub claim: &'static str,
    /// The measured metrics.
    pub metrics: MetricValues,
}

fn scenario() -> Scenario {
    // i.i.d. tasks: identical cost on every machine; zero-volume edges
    // (the generator sets volume 0 on the join edges), UL = 1.5 for a
    // clearly visible spread.
    let tg = fork_join(N);
    let costs = CostMatrix::from_rows(N + 1, P, vec![10.0; (N + 1) * P]);
    Scenario::new(
        tg,
        Platform::paper_default(P),
        costs,
        UncertaintyModel::paper(1.5),
    )
}

/// The four schedules (task `N` is the join task).
fn schedules() -> Vec<(&'static str, &'static str, Schedule)> {
    // a) balanced parallel: N/P branches per machine, join appended on 0.
    let mut assign_a = vec![0usize; N + 1];
    let mut order_a: Vec<Vec<usize>> = vec![Vec::new(); P];
    for (t, slot) in assign_a.iter_mut().enumerate().take(N) {
        let p = t % P;
        *slot = p;
        order_a[p].push(t);
    }
    assign_a[N] = 0;
    order_a[0].push(N);
    let a = Schedule::new(assign_a, order_a);

    // b) short critical path: two branches + the join on machine 0, the
    // other branches spread over machines 1..P (they finish long before the
    // join starts — the paper's "only the three tasks on the critical path
    // will have an incidence on the makespan").
    let mut assign_b = vec![0usize; N + 1];
    let mut order_b: Vec<Vec<usize>> = vec![Vec::new(); P];
    assign_b[0] = 0;
    assign_b[1] = 0;
    order_b[0].extend([0, 1]);
    for (t, slot) in assign_b.iter_mut().enumerate().take(N).skip(2) {
        let p = 1 + (t - 2) % (P - 1);
        *slot = p;
        order_b[p].push(t);
    }
    assign_b[N] = 0;
    order_b[0].push(N);
    let b = Schedule::new(assign_b, order_b);

    // c) fully sequential on one machine: no slack, maximal variance
    // accumulation along the chain.
    let mut order_c: Vec<Vec<usize>> = vec![Vec::new(); P];
    order_c[0] = (0..=N).collect();
    let c = Schedule::new(vec![0; N + 1], order_c);

    // d) one long chain plus singleton branches: the singletons carry large
    // slack while the makespan variance stays that of the long chain.
    let mut assign_d = vec![0usize; N + 1];
    let mut order_d: Vec<Vec<usize>> = vec![Vec::new(); P];
    for (t, slot) in assign_d.iter_mut().enumerate().take(N - (P - 1)) {
        *slot = 0;
        order_d[0].push(t);
    }
    for (i, t) in (N - (P - 1)..N).enumerate() {
        assign_d[t] = 1 + i;
        order_d[1 + i].push(t);
    }
    assign_d[N] = 0;
    order_d[0].push(N);
    let d = Schedule::new(assign_d, order_d);

    vec![
        ("a", "balanced parallel — robust, some slack", a),
        ("b", "short critical path — robust, much slack", b),
        ("c", "sequential chain — non-robust, no slack", c),
        ("d", "long chain + singletons — non-robust, much slack", d),
    ]
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> std::io::Result<Vec<Quadrant>> {
    let s = scenario();
    let mut out = Vec::new();
    for (label, claim, sched) in schedules() {
        let rv = ClassicEvaluator::default().evaluate(&s, &sched);
        let metrics = compute_metrics(&s, &sched, &rv, &MetricOptions::default());
        out.push(Quadrant {
            label,
            claim,
            metrics,
        });
    }
    let mut csv = String::from("schedule,claim,avg_makespan,makespan_std,avg_slack,slack_std\n");
    for q in &out {
        csv.push_str(&format!(
            "{},\"{}\",{:.4},{:.4},{:.4},{:.4}\n",
            q.label,
            q.claim,
            q.metrics.expected_makespan,
            q.metrics.makespan_std,
            q.metrics.avg_slack,
            q.metrics.slack_std
        ));
    }
    opts.write_artifact("fig9_slack_vs_robustness.csv", &csv)?;
    Ok(out)
}

/// Human-readable table.
pub fn render(quads: &[Quadrant]) -> String {
    let mut out = String::from(
        "Fig. 9 — slack vs robustness on the join graph (N = 12, P = 4, UL = 1.5)\nsched  E[M]      σ_M      S̄        claim\n",
    );
    for q in quads {
        out.push_str(&format!(
            "  {}   {:>8.2}  {:>7.3}  {:>7.2}   {}\n",
            q.label,
            q.metrics.expected_makespan,
            q.metrics.makespan_std,
            q.metrics.avg_slack,
            q.claim
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_does_not_imply_robustness() {
        let opts = RunOptions {
            scale: 1.0,
            out_dir: None,
            seed: 0,
            threads: None,
        };
        let quads = run(&opts).unwrap();
        let by = |l: &str| {
            quads
                .iter()
                .find(|q| q.label == l)
                .map(|q| q.metrics)
                .unwrap()
        };
        let (a, b, c, d) = (by("a"), by("b"), by("c"), by("d"));
        // Robustness ordering: parallel max concentrates, chains spread.
        assert!(
            a.makespan_std < c.makespan_std,
            "balanced ({}) should beat sequential ({})",
            a.makespan_std,
            c.makespan_std
        );
        assert!(b.makespan_std < c.makespan_std);
        // The sequential chain has (essentially) zero slack.
        assert!(c.avg_slack.abs() < 0.5, "chain slack {}", c.avg_slack);
        // d has far more slack than c yet is about as non-robust: slack
        // fails as a robustness proxy.
        assert!(d.avg_slack > c.avg_slack + 5.0);
        assert!(d.makespan_std > 0.8 * c.makespan_std * 0.8);
        // And b has more slack than a while both are robust.
        assert!(b.avg_slack > a.avg_slack);
    }
}
