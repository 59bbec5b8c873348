//! Pins the disjunctive-graph folds bit for bit.
//!
//! For every case, four digests (64-bit FNV-1a over f64 bits) must match
//! `tests/data/fold_digests.txt` line for line:
//!
//! * the classic makespan distribution (`lo`, `hi`, every PDF value);
//! * Spelde's mean and standard deviation;
//! * every `RemainingDists::rem[v]` and the instance `total`, each as a
//!   distribution digest;
//! * all ten `compute_metrics` fields of the classic distribution, the
//!   slack metrics among them.
//!
//! The cases are paper-random scenarios from n = 10 to 100, one of them
//! on a heterogeneous network and one with per-task ULs, under HEFT and
//! random schedules, plus a chain scheduled on one machine (every machine
//! edge repeats a precedence edge) and the same chain alternating between
//! two machines (every edge communicates). A refactor of the forward or
//! backward walks must leave the file unchanged; a deliberate numerical
//! change replaces it with the table this test prints on a mismatch.

use robusched::core::{compute_metrics, MetricOptions};
use robusched::dag::generators;
use robusched::dynamic::RemainingDists;
use robusched::platform::{CostMatrix, Platform, Scenario, UncertaintyModel};
use robusched::randvar::{derive_seed, DiscreteRv, DEFAULT_GRID};
use robusched::sched::{heft, random_schedule, EagerPlan, Schedule};
use robusched::stochastic::{
    evaluate_spelde, ClassicEvaluator, DiscretizedScenario, Evaluator, Fnv1a,
};

const EXPECTED: &str = include_str!("data/fold_digests.txt");

fn mix_rv(h: &mut Fnv1a, rv: &DiscreteRv) {
    h.mix(rv.lo().to_bits());
    h.mix(rv.hi().to_bits());
    h.mix(rv.pdf_values().len() as u64);
    for &p in rv.pdf_values() {
        h.mix(p.to_bits());
    }
}

fn floats(xs: &[f64]) -> u64 {
    let mut h = Fnv1a::default();
    for &x in xs {
        h.mix(x.to_bits());
    }
    h.finish()
}

/// The four digests of one `(scenario, schedule)` case.
fn digests(s: &Scenario, sched: &Schedule) -> [u64; 4] {
    let classic = ClassicEvaluator::default().evaluate(s, sched);
    let mut h = Fnv1a::default();
    mix_rv(&mut h, &classic);
    let classic_digest = h.finish();

    let spelde = evaluate_spelde(s, sched);
    let spelde_digest = floats(&[spelde.mean, spelde.std_dev]);

    let plan = EagerPlan::new(&s.graph.dag, sched).expect("valid schedule");
    let disc = DiscretizedScenario::new(s, DEFAULT_GRID);
    let dists = RemainingDists::build(s, sched, &plan, &disc);
    let mut h = Fnv1a::default();
    for rem in &dists.rem {
        mix_rv(&mut h, rem);
    }
    mix_rv(&mut h, &dists.total);
    let remaining_digest = h.finish();

    let m = compute_metrics(s, sched, &classic, &MetricOptions::default());
    let metrics_digest = floats(&[
        m.expected_makespan,
        m.makespan_std,
        m.makespan_entropy,
        m.avg_slack,
        m.slack_std,
        m.avg_lateness,
        m.prob_absolute,
        m.prob_relative,
        m.late_fraction,
        m.total_slack,
    ]);
    [
        classic_digest,
        spelde_digest,
        remaining_digest,
        metrics_digest,
    ]
}

/// The labelled scenarios, each run under HEFT and two random schedules.
fn scenarios() -> Vec<(String, Scenario)> {
    let mut grid: Vec<(String, Scenario)> =
        [(10, 3, 1.1), (30, 4, 1.5), (60, 8, 1.2), (100, 16, 1.01)]
            .into_iter()
            .map(|(n, m, ul)| {
                let seed = (n * 100 + m) as u64;
                (
                    format!("paper-random/{n}/{m}/{ul}/{seed}"),
                    Scenario::paper_random(n, m, ul, seed),
                )
            })
            .collect();

    let mut hetero = Scenario::paper_random(40, 6, 1.2, 77);
    hetero.platform = Platform::heterogeneous(6, 0.5, 2.0, 78);
    grid.push(("heterogeneous/40/6/1.2/77".into(), hetero));

    let base = Scenario::paper_random(50, 5, 1.1, 91);
    let uls = (0..base.task_count())
        .map(|v| match derive_seed(91, v as u64) % 3 {
            0 => 1.0,
            1 => 1.05,
            _ => 1.8,
        })
        .collect();
    grid.push(("per-task-ul/50/5/91".into(), base.with_per_task_ul(uls)));
    grid
}

fn actual_table() -> String {
    let mut lines = Vec::new();
    let mut push = |label: String, s: &Scenario, sched: &Schedule| {
        let [c, sp, r, m] = digests(s, sched);
        lines.push(format!("{label}\t{c:016x}\t{sp:016x}\t{r:016x}\t{m:016x}"));
    };

    for (label, s) in scenarios() {
        push(format!("{label}\theft"), &s, &heft(&s));
        for k in 0..2u64 {
            let sched = random_schedule(&s.graph.dag, s.machine_count(), derive_seed(k, 7));
            push(format!("{label}\trandom-{k}"), &s, &sched);
        }
    }

    let n = 8;
    let tg = generators::chain(n);
    let costs = CostMatrix::cv_method(&tg.task_work, 2, 0.5, 5);
    let chain = Scenario::new(
        tg,
        Platform::paper_default(2),
        costs,
        UncertaintyModel::paper(1.3),
    );
    let one_machine = Schedule::new(vec![0; n], vec![(0..n).collect(), vec![]]);
    push("chain/8/2/1.3\tone-machine".into(), &chain, &one_machine);
    let alternating = Schedule::new(
        (0..n).map(|v| v % 2).collect(),
        vec![(0..n).step_by(2).collect(), (1..n).step_by(2).collect()],
    );
    push("chain/8/2/1.3\talternating".into(), &chain, &alternating);

    lines.join("\n") + "\n"
}

#[test]
fn fold_outputs_match_recorded_digests() {
    let actual = actual_table();
    if actual != EXPECTED {
        let changed: Vec<&str> = actual
            .lines()
            .filter(|line| !EXPECTED.lines().any(|e| e == *line))
            .collect();
        panic!(
            "{} of {} fold digests differ from tests/data/fold_digests.txt:\n{}\n\
             full table:\n{actual}",
            changed.len(),
            actual.lines().count(),
            changed.join("\n")
        );
    }
}
