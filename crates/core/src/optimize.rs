//! Biobjective local search over schedules: expected makespan vs. makespan
//! standard deviation.
//!
//! §VIII of the paper: *"at some point (for low makespan schedules) there
//! could be some trade-off to find"* — but random schedules only explore
//! the bulk of the space. This module walks toward the (E(M), σ_M) Pareto
//! front with a simple first-improvement local search over two move kinds:
//!
//! * **reassign** — move one task to another machine (keeping the eager
//!   order positions consistent);
//! * **swap** — exchange two adjacent tasks on one machine when precedence
//!   allows.
//!
//! Candidate schedules are scored with Spelde's CLT evaluation (two orders
//! of magnitude faster than the grid evaluator, and §V found the methods
//! agree); the final archive is re-scored with the classical evaluator.
//! The output is a Pareto archive of mutually non-dominated schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_sched::{heft, random_schedule, Schedule};
use robusched_stochastic::{evaluate_spelde, ClassicEvaluator, EvalContext, Evaluator};

/// One point of the Pareto archive.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The schedule.
    pub schedule: Schedule,
    /// Expected makespan (classical evaluator).
    pub expected_makespan: f64,
    /// Makespan standard deviation (classical evaluator).
    pub makespan_std: f64,
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Local-search iterations (move proposals).
    pub iterations: usize,
    /// Number of scalarization weights (each weight runs one descent).
    pub sweeps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            iterations: 2_000,
            sweeps: 5,
            seed: 7,
        }
    }
}

/// Scores a schedule with the fast CLT evaluator.
fn fast_score(scenario: &Scenario, sched: &Schedule) -> (f64, f64) {
    let r = evaluate_spelde(scenario, sched);
    (r.mean, r.std_dev)
}

/// Proposes a neighbor of `sched` (reassign or adjacent swap); returns
/// `None` when the proposal is structurally invalid.
fn propose(scenario: &Scenario, sched: &Schedule, rng: &mut StdRng) -> Option<Schedule> {
    let n = scenario.task_count();
    let m = scenario.machine_count();
    let dag = &scenario.graph.dag;
    if rng.gen_bool(0.5) && m > 1 {
        // Reassign a random task to a random other machine, appending at a
        // position consistent with its current relative order.
        let t = rng.gen_range(0..n);
        let from = sched.machine_of(t);
        let mut to = rng.gen_range(0..m - 1);
        if to >= from {
            to += 1;
        }
        let mut assignment = sched.assignment().to_vec();
        assignment[t] = to;
        let mut orders: Vec<Vec<usize>> = (0..m).map(|p| sched.order_on(p).to_vec()).collect();
        orders[from].retain(|&x| x != t);
        // Insert into the target order at a random feasible slot.
        let pos = rng.gen_range(0..=orders[to].len());
        orders[to].insert(pos, t);
        Schedule::try_new(assignment, orders, dag).ok()
    } else {
        // Swap two adjacent tasks on one machine if no precedence connects
        // them.
        let p = rng.gen_range(0..m);
        let order = sched.order_on(p);
        if order.len() < 2 {
            return None;
        }
        let i = rng.gen_range(0..order.len() - 1);
        let (a, b) = (order[i], order[i + 1]);
        if dag.has_edge(a, b) {
            return None;
        }
        let mut orders: Vec<Vec<usize>> = (0..m).map(|q| sched.order_on(q).to_vec()).collect();
        orders[p].swap(i, i + 1);
        Schedule::try_new(sched.assignment().to_vec(), orders, dag).ok()
    }
}

/// Inserts into a Pareto archive, dropping dominated entries. Returns true
/// when the candidate enters the archive.
fn archive_insert(
    archive: &mut Vec<(f64, f64, Schedule)>,
    e: f64,
    s: f64,
    sched: &Schedule,
) -> bool {
    const EPS: f64 = 1e-12;
    if archive
        .iter()
        .any(|&(ae, as_, _)| ae <= e + EPS && as_ <= s + EPS)
    {
        return false;
    }
    archive.retain(|&(ae, as_, _)| !(e <= ae + EPS && s <= as_ + EPS));
    archive.push((e, s, sched.clone()));
    true
}

/// Runs the biobjective search; returns the Pareto archive sorted by
/// expected makespan, re-scored with the classical evaluator.
pub fn pareto_search(scenario: &Scenario, cfg: &SearchConfig) -> Vec<ParetoPoint> {
    let m = scenario.machine_count();
    let mut archive: Vec<(f64, f64, Schedule)> = Vec::new();

    for sweep in 0..cfg.sweeps {
        // Scalarization weight λ sweeps from makespan-only to σ-heavy.
        let lambda = if cfg.sweeps == 1 {
            1.0
        } else {
            // λ ∈ {0, …, ~20·σ-emphasis}: geometric-ish spread.
            (sweep as f64 / (cfg.sweeps - 1) as f64).powi(2) * 20.0
        };
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, sweep as u64));
        // Start from HEFT on even sweeps, a random schedule on odd ones.
        let mut current = if sweep % 2 == 0 {
            heft(scenario)
        } else {
            random_schedule(
                &scenario.graph.dag,
                m,
                derive_seed(cfg.seed, 1000 + sweep as u64),
            )
        };
        let (mut ce, mut cs) = fast_score(scenario, &current);
        archive_insert(&mut archive, ce, cs, &current);
        for _ in 0..cfg.iterations / cfg.sweeps.max(1) {
            let Some(cand) = propose(scenario, &current, &mut rng) else {
                continue;
            };
            let (e, s) = fast_score(scenario, &cand);
            archive_insert(&mut archive, e, s, &cand);
            if e + lambda * s < ce + lambda * cs {
                current = cand;
                ce = e;
                cs = s;
            }
        }
    }

    // Re-score the archive with the classical evaluator and re-filter (the
    // two evaluators rank almost identically, but be exact in the output).
    let classic = ClassicEvaluator::default();
    let mut cx = EvalContext::new(classic.prepare(scenario));
    let mut exact: Vec<(f64, f64, Schedule)> = Vec::new();
    for (_, _, sched) in archive {
        let rv = classic.evaluate_with(scenario, &sched, &mut cx);
        archive_insert(&mut exact, rv.mean(), rv.std_dev(), &sched);
    }
    exact.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Thin near-identical neighbors (within 1e-5 relative in both
    // objectives) — they are distinct schedules but indistinguishable
    // trade-offs.
    let mut thinned: Vec<(f64, f64, Schedule)> = Vec::new();
    for (e, s, sched) in exact {
        let dup = thinned.last().is_some_and(|&(pe, ps, _)| {
            (e - pe).abs() <= 1e-5 * pe.abs().max(1.0)
                && (s - ps).abs() <= 1e-5 * ps.abs().max(1e-6)
        });
        if !dup {
            thinned.push((e, s, sched));
        }
    }
    thinned
        .into_iter()
        .map(|(e, s, schedule)| ParetoPoint {
            schedule,
            expected_makespan: e,
            makespan_std: s,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SearchConfig {
        SearchConfig {
            iterations: 400,
            sweeps: 3,
            seed: 5,
        }
    }

    #[test]
    fn archive_is_mutually_non_dominated() {
        let s = Scenario::paper_random(15, 3, 1.2, 11);
        let front = pareto_search(&s, &quick_cfg());
        assert!(!front.is_empty());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    let dominates = a.expected_makespan <= b.expected_makespan + 1e-12
                        && a.makespan_std <= b.makespan_std + 1e-12;
                    assert!(
                        !dominates,
                        "point {i} dominates point {j}: ({}, {}) vs ({}, {})",
                        a.expected_makespan, a.makespan_std, b.expected_makespan, b.makespan_std
                    );
                }
            }
        }
        // Sorted by makespan ⇒ σ decreases along the front.
        for w in front.windows(2) {
            assert!(w[0].expected_makespan < w[1].expected_makespan + 1e-12);
            assert!(w[0].makespan_std >= w[1].makespan_std - 1e-12);
        }
    }

    #[test]
    fn search_not_worse_than_heft() {
        let s = Scenario::paper_random(15, 3, 1.2, 13);
        let front = pareto_search(&s, &quick_cfg());
        let heft_rv = ClassicEvaluator::default().evaluate(&s, &heft(&s));
        // The best-makespan archive point is at least as good as HEFT
        // (HEFT seeds the search).
        let best = &front[0];
        assert!(
            best.expected_makespan <= heft_rv.mean() + 1e-6,
            "{} vs HEFT {}",
            best.expected_makespan,
            heft_rv.mean()
        );
    }

    #[test]
    fn schedules_in_archive_are_valid() {
        let s = Scenario::paper_random(12, 3, 1.2, 17);
        for p in pareto_search(&s, &quick_cfg()) {
            assert!(p.schedule.validate(&s.graph.dag).is_ok());
        }
    }

    #[test]
    fn proposals_preserve_validity() {
        let s = Scenario::paper_random(10, 3, 1.1, 19);
        let mut rng = StdRng::seed_from_u64(3);
        let base = heft(&s);
        let mut ok = 0;
        for _ in 0..200 {
            if let Some(c) = propose(&s, &base, &mut rng) {
                assert!(c.validate(&s.graph.dag).is_ok());
                ok += 1;
            }
        }
        assert!(ok > 50, "too few valid proposals: {ok}");
    }
}
