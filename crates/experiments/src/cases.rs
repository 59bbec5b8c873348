//! The experimental case grid.
//!
//! §V: *"On the overall we have generated 52 cases with different graphs
//! type, number of nodes, target platform, uncertainty level, etc. For each
//! generated case, we built 10000 random schedules (2000 for those having
//! n = 100)"*; §VI: Fig. 6 aggregates "24 different cases (the one with
//! graph of 100 nodes or less)".
//!
//! The authors did not publish the exact composition; this module defines a
//! documented grid with the same cardinalities: a 24-case tier-A set
//! (n ≤ ~100, the Fig. 6 input) and a 28-case tier-B replication set —
//! 52 cases in total. The ~1000-node "indication" graphs stay out of the
//! grid; Fig. 1 builds them itself. See DESIGN.md for the substitution note.
//!
//! [`CaseSet`] is the Fig. 6 aggregation the extension studies share: one
//! streaming study per case, then the mean and std of the per-case
//! matrices.

use crate::RunOptions;
use robusched_core::adversarial::cluster_holds;
use robusched_core::{metric_index, StudyBuilder};
use robusched_dag::generators::{cholesky, gaussian_elimination};
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_stats::CorrMatrix;
use robusched_stochastic::{ClassicEvaluator, Evaluator};

/// Which graph family a case draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// §V layered random DAG.
    Random,
    /// Cholesky factorization graph (parameter = matrix size).
    Cholesky,
    /// Gaussian elimination graph (parameter = matrix size).
    GaussianElimination,
}

/// One experimental case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Stable identifier (used in CSV names).
    pub id: String,
    /// Graph family.
    pub family: Family,
    /// Family parameter: task count (random) or matrix size (real apps).
    pub param: usize,
    /// Machine count.
    pub machines: usize,
    /// Uncertainty level.
    pub ul: f64,
    /// Case seed.
    pub seed: u64,
    /// Paper-faithful number of random schedules for this case.
    pub schedules: usize,
}

impl Case {
    /// Number of tasks this case's graph will have.
    pub fn task_count(&self) -> usize {
        match self.family {
            Family::Random => self.param,
            Family::Cholesky => self.param * (self.param + 1) / 2,
            Family::GaussianElimination => (self.param - 1) * (self.param + 2) / 2,
        }
    }

    /// Materializes the scenario.
    pub fn scenario(&self) -> Scenario {
        match self.family {
            Family::Random => Scenario::paper_random(self.param, self.machines, self.ul, self.seed),
            Family::Cholesky => {
                Scenario::paper_real_app(cholesky(self.param), self.machines, self.ul, self.seed)
            }
            Family::GaussianElimination => Scenario::paper_real_app(
                gaussian_elimination(self.param),
                self.machines,
                self.ul,
                self.seed,
            ),
        }
    }
}

/// Paper schedule count for a task count (§V: 10 000, but 2 000 at n≈100).
fn schedules_for(n_tasks: usize) -> usize {
    if n_tasks >= 90 {
        2_000
    } else {
        10_000
    }
}

const ULS: [f64; 2] = [1.01, 1.1];

/// Tier A: the 24 cases (n ≤ ~100) aggregated into Fig. 6.
pub fn tier_a(master_seed: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut k = 0u64;
    let mut push =
        |family: Family, param: usize, machines: usize, ul: f64, cases: &mut Vec<Case>| {
            k += 1;
            let seed = derive_seed(master_seed, k);
            let c = Case {
                id: String::new(),
                family,
                param,
                machines,
                ul,
                seed,
                schedules: 0,
            };
            let n = c.task_count();
            let id = format!(
                "{}-n{}-m{}-ul{}",
                match family {
                    Family::Random => format!("rand{k}"),
                    Family::Cholesky => "chol".to_string(),
                    Family::GaussianElimination => "ge".to_string(),
                },
                n,
                machines,
                ul
            );
            cases.push(Case {
                id,
                schedules: schedules_for(n),
                ..c
            });
        };
    for ul in ULS {
        // Random: (n, m) in the paper's figure configurations, 2 replicas.
        for (n, m) in [(10, 3), (30, 8), (100, 16)] {
            push(Family::Random, n, m, ul, &mut cases);
            push(Family::Random, n, m, ul, &mut cases);
        }
        // Real applications at matching scales.
        for (b, m) in [(4, 3), (7, 8), (13, 16)] {
            push(Family::Cholesky, b, m, ul, &mut cases);
        }
        for (b, m) in [(5, 3), (8, 8), (13, 16)] {
            push(Family::GaussianElimination, b, m, ul, &mut cases);
        }
    }
    assert_eq!(cases.len(), 24);
    cases
}

/// Tier B: 28 further replications (small/medium sizes), completing the
/// paper's 52-case total together with tier A.
pub fn tier_b(master_seed: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut k = 1000u64;
    for ul in ULS {
        for (n, m) in [(10, 3), (30, 8)] {
            for _rep in 0..6 {
                k += 1;
                let seed = derive_seed(master_seed, k);
                cases.push(Case {
                    id: format!("randB{k}-n{n}-m{m}-ul{ul}"),
                    family: Family::Random,
                    param: n,
                    machines: m,
                    ul,
                    seed,
                    schedules: schedules_for(n),
                });
            }
        }
        // The ~100-node real-application instances (the paper's Fig. 5
        // scale): Cholesky b = 14 (105 tasks), GE b = 14 (104 tasks).
        for (family, b) in [(Family::Cholesky, 14), (Family::GaussianElimination, 14)] {
            k += 1;
            let seed = derive_seed(master_seed, k);
            let c = Case {
                id: String::new(),
                family,
                param: b,
                machines: 16,
                ul,
                seed,
                schedules: 0,
            };
            let n = c.task_count();
            cases.push(Case {
                id: format!(
                    "{}B-n{}-m16-ul{}",
                    if family == Family::Cholesky {
                        "chol"
                    } else {
                        "ge"
                    },
                    n,
                    ul
                ),
                schedules: schedules_for(n),
                ..c
            });
        }
    }
    assert_eq!(cases.len(), 28);
    cases
}

/// The Fig. 6 aggregation over a set of cases: per case one streaming
/// [`StudyBuilder`] pass (Pearson from the co-moment accumulator, Spearman
/// from an exact rank reservoir), then the mean and std of the per-case
/// matrices, cell by cell and in case order.
#[derive(Debug, Clone)]
pub struct CaseSet {
    /// Number of cases aggregated.
    pub cases: usize,
    /// Mean Pearson matrix over the cases (paper orientation).
    pub pearson_mean: CorrMatrix,
    /// Std of the Pearson cells over the cases.
    pub pearson_std: CorrMatrix,
    /// Mean Spearman matrix over the cases.
    pub spearman_mean: CorrMatrix,
}

impl CaseSet {
    /// Runs `schedules` random schedules on every `(scenario, study seed)`
    /// case under the classic evaluator.
    pub fn run(
        opts: &RunOptions,
        schedules: usize,
        cases: impl IntoIterator<Item = (Scenario, u64)>,
    ) -> std::io::Result<Self> {
        Self::run_with(opts, schedules, cases, || {
            Box::new(ClassicEvaluator::default())
        })
    }

    /// [`run`](Self::run) under the evaluator `evaluator()` builds, one
    /// per case. The reservoir holds every schedule, so the Spearman
    /// matrices are exact at any `--scale`.
    pub fn run_with(
        opts: &RunOptions,
        schedules: usize,
        cases: impl IntoIterator<Item = (Scenario, u64)>,
        evaluator: impl Fn() -> Box<dyn Evaluator>,
    ) -> std::io::Result<Self> {
        let mut pearsons = Vec::new();
        let mut spearmans = Vec::new();
        for (scenario, seed) in cases {
            let res = StudyBuilder::new(&scenario)
                .random_schedules(schedules)
                .seed(seed)
                .threads_opt(opts.threads)
                .evaluator(evaluator())
                .reservoir_capacity(schedules.max(2))
                .run()?;
            pearsons.push(res.pearson_streamed());
            spearmans.push(res.spearman_streamed());
        }
        let (pearson_mean, pearson_std) = CorrMatrix::aggregate(&pearsons);
        let (spearman_mean, _) = CorrMatrix::aggregate(&spearmans);
        Ok(Self {
            cases: pearsons.len(),
            pearson_mean,
            pearson_std,
            spearman_mean,
        })
    }

    /// A mean-Pearson cell by metric labels.
    pub fn pearson(&self, a: &str, b: &str) -> f64 {
        self.pearson_mean.get(metric_index(a), metric_index(b))
    }

    /// A mean-Spearman cell by metric labels.
    pub fn spearman(&self, a: &str, b: &str) -> f64 {
        self.spearman_mean.get(metric_index(a), metric_index(b))
    }

    /// Whether the σ/lateness/1−A equivalence cluster holds on the mean
    /// Pearson matrix ([`cluster_holds`], the rule the adversarial
    /// search's `ObjectiveReport::cluster_broken` negates).
    pub fn cluster_holds(&self) -> bool {
        cluster_holds(
            self.pearson("makespan_std", "avg_lateness"),
            self.pearson("makespan_std", "abs_prob"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_core::{ObjectiveReport, METRIC_LABELS};

    /// A one-case set whose mean Pearson matrix reads `p_lat` for σ~L and
    /// `p_abs` for σ~(1−A).
    fn case_set(p_lat: f64, p_abs: f64) -> CaseSet {
        let (std, lat, abs) = (
            metric_index("makespan_std"),
            metric_index("avg_lateness"),
            metric_index("abs_prob"),
        );
        let pearson = CorrMatrix::from_pairwise(&METRIC_LABELS, |i, j| match [i, j] {
            pair if pair.contains(&std) && pair.contains(&lat) => p_lat,
            pair if pair.contains(&std) && pair.contains(&abs) => p_abs,
            _ => 0.0,
        });
        let (pearson_mean, pearson_std) = CorrMatrix::aggregate(&[pearson]);
        CaseSet {
            cases: 1,
            spearman_mean: pearson_mean.clone(),
            pearson_mean,
            pearson_std,
        }
    }

    #[test]
    fn case_sets_and_objective_reports_share_one_cluster_rule() {
        for (p_lat, p_abs, holds) in [(0.99, 0.6, false), (0.6, 0.99, false), (0.95, 0.95, true)] {
            let set = case_set(p_lat, p_abs);
            assert_eq!(set.pearson("makespan_std", "avg_lateness"), p_lat);
            assert_eq!(set.pearson("abs_prob", "makespan_std"), p_abs);
            let report = ObjectiveReport {
                score: 1.0 - p_lat.min(p_abs),
                p_std_lateness: p_lat,
                p_std_absprob: p_abs,
            };
            assert_eq!(set.cluster_holds(), holds, "σ~L {p_lat}, σ~(1−A) {p_abs}");
            assert_eq!(
                report.cluster_broken(),
                !holds,
                "σ~L {p_lat}, σ~(1−A) {p_abs}"
            );
        }
    }

    #[test]
    fn tier_sizes_match_paper() {
        assert_eq!(tier_a(1).len(), 24);
        assert_eq!(tier_b(1).len(), 28);
        assert_eq!(tier_a(1).len() + tier_b(1).len(), 52);
    }

    #[test]
    fn tier_a_all_small() {
        for c in tier_a(1) {
            assert!(c.task_count() <= 105, "{} too big", c.id);
            assert!(c.schedules >= 2_000);
        }
    }

    #[test]
    fn schedule_counts_follow_paper() {
        assert_eq!(schedules_for(10), 10_000);
        assert_eq!(schedules_for(30), 10_000);
        assert_eq!(schedules_for(100), 2_000);
    }

    #[test]
    fn cases_materialize() {
        for c in tier_a(7).into_iter().take(4) {
            let s = c.scenario();
            assert_eq!(s.task_count(), c.task_count());
            assert_eq!(s.machine_count(), c.machines);
        }
    }

    #[test]
    fn case_ids_unique() {
        let mut ids: Vec<String> = tier_a(1)
            .into_iter()
            .chain(tier_b(1))
            .map(|c| c.id)
            .collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate case ids");
    }

    #[test]
    fn deterministic_in_master_seed() {
        let a = tier_a(9);
        let b = tier_a(9);
        assert_eq!(a[0].seed, b[0].seed);
        let c = tier_a(10);
        assert_ne!(a[0].seed, c[0].seed);
    }
}
