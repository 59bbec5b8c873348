//! Adversarial scenario search (PISA-style): objectives and the
//! simulated-annealing driver.
//!
//! Every study in this repo so far *averages* over random scenarios and
//! finds the paper's σ/lateness/1−A metric cluster intact. Following PISA
//! (arXiv 2403.07120), this module instead *searches* scenario space for
//! instances that maximize disagreement — between robustness metrics, or
//! between heuristics. The moving parts:
//!
//! * [`Objective`] — a score over one [`Scenario`], computed from a full
//!   [`StudyBuilder`] run (random schedules + streaming accumulators) with
//!   common random numbers: every evaluation in a chain uses the same
//!   study seed, so score differences come from the scenario, not from
//!   schedule-sampling noise. The registry ([`objective_registry`] /
//!   [`objective_by_name`]) mirrors the evaluator and drop-policy
//!   registries:
//!   - `cluster-deficit` — `1 − min(ρ(σ, lateness), ρ(σ, 1−A))` over the
//!     streamed Pearson matrix: how far the paper's headline equivalence
//!     cluster is from coherence. A score above `1 − CLUSTER_THRESHOLD`
//!     is a counterexample to the cluster.
//!   - `rank-gap` — `1 − ρ_s(σ, R(γ))` over the exact rank reservoir: how
//!     far the makespan-std ranking drifts from the relative-probability
//!     ranking.
//!   - `heuristic-regret` — the relative `avg_makespan` gap between HEFT
//!     and BIL: scenarios where the two heuristics genuinely disagree.
//! * [`anneal`] — a Metropolis chain over [`SearchPoint`]s with geometric
//!   cooling. Moves are drawn from the perturbation registry
//!   (`robusched_stochastic::perturb`); everything is a pure function of
//!   the chain seed, so a chain re-run reproduces bit for bit, and
//!   *restarts* are simply independent chains with derived seeds (the
//!   `ext-adversarial` study shards them across scoped threads).
//!
//! ## Degeneracy guard
//!
//! [`StreamingMoments::pearson`] returns `0.0` for a degenerate
//! (zero-variance) column — honest for reporting, but fatal for search:
//! a scenario whose 1−A column saturates (every schedule hits or misses
//! the deadline) would fake a perfect cluster break. Objectives therefore
//! check the relative spread of every column they correlate and return
//! [`f64::NEG_INFINITY`] when one is degenerate; the Metropolis rule then
//! never accepts such a point.

use crate::metrics::metric_index;
use crate::streaming::StreamingMoments;
use crate::study::{StudyBuilder, StudyError, StudyResult};
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, SplitMix64};
use robusched_stochastic::perturb::{
    perturbation_registry, replayable_perturbations, Perturbation, SearchPoint,
};

/// The shared coherence threshold of the extension studies: a paper-cluster
/// pairwise Pearson correlation below this counts as a cluster break.
pub const CLUSTER_THRESHOLD: f64 = 0.9;

/// The one cluster rule of the extension studies: the σ/lateness/1−A
/// cluster holds when both paper-cluster Pearson correlations,
/// `ρ(σ, lateness)` and `ρ(σ, 1−A)`, reach [`CLUSTER_THRESHOLD`].
pub fn cluster_holds(p_std_lateness: f64, p_std_absprob: f64) -> bool {
    p_std_lateness.min(p_std_absprob) >= CLUSTER_THRESHOLD
}

/// One objective evaluation's outcome.
#[derive(Debug, Clone)]
pub struct ObjectiveReport {
    /// The objective's score (higher = more adversarial);
    /// [`f64::NEG_INFINITY`] for degenerate scenarios (see the module
    /// docs).
    pub score: f64,
    /// Streamed Pearson ρ(σ, avg_lateness) — the first paper-cluster pair,
    /// reported by every objective for the gallery verdict.
    pub p_std_lateness: f64,
    /// Streamed Pearson ρ(σ, 1−A) — the second paper-cluster pair.
    pub p_std_absprob: f64,
    /// Objective-specific detail (e.g. the raw Spearman value, the two
    /// heuristic makespans), `key=value` separated by spaces.
    pub detail: String,
}

impl ObjectiveReport {
    /// Whether this evaluation certifies a paper-cluster break: the
    /// scenario is non-degenerate and [`cluster_holds`] fails.
    pub fn cluster_broken(&self) -> bool {
        self.score.is_finite() && !cluster_holds(self.p_std_lateness, self.p_std_absprob)
    }
}

/// A score over one scenario, built from a study run. Object-safe; the
/// annealing driver holds a `&dyn Objective`.
pub trait Objective: Send + Sync {
    /// Registry name (e.g. `"cluster-deficit"`).
    fn name(&self) -> &'static str;

    /// Evaluates `scenario` with `schedules` random schedules under
    /// `seed`. Deterministic in its inputs (single-threaded study run).
    fn evaluate(
        &self,
        scenario: &Scenario,
        schedules: usize,
        seed: u64,
    ) -> Result<ObjectiveReport, StudyError>;
}

/// Runs the shared single-threaded study: `schedules` random schedules,
/// classic evaluator, exact rank reservoir, optional heuristics.
fn run_study(
    scenario: &Scenario,
    schedules: usize,
    seed: u64,
    heuristics: &[&str],
) -> Result<StudyResult, StudyError> {
    StudyBuilder::new(scenario)
        .random_schedules(schedules)
        .seed(seed)
        .threads(1)
        .heuristics(heuristics)
        .evaluator_named("classic")
        .reservoir_capacity(schedules.max(2))
        .run()
}

/// Whether every listed metric column has a non-trivial relative spread
/// (std above ~1e-6 of its scale) — the degeneracy guard of the module
/// docs.
fn columns_non_degenerate(m: &StreamingMoments, columns: &[usize]) -> bool {
    columns.iter().all(|&k| {
        let var = m.covariance(k, k);
        let scale = 1.0 + m.mean(k).abs();
        var.is_finite() && var > (1e-6 * scale) * (1e-6 * scale)
    })
}

/// The two paper-cluster Pearson correlations `(ρ(σ, lateness), ρ(σ, 1−A))`
/// from a study's streamed moments.
fn cluster_pair(res: &StudyResult) -> (f64, f64) {
    let p = res.pearson_streamed();
    let (i_std, i_lat, i_abs) = (
        metric_index("makespan_std"),
        metric_index("avg_lateness"),
        metric_index("abs_prob"),
    );
    (p.get(i_std, i_lat), p.get(i_std, i_abs))
}

/// `cluster-deficit`: how far the σ/lateness/1−A cluster is from
/// coherence (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterDeficit;

impl Objective for ClusterDeficit {
    fn name(&self) -> &'static str {
        "cluster-deficit"
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        schedules: usize,
        seed: u64,
    ) -> Result<ObjectiveReport, StudyError> {
        let res = run_study(scenario, schedules, seed, &[])?;
        let (p_lat, p_abs) = cluster_pair(&res);
        let columns = [
            metric_index("makespan_std"),
            metric_index("avg_lateness"),
            metric_index("abs_prob"),
        ];
        let score = if columns_non_degenerate(&res.moments, &columns) {
            1.0 - p_lat.min(p_abs)
        } else {
            f64::NEG_INFINITY
        };
        Ok(ObjectiveReport {
            score,
            p_std_lateness: p_lat,
            p_std_absprob: p_abs,
            detail: format!("min_pearson={}", p_lat.min(p_abs)),
        })
    }
}

/// `rank-gap`: Spearman drift between the σ and R(γ) rankings (see the
/// module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct RankGap;

impl Objective for RankGap {
    fn name(&self) -> &'static str {
        "rank-gap"
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        schedules: usize,
        seed: u64,
    ) -> Result<ObjectiveReport, StudyError> {
        let res = run_study(scenario, schedules, seed, &[])?;
        let (p_lat, p_abs) = cluster_pair(&res);
        let (i_std, i_rel) = (metric_index("makespan_std"), metric_index("rel_prob"));
        let spearman = res.spearman_streamed().get(i_std, i_rel);
        let score = if columns_non_degenerate(&res.moments, &[i_std, i_rel]) {
            1.0 - spearman
        } else {
            f64::NEG_INFINITY
        };
        Ok(ObjectiveReport {
            score,
            p_std_lateness: p_lat,
            p_std_absprob: p_abs,
            detail: format!("spearman_std_relprob={spearman}"),
        })
    }
}

/// `heuristic-regret`: relative `avg_makespan` gap between HEFT and BIL
/// (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicRegret;

impl Objective for HeuristicRegret {
    fn name(&self) -> &'static str {
        "heuristic-regret"
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        schedules: usize,
        seed: u64,
    ) -> Result<ObjectiveReport, StudyError> {
        let res = run_study(scenario, schedules, seed, &["HEFT", "BIL"])?;
        let (p_lat, p_abs) = cluster_pair(&res);
        let heft = res.heuristics[0].1.expected_makespan;
        let bil = res.heuristics[1].1.expected_makespan;
        let best = heft.min(bil);
        let score = if best > 0.0 && heft.is_finite() && bil.is_finite() {
            (heft - bil).abs() / best
        } else {
            f64::NEG_INFINITY
        };
        Ok(ObjectiveReport {
            score,
            p_std_lateness: p_lat,
            p_std_absprob: p_abs,
            detail: format!("heft={heft} bil={bil}"),
        })
    }
}

/// All registered objectives, in a fixed order.
pub fn objective_registry() -> Vec<Box<dyn Objective>> {
    vec![
        Box::new(ClusterDeficit),
        Box::new(RankGap),
        Box::new(HeuristicRegret),
    ]
}

/// Resolves an objective by registry name. `None` for unknown names.
pub fn objective_by_name(name: &str) -> Option<Box<dyn Objective>> {
    objective_registry().into_iter().find(|o| o.name() == name)
}

/// Configuration of one annealing chain.
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// Proposal steps in the chain.
    pub steps: usize,
    /// Random schedules per objective evaluation.
    pub schedules: usize,
    /// Initial Metropolis temperature (in score units).
    pub init_temp: f64,
    /// Geometric cooling factor per step (e.g. `0.95`).
    pub cooling: f64,
    /// Chain seed: drives move selection, move randomness, and (derived)
    /// the common-random-numbers study seed.
    pub seed: u64,
    /// Restrict moves to perturbations whose proposals keep
    /// [`SearchPoint::replays_from_trace`] intact — the gallery search's
    /// setting.
    pub replayable_only: bool,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        Self {
            steps: 48,
            schedules: 160,
            init_temp: 0.05,
            cooling: 0.93,
            seed: 1,
            replayable_only: false,
        }
    }
}

/// Chain counters.
#[derive(Debug, Clone, Copy)]
pub struct AnnealStats {
    /// Objective evaluations performed (1 for the start + one per
    /// non-`None` proposal).
    pub evals: usize,
    /// Accepted proposals.
    pub accepted: usize,
    /// Step index at which the best point was found (0 = the start).
    pub best_step: usize,
}

/// One annealing chain's outcome.
#[derive(Debug)]
pub struct AnnealResult {
    /// The start point's report — the un-searched control the study
    /// compares the best against.
    pub start_report: ObjectiveReport,
    /// The best point found.
    pub best: SearchPoint,
    /// Its report.
    pub best_report: ObjectiveReport,
    /// Chain counters.
    pub stats: AnnealStats,
}

/// Runs one Metropolis chain from `start`, maximizing `objective`.
/// Deterministic in `(start, objective, cfg)`: the same inputs reproduce
/// the same chain bit for bit. Restarts are independent chains with
/// derived seeds (see the module docs).
pub fn anneal(
    start: &SearchPoint,
    objective: &dyn Objective,
    cfg: &AnnealConfig,
) -> Result<AnnealResult, StudyError> {
    let ops: Vec<Box<dyn Perturbation>> = if cfg.replayable_only {
        replayable_perturbations()
    } else {
        perturbation_registry()
    };
    // Common random numbers: every evaluation in the chain shares one
    // study seed, so score differences are scenario differences.
    let study_seed = derive_seed(cfg.seed, 1);
    let start_report = objective.evaluate(&start.to_scenario(), cfg.schedules, study_seed)?;
    let mut evals = 1usize;
    let mut accepted = 0usize;
    let mut best_step = 0usize;

    let mut current = start.clone();
    let mut current_score = start_report.score;
    let mut best = start.clone();
    let mut best_report = start_report.clone();

    let mut sm = SplitMix64::new(derive_seed(cfg.seed, 2));
    let mut temp = cfg.init_temp;
    for step in 1..=cfg.steps {
        let op = &ops[(sm.next_u64() % ops.len() as u64) as usize];
        let move_seed = derive_seed(cfg.seed, 100 + step as u64);
        let accept_draw = (sm.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let Some(proposal) = op.apply(&current, move_seed) else {
            temp *= cfg.cooling;
            continue;
        };
        let report = objective.evaluate(&proposal.to_scenario(), cfg.schedules, study_seed)?;
        evals += 1;
        let delta = report.score - current_score;
        // NaN-free by construction (scores are finite or -inf); a -inf
        // proposal gives delta = -inf → exp = 0 → never accepted.
        if delta >= 0.0 || accept_draw < (delta / temp).exp() {
            current = proposal;
            current_score = report.score;
            accepted += 1;
            if current_score > best_report.score {
                best = current.clone();
                best_report = report;
                best_step = step;
            }
        }
        temp *= cfg.cooling;
    }

    Ok(AnnealResult {
        start_report,
        best,
        best_report,
        stats: AnnealStats {
            evals,
            accepted,
            best_step,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::paper_random(12, 4, 1.1, 7)
    }

    #[test]
    fn objective_registry_names_unique_and_resolvable() {
        let reg = objective_registry();
        let mut names: Vec<&str> = reg.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len());
        for o in &reg {
            assert!(objective_by_name(o.name()).is_some());
        }
        assert!(objective_by_name("nope").is_none());
    }

    #[test]
    fn cluster_deficit_is_small_on_a_random_scenario() {
        let s = scenario();
        let r = ClusterDeficit.evaluate(&s, 64, 3).unwrap();
        assert!(r.score.is_finite());
        assert!(
            r.score < 1.0 - CLUSTER_THRESHOLD,
            "random scenario broke the cluster: {r:?}"
        );
        assert!(!r.cluster_broken());
    }

    #[test]
    fn objectives_are_deterministic() {
        let s = scenario();
        for o in objective_registry() {
            let a = o.evaluate(&s, 48, 9).unwrap();
            let b = o.evaluate(&s, 48, 9).unwrap();
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{}", o.name());
            assert_eq!(a.detail, b.detail);
        }
    }

    #[test]
    fn heuristic_regret_reports_both_makespans() {
        let s = scenario();
        let r = HeuristicRegret.evaluate(&s, 8, 5).unwrap();
        assert!(r.score.is_finite() && r.score >= 0.0);
        assert!(r.detail.contains("heft=") && r.detail.contains("bil="));
    }
}
