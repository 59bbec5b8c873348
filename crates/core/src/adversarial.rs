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
//!   schedule-sampling noise. One [`Objective::evaluate`] runs the study,
//!   reads the cluster pair and scores by kind:
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
//!   cooling. Moves are drawn from the move table
//!   (`robusched_stochastic::perturb::MOVES`); everything is a pure
//!   function of the chain seed, so a chain re-run reproduces bit for bit,
//!   and *restarts* are simply independent chains with derived seeds (the
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
use crate::study::{StudyBuilder, StudyError};
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, uniform01_word, SplitMix64};
use robusched_stochastic::perturb::{SearchPoint, MOVES};

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
}

impl ObjectiveReport {
    /// Whether this evaluation certifies a paper-cluster break: the
    /// scenario is non-degenerate and [`cluster_holds`] fails.
    pub fn cluster_broken(&self) -> bool {
        self.score.is_finite() && !cluster_holds(self.p_std_lateness, self.p_std_absprob)
    }
}

/// What the search maximizes over one scenario (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// `cluster-deficit`: how far the σ/lateness/1−A cluster is from
    /// coherence.
    ClusterDeficit,
    /// `rank-gap`: Spearman drift between the σ and R(γ) rankings.
    RankGap,
    /// `heuristic-regret`: relative `avg_makespan` gap between HEFT and
    /// BIL.
    HeuristicRegret,
}

impl Objective {
    /// The objective's name in the study's artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Self::ClusterDeficit => "cluster-deficit",
            Self::RankGap => "rank-gap",
            Self::HeuristicRegret => "heuristic-regret",
        }
    }

    /// Evaluates `scenario` with `schedules` random schedules under
    /// `seed`: one single-threaded study (classic evaluator, exact rank
    /// reservoir, and HEFT and BIL for `heuristic-regret` only), whose
    /// streamed cluster pair every objective reports. Deterministic in its
    /// inputs.
    pub fn evaluate(
        self,
        scenario: &Scenario,
        schedules: usize,
        seed: u64,
    ) -> Result<ObjectiveReport, StudyError> {
        let heuristics: &[&str] = match self {
            Self::HeuristicRegret => &["HEFT", "BIL"],
            Self::ClusterDeficit | Self::RankGap => &[],
        };
        let res = StudyBuilder::new(scenario)
            .random_schedules(schedules)
            .seed(seed)
            .threads(1)
            .heuristics(heuristics)
            .evaluator_named("classic")
            .reservoir_capacity(schedules.max(2))
            .run()?;
        let (i_std, i_lat, i_abs) = (
            metric_index("makespan_std"),
            metric_index("avg_lateness"),
            metric_index("abs_prob"),
        );
        let pearson = res.pearson_streamed();
        let (p_lat, p_abs) = (pearson.get(i_std, i_lat), pearson.get(i_std, i_abs));
        let score = match self {
            Self::ClusterDeficit => {
                non_degenerate(&res.moments, &[i_std, i_lat, i_abs], 1.0 - p_lat.min(p_abs))
            }
            Self::RankGap => {
                let i_rel = metric_index("rel_prob");
                let spearman = res.spearman_streamed().get(i_std, i_rel);
                non_degenerate(&res.moments, &[i_std, i_rel], 1.0 - spearman)
            }
            Self::HeuristicRegret => {
                let heft = res.heuristics[0].1.expected_makespan;
                let bil = res.heuristics[1].1.expected_makespan;
                let best = heft.min(bil);
                if best > 0.0 && heft.is_finite() && bil.is_finite() {
                    (heft - bil).abs() / best
                } else {
                    f64::NEG_INFINITY
                }
            }
        };
        Ok(ObjectiveReport {
            score,
            p_std_lateness: p_lat,
            p_std_absprob: p_abs,
        })
    }
}

/// `score` when every listed metric column has a non-trivial relative
/// spread (std above ~1e-6 of its scale), else [`f64::NEG_INFINITY`] —
/// the degeneracy guard of the module docs.
fn non_degenerate(m: &StreamingMoments, columns: &[usize], score: f64) -> f64 {
    let spread = columns.iter().all(|&k| {
        let var = m.covariance(k, k);
        let scale = 1.0 + m.mean(k).abs();
        var.is_finite() && var > (1e-6 * scale) * (1e-6 * scale)
    });
    if spread {
        score
    } else {
        f64::NEG_INFINITY
    }
}

/// Initial Metropolis temperature, in score units: at the first step a
/// proposal that lowers the score by 0.05 is accepted with probability
/// 1/e. Every chain runs at it, and the committed `ext-adversarial`
/// summary and gallery are those chains' output, so it is a constant
/// rather than a setting.
const INIT_TEMP: f64 = 0.05;

/// Geometric cooling factor per step (48 steps take the temperature to
/// about 3 % of [`INIT_TEMP`]); a constant for the same reason.
const COOLING: f64 = 0.93;

/// Configuration of one annealing chain.
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// Proposal steps in the chain.
    pub steps: usize,
    /// Random schedules per objective evaluation.
    pub schedules: usize,
    /// Chain seed: drives move selection, move randomness, and (derived)
    /// the common-random-numbers study seed.
    pub seed: u64,
    /// Restrict moves to those whose proposals keep
    /// [`SearchPoint::replays_from_trace`] intact — the gallery search's
    /// setting.
    pub replayable_only: bool,
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
    /// Objective evaluations performed (1 for the start + one per
    /// non-`None` proposal).
    pub evals: usize,
    /// Accepted proposals.
    pub accepted: usize,
    /// Step index at which the best point was found (0 = the start).
    pub best_step: usize,
}

/// Runs one Metropolis chain from `start`, maximizing `objective`.
/// Deterministic in `(start, objective, cfg)`: the same inputs reproduce
/// the same chain bit for bit. Restarts are independent chains with
/// derived seeds (see the module docs).
pub fn anneal(
    start: &SearchPoint,
    objective: Objective,
    cfg: &AnnealConfig,
) -> Result<AnnealResult, StudyError> {
    let moves: Vec<_> = MOVES
        .iter()
        .filter(|mv| mv.replayable || !cfg.replayable_only)
        .collect();
    // Common random numbers: every evaluation in the chain shares one
    // study seed, so score differences are scenario differences.
    let study_seed = derive_seed(cfg.seed, 1);
    let start_report = objective.evaluate(&start.to_scenario(), cfg.schedules, study_seed)?;
    let mut result = AnnealResult {
        best: start.clone(),
        best_report: start_report.clone(),
        start_report,
        evals: 1,
        accepted: 0,
        best_step: 0,
    };
    let mut current = start.clone();
    let mut current_score = result.start_report.score;

    let mut sm = SplitMix64::new(derive_seed(cfg.seed, 2));
    let mut temp = INIT_TEMP;
    for step in 1..=cfg.steps {
        let mv = moves[(sm.next_u64() % moves.len() as u64) as usize];
        let move_seed = derive_seed(cfg.seed, 100 + step as u64);
        let accept_draw = uniform01_word(sm.next_u64());
        let Some(proposal) = (mv.apply)(&current, move_seed) else {
            temp *= COOLING;
            continue;
        };
        let report = objective.evaluate(&proposal.to_scenario(), cfg.schedules, study_seed)?;
        result.evals += 1;
        let delta = report.score - current_score;
        // NaN-free by construction (scores are finite or -inf); a -inf
        // proposal gives delta = -inf → exp = 0 → never accepted.
        if delta >= 0.0 || accept_draw < (delta / temp).exp() {
            current = proposal;
            current_score = report.score;
            result.accepted += 1;
            if current_score > result.best_report.score {
                result.best = current.clone();
                result.best_report = report;
                result.best_step = step;
            }
        }
        temp *= COOLING;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBJECTIVES: [Objective; 3] = [
        Objective::ClusterDeficit,
        Objective::RankGap,
        Objective::HeuristicRegret,
    ];

    fn scenario() -> Scenario {
        Scenario::paper_random(12, 4, 1.1, 7)
    }

    #[test]
    fn objective_names_are_unique() {
        let mut names: Vec<&str> = OBJECTIVES.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OBJECTIVES.len());
    }

    #[test]
    fn cluster_deficit_is_small_on_a_random_scenario() {
        let s = scenario();
        let r = Objective::ClusterDeficit.evaluate(&s, 64, 3).unwrap();
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
        for o in OBJECTIVES {
            let a = o.evaluate(&s, 48, 9).unwrap();
            let b = o.evaluate(&s, 48, 9).unwrap();
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{}", o.name());
            assert_eq!(a.p_std_lateness.to_bits(), b.p_std_lateness.to_bits());
            assert_eq!(a.p_std_absprob.to_bits(), b.p_std_absprob.to_bits());
        }
    }

    #[test]
    fn heuristic_regret_is_the_relative_heft_bil_gap() {
        let s = scenario();
        let r = Objective::HeuristicRegret.evaluate(&s, 8, 5).unwrap();
        let direct = StudyBuilder::new(&s)
            .random_schedules(8)
            .seed(5)
            .threads(1)
            .heuristics(&["HEFT", "BIL"])
            .evaluator_named("classic")
            .run()
            .unwrap();
        let heft = direct.heuristics[0].1.expected_makespan;
        let bil = direct.heuristics[1].1.expected_makespan;
        assert!(heft.is_finite() && bil.is_finite() && heft.min(bil) > 0.0);
        let expected = (heft - bil).abs() / heft.min(bil);
        assert_eq!(r.score.to_bits(), expected.to_bits(), "{r:?}");
    }
}
