//! Integration: the paper's headline findings, asserted at reduced scale.
//!
//! Each test encodes one claim of §VI–§VIII so a regression anywhere in
//! the stack that would change the *science* fails loudly.

use robusched::core::{pearson_matrix, MetricValues, StudyBuilder, METRIC_LABELS};
use robusched::experiments::figs::fig6::rel_prob_variants;
use robusched::experiments::figs::{CaseResult, PAPER_HEURISTICS};
use robusched::platform::Scenario;
use robusched::randvar::{ConcatBeta, DiscreteRv, Normal};

fn idx(name: &str) -> usize {
    METRIC_LABELS.iter().position(|&l| l == name).unwrap()
}

/// One §V case with every row collected and the two-pass Pearson matrix.
fn run(scenario: &Scenario, k: usize, seed: u64, heuristics: &[&str]) -> CaseResult {
    let mut random = Vec::new();
    let mut collect = |_: usize, m: &MetricValues| random.push(*m);
    let res = StudyBuilder::new(scenario)
        .random_schedules(k)
        .seed(seed)
        .heuristics(heuristics)
        .sink(&mut collect)
        .run()
        .unwrap();
    CaseResult {
        pearson: pearson_matrix(&random),
        random,
        heuristics: res.heuristics,
    }
}

fn study(n: usize, m: usize, ul: f64, seed: u64, k: usize) -> CaseResult {
    let s = Scenario::paper_random(n, m, ul, seed);
    run(&s, k, seed ^ 0xF00D, &PAPER_HEURISTICS)
}

#[test]
fn finding_1_the_equivalence_cluster() {
    // §VII: "the standard deviation, the differential entropy, the average
    // lateness and the absolute probabilistic metric" are near-linearly
    // related.
    let res = study(20, 4, 1.1, 1, 400);
    let p = &res.pearson;
    let cluster = [
        "makespan_std",
        "makespan_entropy",
        "avg_lateness",
        "abs_prob",
    ];
    for a in cluster {
        for b in cluster {
            if a != b {
                assert!(
                    p.get(idx(a), idx(b)) > 0.85,
                    "{a} ~ {b} = {}",
                    p.get(idx(a), idx(b))
                );
            }
        }
    }
}

#[test]
fn finding_2_makespan_correlates_with_robustness() {
    // §VI/Fig. 6: E(M) vs σ_M ≈ 0.77 — "short schedules are more robust".
    let res = study(20, 4, 1.1, 2, 400);
    let r = res.pearson.get(idx("avg_makespan"), idx("makespan_std"));
    assert!(
        (0.3..1.0).contains(&r),
        "E(M) ~ σ_M should be clearly positive, got {r}"
    );
}

#[test]
fn finding_3_slack_is_not_robustness() {
    // §VII: "Maximizing the slack seems indeed be a conflicting objective
    // with the robustness" — the (inverted-slack, σ) correlation is weak or
    // negative, never strongly positive.
    let res = study(20, 4, 1.1, 3, 400);
    let r = res.pearson.get(idx("avg_slack"), idx("makespan_std"));
    assert!(
        r < 0.5,
        "inverted slack should not follow the robustness cluster, got {r}"
    );
}

#[test]
fn finding_4_relative_prob_needs_normalization() {
    // Fig. 6: raw 1−R(γ) correlates weakly with σ_M (0.148 in the paper);
    // §VII: dividing by the makespan lifts it to ~0.998.
    let s = Scenario::paper_random(20, 4, 1.1, 4);
    let res = run(&s, 400, 11, &[]);
    let raw = res.pearson.get(idx("rel_prob"), idx("makespan_std"));
    let normalized = rel_prob_variants(&res.random).gaussian_inversion;
    assert!(
        normalized > raw + 0.1,
        "normalization should strengthen the correlation: raw {raw}, normalized {normalized}"
    );
    assert!(normalized > 0.8, "normalized correlation {normalized}");
}

#[test]
fn finding_5_heuristics_in_the_good_corner() {
    // §VII: "the three heuristics (BIL, HEFT and Hyb.BMCT) give always the
    // best makespan and often the best standard deviation".
    let res = study(25, 4, 1.1, 5, 500);
    let mut ms: Vec<f64> = res.random.iter().map(|m| m.expected_makespan).collect();
    ms.sort_by(f64::total_cmp);
    let q05 = ms[ms.len() / 20];
    let mut std: Vec<f64> = res.random.iter().map(|m| m.makespan_std).collect();
    std.sort_by(f64::total_cmp);
    let std_q25 = std[ms.len() / 4];
    for (name, m) in &res.heuristics {
        assert!(
            m.expected_makespan <= q05 * 1.02,
            "{name} makespan {} not in the top 5% ({q05})",
            m.expected_makespan
        );
        assert!(
            m.makespan_std <= std_q25 * 1.3,
            "{name} σ {} far from the best quartile ({std_q25})",
            m.makespan_std
        );
    }
}

#[test]
fn finding_6_clt_explains_the_equivalence() {
    // §VII/Fig. 8: a few self-sums of even a pathological distribution are
    // near-Gaussian — the root cause of the metric equivalence.
    let base = DiscreteRv::from_dist(&ConcatBeta::paper_special(), 128);
    let s5 = base.self_sum(5);
    let n5 = DiscreteRv::from_dist(&Normal::new(s5.mean(), s5.std_dev()), 256);
    assert!(
        s5.ks_distance(&n5) < 0.02,
        "5 sums: {}",
        s5.ks_distance(&n5)
    );
    let s10 = base.self_sum(10);
    let n10 = DiscreteRv::from_dist(&Normal::new(s10.mean(), s10.std_dev()), 256);
    assert!(
        s10.ks_distance(&n10) < 0.008,
        "10 sums: {}",
        s10.ks_distance(&n10)
    );
}

#[test]
fn finding_7_max_of_iid_concentrates() {
    // §VII's argument for schedule a) of Fig. 9: the maximum of many i.i.d.
    // variables has smaller and smaller spread.
    let one =
        DiscreteRv::from_dist_default(&robusched::randvar::ScaledBeta::paper_default(10.0, 1.5));
    let mut acc = one.clone();
    let mut prev_std = acc.std_dev();
    for _ in 0..4 {
        acc = acc.max(&one);
        let s = acc.std_dev();
        assert!(
            s <= prev_std + 1e-9,
            "max should not spread: {s} > {prev_std}"
        );
        prev_std = s;
    }
    assert!(prev_std < 0.8 * one.std_dev());
}
