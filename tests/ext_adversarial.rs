//! Smoke-scale runs of the adversarial-search (`ext-adversarial`) study
//! plus the committed counterexample gallery: locks the
//! `ext_adversarial_summary.csv` schema, pins bit-identity of the summary
//! *and* the gallery across worker-thread counts and repeat runs, checks
//! the streamed objectives against brute-force two-pass recomputation, and
//! replays every committed gallery entry from its WfCommons file —
//! verifying the paper-cluster correlation really drops below 0.9 on
//! found scenarios while the un-searched start scenarios stay above it.

use robusched::core::adversarial::CLUSTER_THRESHOLD;
use robusched::core::{
    metric_index, pearson_matrix, spearman_matrix, MetricValues, Objective, StudyBuilder,
    METRIC_LABELS,
};
use robusched::dag::parsers::wfcommons::parse_wfcommons;
use robusched::experiments::ext::adversarial;
use robusched::experiments::RunOptions;
use robusched::platform::Scenario;
use robusched::stochastic::scenario_fingerprint;
use std::path::Path;

fn smoke_opts(threads: Option<usize>) -> RunOptions {
    RunOptions {
        scale: 0.01,
        out_dir: None,
        seed: 11,
        threads,
    }
}

#[test]
fn ext_adversarial_smoke_run_locks_summary_schema() {
    let dir =
        std::env::temp_dir().join(format!("robusched-ext-adversarial-{}", std::process::id()));
    let opts = RunOptions {
        out_dir: Some(dir.clone()),
        ..smoke_opts(None)
    };
    let a = adversarial::run(&opts).expect("study failed");

    let summary = std::fs::read_to_string(dir.join("ext_adversarial_summary.csv")).unwrap();
    let lines: Vec<&str> = summary.lines().collect();
    assert_eq!(lines[0], adversarial::SUMMARY_HEADER);
    assert_eq!(lines.len(), 1 + a.chains.len());
    let columns = adversarial::SUMMARY_HEADER.split(',').count();
    for (line, chain) in lines[1..].iter().zip(&a.chains) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), columns, "{line}");
        assert_eq!(fields[0], chain.objective.name());
        assert_eq!(fields[1].parse::<usize>().unwrap(), chain.chain);
        assert!(fields[2] == "replayable" || fields[2] == "full");
        // The scenario knobs replay: shortest-roundtrip floats and seeds.
        assert_eq!(
            fields[7].parse::<f64>().unwrap().to_bits(),
            chain.best.speed_cov.to_bits()
        );
        assert_eq!(
            fields[8].parse::<f64>().unwrap().to_bits(),
            chain.best.ul.to_bits()
        );
        assert_eq!(fields[9].parse::<u64>().unwrap(), chain.best.seed);
        // Search accounting is sane.
        let evals: usize = fields[12].parse().unwrap();
        let accepted: usize = fields[13].parse().unwrap();
        assert!(evals >= 1 && accepted < evals, "{line}");
        // The best never scores below the start.
        let start_score: f64 = fields[14].parse().unwrap();
        let best_score: f64 = fields[15].parse().unwrap();
        assert!(best_score >= start_score, "{line}");
    }
    // Gallery entries (if any at this scale) are listed with their files.
    for chain in &a.chains {
        if let Some(file) = &chain.gallery_file {
            assert!(dir.join("ext_adversarial_gallery").join(file).is_file());
        }
    }

    let _ = std::fs::remove_dir_all(dir);
}

/// Reads every artifact under `dir` into a sorted (name, content) list.
fn artifact_snapshot(dir: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = path.strip_prefix(dir).unwrap().display().to_string();
                out.push((name, std::fs::read_to_string(&path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

/// Summary *and* gallery must be bit-identical for any `--threads` value
/// and across repeat runs — whole chains are sharded by index with
/// per-chain derived seeds, and every objective evaluation is a
/// single-threaded study, so scheduling nondeterminism never reaches the
/// artifacts.
#[test]
fn ext_adversarial_artifacts_are_reproducible() {
    let mut base: Option<Vec<(String, String)>> = None;
    for (run, threads) in [(0, 1), (1, 1), (2, 2), (3, 4)] {
        let dir = std::env::temp_dir().join(format!(
            "robusched-ext-adversarial-rep{}-{}",
            run,
            std::process::id()
        ));
        let opts = RunOptions {
            out_dir: Some(dir.clone()),
            ..smoke_opts(Some(threads))
        };
        adversarial::run(&opts).expect("study failed");
        let snap = artifact_snapshot(&dir);
        match &base {
            None => base = Some(snap),
            Some(b) => assert_eq!(b, &snap, "artifacts differ at {threads} threads"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The streamed objectives must agree with a brute-force two-pass
/// recomputation over the buffered metric rows to ≤ 1e-12: the rank-gap
/// score against the two-pass Spearman matrix, and the cluster
/// correlations against the two-pass Pearson matrix.
#[test]
fn streamed_objectives_match_two_pass_recomputation() {
    let scenario = Scenario::paper_random(12, 4, 1.1, 23);
    let (schedules, seed) = (32, 17);

    // Brute force: the same study with every row collected, two-pass
    // matrices.
    let mut rows = Vec::new();
    let mut collect = |_: usize, m: &MetricValues| rows.push(*m);
    StudyBuilder::new(&scenario)
        .random_schedules(schedules)
        .seed(seed)
        .threads(1)
        .evaluator_named("classic")
        .reservoir_capacity(schedules)
        .sink(&mut collect)
        .run()
        .unwrap();
    assert_eq!(rows.len(), schedules);
    let pearson = pearson_matrix(&rows);
    let spearman = spearman_matrix(&rows);
    let (i_std, i_lat, i_abs, i_rel) = (
        metric_index("makespan_std"),
        metric_index("avg_lateness"),
        metric_index("abs_prob"),
        metric_index("rel_prob"),
    );

    let rank = Objective::RankGap
        .evaluate(&scenario, schedules, seed)
        .unwrap();
    let streamed_spearman = 1.0 - rank.score;
    assert!(
        (streamed_spearman - spearman.get(i_std, i_rel)).abs() <= 1e-12,
        "rank-gap Spearman drifted: streamed {} vs two-pass {}",
        streamed_spearman,
        spearman.get(i_std, i_rel)
    );

    let cluster = Objective::ClusterDeficit
        .evaluate(&scenario, schedules, seed)
        .unwrap();
    for (streamed, j) in [
        (cluster.p_std_lateness, i_lat),
        (cluster.p_std_absprob, i_abs),
    ] {
        assert!(
            (streamed - pearson.get(i_std, j)).abs() <= 1e-12,
            "cluster Pearson ({}, {}) drifted: streamed {} vs two-pass {}",
            METRIC_LABELS[i_std],
            METRIC_LABELS[j],
            streamed,
            pearson.get(i_std, j)
        );
    }
    assert!(
        (cluster.score - (1.0 - cluster.p_std_lateness.min(cluster.p_std_absprob))).abs() <= 1e-15
    );
}

/// The committed full-scale gallery: at least 3 distinct counterexample
/// scenarios, each of which — replayed from its WfCommons file and the
/// gallery CSV's knobs alone — reproduces its committed cluster
/// correlations bit for bit and breaks the 0.9 threshold, while every
/// un-searched start scenario in the committed summary stays above it.
#[test]
fn committed_gallery_replays_and_breaks_the_cluster() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let gallery_dir = root.join("results/ext_adversarial_gallery");
    let text = std::fs::read_to_string(gallery_dir.join("gallery.csv"))
        .expect("committed gallery present");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(adversarial::GALLERY_HEADER));

    let mut fingerprints = Vec::new();
    for line in lines {
        let f: Vec<&str> = line.split(',').collect();
        assert_eq!(f.len(), adversarial::GALLERY_HEADER.split(',').count());
        let (file, machines, speed_cov, ul) = (
            f[0],
            f[3].parse::<usize>().unwrap(),
            f[4].parse::<f64>().unwrap(),
            f[5].parse::<f64>().unwrap(),
        );
        let (scenario_seed, schedules, study_seed) = (
            f[6].parse::<u64>().unwrap(),
            f[7].parse::<usize>().unwrap(),
            f[8].parse::<u64>().unwrap(),
        );
        let (p_lat, p_abs) = (f[9].parse::<f64>().unwrap(), f[10].parse::<f64>().unwrap());

        let json = std::fs::read_to_string(gallery_dir.join(file)).expect("gallery file present");
        let trace = parse_wfcommons(&json, file).expect("gallery file parses");
        let report = adversarial::replay_gallery_entry(
            &trace,
            machines,
            speed_cov,
            ul,
            scenario_seed,
            schedules,
            study_seed,
        )
        .expect("replay study runs");

        // Bit-exact reproduction of the committed correlations …
        assert_eq!(
            report.p_std_lateness.to_bits(),
            p_lat.to_bits(),
            "{file}: ρ(σ, lateness) did not replay"
        );
        assert_eq!(
            report.p_std_absprob.to_bits(),
            p_abs.to_bits(),
            "{file}: ρ(σ, 1−A) did not replay"
        );
        // … and a genuine, non-degenerate cluster break.
        assert!(report.score.is_finite(), "{file}: degenerate scenario");
        assert!(
            report.p_std_lateness.min(report.p_std_absprob) < CLUSTER_THRESHOLD,
            "{file}: cluster survives on replay"
        );

        fingerprints.push(scenario_fingerprint(&Scenario::from_trace(
            &trace,
            machines,
            speed_cov,
            ul,
            scenario_seed,
        )));
    }
    assert!(
        fingerprints.len() >= 3,
        "gallery must hold at least 3 counterexamples, found {}",
        fingerprints.len()
    );
    let mut unique = fingerprints.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        fingerprints.len(),
        "gallery scenarios must be pairwise distinct"
    );

    // Control: the un-searched starts in the committed summary stay above
    // the threshold (the search finds genuine counterexamples, not noise).
    let summary =
        std::fs::read_to_string(root.join("results/ext_adversarial_summary.csv")).unwrap();
    let mut lines = summary.lines();
    assert_eq!(lines.next(), Some(adversarial::SUMMARY_HEADER));
    let mut starts = 0;
    for line in lines {
        let f: Vec<&str> = line.split(',').collect();
        if f[0] != "cluster-deficit" {
            continue;
        }
        starts += 1;
        let start_score: f64 = f[14].parse().unwrap();
        assert!(
            start_score < 1.0 - CLUSTER_THRESHOLD,
            "un-searched start already breaks the cluster: {line}"
        );
    }
    assert!(starts >= 3, "summary must carry the cluster-deficit chains");
}
