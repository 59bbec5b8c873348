//! Smoke-scale run of the real-workflow-trace (`ext-traces`) study: locks
//! the `ext_traces_summary.csv` schema, requires a populated cluster
//! verdict for every committed trace, and pins bit-identity of the
//! correlation matrices across worker-thread counts.

use robusched::experiments::ext::traces;
use robusched::experiments::RunOptions;

#[test]
fn ext_traces_smoke_run_locks_summary_schema() {
    let dir = std::env::temp_dir().join(format!("robusched-ext-traces-{}", std::process::id()));
    let opts = RunOptions {
        scale: 0.01,
        out_dir: Some(dir.clone()),
        seed: 5,
        threads: None,
    };
    let t = traces::run(&opts).expect("study failed");

    // One aggregate per committed trace, in fixture order.
    assert_eq!(t.traces.len(), traces::SAMPLE_TRACES.len());
    let names: Vec<&str> = t.traces.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        names,
        ["montage-like", "epigenomics-like", "cybershake-like"]
    );
    let formats: Vec<&str> = t.traces.iter().map(|r| r.format.as_str()).collect();
    assert_eq!(formats, ["dax", "json", "dot"]);

    // Per-trace matrices: one pearson + one spearman CSV each, 8 metric
    // labels → 9 CSV lines (header + 8 rows).
    for r in &t.traces {
        for kind in ["pearson", "spearman"] {
            let path = dir.join(format!("ext_traces_{}_{kind}.csv", r.name));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 9, "{}", path.display());
            assert!(lines[0].contains("avg_makespan"));
            assert!(lines[0].contains("rel_prob"));
        }
    }

    // Summary: fixed header + one row per trace; the verdict column is
    // populated (a boolean, not blank) for every trace even at --scale
    // 0.01.
    let summary = std::fs::read_to_string(dir.join("ext_traces_summary.csv")).unwrap();
    let lines: Vec<&str> = summary.lines().collect();
    assert_eq!(lines[0], traces::SUMMARY_HEADER);
    assert_eq!(lines.len(), 1 + t.traces.len());
    for (line, r) in lines[1..].iter().zip(&t.traces) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), traces::SUMMARY_HEADER.split(',').count());
        assert_eq!(fields[0], r.name);
        assert_eq!(fields[1], r.format);
        assert_eq!(fields[2].parse::<usize>().unwrap(), r.tasks);
        assert_eq!(fields[3].parse::<usize>().unwrap(), r.edges);
        assert!(fields[4].parse::<f64>().unwrap() > 0.0, "CCR must be real");
        // Key cells are finite numbers.
        for field in &fields[6..12] {
            assert!(
                field.parse::<f64>().unwrap().is_finite(),
                "bad cell {field}"
            );
        }
        let verdict = fields[12];
        assert!(
            verdict == "true" || verdict == "false",
            "verdict must be populated, got '{verdict}'"
        );
    }

    let _ = std::fs::remove_dir_all(dir);
}

/// The streaming correlation pipeline must be bit-identical across worker
/// thread counts — the same guarantee the core study tests pin, re-checked
/// on trace-derived scenarios (their edge wiring differs structurally from
/// every generator family).
#[test]
fn ext_traces_thread_count_invariance() {
    let run_with = |threads: Option<usize>| {
        let opts = RunOptions {
            scale: 0.01,
            out_dir: None,
            seed: 7,
            threads,
        };
        traces::run(&opts).expect("study failed")
    };
    let base = run_with(Some(1));
    for threads in [2, 4] {
        let other = run_with(Some(threads));
        for (a, b) in base.traces.iter().zip(&other.traces) {
            assert_eq!(a.name, b.name);
            let (a, b, name) = (&a.corr, &b.corr, &a.name);
            for i in 0..a.pearson_mean.dim() {
                for j in 0..a.pearson_mean.dim() {
                    assert_eq!(
                        a.pearson_mean.get(i, j).to_bits(),
                        b.pearson_mean.get(i, j).to_bits(),
                        "{name}: pearson[{i}][{j}] differs at {threads} threads"
                    );
                    assert_eq!(
                        a.spearman_mean.get(i, j).to_bits(),
                        b.spearman_mean.get(i, j).to_bits(),
                        "{name}: spearman[{i}][{j}] differs at {threads} threads"
                    );
                }
            }
        }
    }
}
