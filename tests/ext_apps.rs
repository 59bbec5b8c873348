//! Smoke-scale run of the structured-application (`ext-apps`) study:
//! exercises every generator class end to end through `StudyBuilder` and locks
//! in the schema of the emitted CSV artifacts.

use robusched::dag::apps::AppClass;
use robusched::experiments::ext::apps;
use robusched::experiments::RunOptions;

#[test]
fn ext_apps_smoke_run_emits_per_class_csvs() {
    let dir = std::env::temp_dir().join(format!("robusched-ext-apps-{}", std::process::id()));
    let opts = RunOptions {
        scale: 0.004,
        out_dir: Some(dir.clone()),
        seed: 5,
        threads: None,
    };
    let a = apps::run(&opts).expect("study failed");

    // One aggregate per class, in the canonical order.
    assert_eq!(a.classes.len(), AppClass::ALL.len());
    for (c, class) in a.classes.iter().zip(AppClass::ALL) {
        assert_eq!(c.class, class);
        assert_eq!(c.corr.cases, 4);
        assert!(
            c.largest_tasks >= 75,
            "{}: {}",
            class.name(),
            c.largest_tasks
        );
    }

    // Per-class matrices: one pearson + one spearman CSV each, 8 metric
    // labels → 9 CSV lines (header + 8 rows).
    for class in AppClass::ALL {
        for kind in ["pearson", "spearman"] {
            let path = dir.join(format!("ext_apps_{}_{kind}.csv", class.name()));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 9, "{}", path.display());
            assert!(lines[0].contains("avg_makespan"));
            assert!(lines[0].contains("rel_prob"));
        }
    }

    // Cross-class summary: fixed header + one row per class.
    let summary = std::fs::read_to_string(dir.join("ext_apps_summary.csv")).unwrap();
    let lines: Vec<&str> = summary.lines().collect();
    assert_eq!(lines[0], apps::SUMMARY_HEADER);
    assert_eq!(lines.len(), 1 + AppClass::ALL.len());
    for (line, class) in lines[1..].iter().zip(AppClass::ALL) {
        assert!(line.starts_with(class.name()));
        // Every numeric field parses.
        for field in line.split(',').skip(1) {
            field
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad field {field}"));
        }
    }

    let _ = std::fs::remove_dir_all(dir);
}
