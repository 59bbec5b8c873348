//! # robusched-experiments
//!
//! The experiment harness: one module per figure of the paper, each
//! regenerating the series/matrix the figure plots and writing CSVs.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`figs::fig1`] | KS/CM accuracy of the independence assumption vs graph size |
//! | [`figs::fig2`] | analytic PDF vs 100k-realization histogram (worst accepted case) |
//! | [`figs::fig3`] | metric correlations, Cholesky 10 tasks / 3 procs / UL 1.01 |
//! | [`figs::fig4`] | metric correlations, random 30 tasks / 8 procs / UL 1.01 |
//! | [`figs::fig5`] | metric correlations, Gaussian elimination 104 tasks / 16 procs / UL 1.1 |
//! | [`figs::fig6`] | mean ± std Pearson matrix over the 24 (n ≤ 100) cases |
//! | [`figs::fig7`] | the multi-modal "special" distribution vs its moment-matched normal |
//! | [`figs::fig8`] | KS/CM of n-fold self-sums vs the CLT normal |
//! | [`figs::fig9`] | slack ⊥ robustness on join-graph schedules |
//!
//! Every entry point takes [`RunOptions`]; `scale` shrinks sample counts
//! proportionally (CI smoke tests use `scale ≈ 0.01`, the paper-faithful
//! run uses 1.0). All outputs also land as CSV under `out_dir`.
//!
//! Every figure and extension study is also registered as a
//! [`registry::ExperimentEntry`] in [`mod@registry`] — the CLI's `list`,
//! `all` and `ext-all` subcommands and single-name dispatch all read that
//! table.

pub mod cases;
pub mod ext;
pub mod figs;
pub mod registry;
pub mod report;
pub mod serve;

pub use registry::{experiment_by_name, registry, render_list, ExperimentGroup};

use robusched_stochastic::par::{par_map, worker_count};
use std::path::PathBuf;

/// Options shared by all experiment entry points.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Multiplies every sample count (schedules, realizations); clamped so
    /// at least a handful of samples survive. 1.0 = paper-faithful.
    pub scale: f64,
    /// Where CSVs are written; `None` disables file output.
    pub out_dir: Option<PathBuf>,
    /// Master seed.
    pub seed: u64,
    /// Worker threads per study (`None` = available parallelism); fed into
    /// every `StudyBuilder`, Monte-Carlo run and sharded sweep the
    /// experiments construct.
    pub threads: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scale: 1.0,
            out_dir: Some(PathBuf::from("results")),
            seed: 42,
            threads: None,
        }
    }
}

impl RunOptions {
    /// A scaled count: `full·scale`, at least `min`.
    pub fn count(&self, full: usize, min: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(min)
    }

    /// Runs `cell(i)` for every `i in 0..n`, sharded across the run's
    /// `--threads` workers; returns the results in index order, or the
    /// error of the first failing index. Cells that derive their seeds
    /// from their index give results independent of the thread count.
    pub fn sweep<T: Send, E: Send>(
        &self,
        n: usize,
        cell: impl Fn(usize) -> Result<T, E> + Sync,
    ) -> std::io::Result<Vec<T>>
    where
        std::io::Error: From<E>,
    {
        let mut results = Vec::with_capacity(n);
        par_map(
            n,
            worker_count(self.threads),
            || (),
            |_, idx| cell(idx),
            |_, result| results.push(result),
        )
        .map_err(std::io::Error::other)?;
        Ok(results.into_iter().collect::<Result<_, E>>()?)
    }

    /// Writes `content` to `<out_dir>/<name>` when file output is enabled;
    /// returns the path written.
    pub fn write_artifact(&self, name: &str, content: &str) -> std::io::Result<Option<PathBuf>> {
        match &self.out_dir {
            None => Ok(None),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(name);
                std::fs::write(&path, content)?;
                Ok(Some(path))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_counts_respect_minimum() {
        let o = RunOptions {
            scale: 0.001,
            ..Default::default()
        };
        assert_eq!(o.count(10_000, 50), 50);
        let full = RunOptions::default();
        assert_eq!(full.count(10_000, 50), 10_000);
    }

    #[test]
    fn artifact_write_disabled() {
        let o = RunOptions {
            out_dir: None,
            ..Default::default()
        };
        assert!(o.write_artifact("x.csv", "a,b\n").unwrap().is_none());
    }

    #[test]
    fn artifact_write_roundtrip() {
        let dir = std::env::temp_dir().join("robusched-exp-test");
        let o = RunOptions {
            out_dir: Some(dir.clone()),
            ..Default::default()
        };
        let p = o.write_artifact("t.csv", "1,2\n").unwrap().unwrap();
        assert_eq!(std::fs::read_to_string(p).unwrap(), "1,2\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
