//! Task criticality indices — which tasks actually drive the makespan?
//!
//! The *criticality index* of a task is the probability that it lies on a
//! critical (longest) path of a realization. §VII of the paper reasons
//! about exactly this ("only the three tasks on the critical path will have
//! an incidence on the makespan if one of those is late"); the index makes
//! the reasoning quantitative and is the standard diagnostic in stochastic
//! project networks (Dodin's literature). Estimated by Monte-Carlo: per
//! realization the critical chain is recovered by walking constraints
//! backwards from the makespan-defining task.

use crate::cache::SamplingTables;
use crate::par::{par_map, worker_count};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_sched::{EagerPlan, Schedule};

/// Timing comparison tolerance when matching the binding constraint.
const EPS: f64 = 1e-9;

/// Realizations per seeding chunk (fixed: determinism across thread
/// counts — chunk `c` draws from `derive_seed(seed, c)`).
const CHUNK: usize = 1024;

/// Per-worker replay buffers.
struct Scratch {
    start: Vec<f64>,
    finish: Vec<f64>,
    dur: Vec<f64>,
    comm: Vec<f64>,
    on_path: Vec<bool>,
}

/// Estimates per-task criticality indices with `realizations` Monte-Carlo
/// samples on all available cores. Returns one probability per task.
///
/// # Panics
/// Panics on an invalid schedule or zero realizations.
pub fn criticality_indices(
    scenario: &Scenario,
    schedule: &Schedule,
    realizations: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(realizations > 0, "need at least one realization");
    let dag = &scenario.graph.dag;
    let plan = EagerPlan::new(dag, schedule).expect("invalid schedule");
    let n = dag.node_count();

    // The scenario's draw rule per task and per edge, in id order.
    let task_affine: Vec<(f64, f64)> = (0..n)
        .map(|v| scenario.task_affine(v, schedule.machine_of(v)))
        .collect();
    let edge_affine: Vec<(f64, f64)> = dag
        .edge_triples()
        .map(|(u, v, e)| scenario.comm_affine(e, schedule.machine_of(u), schedule.machine_of(v)))
        .collect();
    let tables = SamplingTables::new(scenario);
    let table = tables.base();

    // Per-chunk critical-path counts, summed in chunk order on delivery
    // (integer sums: the totals cannot depend on the thread count).
    let mut counts = vec![0usize; n];
    par_map(
        realizations.div_ceil(CHUNK),
        worker_count(None),
        || Scratch {
            start: vec![0.0; n],
            finish: vec![0.0; n],
            dur: vec![0.0; n],
            comm: vec![0.0; edge_affine.len()],
            on_path: vec![false; n],
        },
        |w, c| {
            let Scratch {
                start,
                finish,
                dur,
                comm,
                on_path,
            } = w;
            let mut hits = vec![0usize; n];
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, c as u64));
            let mut draw = |&(lo, span): &(f64, f64)| match table {
                Some(t) if span > 0.0 => lo + span * t.quantile_u53(rng.next_u64() >> 11),
                _ => lo,
            };
            for _ in 0..CHUNK.min(realizations - c * CHUNK) {
                // Sample and execute.
                for (x, rule) in dur.iter_mut().zip(&task_affine) {
                    *x = draw(rule);
                }
                for (x, rule) in comm.iter_mut().zip(&edge_affine) {
                    *x = draw(rule);
                }
                let mut sink = 0usize;
                let mut best = f64::NEG_INFINITY;
                for &v in plan.topo_order() {
                    let mut ready = 0.0f64;
                    if let Some(u) = plan.prev_on_proc()[v] {
                        ready = finish[u];
                    }
                    for &(u, e) in dag.preds(v) {
                        let a = finish[u] + comm[e];
                        if a > ready {
                            ready = a;
                        }
                    }
                    start[v] = ready;
                    finish[v] = ready + dur[v];
                    if finish[v] > best {
                        best = finish[v];
                        sink = v;
                    }
                }
                // Backtrace the binding chain from the sink.
                on_path.iter_mut().for_each(|b| *b = false);
                let mut cur = sink;
                loop {
                    on_path[cur] = true;
                    if start[cur] <= EPS {
                        break;
                    }
                    // Which constraint binds the start of `cur`?
                    let mut nxt: Option<usize> = None;
                    if let Some(u) = plan.prev_on_proc()[cur] {
                        if (finish[u] - start[cur]).abs() <= EPS {
                            nxt = Some(u);
                        }
                    }
                    if nxt.is_none() {
                        for &(u, e) in dag.preds(cur) {
                            if (finish[u] + comm[e] - start[cur]).abs() <= EPS {
                                nxt = Some(u);
                                break;
                            }
                        }
                    }
                    match nxt {
                        Some(u) => cur = u,
                        None => break, // numerically ambiguous; stop
                    }
                }
                for (hit, &on) in hits.iter_mut().zip(on_path.iter()) {
                    *hit += usize::from(on);
                }
            }
            hits
        },
        |_, hits| {
            for (total, h) in counts.iter_mut().zip(hits) {
                *total += h;
            }
        },
    )
    // The plan compiled above, so a panic here is an estimator bug:
    // re-raise it on the caller's thread with the worker's message.
    .unwrap_or_else(|msg| panic!("{msg}"));

    counts
        .into_iter()
        .map(|c| c as f64 / realizations as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_dag::generators;
    use robusched_platform::{CostMatrix, Platform, UncertaintyModel};

    #[test]
    fn chain_every_task_critical() {
        let tg = generators::chain(5);
        let costs = CostMatrix::from_rows(5, 1, vec![10.0; 5]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(1),
            costs,
            UncertaintyModel::paper(1.2),
        );
        let sched = Schedule::new(vec![0; 5], vec![(0..5).collect()]);
        let c = criticality_indices(&s, &sched, 2_000, 1);
        for (v, &p) in c.iter().enumerate() {
            assert!((p - 1.0).abs() < 1e-12, "task {v}: {p}");
        }
    }

    #[test]
    fn dominated_branch_rarely_critical() {
        // Fork-join with one long branch (100) and one short (1): the short
        // branch almost never binds.
        let tg = generators::fork_join(2);
        let costs = CostMatrix::from_rows(3, 2, vec![100.0, 100.0, 1.0, 1.0, 10.0, 10.0]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(2),
            costs,
            UncertaintyModel::paper(1.1),
        );
        let sched = Schedule::new(vec![0, 1, 0], vec![vec![0, 2], vec![1]]);
        let c = criticality_indices(&s, &sched, 5_000, 2);
        assert!(c[0] > 0.99, "long branch {}", c[0]);
        assert!(c[1] < 0.01, "short branch {}", c[1]);
        assert!(c[2] > 0.99, "join {}", c[2]);
    }

    #[test]
    fn symmetric_branches_split_criticality() {
        // Two identical branches: each critical ~half the time; the join
        // always.
        let tg = generators::fork_join(2);
        let costs = CostMatrix::from_rows(3, 2, vec![10.0; 6]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(2),
            costs,
            UncertaintyModel::paper(1.5),
        );
        let sched = Schedule::new(vec![0, 1, 0], vec![vec![0, 2], vec![1]]);
        let c = criticality_indices(&s, &sched, 20_000, 3);
        assert!((c[0] - 0.5).abs() < 0.05, "branch 0: {}", c[0]);
        assert!((c[1] - 0.5).abs() < 0.05, "branch 1: {}", c[1]);
        assert!(c[2] > 0.999);
        // Complementary branches: probabilities sum to ≈ 1 (ties are
        // measure-zero under continuous durations).
        assert!((c[0] + c[1] - 1.0).abs() < 0.05);
    }

    /// The indices bit for bit: an FNV-1a digest of their f64 bits per
    /// case, at 3,000 realizations (two full chunks and a partial one).
    /// The cases cover a HEFT and a random schedule, per-task ULs (some
    /// at 1, whose tasks draw nothing), the uniform family and no
    /// uncertainty. A change to the draw order, the draw rule, the table
    /// or the replay shows up here; on a mismatch the test prints the new
    /// digests.
    #[test]
    fn indices_match_recorded_digests() {
        use robusched_platform::UncertaintyKind;
        let paper = Scenario::paper_random(40, 5, 1.3, 17);
        let per_task = Scenario::paper_random(30, 4, 1.1, 23)
            .with_per_task_ul((0..30).map(|v| 1.0 + 0.05 * (v % 7) as f64).collect());
        let mut uniform = Scenario::paper_random(30, 4, 1.2, 29);
        uniform.uncertainty = UncertaintyModel {
            ul: 1.2,
            kind: UncertaintyKind::Uniform,
        };
        let mut none = Scenario::paper_random(30, 4, 1.2, 31);
        none.uncertainty = UncertaintyModel::none();
        let cases = [
            (&paper, robusched_sched::heft(&paper)),
            (
                &paper,
                robusched_sched::random_schedule(&paper.graph.dag, 5, 3),
            ),
            (&per_task, robusched_sched::heft(&per_task)),
            (&uniform, robusched_sched::heft(&uniform)),
            (&none, robusched_sched::heft(&none)),
        ];
        let digests: Vec<u64> = cases
            .iter()
            .map(|(s, sched)| {
                let mut h = crate::Fnv1a::default();
                for x in criticality_indices(s, sched, 3_000, 5) {
                    h.mix(x.to_bits());
                }
                h.finish()
            })
            .collect();
        assert_eq!(
            digests,
            [
                0x226379e0ec5616a1,
                0x4b986fd4bd9f502f,
                0x32ef52b7538a77b2,
                0x5fac25f21b6c157f,
                0x95503819978e5078,
            ],
            "new digests: {digests:#018x?}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let s = Scenario::paper_random(12, 3, 1.2, 9);
        let sched = robusched_sched::heft(&s);
        let a = criticality_indices(&s, &sched, 3_000, 7);
        let b = criticality_indices(&s, &sched, 3_000, 7);
        assert_eq!(a, b);
    }
}
