//! Property tests for the adversarial perturbation layer: every entry of
//! the move table applied to random search points
//!
//! * preserves the validity invariants — the trace stays acyclic with the
//!   *same* entry/exit node sets (a single-source/single-sink workflow
//!   stays one), all weights finite and non-negative, machine count within
//!   bounds, uncertainty levels ≥ 1;
//! * changes [`scenario_fingerprint`] iff it reports a change (`Some`
//!   proposals genuinely move the scenario; `None` leaves the point
//!   untouched by construction);
//! * is seed-deterministic: the same `(point, seed)` yields a bit-identical
//!   proposal.
//!
//! Points are diversified by chaining a few table moves before checking,
//! so moves are also exercised on already-perturbed states (e.g.
//! `ul-jitter` on an existing per-task vector).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robusched_dag::parsers::dot::parse_dot;
use robusched_dag::parsers::TraceDag;
use robusched_stochastic::perturb::{SearchPoint, MACHINES_MIN, MOVES, UL_MAX};
use robusched_stochastic::scenario_fingerprint;

/// A random layered trace (same generator idiom as the parser proptests).
fn random_trace(n: usize, density: f64, seed: u64) -> TraceDag {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doc = String::from("digraph random {\n");
    for v in 0..n {
        let flops = 10f64.powf(rng.gen_range(6.0..12.0));
        doc.push_str(&format!("  t{v} [size=\"{flops}\"];\n"));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let forced = j == i + 1 && i == 0; // connectivity floor
            if forced || rng.gen_bool(density) {
                let bytes = 10f64.powf(rng.gen_range(3.0..9.0));
                doc.push_str(&format!("  t{i} -> t{j} [size=\"{bytes}\"];\n"));
            }
        }
    }
    doc.push_str("}\n");
    parse_dot(&doc, "random").expect("generated DOT is valid")
}

/// A random start point, walked `warm` table moves away from its pristine
/// state.
fn random_point(n: usize, density: f64, seed: u64, warm: usize) -> SearchPoint {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
    let mut point = SearchPoint::from_trace(
        random_trace(n, density, seed),
        rng.gen_range(MACHINES_MIN..12),
        rng.gen_range(0.0..1.2),
        rng.gen_range(1.001..2.0),
        rng.gen_range(0u64..u64::MAX),
    );
    for step in 0..warm {
        let mv = &MOVES[rng.gen_range(0..MOVES.len())];
        if let Some(next) = (mv.apply)(&point, seed.wrapping_add(step as u64)) {
            point = next;
        }
    }
    point
}

/// The validity invariants every proposal must satisfy.
fn assert_valid(
    before: &SearchPoint,
    after: &SearchPoint,
    op_name: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(after.trace.dag.is_acyclic(), "{op_name}: cycle introduced");
    prop_assert_eq!(
        after.trace.dag.entry_nodes(),
        before.trace.dag.entry_nodes(),
        "{}: entry set changed",
        op_name
    );
    prop_assert_eq!(
        after.trace.dag.exit_nodes(),
        before.trace.dag.exit_nodes(),
        "{}: exit set changed",
        op_name
    );
    for t in &after.trace.tasks {
        prop_assert!(
            t.flops.is_finite() && t.flops >= 0.0,
            "{op_name}: bad flops {}",
            t.flops
        );
    }
    for &b in &after.trace.edge_bytes {
        prop_assert!(b.is_finite() && b >= 0.0, "{op_name}: bad bytes {b}");
    }
    prop_assert!(after.machines >= 1, "{op_name}: machine count vanished");
    prop_assert!(
        after.speed_cov.is_finite() && after.speed_cov >= 0.0,
        "{op_name}: bad speed CoV"
    );
    prop_assert!(
        after.unrelatedness.is_finite() && after.unrelatedness >= 0.0,
        "{op_name}: bad unrelatedness"
    );
    prop_assert!(
        after.ul >= 1.0 && after.ul <= UL_MAX,
        "{op_name}: UL {} out of bounds",
        after.ul
    );
    if let Some(uls) = &after.per_task_ul {
        prop_assert_eq!(uls.len(), after.trace.task_count());
        for &u in uls {
            prop_assert!(
                (1.0..=UL_MAX).contains(&u),
                "{op_name}: per-task UL {u} out of bounds"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn proposals_preserve_validity_and_move_the_fingerprint(
        n in 4usize..16,
        density in 0.1f64..0.5,
        seed in 0u64..10_000,
        warm in 0usize..4,
    ) {
        let point = random_point(n, density, seed, warm);
        let fp = point.fingerprint();
        // The point itself is valid (materializes without panicking).
        let _ = point.to_scenario();
        for mv in &MOVES {
            for move_seed in 0..3u64 {
                let Some(next) = (mv.apply)(&point, seed.wrapping_mul(3).wrapping_add(move_seed))
                else {
                    continue;
                };
                assert_valid(&point, &next, mv.name)?;
                prop_assert!(
                    fp != next.fingerprint(),
                    "{} reported a change without moving the scenario",
                    mv.name
                );
            }
        }
    }

    #[test]
    fn proposals_are_seed_deterministic(
        n in 4usize..16,
        density in 0.1f64..0.5,
        seed in 10_000u64..20_000,
        warm in 0usize..4,
    ) {
        let point = random_point(n, density, seed, warm);
        for mv in &MOVES {
            let a = (mv.apply)(&point, seed);
            let b = (mv.apply)(&point, seed);
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    // Bit-identical scenarios, not merely equivalent ones.
                    prop_assert_eq!(
                        scenario_fingerprint(&x.to_scenario()),
                        scenario_fingerprint(&y.to_scenario()),
                        "{} not deterministic",
                        mv.name
                    );
                    prop_assert_eq!(x.machines, y.machines);
                    prop_assert_eq!(x.speed_cov.to_bits(), y.speed_cov.to_bits());
                    prop_assert_eq!(x.unrelatedness.to_bits(), y.unrelatedness.to_bits());
                    prop_assert_eq!(x.ul.to_bits(), y.ul.to_bits());
                    prop_assert_eq!(x.seed, y.seed);
                }
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "{} Some/None flipped between runs",
                        mv.name
                    )));
                }
            }
        }
    }

    #[test]
    fn replayable_points_stay_replayable(
        n in 4usize..12,
        density in 0.1f64..0.5,
        seed in 20_000u64..30_000,
    ) {
        // A pristine from_trace point walked only through replayable moves
        // must keep the from_trace replay property at every step.
        let mut point = SearchPoint::from_trace(
            random_trace(n, density, seed),
            4,
            0.5,
            1.1,
            seed,
        );
        let moves: Vec<_> = MOVES.iter().filter(|mv| mv.replayable).collect();
        for step in 0..6u64 {
            let mv = moves[(seed.wrapping_add(step) % moves.len() as u64) as usize];
            if let Some(next) = (mv.apply)(&point, seed.wrapping_add(100 + step)) {
                point = next;
            }
            prop_assert!(point.replays_from_trace(), "{} broke replayability", mv.name);
        }
    }
}
