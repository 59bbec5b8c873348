//! The pluggable heuristic surface: every scheduling heuristic behind one
//! object-safe trait, plus a by-name registry.
//!
//! The paper's protocol fixes the heuristic list (HEFT, BIL, Hyb.BMCT);
//! follow-up work — PISA's adversarial harness and the ROADMAP's
//! multi-backend direction — wants heuristics to be first-class, swappable
//! components. [`Heuristic`] is that surface: `robusched-core`'s
//! `StudyBuilder` consumes `&dyn Heuristic`, and [`registry`] /
//! [`heuristic_by_name`] let CLIs and config files select implementations
//! by name without linking against each concrete function.

use crate::bil::bil;
use crate::bmct::hyb_bmct;
use crate::cpop::cpop;
use crate::heft::heft;
use crate::robust::sigma_heft;
use crate::schedule::{Schedule, ScheduleError};
use robusched_platform::Scenario;

/// A scheduling heuristic: a named, reusable `Scenario → Schedule` mapping.
///
/// Implementations must be `Send + Sync` so one instance can serve every
/// worker of a parallel study. The bundled heuristics are infallible (they
/// construct valid eager schedules by design) but the trait returns
/// `Result` so external heuristics can reject scenarios they cannot handle
/// instead of aborting the process.
pub trait Heuristic: Send + Sync {
    /// Display/registry name (e.g. `"HEFT"`).
    fn name(&self) -> &str;

    /// Produces an eager schedule for the scenario.
    fn schedule(&self, scenario: &Scenario) -> Result<Schedule, ScheduleError>;
}

/// A bundled heuristic: its registry name and its free function.
#[derive(Debug, Clone, Copy)]
struct Bundled(&'static str, fn(&Scenario) -> Schedule);

impl Heuristic for Bundled {
    fn name(&self) -> &str {
        self.0
    }

    fn schedule(&self, scenario: &Scenario) -> Result<Schedule, ScheduleError> {
        Ok((self.1)(scenario))
    }
}

/// The bundled heuristics, in the paper's order (HEFT, BIL, Hyb.BMCT)
/// followed by the extensions (CPOP, σ-HEFT at risk weight κ = 1).
const REGISTRY: [Bundled; 5] = [
    Bundled("HEFT", heft),
    Bundled("BIL", bil),
    Bundled("Hyb.BMCT", hyb_bmct),
    Bundled("CPOP", cpop),
    Bundled("σ-HEFT", |scenario| sigma_heft(scenario, 1.0)),
];

/// All bundled heuristics, in the paper's order (HEFT, BIL, Hyb.BMCT)
/// followed by the extensions (CPOP, σ-HEFT at κ = 1).
pub fn registry() -> Vec<Box<dyn Heuristic>> {
    REGISTRY
        .iter()
        .map(|&h| Box::new(h) as Box<dyn Heuristic>)
        .collect()
}

/// Resolves a heuristic by name, case-insensitively; `"sigma-heft"` is
/// accepted as an ASCII alias of `"σ-HEFT"`. Returns `None` for unknown
/// names.
pub fn heuristic_by_name(name: &str) -> Option<Box<dyn Heuristic>> {
    let lower = name.to_lowercase();
    let lower = if lower == "sigma-heft" {
        "σ-heft".to_string()
    } else {
        lower
    };
    REGISTRY
        .iter()
        .find(|h| h.0.to_lowercase() == lower)
        .map(|&h| Box::new(h) as Box<dyn Heuristic>)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<String> = registry().iter().map(|h| h.name().to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate heuristic names");
        for n in &names {
            let h = heuristic_by_name(n).unwrap_or_else(|| panic!("{n} not resolvable"));
            assert_eq!(h.name(), n);
        }
    }

    #[test]
    fn lookup_is_case_insensitive_with_ascii_alias() {
        assert_eq!(heuristic_by_name("heft").unwrap().name(), "HEFT");
        assert_eq!(heuristic_by_name("hyb.bmct").unwrap().name(), "Hyb.BMCT");
        assert_eq!(heuristic_by_name("sigma-heft").unwrap().name(), "σ-HEFT");
        assert!(heuristic_by_name("no-such-heuristic").is_none());
    }

    #[test]
    fn trait_schedules_match_free_functions() {
        let s = Scenario::paper_random(12, 3, 1.1, 5);
        let free: [(&str, Schedule); 5] = [
            ("HEFT", heft(&s)),
            ("BIL", bil(&s)),
            ("Hyb.BMCT", hyb_bmct(&s)),
            ("CPOP", cpop(&s)),
            ("σ-HEFT", sigma_heft(&s, 1.0)),
        ];
        let bundled = registry();
        assert_eq!(bundled.len(), free.len());
        for (h, (name, schedule)) in bundled.iter().zip(free) {
            assert_eq!(h.name(), name);
            assert_eq!(h.schedule(&s).unwrap(), schedule, "{name}");
        }
    }

    #[test]
    fn schedules_are_valid_for_their_scenario() {
        let s = Scenario::paper_random(15, 4, 1.1, 9);
        for h in registry() {
            let sched = h.schedule(&s).unwrap();
            assert!(sched.validate(&s.graph.dag).is_ok(), "{}", h.name());
        }
    }
}
