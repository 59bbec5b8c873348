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
/// worker of a parallel study. All bundled impls are infallible (they
/// construct valid eager schedules by design) but the trait returns
/// `Result` so external heuristics can reject scenarios they cannot handle
/// instead of aborting the process.
pub trait Heuristic: Send + Sync {
    /// Display/registry name (e.g. `"HEFT"`).
    fn name(&self) -> &str;

    /// Produces an eager schedule for the scenario.
    fn schedule(&self, scenario: &Scenario) -> Result<Schedule, ScheduleError>;
}

/// HEFT (Topcuoglu, Hariri & Wu) as a [`Heuristic`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Heft;

impl Heuristic for Heft {
    fn name(&self) -> &str {
        "HEFT"
    }

    fn schedule(&self, scenario: &Scenario) -> Result<Schedule, ScheduleError> {
        Ok(heft(scenario))
    }
}

/// BIL (Oh & Ha) as a [`Heuristic`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Bil;

impl Heuristic for Bil {
    fn name(&self) -> &str {
        "BIL"
    }

    fn schedule(&self, scenario: &Scenario) -> Result<Schedule, ScheduleError> {
        Ok(bil(scenario))
    }
}

/// Hyb.BMCT (Sakellariou & Zhao) as a [`Heuristic`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HybBmct;

impl Heuristic for HybBmct {
    fn name(&self) -> &str {
        "Hyb.BMCT"
    }

    fn schedule(&self, scenario: &Scenario) -> Result<Schedule, ScheduleError> {
        Ok(hyb_bmct(scenario))
    }
}

/// CPOP (Topcuoglu et al.) as a [`Heuristic`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpop;

impl Heuristic for Cpop {
    fn name(&self) -> &str {
        "CPOP"
    }

    fn schedule(&self, scenario: &Scenario) -> Result<Schedule, ScheduleError> {
        Ok(cpop(scenario))
    }
}

/// σ-HEFT (the paper's §VIII future-work heuristic) as a [`Heuristic`],
/// parameterized by the risk weight κ.
#[derive(Debug, Clone, Copy)]
pub struct SigmaHeft {
    /// Risk weight κ of the `mean + κ·σ` cost (κ = 0 reduces to
    /// HEFT-on-means).
    pub kappa: f64,
}

impl Default for SigmaHeft {
    fn default() -> Self {
        Self { kappa: 1.0 }
    }
}

impl Heuristic for SigmaHeft {
    fn name(&self) -> &str {
        "σ-HEFT"
    }

    fn schedule(&self, scenario: &Scenario) -> Result<Schedule, ScheduleError> {
        Ok(sigma_heft(scenario, self.kappa))
    }
}

/// Builds one bundled heuristic with its default configuration.
type Constructor = fn() -> Box<dyn Heuristic>;

/// Registry names and constructors of the bundled heuristics, in the
/// paper's order (HEFT, BIL, Hyb.BMCT) followed by the extensions
/// (CPOP, σ-HEFT).
const REGISTRY: [(&str, Constructor); 5] = [
    ("HEFT", || Box::new(Heft)),
    ("BIL", || Box::new(Bil)),
    ("Hyb.BMCT", || Box::new(HybBmct)),
    ("CPOP", || Box::new(Cpop)),
    ("σ-HEFT", || Box::new(SigmaHeft::default())),
];

/// All bundled heuristics with their default configurations, in the
/// paper's order (HEFT, BIL, Hyb.BMCT) followed by the extensions
/// (CPOP, σ-HEFT).
pub fn registry() -> Vec<Box<dyn Heuristic>> {
    REGISTRY.iter().map(|(_, make)| make()).collect()
}

/// Resolves a heuristic by name, case-insensitively; `"sigma-heft"` is
/// accepted as an ASCII alias of `"σ-HEFT"`. Returns `None` for unknown
/// names. Only the matching heuristic is built.
pub fn heuristic_by_name(name: &str) -> Option<Box<dyn Heuristic>> {
    let lower = name.to_lowercase();
    let lower = if lower == "sigma-heft" {
        "σ-heft".to_string()
    } else {
        lower
    };
    REGISTRY
        .iter()
        .find(|(canonical, _)| canonical.to_lowercase() == lower)
        .map(|(_, make)| make())
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
    fn registry_names_match_the_built_heuristics() {
        for (canonical, make) in REGISTRY {
            assert_eq!(make().name(), canonical);
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
        assert_eq!(Heft.schedule(&s).unwrap(), heft(&s));
        assert_eq!(Bil.schedule(&s).unwrap(), bil(&s));
        assert_eq!(HybBmct.schedule(&s).unwrap(), hyb_bmct(&s));
        assert_eq!(Cpop.schedule(&s).unwrap(), cpop(&s));
        assert_eq!(
            SigmaHeft { kappa: 0.5 }.schedule(&s).unwrap(),
            sigma_heft(&s, 0.5)
        );
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
