//! Actual causality over fault trees — the third query layer.
//!
//! BFL answers *whether* an observation leads to failure; this module
//! answers *which failed events actually caused it*, in the but-for /
//! counterfactual reading of "Actual causality in fault trees" (Caltais,
//! Lopuhaä-Zwakenberg & Stoelinga). Given an observation `b` — evidence
//! bindings with every unbound event operational — under which `ϕ` holds:
//!
//! * a **but-for cause** is a set `S ⊆ failed(b)` whose joint repair
//!   flips the verdict: `b[S↦0] ⊭ ϕ`;
//! * an **actual cause** is a subset-minimal but-for cause.
//!
//! The engine computes *all* minimal causes in three BDD operations,
//! without enumerating candidate sets:
//!
//! 1. cofactor the compiled `B_T(ϕ)` by pinning every non-failed event
//!    operational (`restrict_many`), leaving a diagram `g` over the
//!    failed events only;
//! 2. take the **maximal zeros** of `g` with the same primed-pair
//!    strict-superset construction that implements `MPS(ϕ)`: a vector
//!    `x` is a maximal zero exactly when the repair set
//!    `S = failed(b) ∖ x` is a minimal but-for cause (repairing *more*
//!    events means a *smaller* surviving set, so subset-minimality of
//!    `S` is superset-maximality of `x`, for non-monotone `ϕ` too).
//!    The construction runs over the pairs of `g`'s support `V_g` only,
//!    not over every event. Failing an event that `g` ignores keeps `g`
//!    at 0, so every maximal zero fails all events outside `V_g`, and
//!    among the vectors that do, maximality only concerns `V_g`: the
//!    maximal zeros over all events are those over `V_g` conjoined with
//!    the positive literals of the other events, the same function and
//!    so the same node. `V_g` is the few dozen failed events the verdict
//!    still depends on, so the relation costs a few nodes per pair, per
//!    request, instead of one relation over every event;
//! 3. model-count the result over `V_g` for the exact number of causes,
//!    and read witnesses off its satisfying vectors over `V_g`, capped by
//!    the enumeration bound, with every other event failed. A fixed
//!    position never branches, so the first `limit` vectors are the ones
//!    the all-events construction enumerates first.
//!
//! Events irrelevant to the repaired verdict are forced *failed* by
//! maximality, so each cause automatically contains only events that
//! matter. Witnesses are repaired observations `b[S↦0]`, rendered like
//! the Definition-7 counterexamples of
//! [`counterexample`](mod@crate::counterexample).
//!
//! The brute-force ground truth lives in
//! [`semantics::actual_causes_naive`](crate::semantics::actual_causes_naive);
//! the differential suite checks the two agree on seeded random trees.

use bfl_bdd::{Bdd, Var};
use bfl_fault_tree::analysis::mps_bdd_paper;
use bfl_fault_tree::StatusVector;

use crate::ast::Formula;
use crate::checker::ModelChecker;
use crate::error::BflError;
use crate::semantics::observation_vector;

/// One minimal actual cause of a failing observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActualCause {
    /// Names of the events in the cause, sorted.
    pub events: Vec<String>,
    /// The Definition-7-style witness: the repaired observation
    /// `b[S↦0]`, under which `ϕ` no longer holds.
    pub witness: StatusVector,
}

/// The verdict of a `cause(ϕ, evidence)` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CauseReport {
    /// The observation vector induced by the evidence (unbound events
    /// operational).
    pub observation: StatusVector,
    /// Whether the observation is failing (`b ⊨ ϕ`). When `false` the
    /// causality question is moot and no causes are reported.
    pub failing: bool,
    /// The minimal actual causes, shortest first then lexicographic,
    /// capped by the enumeration bound.
    pub causes: Vec<ActualCause>,
    /// The exact number of minimal actual causes (BDD model count — not
    /// capped by the bound).
    pub total: u128,
    /// `true` when `causes` omits some of the `total` (bound reached).
    pub truncated: bool,
}

impl CauseReport {
    /// Whether the causality judgement holds: the observation is failing
    /// *and* at least one actual cause exists. (A failing observation of
    /// a non-monotone `ϕ` can have no cause at all — no repair of failed
    /// events flips the verdict.)
    pub fn holds(&self) -> bool {
        self.failing && self.total > 0
    }
}

/// Computes the minimal actual causes of `ϕ` under `evidence`, reporting
/// at most `limit` witnesses (the exact count is always reported).
///
/// Of what it builds, only the translation of `ϕ` stays in the arena.
///
/// # Errors
///
/// * [`BflError::UnknownElement`] if an atom or bound name is not in the
///   tree;
/// * [`BflError::EvidenceOnGate`] if a binding targets an intermediate
///   event;
/// * [`BflError::CountOverflow`] if there are more than `u128::MAX`
///   minimal causes.
pub fn actual_causes(
    mc: &mut ModelChecker,
    phi: &Formula,
    evidence: &[(String, bool)],
    limit: usize,
) -> Result<CauseReport, BflError> {
    let b = observation_vector(mc.tree(), evidence)?;
    let root = mc.formula_bdd(phi)?;
    // The cofactor and the maximality relation are scratch: the report
    // leaves as plain data and the arena rolls back, on errors too.
    let mark = mc.manager().watermark();
    let report = causes_from_bdd(mc, root, &b, limit);
    mc.rollback(mark);
    report
}

/// The handle-level core shared with the prepared-query evaluator: causes
/// of an already-compiled diagram under an already-resolved observation.
///
/// # Errors
///
/// [`BflError::CountOverflow`] if there are more than `u128::MAX` minimal
/// causes.
///
/// # Panics
///
/// Panics if `observation` does not cover the tree's basic events.
pub(crate) fn causes_from_bdd(
    mc: &mut ModelChecker,
    root: Bdd,
    observation: &StatusVector,
    limit: usize,
) -> Result<CauseReport, BflError> {
    let tree = mc.tree_arc();
    let n = tree.num_basic_events();
    assert_eq!(observation.len(), n, "vector length");
    let failing = {
        let basic_of_position = mc.basic_of_position();
        mc.manager().eval(root, |v| {
            debug_assert_eq!(v.index() % 2, 0, "primed variable in query BDD");
            observation.get(basic_of_position[(v.index() / 2) as usize])
        })
    };
    if !failing {
        return Ok(CauseReport {
            observation: observation.clone(),
            failing: false,
            causes: Vec::new(),
            total: 0,
            truncated: false,
        });
    }
    // Pin every non-failed event operational; `g` then depends only on
    // the failed events, and g(x) = ϕ(b[failed(b) ∖ x ↦ 0]).
    let pins: Vec<(Var, bool)> = (0..n)
        .filter(|&bi| !observation.get(bi))
        .map(|bi| (mc.var_of_basic(bi), false))
        .collect();
    let tb = mc.tree_bdd_mut();
    let g = tb.manager_mut().restrict_many(root, &pins);
    // Maximal zeros of g = minimal but-for causes, built over g's
    // support alone (module docs, step 2). The all-ones vector is never
    // among them (g(1⃗) is the failing verdict itself), so S = ∅ is
    // excluded for free.
    let support = tb.manager().support(g);
    let prime = tb.prime_map();
    let pairs: Vec<(Var, Var)> = support.iter().map(|&v| (v, prime(v))).collect();
    let mps = mps_bdd_paper(tb, g, &pairs);
    let tb = &*tb;
    let total =
        tb.manager()
            .sat_count_over(mps, &support)
            .ok_or_else(|| BflError::CountOverflow {
                what: "minimal causes".to_string(),
            })?;
    // A support event left operational in x is repaired; every other
    // event stays as observed.
    let basic_of_var: Vec<usize> = support
        .iter()
        .map(|&v| tb.basic_of_position()[(v.index() / 2) as usize])
        .collect();
    let mut causes: Vec<ActualCause> = tb
        .manager()
        .sat_vectors(mps, &support)
        .take(limit)
        .map(|x| {
            let mut witness = observation.clone();
            let mut events = Vec::new();
            for (&bi, &failed) in basic_of_var.iter().zip(&x) {
                if !failed {
                    witness.set(bi, false);
                    events.push(tree.name(tree.basic_events()[bi]).to_string());
                }
            }
            events.sort();
            ActualCause { events, witness }
        })
        .collect();
    causes.sort_by(|a, b| {
        a.events
            .len()
            .cmp(&b.events.len())
            .then_with(|| a.events.cmp(&b.events))
    });
    let truncated = total > causes.len() as u128;
    Ok(CauseReport {
        observation: observation.clone(),
        failing: true,
        causes,
        total,
        truncated,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::semantics;
    use bfl_fault_tree::corpus;

    /// Sorted name sets of the naive reference, for comparison.
    fn naive_sets(
        tree: &bfl_fault_tree::FaultTree,
        phi: &Formula,
        evidence: &[(String, bool)],
    ) -> Vec<Vec<String>> {
        let mut sets: Vec<Vec<String>> = semantics::actual_causes_naive(tree, phi, evidence)
            .unwrap()
            .into_iter()
            .map(|s| {
                let mut names: Vec<String> = s
                    .into_iter()
                    .map(|bi| tree.name(tree.basic_events()[bi]).to_string())
                    .collect();
                names.sort();
                names
            })
            .collect();
        sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        sets
    }

    fn bdd_sets(report: &CauseReport) -> Vec<Vec<String>> {
        report.causes.iter().map(|c| c.events.clone()).collect()
    }

    #[test]
    fn matches_naive_on_fig1_all_observations() {
        let tree = corpus::fig1();
        let names: Vec<String> = tree
            .basic_events()
            .iter()
            .map(|&e| tree.name(e).to_string())
            .collect();
        let mut mc = ModelChecker::new(&tree);
        let formulas = [
            Formula::atom("CP/R"),
            Formula::atom("CP"),
            Formula::atom("CP").or(Formula::atom("CR")),
            Formula::atom("IW").neq(Formula::atom("H3")),
            Formula::atom("CP/R").not(),
            Formula::atom("CP/R").with_evidence("H2", true),
        ];
        for phi in &formulas {
            for bits in 0u32..(1 << names.len()) {
                let evidence: Vec<(String, bool)> = names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.clone(), (bits >> i) & 1 == 1))
                    .collect();
                let report = actual_causes(&mut mc, phi, &evidence, usize::MAX).unwrap();
                assert_eq!(
                    bdd_sets(&report),
                    naive_sets(&tree, phi, &evidence),
                    "{phi} under {evidence:?}"
                );
                assert_eq!(report.total, report.causes.len() as u128);
                assert!(!report.truncated);
            }
        }
    }

    #[test]
    fn witnesses_flip_the_verdict() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("IWoS");
        let evidence: Vec<(String, bool)> = ["IW", "H3", "PP", "H1", "VW"]
            .iter()
            .map(|e| (e.to_string(), true))
            .collect();
        let report = actual_causes(&mut mc, &phi, &evidence, usize::MAX).unwrap();
        assert!(report.failing);
        assert!(report.holds());
        for cause in &report.causes {
            assert!(!cause.events.is_empty());
            // The witness is the repaired observation and no longer fails.
            assert!(!semantics::eval(&tree, &cause.witness, &phi).unwrap());
            // Repairing any proper subset keeps the failure: minimality.
            for skip in &cause.events {
                let mut partial = report.observation.clone();
                for name in cause.events.iter().filter(|n| n != &skip) {
                    let e = tree.element(name).unwrap();
                    partial.set(tree.basic_index(e).unwrap(), false);
                }
                assert!(semantics::eval(&tree, &partial, &phi).unwrap());
            }
        }
    }

    #[test]
    fn truncation_reports_exact_total() {
        let tree = corpus::fig1();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("CP/R");
        let evidence: Vec<(String, bool)> = ["IW", "H3", "IT", "H2"]
            .iter()
            .map(|e| (e.to_string(), true))
            .collect();
        let full = actual_causes(&mut mc, &phi, &evidence, usize::MAX).unwrap();
        assert_eq!(full.total, 4);
        let capped = actual_causes(&mut mc, &phi, &evidence, 2).unwrap();
        assert_eq!(capped.total, 4);
        assert_eq!(capped.causes.len(), 2);
        assert!(capped.truncated);
        assert!(capped.holds());
    }

    #[test]
    fn non_failing_observation_is_moot() {
        let tree = corpus::fig1();
        let mut mc = ModelChecker::new(&tree);
        let report = actual_causes(
            &mut mc,
            &Formula::atom("CP/R"),
            &[("IW".to_string(), true)],
            usize::MAX,
        )
        .unwrap();
        assert!(!report.failing);
        assert!(!report.holds());
        assert_eq!(report.total, 0);
        assert!(report.causes.is_empty());
    }

    #[test]
    fn failing_without_causes_for_non_monotone_formula() {
        let tree = corpus::fig1();
        let mut mc = ModelChecker::new(&tree);
        // ¬IW holds with everything operational: nothing failed, nothing
        // to repair.
        let report = actual_causes(&mut mc, &Formula::atom("IW").not(), &[], usize::MAX).unwrap();
        assert!(report.failing);
        assert_eq!(report.total, 0);
        assert!(!report.holds());
    }

    #[test]
    fn unknown_names_are_rejected() {
        let tree = corpus::fig1();
        let mut mc = ModelChecker::new(&tree);
        assert_eq!(
            actual_causes(
                &mut mc,
                &Formula::atom("CP/R"),
                &[("ghost".to_string(), true)],
                usize::MAX
            )
            .unwrap_err(),
            BflError::UnknownElement("ghost".into())
        );
        assert_eq!(
            actual_causes(
                &mut mc,
                &Formula::atom("CP/R"),
                &[("CP".to_string(), true)],
                usize::MAX
            )
            .unwrap_err(),
            BflError::EvidenceOnGate("CP".into())
        );
    }
}
