//! Quantitative (probabilistic) BFL — the PFL-style probabilistic layer
//! realising the paper's first future-work item: *"extend BFL to model
//! probabilities … a probabilistic fault tree logic will allow users to
//! perform such quantitative analysis."*
//!
//! Given independent basic-event failure probabilities, the probability
//! of **any** layer-1 BFL formula is the probability mass of its
//! satisfaction set `⟦ϕ⟧`, computed exactly by the node-keyed Shannon
//! walk of [`bfl_bdd::Manager::probability_with_memo`] over the
//! formula's BDD. On top of it: conditional probabilities, the layer-2
//! probability judgements `P(ϕ) ▷◁ p` / `P(ϕ | ψ) ▷◁ p`
//! ([`crate::ast::Query::Prob`], with [`ProbQuery`] as the standalone
//! form), and the batched importance suite ([`rank_events`]: Birnbaum,
//! criticality, Fussell-Vesely, RAW, RRW).
//!
//! Every function here is **fallible**: malformed probability vectors
//! ([`BflError::InvalidProbability`]), out-of-range bounds
//! ([`BflError::InvalidBound`]) and vanishing denominators
//! ([`BflError::DivisionByZero`]) come back as errors, never as panics —
//! the module carries a `deny(clippy::unwrap_used, clippy::expect_used)`
//! gate to keep it that way.
//!
//! ```
//! use bfl_core::{quant, Formula, ModelChecker};
//! use bfl_fault_tree::corpus;
//!
//! # fn main() -> Result<(), bfl_core::BflError> {
//! let tree = corpus::or2();
//! let mut mc = ModelChecker::new(&tree);
//! // P(Top) = 1 - (1-0.1)(1-0.2) = 0.28
//! let p = quant::probability(&mut mc, &Formula::atom("Top"), &[0.1, 0.2])?;
//! assert!((p - 0.28).abs() < 1e-12);
//! // Malformed input is an error, not a panic.
//! assert!(quant::probability(&mut mc, &Formula::atom("Top"), &[0.1, f64::NAN]).is_err());
//! # Ok(())
//! # }
//! ```

// The whole point of this module's redesign: no panic is reachable from
// user-supplied probabilities or bounds.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use bfl_bdd::{Bdd, NodeMemo, WordMap};
use bfl_fault_tree::prob::{validate_intervals, validate_probabilities, ProbInterval};
use bfl_fault_tree::StatusVector;

use crate::ast::{CmpOp, Formula, Prob, Query};
use crate::checker::ModelChecker;
use crate::error::BflError;

/// Absolute part of the tolerance used by `=` probability comparisons.
pub const PROB_EQ_ABS_TOLERANCE: f64 = 1e-12;

/// Relative part of the tolerance used by `=` probability comparisons:
/// `|p − bound| ≤ ABS + REL · max(|p|, |bound|)`. A relative term keeps
/// equality judgements meaningful near `1.0`, where a probability
/// assembled from many multiplications carries roundoff proportional to
/// its magnitude — a purely absolute `ε` misjudges those.
pub const PROB_EQ_REL_TOLERANCE: f64 = 1e-9;

/// Conditioning probabilities below this threshold (the smallest
/// positive *normal* `f64`) are treated as zero: a subnormal or
/// underflowed `P(ψ)` has lost so much precision that the ratio
/// `P(ϕ ∧ ψ) / P(ψ)` is garbage, so [`conditional_probability`] returns
/// `None` rather than a meaningless number.
pub const MIN_CONDITIONING_PROBABILITY: f64 = f64::MIN_POSITIVE;

/// Applies `▷◁` to a computed probability and a bound. Strict and weak
/// inequalities compare exactly; `=` uses the documented
/// relative-plus-absolute tolerance ([`PROB_EQ_ABS_TOLERANCE`],
/// [`PROB_EQ_REL_TOLERANCE`]).
pub fn prob_compare(op: CmpOp, p: f64, bound: f64) -> bool {
    match op {
        CmpOp::Lt => p < bound,
        CmpOp::Le => p <= bound,
        CmpOp::Eq => {
            (p - bound).abs()
                <= PROB_EQ_ABS_TOLERANCE + PROB_EQ_REL_TOLERANCE * p.abs().max(bound.abs())
        }
        CmpOp::Ge => p >= bound,
        CmpOp::Gt => p > bound,
    }
}

/// Judges a probability judgement `P(…) ▷◁ bound` given the (possibly
/// undefined) computed probability: an undefined conditional (`None`,
/// i.e. the conditioning probability fell below
/// [`MIN_CONDITIONING_PROBABILITY`]) satisfies **no** bound. This is the
/// single policy point shared by [`check_query`], the session evaluator
/// and the prepared-plan evaluator.
#[must_use]
pub fn judge_bound(p: Option<f64>, op: CmpOp, bound: f64) -> bool {
    p.map(|p| prob_compare(op, p, bound)).unwrap_or(false)
}

/// Validates `probs` against `mc`'s tree, mapping the message into
/// [`BflError::InvalidProbability`].
fn validate(mc: &ModelChecker, probs: &[f64]) -> Result<(), BflError> {
    validate_probabilities(mc.tree(), probs)
        .map_err(|reason| BflError::InvalidProbability { reason })
}

/// The node-keyed Shannon walk over an already-compiled diagram, sharing
/// `memo` across roots — the handle-level core used by [`probability`],
/// [`rank_events`] and the prepared-plan probability sweeps. `probs`
/// must already be validated.
pub(crate) fn bdd_probability_with_memo(
    mc: &ModelChecker,
    f: Bdd,
    probs: &[f64],
    memo: &mut impl NodeMemo<f64>,
) -> f64 {
    let basic_of_position = mc.basic_of_position();
    mc.manager().probability_with_memo(
        f,
        &|v| {
            debug_assert_eq!(v.index() % 2, 0, "primed variable in query BDD");
            probs[basic_of_position[(v.index() / 2) as usize]]
        },
        memo,
    )
}

/// Exact probability `P(b ⊨ ϕ)` under independent basic-event failure
/// probabilities `probs` (indexed by basic index).
///
/// Works for *any* layer-1 formula, including `MCS`/`MPS` and evidence —
/// e.g. `P(MCS(top))` is the probability that the realised failure set is
/// exactly a minimal cut set.
///
/// # Errors
///
/// [`BflError::InvalidProbability`] if `probs` has the wrong length or a
/// value outside `[0, 1]` (or not finite); translation errors as for
/// [`ModelChecker::formula_bdd`].
pub fn probability(mc: &mut ModelChecker, phi: &Formula, probs: &[f64]) -> Result<f64, BflError> {
    validate(mc, probs)?;
    let f = mc.formula_bdd(phi)?;
    let mut memo = WordMap::default();
    Ok(bdd_probability_with_memo(mc, f, probs, &mut memo))
}

/// The interval twin of [`bdd_probability_with_memo`]: the node-keyed
/// interval Shannon walk over an already-compiled diagram, sharing
/// `memo` across roots. `intervals` must already be validated.
pub(crate) fn bdd_probability_interval_with_memo(
    mc: &ModelChecker,
    f: Bdd,
    intervals: &[ProbInterval],
    memo: &mut impl NodeMemo<(f64, f64)>,
) -> ProbInterval {
    let basic_of_position = mc.basic_of_position();
    let (lo, hi) = mc.manager().probability_interval_with_memo(
        f,
        &|v| {
            debug_assert_eq!(v.index() % 2, 0, "primed variable in query BDD");
            let iv = intervals[basic_of_position[(v.index() / 2) as usize]];
            (iv.lo, iv.hi)
        },
        memo,
    );
    ProbInterval { lo, hi }
}

/// Interval twin of [`probability`]: conservative `[lo, hi]` bounds on
/// `P(b ⊨ ϕ)` when each basic event's failure probability is only known
/// to lie in an interval. Degenerate intervals `[p, p]` reproduce
/// [`probability`] bit for bit.
///
/// # Errors
///
/// [`BflError::InvalidProbability`] if `intervals` is malformed;
/// translation errors as for [`ModelChecker::formula_bdd`].
pub fn probability_interval(
    mc: &mut ModelChecker,
    phi: &Formula,
    intervals: &[ProbInterval],
) -> Result<ProbInterval, BflError> {
    validate_intervals(mc.tree(), intervals)
        .map_err(|reason| BflError::InvalidProbability { reason })?;
    let f = mc.formula_bdd(phi)?;
    let mut memo = WordMap::default();
    Ok(bdd_probability_interval_with_memo(
        mc, f, intervals, &mut memo,
    ))
}

/// Interval twin of [`conditional_probability`]: bounds on
/// `P(ϕ | ψ) = P(ϕ ∧ ψ) / P(ψ)` by interval division,
/// `[joint.lo / base.hi, joint.hi / base.lo]` clamped to `[0, 1]`.
/// The division is correlation-oblivious — see the caveat on
/// [`ProbInterval`] — so the bounds are sound but not tight.
///
/// Returns `None` when even the *largest* conditioning probability in
/// the bounds (`P(ψ).hi`) falls below
/// [`MIN_CONDITIONING_PROBABILITY`] — the condition is impossible under
/// every choice of annotations. When only the lower end vanishes the
/// upper bound is `1.0` (division by the vanishing end is avoided).
///
/// # Errors
///
/// As for [`probability_interval`].
pub fn conditional_probability_interval(
    mc: &mut ModelChecker,
    phi: &Formula,
    given: &Formula,
    intervals: &[ProbInterval],
) -> Result<Option<ProbInterval>, BflError> {
    let joint = probability_interval(mc, &phi.clone().and(given.clone()), intervals)?;
    let base = probability_interval(mc, given, intervals)?;
    Ok(interval_conditional(joint, base))
}

/// Conservative interval division `joint / base` for conditional
/// probabilities, shared by the formula-level API above and the
/// compiled-plan evaluator. `None` when even `base.hi` is below
/// [`MIN_CONDITIONING_PROBABILITY`] (the condition is impossible under
/// every annotation choice).
pub(crate) fn interval_conditional(
    joint: ProbInterval,
    base: ProbInterval,
) -> Option<ProbInterval> {
    if base.hi < MIN_CONDITIONING_PROBABILITY {
        return None;
    }
    let lo = (joint.lo / base.hi).clamp(0.0, 1.0);
    let hi = if base.lo < MIN_CONDITIONING_PROBABILITY {
        1.0
    } else {
        (joint.hi / base.lo).clamp(0.0, 1.0)
    };
    // Conservative division can invert endpoints only through clamping
    // artefacts; normalise so the result is a well-formed interval.
    Some(ProbInterval { lo: lo.min(hi), hi })
}

/// Conditional probability `P(ϕ | ψ) = P(ϕ ∧ ψ) / P(ψ)`.
///
/// Returns `None` when `P(ψ)` is zero **or below
/// [`MIN_CONDITIONING_PROBABILITY`]** — a subnormal denominator would
/// produce a garbage ratio, so it is treated as an impossible condition.
///
/// # Errors
///
/// As for [`probability`].
pub fn conditional_probability(
    mc: &mut ModelChecker,
    phi: &Formula,
    given: &Formula,
    probs: &[f64],
) -> Result<Option<f64>, BflError> {
    let joint = probability(mc, &phi.clone().and(given.clone()), probs)?;
    let base = probability(mc, given, probs)?;
    if base < MIN_CONDITIONING_PROBABILITY {
        Ok(None)
    } else {
        Ok(Some(joint / base))
    }
}

/// A standalone probability-threshold query `P(ϕ) ▷◁ p` — the
/// free-function form of the layer-2 judgement [`Query::Prob`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbQuery {
    /// The formula whose probability is bounded.
    pub formula: Formula,
    /// The comparison `▷◁`.
    pub op: CmpOp,
    /// The bound `p ∈ [0, 1]`. The [`Prob`] newtype makes an
    /// out-of-range bound unrepresentable, so conversions to
    /// [`Query::Prob`] never need to clamp or fail.
    pub bound: Prob,
}

impl ProbQuery {
    /// Builds `P(formula) ▷◁ bound`, validating the bound.
    ///
    /// Replaces the panicking `ProbQuery::new` of earlier releases.
    ///
    /// # Errors
    ///
    /// [`BflError::InvalidBound`] if `bound` is not a probability.
    pub fn try_new(formula: Formula, op: CmpOp, bound: f64) -> Result<Self, BflError> {
        let bound = Prob::new(bound)?;
        Ok(ProbQuery { formula, op, bound })
    }

    /// Evaluates the query. `=` uses the documented
    /// relative-plus-absolute tolerance of [`prob_compare`].
    ///
    /// # Errors
    ///
    /// As for [`probability`].
    pub fn check(&self, mc: &mut ModelChecker, probs: &[f64]) -> Result<bool, BflError> {
        let p = probability(mc, &self.formula, probs)?;
        Ok(prob_compare(self.op, p, self.bound.get()))
    }
}

impl From<ProbQuery> for Query {
    fn from(q: ProbQuery) -> Query {
        Query::Prob {
            formula: q.formula,
            given: None,
            op: q.op,
            bound: q.bound,
        }
    }
}

impl std::fmt::Display for ProbQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P({}) {} {}", self.formula, self.op, self.bound)
    }
}

/// Formula-level Birnbaum importance of basic event `be` for `ϕ`:
/// `P(ϕ | be failed) − P(ϕ | be operational)`, computed by cofactoring.
///
/// # Errors
///
/// [`BflError::UnknownElement`] / [`BflError::EvidenceOnGate`] if `be` is
/// not a basic event of the tree, plus the errors of [`probability`].
pub fn birnbaum(
    mc: &mut ModelChecker,
    phi: &Formula,
    be: &str,
    probs: &[f64],
) -> Result<f64, BflError> {
    let hi = probability(mc, &phi.clone().with_evidence(be, true), probs)?;
    let lo = probability(mc, &phi.clone().with_evidence(be, false), probs)?;
    Ok(hi - lo)
}

/// The quantitative importance of one basic event for a formula — one
/// row of [`rank_events`].
///
/// For non-coherent formulae (negations make `ϕ` non-monotone) the
/// classical `[0, 1]` ranges do not apply: Birnbaum and Fussell-Vesely
/// can go negative, RAW below 1. The definitions are reported as
/// computed.
#[derive(Debug, Clone, PartialEq)]
pub struct EventImportance {
    /// The basic event's name.
    pub event: String,
    /// Its configured failure probability `p_e`.
    pub probability: f64,
    /// Birnbaum importance `I_B = P(ϕ|e=1) − P(ϕ|e=0)`.
    pub birnbaum: f64,
    /// Criticality importance `I_CR = I_B · p_e / P(ϕ)` — by the Shannon
    /// identity also the risk-contribution fraction
    /// `(P(ϕ) − P(ϕ|e=0)) / P(ϕ)`.
    pub criticality: f64,
    /// Vesely-Fussell importance in the diagnostic form
    /// `I_VF = P(e ∧ ϕ) / P(ϕ) = p_e · P(ϕ|e=1) / P(ϕ)` — the
    /// probability that the event is failed given `ϕ` holds. (The
    /// risk-contribution FV variant coincides identically with
    /// [`EventImportance::criticality`] under exact cofactoring, so the
    /// diagnostic form is reported to carry distinct information.)
    pub fussell_vesely: f64,
    /// Risk achievement worth `RAW = P(ϕ|e=1) / P(ϕ)`.
    pub raw: f64,
    /// Risk reduction worth `RRW = P(ϕ) / P(ϕ|e=0)`; `None` when
    /// `P(ϕ|e=0)` vanishes (the event is in every cut set, so fixing it
    /// removes the risk entirely — RRW diverges).
    pub rrw: Option<f64>,
}

/// The batched importance suite: every basic event of the tree ranked by
/// Birnbaum importance (descending, ties by name), with criticality,
/// Fussell-Vesely, RAW and RRW computed from the same three cofactor
/// probabilities per event — all on one compiled BDD with a shared
/// node-keyed memo, so the whole table costs little more than one
/// probability evaluation. Of what it builds, only the translation of
/// `ϕ` stays in the arena.
///
/// # Errors
///
/// [`BflError::InvalidProbability`] for a malformed `probs`;
/// [`BflError::DivisionByZero`] when `P(ϕ)` vanishes (every relative
/// measure is undefined then); translation errors as for
/// [`ModelChecker::formula_bdd`].
pub fn rank_events(
    mc: &mut ModelChecker,
    phi: &Formula,
    probs: &[f64],
) -> Result<Vec<EventImportance>, BflError> {
    validate(mc, probs)?;
    let f = mc.formula_bdd(phi)?;
    // The cofactors are scratch: the rows leave as plain data and the
    // arena rolls back, on errors too.
    let mark = mc.manager().watermark();
    let mut memo = WordMap::default();
    let rows = rank_events_bdd(mc, f, probs, &mut memo);
    mc.rollback(mark);
    rows
}

/// Handle-level core of [`rank_events`], shared with the prepared-plan
/// evaluator (which ranks restricted diagrams under scenarios, reusing
/// its plan-lifetime memo). `probs` must already be validated.
pub(crate) fn rank_events_bdd(
    mc: &mut ModelChecker,
    f: Bdd,
    probs: &[f64],
    memo: &mut impl NodeMemo<f64>,
) -> Result<Vec<EventImportance>, BflError> {
    let p_phi = bdd_probability_with_memo(mc, f, probs, memo);
    if p_phi < MIN_CONDITIONING_PROBABILITY {
        return Err(BflError::DivisionByZero {
            context: format!(
                "importance measures are undefined: P(ϕ) = {p_phi} (below {MIN_CONDITIONING_PROBABILITY:e})"
            ),
        });
    }
    let tree = mc.tree_arc();
    let mut rows = Vec::with_capacity(tree.num_basic_events());
    for (bi, &p_e) in probs.iter().enumerate() {
        let v = mc.var_of_basic(bi);
        let hi = mc.tree_bdd_mut().manager_mut().restrict(f, v, true);
        let lo = mc.tree_bdd_mut().manager_mut().restrict(f, v, false);
        let p_hi = bdd_probability_with_memo(mc, hi, probs, memo);
        let p_lo = bdd_probability_with_memo(mc, lo, probs, memo);
        let birnbaum = p_hi - p_lo;
        rows.push(EventImportance {
            event: tree.name(tree.basic_events()[bi]).to_string(),
            probability: p_e,
            birnbaum,
            criticality: birnbaum * p_e / p_phi,
            fussell_vesely: p_e * p_hi / p_phi,
            raw: p_hi / p_phi,
            rrw: if p_lo < MIN_CONDITIONING_PROBABILITY {
                None
            } else {
                Some(p_phi / p_lo)
            },
        });
    }
    rows.sort_by(|a, b| {
        b.birnbaum
            .total_cmp(&a.birnbaum)
            .then_with(|| a.event.cmp(&b.event))
    });
    Ok(rows)
}

/// Evaluates any layer-2 query — Boolean or probabilistic — against a
/// checker plus an explicit probability vector. Boolean shapes delegate
/// to [`ModelChecker::check_query`]; `P(…) ▷◁ p` and `importance(…)`
/// use `probs`. An `importance(…)` query "holds" iff the ranking is
/// *defined*, i.e. `P(ϕ)` is at least
/// [`MIN_CONDITIONING_PROBABILITY`] (the relative measures divide by
/// it) — only definedness is checked here, not the full table; callers
/// wanting the rows use [`rank_events`].
///
/// # Errors
///
/// As for [`probability`].
pub fn check_query(mc: &mut ModelChecker, psi: &Query, probs: &[f64]) -> Result<bool, BflError> {
    match psi {
        Query::Prob {
            formula,
            given,
            op,
            bound,
        } => {
            let p = match given {
                None => Some(probability(mc, formula, probs)?),
                Some(g) => conditional_probability(mc, formula, g, probs)?,
            };
            Ok(judge_bound(p, *op, bound.get()))
        }
        Query::Importance(phi) => Ok(probability(mc, phi, probs)? >= MIN_CONDITIONING_PROBABILITY),
        other => mc.check_query(other),
    }
}

/// Exhaustive reference for [`probability`], used by tests.
///
/// # Errors
///
/// [`BflError::TooLarge`] if the tree has more than 20 basic events,
/// [`BflError::InvalidProbability`] for a malformed `probs`, plus the
/// reference evaluator's errors.
pub fn probability_naive(
    tree: &bfl_fault_tree::FaultTree,
    phi: &Formula,
    probs: &[f64],
) -> Result<f64, BflError> {
    const LIMIT: usize = 20;
    if tree.num_basic_events() > LIMIT {
        return Err(BflError::TooLarge {
            actual: tree.num_basic_events(),
            limit: LIMIT,
        });
    }
    validate_probabilities(tree, probs)
        .map_err(|reason| BflError::InvalidProbability { reason })?;
    let mut total = 0.0;
    for b in StatusVector::enumerate_all(tree.num_basic_events()) {
        if crate::semantics::eval(tree, &b, phi)? {
            let mut w = 1.0;
            for (i, &p) in probs.iter().enumerate() {
                w *= if b.get(i) { p } else { 1.0 - p };
            }
            total += w;
        }
    }
    Ok(total)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use bfl_fault_tree::corpus;

    #[test]
    fn matches_element_probability() {
        let tree = corpus::fig1();
        let mut mc = ModelChecker::new(&tree);
        let probs = [0.1, 0.2, 0.3, 0.4];
        let via_logic = probability(&mut mc, &Formula::atom("CP/R"), &probs).unwrap();
        let via_ft = bfl_fault_tree::prob::top_event_probability(&tree, &probs).unwrap();
        assert!((via_logic - via_ft).abs() < 1e-12);
    }

    #[test]
    fn mcs_probability_matches_naive() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        let n = tree.num_basic_events();
        let probs: Vec<f64> = (0..n).map(|i| 0.02 + (i as f64) * 0.05).collect();
        for phi in [
            Formula::atom("IWoS").mcs(),
            Formula::atom("MoT").mps(),
            Formula::atom("CT").with_evidence("H1", true),
            Formula::atom("CP").implies(Formula::atom("IWoS")),
        ] {
            let fast = probability(&mut mc, &phi, &probs).unwrap();
            let slow = probability_naive(&tree, &phi, &probs).unwrap();
            assert!((fast - slow).abs() < 1e-9, "{phi}: fast={fast} slow={slow}");
        }
    }

    #[test]
    fn malformed_probabilities_are_errors_not_panics() {
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let top = Formula::atom("Top");
        for bad in [
            vec![0.5],                // short
            vec![0.5, 0.5, 0.5],      // long
            vec![0.5, 1.5],           // out of range
            vec![0.5, -0.1],          // negative
            vec![0.5, f64::NAN],      // NaN
            vec![0.5, f64::INFINITY], // infinite
        ] {
            assert!(
                matches!(
                    probability(&mut mc, &top, &bad),
                    Err(BflError::InvalidProbability { .. })
                ),
                "{bad:?}"
            );
            assert!(
                matches!(
                    probability_naive(&tree, &top, &bad),
                    Err(BflError::InvalidProbability { .. })
                ),
                "{bad:?}"
            );
            assert!(conditional_probability(&mut mc, &top, &top, &bad).is_err());
            assert!(birnbaum(&mut mc, &top, "e1", &bad).is_err());
            assert!(rank_events(&mut mc, &top, &bad).is_err());
        }
    }

    #[test]
    fn naive_rejects_large_trees() {
        let tree =
            bfl_fault_tree::generator::random_tree(&bfl_fault_tree::generator::RandomTreeConfig {
                num_basic: 25,
                num_gates: 10,
                max_children: 4,
                vot_probability: 0.0,
                seed: 1,
            });
        let probs = vec![0.1; tree.num_basic_events()];
        let top = Formula::atom(tree.name(tree.top()));
        assert!(matches!(
            probability_naive(&tree, &top, &probs),
            Err(BflError::TooLarge {
                actual: 25,
                limit: 20
            })
        ));
    }

    #[test]
    fn conditional_probability_basics() {
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let probs = [0.5, 0.5];
        // P(Top | e1) = 1.
        let p =
            conditional_probability(&mut mc, &Formula::atom("Top"), &Formula::atom("e1"), &probs)
                .unwrap()
                .unwrap();
        assert!((p - 1.0).abs() < 1e-12);
        // Conditioning on an impossible event.
        let none = conditional_probability(
            &mut mc,
            &Formula::atom("Top"),
            &Formula::atom("e1").and(Formula::atom("e1").not()),
            &probs,
        )
        .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn conditional_rejects_subnormal_denominators() {
        // P(e2) is subnormal: the ratio would be garbage, so the
        // condition is treated as impossible (regression test for the
        // exact-zero-only guard).
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let tiny: f64 = 1e-320; // subnormal, inside [0, 1]
        assert!(!tiny.is_normal() && tiny > 0.0);
        let probs = [0.5, tiny];
        let got =
            conditional_probability(&mut mc, &Formula::atom("Top"), &Formula::atom("e2"), &probs)
                .unwrap();
        assert_eq!(got, None);
        // A normal denominator still conditions.
        let ok = conditional_probability(
            &mut mc,
            &Formula::atom("Top"),
            &Formula::atom("e2"),
            &[0.5, 1e-9],
        )
        .unwrap();
        assert!((ok.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conditional_interval_division_clamps_to_unit() {
        // P(Top | e2) on or2 with P(e1) ∈ [0.1, 0.9], P(e2) = [0.5, 0.5]:
        // joint = P(Top ∧ e2) = P(e2) = 0.5 exactly, but the
        // correlation-oblivious division pairs joint.hi = 0.5 with
        // base.lo = 0.5 → fine; force an overflow with e2 ∈ [0.1, 0.9]:
        // joint = P(e2) ∈ [0.1, 0.9], base = P(e2) ∈ [0.1, 0.9], so the
        // raw upper bound is 0.9 / 0.1 = 9 and must clamp to 1.
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let ivs = [
            ProbInterval::new(0.2, 0.4).unwrap(),
            ProbInterval::new(0.1, 0.9).unwrap(),
        ];
        let iv = conditional_probability_interval(
            &mut mc,
            &Formula::atom("Top"),
            &Formula::atom("e2"),
            &ivs,
        )
        .unwrap()
        .unwrap();
        // The true conditional is exactly 1 under every annotation
        // choice; the clamped envelope must be well-formed, contain it,
        // and never leave [0, 1].
        assert!(iv.lo <= iv.hi, "inverted envelope {iv}");
        assert!((0.0..=1.0).contains(&iv.lo) && (0.0..=1.0).contains(&iv.hi));
        assert!((iv.hi - 1.0).abs() < 1e-12, "envelope {iv} excludes 1");
        // The raw division helper clamps on both ends.
        let joint = ProbInterval::new(0.1, 0.9).unwrap();
        let base = ProbInterval::new(0.1, 0.9).unwrap();
        let c = interval_conditional(joint, base).unwrap();
        assert!((c.hi - 1.0).abs() < f64::EPSILON && c.lo >= 0.0);
    }

    #[test]
    fn threshold_queries() {
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let probs = [0.1, 0.2];
        // P(Top) = 0.28
        let q = ProbQuery::try_new(Formula::atom("Top"), CmpOp::Le, 0.3).unwrap();
        assert!(q.check(&mut mc, &probs).unwrap());
        let q2 = ProbQuery::try_new(Formula::atom("Top"), CmpOp::Gt, 0.3).unwrap();
        assert!(!q2.check(&mut mc, &probs).unwrap());
        assert_eq!(q.to_string(), "P(Top) <= 0.3");
        // Conversion into the layer-2 AST form.
        let as_query: Query = q.into();
        assert!(matches!(as_query, Query::Prob { given: None, .. }));
    }

    #[test]
    fn bad_bound_is_an_error() {
        for bad in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ProbQuery::try_new(Formula::atom("x"), CmpOp::Ge, bad),
                Err(BflError::InvalidBound { .. })
            ));
        }
    }

    #[test]
    fn equality_tolerance_is_relative_near_one() {
        // A probability equal to 1 up to accumulated roundoff: the old
        // absolute 4·ε window rejects it once the error exceeds ~1e-15;
        // the relative tolerance accepts anything within 1e-9 of 1.
        let p = 1.0 - 3e-12;
        assert!(prob_compare(CmpOp::Eq, p, 1.0));
        assert!(!prob_compare(CmpOp::Eq, 0.9999, 1.0));
        // Inequalities stay exact.
        assert!(prob_compare(CmpOp::Lt, p, 1.0));
        assert!(!prob_compare(CmpOp::Gt, p, 1.0));
    }

    #[test]
    fn birnbaum_matches_ft_layer() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        let n = tree.num_basic_events();
        let probs = vec![0.1; n];
        for name in ["IW", "H1", "VW"] {
            let via_logic = birnbaum(&mut mc, &Formula::atom("IWoS"), name, &probs).unwrap();
            let be = tree.element(name).unwrap();
            let via_ft =
                bfl_fault_tree::prob::birnbaum_importance(&tree, tree.top(), be, &probs).unwrap();
            assert!((via_logic - via_ft).abs() < 1e-12, "{name}");
        }
    }

    #[test]
    fn rank_events_agrees_with_pointwise_measures() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        let n = tree.num_basic_events();
        let probs: Vec<f64> = (0..n).map(|i| 0.05 + (i as f64) * 0.03).collect();
        let phi = Formula::atom("IWoS");
        let p_phi = probability(&mut mc, &phi, &probs).unwrap();
        let rows = rank_events(&mut mc, &phi, &probs).unwrap();
        assert_eq!(rows.len(), n);
        // Sorted by Birnbaum descending.
        for w in rows.windows(2) {
            assert!(w[0].birnbaum >= w[1].birnbaum);
        }
        for row in &rows {
            let bb = birnbaum(&mut mc, &phi, &row.event, &probs).unwrap();
            assert!((row.birnbaum - bb).abs() < 1e-12, "{}", row.event);
            let p_lo = probability(
                &mut mc,
                &phi.clone().with_evidence(&*row.event, false),
                &probs,
            )
            .unwrap();
            let p_hi = probability(
                &mut mc,
                &phi.clone().with_evidence(&*row.event, true),
                &probs,
            )
            .unwrap();
            assert!((row.fussell_vesely - row.probability * p_hi / p_phi).abs() < 1e-12);
            assert!((row.raw - p_hi / p_phi).abs() < 1e-12);
            assert!((row.criticality - bb * row.probability / p_phi).abs() < 1e-12);
            // The Shannon identity behind the criticality ≡
            // risk-contribution-FV coincidence.
            assert!((row.criticality - (p_phi - p_lo) / p_phi).abs() < 1e-9);
            match row.rrw {
                Some(rrw) => assert!((rrw - p_phi / p_lo).abs() < 1e-9),
                None => assert!(p_lo < MIN_CONDITIONING_PROBABILITY),
            }
        }
        // VW is in every cut set of the COVID tree: fixing it removes
        // the risk, so its RRW diverges.
        let vw = rows.iter().find(|r| r.event == "VW").unwrap();
        assert_eq!(vw.rrw, None);
        assert!((vw.fussell_vesely - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interval_probability_brackets_and_degenerates() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        let n = tree.num_basic_events();
        let probs: Vec<f64> = (0..n).map(|i| 0.02 + (i as f64) * 0.05).collect();
        let phi = Formula::atom("IWoS").mcs();
        // Degenerate intervals: bit-identical to the exact walk, even
        // through MCS desugaring.
        let exact = probability(&mut mc, &phi, &probs).unwrap();
        let points: Vec<ProbInterval> = probs
            .iter()
            .map(|&p| ProbInterval { lo: p, hi: p })
            .collect();
        let iv = probability_interval(&mut mc, &phi, &points).unwrap();
        assert_eq!(iv.lo.to_bits(), exact.to_bits());
        assert_eq!(iv.hi.to_bits(), exact.to_bits());
        // Widened intervals bracket the point answer.
        let wide: Vec<ProbInterval> = probs
            .iter()
            .map(|&p| ProbInterval {
                lo: (p - 0.01).max(0.0),
                hi: (p + 0.05).min(1.0),
            })
            .collect();
        let iv = probability_interval(&mut mc, &phi, &wide).unwrap();
        assert!(iv.lo <= exact && exact <= iv.hi, "{exact} outside {iv}");
        // Malformed intervals are structured errors.
        let bad = vec![ProbInterval { lo: 0.9, hi: 0.1 }; n];
        assert!(matches!(
            probability_interval(&mut mc, &phi, &bad),
            Err(BflError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn conditional_interval_division() {
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let ivs = [
            ProbInterval { lo: 0.1, hi: 0.3 },
            ProbInterval { lo: 0.2, hi: 0.2 },
        ];
        // P(Top | e1) = 1 pointwise, but interval division is oblivious
        // to the joint/base correlation: [lo/hi, min(1, hi/lo)].
        let got = conditional_probability_interval(
            &mut mc,
            &Formula::atom("Top"),
            &Formula::atom("e1"),
            &ivs,
        )
        .unwrap()
        .unwrap();
        assert!((got.lo - 0.1 / 0.3).abs() < 1e-12, "lo = {}", got.lo);
        assert_eq!(got.hi, 1.0);
        // Conditioning on the impossible: None, like the exact path.
        let none = conditional_probability_interval(
            &mut mc,
            &Formula::atom("Top"),
            &Formula::atom("e1").and(Formula::atom("e1").not()),
            &ivs,
        )
        .unwrap();
        assert!(none.is_none());
        // A condition whose lower bound vanishes: upper end widens to 1.
        let zero_lo = [
            ProbInterval { lo: 0.0, hi: 0.5 },
            ProbInterval { lo: 0.2, hi: 0.2 },
        ];
        let wide = conditional_probability_interval(
            &mut mc,
            &Formula::atom("e1"),
            &Formula::atom("e1"),
            &zero_lo,
        )
        .unwrap()
        .unwrap();
        assert_eq!(wide.hi, 1.0);
    }

    #[test]
    fn rank_events_of_impossible_formula_is_division_by_zero() {
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("e1").and(Formula::atom("e1").not());
        assert!(matches!(
            rank_events(&mut mc, &phi, &[0.1, 0.2]),
            Err(BflError::DivisionByZero { .. })
        ));
    }

    #[test]
    fn check_query_covers_both_layers() {
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let probs = [0.1, 0.2];
        // P(Top) = 0.28.
        let q = Query::prob(Formula::atom("Top"), CmpOp::Le, 0.3).unwrap();
        assert!(check_query(&mut mc, &q, &probs).unwrap());
        let c =
            Query::prob_given(Formula::atom("Top"), Formula::atom("e1"), CmpOp::Ge, 1.0).unwrap();
        assert!(check_query(&mut mc, &c, &probs).unwrap());
        // Conditioning on the impossible: no bound is satisfied.
        let imp = Query::prob_given(
            Formula::atom("Top"),
            Formula::atom("e1").and(Formula::atom("e1").not()),
            CmpOp::Ge,
            0.0,
        )
        .unwrap();
        assert!(!check_query(&mut mc, &imp, &probs).unwrap());
        // Boolean queries pass through.
        assert!(check_query(&mut mc, &Query::exists(Formula::atom("Top")), &probs).unwrap());
        // Importance is a ranking; it "holds" whenever it is defined.
        assert!(check_query(&mut mc, &Query::importance(Formula::atom("Top")), &probs).unwrap());
    }
}
