//! Counterexample generation — Algorithm 4 and Definition 7 of Section VI.
//!
//! Given `b, T ⊭ χ`, a *counterexample* is a vector `b′` with `b′, T ⊨ χ`
//! such that every bit where `b′` differs from `b` is necessary: flipping
//! it back (keeping the rest of `b′`) falsifies `χ` again.
//!
//! Algorithm 4 computes such a `b′` by walking the BDD of `χ` along `b`
//! and revising a decision whenever it leads into the `0` terminal. The
//! revised decisions are exactly the changed bits, and since the original
//! branch pointed *directly* at the `0` terminal, each changed bit is
//! individually necessary — giving Definition 7 by construction.

use bfl_fault_tree::StatusVector;

use crate::ast::Formula;
use crate::checker::ModelChecker;
use crate::error::BflError;

/// Result of a counterexample query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Counterexample {
    /// `B_T(χ)` is unsatisfiable — no vector satisfies the formula, so no
    /// counterexample exists (Algorithm 4's early return when
    /// `1 ∉ W_t`).
    Unsatisfiable,
    /// The given vector already satisfies `χ`; Algorithm 4 presupposes
    /// `b, T ⊭ χ`.
    AlreadySatisfies,
    /// A revised vector `b′` with `b′, T ⊨ χ`, minimal per Definition 7.
    Found(StatusVector),
}

impl Counterexample {
    /// The revised vector, if one was produced.
    pub fn vector(&self) -> Option<&StatusVector> {
        match self {
            Counterexample::Found(v) => Some(v),
            _ => None,
        }
    }
}

/// **Algorithm 4**: computes a counterexample for `b, T ⊭ χ`.
///
/// # Errors
///
/// As for [`ModelChecker::formula_bdd`].
///
/// # Panics
///
/// Panics if `b` does not cover the tree's basic events.
///
/// # Example
///
/// ```
/// use bfl_core::{counterexample, Counterexample, Formula, ModelChecker};
/// use bfl_fault_tree::{corpus, StatusVector};
///
/// # fn main() -> Result<(), bfl_core::BflError> {
/// let tree = corpus::table1_tree();
/// let mut mc = ModelChecker::new(&tree);
/// // Pattern 1 of Table I: b = (0,1,0) is not an MCS for e1 …
/// let phi = Formula::atom("e1").mcs();
/// let b = StatusVector::from_bits([false, true, false]);
/// // … and the revised vector (1,1,0) is.
/// let cex = counterexample(&mut mc, &b, &phi)?;
/// assert_eq!(
///     cex,
///     Counterexample::Found(StatusVector::from_bits([true, true, false]))
/// );
/// # Ok(())
/// # }
/// ```
pub fn counterexample(
    mc: &mut ModelChecker,
    b: &StatusVector,
    phi: &Formula,
) -> Result<Counterexample, BflError> {
    assert_eq!(
        b.len(),
        mc.tree().num_basic_events(),
        "vector length mismatch"
    );
    let f = mc.formula_bdd(phi)?;
    if f.is_false() {
        return Ok(Counterexample::Unsatisfiable);
    }
    if mc.holds(b, phi)? {
        return Ok(Counterexample::AlreadySatisfies);
    }
    let mut revised = b.clone();
    let positions = mc.basic_of_position().to_vec();
    let tb = mc.tree_bdd_mut();
    let manager = tb.manager();
    let mut cur = f;
    while !cur.is_terminal() {
        let node = manager.node(cur);
        debug_assert_eq!(node.var.index() % 2, 0, "primed variable in query BDD");
        let bi = positions[(node.var.index() / 2) as usize];
        let bit = b.get(bi);
        let preferred = if bit { node.high } else { node.low };
        if preferred.is_false() {
            // Revise the decision: take the other branch and record the
            // flipped bit (the flipped branch cannot also be ⊥ in a
            // reduced diagram).
            revised.set(bi, !bit);
            cur = if bit { node.low } else { node.high };
        } else {
            revised.set(bi, bit);
            cur = preferred;
        }
    }
    debug_assert!(cur.is_true(), "walk cannot end in the 0 terminal");
    Ok(Counterexample::Found(revised))
}

/// Checks Definition 7: `b′ ⊨ χ`, and for every differing bit, flipping it
/// back falsifies `χ`.
///
/// # Errors
///
/// As for [`ModelChecker::formula_bdd`].
pub fn is_valid_counterexample(
    mc: &mut ModelChecker,
    b: &StatusVector,
    revised: &StatusVector,
    phi: &Formula,
) -> Result<bool, BflError> {
    if !mc.holds(revised, phi)? {
        return Ok(false);
    }
    for i in 0..b.len() {
        if revised.get(i) != b.get(i) {
            let reverted = revised.with(i, b.get(i));
            if mc.holds(&reverted, phi)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Enumerates **all** Definition-7-valid counterexamples for `b, T ⊭ χ`:
/// every satisfying vector whose differing bits are each individually
/// necessary. Algorithm 4 returns one member of this set; patterns 1–4 of
/// Table I illustrate that several can exist.
///
/// Exponential in the satisfaction set; intended for analysis of small
/// formulas and for tests.
///
/// # Errors
///
/// As for [`ModelChecker::satisfying_vectors`].
pub fn all_counterexamples(
    mc: &mut ModelChecker,
    b: &StatusVector,
    phi: &Formula,
) -> Result<Vec<StatusVector>, BflError> {
    if mc.holds(b, phi)? {
        return Ok(Vec::new());
    }
    let sats = mc.satisfying_vectors(phi)?;
    let mut out = Vec::new();
    for v in sats {
        if is_valid_counterexample(mc, b, &v, phi)? {
            out.push(v);
        }
    }
    Ok(out)
}

/// A bounded enumeration of Definition-7-valid counterexamples, with the
/// exact total so truncation is *reported*, never silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterexampleSet {
    /// Up to the requested limit of valid counterexamples, in
    /// satisfaction-set order.
    pub witnesses: Vec<StatusVector>,
    /// The exact number of valid counterexamples that exist.
    pub total: usize,
    /// Whether `witnesses` was capped below `total`.
    pub truncated: bool,
}

/// Bounded twin of [`all_counterexamples`]: up to `limit`
/// Definition-7-valid counterexamples for `b, T ⊭ χ`, plus the exact
/// total — the caller can always tell a complete enumeration from a
/// truncated one. [`AnalysisSession::all_counterexamples`] calls this
/// with the session's witness limit.
///
/// [`AnalysisSession::all_counterexamples`]:
///     crate::engine::AnalysisSession::all_counterexamples
///
/// # Errors
///
/// As for [`ModelChecker::satisfying_vectors`].
pub fn some_counterexamples(
    mc: &mut ModelChecker,
    b: &StatusVector,
    phi: &Formula,
    limit: usize,
) -> Result<CounterexampleSet, BflError> {
    let all = all_counterexamples(mc, b, phi)?;
    let total = all.len();
    let mut witnesses = all;
    witnesses.truncate(limit);
    Ok(CounterexampleSet {
        truncated: total > witnesses.len(),
        total,
        witnesses,
    })
}

/// Exhaustive baseline: all satisfying vectors at minimal Hamming distance
/// from `b`. Exponential; used by tests to contextualise Algorithm 4
/// (which minimises per-bit necessity, not distance).
///
/// # Errors
///
/// As for [`ModelChecker::satisfying_vectors`].
pub fn nearest_witnesses(
    mc: &mut ModelChecker,
    b: &StatusVector,
    phi: &Formula,
) -> Result<Vec<StatusVector>, BflError> {
    let sats = mc.satisfying_vectors(phi)?;
    let distance =
        |x: &StatusVector| -> usize { (0..b.len()).filter(|&i| x.get(i) != b.get(i)).count() };
    let best = sats.iter().map(distance).min();
    Ok(match best {
        None => Vec::new(),
        Some(d) => sats.into_iter().filter(|x| distance(x) == d).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_fault_tree::corpus;

    /// Runs Algorithm 4 and asserts Definition 7 validity.
    fn check(tree: &bfl_fault_tree::FaultTree, bits: &[bool], phi: &Formula) -> StatusVector {
        let mut mc = ModelChecker::new(tree);
        let b = StatusVector::from_bits(bits.iter().copied());
        let cex = counterexample(&mut mc, &b, phi).unwrap();
        let v = cex.vector().expect("counterexample found").clone();
        assert!(is_valid_counterexample(&mut mc, &b, &v, phi).unwrap());
        v
    }

    #[test]
    fn table1_pattern1_first_row() {
        // MCS(e1), b = (0,1,0) → b′ = (1,1,0).
        let tree = corpus::table1_tree();
        let v = check(&tree, &[false, true, false], &Formula::atom("e1").mcs());
        assert_eq!(v, StatusVector::from_bits([true, true, false]));
    }

    #[test]
    fn table1_pattern1_second_row_is_valid() {
        // MCS(e1), b = (1,1,1): the paper shows (1,0,1); our walk revises
        // the later variable and produces (1,1,0) — also valid per Def. 7
        // (counterexamples are not unique).
        let tree = corpus::table1_tree();
        let v = check(&tree, &[true, true, true], &Formula::atom("e1").mcs());
        assert!(
            v == StatusVector::from_bits([true, true, false])
                || v == StatusVector::from_bits([true, false, true])
        );
    }

    #[test]
    fn table1_pattern2_rows() {
        let tree = corpus::table1_tree();
        // MPS(e1), b = (1,0,1) → b′ = (1,0,0).
        let v = check(&tree, &[true, false, true], &Formula::atom("e1").mps());
        assert_eq!(v, StatusVector::from_bits([true, false, false]));
        // MPS(e1), b = (0,0,0) → b′ = (0,1,1).
        let v2 = check(&tree, &[false, false, false], &Formula::atom("e1").mps());
        assert_eq!(v2, StatusVector::from_bits([false, true, true]));
    }

    #[test]
    fn table1_pattern4() {
        // MPS(e1) ∧ MPS(e3), b = (1,0,1) → b′ = (1,0,0).
        let tree = corpus::table1_tree();
        let phi = Formula::atom("e1").mps().and(Formula::atom("e3").mps());
        let v = check(&tree, &[true, false, true], &phi);
        assert_eq!(v, StatusVector::from_bits([true, false, false]));
    }

    #[test]
    fn unsatisfiable_formula() {
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("e1").and(Formula::atom("e1").not());
        let b = StatusVector::from_bits([false, false]);
        assert_eq!(
            counterexample(&mut mc, &b, &phi).unwrap(),
            Counterexample::Unsatisfiable
        );
    }

    #[test]
    fn already_satisfying_vector() {
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("Top");
        let b = StatusVector::from_bits([true, false]);
        assert_eq!(
            counterexample(&mut mc, &b, &phi).unwrap(),
            Counterexample::AlreadySatisfies
        );
    }

    #[test]
    fn sec6_example_iw_h3_it() {
        // Section VI overview: {IW, H3, IT} is not an MCS for CP/R; a
        // suitable counterexample is the MCS {IW, H3} contained in it.
        let tree = corpus::fig1();
        let mut mc = ModelChecker::new(&tree);
        let b = StatusVector::from_failed_names(&tree, &["IW", "H3", "IT"]);
        let phi = Formula::atom("CP/R").mcs();
        let cex = counterexample(&mut mc, &b, &phi).unwrap();
        let v = cex.vector().unwrap().clone();
        assert!(is_valid_counterexample(&mut mc, &b, &v, &phi).unwrap());
        let mut names = v.failed_names(&tree);
        names.sort();
        assert_eq!(names, vec!["H3", "IW"]);
    }

    #[test]
    fn all_counterexamples_for_table1_row2() {
        // b = (1,1,1) against MCS(e1): both MCS vectors are valid
        // counterexamples — the paper's (1,0,1) and our walk's (1,1,0).
        let tree = corpus::table1_tree();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("e1").mcs();
        let b = StatusVector::from_bits([true, true, true]);
        let all = all_counterexamples(&mut mc, &b, &phi).unwrap();
        assert_eq!(
            all,
            vec![
                StatusVector::from_bits([true, true, false]),
                StatusVector::from_bits([true, false, true]),
            ]
        );
        // Algorithm 4's answer is a member of the set.
        let ours = counterexample(&mut mc, &b, &phi).unwrap();
        assert!(all.contains(ours.vector().unwrap()));
    }

    #[test]
    fn all_counterexamples_empty_when_vector_satisfies() {
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let b = StatusVector::from_bits([true, false]);
        let all = all_counterexamples(&mut mc, &b, &Formula::atom("Top")).unwrap();
        assert!(all.is_empty());
    }

    #[test]
    fn nearest_witnesses_on_or_gate() {
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("Top").mcs();
        let b = StatusVector::from_bits([true, true]);
        let nearest = nearest_witnesses(&mut mc, &b, &phi).unwrap();
        // Both MCS vectors are at Hamming distance 1.
        assert_eq!(nearest.len(), 2);
    }

    #[test]
    fn counterexamples_are_def7_valid_for_many_vectors() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("IWoS").mcs();
        for seed in 0..64u64 {
            let bits: Vec<bool> = (0..tree.num_basic_events())
                .map(|i| (seed >> (i % 6)) & 1 == 1)
                .collect();
            let b = StatusVector::from_bits(bits);
            match counterexample(&mut mc, &b, &phi).unwrap() {
                Counterexample::Found(v) => {
                    assert!(
                        is_valid_counterexample(&mut mc, &b, &v, &phi).unwrap(),
                        "{b}"
                    );
                }
                Counterexample::AlreadySatisfies => {}
                Counterexample::Unsatisfiable => panic!("MCS(IWoS) is satisfiable"),
            }
        }
    }
}
