//! Qualitative fault-tree analysis: cut sets and path sets
//! (Definitions 3–4) and their minimal variants.
//!
//! [`minimal_cut_sets`], [`minimal_path_sets`] and their count and name
//! variants run the bottom-up ZDD engine ([`zdd_engine`]); path sets are
//! the cut sets of the [`dual_tree`]. The paper's primed-variable BDD
//! construction (the `MCS`/`MPS` case of Algorithm 1) lives here too, in
//! [`mcs_bdd_paper`] and [`mps_bdd_paper`]: it is what the logic's
//! `MCS(ϕ)`/`MPS(ϕ)` compile to, and [`minimal_cut_sets_paper`] /
//! [`minimal_path_sets_paper`] run it on a fresh diagram as the
//! reference the test-suite compares the ZDD engine against, alongside
//! the exhaustive `*_naive` references on small trees.

use bfl_bdd::{Bdd, Var};

use crate::bdd::TreeBdd;
use crate::model::{ElementId, FaultTree};
use crate::order::VariableOrdering;
use crate::status::StatusVector;
use crate::zdd_engine::{self, dual_tree};

impl FaultTree {
    /// Is `b` a cut set for `e` (Definition 3): `Φ_T(b, e) = 1`?
    pub fn is_cut_set(&self, b: &StatusVector, e: ElementId) -> bool {
        self.evaluate(b, e)
    }

    /// Is `b` a path set for `e` (Definition 4): `Φ_T(b, e) = 0`?
    pub fn is_path_set(&self, b: &StatusVector, e: ElementId) -> bool {
        !self.evaluate(b, e)
    }

    /// Is `b` a *minimal* cut set for `e`: a cut set no proper sub-vector
    /// of which is a cut set?
    ///
    /// For the monotone structure functions of fault trees it suffices to
    /// check the vectors obtained by repairing one failed event.
    pub fn is_minimal_cut_set(&self, b: &StatusVector, e: ElementId) -> bool {
        if !self.is_cut_set(b, e) {
            return false;
        }
        b.failed_indices()
            .into_iter()
            .all(|i| !self.is_cut_set(&b.with(i, false), e))
    }

    /// Is `b` a *minimal* path set vector for `e`: a path set such that
    /// failing any further event destroys the path set? (Maximal vector
    /// semantics; the set of *operational* events is minimal.)
    pub fn is_minimal_path_set(&self, b: &StatusVector, e: ElementId) -> bool {
        if !self.is_path_set(b, e) {
            return false;
        }
        (0..b.len())
            .filter(|&i| !b.get(i))
            .all(|i| !self.is_path_set(&b.with(i, true), e))
    }
}

/// Canonicalises a list of index sets: each set ascending, sets ordered by
/// (cardinality, lexicographic).
fn canonicalise(mut sets: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for s in &mut sets {
        s.sort_unstable();
    }
    sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    sets.dedup();
    sets
}

/// Renders index sets as sorted name lists in the canonical order (each
/// set's names ascending; sets by cardinality, then lexicographically) —
/// the presentation shared with the session layer.
pub fn index_sets_to_names(tree: &FaultTree, sets: &[Vec<usize>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = sets
        .iter()
        .map(|s| {
            let mut names: Vec<String> = s
                .iter()
                .map(|&i| tree.name(tree.basic_events()[i]).to_string())
                .collect();
            names.sort();
            names
        })
        .collect();
    out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    out
}

/// Minimal cut sets of element `e`, as sets of basic-event indices
/// (canonically ordered), by the ZDD engine.
///
/// # Example
///
/// ```
/// use bfl_fault_tree::{corpus, analysis};
/// let tree = corpus::fig1();
/// let mcs = analysis::minimal_cut_sets_names(&tree, tree.top());
/// assert_eq!(mcs.len(), 2); // {IW,H3} and {IT,H2}
/// ```
pub fn minimal_cut_sets(tree: &FaultTree, e: ElementId) -> Vec<Vec<usize>> {
    canonicalise(zdd_engine::cut_set_families(tree, e).sets(tree, e))
}

/// Minimal cut sets as sorted name lists.
pub fn minimal_cut_sets_names(tree: &FaultTree, e: ElementId) -> Vec<Vec<String>> {
    index_sets_to_names(tree, &minimal_cut_sets(tree, e))
}

/// Minimal path sets of element `e`, as sets of basic-event indices of the
/// *operational* events (canonically ordered): the minimal cut sets of
/// `e` in the [`dual_tree`], which keeps ids and basic indices.
///
/// # Example
///
/// ```
/// use bfl_fault_tree::{corpus, analysis};
/// let tree = corpus::fig1();
/// let mps = analysis::minimal_path_sets_names(&tree, tree.top());
/// assert_eq!(mps.len(), 4); // {IW,IT} {IW,H2} {H3,IT} {H3,H2}
/// ```
pub fn minimal_path_sets(tree: &FaultTree, e: ElementId) -> Vec<Vec<usize>> {
    minimal_cut_sets(&dual_tree(tree), e)
}

/// Minimal path sets as sorted name lists.
pub fn minimal_path_sets_names(tree: &FaultTree, e: ElementId) -> Vec<Vec<String>> {
    index_sets_to_names(tree, &minimal_path_sets(tree, e))
}

/// Reads off the satisfying vectors of a minimal-solutions BDD as sets of
/// basic-event indices (positions of ones).
fn extract_one_sets(tree: &FaultTree, tb: &TreeBdd, ms: Bdd) -> Vec<Vec<usize>> {
    let universe = tb.unprimed_vars();
    let mut sets = Vec::new();
    for vector in tb.manager().sat_vectors(ms, &universe) {
        let sv = tb.vector_from_positions(tree, &vector);
        sets.push(sv.failed_indices());
    }
    canonicalise(sets)
}

/// The paper's primed-variable construction of the minimal cut sets
/// (`MCS` case of Algorithm 1), minimal over the `(unprimed, primed)`
/// variable `pairs`:
///
/// `B_mcs = B ∧ ¬∃V′. (V′ ⊂ V ∧ B[V ↷ V′])`.
///
/// [`TreeBdd::var_pairs`] gives the paper's formal semantics (minimality
/// over every basic event); the pairs of the support of `f` alone leave
/// the other events unconstrained (the Table-I reading). Returns the BDD
/// over unprimed variables whose satisfying vectors are the MCS vectors.
pub fn mcs_bdd_paper(tb: &mut TreeBdd, f: Bdd, pairs: &[(Var, Var)]) -> Bdd {
    let subset = tb.manager_mut().strict_subset(pairs);
    primed_minimality(tb, f, subset, pairs)
}

/// The dual construction for minimal path sets (maximal vectors satisfying
/// `¬f`; see `DESIGN.md` §4), maximal over the variable `pairs`:
///
/// `B_mps = ¬B ∧ ¬∃V′. (V′ ⊃ V ∧ ¬B[V ↷ V′])`.
pub fn mps_bdd_paper(tb: &mut TreeBdd, f: Bdd, pairs: &[(Var, Var)]) -> Bdd {
    let superset = tb.manager_mut().strict_superset(pairs);
    let nf = tb.manager_mut().not(f);
    primed_minimality(tb, nf, superset, pairs)
}

/// `base ∧ ¬∃V′. (relation(V, V′) ∧ base[V ↷ V′])`, quantifying the
/// primed halves of `pairs`: the vectors of `base` that no other vector
/// of `base` precedes under `relation`.
fn primed_minimality(tb: &mut TreeBdd, base: Bdd, relation: Bdd, pairs: &[(Var, Var)]) -> Bdd {
    let primed: Vec<Var> = pairs.iter().map(|&(_, p)| p).collect();
    let prime = tb.prime_map();
    let m = tb.manager_mut();
    let renamed = m.rename(base, &prime);
    let exists_other = m.and_exists(relation, renamed, &primed);
    let not_other = m.not(exists_other);
    m.and(base, not_other)
}

/// Paper-construction minimal cut sets over the global universe, on a
/// fresh diagram: the reference the ZDD engine is checked against.
pub fn minimal_cut_sets_paper(tree: &FaultTree, e: ElementId) -> Vec<Vec<usize>> {
    let mut tb = TreeBdd::new(tree, VariableOrdering::DfsPreorder);
    let f = tb.element_bdd(tree, e);
    let pairs = tb.var_pairs();
    let ms = mcs_bdd_paper(&mut tb, f, &pairs);
    extract_one_sets(tree, &tb, ms)
}

/// Paper-construction minimal path sets: satisfying vectors are *maximal*;
/// the returned sets contain the indices of the **operational** events.
pub fn minimal_path_sets_paper(tree: &FaultTree, e: ElementId) -> Vec<Vec<usize>> {
    let mut tb = TreeBdd::new(tree, VariableOrdering::DfsPreorder);
    let f = tb.element_bdd(tree, e);
    let pairs = tb.var_pairs();
    let ms = mps_bdd_paper(&mut tb, f, &pairs);
    let universe = tb.unprimed_vars();
    let mut sets = Vec::new();
    for vector in tb.manager().sat_vectors(ms, &universe) {
        let sv = tb.vector_from_positions(tree, &vector);
        // Operational events = zeros of the maximal vector.
        sets.push((0..sv.len()).filter(|&i| !sv.get(i)).collect());
    }
    canonicalise(sets)
}

/// Number of minimal cut sets of `e`, by counting the ZDD family — no
/// enumeration, so it stays cheap even when the number of cut sets is
/// astronomically large (e.g. deep alternating AND/OR trees). `None`
/// when the count exceeds `u128::MAX`.
///
/// # Example
///
/// ```
/// use bfl_fault_tree::{corpus, analysis};
/// let tree = corpus::covid();
/// assert_eq!(analysis::count_minimal_cut_sets(&tree, tree.top()), Some(12));
/// ```
pub fn count_minimal_cut_sets(tree: &FaultTree, e: ElementId) -> Option<u128> {
    zdd_engine::cut_set_families(tree, e).count(e)
}

/// Number of minimal path sets of `e` (see [`count_minimal_cut_sets`]).
pub fn count_minimal_path_sets(tree: &FaultTree, e: ElementId) -> Option<u128> {
    count_minimal_cut_sets(&dual_tree(tree), e)
}

/// [`minimal_cut_sets`] of `e` if there are at most `limit` of them;
/// otherwise `Err` with their number (`None` past `u128::MAX`). The ZDD
/// family is built once and counted before any set is listed, so a
/// family too large to hold in memory is refused, not enumerated.
pub fn minimal_cut_sets_within(
    tree: &FaultTree,
    e: ElementId,
    limit: u128,
) -> Result<Vec<Vec<usize>>, Option<u128>> {
    let families = zdd_engine::cut_set_families(tree, e);
    match families.count(e) {
        Some(n) if n <= limit => Ok(canonicalise(families.sets(tree, e))),
        count => Err(count),
    }
}

/// [`minimal_path_sets`] of `e` within `limit`, as
/// [`minimal_cut_sets_within`].
pub fn minimal_path_sets_within(
    tree: &FaultTree,
    e: ElementId,
    limit: u128,
) -> Result<Vec<Vec<usize>>, Option<u128>> {
    minimal_cut_sets_within(&dual_tree(tree), e, limit)
}

/// Exhaustive reference implementation of minimal cut sets (all `2^n`
/// vectors); used by the test-suite as ground truth.
///
/// # Panics
///
/// Panics if the tree has more than 20 basic events.
pub fn minimal_cut_sets_naive(tree: &FaultTree, e: ElementId) -> Vec<Vec<usize>> {
    assert!(
        tree.num_basic_events() <= 20,
        "naive engine limited to 20 events"
    );
    let mut sets = Vec::new();
    for b in StatusVector::enumerate_all(tree.num_basic_events()) {
        if tree.is_minimal_cut_set(&b, e) {
            sets.push(b.failed_indices());
        }
    }
    canonicalise(sets)
}

/// Exhaustive reference implementation of minimal path sets (sets of
/// operational events).
///
/// # Panics
///
/// Panics if the tree has more than 20 basic events.
pub fn minimal_path_sets_naive(tree: &FaultTree, e: ElementId) -> Vec<Vec<usize>> {
    assert!(
        tree.num_basic_events() <= 20,
        "naive engine limited to 20 events"
    );
    let mut sets = Vec::new();
    for b in StatusVector::enumerate_all(tree.num_basic_events()) {
        if tree.is_minimal_path_set(&b, e) {
            sets.push((0..b.len()).filter(|&i| !b.get(i)).collect());
        }
    }
    canonicalise(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::model::GateType;

    #[test]
    fn fig1_minimal_cut_sets() {
        let tree = corpus::fig1();
        let mcs = minimal_cut_sets_names(&tree, tree.top());
        assert_eq!(
            mcs,
            vec![
                vec!["H2".to_string(), "IT".to_string()],
                vec!["H3".to_string(), "IW".to_string()],
            ]
        );
    }

    #[test]
    fn fig1_minimal_path_sets() {
        let tree = corpus::fig1();
        let mps = minimal_path_sets_names(&tree, tree.top());
        assert_eq!(
            mps,
            vec![
                vec!["H2".to_string(), "H3".to_string()],
                vec!["H2".to_string(), "IW".to_string()],
                vec!["H3".to_string(), "IT".to_string()],
                vec!["IT".to_string(), "IW".to_string()],
            ]
        );
    }

    #[test]
    fn engines_agree_on_fig1() {
        let tree = corpus::fig1();
        assert_eq!(
            minimal_cut_sets(&tree, tree.top()),
            minimal_cut_sets_paper(&tree, tree.top())
        );
        assert_eq!(
            minimal_cut_sets(&tree, tree.top()),
            minimal_cut_sets_naive(&tree, tree.top())
        );
        assert_eq!(
            minimal_path_sets(&tree, tree.top()),
            minimal_path_sets_paper(&tree, tree.top())
        );
        assert_eq!(
            minimal_path_sets(&tree, tree.top()),
            minimal_path_sets_naive(&tree, tree.top())
        );
    }

    #[test]
    fn engines_agree_on_covid() {
        let tree = corpus::covid();
        for &e in &[
            tree.top(),
            tree.element("MoT").unwrap(),
            tree.element("CT").unwrap(),
        ] {
            assert_eq!(minimal_cut_sets(&tree, e), minimal_cut_sets_paper(&tree, e));
            assert_eq!(
                minimal_path_sets(&tree, e),
                minimal_path_sets_paper(&tree, e)
            );
            assert_eq!(minimal_cut_sets(&tree, e), minimal_cut_sets_naive(&tree, e));
            assert_eq!(
                minimal_path_sets(&tree, e),
                minimal_path_sets_naive(&tree, e)
            );
        }
    }

    #[test]
    fn mcs_vectors_are_minimal_cut_sets() {
        let tree = corpus::covid();
        for set in minimal_cut_sets(&tree, tree.top()) {
            let mut b = StatusVector::all_operational(tree.num_basic_events());
            for i in set {
                b.set(i, true);
            }
            assert!(tree.is_minimal_cut_set(&b, tree.top()), "{b}");
        }
    }

    #[test]
    fn mps_sets_are_minimal_path_sets() {
        let tree = corpus::covid();
        for set in minimal_path_sets(&tree, tree.top()) {
            // Vector: everything failed except the path set.
            let mut b = StatusVector::all_failed(tree.num_basic_events());
            for i in set {
                b.set(i, false);
            }
            assert!(tree.is_minimal_path_set(&b, tree.top()), "{b}");
        }
    }

    #[test]
    fn counts_match_enumeration() {
        for tree in [corpus::fig1(), corpus::covid(), corpus::table1_tree()] {
            assert_eq!(
                count_minimal_cut_sets(&tree, tree.top()),
                Some(minimal_cut_sets(&tree, tree.top()).len() as u128)
            );
            assert_eq!(
                count_minimal_path_sets(&tree, tree.top()),
                Some(minimal_path_sets(&tree, tree.top()).len() as u128)
            );
        }
    }

    #[test]
    fn counting_scales_where_enumeration_cannot() {
        // Depth-10 alternating AND/OR chain: ~10^9 minimal cut sets.
        let tree = corpus::chain(10);
        let count = count_minimal_cut_sets(&tree, tree.top()).unwrap();
        assert!(count > 1_000_000_000, "{count}");
    }

    #[test]
    fn counts_past_u128_are_none() {
        // An AND of 130 two-event ORs: one event from each OR, 2^130
        // minimal cut sets. Its dual, an OR of 130 two-event ANDs, has
        // just as many minimal path sets.
        let mut b = crate::builder::FaultTreeBuilder::new();
        let mut ors = Vec::new();
        for i in 0..130 {
            let (l, r, g) = (format!("l{i}"), format!("r{i}"), format!("or{i}"));
            b.basic_events([l.as_str(), r.as_str()]).unwrap();
            b.gate(&g, GateType::Or, [l.as_str(), r.as_str()]).unwrap();
            ors.push(g);
        }
        b.gate("top", GateType::And, ors.iter().map(String::as_str))
            .unwrap();
        let tree = b.build("top").unwrap();
        assert_eq!(count_minimal_cut_sets(&tree, tree.top()), None);
        assert_eq!(count_minimal_path_sets(&tree, tree.top()), Some(130));
        let dual = dual_tree(&tree);
        assert_eq!(count_minimal_path_sets(&dual, dual.top()), None);
        assert_eq!(
            minimal_cut_sets_within(&tree, tree.top(), u128::MAX),
            Err(None)
        );
        assert_eq!(
            minimal_path_sets_within(&tree, tree.top(), 130).map(|sets| sets.len()),
            Ok(130)
        );
    }

    #[test]
    fn listing_within_a_limit_counts_first() {
        let tree = corpus::covid();
        let top = tree.top();
        let (cuts, paths) = (minimal_cut_sets(&tree, top), minimal_path_sets(&tree, top));
        assert_eq!(minimal_cut_sets_within(&tree, top, 12), Ok(cuts));
        assert_eq!(minimal_cut_sets_within(&tree, top, 11), Err(Some(12)));
        let n = paths.len() as u128;
        assert_eq!(minimal_path_sets_within(&tree, top, n), Ok(paths));
        assert_eq!(minimal_path_sets_within(&tree, top, n - 1), Err(Some(n)));
        let chain = corpus::chain(10);
        assert_eq!(
            minimal_cut_sets_within(&chain, chain.top(), 1_000_000),
            Err(count_minimal_cut_sets(&chain, chain.top()))
        );
    }
}
