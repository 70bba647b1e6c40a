//! The BDD-based model checker: Algorithms 1, 2 and 3 of Section V.
//!
//! * **Algorithm 1** ([`ModelChecker::formula_bdd`]): compile a formula to
//!   a BDD, caching the translation of every sub-formula and fault-tree
//!   element so repeated queries share work ("dynamic programming
//!   standards" in the paper's words).
//! * **Algorithm 2** ([`ModelChecker::holds`]): check `b, T ⊨ χ` by
//!   walking the BDD along the truth assignments of `b`.
//! * **Algorithm 3** ([`ModelChecker::satisfying_vectors`]): compute the
//!   satisfaction set `⟦χ⟧` by collecting all paths to the `1` terminal.
//! * Layer-2 queries `∃ϕ`, `∀ϕ`, `IDP`, `SUP`
//!   ([`ModelChecker::check_query`]): quantification reduces to comparing
//!   the BDD with the terminals; `IDP` compares BDD supports, which on
//!   *reduced* diagrams coincide exactly with the influencing basic events.

use std::collections::HashMap;
use std::sync::Arc;

use bfl_bdd::{Bdd, Manager, Var, Watermark};
use bfl_fault_tree::analysis::{mcs_bdd_paper, mps_bdd_paper};
use bfl_fault_tree::bdd::{vot_threshold, TreeBdd};
use bfl_fault_tree::{FaultTree, StatusVector, VariableOrdering};

use crate::ast::{CmpOp, Formula, Query};
use crate::error::BflError;

/// The most minimal cut or path sets one listing returns
/// ([`ModelChecker::minimal_cut_sets`],
/// [`AnalysisSession::minimal_cut_sets`](crate::AnalysisSession::minimal_cut_sets)
/// and their path-set twins), and the most satisfying vectors
/// [`ModelChecker::satisfying_vectors`] returns. A larger family is
/// refused with [`BflError::TooManySets`] or
/// [`BflError::TooManyVectors`] after counting it, which is cheap where
/// listing it would exhaust memory: `industrial-400`'s `top` has
/// ~10^20 minimal path sets.
pub const MAX_LISTED_SETS: u128 = 1_000_000;

/// Which variables the `MCS`/`MPS` minimality quantifier ranges over.
///
/// The paper's *formal* semantics (Section III-B) compares whole status
/// vectors, i.e. minimality over the **global universe** of basic events:
/// a vector satisfying `MCS(ϕ)` has every `ϕ`-irrelevant event
/// operational. Its Table I *examples*, however, treat events outside the
/// cone of `ϕ` as unconstrained (pattern 3 is unsatisfiable otherwise —
/// see `DESIGN.md` §4). Both readings are offered; the formal one is the
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MinimalityScope {
    /// Minimality over all basic events of the tree (formal semantics).
    #[default]
    GlobalUniverse,
    /// Minimality only over the influencing events of the operand formula;
    /// other events are don't-cares (Table I reading).
    FormulaSupport,
}

/// The BFL model checker for one fault tree.
///
/// Holds the BDD manager, the `Ψ_FT` element translations and a
/// per-formula translation cache, so a sequence of queries against the
/// same tree reuses all intermediate BDDs.
///
/// # Example
///
/// ```
/// use bfl_core::{Formula, Query, ModelChecker};
/// use bfl_fault_tree::corpus;
///
/// # fn main() -> Result<(), bfl_core::BflError> {
/// let tree = corpus::fig1();
/// let mut mc = ModelChecker::new(&tree);
/// // Example 1 of the paper: ∀(CP ⇒ CP/R) holds.
/// let q = Query::forall(Formula::atom("CP").implies(Formula::atom("CP/R")));
/// assert!(mc.check_query(&q)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelChecker {
    tree: Arc<FaultTree>,
    tb: TreeBdd,
    cache: HashMap<(Formula, MinimalityScope), Bdd>,
    scope: MinimalityScope,
    /// Formula-translation cache hits/misses since the last reset, over
    /// every recursive `formula_bdd` step.
    cache_hits: u64,
    cache_misses: u64,
}

impl ModelChecker {
    /// Creates a checker with the default DFS variable ordering and the
    /// formal (global-universe) minimality scope.
    ///
    /// The checker *owns* its tree (it clones `tree` into an
    /// [`Arc`]); use [`ModelChecker::from_arc`] to share an existing
    /// allocation.
    pub fn new(tree: &FaultTree) -> Self {
        Self::with_ordering(tree, VariableOrdering::DfsPreorder)
    }

    /// Creates a checker with an explicit variable ordering.
    pub fn with_ordering(tree: &FaultTree, ordering: VariableOrdering) -> Self {
        Self::from_arc(Arc::new(tree.clone()), ordering)
    }

    /// Creates a checker sharing ownership of an existing tree.
    pub fn from_arc(tree: Arc<FaultTree>, ordering: VariableOrdering) -> Self {
        let tb = TreeBdd::new(&tree, ordering);
        ModelChecker {
            tree,
            tb,
            cache: HashMap::new(),
            scope: MinimalityScope::default(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Selects the minimality scope used by `MCS`/`MPS` (see
    /// [`MinimalityScope`]).
    pub fn set_minimality_scope(&mut self, scope: MinimalityScope) {
        self.scope = scope;
    }

    /// The current minimality scope.
    pub fn minimality_scope(&self) -> MinimalityScope {
        self.scope
    }

    /// The fault tree under analysis.
    pub fn tree(&self) -> &FaultTree {
        &self.tree
    }

    /// Shared handle to the fault tree under analysis.
    pub fn tree_arc(&self) -> Arc<FaultTree> {
        Arc::clone(&self.tree)
    }

    /// Translation-cache hits since construction or the last
    /// [`ModelChecker::reset_cache_stats`], counted over every recursive
    /// step of Algorithm 1.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Translation-cache misses (sub-formulae compiled for the first
    /// time); the cache holds exactly this many entries per scope.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Zeroes the hit/miss counters (the cache itself is kept).
    pub fn reset_cache_stats(&mut self) {
        self.cache_hits = 0;
        self.cache_misses = 0;
    }

    /// The underlying BDD manager (for statistics and rendering).
    pub fn manager(&self) -> &Manager {
        self.tb.manager()
    }

    /// Rolls the arena back to `mark` (see [`Manager::rollback`]) and
    /// returns how many nodes it dropped. The translation caches must
    /// hold no handle past the mark, which holds as long as nothing
    /// between the mark and the rollback compiles a formula.
    pub(crate) fn rollback(&mut self, mark: Watermark) -> usize {
        debug_assert!(
            self.cache
                .values()
                .chain(&self.tb.roots())
                .all(|b| (b.id() as usize) < mark.arena_size()),
            "a translation cache holds a handle past the watermark"
        );
        self.tb.manager_mut().rollback(mark)
    }

    /// Number of nodes of the diagram for `f`.
    pub fn bdd_size(&self, f: Bdd) -> usize {
        self.tb.manager().node_count(f)
    }

    fn resolve(&self, name: &str) -> Result<bfl_fault_tree::ElementId, BflError> {
        self.tree
            .element(name)
            .ok_or_else(|| BflError::UnknownElement(name.to_string()))
    }

    /// **Algorithm 1**: computes `B_T(χ)` for a layer-1 formula, caching
    /// intermediate results.
    ///
    /// # Errors
    ///
    /// [`BflError::UnknownElement`] and [`BflError::EvidenceOnGate`] as in
    /// the reference evaluator.
    pub fn formula_bdd(&mut self, phi: &Formula) -> Result<Bdd, BflError> {
        let key = (phi.clone(), self.scope);
        if let Some(&b) = self.cache.get(&key) {
            self.cache_hits += 1;
            return Ok(b);
        }
        self.cache_misses += 1;
        let result = match phi {
            Formula::Const(c) => self.tb.manager().constant(*c),
            Formula::Atom(name) => {
                let e = self.resolve(name)?;
                self.tb.element_bdd(&self.tree, e)
            }
            Formula::Not(a) => {
                let x = self.formula_bdd(a)?;
                self.tb.manager_mut().not(x)
            }
            Formula::And(a, b) => {
                let x = self.formula_bdd(a)?;
                let y = self.formula_bdd(b)?;
                self.tb.manager_mut().and(x, y)
            }
            Formula::Or(a, b) => {
                let x = self.formula_bdd(a)?;
                let y = self.formula_bdd(b)?;
                self.tb.manager_mut().or(x, y)
            }
            Formula::Implies(a, b) => {
                let x = self.formula_bdd(a)?;
                let y = self.formula_bdd(b)?;
                self.tb.manager_mut().implies(x, y)
            }
            Formula::Iff(a, b) => {
                let x = self.formula_bdd(a)?;
                let y = self.formula_bdd(b)?;
                self.tb.manager_mut().iff(x, y)
            }
            Formula::Neq(a, b) => {
                let x = self.formula_bdd(a)?;
                let y = self.formula_bdd(b)?;
                self.tb.manager_mut().xor(x, y)
            }
            Formula::Evidence {
                inner,
                element,
                value,
            } => {
                let e = self.resolve(element)?;
                let bi = self
                    .tree
                    .basic_index(e)
                    .ok_or_else(|| BflError::EvidenceOnGate(element.clone()))?;
                let x = self.formula_bdd(inner)?;
                let v = self.tb.var_of_basic(bi);
                self.tb.manager_mut().restrict(x, v, *value)
            }
            Formula::Mcs(a) => {
                let x = self.formula_bdd(a)?;
                self.minimality_bdd(x, true)
            }
            Formula::Mps(a) => {
                let x = self.formula_bdd(a)?;
                self.minimality_bdd(x, false)
            }
            Formula::Vot { op, k, operands } => {
                let mut xs = Vec::with_capacity(operands.len());
                for o in operands {
                    xs.push(self.formula_bdd(o)?);
                }
                let m = self.tb.manager_mut();
                let ge = |m: &mut Manager, xs: &[Bdd], k: u32| vot_threshold(m, xs, k);
                let k1 = k.saturating_add(1);
                match op {
                    CmpOp::Ge => ge(m, &xs, *k),
                    CmpOp::Gt => ge(m, &xs, k1),
                    CmpOp::Lt => {
                        let g = ge(m, &xs, *k);
                        m.not(g)
                    }
                    CmpOp::Le => {
                        let g = ge(m, &xs, k1);
                        m.not(g)
                    }
                    CmpOp::Eq => {
                        let at_least = ge(m, &xs, *k);
                        let more = ge(m, &xs, k1);
                        let not_more = m.not(more);
                        m.and(at_least, not_more)
                    }
                }
            }
        };
        self.cache.insert(key, result);
        Ok(result)
    }

    /// `MCS` (`minimal = true`) / `MPS` (`minimal = false`) translation:
    /// the primed-vector construction of Algorithm 1 over the variable
    /// pairs selected by the minimality scope.
    fn minimality_bdd(&mut self, x: Bdd, minimal: bool) -> Bdd {
        let pairs: Vec<(Var, Var)> = match self.scope {
            MinimalityScope::GlobalUniverse => self.tb.var_pairs(),
            MinimalityScope::FormulaSupport => {
                let prime = self.tb.prime_map();
                let support = self.tb.manager().support(x);
                support.into_iter().map(|v| (v, prime(v))).collect()
            }
        };
        if minimal {
            mcs_bdd_paper(&mut self.tb, x, &pairs)
        } else {
            mps_bdd_paper(&mut self.tb, x, &pairs)
        }
    }

    /// **Algorithm 2**: checks `b, T ⊨ χ` by computing `B_T(χ)` and
    /// walking it along `b`.
    ///
    /// # Errors
    ///
    /// As for [`ModelChecker::formula_bdd`].
    ///
    /// # Panics
    ///
    /// Panics if `b` does not cover the tree's basic events.
    pub fn holds(&mut self, b: &StatusVector, phi: &Formula) -> Result<bool, BflError> {
        assert_eq!(b.len(), self.tree.num_basic_events(), "vector length");
        let f = self.formula_bdd(phi)?;
        let basic_of_position = self.tb.basic_of_position();
        Ok(self.tb.manager().eval(f, |v| {
            debug_assert_eq!(v.index() % 2, 0, "primed variable in query BDD");
            b.get(basic_of_position[(v.index() / 2) as usize])
        }))
    }

    /// **Algorithm 3**: the satisfaction set `⟦χ⟧` as explicit status
    /// vectors, in ascending order. The set is counted first, as
    /// `bfl count` counts it: one of more than [`MAX_LISTED_SETS`]
    /// vectors is refused before a vector is built.
    ///
    /// # Errors
    ///
    /// As for [`ModelChecker::formula_bdd`], plus
    /// [`BflError::TooManyVectors`] past [`MAX_LISTED_SETS`] vectors.
    pub fn satisfying_vectors(&mut self, phi: &Formula) -> Result<Vec<StatusVector>, BflError> {
        let f = self.formula_bdd(phi)?;
        match self.count_vectors_of_bdd(f) {
            Some(n) if n <= MAX_LISTED_SETS => Ok(self.vectors_of_bdd(f, usize::MAX)),
            count => Err(BflError::TooManyVectors {
                formula: phi.to_string(),
                count,
            }),
        }
    }

    /// Up to `limit` satisfying vectors of `phi` — Algorithm 3 truncated
    /// after `limit` BDD paths, for cheap witness extraction on formulae
    /// whose full satisfaction set is astronomically large.
    ///
    /// # Errors
    ///
    /// As for [`ModelChecker::formula_bdd`].
    pub fn some_satisfying_vectors(
        &mut self,
        phi: &Formula,
        limit: usize,
    ) -> Result<Vec<StatusVector>, BflError> {
        let f = self.formula_bdd(phi)?;
        Ok(self.vectors_of_bdd(f, limit))
    }

    /// Up to `limit` satisfying vectors of an already-compiled diagram —
    /// the handle-level core of Algorithm 3, shared with the prepared
    /// query evaluator (which restricts compiled BDDs instead of
    /// recompiling formulae).
    pub(crate) fn vectors_of_bdd(&self, f: Bdd, limit: usize) -> Vec<StatusVector> {
        let universe = self.tb.unprimed_vars();
        let mut out: Vec<StatusVector> = self
            .tb
            .manager()
            .sat_vectors(f, &universe)
            .take(limit)
            .map(|assignment| self.tb.vector_from_positions(&self.tree, &assignment))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Names of the basic events in the support of an already-compiled
    /// diagram, in basic-index order — the handle-level core of `IBE`.
    pub(crate) fn support_basic_names(&self, f: Bdd) -> Vec<String> {
        let mut indices: Vec<usize> = self
            .tb
            .manager()
            .support(f)
            .into_iter()
            .map(|v| {
                debug_assert_eq!(v.index() % 2, 0, "primed variable in query BDD");
                self.tb.basic_of_position()[(v.index() / 2) as usize]
            })
            .collect();
        indices.sort_unstable();
        indices
            .into_iter()
            .map(|bi| self.tree.name(self.tree.basic_events()[bi]).to_string())
            .collect()
    }

    /// Number of satisfying vectors `|⟦χ⟧|` without enumerating them.
    ///
    /// # Errors
    ///
    /// As for [`ModelChecker::formula_bdd`], plus
    /// [`BflError::CountOverflow`] when the count exceeds `u128::MAX`.
    pub fn count_satisfying(&mut self, phi: &Formula) -> Result<u128, BflError> {
        let f = self.formula_bdd(phi)?;
        self.count_vectors_of_bdd(f)
            .ok_or_else(|| BflError::CountOverflow {
                what: format!("satisfying vectors of `{phi}`"),
            })
    }

    /// Number of satisfying vectors of an already-compiled diagram, or
    /// `None` past `u128::MAX`. Counts over the unprimed universe only;
    /// the manager also hosts the primed variables, which never occur in
    /// query BDDs.
    pub(crate) fn count_vectors_of_bdd(&self, f: Bdd) -> Option<u128> {
        let universe = self.tb.unprimed_vars();
        self.tb.manager().sat_count_over(f, &universe)
    }

    /// Evaluates a layer-2 query `T ⊨ ψ`.
    ///
    /// # Errors
    ///
    /// As for [`ModelChecker::formula_bdd`].
    pub fn check_query(&mut self, psi: &Query) -> Result<bool, BflError> {
        match psi {
            Query::Exists(phi) => {
                let f = self.formula_bdd(phi)?;
                Ok(!f.is_false())
            }
            Query::Forall(phi) => {
                let f = self.formula_bdd(phi)?;
                Ok(f.is_true())
            }
            Query::Idp(a, b) => {
                let ia = self.influencing_basic_events(a)?;
                let ib = self.influencing_basic_events(b)?;
                Ok(ia.iter().all(|e| !ib.contains(e)))
            }
            Query::Sup(name) => {
                // SUP(e) ::= IDP(e, e_top).
                let top = self.tree.name(self.tree.top()).to_string();
                self.check_query(&Query::Idp(Formula::atom(name.clone()), Formula::atom(top)))
            }
            Query::Cause {
                formula, evidence, ..
            } => {
                // The verdict only needs the failing check and the exact
                // cause count, not the witnesses: enumerate none.
                let report = crate::causality::actual_causes(self, formula, evidence, 0)?;
                Ok(report.holds())
            }
            // Probabilistic judgements need annotations the bare checker
            // does not hold: evaluate them through
            // [`quant::check_query`](crate::quant::check_query) with an
            // explicit vector, or an
            // [`AnalysisSession`](crate::engine::AnalysisSession) built
            // with probabilities.
            Query::Prob { .. } | Query::Importance(_) => Err(BflError::MissingProbabilities {
                events: self
                    .tree
                    .basic_events()
                    .iter()
                    .map(|&e| self.tree.name(e).to_string())
                    .collect(),
            }),
        }
    }

    /// The influencing basic events `IBE(ϕ)`, via the support of the
    /// reduced BDD (exactly the semantic dependencies), as names in
    /// basic-index order.
    ///
    /// # Errors
    ///
    /// As for [`ModelChecker::formula_bdd`].
    pub fn influencing_basic_events(&mut self, phi: &Formula) -> Result<Vec<String>, BflError> {
        let f = self.formula_bdd(phi)?;
        Ok(self.support_basic_names(f))
    }

    /// Convenience: the minimal cut sets of element `e` as sorted name
    /// lists, through the logic (`⟦MCS(e)⟧`).
    ///
    /// # Errors
    ///
    /// [`BflError::UnknownElement`] if `e` is not in the tree, and
    /// [`BflError::TooManySets`] past [`MAX_LISTED_SETS`] sets.
    pub fn minimal_cut_sets(&mut self, e: &str) -> Result<Vec<Vec<String>>, BflError> {
        let vectors = self.listable_sets(e, true)?;
        Ok(self.vectors_to_failed_sets(&vectors))
    }

    /// Convenience: the minimal path sets of element `e` as sorted name
    /// lists of the *operational* events (`⟦MPS(e)⟧`).
    ///
    /// # Errors
    ///
    /// As [`ModelChecker::minimal_cut_sets`].
    pub fn minimal_path_sets(&mut self, e: &str) -> Result<Vec<Vec<String>>, BflError> {
        let vectors = self.listable_sets(e, false)?;
        let mut out: Vec<Vec<String>> = vectors
            .iter()
            .map(|v| {
                let mut names: Vec<String> = (0..v.len())
                    .filter(|&i| !v.get(i))
                    .map(|i| self.tree.name(self.tree.basic_events()[i]).to_string())
                    .collect();
                names.sort();
                names
            })
            .collect();
        out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        Ok(out)
    }

    /// The satisfying vectors of `MCS(e)` (`cuts`) or `MPS(e)`, counted
    /// first, as `bfl count` counts them: a family of more than
    /// [`MAX_LISTED_SETS`] is refused before a vector is built.
    fn listable_sets(&mut self, e: &str, cuts: bool) -> Result<Vec<StatusVector>, BflError> {
        let atom = Formula::atom(e);
        let f = self.formula_bdd(&if cuts { atom.mcs() } else { atom.mps() })?;
        match self.count_vectors_of_bdd(f) {
            Some(n) if n <= MAX_LISTED_SETS => Ok(self.vectors_of_bdd(f, usize::MAX)),
            count => Err(BflError::TooManySets {
                element: e.to_string(),
                cuts,
                count,
            }),
        }
    }

    /// Renders vectors as sorted lists of failed-event names.
    pub fn vectors_to_failed_sets(&self, vectors: &[StatusVector]) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = vectors
            .iter()
            .map(|v| {
                let mut names: Vec<String> = v
                    .failed_names(&self.tree)
                    .into_iter()
                    .map(str::to_string)
                    .collect();
                names.sort();
                names
            })
            .collect();
        out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        out
    }

    /// Exposes the compiled [`TreeBdd`] (used by the counterexample
    /// generator and the benches).
    pub(crate) fn tree_bdd_mut(&mut self) -> &mut TreeBdd {
        &mut self.tb
    }

    /// The unprimed BDD variable encoding basic index `bi` — used by the
    /// prepared-query evaluator to turn scenario bindings into
    /// restrictions.
    pub(crate) fn var_of_basic(&self, bi: usize) -> Var {
        self.tb.var_of_basic(bi)
    }

    /// Position-to-basic-index mapping shared with the walk of Algorithm 4.
    pub(crate) fn basic_of_position(&self) -> &[usize] {
        self.tb.basic_of_position()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_fault_tree::corpus;

    #[test]
    fn example_2_walks_to_true() {
        // Example 2: T = OR(e1,e2), χ = MCS(Top), b = (0,1) ⊨ χ.
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("Top").mcs();
        assert!(mc
            .holds(&StatusVector::from_bits([false, true]), &phi)
            .unwrap());
        assert!(!mc
            .holds(&StatusVector::from_bits([true, true]), &phi)
            .unwrap());
        assert!(!mc
            .holds(&StatusVector::from_bits([false, false]), &phi)
            .unwrap());
    }

    #[test]
    fn example_3_allsat() {
        // Example 3: ⟦MCS(Top)⟧ = {(0,1), (1,0)}.
        let tree = corpus::or2();
        let mut mc = ModelChecker::new(&tree);
        let sats = mc.satisfying_vectors(&Formula::atom("Top").mcs()).unwrap();
        assert_eq!(
            sats,
            vec![
                StatusVector::from_bits([true, false]),
                StatusVector::from_bits([false, true]),
            ]
        );
        assert_eq!(mc.count_satisfying(&Formula::atom("Top").mcs()).unwrap(), 2);
    }

    #[test]
    fn checker_matches_reference_on_fig1() {
        let tree = corpus::fig1();
        let mut mc = ModelChecker::new(&tree);
        let formulas = [
            Formula::atom("CP/R"),
            Formula::atom("CP").and(Formula::atom("CR")),
            Formula::atom("CP/R").mcs(),
            Formula::atom("CP/R").mps(),
            Formula::atom("CP").implies(Formula::atom("CP/R")),
            Formula::atom("CP/R").with_evidence("IW", true),
            Formula::atom("CP/R").mcs().with_evidence("H2", false),
        ];
        for phi in &formulas {
            for b in StatusVector::enumerate_all(4) {
                let fast = mc.holds(&b, phi).unwrap();
                let slow = crate::semantics::eval(&tree, &b, phi).unwrap();
                assert_eq!(fast, slow, "{phi} at {b}");
            }
        }
    }

    #[test]
    fn quantifiers_via_terminals() {
        let tree = corpus::fig1();
        let mut mc = ModelChecker::new(&tree);
        assert!(mc
            .check_query(&Query::forall(
                Formula::atom("CP").implies(Formula::atom("CP/R"))
            ))
            .unwrap());
        assert!(mc
            .check_query(&Query::exists(Formula::atom("CP").and(Formula::atom("CR"))))
            .unwrap());
        assert!(!mc
            .check_query(&Query::forall(Formula::atom("CP/R")))
            .unwrap());
        assert!(!mc
            .check_query(&Query::exists(
                Formula::atom("CP").and(Formula::atom("CP").not())
            ))
            .unwrap());
    }

    #[test]
    fn ibe_matches_reference() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        for name in ["CIO", "CIS", "MoT", "SH", "IWoS"] {
            let fast = mc.influencing_basic_events(&Formula::atom(name)).unwrap();
            let slow =
                crate::semantics::influencing_basic_events(&tree, &Formula::atom(name)).unwrap();
            let slow_sorted = {
                // Reference returns basic-index order already; compare as sets.
                let mut s = slow.clone();
                s.sort();
                s
            };
            let mut fast_sorted = fast.clone();
            fast_sorted.sort();
            assert_eq!(fast_sorted, slow_sorted, "{name}");
        }
    }

    #[test]
    fn idp_cio_cis_share_h1() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        // Property 8 of the case study.
        assert!(!mc
            .check_query(&Query::idp(Formula::atom("CIO"), Formula::atom("CIS")))
            .unwrap());
        let ia = mc.influencing_basic_events(&Formula::atom("CIO")).unwrap();
        let ib = mc.influencing_basic_events(&Formula::atom("CIS")).unwrap();
        let shared: Vec<_> = ia.iter().filter(|e| ib.contains(e)).collect();
        assert_eq!(shared, vec!["H1"]);
    }

    #[test]
    fn sup_pp_is_false() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        // Property 9: PP is not superfluous.
        assert!(!mc.check_query(&Query::sup("PP")).unwrap());
    }

    #[test]
    fn mcs_mps_match_analysis_engines() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        let via_logic = mc.minimal_cut_sets("IWoS").unwrap();
        let via_analysis = bfl_fault_tree::analysis::minimal_cut_sets_names(&tree, tree.top());
        assert_eq!(via_logic, via_analysis);
        let mps_logic = mc.minimal_path_sets("IWoS").unwrap();
        let mps_analysis = bfl_fault_tree::analysis::minimal_path_sets_names(&tree, tree.top());
        assert_eq!(mps_logic, mps_analysis);
    }

    #[test]
    fn support_scope_relaxes_minimality() {
        // MCS(e3) on the Table-I tree: e3 = OR(e4, e5) does not depend on
        // e2. Under the global scope, e2 is forced operational; under the
        // support scope it is free.
        let tree = corpus::table1_tree();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("e3").mcs();
        assert_eq!(mc.count_satisfying(&phi).unwrap(), 2);
        mc.set_minimality_scope(MinimalityScope::FormulaSupport);
        assert_eq!(mc.count_satisfying(&phi).unwrap(), 4);
        // Pattern 3 of Table I: satisfiable only under the support scope.
        let pat3 = Formula::atom("e1").mcs().and(Formula::atom("e3").mcs());
        assert!(mc.check_query(&Query::exists(pat3.clone())).unwrap());
        mc.set_minimality_scope(MinimalityScope::GlobalUniverse);
        assert!(!mc.check_query(&Query::exists(pat3)).unwrap());
    }

    #[test]
    fn evidence_on_gate_rejected() {
        let tree = corpus::fig1();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("IW").with_evidence("CP", true);
        assert_eq!(
            mc.formula_bdd(&phi).unwrap_err(),
            BflError::EvidenceOnGate("CP".into())
        );
    }

    #[test]
    fn translation_cache_reuses_results() {
        let tree = corpus::covid();
        let mut mc = ModelChecker::new(&tree);
        let phi = Formula::atom("IWoS").mcs();
        let f1 = mc.formula_bdd(&phi).unwrap();
        let size_before = mc.manager().arena_size();
        let f2 = mc.formula_bdd(&phi).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(mc.manager().arena_size(), size_before);
    }
}
