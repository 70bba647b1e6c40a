//! The `Ψ_FT` translation of Definition 6: fault trees to BDDs.
//!
//! [`TreeBdd`] owns a [`Manager`] whose variables interleave each basic
//! event with a *primed* copy: the basic event at ordering position `p`
//! gets variable id `2p`, its primed copy id `2p + 1`, and a variable is
//! its own level. So the order is fixed here, once, by the ordering's
//! permutation, and each primed variable sits immediately below its
//! event, which keeps the `V ↷ V′` renaming order-preserving. The primed
//! variables implement that renaming for the paper's `MCS`/`MPS`
//! translations; ordinary gate translation only touches unprimed
//! variables.

use std::cmp::Reverse;

use bfl_bdd::{Bdd, Manager, Var};

use crate::model::{ElementId, FaultTree, GateType};
use crate::order::VariableOrdering;
use crate::status::StatusVector;

/// A fault tree compiled to BDDs: one diagram per element, sharing one
/// manager.
///
/// # Example
///
/// ```
/// use bfl_fault_tree::{corpus, bdd::TreeBdd, VariableOrdering};
/// let tree = corpus::fig1();
/// let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
/// let top = tb.element_bdd(&tree, tree.top());
/// // Φ evaluates to 1 when IW and H3 both fail (an MCS of Fig. 1).
/// let b = bfl_fault_tree::StatusVector::from_failed_names(&tree, &["IW", "H3"]);
/// assert!(tb.eval_vector(&tree, top, &b));
/// ```
#[derive(Debug)]
pub struct TreeBdd {
    manager: Manager,
    /// Basic events in variable order (position -> element).
    order: Vec<ElementId>,
    /// basic index -> ordering position.
    position: Vec<usize>,
    /// ordering position -> basic index (inverse of `position`).
    basic_of_position: Vec<usize>,
    /// element index -> translated BDD (lazily filled).
    cache: Vec<Option<Bdd>>,
    /// Identity check: number of elements of the tree this was built for.
    tree_len: usize,
}

impl TreeBdd {
    /// Compiles nothing yet; allocates `2·|BE|` variables (unprimed and
    /// primed, interleaved) for `tree` using `ordering`.
    pub fn new(tree: &FaultTree, ordering: VariableOrdering) -> Self {
        Self::with_order(tree, ordering.order(tree))
    }

    /// Like [`TreeBdd::new`] with an explicit basic-event permutation.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the tree's basic events.
    pub fn with_order(tree: &FaultTree, order: Vec<ElementId>) -> Self {
        assert_eq!(order.len(), tree.num_basic_events(), "order length");
        let mut position = vec![usize::MAX; tree.num_basic_events()];
        let mut basic_of_position = Vec::with_capacity(order.len());
        for (pos, &e) in order.iter().enumerate() {
            let bi = tree
                .basic_index(e)
                .unwrap_or_else(|| panic!("{} is not a basic event", tree.name(e)));
            assert_eq!(position[bi], usize::MAX, "duplicate event in order");
            position[bi] = pos;
            basic_of_position.push(bi);
        }
        assert!(
            position.iter().all(|&p| p != usize::MAX),
            "incomplete order"
        );
        let manager = Manager::new(2 * order.len() as u32);
        TreeBdd {
            manager,
            order,
            position,
            basic_of_position,
            cache: vec![None; tree.len()],
            tree_len: tree.len(),
        }
    }

    /// The underlying BDD manager.
    pub fn manager(&self) -> &Manager {
        &self.manager
    }

    /// Mutable access to the underlying BDD manager.
    pub fn manager_mut(&mut self) -> &mut Manager {
        &mut self.manager
    }

    /// Basic events in variable order.
    pub fn order(&self) -> &[ElementId] {
        &self.order
    }

    /// The unprimed BDD variable of the basic event with basic index `bi`.
    pub fn var_of_basic(&self, bi: usize) -> Var {
        Var(2 * self.position[bi] as u32)
    }

    /// The primed BDD variable paired with basic index `bi`.
    pub fn primed_var_of_basic(&self, bi: usize) -> Var {
        Var(2 * self.position[bi] as u32 + 1)
    }

    /// Maps an unprimed variable back to the basic index it encodes.
    ///
    /// Returns `None` for primed variables.
    pub fn basic_of_var(&self, v: Var) -> Option<usize> {
        if !v.index().is_multiple_of(2) {
            return None;
        }
        self.basic_of_position
            .get((v.index() / 2) as usize)
            .copied()
    }

    /// Ordering position -> basic index: entry `p` is the basic index
    /// of the event encoded by `Var(2p)`.
    pub fn basic_of_position(&self) -> &[usize] {
        &self.basic_of_position
    }

    /// All unprimed variables, in order.
    pub fn unprimed_vars(&self) -> Vec<Var> {
        (0..self.order.len()).map(|p| Var(2 * p as u32)).collect()
    }

    /// All primed variables, in order.
    pub fn primed_vars(&self) -> Vec<Var> {
        (0..self.order.len())
            .map(|p| Var(2 * p as u32 + 1))
            .collect()
    }

    /// `(unprimed, primed)` pairs, in order — input to
    /// [`Manager::strict_subset`] / [`Manager::strict_superset`].
    pub fn var_pairs(&self) -> Vec<(Var, Var)> {
        (0..self.order.len())
            .map(|p| (Var(2 * p as u32), Var(2 * p as u32 + 1)))
            .collect()
    }

    /// The order-preserving unprimed → primed renaming (`V ↷ V′`).
    pub fn prime_map(&self) -> impl Fn(Var) -> Var {
        |v: Var| {
            debug_assert_eq!(v.index() % 2, 0, "renaming a primed variable");
            Var(v.index() + 1)
        }
    }

    /// Translates element `e` (and, transitively, its cone) per
    /// Definition 6, caching every intermediate element.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not the tree this `TreeBdd` was created for.
    pub fn element_bdd(&mut self, tree: &FaultTree, e: ElementId) -> Bdd {
        assert_eq!(
            tree.len(),
            self.tree_len,
            "TreeBdd used with a different tree"
        );
        if let Some(b) = self.cache[e.index()] {
            return b;
        }
        // Iterative post-order to avoid recursion limits on deep trees.
        let mut stack = vec![(e, false)];
        while let Some((x, expanded)) = stack.pop() {
            if self.cache[x.index()].is_some() {
                continue;
            }
            if let Some(bi) = tree.basic_index(x) {
                let v = self.var_of_basic(bi);
                self.cache[x.index()] = Some(self.manager.var(v));
                continue;
            }
            if !expanded {
                stack.push((x, true));
                for &c in tree.children(x) {
                    stack.push((c, false));
                }
                continue;
            }
            let children: Vec<Bdd> = tree
                .children(x)
                .iter()
                .map(|c| self.cache[c.index()].unwrap_or_else(|| unreachable!("child first")))
                .collect();
            let b = match tree.gate_type(x).unwrap_or_else(|| unreachable!("gate")) {
                GateType::And => self.manager.and_all(children),
                GateType::Or => self.manager.or_all(children),
                GateType::Vot { k } => vot_threshold(&mut self.manager, &children, k),
            };
            self.cache[x.index()] = Some(b);
        }
        self.cache[e.index()].unwrap_or_else(|| unreachable!("translated root"))
    }

    /// Evaluates a BDD under a status vector (basic-index aligned).
    ///
    /// Primed variables evaluate to `false`; they never occur in gate
    /// translations.
    pub fn eval_vector(&self, tree: &FaultTree, f: Bdd, b: &StatusVector) -> bool {
        assert_eq!(b.len(), tree.num_basic_events(), "vector length");
        self.manager.eval(f, |v| {
            if v.index() % 2 != 0 {
                return false;
            }
            b.get(self.basic_of_position[(v.index() / 2) as usize])
        })
    }

    /// Bdd handles of every cached element translation, sorted and
    /// without repeats.
    pub fn roots(&self) -> Vec<Bdd> {
        let mut roots: Vec<Bdd> = self.cache.iter().flatten().copied().collect();
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// Live nodes reachable from the cached element translations and
    /// `extra` (terminals included): the arena a compile would need if it
    /// left no garbage.
    pub fn live_node_count(&self, extra: &[Bdd]) -> usize {
        let mut roots = self.roots();
        roots.extend_from_slice(extra);
        self.manager.live_size(&roots)
    }

    /// Converts a full assignment over the *unprimed* variables (aligned
    /// with [`TreeBdd::unprimed_vars`]) into a status vector aligned with
    /// basic indices.
    pub fn vector_from_positions(&self, tree: &FaultTree, assignment: &[bool]) -> StatusVector {
        assert_eq!(assignment.len(), self.order.len(), "assignment length");
        let mut v = StatusVector::all_operational(tree.num_basic_events());
        for (&bi, &val) in self.basic_of_position.iter().zip(assignment) {
            v.set(bi, val);
        }
        v
    }
}

/// "At least `k` of `children` hold", built by dynamic programming over
/// Shannon expansions — size `O(k · Σ|child|)` instead of the exponential
/// subset expansion of Definition 6.
///
/// The children are taken deepest root first, as
/// [`Manager::or_all`] takes its operands: each `ite` then places a
/// child above the rows built so far and copies only that child's
/// nodes. The threshold is symmetric in its children, so canonicity
/// gives the same node as any other order.
pub fn vot_threshold(m: &mut Manager, children: &[Bdd], k: u32) -> Bdd {
    let k = k as usize;
    if k == 0 {
        return m.top();
    }
    if k > children.len() {
        return m.bot();
    }
    let mut children = children.to_vec();
    children.sort_by_key(|&c| Reverse(m.node(c).var));
    // row[j] = "at least j of the children seen so far" (j in 0..=k).
    let mut row = vec![m.bot(); k + 1];
    row[0] = m.top();
    for c in children {
        for j in (1..=k).rev() {
            let take = m.ite(c, row[j - 1], row[j]);
            row[j] = take;
        }
    }
    row[k]
}

/// The literal `VOT(k/N)` expansion of Definition 6:
/// `⋁_{n1<…<nk} ⋀_{i=1..k} Ψ(e_ni)` — an OR over all `k`-subsets.
///
/// Exponential in `N`; retained as a cross-check of [`vot_threshold`].
pub fn vot_naive(m: &mut Manager, children: &[Bdd], k: u32) -> Bdd {
    let k = k as usize;
    if k == 0 {
        return m.top();
    }
    if k > children.len() {
        return m.bot();
    }
    let n = children.len();
    let mut acc = m.bot();
    // Iterate over all k-subsets via combination indices.
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        let term = m.and_all(idx.iter().map(|&i| children[i]));
        acc = m.or(acc, term);
        // Next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return acc;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return acc;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corpus, FaultTreeBuilder, GateType};

    #[test]
    fn or_gate_translation_matches_fig3() {
        let tree = corpus::or2();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let top = tb.element_bdd(&tree, tree.top());
        // Fig. 3: BDD with two decision nodes (e1, e2) plus terminals.
        assert_eq!(tb.manager().node_count(top), 4);
        for v in StatusVector::enumerate_all(2) {
            assert_eq!(tb.eval_vector(&tree, top, &v), v.count_failed() >= 1);
        }
    }

    #[test]
    fn translation_matches_structure_function_exhaustively() {
        let tree = corpus::covid();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        // Check every element on a sample of vectors.
        for seed in 0..200u64 {
            let bits: Vec<bool> = (0..tree.num_basic_events())
                .map(|i| (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 61)) & 1 == 1)
                .collect();
            let b = StatusVector::from_bits(bits);
            let statuses = tree.evaluate_all(&b);
            for e in tree.iter() {
                let f = tb.element_bdd(&tree, e);
                assert_eq!(
                    tb.eval_vector(&tree, f, &b),
                    statuses[e.index()],
                    "element {} vector {}",
                    tree.name(e),
                    b
                );
            }
        }
    }

    #[test]
    fn vot_threshold_equals_vot_naive() {
        let mut m = Manager::new(12);
        let vars: Vec<Bdd> = (0..5).map(|i| m.var(Var(2 * i))).collect();
        for k in 0..=6u32 {
            let a = vot_threshold(&mut m, &vars, k);
            let b = vot_naive(&mut m, &vars, k);
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn vot_gate_in_tree() {
        let mut b = FaultTreeBuilder::new();
        b.basic_events(["a", "b", "c", "d"]).unwrap();
        b.gate("top", GateType::Vot { k: 3 }, ["a", "b", "c", "d"])
            .unwrap();
        let tree = b.build("top").unwrap();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::Declaration);
        let top = tb.element_bdd(&tree, tree.top());
        for v in StatusVector::enumerate_all(4) {
            assert_eq!(tb.eval_vector(&tree, top, &v), v.count_failed() >= 3, "{v}");
        }
    }

    #[test]
    fn shared_subtrees_translated_once() {
        let tree = corpus::covid();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let _ = tb.element_bdd(&tree, tree.top());
        // After translating the top, every element is cached.
        for e in tree.iter() {
            assert!(tb.cache[e.index()].is_some(), "{}", tree.name(e));
        }
    }

    #[test]
    fn var_maps_are_bijections() {
        let tree = corpus::covid();
        let tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        // A real permutation, so a map that ignored it would fail below.
        assert!((0..tree.num_basic_events()).any(|p| tb.basic_of_position()[p] != p));
        for bi in 0..tree.num_basic_events() {
            let v = tb.var_of_basic(bi);
            assert_eq!(tb.basic_of_var(v), Some(bi));
            assert_eq!(tb.basic_of_position()[(v.index() / 2) as usize], bi);
            assert_eq!(tb.primed_var_of_basic(bi).index(), v.index() + 1);
        }
        assert_eq!(tb.basic_of_var(Var(1)), None);
        let past_end = 2 * tree.num_basic_events() as u32;
        assert_eq!(tb.basic_of_var(Var(past_end)), None);
    }

    #[test]
    #[should_panic(expected = "different tree")]
    fn tree_identity_checked() {
        let t1 = corpus::fig1();
        let t2 = corpus::covid();
        let mut tb = TreeBdd::new(&t1, VariableOrdering::DfsPreorder);
        let _ = tb.element_bdd(&t2, t2.top());
    }
}
