//! Variable-ordering heuristics for the fault-tree → BDD translation.
//!
//! BDD sizes are notoriously sensitive to the variable order (Section V-A
//! of the paper). This module provides the orderings compared in the
//! `reproduce -- reorder` artifact: two *static* heuristics,
//! [`Declaration`](VariableOrdering::Declaration) and
//! [`DfsPreorder`](VariableOrdering::DfsPreorder), plus the *dynamic*
//! [`Sifted`](VariableOrdering::Sifted), which starts from the DFS order
//! and improves it after translation with Rudell sifting
//! (`TreeBdd::sift`, backed by `bfl_bdd::Manager::sift`).
//!
//! A breadth-first and a Bouissou-style depth-weighted ordering were
//! tried and deleted: neither beat the DFS order on any model of the
//! corpus, and neither could compile the scaled corpus at 1,000 events
//! or more.

use crate::model::{ElementId, FaultTree};

/// Strategy for ordering the basic events of a fault tree as BDD
/// variables (top of the order first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum VariableOrdering {
    /// Basic events in declaration order.
    Declaration,
    /// First visit in a depth-first, left-to-right traversal from the top
    /// element — the classical FTA ordering, and the default.
    #[default]
    DfsPreorder,
    /// Dynamic ordering: translation starts from the
    /// [`DfsPreorder`](VariableOrdering::DfsPreorder) order and the
    /// manager is then improved in place by Rudell sifting
    /// ([`TreeBdd::sift`](crate::bdd::TreeBdd::sift)). The [`order`]
    /// method returns the *initial* (DFS) permutation; the dynamic
    /// improvement is driven by the layer that owns the `TreeBdd` (the
    /// `bfl-core` engine's `ReorderPolicy`, or an explicit `sift` call).
    ///
    /// [`order`]: VariableOrdering::order
    Sifted,
}

impl VariableOrdering {
    /// Computes the ordered list of basic events for `tree` (first element
    /// = top-most BDD variable).
    ///
    /// The result is always a permutation of
    /// [`basic_events`](FaultTree::basic_events).
    pub fn order(self, tree: &FaultTree) -> Vec<ElementId> {
        match self {
            VariableOrdering::Declaration => tree.basic_events().to_vec(),
            VariableOrdering::DfsPreorder | VariableOrdering::Sifted => dfs_order(tree),
        }
    }

    /// The static orderings, for sweeps and benchmarks ([`Sifted`] is
    /// excluded: its starting permutation is [`DfsPreorder`]'s, so static
    /// comparisons would double-count it).
    ///
    /// [`Sifted`]: VariableOrdering::Sifted
    /// [`DfsPreorder`]: VariableOrdering::DfsPreorder
    pub fn all() -> [VariableOrdering; 2] {
        [VariableOrdering::Declaration, VariableOrdering::DfsPreorder]
    }

    /// `true` for orderings that expect dynamic improvement after
    /// translation (currently only [`Sifted`](VariableOrdering::Sifted)).
    pub fn is_dynamic(self) -> bool {
        self == VariableOrdering::Sifted
    }
}

fn dfs_order(tree: &FaultTree) -> Vec<ElementId> {
    let mut seen = vec![false; tree.len()];
    let mut out = Vec::with_capacity(tree.num_basic_events());
    let mut stack = vec![tree.top()];
    while let Some(e) = stack.pop() {
        if seen[e.index()] {
            continue;
        }
        seen[e.index()] = true;
        if tree.is_basic(e) {
            out.push(e);
        } else {
            // Push in reverse so the left-most child is visited first.
            for &c in tree.children(e).iter().rev() {
                stack.push(c);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultTreeBuilder, GateType};

    fn sample() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        b.basic_events(["d1", "d2", "s"]).unwrap();
        b.gate("g1", GateType::And, ["d1", "s"]).unwrap();
        b.gate("g2", GateType::And, ["s", "d2"]).unwrap();
        b.gate("top", GateType::Or, ["g1", "g2", "s"]).unwrap();
        b.build("top").unwrap()
    }

    fn names(tree: &FaultTree, order: &[ElementId]) -> Vec<String> {
        order.iter().map(|&e| tree.name(e).to_string()).collect()
    }

    #[test]
    fn every_ordering_is_a_permutation() {
        let t = sample();
        for ord in VariableOrdering::all() {
            let mut o = ord.order(&t);
            assert_eq!(o.len(), t.num_basic_events(), "{ord:?}");
            o.sort();
            let mut expect = t.basic_events().to_vec();
            expect.sort();
            assert_eq!(o, expect, "{ord:?}");
        }
    }

    #[test]
    fn dfs_is_left_to_right() {
        let t = sample();
        let o = VariableOrdering::DfsPreorder.order(&t);
        assert_eq!(names(&t, &o), vec!["d1", "s", "d2"]);
    }

    #[test]
    fn declaration_order_is_stable() {
        let t = sample();
        let o = VariableOrdering::Declaration.order(&t);
        assert_eq!(names(&t, &o), vec!["d1", "d2", "s"]);
    }

    #[test]
    fn default_is_dfs() {
        assert_eq!(VariableOrdering::default(), VariableOrdering::DfsPreorder);
    }

    #[test]
    fn sifted_starts_from_the_dfs_permutation() {
        let t = sample();
        assert_eq!(
            VariableOrdering::Sifted.order(&t),
            VariableOrdering::DfsPreorder.order(&t)
        );
        assert!(VariableOrdering::Sifted.is_dynamic());
        assert!(!VariableOrdering::DfsPreorder.is_dynamic());
        // The static sweep list stays sift-free.
        assert!(!VariableOrdering::all().contains(&VariableOrdering::Sifted));
    }
}
