//! Variable-ordering heuristics for the fault-tree → BDD translation.
//!
//! BDD sizes are notoriously sensitive to the variable order (Section V-A
//! of the paper). This module provides two static heuristics,
//! [`Declaration`](VariableOrdering::Declaration) and
//! [`DfsPreorder`](VariableOrdering::DfsPreorder). The order is fixed
//! once, when [`TreeBdd`](crate::bdd::TreeBdd) numbers the variables, and
//! never changes afterwards: `reproduce scale` reports the BDD size and
//! construction time of both.
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
            VariableOrdering::DfsPreorder => dfs_order(tree),
        }
    }

    /// Every ordering, for sweeps and benchmarks.
    pub fn all() -> [VariableOrdering; 2] {
        [VariableOrdering::Declaration, VariableOrdering::DfsPreorder]
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
}
