//! Bottom-up minimal-cut-set computation on zero-suppressed decision
//! diagrams — Rauzy's classical algorithm ("New algorithms for fault
//! trees analysis", reference \[5\] of the paper). It is the engine
//! behind [`analysis::minimal_cut_sets`](crate::analysis::minimal_cut_sets)
//! and its path-set, count and name variants; path sets run on the
//! [`dual_tree`].
//!
//! Cut-set families are composed structurally: a basic event contributes
//! the singleton family `{{e}}`, an OR gate the minimised union of its
//! children's families, an AND gate the minimised product, and a
//! `VOT(k/N)` gate a dynamic program over union/product. Minimising at
//! every step is sound for coherent (monotone) trees: a dominated set
//! can only ever produce dominated compositions.
//!
//! The test-suite cross-checks the engine against the paper's
//! primed-variable construction
//! ([`minimal_cut_sets_paper`](crate::analysis::minimal_cut_sets_paper))
//! and the exhaustive references.

use bfl_bdd::{Var, Zdd, ZddManager};

use crate::model::{ElementId, ElementKind, FaultTree, GateType};
use crate::order::VariableOrdering;

/// The cut-set families of every element in the cone of one element.
pub(crate) struct CutSetFamilies {
    manager: ZddManager,
    /// Per element index: the family handle (`None` outside the cone).
    families: Vec<Option<Zdd>>,
    /// ZDD variable position -> basic event.
    order: Vec<ElementId>,
}

impl CutSetFamilies {
    fn family_of(&self, e: ElementId) -> Zdd {
        self.families[e.index()]
            .unwrap_or_else(|| unreachable!("element outside the computed cone"))
    }

    /// Number of minimal cut sets of `e`, by ZDD counting; `None` past
    /// `u128::MAX`.
    pub(crate) fn count(&self, e: ElementId) -> Option<u128> {
        self.manager.count(self.family_of(e))
    }

    /// The minimal cut sets of `e` as sets of basic-event indices, in no
    /// particular order.
    pub(crate) fn sets(&self, tree: &FaultTree, e: ElementId) -> Vec<Vec<usize>> {
        self.manager
            .sets(self.family_of(e))
            .into_iter()
            .map(|vars| {
                vars.into_iter()
                    .map(|v| {
                        tree.basic_index(self.order[v.0 as usize])
                            .unwrap_or_else(|| unreachable!("basic"))
                    })
                    .collect()
            })
            .collect()
    }
}

/// Computes cut-set families bottom-up for the cone of `e`, with the ZDD
/// variables in DFS order.
pub(crate) fn cut_set_families(tree: &FaultTree, e: ElementId) -> CutSetFamilies {
    let order = VariableOrdering::DfsPreorder.order(tree);
    let mut position = vec![usize::MAX; tree.num_basic_events()];
    for (pos, &be) in order.iter().enumerate() {
        position[tree
            .basic_index(be)
            .unwrap_or_else(|| unreachable!("basic"))] = pos;
    }
    let mut manager = ZddManager::new(tree.num_basic_events() as u32);
    let mut families: Vec<Option<Zdd>> = vec![None; tree.len()];

    // Iterative post-order over the cone.
    let mut stack = vec![(e, false)];
    while let Some((x, expanded)) = stack.pop() {
        if families[x.index()].is_some() {
            continue;
        }
        if let Some(bi) = tree.basic_index(x) {
            let v = Var(position[bi] as u32);
            families[x.index()] = Some(manager.singleton(v));
            continue;
        }
        if !expanded {
            stack.push((x, true));
            for &c in tree.children(x) {
                stack.push((c, false));
            }
            continue;
        }
        let children: Vec<Zdd> = tree
            .children(x)
            .iter()
            .map(|c| families[c.index()].unwrap_or_else(|| unreachable!("post-order")))
            .collect();
        let family = match tree.gate_type(x).unwrap_or_else(|| unreachable!("gate")) {
            GateType::Or => {
                let mut acc = manager.empty();
                for c in children {
                    acc = manager.union(acc, c);
                }
                manager.minimal(acc)
            }
            GateType::And => {
                let mut acc = manager.unit();
                for c in children {
                    acc = manager.product(acc, c);
                    acc = manager.minimal(acc);
                }
                acc
            }
            GateType::Vot { k } => vot_family(&mut manager, &children, k),
        };
        families[x.index()] = Some(family);
    }
    CutSetFamilies {
        manager,
        families,
        order,
    }
}

/// "At least `k` of `children` fail" as a cut-set family, by the same
/// dynamic program as the BDD translation, with minimisation per step.
fn vot_family(m: &mut ZddManager, children: &[Zdd], k: u32) -> Zdd {
    let k = k as usize;
    if k == 0 {
        return m.unit();
    }
    if k > children.len() {
        return m.empty();
    }
    let mut row: Vec<Zdd> = vec![m.empty(); k + 1];
    row[0] = m.unit();
    for &c in children {
        for j in (1..=k).rev() {
            let with = m.product(c, row[j - 1]);
            let u = m.union(with, row[j]);
            row[j] = m.minimal(u);
        }
    }
    row[k]
}

/// The dual fault tree: `AND ↔ OR`, `VOT(k/N) ↦ VOT(N−k+1/N)`.
///
/// Element names, declaration order (hence [`ElementId`]s and basic
/// indices) and the top element are preserved, and the dual's structure
/// function is `Φ^d(b) = ¬Φ(¬b)` element-wise — so the cut sets of the
/// dual are exactly the path sets of the original (and vice versa).
///
/// # Example
///
/// ```
/// use bfl_fault_tree::{analysis, corpus, zdd_engine::dual_tree};
/// let tree = corpus::fig1();
/// let dual = dual_tree(&tree);
/// assert_eq!(
///     analysis::minimal_cut_sets_paper(&dual, dual.top()),
///     analysis::minimal_path_sets_paper(&tree, tree.top()),
/// );
/// ```
pub fn dual_tree(tree: &FaultTree) -> FaultTree {
    let mut dual = tree.clone();
    for el in &mut dual.elements {
        if let ElementKind::Gate(t) = &mut el.kind {
            *t = match *t {
                GateType::And => GateType::Or,
                GateType::Or => GateType::And,
                GateType::Vot { k } => GateType::Vot {
                    k: el.children.len() as u32 - k + 1,
                },
            };
        }
    }
    dual
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd::TreeBdd;
    use crate::{analysis, corpus};

    fn corpus_trees() -> Vec<FaultTree> {
        vec![
            corpus::or2(),
            corpus::fig1(),
            corpus::covid(),
            corpus::table1_tree(),
            corpus::pressure_tank(),
            corpus::attack_tree(),
            corpus::kofn(2, 4),
            corpus::kofn(3, 5),
        ]
    }

    #[test]
    fn agrees_with_paper_on_corpus() {
        for tree in corpus_trees() {
            let top = tree.top();
            let name = tree.name(top);
            assert_eq!(
                analysis::minimal_cut_sets(&tree, top),
                analysis::minimal_cut_sets_paper(&tree, top),
                "mcs of {name}"
            );
            assert_eq!(
                analysis::minimal_path_sets(&tree, top),
                analysis::minimal_path_sets_paper(&tree, top),
                "mps of {name}"
            );
        }
    }

    #[test]
    fn agrees_on_intermediate_elements() {
        let tree = corpus::covid();
        for name in ["MoT", "CT", "CIS", "SH", "CP/R"] {
            let e = tree.element(name).unwrap();
            assert_eq!(
                analysis::minimal_cut_sets(&tree, e),
                analysis::minimal_cut_sets_paper(&tree, e),
                "{name}"
            );
        }
    }

    #[test]
    fn count_matches_enumeration() {
        let tree = corpus::covid();
        let families = cut_set_families(&tree, tree.top());
        assert_eq!(families.count(tree.top()), Some(12));
        assert_eq!(families.sets(&tree, tree.top()).len(), 12);
    }

    #[test]
    fn counting_scales_on_deep_chains() {
        // Depth-10 alternating AND/OR chain: ~10^9 minimal cut sets,
        // counted without enumeration by both engines.
        let tree = corpus::chain(10);
        let count = cut_set_families(&tree, tree.top())
            .count(tree.top())
            .unwrap();
        assert!(count > 1_000_000_000, "{count}");
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let f = tb.element_bdd(&tree, tree.top());
        let pairs = tb.var_pairs();
        let mcs = analysis::mcs_bdd_paper(&mut tb, f, &pairs);
        let universe = tb.unprimed_vars();
        assert_eq!(tb.manager().sat_count_over(mcs, &universe), Some(count));
    }

    #[test]
    fn repeated_events_handled() {
        // top = AND(OR(x, y), x): MCS = {{x}} despite the repetition.
        let mut b = crate::FaultTreeBuilder::new();
        b.basic_events(["x", "y"]).unwrap();
        b.gate("g", crate::GateType::Or, ["x", "y"]).unwrap();
        b.gate("top", crate::GateType::And, ["g", "x"]).unwrap();
        let tree = b.build("top").unwrap();
        assert_eq!(analysis::minimal_cut_sets(&tree, tree.top()), vec![vec![0]]);
    }

    #[test]
    fn dual_preserves_ids_and_top() {
        let tree = corpus::covid();
        let dual = dual_tree(&tree);
        assert_eq!(dual.len(), tree.len());
        assert_eq!(dual.top(), tree.top());
        for e in tree.iter() {
            assert_eq!(dual.name(e), tree.name(e));
            assert_eq!(dual.basic_index(e), tree.basic_index(e));
        }
    }

    #[test]
    fn dual_is_involutive() {
        for tree in corpus_trees() {
            let twice = dual_tree(&dual_tree(&tree));
            for e in tree.iter() {
                assert_eq!(twice.gate_type(e), tree.gate_type(e), "{}", tree.name(e));
                assert_eq!(twice.children(e), tree.children(e));
            }
        }
    }

    #[test]
    fn vot_dual_threshold() {
        // 2-of-3 fails iff 2 fail; its dual must fail iff 2 are... failed
        // under complemented inputs: VOT(2/3)^d = VOT(2/3) here (n−k+1 = 2).
        let tree = corpus::kofn(2, 3);
        let dual = dual_tree(&tree);
        assert_eq!(dual.gate_type(dual.top()), Some(GateType::Vot { k: 2 }));
        let tree = corpus::kofn(1, 3); // OR-like: dual is AND-like VOT(3/3)
        let dual = dual_tree(&tree);
        assert_eq!(dual.gate_type(dual.top()), Some(GateType::Vot { k: 3 }));
    }
}
