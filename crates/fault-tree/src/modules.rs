//! Module detection: gates whose cone is *independent* of the rest of the
//! tree (no element below the gate occurs anywhere else).
//!
//! Modules are the classical enabler of compositional fault-tree analysis
//! (Dutuit & Rauzy, 1996): a module can be analysed in isolation and its
//! result substituted as a virtual basic event. They also connect to the
//! paper's `IDP` operator — a module is independent (shares no
//! influencing basic events) of every disjoint part of the tree.
//!
//! Detection runs the Dutuit–Rauzy linear-time algorithm: one DFS from
//! the top stamps every element with its first visit, last visit and
//! completion times, and a gate is a module exactly when every visit to
//! its cone happened strictly inside the gate's own first-visit/completion
//! window. Shared-subtree DAGs are handled correctly: an element reached
//! from two branches is re-stamped on the later arrival, pushing its last
//! visit outside the earlier branch's window. One decomposition serves
//! any number of per-gate queries in O(1) each.

use crate::model::{ElementId, FaultTree};

/// The result of the linear-time Dutuit–Rauzy decomposition: DFS visit
/// windows for every element, answering per-gate module queries in O(1).
///
/// # Example
///
/// ```
/// use bfl_fault_tree::{corpus, modules::Decomposition};
/// let tree = corpus::covid();
/// let d = Decomposition::new(&tree);
/// // The top is always a module; `CP` shares `IW` with other branches.
/// assert!(d.is_module(tree.top()));
/// assert!(!d.is_module(tree.element("CP").unwrap()));
/// ```
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Time of the first arrival at each element.
    first: Vec<u64>,
    /// Time of the latest arrival (re-stamped on every revisit).
    last: Vec<u64>,
    /// Completion time: stamped after the element's cone was explored.
    post: Vec<u64>,
    /// Minimum `first` over the element's *proper* descendants
    /// (`u64::MAX` for basic events).
    min_first: Vec<u64>,
    /// Maximum `last` over the element's proper descendants (`0` for
    /// basic events). Recomputed bottom-up after the DFS, so revisits
    /// from *later* branches are visible to earlier ones.
    max_last: Vec<u64>,
}

impl Decomposition {
    /// Runs the decomposition: one DFS plus one reverse-topological
    /// aggregation pass — `O(V + E)` total.
    pub fn new(tree: &FaultTree) -> Self {
        let n = tree.len();
        let mut first = vec![0u64; n];
        let mut last = vec![0u64; n];
        let mut post = vec![0u64; n];
        let mut clock = 0u64;
        // Iterative DFS from the top; children explored on first arrival
        // only, revisits just re-stamp `last`. `finish_order` records
        // completion order (children always complete before parents).
        let mut finish_order: Vec<ElementId> = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(ElementId, bool)> = vec![(tree.top(), false)];
        while let Some((x, expanded)) = stack.pop() {
            let xi = x.index();
            if expanded {
                clock += 1;
                post[xi] = clock;
                finish_order.push(x);
                continue;
            }
            clock += 1;
            if visited[xi] {
                last[xi] = clock;
                continue;
            }
            visited[xi] = true;
            first[xi] = clock;
            last[xi] = clock;
            stack.push((x, true));
            // Reverse order so children are explored in declaration order.
            for &c in tree.children(x).iter().rev() {
                stack.push((c, false));
            }
        }
        // Bottom-up aggregates over proper descendants. `finish_order`
        // is a reverse-topological order of the reachable DAG, so every
        // child's aggregate is final when its parents fold it in.
        let mut min_first = vec![u64::MAX; n];
        let mut max_last = vec![0u64; n];
        for &g in &finish_order {
            let gi = g.index();
            for &c in tree.children(g) {
                let ci = c.index();
                min_first[gi] = min_first[gi].min(first[ci]).min(min_first[ci]);
                max_last[gi] = max_last[gi].max(last[ci]).max(max_last[ci]);
            }
        }
        Decomposition {
            first,
            last,
            post,
            min_first,
            max_last,
        }
    }

    /// Whether `gate` is a module: every visit to its proper descendants
    /// happened strictly between the gate's first arrival and its
    /// completion, i.e. nothing below the gate is reachable from outside
    /// its cone. Basic events are trivially modules.
    pub fn is_module(&self, gate: ElementId) -> bool {
        let gi = gate.index();
        if self.min_first[gi] == u64::MAX {
            return true; // no descendants: a basic event
        }
        self.min_first[gi] > self.first[gi] && self.max_last[gi] < self.post[gi]
    }

    /// The DFS visit window `(first, post)` of an element — exposed for
    /// diagnostics and tests.
    pub fn window(&self, e: ElementId) -> (u64, u64) {
        (self.first[e.index()], self.post[e.index()])
    }

    /// The latest arrival time at an element (revisits re-stamp it).
    pub fn last_visit(&self, e: ElementId) -> u64 {
        self.last[e.index()]
    }
}

/// Returns all gates that are modules of `tree`, in declaration order.
/// The top element is always a module.
///
/// A gate `g` is a *module* when every element in its cone (its proper
/// descendants) is reachable from outside the cone only through `g` —
/// correct on shared-subtree DAGs: a gate whose descendant set overlaps
/// another branch is not a module.
///
/// # Example
///
/// ```
/// use bfl_fault_tree::{corpus, modules};
/// let tree = corpus::fig1();
/// let mods = modules::modules(&tree);
/// let names: Vec<&str> = mods.iter().map(|&g| tree.name(g)).collect();
/// // No shared events in Fig. 1: every gate is a module.
/// assert_eq!(names, vec!["CP", "CR", "CP/R"]);
/// ```
pub fn modules(tree: &FaultTree) -> Vec<ElementId> {
    let d = Decomposition::new(tree);
    tree.gates().filter(|&g| d.is_module(g)).collect()
}

/// Whether a single gate is a module (see [`modules`]). Runs a full
/// decomposition; batch callers should hold a [`Decomposition`] and query
/// it directly.
pub fn is_module(tree: &FaultTree, gate: ElementId) -> bool {
    Decomposition::new(tree).is_module(gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corpus, FaultTreeBuilder, GateType};

    fn names(tree: &FaultTree, mods: &[ElementId]) -> Vec<String> {
        mods.iter().map(|&g| tree.name(g).to_string()).collect()
    }

    #[test]
    fn top_is_always_a_module() {
        for tree in [corpus::fig1(), corpus::covid(), corpus::or2()] {
            assert!(is_module(&tree, tree.top()), "{}", tree.name(tree.top()));
        }
    }

    #[test]
    fn fig1_every_gate_is_a_module() {
        let tree = corpus::fig1();
        assert_eq!(names(&tree, &modules(&tree)), vec!["CP", "CR", "CP/R"]);
    }

    #[test]
    fn covid_shared_events_break_modularity() {
        let tree = corpus::covid();
        let mods = modules(&tree);
        let mod_names = names(&tree, &mods);
        // IWoS is a module (it is the top); CP is not (IW is shared with
        // CIW, DT, AT, CVT); CR is not (IT shared with CIO).
        assert!(mod_names.contains(&"IWoS".to_string()));
        assert!(!mod_names.contains(&"CP".to_string()));
        assert!(!mod_names.contains(&"CR".to_string()));
        assert!(!mod_names.contains(&"SH".to_string())); // H1 is shared
    }

    #[test]
    fn shared_gate_is_not_inside_two_modules() {
        // top = AND(g1, g2); g1 = OR(shared, a); g2 = OR(shared, b);
        // shared = AND(x, y). Neither g1 nor g2 is a module, but shared is.
        let mut b = FaultTreeBuilder::new();
        b.basic_events(["a", "b", "x", "y"]).unwrap();
        b.gate("shared", GateType::And, ["x", "y"]).unwrap();
        b.gate("g1", GateType::Or, ["shared", "a"]).unwrap();
        b.gate("g2", GateType::Or, ["shared", "b"]).unwrap();
        b.gate("top", GateType::And, ["g1", "g2"]).unwrap();
        let tree = b.build("top").unwrap();
        let mod_names = names(&tree, &modules(&tree));
        assert_eq!(mod_names, vec!["shared", "top"]);
    }

    /// Regression: a basic event shared between two branches of a DAG
    /// breaks the modularity of *both* enclosing gates — including the
    /// branch the DFS explores first, whose window closes before the
    /// second branch revisits the shared leaf.
    #[test]
    fn shared_basic_event_breaks_both_branches() {
        // top = AND(g1, g2); g1 = OR(x, a); g2 = OR(x, b) — x is shared.
        let mut b = FaultTreeBuilder::new();
        b.basic_events(["x", "a", "b"]).unwrap();
        b.gate("g1", GateType::Or, ["x", "a"]).unwrap();
        b.gate("g2", GateType::Or, ["x", "b"]).unwrap();
        b.gate("top", GateType::And, ["g1", "g2"]).unwrap();
        let tree = b.build("top").unwrap();
        let g1 = tree.element("g1").unwrap();
        let g2 = tree.element("g2").unwrap();
        assert!(!is_module(&tree, g1), "g1 shares x with g2");
        assert!(!is_module(&tree, g2), "g2 shares x with g1");
        assert!(is_module(&tree, tree.top()));
        assert_eq!(names(&tree, &modules(&tree)), vec!["top"]);
    }

    /// The linear-time detector agrees with the quadratic parents-based
    /// check on every gate of every corpus tree.
    #[test]
    fn agrees_with_parents_based_reference() {
        fn reference(tree: &FaultTree, gate: ElementId) -> bool {
            let mut parents: Vec<Vec<ElementId>> = vec![Vec::new(); tree.len()];
            for g in tree.gates() {
                for &c in tree.children(g) {
                    parents[c.index()].push(g);
                }
            }
            let mut in_cone = vec![false; tree.len()];
            let mut stack: Vec<ElementId> = tree.children(gate).to_vec();
            while let Some(x) = stack.pop() {
                if in_cone[x.index()] {
                    continue;
                }
                in_cone[x.index()] = true;
                stack.extend(tree.children(x).iter().copied());
            }
            tree.iter().filter(|x| in_cone[x.index()]).all(|x| {
                parents[x.index()]
                    .iter()
                    .all(|&p| p == gate || in_cone[p.index()])
            })
        }
        for tree in [
            corpus::or2(),
            corpus::fig1(),
            corpus::table1_tree(),
            corpus::covid(),
            corpus::pressure_tank(),
            corpus::attack_tree(),
            corpus::chain(5),
        ] {
            let d = Decomposition::new(&tree);
            for g in tree.gates() {
                assert_eq!(
                    d.is_module(g),
                    reference(&tree, g),
                    "{} in tree with top {}",
                    tree.name(g),
                    tree.name(tree.top())
                );
            }
        }
    }

    #[test]
    fn module_is_idp_of_disjoint_parts() {
        // Cross-check with the logic's IDP notion: a module's cone shares
        // no basic events with the rest, so the module gate and any gate
        // outside its cone with disjoint leaves are independent.
        let tree = corpus::fig1();
        // CP and CR are both modules with disjoint cones.
        let cp_cone = tree.basic_events_under(tree.element("CP").unwrap());
        let cr_cone = tree.basic_events_under(tree.element("CR").unwrap());
        assert!(cp_cone.iter().all(|e| !cr_cone.contains(e)));
    }
}
