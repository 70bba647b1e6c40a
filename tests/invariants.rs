//! Structural invariants of fault-tree analysis, checked on seeded random
//! trees and under random model mutations.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use bfl::ft::generator::{random_tree, RandomTreeConfig};
use bfl::ft::rng::Prng;
use bfl::prelude::*;

/// Random cases per property.
const CASES: usize = 64;

/// A random tree with 7 basic events and 5 gates.
fn small_tree(seed: u64, vot_probability: f64) -> FaultTree {
    random_tree(&RandomTreeConfig {
        num_basic: 7,
        num_gates: 5,
        max_children: 3,
        vot_probability,
        seed,
    })
}

/// `CASES` seeded draws: a generator for the case's other choices, and
/// a tree (a quarter of the gates VOT) from one of 3000 seeds.
fn cases(salt: u64) -> impl Iterator<Item = (Prng, FaultTree)> {
    let mut seeds = Prng::seed_from_u64(salt);
    (0..CASES).map(move |_| {
        let mut rng = Prng::seed_from_u64(seeds.next_u64());
        let tree = small_tree(rng.gen_range(0..3000) as u64, 0.25);
        (rng, tree)
    })
}

/// Coherence: fault trees are monotone — failing one more event never
/// repairs the top.
#[test]
fn structure_function_is_monotone() {
    for (mut rng, tree) in cases(1) {
        let bits = rng.gen_range(0..128);
        let b = StatusVector::from_bits((0..7).map(|i| (bits >> i) & 1 == 1));
        let more = b.with(rng.gen_range(0..7), true);
        let before = tree.evaluate(&b, tree.top());
        let after = tree.evaluate(&more, tree.top());
        assert!(!before || after, "failure repaired the top: {b} -> {more}");
    }
}

/// Every enumerated MCS is a minimal cut set, and every MPS vector a
/// minimal path set, per the Definition 3/4 predicates.
#[test]
fn enumerated_sets_satisfy_definitions() {
    use bfl::ft::analysis;
    for (_, tree) in cases(2) {
        let n = tree.num_basic_events();
        for set in analysis::minimal_cut_sets(&tree, tree.top()) {
            let mut b = StatusVector::all_operational(n);
            for i in set {
                b.set(i, true);
            }
            assert!(tree.is_minimal_cut_set(&b, tree.top()), "{b}");
        }
        for set in analysis::minimal_path_sets(&tree, tree.top()) {
            let mut b = StatusVector::all_failed(n);
            for i in set {
                b.set(i, false);
            }
            assert!(tree.is_minimal_path_set(&b, tree.top()), "{b}");
        }
    }
}

/// MCS families are antichains: no member contains another.
#[test]
fn mcs_family_is_an_antichain() {
    use bfl::ft::analysis;
    for (_, tree) in cases(3) {
        let sets = analysis::minimal_cut_sets(&tree, tree.top());
        for (i, a) in sets.iter().enumerate() {
            for b in sets.iter().skip(i + 1) {
                let a_in_b = a.iter().all(|x| b.contains(x));
                let b_in_a = b.iter().all(|x| a.contains(x));
                assert!(!a_in_b && !b_in_a, "{a:?} vs {b:?}");
            }
        }
    }
}

/// Mutation robustness: flipping one gate's type still yields a valid
/// tree on which the ZDD engine, the primed construction and the
/// exhaustive reference agree.
#[test]
fn gate_flip_mutation_keeps_engines_consistent() {
    use bfl::ft::analysis;
    let mut rng = Prng::seed_from_u64(4);
    for _ in 0..CASES {
        let tree = small_tree(rng.gen_range(0..1500) as u64, 0.0);
        let which = rng.gen_range(0..5);
        // Rebuild with one gate's type flipped.
        let mut b = FaultTreeBuilder::new();
        for &e in tree.basic_events() {
            b.basic_event(tree.name(e)).unwrap();
        }
        for (gi, g) in tree.gates().enumerate() {
            let t = match tree.gate_type(g).unwrap() {
                GateType::And if gi == which => GateType::Or,
                GateType::Or if gi == which => GateType::And,
                t => t,
            };
            let children: Vec<&str> = tree.children(g).iter().map(|&c| tree.name(c)).collect();
            b.gate(tree.name(g), t, children).unwrap();
        }
        let mutated = b.build(tree.name(tree.top())).unwrap();
        let top = mutated.top();
        let mcs = analysis::minimal_cut_sets(&mutated, top);
        assert_eq!(mcs, analysis::minimal_cut_sets_naive(&mutated, top));
        assert_eq!(mcs, analysis::minimal_cut_sets_paper(&mutated, top));
        let mps = analysis::minimal_path_sets(&mutated, top);
        assert_eq!(mps, analysis::minimal_path_sets_naive(&mutated, top));
        assert_eq!(mps, analysis::minimal_path_sets_paper(&mutated, top));
    }
}

/// The top event probability is monotone in each basic-event
/// probability (coherent systems).
#[test]
fn probability_is_monotone() {
    use bfl::ft::prob;
    for (mut rng, tree) in cases(5) {
        let n = tree.num_basic_events();
        let base = vec![0.3; n];
        let p0 = prob::top_event_probability(&tree, &base).unwrap();
        let mut raised = base.clone();
        raised[rng.gen_range(0..7)] = 0.8;
        let p1 = prob::top_event_probability(&tree, &raised).unwrap();
        assert!(p1 >= p0 - 1e-12, "p0={p0} p1={p1}");
    }
}

/// Modules are sound: a module gate's cone shares no basic event with
/// the rest of the tree.
#[test]
fn modules_have_private_cones() {
    use bfl::ft::modules;
    for (_, tree) in cases(6) {
        for m in modules::modules(&tree) {
            if m == tree.top() {
                continue;
            }
            // Everything reachable from the module gate is "inside"; no
            // outside gate may reference an inside element except m.
            let mut inside = vec![false; tree.len()];
            let mut stack = vec![m];
            while let Some(x) = stack.pop() {
                if inside[x.index()] {
                    continue;
                }
                inside[x.index()] = true;
                stack.extend(tree.children(x).iter().copied());
            }
            for g in tree.gates() {
                if inside[g.index()] {
                    continue;
                }
                for &c in tree.children(g) {
                    assert!(
                        c == m || !inside[c.index()],
                        "module {} leaks {}",
                        tree.name(m),
                        tree.name(c)
                    );
                }
            }
        }
    }
}
