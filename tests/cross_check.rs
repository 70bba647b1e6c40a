//! Randomised cross-checks: the BDD model checker against the naive
//! reference semantics on seeded random trees, formulae and vectors,
//! plus structural invariants of the analyses.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use bfl::ft::generator::{random_tree, RandomTreeConfig};
use bfl::ft::rng::Prng;
use bfl::logic::semantics;
use bfl::prelude::*;

mod common;
use common::random_formula;

/// Random cases per property.
const CASES: usize = 48;

/// A random tree with 6 basic events (`be0..be5`) and 4 gates
/// (`g0..g3`).
fn small_tree(seed: u64, vot_probability: f64) -> FaultTree {
    random_tree(&RandomTreeConfig {
        num_basic: 6,
        num_gates: 4,
        max_children: 3,
        vot_probability,
        seed,
    })
}

/// One seeded case: its generator, a tree (a fifth of the gates VOT)
/// from one of 5000 seeds, a formula over the tree's elements at most
/// three operators deep, and a status vector.
struct Case {
    rng: Prng,
    tree: FaultTree,
    phi: Formula,
    b: StatusVector,
}

fn cases(salt: u64) -> impl Iterator<Item = Case> {
    let mut seeds = Prng::seed_from_u64(salt);
    (0..CASES).map(move |_| {
        let mut rng = Prng::seed_from_u64(seeds.next_u64());
        let tree = small_tree(rng.gen_range(0..5000) as u64, 0.2);
        let names: Vec<String> = tree.iter().map(|e| tree.name(e).to_string()).collect();
        let basics: Vec<String> = tree
            .basic_events()
            .iter()
            .map(|&e| tree.name(e).to_string())
            .collect();
        let phi = random_formula(&mut rng, &names, &basics, 3);
        let bits = rng.gen_range(0..64);
        let b = StatusVector::from_bits((0..6).map(|i| (bits >> i) & 1 == 1));
        Case { rng, tree, phi, b }
    })
}

/// Algorithm 2 agrees with the reference semantics on every vector.
#[test]
fn checker_matches_reference() {
    for Case { tree, phi, b, .. } in cases(1) {
        let mut mc = ModelChecker::new(&tree);
        let fast = mc.holds(&b, &phi).unwrap();
        let slow = semantics::eval(&tree, &b, &phi).unwrap();
        assert_eq!(fast, slow, "{phi} at {b}");
    }
}

/// Algorithm 3 agrees with exhaustive enumeration.
#[test]
fn satisfying_vectors_match_reference() {
    for Case { tree, phi, .. } in cases(2) {
        let mut mc = ModelChecker::new(&tree);
        let fast = mc.satisfying_vectors(&phi).unwrap();
        let mut slow = semantics::satisfying_vectors(&tree, &phi).unwrap();
        slow.sort();
        assert_eq!(fast.len() as u128, mc.count_satisfying(&phi).unwrap());
        assert_eq!(fast, slow, "{phi}");
    }
}

/// Layer-2 queries agree with exhaustive enumeration.
#[test]
fn queries_match_reference() {
    for Case { tree, phi, .. } in cases(3) {
        let mut mc = ModelChecker::new(&tree);
        for q in [Query::Exists(phi.clone()), Query::Forall(phi.clone())] {
            let fast = mc.check_query(&q).unwrap();
            let slow = semantics::eval_query(&tree, &q).unwrap();
            assert_eq!(fast, slow, "{q}");
        }
    }
}

/// IBE via BDD support equals the definitional IBE.
#[test]
fn ibe_matches_reference() {
    for Case { tree, phi, .. } in cases(4) {
        let mut mc = ModelChecker::new(&tree);
        let fast = mc.influencing_basic_events(&phi).unwrap();
        let slow = semantics::influencing_basic_events(&tree, &phi).unwrap();
        // Reference returns basic-index order; ours too.
        assert_eq!(fast, slow, "{phi}");
    }
}

/// Algorithm 4 always returns a Definition-7-valid counterexample when
/// the formula is satisfiable.
#[test]
fn counterexamples_are_valid() {
    for Case { tree, phi, b, .. } in cases(5) {
        let mut mc = ModelChecker::new(&tree);
        match counterexample(&mut mc, &b, &phi).unwrap() {
            Counterexample::Found(v) => {
                assert!(
                    is_valid_counterexample(&mut mc, &b, &v, &phi).unwrap(),
                    "{phi} at {b} gave {v}"
                );
            }
            Counterexample::AlreadySatisfies => {
                assert!(mc.holds(&b, &phi).unwrap());
            }
            Counterexample::Unsatisfiable => {
                assert!(mc.satisfying_vectors(&phi).unwrap().is_empty());
            }
        }
    }
}

/// MCS/MPS of random trees: the ZDD engine, the paper's primed
/// construction and the exhaustive reference all agree, and so do the
/// ZDD counts.
#[test]
fn mcs_engines_agree() {
    use bfl::ft::analysis;
    for Case { tree, .. } in cases(6) {
        let top = tree.top();
        let mcs = analysis::minimal_cut_sets(&tree, top);
        assert_eq!(mcs, analysis::minimal_cut_sets_paper(&tree, top));
        assert_eq!(mcs, analysis::minimal_cut_sets_naive(&tree, top));
        assert_eq!(
            Some(mcs.len() as u128),
            analysis::count_minimal_cut_sets(&tree, top)
        );
        let mps = analysis::minimal_path_sets(&tree, top);
        assert_eq!(mps, analysis::minimal_path_sets_paper(&tree, top));
        assert_eq!(mps, analysis::minimal_path_sets_naive(&tree, top));
        assert_eq!(
            Some(mps.len() as u128),
            analysis::count_minimal_path_sets(&tree, top)
        );
    }
}

/// Duality: the MPSs of a tree are the MCSs of its dual (AND↔OR), for
/// trees without VOT gates. The dual is built here by hand, independently
/// of the engine's own `dual_tree`.
#[test]
fn mps_equals_mcs_of_dual() {
    use bfl::ft::analysis;
    let mut rng = Prng::seed_from_u64(7);
    for _ in 0..CASES {
        let tree = small_tree(rng.gen_range(0..2000) as u64, 0.0);
        let mut b = FaultTreeBuilder::new();
        for &e in tree.basic_events() {
            b.basic_event(tree.name(e)).unwrap();
        }
        for g in tree.gates() {
            let dual_type = match tree.gate_type(g).unwrap() {
                GateType::And => GateType::Or,
                GateType::Or => GateType::And,
                GateType::Vot { .. } => unreachable!("vot_probability = 0"),
            };
            let children: Vec<&str> = tree.children(g).iter().map(|&c| tree.name(c)).collect();
            b.gate(tree.name(g), dual_type, children).unwrap();
        }
        let dual = b.build(tree.name(tree.top())).unwrap();
        assert_eq!(
            analysis::minimal_path_sets_paper(&tree, tree.top()),
            analysis::minimal_cut_sets(&dual, dual.top())
        );
        assert_eq!(
            analysis::minimal_path_sets(&tree, tree.top()),
            analysis::minimal_cut_sets_paper(&dual, dual.top())
        );
    }
}

/// The DSL round-trips every generated formula.
#[test]
fn dsl_roundtrip() {
    for Case { phi, .. } in cases(8) {
        let printed = phi.to_string();
        let parsed = parse_formula(&printed).unwrap();
        assert_eq!(phi, parsed, "printed `{printed}`");
    }
}

/// Rewrites preserve semantics: desugaring, NNF and simplification all
/// compile to the same BDD as the original (canonicity gives semantic
/// equality).
#[test]
fn rewrites_preserve_semantics() {
    use bfl::logic::rewrite;
    for Case { tree, phi, .. } in cases(9) {
        let mut mc = ModelChecker::new(&tree);
        let original = mc.formula_bdd(&phi).unwrap();
        for rewritten in [
            rewrite::desugar(&phi),
            rewrite::to_nnf(&phi),
            rewrite::simplify(&phi),
        ] {
            let f = mc.formula_bdd(&rewritten).unwrap();
            assert_eq!(original, f, "{phi} vs {rewritten}");
        }
    }
}

/// Galileo round-trips random trees structurally (same MCS).
#[test]
fn galileo_roundtrip() {
    use bfl::ft::{analysis, galileo};
    for Case { tree, .. } in cases(10) {
        let text = galileo::to_galileo(&tree, None);
        let model = galileo::parse(&text).unwrap();
        assert_eq!(
            analysis::minimal_cut_sets_names(&tree, tree.top()),
            analysis::minimal_cut_sets_names(&model.tree, model.tree.top())
        );
    }
}

/// Probability via BDD equals the exhaustive sum on random trees.
#[test]
fn probability_matches_reference() {
    use bfl::ft::prob;
    for Case { mut rng, tree, .. } in cases(12) {
        let n = tree.num_basic_events();
        let probs: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0..1000) as f64 / 1000.0)
            .collect();
        let fast = prob::top_event_probability(&tree, &probs).unwrap();
        let slow = prob::probability_naive(&tree, tree.top(), &probs).unwrap();
        assert!((fast - slow).abs() < 1e-9, "fast={fast} slow={slow}");
    }
}
