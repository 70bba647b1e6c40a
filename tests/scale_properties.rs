//! Metamorphic properties of the scaled industrial corpus and its BDD
//! construction.
//!
//! The `corpus::scaled` family is generated, not hand-written, so these
//! tests pin down relations that must hold for *any* correct generator
//! and compiler rather than expected outputs:
//!
//! * **monotone coherence** — failing more basic events never repairs
//!   the top event (generated trees use only AND/OR/VOT, all monotone);
//! * **module-local probability factorization** — replacing each
//!   top-level module by a fresh basic event carrying the module's
//!   exact BDD probability leaves `P(top)` unchanged;
//! * **a clean arena after stitching** — compiling a module-rich tree
//!   leaves an arena that audits clean and a top that evaluates as the
//!   tree does;
//! * **witnesses at scale** — `exists top` on a 1000-event tree returns
//!   its bounded witness list, each a genuine failure vector;
//! * **one answer from two constructions** — on the shipped 400-event
//!   model the ZDD engine and the logic's `⟦MCS(top)⟧` (the primed
//!   construction of Algorithm 1) list the same 30,922 minimal cut sets;
//! * **little compile garbage** — compiling scaled-1000, -5000 and
//!   -10000 and industrial-400 under both orderings allocates at most
//!   1.2 arena nodes per live node, and the live diagram is the one
//!   `BENCH_scale.json` records.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use bfl_core::engine::AnalysisSession;
use bfl_core::{parser, ModelChecker, Scenario};
use bfl_fault_tree::bdd::TreeBdd;
use bfl_fault_tree::rng::Prng;
use bfl_fault_tree::{corpus, modules, prob};
use bfl_fault_tree::{FaultTreeBuilder, GateType, StatusVector, VariableOrdering};

/// Pseudo-random status vector with each basic event failed with
/// probability ~`num/denom`.
fn random_vector(rng: &mut Prng, len: usize, num: usize, denom: usize) -> StatusVector {
    StatusVector::from_bits((0..len).map(|_| rng.gen_range(0..denom) < num))
}

#[test]
fn monotone_coherence_failing_more_never_unfails_top() {
    let tree = corpus::scaled(1_000);
    let n = tree.num_basic_events();
    let mut rng = Prng::seed_from_u64(0xC0_4E7E);
    for _ in 0..40 {
        let base = random_vector(&mut rng, n, 3, 10);
        let before = tree.evaluate(&base, tree.top());
        // Flip a handful of operational events to failed: a superset of
        // failures. Coherence: top can only go false -> true.
        let mut worse = base.clone();
        for _ in 0..8 {
            worse.set(rng.gen_range(0..n), true);
        }
        let after = tree.evaluate(&worse, tree.top());
        assert!(
            after || !before,
            "failing more events un-failed the top event"
        );
    }
}

#[test]
fn module_probabilities_factorize_through_a_quotient_tree() {
    let model = corpus::scaled_model(1_000);
    let tree = &model.tree;
    let probs: Vec<f64> = model.probabilities.iter().map(|p| p.unwrap()).collect();

    let mut tb = TreeBdd::new(tree, VariableOrdering::DfsPreorder);
    let top = tb.element_bdd(tree, tree.top());
    let p_top = prob::bdd_probability(tree, &tb, top, &probs).expect("probs valid");

    // The generator's top gate is an OR over pairwise-independent module
    // roots; each must be a module of the whole tree.
    let all_modules = modules::modules(tree);
    let roots: Vec<_> = tree.children(tree.top()).to_vec();
    assert!(roots.len() > 1);
    let mut quotient_probs = Vec::new();
    let mut b = FaultTreeBuilder::new();
    for (i, &root) in roots.iter().enumerate() {
        assert!(
            all_modules.contains(&root),
            "top child {} is not a module",
            tree.name(root)
        );
        let f = tb.element_bdd(tree, root);
        quotient_probs.push(prob::bdd_probability(tree, &tb, f, &probs).unwrap());
        b.basic_event(&format!("q{i}")).unwrap();
    }
    // Quotient tree: each module collapsed to one basic event with the
    // module's exact failure probability.
    b.gate(
        "top",
        GateType::Or,
        (0..roots.len()).map(|i| format!("q{i}")),
    )
    .unwrap();
    let quotient = b.build("top").unwrap();
    let p_quotient = prob::top_event_probability(&quotient, &quotient_probs).unwrap();

    let rel = (p_top - p_quotient).abs() / p_top.max(f64::MIN_POSITIVE);
    assert!(
        rel < 1e-12,
        "factorization broke: P(top) = {p_top}, quotient = {p_quotient}"
    );
}

#[test]
fn stitched_modules_compile_to_a_clean_arena() {
    // Module-rich: 4 independent cones of ~25 elements each, joined
    // under the top.
    let tree =
        bfl_fault_tree::generator::industrial_tree(&bfl_fault_tree::generator::IndustrialConfig {
            num_basic: 100,
            num_modules: 4,
            ..Default::default()
        });
    let roots = tree.children(tree.top());
    assert!(
        roots.len() >= 2 && roots.iter().all(|&r| modules::is_module(&tree, r)),
        "tree must join several independent modules"
    );
    let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
    let top = tb.element_bdd(&tree, tree.top());
    let audit = tb.manager().audit();
    assert!(audit.is_ok(), "arena after the compile: {audit}");

    let mut rng = Prng::seed_from_u64(0x51F7);
    for _ in 0..25 {
        let v = random_vector(&mut rng, tree.num_basic_events(), 1, 2);
        assert_eq!(
            tb.eval_vector(&tree, top, &v),
            tree.evaluate(&v, tree.top())
        );
    }
}

#[test]
fn exists_top_returns_bounded_witnesses_on_scaled_1000() {
    // Witnesses of `exists top` over 1000 events leave hundreds of
    // don't-care positions per BDD path; the default limit of 3 must
    // still come back promptly, each a real failure vector.
    let tree = corpus::scaled(1_000);
    let session = AnalysisSession::new(tree.clone());
    let prepared = session
        .prepare(&parser::parse_query("exists top").unwrap())
        .unwrap();
    let outcome = prepared.eval(&Scenario::new()).unwrap();
    assert!(outcome.holds);
    assert!(!outcome.witnesses.is_empty());
    assert!(outcome.witnesses.len() <= 3, "{}", outcome.witnesses.len());
    for w in &outcome.witnesses {
        assert!(tree.evaluate(w, tree.top()), "witness does not fail top");
    }
}

#[test]
fn zdd_and_primed_construction_agree_on_industrial_400() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/models/industrial-400.dft"
    );
    let text = std::fs::read_to_string(path).unwrap();
    let tree = bfl_fault_tree::galileo::parse(&text).unwrap().tree;
    let zdd = AnalysisSession::new(tree.clone())
        .minimal_cut_sets("top")
        .unwrap();
    assert_eq!(zdd.len(), 30_922);
    let primed = ModelChecker::new(&tree).minimal_cut_sets("top").unwrap();
    assert_eq!(zdd, primed);
}

#[test]
fn compile_allocates_a_small_multiple_of_the_live_diagram() {
    // Live counts are pinned (on the scaled trees, `BENCH_scale.json`'s
    // `live_nodes`, in its `declaration` objects for that ordering): the
    // bound must be met by dropping garbage, never diagram. Gates fold
    // their children deepest first, so each child is built once and at
    // most 1.09 arena nodes per live node remain here; a balanced
    // pairwise fold leaves 1.59–2.12, a left fold up to 22.4. Arena
    // sizes are pinned too (`arena_nodes`): the computed table is lossy,
    // and a miss may only recompute nodes that already exist, never add
    // one.
    let industrial = {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/examples/models/industrial-400.dft"
        );
        let text = std::fs::read_to_string(path).unwrap();
        bfl_fault_tree::galileo::parse(&text).unwrap().tree
    };
    let cases = [
        (
            "scaled-1000",
            corpus::scaled(1_000),
            (7_494, 8_072),
            (7_962, 8_505),
        ),
        (
            "scaled-5000",
            corpus::scaled(5_000),
            (34_667, 37_479),
            (36_811, 40_101),
        ),
        (
            "scaled-10000",
            corpus::scaled(10_000),
            (67_537, 73_234),
            (70_723, 75_870),
        ),
        ("industrial-400", industrial, (3_420, 3_732), (3_177, 3_426)),
    ];
    const MAX_RATIO: f64 = 1.2;
    for (name, tree, dfs, declaration) in cases {
        for (ordering, (expect_live, expect_arena)) in [
            (VariableOrdering::DfsPreorder, dfs),
            (VariableOrdering::Declaration, declaration),
        ] {
            let mut tb = TreeBdd::new(&tree, ordering);
            let _ = tb.element_bdd(&tree, tree.top());
            let live = tb.live_node_count(&[]);
            assert_eq!(
                live, expect_live,
                "{name} {ordering:?}: live diagram changed"
            );
            let arena = tb.manager().arena_size();
            assert_eq!(arena, expect_arena, "{name} {ordering:?}: arena changed");
            let ratio = arena as f64 / live as f64;
            assert!(
                ratio <= MAX_RATIO,
                "{name} {ordering:?}: {ratio:.2} arena nodes per live node (bound {MAX_RATIO})"
            );
        }
    }
}
