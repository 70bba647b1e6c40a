//! Cross-checks for the compiled query-plan layer: `prepare`/`eval`/
//! `sweep` must agree **exactly** — verdicts, witnesses,
//! counterexamples, shared events — with the classic path that wraps the
//! query in evidence operators and recompiles it per scenario; and after
//! `prepare`, a sweep must never rebuild a BDD (no formula-translation
//! misses) nor leave a node behind (every what-if rolls the arena back).

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bfl::bdd::Var;
use bfl::prelude::*;
use bfl_core::quant::MIN_CONDITIONING_PROBABILITY;
use bfl_fault_tree::bdd::TreeBdd;
use bfl_fault_tree::generator::{
    industrial_model, random_tree, IndustrialConfig, RandomTreeConfig,
};
use bfl_fault_tree::rng::Prng;

mod common;
use common::{random_formula, random_scenario};

/// All scenario/evidence cross-checks compare these two paths:
/// the prepared query evaluated under `scenario` (BDD restriction),
/// versus the session re-checking the evidence-specialised query
/// (AST rewriting + compile).
fn assert_paths_agree(session: &AnalysisSession, q: &Query, scenario: &Scenario) {
    let prepared = session.prepare(q).expect("prepare");
    let fast = prepared.eval(scenario).expect("eval");
    assert_agrees_with_recompile(&fast, session, q, scenario);
}

/// `fast` (a prepared evaluation of `q` under `scenario`) against
/// `reference` re-checking the evidence-specialised query.
fn assert_agrees_with_recompile(
    fast: &Outcome,
    reference: &AnalysisSession,
    q: &Query,
    scenario: &Scenario,
) {
    let top = reference.tree().name(reference.tree().top()).to_string();
    let slow = reference
        .check_query(&scenario.specialise_query(q, &top))
        .expect("check_query");
    assert_eq!(fast.holds, slow.holds, "{q} under {scenario}");
    assert_eq!(fast.witnesses, slow.witnesses, "{q} under {scenario}");
    assert_eq!(
        fast.counterexamples, slow.counterexamples,
        "{q} under {scenario}"
    );
    assert_eq!(
        fast.shared_events, slow.shared_events,
        "{q} under {scenario}"
    );
    assert_eq!(fast.importance, slow.importance, "{q} under {scenario}");
    assert_eq!(fast.causes, slow.causes, "{q} under {scenario}");
}

#[test]
fn covid_case_study_scenarios_agree_with_evidence_path() {
    let session = AnalysisSession::new(bfl::ft::corpus::covid());
    let queries = [
        "exists IWoS",
        "forall IS => MoT",
        "forall MoT => H1 | H2 | H3 | H4 | H5",
        "exists MCS(IWoS) & H4",
        "exists MPS(IWoS)",
        "forall VOT(>=2; H1, H2, H3, H4, H5) => IWoS",
        "IDP(CIO, CIS)",
        "SUP(PP)",
    ];
    // The baseline, every single-event hypothesis (both polarities) and a
    // few compound what-ifs.
    let mut scenarios = vec![Scenario::new()];
    for name in session.tree().basic_event_names() {
        scenarios.push(Scenario::new().bind(name, true));
        scenarios.push(Scenario::new().bind(name, false));
    }
    scenarios.push(Scenario::from_pairs([("IW", true), ("H5", false)]));
    scenarios.push(Scenario::from_pairs([
        ("VW", false),
        ("H1", true),
        ("H2", true),
    ]));
    scenarios.push(Scenario::from_pairs([
        ("IT", false),
        ("UT", false),
        ("IW", false),
    ]));

    for src in queries {
        let q = parse_query(src).unwrap();
        for scenario in &scenarios {
            assert_paths_agree(&session, &q, scenario);
        }
    }
}

#[test]
fn randomized_trees_and_formulas_agree_with_evidence_path() {
    let mut rng = Prng::seed_from_u64(0xC0FFEE);
    for seed in 0..8u64 {
        let tree = random_tree(&RandomTreeConfig {
            num_basic: 8,
            num_gates: 5,
            max_children: 3,
            vot_probability: 0.2,
            seed: 0x5EED + seed,
        });
        let names: Vec<String> = tree.iter().map(|e| tree.name(e).to_string()).collect();
        let basics: Vec<String> = tree
            .basic_event_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let session = AnalysisSession::new(tree);
        for _ in 0..4 {
            let phi = random_formula(&mut rng, &names, &basics, 3);
            let q = match rng.gen_range(0..3) {
                0 => Query::exists(phi),
                1 => Query::forall(phi),
                _ => Query::idp(phi, random_formula(&mut rng, &names, &basics, 2)),
            };
            for _ in 0..4 {
                let scenario = random_scenario(&mut rng, &basics);
                assert_paths_agree(&session, &q, &scenario);
            }
        }
    }
}

#[test]
fn sweep_rebuilds_zero_bdds_after_prepare() {
    let session = AnalysisSession::new(bfl::ft::corpus::covid());
    let prepared = session
        .prepare(&parse_query("exists MCS(IWoS) & H4").unwrap())
        .unwrap();
    let misses_after_prepare = session.stats().cache_misses;

    // Sweep every single-event what-if, twice.
    let names: Vec<&str> = session.tree().basic_event_names();
    let set = ScenarioSet::singletons(names, true);
    let n = set.len() as u64;

    let first = prepared.sweep(&set).unwrap();
    // No formula was (re)compiled: evidence is restriction, not AST
    // rewriting. "Cache hits only" — every evaluation missed only the
    // scenario memo, never the translation cache.
    assert_eq!(first.stats.translation_misses, 0);
    assert_eq!(first.stats.memo_misses, n);
    assert_eq!(first.stats.memo_hits, 0);
    assert_eq!(session.stats().cache_misses, misses_after_prepare);

    let second = prepared.sweep(&set).unwrap();
    // The repeat sweep is pure cache lookups: zero restrictions, zero
    // node growth across scenarios.
    assert_eq!(second.stats.memo_misses, 0);
    assert_eq!(second.stats.memo_hits, n);
    assert_eq!(second.stats.translation_misses, 0);
    assert_eq!(second.stats.arena_growth(), 0);
    for o in &second.outcomes {
        assert_eq!(o.stats.cache_misses, 0);
        assert_eq!(o.stats.cache_hits, 1);
    }

    // Same verdicts, in scenario order, both times.
    let v1: Vec<bool> = first.outcomes.iter().map(|o| o.holds).collect();
    let v2: Vec<bool> = second.outcomes.iter().map(|o| o.holds).collect();
    assert_eq!(v1, v2);
}

#[test]
fn sweep_matches_one_by_one_eval_and_is_thread_consistent() {
    let session = AnalysisSession::new(bfl::ft::corpus::covid());
    let prepared = std::sync::Arc::new(
        session
            .prepare(&parse_query("forall IS => MoT").unwrap())
            .unwrap(),
    );
    let set = ScenarioSet::parse("baseline:\nh1: H1 = 1\nh5-off: H5 = 0\npair: IW = 1, H3 = 0\n")
        .unwrap();
    let report = prepared.sweep(&set).unwrap();
    assert_eq!(report.outcomes.len(), set.len());
    for (scenario, outcome) in set.iter().zip(&report.outcomes) {
        let direct = prepared.eval(scenario).unwrap();
        assert_eq!(direct.holds, outcome.holds, "{scenario}");
        assert_eq!(direct.counterexamples, outcome.counterexamples);
    }

    // The prepared handle is Send + Sync: hammer it from threads and
    // check everyone sees the same verdicts.
    let expected: Vec<bool> = report.outcomes.iter().map(|o| o.holds).collect();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let p = std::sync::Arc::clone(&prepared);
            let set = set.clone();
            std::thread::spawn(move || {
                set.iter()
                    .map(|s| p.eval(s).unwrap().holds)
                    .collect::<Vec<bool>>()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), expected);
    }
}

#[test]
fn prepared_queries_share_the_session_translation_cache() {
    let session = AnalysisSession::new(bfl::ft::corpus::covid());
    let _first = session
        .prepare(&parse_query("exists MCS(IWoS)").unwrap())
        .unwrap();
    // A second prepare of the same query is answered from the shared
    // cache: zero new translations.
    let second = session
        .prepare(&parse_query("exists MCS(IWoS)").unwrap())
        .unwrap();
    assert_eq!(second.explain().prepare.cache_misses, 0);
    assert!(second.explain().prepare.cache_hits > 0);
}

/// `n` random what-ifs of 1–8 bindings each, events drawn with
/// repetition (the first binding of an event wins).
fn random_what_ifs(rng: &mut Prng, basics: &[String], n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|_| {
            let mut s = Scenario::new();
            for _ in 0..rng.gen_range(1..=8) {
                s = s.bind(
                    basics[rng.gen_range(0..basics.len())].clone(),
                    rng.gen_bool(0.5),
                );
            }
            s
        })
        .collect()
}

/// Every plan shape prepared once, 200 cold what-ifs on each: every
/// answer matches a recompile on a second session and every probability
/// matches, bit for bit, a from-scratch restriction and walk on a third
/// diagram, while the session's arena ends where it started.
fn what_ifs_leave_the_arena_as_they_found_it(
    tree: FaultTree,
    probs: Vec<f64>,
    (g1, g2): (&str, &str),
    seed: u64,
) {
    let basics: Vec<String> = tree
        .basic_event_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let top = tree.name(tree.top()).to_string();
    let build = || {
        AnalysisSession::builder()
            .witness_limit(3)
            .probabilities(probs.iter().map(|&p| Some(p)).collect())
            .build(tree.clone())
    };
    let (session, reference) = (build(), build());
    let atom = |n: &str| Formula::atom(n);
    let observed: Vec<(String, bool)> = basics
        .iter()
        .step_by(2)
        .map(|e| (e.clone(), true))
        .collect();
    let queries = [
        Query::exists(atom(&top)),
        Query::forall(atom(g2).implies(atom(g1))),
        Query::idp(atom(g1), atom(&top)),
        Query::prob_given(atom(g1), atom(&top), CmpOp::Le, 0.5).unwrap(),
        Query::importance(atom(g1)),
        Query::causes(atom(&top), observed, 2),
    ];
    let plans: Vec<PreparedQuery> = queries
        .iter()
        .map(|q| session.prepare(q).unwrap())
        .collect();
    let arena = session.stats().arena_nodes;

    let mut tb = TreeBdd::new(&tree, session.ordering());
    let top_f = tb.element_bdd(&tree, tree.top());
    let g1_f = tb.element_bdd(&tree, tree.element(g1).unwrap());
    let joint = tb.manager_mut().and(g1_f, top_f);
    let mut weights = vec![0.0; tb.manager().num_vars() as usize];
    for (bi, &p) in probs.iter().enumerate() {
        weights[tb.var_of_basic(bi).index() as usize] = p;
    }

    let mut rng = Prng::seed_from_u64(seed);
    for scenario in random_what_ifs(&mut rng, &basics, 200) {
        for (q, plan) in queries.iter().zip(&plans) {
            let fast = plan.eval(&scenario).unwrap();
            assert_agrees_with_recompile(&fast, &reference, q, &scenario);
        }
        let pins: Vec<(Var, bool)> = scenario
            .bindings()
            .iter()
            .map(|(name, v)| {
                let bi = tree.basic_index(tree.element(name).unwrap()).unwrap();
                (tb.var_of_basic(bi), *v)
            })
            .collect();
        let mut exact = |f| {
            let r = tb.manager_mut().restrict_many(f, &pins);
            tb.manager().probability(r, |v| weights[v.index() as usize])
        };
        let (p_top, p_joint) = (exact(top_f), exact(joint));
        let bits = |p: f64| p.to_bits();
        let p = plans[0].probability(&scenario).unwrap();
        assert_eq!(bits(p), bits(p_top), "P({top}) under {scenario}");
        let Some(ProbValue::Interval(iv)) = plans[0]
            .probability_value(&scenario, Some(Method::Interval))
            .unwrap()
        else {
            panic!("interval method answers with an interval");
        };
        assert_eq!((bits(iv.lo), bits(iv.hi)), (bits(p_top), bits(p_top)));
        let conditional = (p_top >= MIN_CONDITIONING_PROBABILITY).then(|| p_joint / p_top);
        let o = plans[3].eval(&scenario).unwrap();
        assert_eq!(o.probability.map(bits), conditional.map(bits), "{scenario}");
        let p = plans[3].probability(&scenario).ok();
        assert_eq!(p.map(bits), conditional.map(bits), "{scenario}");
    }
    assert_eq!(
        session.stats().arena_nodes,
        arena,
        "what-ifs left nodes behind"
    );
}

#[test]
fn covid_what_ifs_leave_the_arena_as_they_found_it() {
    let tree = bfl::ft::corpus::covid();
    let probs = (0..tree.num_basic_events())
        .map(|i| 0.02 + i as f64 * 0.05)
        .collect();
    what_ifs_leave_the_arena_as_they_found_it(tree, probs, ("MoT", "IS"), 0xC0_1D);
}

#[test]
fn generated_tree_what_ifs_leave_the_arena_as_they_found_it() {
    let model = industrial_model(&IndustrialConfig {
        num_basic: 200,
        num_modules: 4,
        seed: 0x0DD_5EED,
        ..IndustrialConfig::default()
    });
    let tree = model.tree;
    let g1 = tree.children(tree.top())[0];
    let g2 = tree.children(g1)[0];
    let (g1, g2) = (tree.name(g1).to_string(), tree.name(g2).to_string());
    let probs = model
        .probabilities
        .into_iter()
        .map(Option::unwrap)
        .collect();
    what_ifs_leave_the_arena_as_they_found_it(tree, probs, (&g1, &g2), 0x7E57);
}
