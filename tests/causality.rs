//! Differential and semantic validation of the actual-causality layer:
//! the BDD plan path (`PreparedQuery::cause` / `sweep_causes`) must agree
//! **exactly** — cause sets, totals, truncation — with the brute-force
//! enumeration over all candidate subsets (`semantics::actual_causes_naive`)
//! on seeded random trees; and every returned cause must satisfy the
//! paper-style conditions by direct semantic re-evaluation: the
//! observation is failing, repairing the cause flips the verdict, and no
//! proper subset does.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use bfl::prelude::*;
use bfl_core::semantics;
use bfl_fault_tree::generator::{random_tree, RandomTreeConfig};
use bfl_fault_tree::rng::Prng;

mod common;
use common::random_formula;

/// Brute-force causes as sorted name sets, in the BDD path's order
/// (by size, then lexicographically).
fn naive_cause_names(
    tree: &FaultTree,
    phi: &Formula,
    evidence: &[(String, bool)],
) -> Vec<Vec<String>> {
    let sets = semantics::actual_causes_naive(tree, phi, evidence).expect("naive enumeration");
    let mut named: Vec<Vec<String>> = sets
        .iter()
        .map(|s| {
            s.iter()
                .map(|&bi| tree.name(tree.basic_events()[bi]).to_string())
                .collect()
        })
        .collect();
    for set in &mut named {
        set.sort();
    }
    named.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    named
}

/// Re-check the definition directly with the reference recursion:
/// `b ⊨ ϕ`, `b[S→0] ⊭ ϕ`, and every proper subset of `S` leaves the
/// verdict intact (subset-minimality).
fn assert_cause_is_valid(
    tree: &FaultTree,
    phi: &Formula,
    observation: &StatusVector,
    cause: &ActualCause,
) {
    assert!(
        semantics::eval(tree, observation, phi).expect("eval"),
        "observation must be failing for {phi}"
    );
    let idx_of = |name: &str| {
        tree.basic_events()
            .iter()
            .position(|&e| tree.name(e) == name)
            .expect("cause event is a basic event")
    };
    let indices: Vec<usize> = cause.events.iter().map(|n| idx_of(n)).collect();
    let mut repaired = observation.clone();
    for &bi in &indices {
        assert!(
            observation.get(bi),
            "cause event {} must be failed in the observation",
            cause.events[indices.iter().position(|&i| i == bi).unwrap()]
        );
        repaired.set(bi, false);
    }
    assert!(
        !semantics::eval(tree, &repaired, phi).expect("eval"),
        "repairing {{{}}} must flip the verdict of {phi}",
        cause.events.join(", ")
    );
    assert_eq!(
        &repaired, &cause.witness,
        "witness must be the observation with the cause repaired"
    );
    // Minimality: dropping any single event from the repair (i.e. any
    // maximal proper subset) must keep ϕ failing — and by monotonicity
    // of the subset lattice under the but-for check performed above,
    // checking the maximal subsets via brute force over all proper
    // subsets keeps this exact for small causes.
    let k = indices.len();
    for mask in 0..(1u32 << k) {
        if mask == (1u32 << k) - 1 {
            continue; // the full set is the cause itself
        }
        let mut partial = observation.clone();
        for (j, &bi) in indices.iter().enumerate() {
            if mask & (1 << j) != 0 {
                partial.set(bi, false);
            }
        }
        assert!(
            semantics::eval(tree, &partial, phi).expect("eval"),
            "proper subset repair {{mask {mask:b}}} of {{{}}} must not flip {phi}",
            cause.events.join(", ")
        );
    }
}

/// Session path ≡ brute force on seeded random trees, over random
/// formulae and random (partial and full) evidence vectors.
#[test]
fn session_causes_match_brute_force_on_random_trees() {
    let mut rng = Prng::seed_from_u64(0xB0F1_CA05);
    let mut failing = 0usize;
    let mut with_causes = 0usize;
    for seed in 0..10u64 {
        let tree = random_tree(&RandomTreeConfig {
            num_basic: 7,
            num_gates: 5,
            max_children: 3,
            vot_probability: 0.2,
            seed: 0xB0F1 + seed,
        });
        let names: Vec<String> = tree.iter().map(|e| tree.name(e).to_string()).collect();
        let basics: Vec<String> = tree
            .basic_event_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let session = AnalysisSession::builder()
            .witness_limit(1 << 10)
            .build(tree);
        for round in 0..7 {
            // Round 0 is the canonical failing case — the top event under
            // the all-failed observation — so every tree contributes at
            // least one observation with causes; the rest are random.
            let phi = if round == 0 {
                Formula::atom(session.tree().name(session.tree().top()))
            } else {
                random_formula(&mut rng, &names, &basics, 2)
            };
            // Alternate full observations with partial evidence (unbound
            // events default to operational).
            let evidence: Vec<(String, bool)> = if round == 0 {
                basics.iter().map(|n| (n.clone(), true)).collect()
            } else if round % 2 == 0 {
                basics
                    .iter()
                    .map(|n| (n.clone(), rng.gen_bool(0.5)))
                    .collect()
            } else {
                (0..rng.gen_range(0..=3))
                    .map(|_| {
                        (
                            basics[rng.gen_range(0..basics.len())].clone(),
                            rng.gen_bool(0.5),
                        )
                    })
                    .collect()
            };
            let outcome = session.cause(&phi, &evidence).expect("session cause");
            let report = outcome.causes.as_ref().expect("cause outcome has report");
            let expected = naive_cause_names(session.tree(), &phi, &evidence);
            let got: Vec<Vec<String>> = report.causes.iter().map(|c| c.events.clone()).collect();
            assert_eq!(got, expected, "causes of {phi} under {evidence:?}");
            assert_eq!(report.total, expected.len() as u128, "exact total");
            assert!(!report.truncated, "limit is far above any cause count");
            assert_eq!(
                outcome.holds,
                report.failing && !expected.is_empty(),
                "verdict is `failing observation with at least one cause`"
            );
            if report.failing {
                failing += 1;
            }
            for cause in &report.causes {
                with_causes += 1;
                assert_cause_is_valid(session.tree(), &phi, &report.observation, cause);
            }
        }
    }
    // The sweep must have exercised the interesting side of the space.
    assert!(failing >= 10, "too few failing observations: {failing}");
    assert!(with_causes >= 10, "too few causes validated: {with_causes}");
}

/// The prepared-plan path (BDD restriction + scenario memo) must agree
/// with the session path (AST specialisation + fresh check) — and a
/// repeat sweep must be pure memo hits.
#[test]
fn prepared_causes_agree_with_specialised_query_path() {
    let session = AnalysisSession::new(bfl::ft::corpus::covid());
    let top = session.tree().name(session.tree().top()).to_string();
    let queries = [
        "cause(IWoS, IW := 1, H3 := 1, PP := 1, H1 := 1, VW := 1)",
        "cause(CP/R, IW := 1, H3 := 1, IT := 1, H2 := 1)",
        "causes(IWoS, IW := 1, H3 := 1, PP := 1, H1 := 1, VW := 1, 2)",
        "cause(SH & CIW, IW := 1, PP := 1, H1 := 1, VW := 1)",
        "cause(IWoS, IW := 1)", // not failing: no causes
    ];
    let mut scenarios = vec![Scenario::new()];
    for name in ["IT", "H2", "UT", "MV"] {
        scenarios.push(Scenario::new().bind(name, true));
        scenarios.push(Scenario::new().bind(name, false));
    }
    scenarios.push(Scenario::from_pairs([("IT", true), ("H2", true)]));
    for src in queries {
        let q = parse_query(src).expect(src);
        let prepared = session.prepare(&q).expect("prepare");
        assert!(prepared.is_cause_plan());
        for scenario in &scenarios {
            let fast = prepared.cause(scenario).expect("prepared cause");
            let slow = session
                .check_query(&scenario.specialise_query(&q, &top))
                .expect("check_query");
            assert_eq!(fast.holds, slow.holds, "{q} under {scenario}");
            let fast_report = fast.causes.expect("plan path reports causes");
            let slow_report = slow.causes.expect("session path reports causes");
            assert_eq!(
                fast_report, slow_report,
                "cause reports diverge for {q} under {scenario}"
            );
        }
    }
}

/// A cause plan reports its compiled root's size as prepare measured
/// it, on every cold request.
#[test]
fn cold_causes_report_the_prepared_bdd_nodes() {
    let session = AnalysisSession::new(bfl::ft::corpus::covid());
    let q = parse_query("cause(IWoS, IW := 1, H3 := 1, PP := 1, H1 := 1, VW := 1)").unwrap();
    let prepared = session.prepare(&q).unwrap();
    let nodes = prepared.explain().operands[0].bdd_nodes;
    assert!(nodes > 2, "a non-constant root");
    for name in ["IT", "H2", "UT", "MV"] {
        for value in [true, false] {
            let scenario = Scenario::new().bind(name, value);
            let outcome = prepared.cause(&scenario).unwrap();
            assert_eq!(outcome.stats.bdd_nodes, nodes, "under {scenario}");
        }
    }
    assert_eq!(prepared.stats().memo_hits, 0, "every request ran cold");
}

/// Session causes roll their scratch back like plan requests do: once
/// `top` is compiled, 200 cold `cause(top, E)` calls on scaled-1000 leave
/// the arena where they found it, and each report equals the one a
/// prepared `cause(top)` plan gives under the same observation.
#[test]
fn session_causes_leave_the_arena_as_they_found_it() {
    let tree = bfl::ft::corpus::scaled(1000);
    let n = tree.num_basic_events();
    let names: Vec<String> = tree
        .basic_event_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let top = Formula::atom(tree.name(tree.top()));
    let session = AnalysisSession::new(tree);
    let plan = session
        .prepare(&Query::cause(top.clone(), Vec::<(String, bool)>::new()))
        .unwrap();
    let arena = session.stats().arena_nodes;

    // Every third event failed, as the served cold what-ifs observe, then
    // eight seeded bindings of other events.
    let mut rng = Prng::seed_from_u64(0xA7E4_CA05);
    let mut failing = 0;
    for round in 0..200 {
        let mut evidence: Vec<(String, bool)> =
            names.iter().step_by(3).map(|e| (e.clone(), true)).collect();
        while evidence.len() < n.div_ceil(3) + 8 {
            let e = &names[rng.gen_range(0..n)];
            if !evidence.iter().any(|(b, _)| b == e) {
                evidence.push((e.clone(), rng.gen_bool(0.5)));
            }
        }
        let report = session.cause(&top, &evidence).unwrap().causes.unwrap();
        assert_eq!(
            session.stats().arena_nodes,
            arena,
            "session cause {round} grew the arena"
        );
        let scenario = Scenario::from_pairs(evidence.iter().map(|(e, v)| (e.as_str(), *v)));
        let planned = plan.cause(&scenario).unwrap().causes.unwrap();
        assert_eq!(report, planned, "round {round}");
        if report.failing {
            failing += 1;
        }
    }
    assert!(failing >= 100, "too few failing observations: {failing}");
}

/// `sweep_causes` shares the plan's scenario memo: re-sweeping the same
/// set answers every evaluation from the memo and agrees outcome-for-
/// outcome with the first pass.
#[test]
fn sweep_causes_hits_memo_on_repeat() {
    let session = AnalysisSession::new(bfl::ft::corpus::covid());
    let q = parse_query("cause(IWoS, IW := 1, H3 := 1, PP := 1, H1 := 1, VW := 1)").unwrap();
    let prepared = session.prepare(&q).unwrap();
    let set = ScenarioSet::singletons(session.tree().basic_event_names(), false);
    let cold = prepared.sweep_causes(&set).expect("cold sweep");
    let warm = prepared.sweep_causes(&set).expect("warm sweep");
    assert_eq!(cold.outcomes.len(), warm.outcomes.len());
    for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(a.holds, b.holds);
        assert_eq!(a.causes, b.causes);
    }
    assert_eq!(warm.stats.memo_misses, 0, "repeat sweep must be all hits");
    assert_eq!(warm.stats.memo_hits as usize, warm.outcomes.len());
}

/// Shape guards: `cause`/`sweep_causes` on a non-cause plan is a typed
/// error, and probability entry points reject cause plans.
#[test]
fn cause_entry_points_reject_mismatched_plans() {
    let session = AnalysisSession::new(bfl::ft::corpus::fig1());
    let exists = session
        .prepare(&parse_query("exists CP/R").unwrap())
        .unwrap();
    assert!(!exists.is_cause_plan());
    let err = exists.cause(&Scenario::new()).unwrap_err();
    assert!(matches!(err, BflError::PlanShapeMismatch { .. }), "{err}");
    let err = exists
        .sweep_causes(&ScenarioSet::singletons(["IW"], true))
        .unwrap_err();
    assert!(matches!(err, BflError::PlanShapeMismatch { .. }), "{err}");
}

/// `VOT(67/133)` over `e0..e132`: with every event failed, each 67-subset
/// is a minimal cause, and C(133, 67) ≈ 7.5·10³⁸ exceeds `u128::MAX`.
fn wide_vote() -> (FaultTree, Vec<(String, bool)>) {
    let names: Vec<String> = (0..133).map(|i| format!("e{i}")).collect();
    let mut b = FaultTreeBuilder::new();
    b.basic_events(names.iter().map(String::as_str)).unwrap();
    b.gate(
        "top",
        GateType::Vot { k: 67 },
        names.iter().map(String::as_str),
    )
    .unwrap();
    let evidence = names.into_iter().map(|n| (n, true)).collect();
    (b.build("top").unwrap(), evidence)
}

#[test]
fn too_many_causes_is_an_error_and_the_session_stays_usable() {
    let (tree, evidence) = wide_vote();
    let session = AnalysisSession::new(tree);
    let q = Query::causes(Formula::atom("top"), evidence.clone(), 2);
    let spec = Spec::from_items([SpecItem::query(q.clone())]);
    let err = session.run(&spec).unwrap_err();
    assert!(matches!(err, BflError::CountOverflow { .. }), "{err}");
    let plan = session.prepare(&q).unwrap();
    let err = plan.cause(&Scenario::new()).unwrap_err();
    assert!(matches!(err, BflError::CountOverflow { .. }), "{err}");
    // Nothing was memoised, and the session still answers.
    assert_eq!(plan.stats().distinct_scenarios, 0);
    let outcome = session
        .check_query(&parse_query("exists top").unwrap())
        .unwrap();
    assert!(outcome.holds);
}

/// On the served cold what-if set-up (scaled-1000, `witness_limit` 0,
/// the bounded cause query observing every third event failed), the
/// plan's causes, which it builds over the support of each cofactor,
/// equal the all-events construction: the primed maximality over every
/// `(event, primed)` pair, counted and enumerated over every event.
/// Totals, cause lists and witnesses must match on every observation.
#[test]
fn support_causes_match_the_all_events_construction_at_scale() {
    use bfl::bdd::Var;
    use bfl::ft::analysis::mps_bdd_paper;
    use bfl::ft::bdd::TreeBdd;

    let tree = std::sync::Arc::new(bfl::ft::corpus::scaled(1000));
    let n = tree.num_basic_events();
    let names: Vec<String> = tree
        .basic_event_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let top = tree.name(tree.top()).to_string();
    let observed: Vec<String> = names
        .iter()
        .step_by(3)
        .map(|e| format!("{e} := 1"))
        .collect();
    let query = format!("causes({top}, {}, 2)", observed.join(", "));
    let session = AnalysisSession::builder()
        .witness_limit(0)
        .build(std::sync::Arc::clone(&tree));
    let plan = session.prepare(&parse_query(&query).unwrap()).unwrap();

    // The reference, on a diagram of its own.
    let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
    let root = tb.element_bdd(&tree, tree.top());
    let pairs = tb.var_pairs();
    let universe = tb.unprimed_vars();
    let mut reference = |b: &StatusVector| -> (u128, Vec<ActualCause>) {
        let mark = tb.manager().watermark();
        let pins: Vec<(Var, bool)> = (0..n)
            .filter(|&bi| !b.get(bi))
            .map(|bi| (tb.var_of_basic(bi), false))
            .collect();
        let g = tb.manager_mut().restrict_many(root, &pins);
        let mps = mps_bdd_paper(&mut tb, g, &pairs);
        let total = tb.manager().sat_count_over(mps, &universe).unwrap();
        let mut causes: Vec<ActualCause> = tb
            .manager()
            .sat_vectors(mps, &universe)
            .take(2)
            .map(|x| {
                let x = tb.vector_from_positions(&tree, &x);
                let mut witness = b.clone();
                let mut events = Vec::new();
                for bi in b.failed_indices() {
                    if !x.get(bi) {
                        witness.set(bi, false);
                        events.push(names[bi].clone());
                    }
                }
                events.sort();
                ActualCause { events, witness }
            })
            .collect();
        causes.sort_by(|a, b| {
            a.events
                .len()
                .cmp(&b.events.len())
                .then_with(|| a.events.cmp(&b.events))
        });
        tb.manager_mut().rollback(mark);
        (total, causes)
    };

    let mut rng = Prng::seed_from_u64(0x5CA1_CA05);
    let mut failing = 0;
    for _ in 0..200 {
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < 8 {
            let e = rng.gen_range(0..n);
            if !picked.contains(&e) {
                picked.push(e);
            }
        }
        let bindings: Vec<(usize, bool)> = picked.iter().map(|&e| (e, rng.gen_bool(0.5))).collect();
        let scenario = Scenario::from_pairs(bindings.iter().map(|&(e, v)| (names[e].as_str(), v)));
        let report = plan.cause(&scenario).unwrap().causes.unwrap();
        // The query's own evidence wins conflicts; unbound events are
        // operational.
        let mut b = StatusVector::all_operational(n);
        for &(e, v) in &bindings {
            b.set(e, v);
        }
        for e in (0..n).step_by(3) {
            b.set(e, true);
        }
        assert_eq!(report.observation, b, "{scenario}");
        if !report.failing {
            assert_eq!(report.total, 0, "{scenario}");
            continue;
        }
        failing += 1;
        let (total, causes) = reference(&b);
        assert_eq!(report.total, total, "{scenario}");
        assert_eq!(report.causes, causes, "{scenario}");
        assert_eq!(report.truncated, total > causes.len() as u128, "{scenario}");
    }
    assert!(failing >= 150, "only {failing} failing observations");
}
