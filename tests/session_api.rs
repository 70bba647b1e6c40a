//! Integration suite for the `AnalysisSession` engine API: builder
//! permutations, batch/one-by-one equivalence, thread-safety guarantees,
//! and the COVID case-study verdicts through the new façade.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::Arc;

use bfl::logic::report::SpecKind;
use bfl::prelude::*;

fn covid() -> FaultTree {
    bfl::ft::corpus::covid()
}

/// The nine case-study properties of Section VII as a batch spec, with
/// the paper's verdicts (P5–P7 are enumeration-shaped in the paper; the
/// query forms below are their layer-2 readings).
const COVID_SPEC: &str = "\
# COVID-19 case study, Table/Section VII
P1: forall IS => MoT
P2: forall MoT => H1 | H2 | H3 | H4 | H5
P3: forall H4 => IWoS
P4: forall VOT(>=2; H1, H2, H3, H4, H5) => IWoS
P5: exists MCS(IWoS) & H4
P8: IDP(CIO, CIS)
P9: SUP(PP)
";

const COVID_VERDICTS: [(&str, bool); 7] = [
    ("P1", false),
    ("P2", false),
    ("P3", false),
    ("P4", false),
    ("P5", true),
    ("P8", false),
    ("P9", false),
];

// ---------------------------------------------------------------------
// Thread-safety and ownership.
// ---------------------------------------------------------------------

#[test]
fn session_is_send_sync_and_static() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    fn assert_static<T: 'static>() {}
    assert_send::<AnalysisSession>();
    assert_sync::<AnalysisSession>();
    // No lifetime parameter: the session is an owned, 'static value.
    assert_static::<AnalysisSession>();
    assert_send::<SessionBuilder>();
    assert_send::<Report>();
    assert_send::<Outcome>();
}

#[test]
fn session_outlives_the_scope_that_built_it() {
    let session = {
        let tree = covid();
        AnalysisSession::new(tree)
    };
    assert_eq!(
        session.tree().num_basic_events(),
        covid().num_basic_events()
    );
    assert_eq!(session.minimal_path_sets("IWoS").unwrap().len(), 12);
}

#[test]
fn sessions_share_a_tree_without_cloning() {
    let tree = Arc::new(covid());
    let a = AnalysisSession::new(Arc::clone(&tree));
    let b = AnalysisSession::new(Arc::clone(&tree));
    assert!(Arc::ptr_eq(&a.tree_arc(), &b.tree_arc()));
}

#[test]
fn concurrent_batches_agree() {
    let session = Arc::new(AnalysisSession::new(covid()));
    let spec = Arc::new(Spec::parse(COVID_SPEC).unwrap());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let s = Arc::clone(&session);
            let spec = Arc::clone(&spec);
            std::thread::spawn(move || {
                let report = s.run(&spec).unwrap();
                report.outcomes.iter().map(|o| o.holds).collect::<Vec<_>>()
            })
        })
        .collect();
    let expected: Vec<bool> = COVID_VERDICTS.iter().map(|&(_, v)| v).collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), expected);
    }
}

// ---------------------------------------------------------------------
// Builder permutations: orderings × scopes.
// ---------------------------------------------------------------------

#[test]
fn builder_permutations_agree_on_verdicts_and_sets() {
    let tree = Arc::new(covid());
    let spec = Spec::parse(COVID_SPEC).unwrap();
    let reference = AnalysisSession::new(Arc::clone(&tree));
    let ref_verdicts: Vec<bool> = reference
        .run(&spec)
        .unwrap()
        .outcomes
        .iter()
        .map(|o| o.holds)
        .collect();
    let ref_mcs = reference.minimal_cut_sets("IWoS").unwrap();
    let ref_mps = reference.minimal_path_sets("IWoS").unwrap();

    let orderings = [VariableOrdering::DfsPreorder, VariableOrdering::Declaration];
    let scopes = [
        MinimalityScope::GlobalUniverse,
        MinimalityScope::FormulaSupport,
    ];
    for ordering in orderings {
        for scope in scopes {
            let session = AnalysisSession::builder()
                .ordering(ordering)
                .minimality_scope(scope)
                .build(Arc::clone(&tree));
            assert_eq!(session.ordering(), ordering);
            assert_eq!(session.minimality_scope(), scope);

            // Neither the ordering nor, on the top event (whose support
            // is every basic event), the scope changes cut/path sets.
            assert_eq!(
                session.minimal_cut_sets("IWoS").unwrap(),
                ref_mcs,
                "{ordering:?}/{scope:?}"
            );
            assert_eq!(
                session.minimal_path_sets("IWoS").unwrap(),
                ref_mps,
                "{ordering:?}/{scope:?}"
            );

            // The case-study verdicts are scope-insensitive (none of
            // the seven probe the Table-I corner): all configurations
            // reproduce the paper.
            let verdicts: Vec<bool> = session
                .run(&spec)
                .unwrap()
                .outcomes
                .iter()
                .map(|o| o.holds)
                .collect();
            assert_eq!(verdicts, ref_verdicts, "{ordering:?}/{scope:?}");
        }
    }
}

#[test]
fn minimality_scope_changes_table1_pattern3() {
    let tree = bfl::logic::patterns::table1_tree();
    let q = parse_query("exists MCS(e1) & MCS(e3)").unwrap();
    let global = AnalysisSession::new(tree.clone());
    assert!(!global.check_query(&q).unwrap().holds);
    let support = AnalysisSession::builder()
        .minimality_scope(MinimalityScope::FormulaSupport)
        .build(tree);
    assert!(support.check_query(&q).unwrap().holds);
}

// ---------------------------------------------------------------------
// Batch run ≡ one-by-one evaluation.
// ---------------------------------------------------------------------

#[test]
fn batch_run_equals_one_by_one_eval() {
    let tree = Arc::new(covid());
    let spec = Spec::parse(COVID_SPEC).unwrap();

    let batch_session = AnalysisSession::new(Arc::clone(&tree));
    let report = batch_session.run(&spec).unwrap();

    // Fresh session per item: verdicts and explanatory payloads must
    // match the batch exactly (stats legitimately differ — the batch
    // shares caches).
    for (item, outcome) in spec.items.iter().zip(&report.outcomes) {
        let solo = AnalysisSession::new(Arc::clone(&tree));
        let one = solo.eval(item).unwrap();
        assert_eq!(one.holds, outcome.holds, "{}", item.source);
        assert_eq!(one.witnesses, outcome.witnesses, "{}", item.source);
        assert_eq!(
            one.counterexamples, outcome.counterexamples,
            "{}",
            item.source
        );
        assert_eq!(one.shared_events, outcome.shared_events, "{}", item.source);
        assert_eq!(one.label, outcome.label);
    }

    // And both agree with the raw ModelChecker on query items.
    let raw_tree = covid();
    let mut mc = ModelChecker::new(&raw_tree);
    for (item, outcome) in spec.items.iter().zip(&report.outcomes) {
        if let SpecKind::Query(q) = &item.kind {
            assert_eq!(mc.check_query(q).unwrap(), outcome.holds, "{}", item.source);
        }
    }
}

#[test]
fn covid_table_verdicts_with_populated_stats() {
    let session = AnalysisSession::new(covid());
    let spec = Spec::parse(COVID_SPEC).unwrap();
    let report = session.run(&spec).unwrap();

    assert_eq!(report.outcomes.len(), COVID_VERDICTS.len());
    for (outcome, &(label, verdict)) in report.outcomes.iter().zip(&COVID_VERDICTS) {
        assert_eq!(outcome.label.as_deref(), Some(label));
        assert_eq!(outcome.holds, verdict, "{label}: {}", outcome.source);
        // EvalStats are populated per query: every item here compiles a
        // BDD and registers cache traffic.
        assert!(outcome.stats.bdd_nodes > 0, "{label} bdd_nodes");
        assert!(outcome.stats.arena_nodes > 0, "{label} arena_nodes");
        assert!(
            outcome.stats.cache_hits + outcome.stats.cache_misses > 0,
            "{label} cache traffic"
        );
    }

    // Repeated sub-formulae across the batch hit the shared cache: P3
    // re-uses `IWoS` compiled by P1/P2 chains, P4 re-uses the `H*`
    // atoms, P5 re-uses `MCS(IWoS)` machinery…
    assert!(report.totals.cache_hits > 0, "{:?}", report.totals);
    // …and a re-run of the same batch is answered almost entirely from
    // cache: no new arena nodes at all.
    let again = session.run(&spec).unwrap();
    assert_eq!(again.totals.cache_misses, 0);
    assert_eq!(again.totals.arena_nodes, report.totals.arena_nodes);
}

#[test]
fn outcome_payloads_explain_verdicts() {
    let session = AnalysisSession::new(covid());

    // forall-failure carries refuting vectors that really refute.
    let q = parse_query("forall IS => MoT").unwrap();
    let o = session.check_query(&q).unwrap();
    assert!(!o.holds);
    assert!(!o.counterexamples.is_empty() && o.counterexamples.len() <= 3);
    let negated = parse_formula("!(IS => MoT)").unwrap();
    for c in &o.counterexamples {
        assert!(session.check_vector(c, &negated).unwrap().holds);
    }

    // exists-success carries witnesses that really satisfy.
    let q = parse_query("exists MCS(IWoS) & H4").unwrap();
    let o = session.check_query(&q).unwrap();
    assert!(o.holds);
    let phi = parse_formula("MCS(IWoS) & H4").unwrap();
    for w in &o.witnesses {
        assert!(session.check_vector(w, &phi).unwrap().holds);
    }

    // IDP failure names the shared dependency (Property 8: H1).
    let q = parse_query("IDP(CIO, CIS)").unwrap();
    let o = session.check_query(&q).unwrap();
    assert!(!o.holds);
    assert_eq!(o.shared_events, vec!["H1"]);

    // Failed vector checks carry a Definition-7 counterexample.
    let phi = parse_formula("MCS(IWoS)").unwrap();
    let b = session.vector_of_failed(&["IW".into()]).unwrap();
    let o = session.check_vector(&b, &phi).unwrap();
    assert!(!o.holds);
    assert!(matches!(o.counterexample, Some(Counterexample::Found(_))));
}

#[test]
fn witness_limit_zero_disables_vector_witnesses() {
    let session = AnalysisSession::builder().witness_limit(0).build(covid());
    let phi = parse_formula("MCS(IWoS)").unwrap();
    let b = session
        .vector_of_failed(&["H1".into(), "VW".into()])
        .unwrap();
    let o = session.check_vector(&b, &phi).unwrap();
    assert!(o.witnesses.is_empty());
}

#[test]
fn witness_limit_is_respected() {
    let tree = covid();
    let q = parse_query("exists IWoS").unwrap();
    for limit in [0, 1, 5] {
        let session = AnalysisSession::builder()
            .witness_limit(limit)
            .build(tree.clone());
        let o = session.check_query(&q).unwrap();
        assert!(o.holds);
        assert!(o.witnesses.len() <= limit, "limit {limit}");
        if limit > 0 {
            assert!(!o.witnesses.is_empty());
        }
    }
}

// ---------------------------------------------------------------------
// Report rendering.
// ---------------------------------------------------------------------

#[test]
fn report_renders_text_and_json() {
    let session = AnalysisSession::new(covid());
    let spec = Spec::parse("P1: forall IS => MoT\nP5: exists MCS(IWoS) & H4\n").unwrap();
    let report = session.run(&spec).unwrap();

    let text = report.to_string();
    assert!(text.contains("FAIL  P1"), "{text}");
    assert!(text.contains("PASS  P5"), "{text}");
    assert!(text.contains("1/2 hold"), "{text}");

    let json = report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"label\":\"P1\""), "{json}");
    assert!(json.contains("\"holds\":false"), "{json}");
    assert!(json.contains("\"cache_hits\""), "{json}");
    assert!(json.contains("\"totals\""), "{json}");
    // The paper's P5 witnesses surface as failed-name arrays.
    assert!(json.contains("\"witnesses\":[["), "{json}");
}

#[test]
fn errors_surface_not_panic() {
    let session = AnalysisSession::new(covid());
    let q = parse_query("forall Ghost => IWoS").unwrap();
    assert!(matches!(
        session.check_query(&q),
        Err(BflError::UnknownElement(_))
    ));
    let spec = Spec::parse("[Ghost] IWoS\n").unwrap();
    assert!(session.run(&spec).is_err());
    assert!(session.top_event_probability().is_err());
}

// ---------------------------------------------------------------------
// Arena growth.
// ---------------------------------------------------------------------

/// A scaled industrial model of `events` basic events, with its
/// probability annotations.
fn scaled(events: usize) -> AnalysisSession {
    let model = bfl::ft::corpus::scaled_model(events);
    AnalysisSession::builder()
        .probabilities(model.probabilities)
        .build(model.tree)
}

/// A session ranking rolls its cofactors back: once `top` is compiled,
/// ranking scaled-1000's events leaves the arena where it found it, with
/// the rows a prepared `importance(top)` plan gives.
#[test]
fn importance_leaves_the_arena_as_it_found_it() {
    let session = scaled(1000);
    let top = Formula::atom(session.tree().name(session.tree().top()));
    let plan = session.prepare(&Query::Importance(top.clone())).unwrap();
    let arena = session.stats().arena_nodes;
    let rows = session.rank_events(&top).unwrap();
    assert_eq!(session.stats().arena_nodes, arena);
    assert_eq!(rows.len(), session.tree().num_basic_events());
    assert_eq!(rows, plan.eval(&Scenario::new()).unwrap().importance);
}

/// A repeated session request finds everything it builds already there:
/// plan requests, causes and rankings roll their scratch back, and every
/// other request keeps only translations a repeat looks up again.
#[test]
fn repeated_session_requests_leave_the_arena_unchanged() {
    let session = scaled(300);
    let tree = session.tree_arc();
    let top = tree.name(tree.top()).to_string();
    let basics = tree.basic_event_names();
    let (b0, b1) = (basics[0], basics[1]);
    let gates = tree.children(tree.top());
    let (g0, g1) = (tree.name(gates[0]), tree.name(gates[1]));
    let observed: Vec<String> = basics
        .iter()
        .step_by(3)
        .map(|e| format!("{e} := 1"))
        .collect();
    let queries = [
        format!("exists {top}"),
        format!("forall {top}"),
        format!("exists MCS({top})"),
        format!("IDP({g0}, {g1})"),
        format!("P({top} | {b0}) >= 0.5"),
        format!("importance({top})"),
        format!("exists {top}[{b0} := 1, {b1} := 0]"),
        format!("causes({top}, {}, 2)", observed.join(", ")),
    ];
    let spec = Spec::parse(&format!(
        "L1: exists {top} & !{b0}\nL2: forall {g0} | {g1}\n"
    ))
    .unwrap();
    let twice = |name: &str, request: &dyn Fn()| {
        request();
        let arena = session.stats().arena_nodes;
        request();
        assert_eq!(session.stats().arena_nodes, arena, "a repeated {name}");
    };
    for src in &queries {
        let q = parse_query(src).unwrap();
        twice(src, &|| {
            session.check_query(&q).unwrap();
        });
    }
    let phi = Formula::atom(top.as_str());
    twice("rank_events", &|| {
        session.rank_events(&phi).unwrap();
    });
    twice("lint_spec", &|| {
        session.lint_spec(&spec);
    });
}
