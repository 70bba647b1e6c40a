//! Differential oracle suite: served `check`/`eval`/`prob` responses
//! are cross-checked against the brute-force reference evaluators
//! (`bfl_core::semantics::eval_query`, `bfl_core::quant::probability_naive`)
//! on randomized trees × queries × scenarios (seeded SplitMix64).
//!
//! On any divergence the failing Galileo model + query + scenario are
//! dumped to a tempfile whose path is part of the assertion message, so
//! a failure seeds a deterministic repro without re-running the sweep.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::atomic::{AtomicU64, Ordering};

use bfl_core::ast::{CmpOp, Formula, Query};
use bfl_core::{quant, semantics};
use bfl_fault_tree::galileo;
use bfl_fault_tree::generator::{random_tree, RandomTreeConfig};
use bfl_fault_tree::rng::Prng;
use bfl_fault_tree::FaultTree;
use bfl_server::json::Json;
use bfl_server::{
    Client, Op, ProbOptions, ProbTarget, Request, Response, ResponseBody, Server, ServerConfig,
    ServerHandle, SessionOptions,
};

// ---------------------------------------------------------------------------
// Random-case generation (seeded, deterministic).
// ---------------------------------------------------------------------------

/// A random layer-1 formula over the tree's elements: atoms, Boolean
/// connectives, evidence (basic events only) and `MCS`/`MPS`/`VOT`.
fn random_formula(rng: &mut Prng, names: &[String], basics: &[String], depth: usize) -> Formula {
    if depth == 0 {
        return if rng.gen_bool(0.1) {
            Formula::Const(rng.gen_bool(0.5))
        } else {
            Formula::atom(names[rng.gen_range(0..names.len())].clone())
        };
    }
    match rng.gen_range(0..10) {
        0 => Formula::atom(names[rng.gen_range(0..names.len())].clone()),
        1 => random_formula(rng, names, basics, depth - 1).not(),
        2 => random_formula(rng, names, basics, depth - 1).and(random_formula(
            rng,
            names,
            basics,
            depth - 1,
        )),
        3 => random_formula(rng, names, basics, depth - 1).or(random_formula(
            rng,
            names,
            basics,
            depth - 1,
        )),
        4 => random_formula(rng, names, basics, depth - 1).implies(random_formula(
            rng,
            names,
            basics,
            depth - 1,
        )),
        5 => random_formula(rng, names, basics, depth - 1).iff(random_formula(
            rng,
            names,
            basics,
            depth - 1,
        )),
        6 => random_formula(rng, names, basics, depth - 1).with_evidence(
            basics[rng.gen_range(0..basics.len())].clone(),
            rng.gen_bool(0.5),
        ),
        7 => random_formula(rng, names, basics, depth - 1).mcs(),
        8 => random_formula(rng, names, basics, depth - 1).mps(),
        _ => {
            let n = rng.gen_range(2..=3);
            let operands: Vec<Formula> = (0..n)
                .map(|_| random_formula(rng, names, basics, depth - 1))
                .collect();
            let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt][rng.gen_range(0..5)];
            Formula::vot(op, rng.gen_range(0..=n + 1) as u32, operands)
        }
    }
}

/// A random Boolean layer-2 query (`exists`/`forall`/`IDP`).
fn random_query(rng: &mut Prng, names: &[String], basics: &[String]) -> Query {
    let phi = random_formula(rng, names, basics, 3);
    match rng.gen_range(0..4) {
        0 | 1 => Query::exists(phi),
        2 => Query::forall(phi),
        _ => Query::idp(phi, random_formula(rng, names, basics, 2)),
    }
}

/// A random scenario line over the basic events (0–3 bindings).
fn random_scenario_line(rng: &mut Prng, basics: &[String]) -> String {
    let n = rng.gen_range(0..=3);
    let bindings: Vec<String> = (0..n)
        .map(|_| {
            format!(
                "{} = {}",
                basics[rng.gen_range(0..basics.len())],
                u8::from(rng.gen_bool(0.5))
            )
        })
        .collect();
    bindings.join(", ")
}

/// The scenario a binding line denotes (first-binding-wins, like the
/// engine).
fn scenario_of_line(line: &str) -> bfl_core::Scenario {
    if line.trim().is_empty() {
        bfl_core::Scenario::new()
    } else {
        bfl_core::Scenario::parse(line).expect("scenario line parses")
    }
}

/// Element-name vectors for the generator helpers.
fn name_vectors(tree: &FaultTree) -> (Vec<String>, Vec<String>) {
    let names: Vec<String> = tree
        .basic_event_names()
        .iter()
        .map(|s| s.to_string())
        .chain(tree.gates().map(|g| tree.name(g).to_string()))
        .collect();
    let basics: Vec<String> = tree
        .basic_event_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    (names, basics)
}

/// Dumps a failing case to a tempfile and returns its path — the
/// "shrunk" repro the assertion message points at.
fn dump_failure(model: &str, detail: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "bfl-differential-failure-{}-{}.txt",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let contents = format!(
        "# failing differential case\n# --- galileo model ---\n{model}\n# --- case ---\n{detail}\n"
    );
    std::fs::write(&path, contents).expect("write failure dump");
    path
}

/// `line` with every `"duration_micros":N` removed.
fn without_durations(line: &str) -> String {
    let key = "\"duration_micros\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(key) {
        out.push_str(&rest[..at]);
        rest = rest[at + key.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Sends `op` twice on one connection and returns the second answer's
/// result document. The second is a memo hit, which the connection's
/// shard answers without a worker. It must repeat the first answer byte
/// for byte, durations aside, except that an outcome the first answer
/// computed reports the memo miss its repeat turned into a hit.
fn served_twice(client: &mut Client, op: Op) -> Json {
    let line = Request::with_id(1, op).to_json_line();
    let first = without_durations(&client.round_trip(&line).expect("first answer"));
    let second = client.round_trip(&line).expect("second answer");
    let expected = first.replace(
        "\"cache_hits\":0,\"cache_misses\":1",
        "\"cache_hits\":1,\"cache_misses\":0",
    );
    assert_eq!(
        without_durations(&second),
        expected,
        "a repeated request answered differently"
    );
    match Response::parse(&second).expect("parses").body {
        ResponseBody::Result(doc) => Json::parse(&doc).expect("result parses"),
        ResponseBody::Error { code, message } => panic!("{line}: {code}: {message}"),
    }
}

fn eval_op(session: &str, plan: &str, scenario: &str) -> Op {
    Op::Eval {
        session: session.to_string(),
        plan: plan.to_string(),
        scenario: scenario.to_string(),
    }
}

fn prob_op(session: &str, plan: &str, scenario: &str) -> Op {
    Op::Prob {
        session: session.to_string(),
        target: ProbTarget::Plan {
            plan: plan.to_string(),
            scenario: Some(scenario.to_string()),
        },
        options: ProbOptions::default(),
    }
}

fn start_server() -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("binds")
}

// ---------------------------------------------------------------------------
// The differential sweeps.
// ---------------------------------------------------------------------------

#[test]
fn served_check_and_eval_agree_with_reference_semantics() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let mut rng = Prng::seed_from_u64(0xD1FF_0001);
    for case in 0..8u64 {
        let tree = random_tree(&RandomTreeConfig {
            num_basic: 6 + (case as usize % 4),
            num_gates: 4 + (case as usize % 3),
            max_children: 3,
            vot_probability: 0.15,
            seed: 0x5EED_0000 + case,
        });
        let model = galileo::to_galileo(&tree, None);
        let session = client.load(&model).expect("loads");
        let (names, basics) = name_vectors(&tree);
        for _ in 0..6 {
            let query = random_query(&mut rng, &names, &basics);
            let query_src = query.to_string();
            let expected = semantics::eval_query(&tree, &query).expect("reference evaluates");

            // Path 1: the `check` endpoint (full pipeline per request).
            let report = client.check(&session, &query_src).expect("check");
            let served = report
                .get("outcomes")
                .and_then(|o| o.as_array())
                .and_then(|outcomes| outcomes.first().and_then(|o| o.get("holds")?.as_bool()));
            if served != Some(expected) {
                let path = dump_failure(&model, &format!("check query: {query_src}"));
                panic!(
                    "served check diverged from semantics::eval_query \
                     (served {served:?}, expected {expected}); repro dumped to {}",
                    path.display()
                );
            }

            // Path 2: prepare once, evaluate under random scenarios by
            // BDD restriction — against the specialised reference query.
            let plan = client.prepare(&session, &query_src).expect("prepares");
            let top = tree.name(tree.top()).to_string();
            for _ in 0..4 {
                let line = random_scenario_line(&mut rng, &basics);
                let scenario = scenario_of_line(&line);
                let specialised = scenario.specialise_query(&query, &top);
                let expected =
                    semantics::eval_query(&tree, &specialised).expect("reference evaluates");
                let outcome = served_twice(&mut client, eval_op(&session, &plan, &line));
                let served = outcome.get("holds").and_then(|v| v.as_bool());
                if served != Some(expected) {
                    let path = dump_failure(
                        &model,
                        &format!("eval query: {query_src}\nscenario: [{line}]"),
                    );
                    panic!(
                        "served eval diverged from the reference under [{line}] \
                         (served {served:?}, expected {expected}); repro dumped to {}",
                        path.display()
                    );
                }
            }
        }
        client.unload(&session).expect("unloads");
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn served_prob_agrees_with_probability_naive() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let mut rng = Prng::seed_from_u64(0xD1FF_0002);
    for case in 0..6u64 {
        let tree = random_tree(&RandomTreeConfig {
            num_basic: 6 + (case as usize % 3),
            num_gates: 4 + (case as usize % 3),
            max_children: 3,
            vot_probability: 0.1,
            seed: 0x5EED_1000 + case,
        });
        let n = tree.num_basic_events();
        let probs: Vec<f64> = (0..n)
            .map(|i| 0.05 + 0.85 * (i as f64) / (n as f64))
            .collect();
        let annotated: Vec<Option<f64>> = probs.iter().map(|&p| Some(p)).collect();
        let model = galileo::to_galileo(&tree, Some(&annotated));
        let session = client.load(&model).expect("loads");
        let (names, basics) = name_vectors(&tree);
        for _ in 0..5 {
            let phi = random_formula(&mut rng, &names, &basics, 3);
            let phi_src = phi.to_string();
            let expected = quant::probability_naive(&tree, &phi, &probs).expect("naive");

            // Path 1: ad-hoc formula probability through the session.
            let served = client
                .prob_formula(&session, &phi_src, None)
                .expect("prob")
                .expect("unconditional probability is defined");
            if (served - expected).abs() > 1e-9 {
                let path = dump_failure(&model, &format!("prob formula: {phi_src}"));
                panic!(
                    "served prob diverged from probability_naive \
                     (served {served}, expected {expected}); repro dumped to {}",
                    path.display()
                );
            }

            // Path 2: compiled-plan probability under random scenarios,
            // against the naive probability of the specialised formula.
            // A `P(…) ▷◁ p` plan answers a prob from the scenario its
            // Boolean eval judged.
            let plan = client
                .prepare(&session, &Query::exists(phi.clone()).to_string())
                .expect("prepares");
            let judged = client
                .prepare(
                    &session,
                    &Query::prob(phi.clone(), CmpOp::Le, 0.5)
                        .expect("bound in range")
                        .to_string(),
                )
                .expect("prepares");
            for _ in 0..3 {
                let line = random_scenario_line(&mut rng, &basics);
                let scenario = scenario_of_line(&line);
                let specialised = scenario.specialise(&phi);
                let expected =
                    quant::probability_naive(&tree, &specialised, &probs).expect("naive");
                let answers = [
                    served_twice(&mut client, prob_op(&session, &plan, &line)),
                    served_twice(&mut client, eval_op(&session, &judged, &line)),
                    served_twice(&mut client, prob_op(&session, &judged, &line)),
                ];
                for answer in answers {
                    let served = answer
                        .get("probability")
                        .and_then(Json::as_f64)
                        .expect("unconditional probability is defined");
                    if (served - expected).abs() > 1e-9 {
                        let path = dump_failure(
                            &model,
                            &format!("prob plan formula: {phi_src}\nscenario: [{line}]"),
                        );
                        panic!(
                            "served plan prob diverged from probability_naive under [{line}] \
                             (served {served}, expected {expected}); repro dumped to {}",
                            path.display()
                        );
                    }
                }
            }
        }
        client.unload(&session).expect("unloads");
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn served_cause_agrees_with_actual_causes_naive() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let mut rng = Prng::seed_from_u64(0xD1FF_0005);
    for case in 0..5u64 {
        let tree = random_tree(&RandomTreeConfig {
            num_basic: 6 + (case as usize % 3),
            num_gates: 4 + (case as usize % 3),
            max_children: 3,
            vot_probability: 0.15,
            seed: 0x5EED_4000 + case,
        });
        let model = galileo::to_galileo(&tree, None);
        // The default witness limit (3) would truncate the enumeration;
        // raise it so the served sets are exhaustive like the reference.
        let session = client
            .load_with(
                &model,
                SessionOptions {
                    witness_limit: Some(1 << 10),
                    ..SessionOptions::default()
                },
            )
            .expect("loads");
        let (names, basics) = name_vectors(&tree);
        for _ in 0..5 {
            let phi = random_formula(&mut rng, &names, &basics, 2);
            let mut evidence: Vec<(String, bool)> = Vec::new();
            for name in &basics {
                if rng.gen_bool(0.6) {
                    evidence.push((name.clone(), rng.gen_bool(0.5)));
                }
            }
            let query = Query::cause(phi.clone(), evidence.clone());
            let query_src = query.to_string();
            let plan = client.prepare(&session, &query_src).expect("prepares");
            for _ in 0..3 {
                let line = random_scenario_line(&mut rng, &basics);
                let scenario = scenario_of_line(&line);
                // The reference observation: query evidence first, then
                // the scenario bindings (first-binding-wins).
                let combined: Vec<(String, bool)> = evidence
                    .iter()
                    .cloned()
                    .chain(scenario.bindings().iter().map(|(n, v)| (n.clone(), *v)))
                    .collect();
                let expected_sets =
                    semantics::actual_causes_naive(&tree, &phi, &combined).expect("naive");
                let mut expected: Vec<Vec<String>> = expected_sets
                    .iter()
                    .map(|s| {
                        let mut names: Vec<String> = s
                            .iter()
                            .map(|&bi| tree.name(tree.basic_events()[bi]).to_string())
                            .collect();
                        names.sort();
                        names
                    })
                    .collect();
                expected.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
                let outcome = served_twice(
                    &mut client,
                    Op::Cause {
                        session: session.clone(),
                        plan: plan.clone(),
                        scenario: line.clone(),
                        stream: false,
                    },
                );
                let report = outcome.get("causes").expect("outcome carries causes");
                let served: Vec<Vec<String>> = report
                    .get("sets")
                    .and_then(|v| v.as_array())
                    .expect("sets array")
                    .iter()
                    .map(|set| {
                        set.get("events")
                            .and_then(|v| v.as_array())
                            .expect("events array")
                            .iter()
                            .map(|e| e.as_str().expect("event name").to_string())
                            .collect()
                    })
                    .collect();
                let total = report.get("total").and_then(|v| v.as_u64());
                if served != expected || total != Some(expected.len() as u64) {
                    let path = dump_failure(
                        &model,
                        &format!("cause query: {query_src}\nscenario: [{line}]"),
                    );
                    panic!(
                        "served cause diverged from actual_causes_naive under [{line}] \
                         (served {served:?} total {total:?}, expected {expected:?}); \
                         repro dumped to {}",
                        path.display()
                    );
                }
                let holds = outcome.get("holds").and_then(|v| v.as_bool());
                let failing = report.get("failing").and_then(|v| v.as_bool());
                assert_eq!(
                    holds,
                    Some(failing == Some(true) && !expected.is_empty()),
                    "verdict is `failing with at least one cause` for {query_src}"
                );
            }
        }
        client.unload(&session).expect("unloads");
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn mc_and_interval_methods_agree_with_exact_on_random_trees() {
    use bfl_core::uncertainty::estimate_probability;
    use bfl_core::{AnalysisSession, BflError, Method, ProbValue};

    let mut rng = Prng::seed_from_u64(0xD1FF_0004);
    for case in 0..4u64 {
        let tree = random_tree(&RandomTreeConfig {
            num_basic: 6 + (case as usize % 3),
            num_gates: 4 + (case as usize % 3),
            max_children: 3,
            vot_probability: 0.1,
            seed: 0x5EED_3000 + case,
        });
        let n = tree.num_basic_events();
        let probs: Vec<f64> = (0..n)
            .map(|i| 0.1 + 0.7 * (i as f64) / (n as f64))
            .collect();
        let model = galileo::to_galileo(
            &tree,
            Some(&probs.iter().map(|&p| Some(p)).collect::<Vec<_>>()),
        );
        let session = AnalysisSession::builder()
            .probabilities(probs.iter().map(|&p| Some(p)).collect())
            .build(tree.clone());
        let (names, basics) = name_vectors(&tree);
        for draw in 0..3 {
            let phi = random_formula(&mut rng, &names, &basics, 2);
            let exact = quant::probability_naive(&tree, &phi, &probs).expect("naive");

            // Degenerate intervals: a point-annotated model pushed
            // through the interval walk must reproduce the exact
            // Shannon walk bit for bit, [p, p].
            let exact_walk = session
                .probability_value(&phi, None, Some(Method::Exact))
                .expect("exact walk")
                .expect("unconditional probability is defined");
            let interval_walk = session
                .probability_value(&phi, None, Some(Method::Interval))
                .expect("interval walk")
                .expect("unconditional probability is defined");
            match (&exact_walk, &interval_walk) {
                (ProbValue::Exact(p), ProbValue::Interval(iv)) => {
                    if p.to_bits() != iv.lo.to_bits() || p.to_bits() != iv.hi.to_bits() {
                        let path = dump_failure(&model, &format!("degenerate interval: P({phi})"));
                        panic!(
                            "degenerate interval [{}, {}] is not bit-identical to exact {p}; \
                             repro dumped to {}",
                            iv.lo,
                            iv.hi,
                            path.display()
                        );
                    }
                }
                other => panic!("unexpected method result shapes: {other:?}"),
            }

            // Monte Carlo: the 99% CI must contain the exact value
            // (seeded, so this can never flake), and equal
            // (seed, samples) must be byte-identical at 1/2/8 workers.
            let seed = 0xA5A5_0000 + case * 16 + draw;
            let mc = |threads: usize| {
                estimate_probability(&tree, &probs, &phi, None, &[], 20_000, seed, 0.99, threads)
            };
            let one = match mc(1) {
                Ok(est) => est.expect("unconditional estimate is defined"),
                // Minimality operators are exact-only; skip those draws.
                Err(BflError::UnsupportedMethod { .. }) => continue,
                Err(e) => panic!("estimator failed on P({phi}): {e}"),
            };
            if !(one.ci_lo <= exact && exact <= one.ci_hi) {
                let path = dump_failure(&model, &format!("mc ci: P({phi}), seed {seed}"));
                panic!(
                    "99% CI [{}, {}] misses exact {exact}; repro dumped to {}",
                    one.ci_lo,
                    one.ci_hi,
                    path.display()
                );
            }
            for threads in [2usize, 8] {
                let est = mc(threads)
                    .expect("estimates")
                    .expect("unconditional estimate is defined");
                assert_eq!(
                    one.hits, est.hits,
                    "hit count diverged at {threads} workers"
                );
                assert_eq!(
                    one.point.to_bits(),
                    est.point.to_bits(),
                    "estimate must be byte-identical at {threads} workers"
                );
                assert_eq!(one.ci_lo.to_bits(), est.ci_lo.to_bits());
                assert_eq!(one.ci_hi.to_bits(), est.ci_hi.to_bits());
            }
        }
    }
}

#[test]
fn served_conditional_prob_agrees_with_naive_ratio() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let mut rng = Prng::seed_from_u64(0xD1FF_0003);
    let tree = random_tree(&RandomTreeConfig {
        num_basic: 8,
        num_gates: 5,
        max_children: 3,
        vot_probability: 0.1,
        seed: 0x5EED_2000,
    });
    let n = tree.num_basic_events();
    let probs: Vec<f64> = (0..n)
        .map(|i| 0.1 + 0.7 * (i as f64) / (n as f64))
        .collect();
    let annotated: Vec<Option<f64>> = probs.iter().map(|&p| Some(p)).collect();
    let model = galileo::to_galileo(&tree, Some(&annotated));
    let session = client.load(&model).expect("loads");
    let (names, basics) = name_vectors(&tree);
    for _ in 0..12 {
        let phi = random_formula(&mut rng, &names, &basics, 2);
        let given = random_formula(&mut rng, &names, &basics, 2);
        let p_joint = quant::probability_naive(&tree, &phi.clone().and(given.clone()), &probs)
            .expect("naive");
        let p_given = quant::probability_naive(&tree, &given, &probs).expect("naive");
        let served = client
            .prob_formula(&session, &phi.to_string(), Some(&given.to_string()))
            .expect("prob");
        match served {
            Some(served) => {
                let expected = p_joint / p_given;
                if (served - expected).abs() > 1e-9 {
                    let path =
                        dump_failure(&model, &format!("conditional prob: P({phi} | {given})"));
                    panic!(
                        "served conditional diverged (served {served}, expected {expected}); \
                         repro dumped to {}",
                        path.display()
                    );
                }
            }
            // The server reports `null` exactly when the engine deems
            // the condition (effectively) zero-probability.
            None => assert!(
                p_given < 1e-6,
                "served null for P({phi} | {given}) but P(given) = {p_given}"
            ),
        }
    }
    client.shutdown().expect("shutdown");
    handle.join();
}
