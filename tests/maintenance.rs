//! Property tests for BDD maintenance: random builds interleaved with
//! `collect_garbage()` must stay semantically equivalent to an untouched
//! manager — SAT counts, evaluations and witness sets agree, and handles
//! remapped by a collection evaluate identically. Sessions with
//! collections answer as sessions without them.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use bfl::bdd::{Bdd, Manager, Var};
use bfl::prelude::*;
use bfl_fault_tree::generator::{random_tree, RandomTreeConfig};
use bfl_fault_tree::rng::Prng;

mod common;
use common::{random_formula, random_scenario};

/// Builds the same random expression DAG in two managers, returning the
/// parallel handle vectors. Ops cover vars, negation, the apply family,
/// ite and restriction.
fn random_build(
    rng: &mut Prng,
    a: &mut Manager,
    b: &mut Manager,
    num_vars: u32,
    steps: usize,
    fa: &mut Vec<Bdd>,
    fb: &mut Vec<Bdd>,
) {
    let pick = |rng: &mut Prng, len: usize| rng.gen_range(0..len);
    for _ in 0..steps {
        let op = rng.gen_range(0..7);
        let (x, y, z) = (
            pick(rng, fa.len()),
            pick(rng, fa.len()),
            pick(rng, fa.len()),
        );
        let v = Var(rng.gen_range(0..num_vars as usize) as u32);
        let value = rng.gen_bool(0.5);
        let (na, nb) = match op {
            0 => (a.var(v), b.var(v)),
            1 => (a.not(fa[x]), b.not(fb[x])),
            2 => (a.and(fa[x], fa[y]), b.and(fb[x], fb[y])),
            3 => (a.or(fa[x], fa[y]), b.or(fb[x], fb[y])),
            4 => (a.xor(fa[x], fa[y]), b.xor(fb[x], fb[y])),
            5 => (a.ite(fa[x], fa[y], fa[z]), b.ite(fb[x], fb[y], fb[z])),
            _ => (a.restrict(fa[x], v, value), b.restrict(fb[x], v, value)),
        };
        fa.push(na);
        fb.push(nb);
    }
}

/// Asserts that the two handle vectors represent the same functions:
/// model counts over the full universe plus sampled evaluations.
fn assert_equivalent(
    rng: &mut Prng,
    a: &Manager,
    b: &Manager,
    num_vars: u32,
    fa: &[Bdd],
    fb: &[Bdd],
) {
    assert_eq!(fa.len(), fb.len());
    for (i, (&x, &y)) in fa.iter().zip(fb).enumerate() {
        assert_eq!(
            a.sat_count(x, num_vars),
            b.sat_count(y, num_vars),
            "SAT count diverged for handle {i}"
        );
        for _ in 0..16 {
            let bits: u64 = rng.gen_range(0..(1usize << num_vars)) as u64;
            let assign = |v: Var| (bits >> v.index()) & 1 == 1;
            assert_eq!(
                a.eval(x, assign),
                b.eval(y, assign),
                "handle {i} at {bits:b}"
            );
        }
    }
}

#[test]
fn random_builds_with_interleaved_gc_stay_equivalent() {
    let mut rng = Prng::seed_from_u64(0xD15EA5E);
    for round in 0..12u64 {
        let num_vars = 6 + (round % 5) as u32; // 6..=10
        let mut touched = Manager::new(num_vars);
        let untouched = &mut Manager::new(num_vars);
        let mut fa: Vec<Bdd> = vec![touched.bot(), touched.top()];
        let mut fb: Vec<Bdd> = vec![untouched.bot(), untouched.top()];
        for _ in 0..4 {
            random_build(
                &mut rng,
                &mut touched,
                untouched,
                num_vars,
                12,
                &mut fa,
                &mut fb,
            );
            // Interleave collections on the touched manager only.
            let live = touched.live_size(&fa);
            let gc = touched.collect_garbage(&fa);
            assert_eq!(gc.stats().arena_after, live);
            for f in fa.iter_mut() {
                *f = gc.remap(*f).expect("rooted handle survives");
            }
            // Every collection leaves a fully auditable arena behind —
            // canonical, sound caches, ordered and sorted edges.
            let report = touched.audit();
            assert!(report.is_ok(), "touched arena after maintenance: {report}");
            assert_equivalent(&mut rng, &touched, untouched, num_vars, &fa, &fb);
        }
        // The maintained arena never exceeds the untouched one at rest.
        let gc = touched.collect_garbage(&fa);
        for f in fa.iter_mut() {
            *f = gc.remap(*f).expect("rooted handle survives");
        }
        assert!(touched.arena_size() <= untouched.arena_size() + fa.len());
        assert_equivalent(&mut rng, &touched, untouched, num_vars, &fa, &fb);
        let touched_report = touched.audit();
        let untouched_report = untouched.audit();
        assert!(touched_report.is_ok(), "{touched_report}");
        assert!(untouched_report.is_ok(), "{untouched_report}");
    }
}

#[test]
fn gc_keeps_canonicity_with_fresh_operations() {
    // After a collection, rebuilding a function from scratch must land on
    // the same node as its maintained handle (hash-consing stays sound).
    let mut rng = Prng::seed_from_u64(0xCAFE);
    for _ in 0..8 {
        let num_vars = 8u32;
        let mut m = Manager::new(num_vars);
        let mut fs: Vec<Bdd> = vec![m.bot(), m.top()];
        let mut mirror = Manager::new(num_vars); // only to drive the same build
        let mut gs: Vec<Bdd> = vec![mirror.bot(), mirror.top()];
        random_build(
            &mut rng,
            &mut m,
            &mut mirror,
            num_vars,
            20,
            &mut fs,
            &mut gs,
        );
        let gc = m.collect_garbage(&fs);
        for f in fs.iter_mut() {
            *f = gc.remap(*f).expect("rooted");
        }
        let report = m.audit();
        assert!(report.is_ok(), "arena after gc: {report}");
        // x ∧ y rebuilt twice gives the same handle; double negation is
        // the identity on every maintained handle.
        for &f in fs.iter().take(8) {
            let n = m.not(f);
            assert_eq!(m.not(n), f);
            let idem = m.and(f, f);
            assert_eq!(idem, f);
        }
    }
}

#[test]
fn tree_bdd_maintenance_matches_untouched_translation() {
    let mut rng = Prng::seed_from_u64(0xB0BA);
    for seed in 0..6u64 {
        let tree = random_tree(&RandomTreeConfig {
            num_basic: 10,
            num_gates: 7,
            max_children: 3,
            vot_probability: 0.2,
            seed: 0xFEED + seed,
        });
        let mut plain = bfl_fault_tree::bdd::TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let mut maintained =
            bfl_fault_tree::bdd::TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        for e in tree.iter() {
            let _ = plain.element_bdd(&tree, e);
            let _ = maintained.element_bdd(&tree, e);
            if rng.gen_bool(0.3) {
                let _ = maintained.collect_garbage();
            }
        }
        let _ = maintained.collect_garbage();
        let report = maintained.manager().audit();
        assert!(report.is_ok(), "maintained arena: {report}");
        for e in tree.iter() {
            let f = plain.element_bdd(&tree, e);
            let g = maintained.element_bdd(&tree, e);
            for _ in 0..40 {
                let bits: Vec<bool> = (0..tree.num_basic_events())
                    .map(|_| rng.gen_bool(0.5))
                    .collect();
                let b = StatusVector::from_bits(bits);
                assert_eq!(
                    plain.eval_vector(&tree, f, &b),
                    maintained.eval_vector(&tree, g, &b),
                    "element {} at {b}",
                    tree.name(e)
                );
            }
        }
    }
}

#[test]
fn sessions_with_maintenance_agree_with_static_sessions() {
    let mut rng = Prng::seed_from_u64(0xA11CE);
    for seed in 0..4u64 {
        let tree = random_tree(&RandomTreeConfig {
            num_basic: 8,
            num_gates: 5,
            max_children: 3,
            vot_probability: 0.2,
            seed: 0xACE + seed,
        });
        let names: Vec<String> = tree.iter().map(|e| tree.name(e).to_string()).collect();
        let basics: Vec<String> = tree
            .basic_event_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let stat = AnalysisSession::new(tree.clone());
        let with_gc = AnalysisSession::builder().gc(true).build(tree);
        for _ in 0..6 {
            let phi = random_formula(&mut rng, &names, &basics, 3);
            // Full satisfaction sets and counts survive collections.
            match (
                stat.satisfying_vectors(&phi),
                with_gc.satisfying_vectors(&phi),
            ) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{phi}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "{phi}"),
                (a, b) => panic!("paths disagree on {phi}: {a:?} vs {b:?}"),
            }
            if let (Ok(a), Ok(b)) = (stat.count_satisfying(&phi), with_gc.count_satisfying(&phi)) {
                assert_eq!(a, b, "{phi}");
            }
            let q = if rng.gen_bool(0.5) {
                Query::exists(phi)
            } else {
                Query::forall(phi)
            };
            // Prepared path on the maintained session: a collection
            // follows every prepare, every eval restricts remapped roots.
            if let Ok(prepared) = with_gc.prepare(&q) {
                with_gc.maintain();
                for _ in 0..3 {
                    let scenario = random_scenario(&mut rng, &basics);
                    let top = with_gc.tree().name(with_gc.tree().top()).to_string();
                    let fast = prepared.eval(&scenario).expect("eval");
                    let slow = stat
                        .check_query(&scenario.specialise_query(&q, &top))
                        .expect("static path");
                    assert_eq!(fast.holds, slow.holds, "{q} under {scenario}");
                }
            }
        }
        // The maintained session's books balance.
        let stats = with_gc.maintenance_stats();
        assert!(
            stats.gc_runs >= 1,
            "every prepare was followed by a collection"
        );
        assert!(stats.audits_run >= 1, "every maintenance cycle audits");
        assert_eq!(stats.audit_violations, 0, "arena must audit clean");
    }
}

#[test]
fn prepared_probabilities_survive_interleaved_gc() {
    // The plan's node-keyed Shannon memo is invalidated through the
    // GC plan registry: every maintenance pass bumps the plan
    // generation and the next walk starts fresh. Interleaving explicit
    // maintain() calls with probability evaluations must never change a
    // value — cross-checked against a static session and the naive
    // reference.
    use bfl::logic::quant;

    let mut rng = Prng::seed_from_u64(0x5EED);
    for seed in 0..3u64 {
        let tree = random_tree(&RandomTreeConfig {
            num_basic: 8,
            num_gates: 6,
            max_children: 3,
            vot_probability: 0.2,
            seed: 0xC0DE + seed,
        });
        let n = tree.num_basic_events();
        let probs: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(5..95) as f64 / 100.0)
            .collect();
        let names: Vec<String> = tree.iter().map(|e| tree.name(e).to_string()).collect();
        let basics: Vec<String> = tree
            .basic_event_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let with_gc = AnalysisSession::builder()
            .gc(true)
            .probabilities(probs.iter().map(|&p| Some(p)).collect())
            .build(tree.clone());
        for _ in 0..4 {
            let phi = random_formula(&mut rng, &names, &basics, 3);
            let Ok(expected) = quant::probability_naive(&tree, &phi, &probs) else {
                continue;
            };
            let prepared = match with_gc.prepare(&Query::exists(phi.clone())) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let before = prepared.probability(&Scenario::new()).unwrap();
            assert!((before - expected).abs() < 1e-9, "{phi}");
            // Maintenance remaps the compiled roots and drops the memo;
            // values are bit-identical afterwards.
            with_gc.maintain();
            let after = prepared.probability(&Scenario::new()).unwrap();
            assert!(
                (after - expected).abs() < 1e-12,
                "{phi}: {before} vs {after}"
            );
            // Scenario probabilities agree with the evidence-wrapped
            // recompute path across another maintenance.
            let scenario = random_scenario(&mut rng, &basics);
            let p1 = prepared.probability(&scenario).unwrap();
            with_gc.maintain();
            let p2 = prepared.probability(&scenario).unwrap();
            assert!((p1 - p2).abs() < 1e-12, "{phi} under {scenario}");
            let wrapped = scenario.specialise(&phi);
            let naive = quant::probability_naive(&tree, &wrapped, &probs).unwrap();
            assert!((p1 - naive).abs() < 1e-9, "{phi} under {scenario}");
        }
        let stats = with_gc.maintenance_stats();
        assert!(stats.audits_run >= 1, "explicit maintain() cycles audit");
        assert_eq!(stats.audit_violations, 0, "arena must audit clean");
    }
}

#[test]
fn importance_ranks_survive_maintenance() {
    let tree = bfl::ft::corpus::covid();
    let n = tree.num_basic_events();
    let probs: Vec<Option<f64>> = (0..n).map(|i| Some(0.05 + (i as f64) * 0.02)).collect();
    let stat = AnalysisSession::builder()
        .probabilities(probs.clone())
        .build(tree.clone());
    let with_gc = AnalysisSession::builder()
        .gc(true)
        .probabilities(probs)
        .build(tree);
    let phi = parse_formula("IWoS").unwrap();
    let reference = stat.rank_events(&phi).unwrap();
    with_gc.maintain();
    assert_eq!(with_gc.maintenance_stats().audit_violations, 0);
    let maintained = with_gc.rank_events(&phi).unwrap();
    assert_eq!(reference.len(), maintained.len());
    for (a, b) in reference.iter().zip(&maintained) {
        assert_eq!(a.event, b.event);
        assert!((a.birnbaum - b.birnbaum).abs() < 1e-12, "{}", a.event);
        assert!(
            (a.fussell_vesely - b.fussell_vesely).abs() < 1e-12,
            "{}",
            a.event
        );
    }
}

#[test]
fn probabilities_survive_maintenance() {
    let mut rng = Prng::seed_from_u64(0x9E37);
    let tree = bfl::ft::corpus::covid();
    let probs: Vec<Option<f64>> = (0..tree.num_basic_events())
        .map(|_| Some(0.05 + 0.9 * rng.gen_bool(0.5) as u8 as f64 * 0.1))
        .collect();
    let stat = AnalysisSession::builder()
        .probabilities(probs.clone())
        .build(tree.clone());
    let with_gc = AnalysisSession::builder()
        .gc(true)
        .probabilities(probs)
        .build(tree);
    for src in ["IWoS", "MCS(IWoS)", "MoT & !H1", "CP/R | SH"] {
        let phi = parse_formula(src).unwrap();
        let a = stat.formula_probability(&phi).unwrap();
        with_gc.maintain();
        let b = with_gc.formula_probability(&phi).unwrap();
        assert!((a - b).abs() < 1e-12, "{src}: {a} vs {b}");
    }
    let a = stat
        .birnbaum(&parse_formula("IWoS").unwrap(), "IW")
        .unwrap();
    let b = with_gc
        .birnbaum(&parse_formula("IWoS").unwrap(), "IW")
        .unwrap();
    assert!((a - b).abs() < 1e-12);
}
