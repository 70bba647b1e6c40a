//! Edge-case and robustness tests for the BDD engine beyond the
//! property-based oracle suite.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use bfl_bdd::{Manager, Var};

#[test]
fn constants_behave() {
    let mut m = Manager::new(1);
    let t = m.top();
    let f = m.bot();
    assert_eq!(m.and(t, f), f);
    assert_eq!(m.or(t, f), t);
    assert_eq!(m.xor(t, t), f);
    assert_eq!(m.not(t), f);
    assert_eq!(m.implies(f, t), t);
    assert_eq!(m.iff(f, f), t);
    assert_eq!(m.constant(true), t);
    assert_eq!(m.constant(false), f);
}

#[test]
fn restrict_all_applies_in_order() {
    let mut m = Manager::new(3);
    let a = m.var(Var(0));
    let b = m.var(Var(1));
    let c = m.var(Var(2));
    let ab = m.and(a, b);
    let f = m.or(ab, c);
    let r = m.restrict_all(f, &[(Var(0), true), (Var(1), true)]);
    assert!(r.is_true());
    let r2 = m.restrict_all(f, &[(Var(0), false), (Var(2), false)]);
    assert!(r2.is_false());
    let r3 = m.restrict_all(f, &[]);
    assert_eq!(r3, f);
}

#[test]
fn quantifying_missing_variables_is_identity() {
    let mut m = Manager::new(3);
    let a = m.var(Var(0));
    let e = m.exists(a, &[Var(2)]);
    assert_eq!(e, a);
    let f = m.forall(a, &[Var(1), Var(2)]);
    assert_eq!(f, a);
    // Quantifying a constant is a no-op too.
    let t = m.top();
    assert_eq!(m.exists(t, &[Var(0)]), t);
}

#[test]
#[should_panic(expected = "node limit exceeded")]
fn node_limit_enforced() {
    let mut m = Manager::new(16);
    m.set_node_limit(8);
    // Build a function whose BDD needs more than 8 nodes.
    let mut acc = m.bot();
    for i in 0..8 {
        let v = m.var(Var(2 * i));
        let w = m.var(Var(2 * i + 1));
        let p = m.and(v, w);
        acc = m.or(acc, p);
    }
}

#[test]
fn sat_count_handles_wide_universes() {
    let mut m = Manager::new(100);
    let a = m.var(Var(0));
    // One fixed variable, 99 free: 2^99 models.
    assert_eq!(m.sat_count(a, 100), Some(1u128 << 99));
    assert_eq!(m.sat_count(m.top(), 100), Some(1u128 << 100));
}

#[test]
fn any_sat_prefers_low_branch() {
    let mut m = Manager::new(2);
    let a = m.var(Var(0));
    let b = m.var(Var(1));
    let f = m.or(a, b);
    // Lexicographically smallest witness: a=0, b=1.
    assert_eq!(m.any_sat(f).unwrap(), vec![(Var(0), false), (Var(1), true)]);
}

#[test]
fn rename_identity_is_noop() {
    let mut m = Manager::new(4);
    let a = m.var(Var(1));
    let b = m.var(Var(3));
    let f = m.xor(a, b);
    let g = m.rename(f, &|v| v);
    assert_eq!(f, g);
}

#[test]
fn deep_chain_is_linear() {
    // x0 ∧ x1 ∧ … ∧ x63: exactly 64 decision nodes + 2 terminals.
    let n = 64;
    let mut m = Manager::new(n);
    let vars: Vec<_> = (0..n).map(|i| m.var(Var(i))).collect();
    let f = m.and_all(vars);
    assert_eq!(m.node_count(f), n as usize + 2);
    assert_eq!(m.sat_count(f, n), Some(1));
}

#[test]
fn a_chain_of_200_000_levels_is_weighed_and_counted_without_overflowing_the_stack() {
    // One OR gate over 200,000 variables is a chain as deep as the gate
    // is wide; the probability and the count walk all of it.
    let n = 200_000;
    let mut m = Manager::new(n);
    let vars: Vec<_> = (0..n).map(|i| m.var(Var(i))).collect();
    let f = m.or_all(vars);
    let p = m.probability(f, |_| 0.00001);
    let expected = 1.0 - (1.0_f64 - 0.00001).powi(n as i32);
    assert!((p - expected).abs() < 1e-9, "{p} vs {expected}");
    let universe: Vec<Var> = (0..n).map(Var).collect();
    assert_eq!(m.sat_count_over(f, &universe), None, "2^200,000 - 1 models");
    let nf = m.not(f);
    assert_eq!(m.sat_count_over(nf, &universe), Some(1));
}

#[test]
fn xor_chain_is_linear_not_exponential() {
    // Parity is the classical linear-BDD function.
    let n = 32;
    let mut m = Manager::new(n);
    let mut acc = m.bot();
    for i in 0..n {
        let v = m.var(Var(i));
        acc = m.xor(acc, v);
    }
    assert!(m.node_count(acc) <= 2 * n as usize + 2);
    assert_eq!(m.sat_count(acc, n), Some(1u128 << (n - 1)));
}

#[test]
fn and_exists_short_circuits_to_true() {
    let mut m = Manager::new(4);
    let a = m.var(Var(0));
    let na = m.not(a);
    // ∃a. (a ∨ ¬a) ∧ ⊤ = ⊤
    let f = m.or(a, na);
    let r = m.and_exists(f, m.top(), &[Var(0)]);
    assert!(r.is_true());
}

#[test]
fn support_of_composed_functions() {
    let mut m = Manager::new(3);
    let a = m.var(Var(0));
    let b = m.var(Var(1));
    let c = m.var(Var(2));
    let f = m.ite(a, b, c);
    assert_eq!(m.support(f), vec![Var(0), Var(1), Var(2)]);
    // Composing b := c collapses the ite: a·c + ¬a·c = c.
    let g = m.compose(f, Var(1), c);
    assert_eq!(g, c);
    assert_eq!(m.support(g), vec![Var(2)]);
}
