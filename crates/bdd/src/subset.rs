//! The strict subset/superset relations between status vectors used by the
//! `MCS`/`MPS` translations of Algorithm 1:
//!
//! `V′ ⊂ V  ≡  (⋀_k v′_k ⇒ v_k) ∧ (⋁_k v′_k ≠ v_k)`.

use crate::manager::{Bdd, Manager, Var};

impl Manager {
    /// Builds the relation *"the primed vector is a strict subset of the
    /// unprimed vector"* over the given `(unprimed, primed)` variable pairs.
    ///
    /// Reading each vector as the set of variables assigned `1`, the result
    /// is satisfied exactly when `{k | v′_k = 1} ⊊ {k | v_k = 1}`.
    ///
    /// For linear-size results the pairs should be interleaved in the
    /// variable order (`v_k` immediately above `v′_k`), which is how the
    /// `bfl-core` model checker allocates them.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(4);
    /// // pairs (x0, x1) and (x2, x3): primed = odd levels
    /// let rel = m.strict_subset(&[(Var(0), Var(1)), (Var(2), Var(3))]);
    /// // {x2} ⊊ {x0, x2}: v = (1,1), v' = (0,1)
    /// assert!(m.eval(rel, |v| v == Var(0) || v == Var(2) || v == Var(3)));
    /// // equal sets are not strict subsets
    /// assert!(!m.eval(rel, |v| v == Var(0) || v == Var(1)));
    /// ```
    pub fn strict_subset(&mut self, pairs: &[(Var, Var)]) -> Bdd {
        self.strict_inclusion(pairs, true)
    }

    /// Builds the relation *"the primed vector is a strict superset of the
    /// unprimed vector"*, i.e. `{k | v_k = 1} ⊊ {k | v′_k = 1}`.
    ///
    /// This is the dual relation used for the `MPS` operator (maximal
    /// vectors; see `DESIGN.md` §4).
    pub fn strict_superset(&mut self, pairs: &[(Var, Var)]) -> Bdd {
        self.strict_inclusion(pairs, false)
    }

    /// `primed_smaller = true`: primed ⊊ unprimed; otherwise primed ⊋
    /// unprimed.
    fn strict_inclusion(&mut self, pairs: &[(Var, Var)], primed_smaller: bool) -> Bdd {
        // Build bottom-up (deepest unprimed variable first), so the
        // construction stays linear when pairs are interleaved.
        let mut sorted: Vec<(Var, Var)> = pairs.to_vec();
        sorted.sort_by_key(|&(v, _)| std::cmp::Reverse(v));
        let mut all_leq = self.top();
        let mut strict = self.bot();
        for &(unprimed, primed) in &sorted {
            let u = self.var(unprimed);
            let p = self.var(primed);
            let (small, big) = if primed_smaller { (p, u) } else { (u, p) };
            let leq = self.implies(small, big);
            // Strictly-less at position k: big holds, small does not.
            let nsmall = self.not(small);
            let lt = self.and(nsmall, big);
            // strict' = (leq_k ∧ strict) ∨ (lt_k ∧ all_leq)
            let keep = self.and(leq, strict);
            let new = self.and(lt, all_leq);
            strict = self.or(keep, new);
            all_leq = self.and(leq, all_leq);
        }
        strict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force check of the subset relation over n pairs.
    fn check_relation(n: u32, superset: bool) {
        let mut m = Manager::new(2 * n);
        let pairs: Vec<(Var, Var)> = (0..n).map(|k| (Var(2 * k), Var(2 * k + 1))).collect();
        let rel = if superset {
            m.strict_superset(&pairs)
        } else {
            m.strict_subset(&pairs)
        };
        for v_bits in 0..(1u32 << n) {
            for p_bits in 0..(1u32 << n) {
                let expected = {
                    let subset_ok = if superset {
                        v_bits & p_bits == v_bits
                    } else {
                        v_bits & p_bits == p_bits
                    };
                    subset_ok && v_bits != p_bits
                };
                let got = m.eval(rel, |var| {
                    let k = var.0 / 2;
                    if var.0 % 2 == 0 {
                        (v_bits >> k) & 1 == 1
                    } else {
                        (p_bits >> k) & 1 == 1
                    }
                });
                assert_eq!(
                    got, expected,
                    "n={n} superset={superset} v={v_bits:b} p={p_bits:b}"
                );
            }
        }
    }

    #[test]
    fn subset_relation_matches_brute_force() {
        for n in 1..=4 {
            check_relation(n, false);
        }
    }

    #[test]
    fn superset_relation_matches_brute_force() {
        for n in 1..=4 {
            check_relation(n, true);
        }
    }

    #[test]
    fn empty_relation_is_false() {
        let mut m = Manager::new(0);
        let r = m.strict_subset(&[]);
        assert!(r.is_false());
    }

    #[test]
    fn subset_relation_is_linear_sized() {
        let n = 32;
        let mut m = Manager::new(2 * n);
        let pairs: Vec<(Var, Var)> = (0..n).map(|k| (Var(2 * k), Var(2 * k + 1))).collect();
        let rel = m.strict_subset(&pairs);
        // 2 internal states per pair plus slack — far below exponential.
        assert!(m.node_count(rel) < 8 * n as usize);
    }
}
