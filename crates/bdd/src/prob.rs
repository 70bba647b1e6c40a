//! Weighted model counting: the node-keyed Shannon probability walk.
//!
//! Given a weight `w(v) ∈ [0, 1]` per variable (the probability that `v`
//! is true, independently of the others), the probability of a BDD is
//! defined bottom-up by the Shannon expansion
//! `P(f) = (1 − w(v)) · P(f|v=0) + w(v) · P(f|v=1)`, memoised **per
//! node** so shared subgraphs are walked once. The walk lives here, in
//! the BDD crate, because everything above (fault-tree unreliability,
//! formula probabilities, prepared-plan probability sweeps) is the same
//! recursion with a different variable-weight map — and because the memo
//! key is the arena node id, whose lifecycle (rollback) is owned by this
//! crate.
//!
//! Memo lifetime: entries are keyed on [`Bdd::id`], which is stable
//! under construction; only [`Manager::rollback`](crate::Manager::rollback)
//! invalidates the ids it drops, which the next nodes reuse. Callers
//! that cache a memo across operations must forget the dropped ids after
//! a rollback; the session layer does.
//!
//! The memo is any [`NodeMemo`]: a [`WatermarkMemo`](crate::WatermarkMemo),
//! which a caller keeps across requests that each roll back, or a
//! `HashMap<u32, _>`. The point and interval walks are one walk over
//! different leaf values and node steps.

use crate::hash::WordMap;
use crate::manager::{Bdd, Manager, Var};
use crate::memo::NodeMemo;

impl Manager {
    /// The probability of `f` under independent per-variable weights
    /// (`weight(v)` = probability that `v` is true).
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let or = m.or(a, b);
    /// // P(a ∨ b) = 1 − (1 − 0.1)(1 − 0.2) = 0.28
    /// let p = m.probability(or, |v| if v.index() == 0 { 0.1 } else { 0.2 });
    /// assert!((p - 0.28).abs() < 1e-12);
    /// ```
    ///
    /// (See [`Manager::probability_with_memo`] for the memoised form the
    /// engine uses across many roots.)
    pub fn probability<W: Fn(Var) -> f64>(&self, f: Bdd, weight: W) -> f64 {
        let mut memo = WordMap::default();
        self.probability_with_memo(f, &weight, &mut memo)
    }

    /// [`Manager::probability`] with a caller-owned node-keyed memo, so
    /// repeated walks over diagrams sharing subgraphs (e.g. one
    /// restriction per scenario of a sweep) pay only for the nodes they
    /// see first.
    ///
    /// The caller owns the memo's lifetime: it must forget the ids a
    /// rollback drops, and must only ever be used with one fixed
    /// `weight` map.
    pub fn probability_with_memo<W: Fn(Var) -> f64, M: NodeMemo<f64>>(
        &self,
        f: Bdd,
        weight: &W,
        memo: &mut M,
    ) -> f64 {
        self.shannon(
            f,
            [0.0, 1.0],
            &|v, lo, hi| {
                let w = weight(v);
                (1.0 - w) * lo + w * hi
            },
            memo,
        )
    }

    /// Interval twin of [`Manager::probability`]: propagates conservative
    /// `[lo, hi]` probability bounds through the Shannon walk when each
    /// variable's weight is only known to lie in an interval
    /// (`weight(v) = (wl, wh)` with `0 ≤ wl ≤ wh ≤ 1`).
    ///
    /// At each node both endpoints of the child intervals are combined
    /// with both endpoints of the variable weight and the extremes are
    /// kept, so the result brackets every point probability obtainable by
    /// picking a weight inside each variable's interval. Degenerate
    /// intervals `(p, p)` reproduce [`Manager::probability`] **bit for
    /// bit**: the candidate expressions collapse to the exact walk's
    /// `(1 − w)·lo + w·hi`.
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let or = m.or(a, b);
    /// let (lo, hi) = m.probability_interval(or, |v| {
    ///     if v.index() == 0 { (0.1, 0.3) } else { (0.2, 0.2) }
    /// });
    /// // P(a ∨ b) with P(a) ∈ [0.1, 0.3]: [0.28, 0.44]
    /// assert!((lo - 0.28).abs() < 1e-12 && (hi - 0.44).abs() < 1e-12);
    /// ```
    pub fn probability_interval<W: Fn(Var) -> (f64, f64)>(&self, f: Bdd, weight: W) -> (f64, f64) {
        let mut memo = WordMap::default();
        self.probability_interval_with_memo(f, &weight, &mut memo)
    }

    /// [`Manager::probability_interval`] with a caller-owned node-keyed
    /// memo (same lifetime rules as [`Manager::probability_with_memo`]:
    /// forget what a rollback drops, one fixed weight map per memo).
    pub fn probability_interval_with_memo<W: Fn(Var) -> (f64, f64), M: NodeMemo<(f64, f64)>>(
        &self,
        f: Bdd,
        weight: &W,
        memo: &mut M,
    ) -> (f64, f64) {
        self.shannon(
            f,
            [(0.0, 0.0), (1.0, 1.0)],
            &|v, (lo_l, lo_h), (hi_l, hi_h)| {
                let (wl, wh) = weight(v);
                // Both child bounds lie in [0, 1], so for each endpoint it
                // suffices to scan the two weight extremes; the expression
                // shape matches the exact walk so degenerate intervals
                // stay bit-identical to `probability_with_memo`.
                let cand_lo_wl = (1.0 - wl) * lo_l + wl * hi_l;
                let cand_lo_wh = (1.0 - wh) * lo_l + wh * hi_l;
                let cand_hi_wl = (1.0 - wl) * lo_h + wl * hi_h;
                let cand_hi_wh = (1.0 - wh) * lo_h + wh * hi_h;
                (cand_lo_wl.min(cand_lo_wh), cand_hi_wl.max(cand_hi_wh))
            },
            memo,
        )
    }

    /// The Shannon walk behind both probability walks: `leaves` are the
    /// values of `⊥` and `⊤`, and `step(v, low, high)` combines a node's
    /// children. Memoised per node in `memo`.
    ///
    /// Walks an explicit stack, so a long chain (one wide OR gate) cannot
    /// overflow the call stack. The order is the recursive post-order
    /// (the low subtree, then the high subtree, then the node), so every
    /// node combines the same two values into the same bits.
    fn shannon<V: Copy, M: NodeMemo<V>>(
        &self,
        f: Bdd,
        leaves: [V; 2],
        step: &impl Fn(Var, V, V) -> V,
        memo: &mut M,
    ) -> V {
        let known = |g: Bdd, memo: &M| {
            if g.is_terminal() {
                Some(leaves[g.id() as usize])
            } else {
                memo.get(g.id())
            }
        };
        if let Some(p) = known(f, memo) {
            return p;
        }
        // `(g, None)` asks for g's value; `(g, Some(v))` combines the
        // values of g's children, which sit on top of `done`, high above
        // low.
        let mut todo = vec![(f, None)];
        let mut done: Vec<V> = Vec::new();
        while let Some((g, var)) = todo.pop() {
            if let Some(var) = var {
                let (Some(hi), Some(lo)) = (done.pop(), done.pop()) else {
                    unreachable!("both children are walked before their parent")
                };
                let p = step(var, lo, hi);
                memo.insert(g.id(), p);
                done.push(p);
            } else if let Some(p) = known(g, memo) {
                done.push(p);
            } else {
                let node = self.node(g);
                todo.push((g, Some(node.var)));
                todo.push((node.high, None));
                todo.push((node.low, None));
            }
        }
        done.pop()
            .unwrap_or_else(|| unreachable!("the root's value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn terminals_and_single_var() {
        let mut m = Manager::new(1);
        let bot = m.bot();
        let top = m.top();
        let x = m.var(Var(0));
        let w = |_: Var| 0.3;
        let mut memo = HashMap::new();
        assert_eq!(m.probability_with_memo(bot, &w, &mut memo), 0.0);
        assert_eq!(m.probability_with_memo(top, &w, &mut memo), 1.0);
        assert!((m.probability_with_memo(x, &w, &mut memo) - 0.3).abs() < 1e-15);
    }

    #[test]
    fn or_and_shannon() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let or = m.or(a, b);
        let and = m.and(a, b);
        let w = |v: Var| if v.index() == 0 { 0.1 } else { 0.2 };
        let mut memo = HashMap::new();
        assert!((m.probability_with_memo(or, &w, &mut memo) - 0.28).abs() < 1e-15);
        assert!((m.probability_with_memo(and, &w, &mut memo) - 0.02).abs() < 1e-15);
    }

    #[test]
    fn memo_is_reused_across_roots() {
        let mut m = Manager::new(4);
        let vars: Vec<Bdd> = (0..4).map(|i| m.var(Var(i))).collect();
        let ab = m.and(vars[0], vars[1]);
        let abc = m.or(ab, vars[2]);
        let w = |_: Var| 0.5;
        let mut memo = HashMap::new();
        let _ = m.probability_with_memo(abc, &w, &mut memo);
        let filled = memo.len();
        // Re-walking the diagram, or walking one of its cofactors (a
        // shared subgraph), adds no entries.
        let _ = m.probability_with_memo(abc, &w, &mut memo);
        let cofactor = m.restrict(abc, Var(0), true);
        let _ = m.probability_with_memo(cofactor, &w, &mut memo);
        assert_eq!(memo.len(), filled);
    }

    #[test]
    fn interval_walk_brackets_point_walk() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let lo_w = [0.05, 0.1, 0.2];
        let hi_w = [0.15, 0.3, 0.4];
        let (lo, hi) =
            m.probability_interval(f, |v| (lo_w[v.index() as usize], hi_w[v.index() as usize]));
        assert!(lo <= hi);
        // Any point weight inside the per-variable intervals must land
        // inside the propagated interval.
        for t in 0..=4 {
            let frac = t as f64 / 4.0;
            let p = m.probability(f, |v| {
                let i = v.index() as usize;
                lo_w[i] + frac * (hi_w[i] - lo_w[i])
            });
            assert!(lo <= p && p <= hi, "t={t}: {p} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn degenerate_intervals_are_bit_identical_to_exact() {
        let mut m = Manager::new(4);
        let vars: Vec<Bdd> = (0..4).map(|i| m.var(Var(i))).collect();
        let ab = m.and(vars[0], vars[1]);
        let cd = m.or(vars[2], vars[3]);
        let f = m.xor(ab, cd);
        let w = [0.123, 0.456, 0.789, 0.0321];
        let exact = m.probability(f, |v| w[v.index() as usize]);
        let (lo, hi) = m.probability_interval(f, |v| {
            let p = w[v.index() as usize];
            (p, p)
        });
        assert_eq!(lo.to_bits(), exact.to_bits());
        assert_eq!(hi.to_bits(), exact.to_bits());
    }

    #[test]
    fn interval_memo_is_reused_across_roots() {
        let mut m = Manager::new(4);
        let vars: Vec<Bdd> = (0..4).map(|i| m.var(Var(i))).collect();
        let ab = m.and(vars[0], vars[1]);
        let abc = m.or(ab, vars[2]);
        let w = |_: Var| (0.4, 0.6);
        let mut memo = HashMap::new();
        let _ = m.probability_interval_with_memo(abc, &w, &mut memo);
        let filled = memo.len();
        let _ = m.probability_interval_with_memo(abc, &w, &mut memo);
        let cofactor = m.restrict(abc, Var(0), true);
        let _ = m.probability_interval_with_memo(cofactor, &w, &mut memo);
        assert_eq!(memo.len(), filled);
    }

    #[test]
    fn complement_sums_to_one() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let ab = m.and(a, b);
        let f = m.xor(ab, c);
        let g = m.not(f);
        let w = |v: Var| [0.12, 0.34, 0.56][v.index() as usize];
        let mut memo = HashMap::new();
        let p = m.probability_with_memo(f, &w, &mut memo);
        let q = m.probability_with_memo(g, &w, &mut memo);
        assert!((p + q - 1.0).abs() < 1e-12);
    }
}
