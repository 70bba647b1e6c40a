//! Boolean operations: `ite`, the binary `apply` family, negation,
//! cofactoring, quantification, renaming and composition.

use std::cmp::Reverse;

use crate::computed::Key;
use crate::hash::WordMap;
use crate::manager::{Bdd, Manager, Op, Var, TERMINAL_LEVEL};
use crate::memo::{Frame, Scratch};

impl Manager {
    /// If-then-else: computes `(f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// This is the workhorse of the `apply` family (Brace–Rudell–Bryant).
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if let Some(r) = self.computed.get(Key::ite(f, g, h)) {
            return r;
        }
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        debug_assert_ne!(top, TERMINAL_LEVEL);
        let v = Var(top);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let r = self.mk(v, low, high);
        self.computed.put(Key::ite(f, g, h), r);
        r
    }

    /// The two cofactors of `f` with respect to the variable `v`, where `v`
    /// is at or above the root level of `f`.
    #[inline]
    pub(crate) fn cofactors(&self, f: Bdd, v: Var) -> (Bdd, Bdd) {
        let node = self.node(f);
        if node.var == v {
            (node.low, node.high)
        } else {
            (f, f)
        }
    }

    /// Logical negation `¬f`.
    ///
    /// Walks an explicit stack, not the call stack, so negating a long
    /// chain (one wide OR gate) cannot overflow it. The walk is the
    /// recursive post-order: the low subtree, then the high subtree, then
    /// the node, so it allocates the same nodes in the same order.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        if let Some(r) = self.not_known(f) {
            return r;
        }
        // `(g, false)` asks for ¬g; `(g, true)` combines g's two negated
        // children, which sit on top of `done`, high above low.
        let mut todo = vec![(f, false)];
        let mut done: Vec<Bdd> = Vec::new();
        while let Some((g, children_done)) = todo.pop() {
            let node = self.node(g);
            if children_done {
                let (Some(high), Some(low)) = (done.pop(), done.pop()) else {
                    unreachable!("both children are negated before their parent")
                };
                let r = self.mk(node.var, low, high);
                self.computed.put(Key::not(g), r);
                // Negation is an involution; prime the cache in both
                // directions.
                self.computed.put(Key::not(r), g);
                done.push(r);
            } else if let Some(r) = self.not_known(g) {
                done.push(r);
            } else {
                todo.push((g, true));
                todo.push((node.high, false));
                todo.push((node.low, false));
            }
        }
        done.pop().unwrap_or_else(|| unreachable!("negated root"))
    }

    /// `¬f` when it needs no walk: for a terminal, or from the cache.
    fn not_known(&self, f: Bdd) -> Option<Bdd> {
        if f.is_terminal() {
            return Some(Bdd(1 - f.0));
        }
        self.computed.get(Key::not(f))
    }

    fn apply(&mut self, op: Op, f: Bdd, g: Bdd) -> Bdd {
        if let Some(r) = self.apply_terminal(op, f, g) {
            return r;
        }
        // All three cached ops are commutative; normalise the key.
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(r) = self.computed.get(Key::apply(op, f, g)) {
            return r;
        }
        let v = Var(self.level(f).min(self.level(g)));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let low = self.apply(op, f0, g0);
        let high = self.apply(op, f1, g1);
        let r = self.mk(v, low, high);
        self.computed.put(Key::apply(op, f, g), r);
        r
    }

    fn apply_terminal(&self, op: Op, f: Bdd, g: Bdd) -> Option<Bdd> {
        match op {
            Op::And => {
                if f.is_false() || g.is_false() {
                    Some(self.bot())
                } else if f.is_true() {
                    Some(g)
                } else if g.is_true() || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Or => {
                if f.is_true() || g.is_true() {
                    Some(self.top())
                } else if f.is_false() {
                    Some(g)
                } else if g.is_false() || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Xor => {
                if f == g {
                    Some(self.bot())
                } else if f.is_false() {
                    Some(g)
                } else if g.is_false() {
                    Some(f)
                } else {
                    None
                }
            }
        }
    }

    /// Conjunction `f ∧ g`.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let ab = m.and(a, b);
    /// assert_eq!(m.sat_count(ab, 2), Some(1));
    /// assert_eq!(m.and(ab, a), ab); // absorption, for free via canonicity
    /// ```
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::And, f, g)
    }

    /// Disjunction `f ∨ g`.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let f = m.or(a, b);
    /// assert_eq!(m.sat_count(f, 2), Some(3)); // 01, 10, 11
    /// ```
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Or, f, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Xor, f, g)
    }

    /// Implication `f ⇒ g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let nf = self.not(f);
        self.or(nf, g)
    }

    /// Biconditional `f ≡ g`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// Conjunction of all operands (`⊤` for an empty iterator), combined
    /// deepest operand first as described at [`Manager::or_all`].
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        let top = self.top();
        self.apply_deepest_first(Op::And, fs.into_iter().collect(), top)
    }

    /// Disjunction of all operands (`⊥` for an empty iterator).
    ///
    /// The operands are sorted by root level, deepest first (a stable
    /// sort, so operands rooted at one level keep their order), and each
    /// is folded into an accumulator that sits at or below its root.
    /// `apply(f, acc)` then copies only `f`'s nodes: it meets `acc` at
    /// `f`'s terminals, where the terminal cases answer at once. When
    /// the operands occupy disjoint level ranges, as a gate's children
    /// largely do under the DFS order, each operand is built once and
    /// the recursion is one operand deep, however wide the gate. A
    /// balanced pairwise reduction would rebuild an operand in each of
    /// its `log₂ k` rounds. Canonicity makes the result the same node
    /// as any other reduction's; only the garbage differs.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(3);
    /// let xs: Vec<_> = (0..3).map(|i| m.var(Var(i))).collect();
    /// let ab = m.or(xs[0], xs[1]);
    /// let left_fold = m.or(ab, xs[2]);
    /// assert_eq!(m.or_all(xs), left_fold);
    /// assert_eq!(m.or_all([]), m.bot());
    /// // Deepest first: x1 ∨ x2 is one new node and x0 on top of it is
    /// // another. Both are live, so the fold leaves no garbage.
    /// let mut fresh = Manager::new(3);
    /// let ys: Vec<_> = (0..3).map(|i| fresh.var(Var(i))).collect();
    /// let before = fresh.arena_size();
    /// let any = fresh.or_all(ys);
    /// assert_eq!(fresh.arena_size() - before, 2);
    /// assert_eq!(fresh.node_count(any), 5); // three decisions, two terminals
    /// ```
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        let bot = self.bot();
        self.apply_deepest_first(Op::Or, fs.into_iter().collect(), bot)
    }

    /// Reduces `fs` with `op`, deepest root first, into an accumulator
    /// that starts at `unit`.
    fn apply_deepest_first(&mut self, op: Op, mut fs: Vec<Bdd>, unit: Bdd) -> Bdd {
        fs.sort_by_key(|&f| Reverse(self.level(f)));
        fs.into_iter().fold(unit, |acc, f| self.apply(op, f, acc))
    }

    /// Restriction (cofactor) `f[v ↦ value]`: Algorithm 5.20 of Ben-Ari.
    ///
    /// This implements the semantics of the BFL evidence operators
    /// `ϕ[e↦0]` and `ϕ[e↦1]`; it is [`Manager::restrict_many`] with one
    /// assignment.
    pub fn restrict(&mut self, f: Bdd, v: Var, value: bool) -> Bdd {
        self.restrict_many(f, &[(v, value)])
    }

    /// Restriction by several assignments at once, applied sequentially.
    ///
    /// Equivalent to (and implemented as) [`Manager::restrict_many`]: for
    /// distinct variables simultaneous and sequential restriction agree,
    /// and for a repeated variable the *first* assignment wins in both —
    /// once restricted, the variable no longer occurs, so later
    /// assignments to it are identities. This matches the semantics of
    /// chained BFL evidence `ϕ[e↦v][e↦v′]`.
    pub fn restrict_all(&mut self, f: Bdd, assignments: &[(Var, bool)]) -> Bdd {
        self.restrict_many(f, assignments)
    }

    /// Simultaneous restriction `f[v1 ↦ b1, …, vk ↦ bk]` in a **single
    /// traversal** of the diagram, instead of one pass per variable.
    ///
    /// This is the cofactoring workhorse of scenario evaluation
    /// (evidence-as-restriction): a compiled query BDD is specialised to a
    /// whole scenario of evidence bindings at once. For a repeated
    /// variable the first assignment wins (see [`Manager::restrict_all`]);
    /// a variable outside the declared range is an identity.
    ///
    /// The walk costs the nodes it visits: it stops at sub-diagrams below
    /// the deepest bound variable, returns a node whose restricted
    /// children are unchanged as itself, and memoises in the manager's
    /// node-indexed scratch. With no binding inside `f`'s support the
    /// result is `f` and the arena does not grow.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(3);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let c = m.var(Var(2));
    /// let ab = m.and(a, b);
    /// let f = m.or(ab, c);
    /// // f[x0 ↦ 1, x2 ↦ 0] = x1, in one traversal.
    /// let r = m.restrict_many(f, &[(Var(0), true), (Var(2), false)]);
    /// assert_eq!(r, b);
    /// ```
    pub fn restrict_many(&mut self, f: Bdd, assignments: &[(Var, bool)]) -> Bdd {
        let mut s = self.scratch.take();
        if s.binding.len() < self.num_vars() as usize {
            s.binding.resize(self.num_vars() as usize, None);
        }
        // Reverse order + overwrite ⇒ the first occurrence wins. Nothing
        // below the deepest bound level can change.
        let mut deepest = None;
        for &(v, b) in assignments.iter().rev() {
            if v.0 < self.num_vars() {
                s.binding[v.0 as usize] = Some(b);
                deepest = deepest.max(Some(v.0));
            }
        }
        let r = match deepest {
            Some(deepest) => self.restrict_walk(f, deepest, &mut s),
            None => f,
        };
        for &(v, _) in assignments {
            if let Some(slot) = s.binding.get_mut(v.0 as usize) {
                *slot = None;
            }
        }
        self.scratch.put(s);
        r
    }

    /// `f` restricted by the bindings in `s`, none of them below level
    /// `deepest`. Memoised by node in `s`; a node whose children come
    /// back unchanged is its own restriction, with no unique-table probe.
    ///
    /// Walks an explicit stack, so a binding deep in a long chain (one
    /// wide OR gate) cannot overflow the call stack. The walk is the
    /// recursive post-order: a bound node's kept child, or the low
    /// subtree, then the high subtree, then the node. So it makes the same
    /// nodes in the same order.
    fn restrict_walk(&mut self, f: Bdd, deepest: u32, s: &mut Scratch) -> Bdd {
        s.seen.clear();
        s.restricted.clear();
        let mut todo = std::mem::take(&mut s.frames);
        todo.clear();
        let mut g = f;
        let r = 'walk: loop {
            // Descend along bound and low edges to a node that needs no walk.
            let mut r = loop {
                if let Some(r) = self.restriction_known(g, deepest, s) {
                    break r;
                }
                let node = self.node(g);
                match s.binding[node.var.0 as usize] {
                    Some(value) => {
                        todo.push(Frame::Bound(g));
                        g = if value { node.high } else { node.low };
                    }
                    None => {
                        todo.push(Frame::Low(g));
                        g = node.low;
                    }
                }
            };
            // Ascend, handing each restriction to the frame waiting for it.
            loop {
                match todo.pop() {
                    None => break 'walk r,
                    Some(Frame::Bound(p)) => {
                        s.seen.push(p.0);
                        s.restricted.push(r);
                    }
                    Some(Frame::Low(p)) => {
                        todo.push(Frame::High(p, r));
                        g = self.node(p).high;
                        continue 'walk;
                    }
                    Some(Frame::High(p, low)) => {
                        let node = self.node(p);
                        r = if low == node.low && r == node.high {
                            p
                        } else {
                            self.mk(node.var, low, r)
                        };
                        s.seen.push(p.0);
                        s.restricted.push(r);
                    }
                }
            }
        };
        s.frames = todo;
        r
    }

    /// The restriction of `g` when it needs no walk: a terminal or a node
    /// below every bound variable is its own, and a walked node's is
    /// memoised.
    #[inline]
    fn restriction_known(&self, g: Bdd, deepest: u32, s: &Scratch) -> Option<Bdd> {
        if self.level(g) > deepest {
            Some(g)
        } else {
            s.seen.position(g.0).map(|p| s.restricted[p])
        }
    }

    /// Existential quantification `∃ vars. f`.
    ///
    /// Per Theorem 5.23 of Ben-Ari:
    /// `∃v.B = Restrict(B,v,0) ∨ Restrict(B,v,1)`, lifted to sets.
    pub fn exists(&mut self, f: Bdd, vars: &[Var]) -> Bdd {
        let mask = self.var_mask(vars);
        let mut memo = WordMap::default();
        self.exists_rec(f, &mask, &mut memo)
    }

    fn exists_rec(&mut self, f: Bdd, mask: &[bool], memo: &mut WordMap<u32, Bdd>) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f.0) {
            return r;
        }
        let node = self.node(f);
        let low = self.exists_rec(node.low, mask, memo);
        let high = self.exists_rec(node.high, mask, memo);
        let r = if mask[node.var.0 as usize] {
            self.or(low, high)
        } else {
            self.mk(node.var, low, high)
        };
        memo.insert(f.0, r);
        r
    }

    /// Universal quantification `∀ vars. f`, i.e. `¬∃ vars. ¬f`.
    pub fn forall(&mut self, f: Bdd, vars: &[Var]) -> Bdd {
        let nf = self.not(f);
        let e = self.exists(nf, vars);
        self.not(e)
    }

    /// Relational product `∃ vars. (f ∧ g)` computed without materialising
    /// the full conjunction — the classical `AndExists` optimisation.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: &[Var]) -> Bdd {
        let mask = self.var_mask(vars);
        let mut memo = WordMap::default();
        self.and_exists_rec(f, g, &mask, &mut memo)
    }

    fn and_exists_rec(
        &mut self,
        f: Bdd,
        g: Bdd,
        mask: &[bool],
        memo: &mut WordMap<(u32, u32), Bdd>,
    ) -> Bdd {
        if f.is_false() || g.is_false() {
            return self.bot();
        }
        if f.is_true() && g.is_true() {
            return self.top();
        }
        if f.is_true() || g.is_true() || f == g {
            let h = if f.is_true() || f == g { g } else { f };
            let mut ememo = WordMap::default();
            return self.exists_rec(h, mask, &mut ememo);
        }
        let key = if f.0 <= g.0 { (f.0, g.0) } else { (g.0, f.0) };
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let v = Var(self.level(f).min(self.level(g)));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let r = if mask[v.0 as usize] {
            let low = self.and_exists_rec(f0, g0, mask, memo);
            if low.is_true() {
                // Short-circuit: ∨ with ⊤ is ⊤.
                self.top()
            } else {
                let high = self.and_exists_rec(f1, g1, mask, memo);
                self.or(low, high)
            }
        } else {
            let low = self.and_exists_rec(f0, g0, mask, memo);
            let high = self.and_exists_rec(f1, g1, mask, memo);
            self.mk(v, low, high)
        };
        memo.insert(key, r);
        r
    }

    /// Renames variables of `f` according to `map` (the `B[V ↷ V′]` step of
    /// the paper's `MCS` translation).
    ///
    /// `map(v)` must be *strictly monotone* on the support of `f` with
    /// respect to the variable order, otherwise the rebuilt diagram would
    /// not be ordered.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the mapping is not order-preserving, and
    /// panics if a mapped variable is undeclared.
    pub fn rename(&mut self, f: Bdd, map: &dyn Fn(Var) -> Var) -> Bdd {
        let mut memo = WordMap::default();
        self.rename_rec(f, map, &mut memo)
    }

    fn rename_rec(
        &mut self,
        f: Bdd,
        map: &dyn Fn(Var) -> Var,
        memo: &mut WordMap<u32, Bdd>,
    ) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f.0) {
            return r;
        }
        let node = self.node(f);
        let low = self.rename_rec(node.low, map, memo);
        let high = self.rename_rec(node.high, map, memo);
        let v = map(node.var);
        assert!(v.0 < self.num_vars(), "rename target {v} undeclared");
        let r = self.mk(v, low, high);
        memo.insert(f.0, r);
        r
    }

    /// Functional composition: replaces variable `v` in `f` by the function
    /// `g`, i.e. computes `f[v := g] = ite(g, f[v↦1], f[v↦0])`.
    pub fn compose(&mut self, f: Bdd, v: Var, g: Bdd) -> Bdd {
        let f1 = self.restrict(f, v, true);
        let f0 = self.restrict(f, v, false);
        self.ite(g, f1, f0)
    }

    fn var_mask(&self, vars: &[Var]) -> Vec<bool> {
        let mut mask = vec![false; self.num_vars() as usize];
        for v in vars {
            assert!(v.0 < self.num_vars(), "undeclared variable {v}");
            mask[v.0 as usize] = true;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Manager, Bdd, Bdd, Bdd) {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        (m, a, b, c)
    }

    #[test]
    fn de_morgan() {
        let (mut m, a, b, _) = setup();
        let lhs = {
            let ab = m.and(a, b);
            m.not(ab)
        };
        let rhs = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_matches_definition() {
        let (mut m, a, b, c) = setup();
        let via_ite = m.ite(a, b, c);
        let direct = {
            let ab = m.and(a, b);
            let na = m.not(a);
            let nac = m.and(na, c);
            m.or(ab, nac)
        };
        assert_eq!(via_ite, direct);
    }

    #[test]
    fn xor_and_iff_are_complements() {
        let (mut m, a, b, _) = setup();
        let x = m.xor(a, b);
        let e = m.iff(a, b);
        let nx = m.not(x);
        assert_eq!(e, nx);
    }

    #[test]
    fn implication_truth_table() {
        let (mut m, a, b, _) = setup();
        let imp = m.implies(a, b);
        assert!(m.eval(imp, |_| false));
        assert!(m.eval(imp, |v| v == Var(1)));
        assert!(!m.eval(imp, |v| v == Var(0)));
        assert!(m.eval(imp, |_| true));
    }

    #[test]
    fn restrict_is_cofactor() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        let f1 = m.restrict(f, Var(0), true);
        assert_eq!(f1, b);
        let f0 = m.restrict(f, Var(0), false);
        assert!(f0.is_false());
    }

    #[test]
    fn restrict_many_matches_sequential() {
        // Var(3) and Var(4) are declared but outside f's support.
        let mut m = Manager::new(5);
        let (a, b, c) = (m.var(Var(0)), m.var(Var(1)), m.var(Var(2)));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let cases: &[&[(Var, bool)]] = &[
            &[],
            &[(Var(0), true)],
            &[(Var(0), true), (Var(2), false)],
            &[(Var(2), false), (Var(0), true)],
            &[(Var(0), false), (Var(1), true), (Var(2), false)],
            &[(Var(3), true)],
            &[(Var(4), false), (Var(3), true)],
            &[(Var(3), true), (Var(0), true), (Var(4), false)],
            &[(Var(4), true), (Var(2), false), (Var(1), true)],
        ];
        for assignments in cases {
            let mut seq = f;
            for &(v, value) in *assignments {
                seq = m.restrict(seq, v, value);
            }
            let arena = m.arena_size();
            let many = m.restrict_many(f, assignments);
            assert_eq!(many, seq, "{assignments:?}");
            assert_eq!(m.arena_size(), arena, "{assignments:?}");
            for bits in 0..32u32 {
                let mut pinned = bits;
                for &(v, value) in *assignments {
                    pinned = (pinned & !(1 << v.0)) | (u32::from(value) << v.0);
                }
                let want = m.eval(f, |v| (pinned >> v.0) & 1 == 1);
                assert_eq!(m.eval(many, |v| (bits >> v.0) & 1 == 1), want);
            }
        }
        assert_eq!(m.restrict_many(f, &[(Var(3), true), (Var(4), false)]), f);
    }

    #[test]
    fn restrict_many_out_of_range_var_is_identity() {
        // Matches single-variable `restrict`, which walks by level and
        // never meets an undeclared variable.
        let (mut m, a, b, _) = setup();
        let f = m.or(a, b);
        let r = m.restrict_many(f, &[(Var(7), true)]);
        assert_eq!(r, f);
        let mixed = m.restrict_many(f, &[(Var(7), true), (Var(0), false)]);
        assert_eq!(mixed, b);
    }

    #[test]
    fn restrict_many_first_assignment_wins() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        // Sequentially, [x0↦1][x0↦0] leaves b: the second restriction is
        // an identity because x0 is already gone.
        let r = m.restrict_many(f, &[(Var(0), true), (Var(0), false)]);
        assert_eq!(r, b);
    }

    #[test]
    fn restrict_missing_var_is_identity() {
        let (mut m, a, b, _) = setup();
        let f = m.or(a, b);
        let r = m.restrict(f, Var(2), true);
        assert_eq!(r, f);
    }

    #[test]
    fn exists_or_of_cofactors() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        let e = m.exists(f, &[Var(0)]);
        assert_eq!(e, b);
        let e2 = m.exists(f, &[Var(0), Var(1)]);
        assert!(e2.is_true());
    }

    #[test]
    fn forall_dual_of_exists() {
        let (mut m, a, b, _) = setup();
        let f = m.or(a, b);
        let g = m.forall(f, &[Var(0)]);
        assert_eq!(g, b);
        let h = m.forall(f, &[Var(0), Var(1)]);
        assert!(h.is_false());
    }

    #[test]
    fn and_exists_equals_naive() {
        let (mut m, a, b, c) = setup();
        let f = m.or(a, b);
        let g = m.or(b, c);
        let naive = {
            let fg = m.and(f, g);
            m.exists(fg, &[Var(1)])
        };
        let fused = m.and_exists(f, g, &[Var(1)]);
        assert_eq!(naive, fused);
    }

    #[test]
    fn rename_shifts_variables() {
        let mut m = Manager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(2));
        let f = m.and(a, b);
        // Shift each var one level down (0->1, 2->3): order-preserving.
        let g = m.rename(f, &|v| Var(v.0 + 1));
        let expect = {
            let x = m.var(Var(1));
            let y = m.var(Var(3));
            m.and(x, y)
        };
        assert_eq!(g, expect);
    }

    #[test]
    fn compose_substitutes_function() {
        let (mut m, a, b, c) = setup();
        // f = a ∧ b, substitute b := c ∨ a
        let f = m.and(a, b);
        let g = m.or(c, a);
        let h = m.compose(f, Var(1), g);
        let expect = m.and(a, g);
        assert_eq!(h, expect);
    }

    #[test]
    fn and_or_all_fold() {
        let (mut m, a, b, c) = setup();
        let all = m.and_all([a, b, c]);
        let pair = m.and(a, b);
        let expect = m.and(pair, c);
        assert_eq!(all, expect);
        let none = m.or_all(std::iter::empty());
        assert!(none.is_false());
        let one = m.and_all(std::iter::empty());
        assert!(one.is_true());
    }
}
