//! Zero-suppressed decision diagrams (ZDDs) for families of sets —
//! the classical representation of cut-set collections (Minato 1993;
//! Coudert–Madre; Rauzy's fault-tree algorithms, reference \[5\] of the
//! paper).
//!
//! A [`Zdd`] node `(v, lo, hi)` represents the family
//! `lo ∪ {s ∪ {v} | s ∈ hi}`; the terminal `∅` is the empty family and
//! `{∅}` the family containing only the empty set. The *zero-suppression*
//! rule (`hi = ∅` ⇒ node ≡ `lo`) makes sparse families compact, which is
//! exactly the shape of minimal-cut-set collections.
//!
//! The operations provided are the ones needed by the bottom-up MCS
//! engine in `bfl-fault-tree` (Rauzy 1993): [`union`](ZddManager::union),
//! [`product`](ZddManager::product) (pairwise unions of member sets),
//! [`minimal`](ZddManager::minimal) (drop supersets) and its workhorse
//! [`no_supersets`](ZddManager::no_supersets), plus counting and
//! enumeration.
//!
//! # Example
//!
//! ```
//! use bfl_bdd::{Var, ZddManager};
//!
//! let mut z = ZddManager::new(3);
//! // {{x0}, {x1, x2}}
//! let a = z.singleton(Var(0));
//! let b = z.singleton(Var(1));
//! let c = z.singleton(Var(2));
//! let bc = z.product(b, c);
//! let fam = z.union(a, bc);
//! assert_eq!(z.count(fam), Some(2));
//! // Adding the superset {x0, x1} and minimising removes it again.
//! let ab = z.product(a, b);
//! let bigger = z.union(fam, ab);
//! let min = z.minimal(bigger);
//! assert_eq!(min, fam);
//! ```

use std::collections::HashMap;

use crate::manager::{Var, TERMINAL_LEVEL};

/// Handle to a ZDD node owned by a [`ZddManager`]. Equal handles of the
/// same manager represent equal families (canonicity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Zdd(u32);

impl Zdd {
    /// The raw node index.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Is this the empty family `∅`?
    pub fn is_empty_family(self) -> bool {
        self.0 == 0
    }

    /// Is this the unit family `{∅}`?
    pub fn is_unit_family(self) -> bool {
        self.0 == 1
    }

    fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Debug, Clone, Copy)]
struct ZNode {
    var: Var,
    /// Sub-family in which `var` is absent.
    lo: Zdd,
    /// Sub-family to whose members `var` is added.
    hi: Zdd,
}

/// Operation tags for the binary cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ZOp {
    Union,
    Product,
    NoSupersets,
}

/// A manager for zero-suppressed decision diagrams over the variable
/// order `Var(0) < Var(1) < …` (same level discipline as [`crate::Manager`]).
#[derive(Debug, Clone)]
pub struct ZddManager {
    nodes: Vec<ZNode>,
    unique: HashMap<(u32, u32, u32), u32>,
    cache: HashMap<(ZOp, u32, u32), u32>,
    minimal_cache: HashMap<u32, u32>,
    num_vars: u32,
}

impl ZddManager {
    /// Creates a manager over `num_vars` variables.
    pub fn new(num_vars: u32) -> Self {
        let terminal = |b: u32| ZNode {
            var: Var(TERMINAL_LEVEL),
            lo: Zdd(b),
            hi: Zdd(b),
        };
        ZddManager {
            nodes: vec![terminal(0), terminal(1)],
            unique: HashMap::new(),
            cache: HashMap::new(),
            minimal_cache: HashMap::new(),
            num_vars,
        }
    }

    /// The empty family `∅`.
    pub fn empty(&self) -> Zdd {
        Zdd(0)
    }

    /// The unit family `{∅}`.
    pub fn unit(&self) -> Zdd {
        Zdd(1)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The family `{{v}}`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is undeclared.
    pub fn singleton(&mut self, v: Var) -> Zdd {
        assert!(v.0 < self.num_vars, "undeclared variable {v}");
        let unit = self.unit();
        let empty = self.empty();
        self.mk(v, empty, unit)
    }

    fn level(&self, f: Zdd) -> u32 {
        self.nodes[f.0 as usize].var.0
    }

    fn node(&self, f: Zdd) -> ZNode {
        self.nodes[f.0 as usize]
    }

    fn mk(&mut self, var: Var, lo: Zdd, hi: Zdd) -> Zdd {
        // Zero-suppression: a node whose hi-branch is the empty family
        // contributes nothing and collapses to `lo`.
        if hi.is_empty_family() {
            return lo;
        }
        debug_assert!(
            var.0 < self.level(lo) && var.0 < self.level(hi),
            "variable order violated at {var}"
        );
        let key = (var.0, lo.0, hi.0);
        if let Some(&id) = self.unique.get(&key) {
            return Zdd(id);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(ZNode { var, lo, hi });
        self.unique.insert(key, id);
        Zdd(id)
    }

    fn cached(&self, op: ZOp, a: Zdd, b: Zdd) -> Option<Zdd> {
        self.cache.get(&(op, a.0, b.0)).map(|&id| Zdd(id))
    }

    fn put(&mut self, op: ZOp, a: Zdd, b: Zdd, r: Zdd) {
        self.cache.insert((op, a.0, b.0), r.0);
    }

    /// Family union `a ∪ b`.
    pub fn union(&mut self, a: Zdd, b: Zdd) -> Zdd {
        if a == b || b.is_empty_family() {
            return a;
        }
        if a.is_empty_family() {
            return b;
        }
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if let Some(r) = self.cached(ZOp::Union, a, b) {
            return r;
        }
        let (top, (a0, a1), (b0, b1)) = self.align(a, b);
        let lo = self.union(a0, b0);
        let hi = self.union(a1, b1);
        let r = self.mk(top, lo, hi);
        self.put(ZOp::Union, a, b, r);
        r
    }

    /// Family product `{ s ∪ t | s ∈ a, t ∈ b }` (Minato's multiply) —
    /// the AND-gate composition of cut-set families.
    pub fn product(&mut self, a: Zdd, b: Zdd) -> Zdd {
        if a.is_empty_family() || b.is_empty_family() {
            return self.empty();
        }
        if a.is_unit_family() {
            return b;
        }
        if b.is_unit_family() {
            return a;
        }
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if let Some(r) = self.cached(ZOp::Product, a, b) {
            return r;
        }
        let (top, (a0, a1), (b0, b1)) = self.align(a, b);
        // (a0 ∪ v·a1) × (b0 ∪ v·b1)
        //   = a0×b0 ∪ v·(a1×b1 ∪ a1×b0 ∪ a0×b1)   (v·v = v)
        let lo = self.product(a0, b0);
        let p11 = self.product(a1, b1);
        let p10 = self.product(a1, b0);
        let p01 = self.product(a0, b1);
        let hi01 = self.union(p10, p01);
        let hi = self.union(p11, hi01);
        let r = self.mk(top, lo, hi);
        self.put(ZOp::Product, a, b, r);
        r
    }

    /// Removes from `a` every set that is a (non-strict) superset of some
    /// set in `b` — Rauzy's *subsuming* difference.
    pub fn no_supersets(&mut self, a: Zdd, b: Zdd) -> Zdd {
        // Empty `a`, subsuming-everything `b` (∅ ∈ b ⇒ every set ⊇ ∅ once
        // b = {∅}), or `a = b` (each set subsumes itself) all yield ∅.
        if a.is_empty_family() || b.is_unit_family() || a == b {
            return self.empty();
        }
        if b.is_empty_family() {
            return a;
        }
        if a.is_unit_family() {
            // ∅ ⊇ t only for t = ∅.
            return if self.contains_empty(b) {
                self.empty()
            } else {
                a
            };
        }
        if let Some(r) = self.cached(ZOp::NoSupersets, a, b) {
            return r;
        }
        let la = self.level(a);
        let lb = self.level(b);
        let r = if la < lb {
            // Sets of `a` may contain the top var, sets of `b` do not
            // mention it: s (⊇ t) iff s∖{v} ⊇ t.
            let an = self.node(a);
            let lo = self.no_supersets(an.lo, b);
            let hi = self.no_supersets(an.hi, b);
            self.mk(an.var, lo, hi)
        } else if la > lb {
            // `b`'s sets containing the top var can never be subsumed by
            // `a`'s sets (which lack it); only b.lo matters.
            let bn = self.node(b);
            self.no_supersets(a, bn.lo)
        } else {
            let an = self.node(a);
            let bn = self.node(b);
            // Without v: compare against b.lo only.
            let lo = self.no_supersets(an.lo, bn.lo);
            // With v: s∪{v} ⊇ t∪{v} iff s ⊇ t; s∪{v} ⊇ t (t ∈ b.lo) iff s ⊇ t.
            let h1 = self.no_supersets(an.hi, bn.hi);
            let hi = self.no_supersets(h1, bn.lo);
            self.mk(an.var, lo, hi)
        };
        self.put(ZOp::NoSupersets, a, b, r);
        r
    }

    /// The minimal sets of `a`: members with no proper subset in `a`
    /// (Rauzy's minimal-solutions operator on families).
    pub fn minimal(&mut self, a: Zdd) -> Zdd {
        if a.is_terminal() {
            return a;
        }
        if let Some(&id) = self.minimal_cache.get(&a.0) {
            return Zdd(id);
        }
        let n = self.node(a);
        let m0 = self.minimal(n.lo);
        let m1 = self.minimal(n.hi);
        // A set s∪{v} survives iff s is minimal in hi and not a superset
        // of anything in lo's minimal sets.
        let h = self.no_supersets(m1, m0);
        let r = self.mk(n.var, m0, h);
        self.minimal_cache.insert(a.0, r.0);
        r
    }

    /// Whether `∅ ∈ a`.
    pub fn contains_empty(&self, a: Zdd) -> bool {
        let mut cur = a;
        while !cur.is_terminal() {
            cur = self.node(cur).lo;
        }
        cur.is_unit_family()
    }

    /// Number of member sets, or `None` when it exceeds `u128::MAX`.
    pub fn count(&self, a: Zdd) -> Option<u128> {
        let mut memo = HashMap::new();
        self.count_rec(a, &mut memo)
    }

    fn count_rec(&self, a: Zdd, memo: &mut HashMap<u32, u128>) -> Option<u128> {
        if a.is_empty_family() {
            return Some(0);
        }
        if a.is_unit_family() {
            return Some(1);
        }
        if let Some(&c) = memo.get(&a.0) {
            return Some(c);
        }
        let n = self.node(a);
        let c = self
            .count_rec(n.lo, memo)?
            .checked_add(self.count_rec(n.hi, memo)?)?;
        memo.insert(a.0, c);
        Some(c)
    }

    /// Enumerates all member sets, each as ascending variables.
    pub fn sets(&self, a: Zdd) -> Vec<Vec<Var>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.sets_rec(a, &mut prefix, &mut out);
        out
    }

    fn sets_rec(&self, a: Zdd, prefix: &mut Vec<Var>, out: &mut Vec<Vec<Var>>) {
        if a.is_empty_family() {
            return;
        }
        if a.is_unit_family() {
            out.push(prefix.clone());
            return;
        }
        let n = self.node(a);
        self.sets_rec(n.lo, prefix, out);
        prefix.push(n.var);
        self.sets_rec(n.hi, prefix, out);
        prefix.pop();
    }

    /// Total nodes allocated (diagnostics).
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// Decomposes `a` and `b` at their top-most variable.
    fn align(&self, a: Zdd, b: Zdd) -> (Var, (Zdd, Zdd), (Zdd, Zdd)) {
        let la = self.level(a);
        let lb = self.level(b);
        let top = Var(la.min(lb));
        let split = |f: Zdd, lf: u32, this: &Self| {
            if lf == top.0 {
                let n = this.node(f);
                (n.lo, n.hi)
            } else {
                (f, this.empty())
            }
        };
        (top, split(a, la, self), split(b, lb, self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Brute-force family representation for oracle testing.
    type Family = BTreeSet<Vec<u32>>;

    fn to_family(z: &ZddManager, f: Zdd) -> Family {
        z.sets(f)
            .into_iter()
            .map(|s| s.into_iter().map(|v| v.0).collect())
            .collect()
    }

    /// Builds a ZDD from an explicit family.
    fn from_family(z: &mut ZddManager, fam: &[&[u32]]) -> Zdd {
        let mut acc = z.empty();
        for s in fam {
            let mut set = z.unit();
            let mut vars: Vec<u32> = s.to_vec();
            vars.sort_unstable();
            for &v in &vars {
                let single = z.singleton(Var(v));
                set = z.product(set, single);
            }
            acc = z.union(acc, set);
        }
        acc
    }

    #[test]
    fn terminals() {
        let z = ZddManager::new(2);
        assert_eq!(z.count(z.empty()), Some(0));
        assert_eq!(z.count(z.unit()), Some(1));
        assert!(z.contains_empty(z.unit()));
        assert!(!z.contains_empty(z.empty()));
    }

    #[test]
    fn union_of_families() {
        let mut z = ZddManager::new(4);
        let a = from_family(&mut z, &[&[0], &[1, 2], &[3]]);
        let b = from_family(&mut z, &[&[1, 2], &[0, 3]]);
        let u = z.union(a, b);
        assert_eq!(
            to_family(&z, u),
            Family::from([vec![0], vec![1, 2], vec![3], vec![0, 3]])
        );
    }

    #[test]
    fn product_is_pairwise_union() {
        let mut z = ZddManager::new(4);
        let a = from_family(&mut z, &[&[0], &[1]]);
        let b = from_family(&mut z, &[&[2], &[3]]);
        let p = z.product(a, b);
        assert_eq!(
            to_family(&z, p),
            Family::from([vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3]])
        );
        // Overlapping elements merge (v·v = v).
        let c = from_family(&mut z, &[&[0, 2]]);
        let q = z.product(a, c);
        assert_eq!(to_family(&z, q), Family::from([vec![0, 2], vec![0, 1, 2]]));
    }

    #[test]
    fn minimal_removes_supersets() {
        let mut z = ZddManager::new(4);
        let fam = from_family(&mut z, &[&[0], &[0, 1], &[2, 3], &[1, 2, 3], &[1]]);
        let min = z.minimal(fam);
        assert_eq!(
            to_family(&z, min),
            Family::from([vec![0], vec![1], vec![2, 3]])
        );
    }

    #[test]
    fn no_supersets_semantics() {
        let mut z = ZddManager::new(4);
        let a = from_family(&mut z, &[&[0, 1], &[2], &[1, 3]]);
        let b = from_family(&mut z, &[&[1]]);
        // {0,1} ⊇ {1} and {1,3} ⊇ {1}: both removed.
        let r = z.no_supersets(a, b);
        assert_eq!(to_family(&z, r), Family::from([vec![2]]));
        // Self-subsumption empties the family.
        let s = z.no_supersets(a, a);
        assert!(s.is_empty_family());
    }

    #[test]
    fn brute_force_cross_check() {
        // Randomised-ish exhaustive check over tiny universes.
        let universe = 4u32;
        let all_sets: Vec<Vec<u32>> = (0..(1u32 << universe))
            .map(|m| (0..universe).filter(|&v| (m >> v) & 1 == 1).collect())
            .collect();
        for seed in 0..40u64 {
            // Build two pseudo-random families.
            let pick = |salt: u64| -> Vec<&[u32]> {
                all_sets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| {
                        (seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt) >> (i % 13)) & 1 == 1
                    })
                    .map(|(_, s)| s.as_slice())
                    .collect()
            };
            let fa = pick(1);
            let fb = pick(2);
            let mut z = ZddManager::new(universe);
            let a = from_family(&mut z, &fa);
            let b = from_family(&mut z, &fb);
            let sa: Family = fa.iter().map(|s| s.to_vec()).collect();
            let sb: Family = fb.iter().map(|s| s.to_vec()).collect();

            let u = z.union(a, b);
            assert_eq!(to_family(&z, u), sa.union(&sb).cloned().collect::<Family>());

            let p = z.product(a, b);
            let mut expect_p = Family::new();
            for s in &sa {
                for t in &sb {
                    let mut st: Vec<u32> = s
                        .iter()
                        .chain(t.iter())
                        .copied()
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    st.sort_unstable();
                    expect_p.insert(st);
                }
            }
            assert_eq!(to_family(&z, p), expect_p);

            let ns = z.no_supersets(a, b);
            let expect_ns: Family = sa
                .iter()
                .filter(|s| !sb.iter().any(|t| t.iter().all(|v| s.contains(v))))
                .cloned()
                .collect();
            assert_eq!(to_family(&z, ns), expect_ns, "seed {seed}");

            let m = z.minimal(a);
            let expect_m: Family = sa
                .iter()
                .filter(|s| {
                    !sa.iter()
                        .any(|t| t.len() < s.len() && t.iter().all(|v| s.contains(v)))
                })
                .cloned()
                .collect();
            assert_eq!(to_family(&z, m), expect_m, "seed {seed}");

            assert_eq!(z.count(a), Some(sa.len() as u128));
        }
    }

    #[test]
    fn canonicity() {
        let mut z = ZddManager::new(3);
        let a = from_family(&mut z, &[&[0, 1], &[2]]);
        let b = from_family(&mut z, &[&[2], &[1, 0]]);
        assert_eq!(a, b);
    }
}
