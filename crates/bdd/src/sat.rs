//! Satisfiability services: evaluation, witnesses, `AllSat` enumeration and
//! model counting.

use std::collections::HashSet;

use crate::manager::{Bdd, Manager, Var};

/// A (partial) satisfying path through a BDD: the variables actually
/// decided on a root-to-⊤ path together with their values. Variables not
/// mentioned are *don't-cares* for this path.
pub type SatPath = Vec<(Var, bool)>;

impl Manager {
    /// Evaluates `f` under the assignment `assign` (Algorithm 2 substrate:
    /// walks from the root following the low/high child per variable).
    pub fn eval<A: Fn(Var) -> bool>(&self, f: Bdd, assign: A) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let node = self.node(cur);
            cur = if assign(node.var) {
                node.high
            } else {
                node.low
            };
        }
        cur.is_true()
    }

    /// The set of variables occurring in `f` (`VarB` in the paper).
    ///
    /// Because the diagram is reduced, this *syntactic* support coincides
    /// with the *semantic* support: a variable occurs in the diagram if and
    /// only if the represented function depends on it. This fact is what
    /// makes the paper's `IDP` translation exact.
    pub fn support(&self, f: Bdd) -> Vec<Var> {
        let mut seen = HashSet::new();
        let mut vars = HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n.0) {
                continue;
            }
            let node = self.node(n);
            vars.insert(node.var);
            stack.push(node.low);
            stack.push(node.high);
        }
        let mut vars: Vec<Var> = vars.into_iter().collect();
        vars.sort();
        vars
    }

    /// Returns some satisfying path if `f` is satisfiable.
    pub fn any_sat(&self, f: Bdd) -> Option<SatPath> {
        if f.is_false() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !cur.is_terminal() {
            let node = self.node(cur);
            // Prefer the child that can still reach ⊤; low first for the
            // lexicographically smallest witness.
            if !node.low.is_false() {
                path.push((node.var, false));
                cur = node.low;
            } else {
                path.push((node.var, true));
                cur = node.high;
            }
        }
        debug_assert!(cur.is_true());
        Some(path)
    }

    /// Number of satisfying assignments of `f` over the variable universe
    /// `Var(0) .. Var(num_vars)`.
    ///
    /// The count is a property of the represented *function*: it does not
    /// change when the variable order does (e.g. after
    /// [`Manager::sift`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` is smaller than a variable in the support of
    /// `f`, or if the count overflows `u128`.
    pub fn sat_count(&self, f: Bdd, num_vars: u32) -> u128 {
        let universe: Vec<Var> = (0..num_vars).map(Var).collect();
        self.sat_count_over(f, &universe)
    }

    /// Number of satisfying assignments of `f` over an explicit variable
    /// `universe` (strictly ascending variable ids). Unlike
    /// [`Manager::sat_count`], variables outside the universe are ignored
    /// entirely, so managers hosting auxiliary (e.g. primed) variables can
    /// count over just their primary variables.
    ///
    /// The walk follows the *current* variable order internally, so the
    /// count stays correct after dynamic reordering.
    ///
    /// # Panics
    ///
    /// Panics if the support of `f` is not contained in `universe`, if
    /// `universe` is not strictly ascending, or on `u128` overflow.
    pub fn sat_count_over(&self, f: Bdd, universe: &[Var]) -> u128 {
        assert!(
            universe.windows(2).all(|w| w[0] < w[1]),
            "universe must be strictly ascending"
        );
        for v in self.support(f) {
            assert!(universe.contains(&v), "support {v} outside universe");
        }
        // The recursion consumes the universe top level first; sort a copy
        // by the current order so the walk matches the diagram.
        let mut by_level: Vec<Var> = universe.to_vec();
        by_level.sort_unstable_by_key(|&v| self.level_of(v));
        let mut memo = std::collections::HashMap::new();
        self.sat_count_over_rec(f, &by_level, 0, &mut memo)
    }

    fn sat_count_over_rec(
        &self,
        f: Bdd,
        universe: &[Var],
        idx: usize,
        memo: &mut std::collections::HashMap<(u32, usize), u128>,
    ) -> u128 {
        if f.is_false() {
            return 0;
        }
        let remaining = (universe.len() - idx) as u32;
        if f.is_true() {
            return 1u128.checked_shl(remaining).unwrap_or_else(|| {
                panic!("sat count overflow: universe wider than 128 variables")
            });
        }
        debug_assert!(idx < universe.len(), "support outside universe");
        if let Some(&c) = memo.get(&(f.id(), idx)) {
            return c;
        }
        let v = universe[idx];
        let node = self.node(f);
        let total = if node.var == v {
            let lo = self.sat_count_over_rec(node.low, universe, idx + 1, memo);
            let hi = self.sat_count_over_rec(node.high, universe, idx + 1, memo);
            lo.checked_add(hi)
                .unwrap_or_else(|| panic!("sat count overflow: universe wider than 128 variables"))
        } else {
            debug_assert!(
                self.level_of(node.var) > self.level_of(v),
                "universe must cover the support in order"
            );
            let sub = self.sat_count_over_rec(f, universe, idx + 1, memo);
            sub.checked_mul(2)
                .unwrap_or_else(|| panic!("sat count overflow: universe wider than 128 variables"))
        };
        memo.insert((f.id(), idx), total);
        total
    }

    /// Iterates over all satisfying *paths* of `f` (the classical `AllSat`).
    ///
    /// Each yielded [`SatPath`] fixes only the variables decided on the
    /// path; unmentioned variables are don't-cares. Use
    /// [`Manager::sat_vectors`] to expand paths into complete vectors.
    pub fn sat_paths<'a>(&'a self, f: Bdd) -> SatPaths<'a> {
        SatPaths::new(self, f)
    }

    /// Iterates over all complete satisfying assignments of `f` over the
    /// ordered variable universe `vars` (which must cover the support).
    ///
    /// This implements the paper's Algorithm 3: collect every path to the
    /// terminal `1` and expand don't-cares.
    ///
    /// # Panics
    ///
    /// Panics if the support of `f` is not contained in `vars`.
    pub fn sat_vectors<'a>(&'a self, f: Bdd, vars: &[Var]) -> SatVectors<'a> {
        let support = self.support(f);
        for v in &support {
            assert!(
                vars.contains(v),
                "support variable {v} missing from universe"
            );
        }
        SatVectors {
            paths: SatPaths::new(self, f),
            vars: vars.to_vec(),
            current: None,
        }
    }
}

/// Iterator over the satisfying paths of a BDD (see
/// [`Manager::sat_paths`]).
#[derive(Debug)]
pub struct SatPaths<'a> {
    manager: &'a Manager,
    /// DFS stack of (node, path-so-far).
    stack: Vec<(Bdd, SatPath)>,
}

impl<'a> SatPaths<'a> {
    fn new(manager: &'a Manager, f: Bdd) -> Self {
        SatPaths {
            manager,
            stack: vec![(f, Vec::new())],
        }
    }
}

impl<'a> Iterator for SatPaths<'a> {
    type Item = SatPath;

    fn next(&mut self) -> Option<SatPath> {
        while let Some((n, path)) = self.stack.pop() {
            if n.is_false() {
                continue;
            }
            if n.is_true() {
                return Some(path);
            }
            let node = self.manager.node(n);
            // Push high first so low-branch paths are yielded first
            // (lexicographic order with 0 < 1).
            let mut high_path = path.clone();
            high_path.push((node.var, true));
            self.stack.push((node.high, high_path));
            let mut low_path = path;
            low_path.push((node.var, false));
            self.stack.push((node.low, low_path));
        }
        None
    }
}

/// Iterator over complete satisfying vectors (see
/// [`Manager::sat_vectors`]). Yields one `Vec<bool>` per model, aligned
/// with the variable universe passed at construction.
#[derive(Debug)]
pub struct SatVectors<'a> {
    paths: SatPaths<'a>,
    vars: Vec<Var>,
    /// Expansion state for the current path.
    current: Option<Expansion>,
}

/// The don't-care completions of one path, produced lazily by a binary
/// odometer over the free positions, so any number of free variables
/// is fine and `take(n)` costs `n` steps.
#[derive(Debug)]
struct Expansion {
    /// The next vector to yield: the path's fixed values plus the
    /// current digits at the free positions; `None` once every
    /// completion was yielded.
    next: Option<Vec<bool>>,
    /// Indices of the free (don't-care) positions, least significant
    /// digit first.
    free: Vec<usize>,
}

impl<'a> Iterator for SatVectors<'a> {
    type Item = Vec<bool>;

    fn next(&mut self) -> Option<Vec<bool>> {
        loop {
            if let Some(exp) = &mut self.current {
                if let Some(vec) = exp.next.take() {
                    // Increment: flip digits from the least significant
                    // up to and including the first 0; all 1s wrap around
                    // to the first completion, which ends the path.
                    let mut succ = vec.clone();
                    let wrapped = exp.free.iter().all(|&idx| {
                        succ[idx] = !succ[idx];
                        !succ[idx]
                    });
                    exp.next = (!wrapped).then_some(succ);
                    return Some(vec);
                }
                self.current = None;
            }
            let path = self.paths.next()?;
            let mut template = vec![false; self.vars.len()];
            let mut fixed = vec![false; self.vars.len()];
            for (v, val) in path {
                if let Some(idx) = self.vars.iter().position(|&u| u == v) {
                    template[idx] = val;
                    fixed[idx] = true;
                }
            }
            let free: Vec<usize> = (0..self.vars.len()).filter(|&i| !fixed[i]).collect();
            self.current = Some(Expansion {
                next: Some(template),
                free,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_or() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        assert!(!m.eval(f, |_| false));
        assert!(m.eval(f, |v| v == Var(0)));
        assert!(m.eval(f, |v| v == Var(1)));
        assert!(m.eval(f, |_| true));
    }

    #[test]
    fn support_is_semantic() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let na = m.not(a);
        let taut = m.or(a, na); // a ∨ ¬a reduces to ⊤
        assert!(taut.is_true());
        assert!(m.support(taut).is_empty());
        let b = m.var(Var(1));
        let f = m.and(a, b);
        assert_eq!(m.support(f), vec![Var(0), Var(1)]);
    }

    #[test]
    fn any_sat_finds_witness() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.and(a, b);
        let w = m.any_sat(f).unwrap();
        assert_eq!(w, vec![(Var(0), true), (Var(1), true)]);
        assert!(m.any_sat(m.bot()).is_none());
        assert_eq!(m.any_sat(m.top()).unwrap(), vec![]);
    }

    #[test]
    fn sat_count_small_functions() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        assert_eq!(m.sat_count(f, 2), 3);
        assert_eq!(m.sat_count(f, 3), 6);
        assert_eq!(m.sat_count(m.top(), 3), 8);
        assert_eq!(m.sat_count(m.bot(), 3), 0);
        let lit = m.var(Var(2));
        assert_eq!(m.sat_count(lit, 3), 4);
    }

    #[test]
    fn sat_paths_of_or() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        let paths: Vec<SatPath> = m.sat_paths(f).collect();
        assert_eq!(
            paths,
            vec![vec![(Var(0), false), (Var(1), true)], vec![(Var(0), true)],]
        );
    }

    #[test]
    fn sat_vectors_expand_dont_cares() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        let mut vecs: Vec<Vec<bool>> = m.sat_vectors(f, &[Var(0), Var(1)]).collect();
        vecs.sort();
        assert_eq!(
            vecs,
            vec![vec![false, true], vec![true, false], vec![true, true],]
        );
    }

    #[test]
    fn sat_vectors_of_constant_true() {
        let m = Manager::new(2);
        let vecs: Vec<Vec<bool>> = m.sat_vectors(m.top(), &[Var(0), Var(1)]).collect();
        assert_eq!(vecs.len(), 4);
    }

    #[test]
    fn sat_vectors_count_in_binary_over_free_positions() {
        // a ∧ ¬c over (a, b, c, d): b and d are free, b the low digit.
        let mut m = Manager::new(4);
        let a = m.var(Var(0));
        let c = m.var(Var(2));
        let nc = m.not(c);
        let f = m.and(a, nc);
        let vecs: Vec<Vec<bool>> = m
            .sat_vectors(f, &[Var(0), Var(1), Var(2), Var(3)])
            .collect();
        assert_eq!(
            vecs,
            vec![
                vec![true, false, false, false],
                vec![true, true, false, false],
                vec![true, false, false, true],
                vec![true, true, false, true],
            ]
        );
    }

    #[test]
    fn sat_vectors_take_is_lazy_beyond_64_free_variables() {
        // One fixed variable and 79 don't-cares: 2^79 completions, of
        // which `take` materialises only the first few.
        let n: u32 = 80;
        let mut m = Manager::new(n);
        let f = m.var(Var(0));
        let universe: Vec<Var> = (0..n).map(Var).collect();
        let vecs: Vec<Vec<bool>> = m.sat_vectors(f, &universe).take(3).collect();
        assert_eq!(vecs.len(), 3);
        for (k, v) in vecs.iter().enumerate() {
            assert_eq!(v.len(), n as usize);
            assert!(v[0], "the fixed variable keeps its value");
            assert!(m.eval(f, |x| v[x.index() as usize]));
            // Completion k carries k in binary over the free positions.
            assert_eq!(v[1], k & 1 == 1);
            assert_eq!(v[2], k & 2 == 2);
            assert!(v[3..].iter().all(|&b| !b));
        }
    }

    #[test]
    #[should_panic(expected = "missing from universe")]
    fn sat_vectors_requires_support_coverage() {
        let mut m = Manager::new(2);
        let b = m.var(Var(1));
        let _ = m.sat_vectors(b, &[Var(0)]).count();
    }
}
