//! Satisfiability services: evaluation, witnesses, `AllSat` enumeration and
//! model counting.

use crate::manager::{Bdd, Manager, Var};
use crate::memo::Scratch;

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
    ///
    /// Marks visited nodes and met variables in the manager's scratch, so
    /// the walk costs the nodes it reaches plus sorting the variables it
    /// found.
    pub fn support(&self, f: Bdd) -> Vec<Var> {
        let mut s = self.scratch.take();
        let num_vars = self.num_vars() as usize;
        if s.in_support.len() < num_vars {
            s.in_support.resize(num_vars, false);
        }
        let mut vars = Vec::new();
        s.seen.clear();
        s.stack.clear();
        s.stack.push(f);
        while let Some(n) = s.stack.pop() {
            if n.is_terminal() || !s.seen.insert(n.0) {
                continue;
            }
            let node = self.node(n);
            let met = &mut s.in_support[node.var.0 as usize];
            if !*met {
                *met = true;
                vars.push(node.var);
            }
            s.stack.push(node.low);
            s.stack.push(node.high);
        }
        for v in &vars {
            s.in_support[v.0 as usize] = false;
        }
        self.scratch.put(s);
        vars.sort_unstable();
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
    /// `Var(0) .. Var(num_vars)`, or `None` when it exceeds `u128::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` is smaller than a variable in the support of
    /// `f`.
    pub fn sat_count(&self, f: Bdd, num_vars: u32) -> Option<u128> {
        let universe: Vec<Var> = (0..num_vars).map(Var).collect();
        self.sat_count_over(f, &universe)
    }

    /// Number of satisfying assignments of `f` over an explicit variable
    /// `universe` (strictly ascending variable ids), or `None` when it
    /// exceeds `u128::MAX`. Unlike [`Manager::sat_count`], variables
    /// outside the universe are ignored entirely, so managers hosting
    /// auxiliary (e.g. primed) variables can count over just their
    /// primary variables.
    ///
    /// The walk keeps one count per node, over the universe variables
    /// from the node's own variable down, and scales a child's count by
    /// `2^gap` for the universe
    /// variables a low or high edge skips. Each such product counts
    /// assignments that also satisfy the root, so no intermediate value
    /// overflows unless the root's count does.
    ///
    /// # Panics
    ///
    /// Panics if `universe` is not strictly ascending, or if the walk
    /// meets a variable of `f` outside it.
    pub fn sat_count_over(&self, f: Bdd, universe: &[Var]) -> Option<u128> {
        assert!(
            universe.windows(2).all(|w| w[0] < w[1]),
            "universe must be strictly ascending"
        );
        let mut s = self.scratch.take();
        s.seen.clear();
        s.counts.clear();
        let total = self
            .count_below(f, universe, &mut s)
            .and_then(|(count, pos)| scale(count, pos));
        self.scratch.put(s);
        total
    }

    /// The models of `f` over the universe variables from its own level
    /// down, and its position in `universe` (`universe.len()` for
    /// terminals): the number of universe variables above it.
    ///
    /// Walks an explicit stack in the recursive post-order (the low
    /// subtree, then the high subtree, then the node), so a long chain
    /// (one wide OR gate) cannot overflow the call stack.
    fn count_below(&self, f: Bdd, universe: &[Var], s: &mut Scratch) -> Option<(u128, u32)> {
        let end = universe.len() as u32;
        let known = |g: Bdd, s: &Scratch| {
            if g.is_terminal() {
                Some((u128::from(g.is_true()), end))
            } else {
                s.seen.position(g.0).map(|p| s.counts[p])
            }
        };
        if let Some(c) = known(f, s) {
            return Some(c);
        }
        // `(g, None)` asks for g's count; `(g, Some(pos))` combines the
        // counts of g's children, which sit on top of `done`, high above
        // low.
        let mut todo = vec![(f, None)];
        let mut done: Vec<(u128, u32)> = Vec::new();
        while let Some((g, pos)) = todo.pop() {
            if let Some(pos) = pos {
                let (Some((hi, hi_pos)), Some((lo, lo_pos))) = (done.pop(), done.pop()) else {
                    unreachable!("both children are counted before their parent")
                };
                let count =
                    scale(lo, lo_pos - pos - 1)?.checked_add(scale(hi, hi_pos - pos - 1)?)?;
                s.seen.push(g.0);
                s.counts.push((count, pos));
                done.push((count, pos));
            } else if let Some(c) = known(g, s) {
                done.push(c);
            } else {
                let node = self.node(g);
                let pos = universe.partition_point(|&v| v < node.var);
                assert!(
                    universe.get(pos) == Some(&node.var),
                    "support {} outside universe",
                    node.var
                );
                todo.push((g, Some(pos as u32)));
                todo.push((node.high, None));
                todo.push((node.low, None));
            }
        }
        done.pop()
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
    /// The iterator panics when it places a decided variable that `vars`
    /// does not hold, so every yielded vector is checked for every
    /// variable it fixes, at no cost up front. Every support variable of
    /// a reduced diagram lies on some satisfying path, so a full
    /// enumeration panics exactly when the support of `f` is not
    /// contained in `vars`.
    pub fn sat_vectors<'a>(&'a self, f: Bdd, vars: &[Var]) -> SatVectors<'a> {
        // Variable id -> position in `vars`, so placing a decided
        // variable costs O(1) instead of a scan of the universe.
        let width = vars.iter().map(|v| v.index() as usize + 1).max();
        let mut slot = vec![None; width.unwrap_or(0)];
        for (i, v) in vars.iter().enumerate() {
            slot[v.index() as usize] = Some(i);
        }
        SatVectors {
            paths: SatPaths::new(self, f),
            len: vars.len(),
            slot,
            current: None,
        }
    }
}

/// `count · 2^gap`, or `None` past `u128::MAX`. Zero stays zero for any
/// gap: a `⊥` edge contributes nothing, however many variables it skips.
fn scale(count: u128, gap: u32) -> Option<u128> {
    if count == 0 {
        return Some(0);
    }
    count.checked_mul(1u128.checked_shl(gap)?)
}

/// Iterator over the satisfying paths of a BDD (see
/// [`Manager::sat_paths`]).
///
/// A backtracking depth-first search over one shared path: every stack
/// entry records the path length to cut back to and the decision to
/// append, and `⊥` children are never pushed. `N` paths of depth `d`
/// therefore cost `O(N·d)`, the copy of each yielded path included.
#[derive(Debug)]
pub struct SatPaths<'a> {
    manager: &'a Manager,
    /// The decisions from the root to the node being expanded.
    path: SatPath,
    /// Pending DFS steps, the next on top.
    stack: Vec<Step>,
}

/// A pending step of the [`SatPaths`] search: cut the shared path back
/// to `depth` decisions, append `decision` (absent only at the root) and
/// visit `node`.
#[derive(Debug)]
struct Step {
    node: Bdd,
    depth: usize,
    decision: Option<(Var, bool)>,
}

impl<'a> SatPaths<'a> {
    fn new(manager: &'a Manager, f: Bdd) -> Self {
        let stack = if f.is_false() {
            Vec::new()
        } else {
            vec![Step {
                node: f,
                depth: 0,
                decision: None,
            }]
        };
        SatPaths {
            manager,
            path: Vec::new(),
            stack,
        }
    }
}

impl<'a> Iterator for SatPaths<'a> {
    type Item = SatPath;

    fn next(&mut self) -> Option<SatPath> {
        while let Some(step) = self.stack.pop() {
            self.path.truncate(step.depth);
            self.path.extend(step.decision);
            if step.node.is_true() {
                return Some(self.path.clone());
            }
            let node = self.manager.node(step.node);
            let depth = self.path.len();
            // Push high first so low-branch paths are yielded first
            // (lexicographic order with 0 < 1).
            for (child, value) in [(node.high, true), (node.low, false)] {
                if !child.is_false() {
                    self.stack.push(Step {
                        node: child,
                        depth,
                        decision: Some((node.var, value)),
                    });
                }
            }
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
    /// Length of the universe (and of every yielded vector).
    len: usize,
    /// Variable id -> position in the universe.
    slot: Vec<Option<usize>>,
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
            let mut template = vec![false; self.len];
            let mut fixed = vec![false; self.len];
            for (v, val) in path {
                let Some(&Some(idx)) = self.slot.get(v.index() as usize) else {
                    panic!("support variable {v} missing from universe");
                };
                template[idx] = val;
                fixed[idx] = true;
            }
            let free: Vec<usize> = (0..self.len).filter(|&i| !fixed[i]).collect();
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
        assert_eq!(m.sat_count(f, 2), Some(3));
        assert_eq!(m.sat_count(f, 3), Some(6));
        assert_eq!(m.sat_count(m.top(), 3), Some(8));
        assert_eq!(m.sat_count(m.bot(), 3), Some(0));
        let lit = m.var(Var(2));
        assert_eq!(m.sat_count(lit, 3), Some(4));
    }

    #[test]
    fn sat_count_past_u128_is_none() {
        let mut m = Manager::new(130);
        assert_eq!(m.sat_count(m.top(), 127), Some(1u128 << 127));
        assert_eq!(m.sat_count(m.top(), 128), None);
        let a = m.var(Var(0));
        assert_eq!(m.sat_count(a, 128), Some(1u128 << 127));
        assert_eq!(m.sat_count(a, 129), None);
        assert_eq!(m.sat_count(m.bot(), 130), Some(0));
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

    #[test]
    fn sat_vectors_panics_at_the_first_path_outside_the_universe() {
        // ¬x0 ∨ (x0 ∧ x1 ∧ x2): the low path x0 = 0 comes first and lies
        // inside the universe; only the last path decides x2.
        let mut m = Manager::new(3);
        let x: Vec<Bdd> = (0..3).map(|i| m.var(Var(i))).collect();
        let n0 = m.not(x[0]);
        let all = m.and_all(x);
        let f = m.or(n0, all);
        let mut vecs = m.sat_vectors(f, &[Var(0), Var(1)]);
        assert_eq!(vecs.next(), Some(vec![false, false]));
        assert_eq!(vecs.next(), Some(vec![false, true]));
        let last = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| vecs.next()));
        let message = last.expect_err("x2 lies outside the universe");
        assert_eq!(
            message.downcast_ref::<String>().map(String::as_str),
            Some("support variable x2 missing from universe")
        );
    }
}
