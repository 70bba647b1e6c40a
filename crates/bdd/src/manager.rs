//! The BDD manager: node arena, unique table and computed table.

use std::fmt;

use crate::computed::{ComputedTable, INITIAL_SLOTS, OP_TAG};
use crate::hash::hash3;
use crate::memo::ScratchCell;

/// A BDD variable, identified by its numeric id.
///
/// A variable is its own *level*: `Var(k)` sits at level `k` of the
/// variable order (`Var(0)` top-most, closest to the root), in every
/// manager and for its whole life. Clients choose an order by choosing
/// which domain object gets which id.
///
/// # Example
///
/// ```
/// use bfl_bdd::Var;
/// let v = Var(3);
/// assert_eq!(v.index(), 3);
/// assert!(Var(0) < Var(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Returns the level index of this variable.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A handle to a BDD node owned by a [`Manager`].
///
/// Handles are small `Copy` values; all operations on them are methods of
/// the owning manager. Two handles obtained from the *same* manager are
/// equal if and only if they represent the same Boolean function (canonicity
/// of reduced ordered BDDs). Handles must not be mixed across managers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The raw node index inside the manager's arena.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Returns `true` if this handle is one of the two terminal nodes.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Returns `true` if this handle is the constant-false terminal.
    pub fn is_false(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this handle is the constant-true terminal.
    pub fn is_true(self) -> bool {
        self.0 == 1
    }
}

/// An interior BDD node: a variable (level) plus low/high children.
///
/// Exposed read-only through [`Manager::node`], mainly for traversals,
/// rendering and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node {
    /// The decision variable labelling this node.
    pub var: Var,
    /// Child followed when `var` is assigned `0`.
    pub low: Bdd,
    /// Child followed when `var` is assigned `1`.
    pub high: Bdd,
}

/// The unique table keeps at least this many buckets per node. Chains
/// then average under a quarter of a link, so most lookups of a new node
/// read one empty bucket head: with one bucket per node instead,
/// restricting a compiled diagram (whose nodes are mostly new) was slower
/// than with the hash map this table replaced.
const BUCKETS_PER_NODE: usize = 4;

/// Sentinel level assigned to the two terminal nodes: compares greater than
/// every real variable so terminals sort below all interior nodes.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// Binary operation identifiers for the computed table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    And,
    Or,
    Xor,
}

/// A manager owning a forest of reduced ordered BDDs over a fixed variable
/// order.
///
/// The manager hash-conses all nodes: structurally identical nodes are
/// created at most once, which makes equality of [`Bdd`] handles equivalent
/// to semantic equality of the represented functions.
///
/// Nodes are only ever appended, after their children, so the arena is
/// topologically sorted (a child's index is below its parent's), and a
/// handle stays valid until a [`Manager::rollback`] to a
/// [`Watermark`](crate::Watermark) taken before it was made. Rollback,
/// which truncates the arena back to the mark, is the only way nodes
/// are freed.
///
/// Two tables sit beside the arena. The unique table chains the nodes
/// by the hash of their `(var, low, high)`: one bucket head per
/// power-of-two bucket, at least four buckets per node, and one `next` id
/// per node, newest first in every chain. The computed table is one lossy
/// memo of `apply`, `ite` and `not` with a quarter as many 20-byte slots
/// as the unique table has buckets, up to 2^22 (see the `computed`
/// module). So a node costs 12 B in the arena, 4 B of `next` and 16–32 B
/// of bucket heads, plus 20–40 B of computed table below its cap.
///
/// # Panics
///
/// All operations panic if the arena would exceed the configured node limit
/// (default: 64 Mi nodes, whose arena alone takes 64 Mi × 12 B = 768 MiB,
/// and its unique table 1.25–2.25 GiB more; the computed table stops at
/// 80 MiB); see [`Manager::set_node_limit`].
///
/// # Example
///
/// ```
/// use bfl_bdd::{Manager, Var};
/// let mut m = Manager::new(3);
/// let a = m.var(Var(0));
/// let b = m.var(Var(1));
/// let ab = m.and(a, b);
/// let n = m.not(ab);
/// let back = m.not(n);
/// assert_eq!(ab, back); // canonicity
/// ```
#[derive(Debug, Clone)]
pub struct Manager {
    pub(crate) nodes: Vec<Node>,
    /// Unique table: bucket → the newest node id of its chain, 0 for an
    /// empty chain (the terminals are never interned).
    pub(crate) heads: Vec<u32>,
    /// Unique table: node id → the next older id of its chain, 0 ending
    /// it. Parallel to `nodes`.
    pub(crate) next: Vec<u32>,
    pub(crate) computed: ComputedTable,
    num_vars: u32,
    node_limit: usize,
    /// Node-indexed scratch of the walks, reused from call to call.
    pub(crate) scratch: ScratchCell,
}

impl Manager {
    /// Default maximum number of nodes before operations panic.
    pub const DEFAULT_NODE_LIMIT: usize = 64 << 20;

    /// Creates a manager over `num_vars` variables `Var(0) .. Var(num_vars)`.
    ///
    /// `Var(k)` sits at level `k` of the variable order.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// assert_eq!(m.num_vars(), 2);
    /// let x = m.var(Var(0));
    /// let y = m.var(Var(1));
    /// let f = m.and(x, y);
    /// assert!(m.eval(f, |_| true));
    /// ```
    pub fn new(num_vars: u32) -> Self {
        let terminal = |b: u32| Node {
            var: Var(TERMINAL_LEVEL),
            low: Bdd(b),
            high: Bdd(b),
        };
        Manager {
            nodes: vec![terminal(0), terminal(1)],
            heads: vec![0; BUCKETS_PER_NODE * INITIAL_SLOTS],
            next: vec![0, 0],
            computed: ComputedTable::new(INITIAL_SLOTS),
            num_vars,
            node_limit: Self::DEFAULT_NODE_LIMIT,
            scratch: ScratchCell::default(),
        }
    }

    /// The constant-false function.
    pub fn bot(&self) -> Bdd {
        Bdd(0)
    }

    /// The constant-true function.
    pub fn top(&self) -> Bdd {
        Bdd(1)
    }

    /// Returns the constant function for `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            self.top()
        } else {
            self.bot()
        }
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total number of nodes allocated in the arena (including terminals).
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// Sets the maximum number of nodes the arena may hold, capped at
    /// 2^31: node ids stay below the computed table's operation tag.
    ///
    /// # Panics
    ///
    /// Subsequent operations panic when the limit would be exceeded.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit.min(OP_TAG as usize);
    }

    /// Read access to a node. Terminals report a sentinel variable level.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a handle of this manager.
    pub fn node(&self, f: Bdd) -> Node {
        self.nodes[f.0 as usize]
    }

    /// The decision level of the root of `f`, which is its variable's id
    /// (`u32::MAX` for terminals).
    pub(crate) fn level(&self, f: Bdd) -> u32 {
        self.nodes[f.0 as usize].var.0
    }

    /// Returns the single-node BDD for the positive literal `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a declared variable of this manager.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(1);
    /// let x = m.var(Var(0));
    /// assert!(m.eval(x, |_| true));
    /// assert!(!m.eval(x, |_| false));
    /// assert_eq!(m.var(Var(0)), x); // hash-consed: same node every time
    /// ```
    pub fn var(&mut self, v: Var) -> Bdd {
        assert!(v.0 < self.num_vars, "undeclared variable {v}");
        let bot = self.bot();
        let top = self.top();
        self.mk(v, bot, top)
    }

    /// Returns the single-node BDD for the negative literal `¬v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a declared variable of this manager.
    pub fn nvar(&mut self, v: Var) -> Bdd {
        assert!(v.0 < self.num_vars, "undeclared variable {v}");
        let bot = self.bot();
        let top = self.top();
        self.mk(v, top, bot)
    }

    /// Finds or creates the node `(var, low, high)`, applying the ROBDD
    /// reduction rules (redundant-test elimination and sharing).
    pub(crate) fn mk(&mut self, var: Var, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        debug_assert!(
            var.0 < self.level(low) && var.0 < self.level(high),
            "variable order violated: {} above children",
            var
        );
        let node = Node { var, low, high };
        let bucket = self.bucket(&node);
        let mut id = self.heads[bucket];
        while id != 0 {
            if self.nodes[id as usize] == node {
                return Bdd(id);
            }
            id = self.next[id as usize];
        }
        assert!(
            self.nodes.len() < self.node_limit,
            "BDD node limit exceeded ({} nodes)",
            self.node_limit
        );
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.next.push(self.heads[bucket]);
        self.heads[bucket] = id;
        if BUCKETS_PER_NODE * self.nodes.len() > self.heads.len() {
            self.grow_tables();
        }
        Bdd(id)
    }

    /// The unique-table bucket of `node`'s chain.
    #[inline]
    pub(crate) fn bucket(&self, node: &Node) -> usize {
        hash3(node.var.0, node.low.0, node.high.0) as usize & (self.heads.len() - 1)
    }

    /// The id interning `node`, found by walking its chain. Stops at a
    /// link that does not descend or leaves the arena, so it ends on a
    /// corrupt table too.
    pub(crate) fn find(&self, node: &Node) -> Option<u32> {
        let mut id = self.heads[self.bucket(node)];
        let mut above = u32::MAX;
        while id != 0 && id < above {
            if self.nodes.get(id as usize)? == node {
                return Some(id);
            }
            above = id;
            id = *self.next.get(id as usize)?;
        }
        None
    }

    /// Doubles the unique table once the arena outgrows a quarter of its
    /// buckets, and the computed table with it. Relinking in id order
    /// keeps every chain newest first.
    #[cold]
    fn grow_tables(&mut self) {
        let buckets = 2 * self.heads.len();
        self.heads.clear();
        self.heads.resize(buckets, 0);
        for id in 2..self.nodes.len() {
            let bucket = self.bucket(&self.nodes[id]);
            self.next[id] = self.heads[bucket];
            self.heads[bucket] = id as u32;
        }
        self.computed.grow_to(buckets / BUCKETS_PER_NODE);
    }

    /// Number of nodes reachable from `f` (including the terminals reached).
    ///
    /// This is the conventional "BDD size" reported in the literature.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let f = m.or(a, b);
    /// assert_eq!(m.node_count(f), 4); // two decision nodes + two terminals
    /// assert_eq!(m.node_count(m.top()), 1);
    /// ```
    pub fn node_count(&self, f: Bdd) -> usize {
        let mut count = 0;
        self.for_each_reachable(&[f], |_, _| count += 1);
        count
    }

    /// Number of nodes (terminals included) reachable from `roots`, the
    /// two terminals always counted: what the arena would hold if it
    /// kept only these diagrams.
    pub fn live_size(&self, roots: &[Bdd]) -> usize {
        let mut all = vec![self.bot(), self.top()];
        all.extend_from_slice(roots);
        let mut count = 0;
        self.for_each_reachable(&all, |_, _| count += 1);
        count
    }

    /// Calls `visit` once for every distinct node reachable from `roots`,
    /// terminals included, with its handle and contents. Marks visited
    /// nodes in the manager's node-indexed scratch, so the walk costs the
    /// nodes it reaches.
    pub(crate) fn for_each_reachable(&self, roots: &[Bdd], mut visit: impl FnMut(Bdd, Node)) {
        let mut s = self.scratch.take();
        s.seen.clear();
        s.stack.clear();
        s.stack.extend_from_slice(roots);
        while let Some(n) = s.stack.pop() {
            if !s.seen.insert(n.0) {
                continue;
            }
            let node = self.nodes[n.0 as usize];
            visit(n, node);
            if !n.is_terminal() {
                s.stack.push(node.low);
                s.stack.push(node.high);
            }
        }
        self.scratch.put(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let m = Manager::new(0);
        assert!(m.bot().is_false());
        assert!(m.top().is_true());
        assert!(m.bot().is_terminal());
        assert_ne!(m.bot(), m.top());
    }

    #[test]
    fn var_nodes_are_shared() {
        let mut m = Manager::new(2);
        let a1 = m.var(Var(0));
        let a2 = m.var(Var(0));
        assert_eq!(a1, a2);
        assert_eq!(m.arena_size(), 3);
    }

    #[test]
    fn mk_eliminates_redundant_tests() {
        let mut m = Manager::new(2);
        let t = m.top();
        let r = m.mk(Var(0), t, t);
        assert_eq!(r, t);
    }

    #[test]
    fn var_and_nvar_differ() {
        let mut m = Manager::new(1);
        let p = m.var(Var(0));
        let n = m.nvar(Var(0));
        assert_ne!(p, n);
        let node = m.node(p);
        assert_eq!(node.low, m.bot());
        assert_eq!(node.high, m.top());
    }

    #[test]
    #[should_panic(expected = "undeclared variable")]
    fn undeclared_variable_panics() {
        let mut m = Manager::new(1);
        let _ = m.var(Var(5));
    }

    #[test]
    fn node_count_counts_reachable() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        // root (x0), node for x1, two terminals
        assert_eq!(m.node_count(f), 4);
    }
}
