//! Mark-and-sweep garbage collection with arena compaction.
//!
//! The manager's arena only ever grows while operations run; long-lived
//! sessions accumulate dead nodes. [`Manager::collect_garbage`] reclaims
//! them:
//!
//! 1. **mark** — walk the diagram from a caller-supplied root list;
//! 2. **sweep** — rebuild the arena with only the live nodes, in
//!    topological (children-first) order;
//! 3. **remap** — rebuild the unique table, drop every memoisation cache
//!    (their keys are old node indices) and hand the caller a [`Gc`]
//!    record that translates old [`Bdd`] handles to their new values.
//!
//! Any handle *not* reachable from the supplied roots is gone after the
//! sweep; clients own their root lists (e.g. `TreeBdd` passes its
//! element-translation cache, the engine layer adds formula caches and
//! prepared-query roots) and must remap every handle they keep.

use crate::hash::WordMap;
use crate::manager::{Bdd, Manager, Node};

/// Sentinel for "this node did not survive the sweep".
const DEAD: u32 = u32::MAX;

/// Statistics of one [`Manager::collect_garbage`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Arena size (nodes, terminals included) before the sweep.
    pub arena_before: usize,
    /// Arena size after compaction.
    pub arena_after: usize,
    /// Nodes reclaimed (`arena_before - arena_after`).
    pub collected: usize,
}

/// The outcome of a collection: statistics plus the old-handle → new-handle
/// translation. Returned by [`Manager::collect_garbage`].
///
/// The translation is only meaningful for the arena state the collection
/// ran on; remap every retained handle immediately, before any further
/// manager operation.
#[derive(Debug, Clone)]
pub struct Gc {
    stats: GcStats,
    /// old node index -> new node index (or [`DEAD`]).
    map: Vec<u32>,
}

impl Gc {
    /// Statistics of this collection.
    pub fn stats(&self) -> GcStats {
        self.stats
    }

    /// Translates a pre-collection handle to its compacted value.
    ///
    /// Returns `None` if the node was not reachable from the collection's
    /// roots (the handle is dead). Terminals always survive.
    pub fn remap(&self, f: Bdd) -> Option<Bdd> {
        match self.map.get(f.id() as usize) {
            Some(&n) if n != DEAD => Some(Bdd(n)),
            _ => None,
        }
    }
}

impl Manager {
    /// Mark-and-sweep garbage collection over the given `roots`, with
    /// arena compaction.
    ///
    /// Every node reachable from `roots` (plus the two terminals)
    /// survives and is assigned a fresh, dense index; everything else is
    /// reclaimed. The unique table is rebuilt and **all memoisation
    /// caches are dropped** (their keys name old indices). The returned
    /// [`Gc`] translates old handles: callers must remap every handle
    /// they keep and discard the rest.
    ///
    /// Node contents are untouched: a survivor keeps its variable and its
    /// children's functions, so a rooted diagram keeps its size.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(3);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let keep = m.and(a, b);
    /// let scratch = m.or(a, b); // dead after this scope
    /// let _ = scratch;
    ///
    /// let before = m.arena_size();
    /// let gc = m.collect_garbage(&[keep]);
    /// let keep = gc.remap(keep).expect("rooted handles survive");
    /// assert!(m.arena_size() < before);
    /// assert_eq!(gc.stats().collected, before - m.arena_size());
    /// // The remapped handle still evaluates identically.
    /// assert!(m.eval(keep, |_| true));
    /// assert!(!m.eval(keep, |v| v == Var(0)));
    /// ```
    pub fn collect_garbage(&mut self, roots: &[Bdd]) -> Gc {
        let arena_before = self.nodes.len();
        let mut map = vec![DEAD; arena_before];
        map[0] = 0;
        map[1] = 1;
        let mut new_nodes: Vec<Node> = vec![self.nodes[0], self.nodes[1]];
        // Iterative post-order from the roots: children are assigned new
        // indices before their parents, so the compacted arena stays
        // topologically sorted (child index < parent index).
        let mut stack: Vec<(u32, bool)> = roots.iter().map(|r| (r.id(), false)).collect();
        while let Some((i, expanded)) = stack.pop() {
            if map[i as usize] != DEAD {
                continue;
            }
            let node = self.nodes[i as usize];
            if expanded {
                let low = map[node.low.0 as usize];
                let high = map[node.high.0 as usize];
                debug_assert!(low != DEAD && high != DEAD, "child swept before parent");
                map[i as usize] = new_nodes.len() as u32;
                new_nodes.push(Node {
                    var: node.var,
                    low: Bdd(low),
                    high: Bdd(high),
                });
            } else {
                stack.push((i, true));
                stack.push((node.low.0, false));
                stack.push((node.high.0, false));
            }
        }
        let mut unique = WordMap::with_capacity_and_hasher(new_nodes.len(), Default::default());
        for (i, n) in new_nodes.iter().enumerate().skip(2) {
            let prev = unique.insert((n.var.0, n.low.0, n.high.0), i as u32);
            debug_assert!(prev.is_none(), "duplicate node survived the sweep");
        }
        self.nodes = new_nodes;
        self.unique = unique;
        self.epoch += 1;
        self.op_cache.clear();
        self.ite_cache.clear();
        self.not_cache.clear();
        let arena_after = self.nodes.len();
        // Debug builds re-verify the full arena after every collection.
        #[cfg(debug_assertions)]
        {
            let report = self.audit();
            assert!(report.is_ok(), "post-GC arena audit failed: {report}");
        }
        Gc {
            stats: GcStats {
                arena_before,
                arena_after,
                collected: arena_before - arena_after,
            },
            map,
        }
    }

    /// Number of nodes (terminals included) reachable from `roots` — the
    /// size the arena would have after [`Manager::collect_garbage`] with
    /// the same root list.
    pub fn live_size(&self, roots: &[Bdd]) -> usize {
        let mut all = vec![self.bot(), self.top()];
        all.extend_from_slice(roots);
        let mut count = 0;
        self.for_each_reachable(&all, |_, _| count += 1);
        count
    }
}

#[cfg(test)]
mod tests {
    use crate::manager::{Manager, Var};

    #[test]
    fn collection_reclaims_unrooted_nodes() {
        let mut m = Manager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let keep = m.and(a, b);
        let ab = m.or(a, b);
        let dead = m.and(ab, c);
        let _ = dead;
        let before = m.arena_size();
        let gc = m.collect_garbage(&[keep]);
        assert!(m.arena_size() < before);
        assert_eq!(gc.stats().arena_before, before);
        assert_eq!(gc.stats().arena_after, m.arena_size());
        assert!(gc.remap(dead).is_none());
        let keep2 = gc.remap(keep).unwrap();
        // keep = a ∧ b: root + one interior + two terminals.
        assert_eq!(m.node_count(keep2), 4);
        assert_eq!(m.arena_size(), 4);
    }

    #[test]
    fn terminals_always_survive() {
        let mut m = Manager::new(1);
        let x = m.var(Var(0));
        let _ = x;
        let gc = m.collect_garbage(&[]);
        assert_eq!(m.arena_size(), 2);
        assert_eq!(gc.remap(m.bot()), Some(m.bot()));
        assert_eq!(gc.remap(m.top()), Some(m.top()));
    }

    #[test]
    fn remapped_handles_keep_their_function() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let garbage = m.xor(a, c);
        let _ = garbage;
        let truth: Vec<bool> = (0..8u32)
            .map(|bits| m.eval(f, |v| (bits >> v.index()) & 1 == 1))
            .collect();
        let gc = m.collect_garbage(&[f, a, b, c]);
        let f = gc.remap(f).unwrap();
        for (bits, &expect) in truth.iter().enumerate() {
            let bits = bits as u32;
            assert_eq!(m.eval(f, |v| (bits >> v.index()) & 1 == 1), expect);
        }
        // Rebuilding the same function lands on the same (compacted) node.
        let a = gc.remap(a).unwrap();
        let b = gc.remap(b).unwrap();
        let c = gc.remap(c).unwrap();
        let ab = m.and(a, b);
        assert_eq!(m.or(ab, c), f);
    }

    #[test]
    fn operations_work_after_collection() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.and(a, b);
        let gc = m.collect_garbage(&[f]);
        let f = gc.remap(f).unwrap();
        // Caches were cleared; recompute through the rebuilt unique table.
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let g = m.and(a, b);
        assert_eq!(f, g);
        let n = m.not(f);
        let back = m.not(n);
        assert_eq!(back, f);
    }

    #[test]
    fn live_size_matches_post_gc_arena() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        let junk = m.var(Var(2));
        let _ = junk;
        let live = m.live_size(&[f]);
        m.collect_garbage(&[f]);
        assert_eq!(m.arena_size(), live);
    }
}
