//! Dynamic variable reordering: the adjacent-level swap primitive and
//! Rudell-style sifting.
//!
//! BDD size is dominated by the variable order (Section V-A of the paper;
//! Rudell 1993). This module makes the order *dynamic*:
//!
//! * [`Manager::swap_adjacent_levels`] exchanges two adjacent levels **in
//!   place**: nodes at the upper level are rewritten (their children
//!   re-expressed through the new upper variable), every other node —
//!   and, crucially, every [`Bdd`] handle — keeps both its index and its
//!   function. Handles, operation caches and client-side variable maps
//!   all stay valid across swaps.
//! * [`Manager::sift`] lifts the primitive to Rudell's sifting: each
//!   variable (or glued block of adjacent levels, see
//!   [`SiftOptions::group`]) is moved through every position of the
//!   order, with a growth cap, and parked where the *live* diagram —
//!   measured against a caller-supplied root list — is smallest.
//!
//! Swaps allocate replacement children and orphan the old ones, so a
//! long sift breeds debris — worse, orphaned nodes still sit at their
//! levels and get re-rewritten by every later swap. [`Manager::sift`]
//! therefore interleaves [`Manager::collect_garbage`] whenever the arena
//! outgrows the live set: the caller's root handles are **remapped in
//! place** (the only observable effect — functions are untouched), which
//! is why sifting borrows its roots mutably. Run a final collection
//! after sifting to reclaim the last round of debris.
//!
//! Cost profile: each swap scans the arena for rewrite candidates and
//! each block move re-marks the live set, so a full pass is
//! `O(blocks² · arena)` — tens of milliseconds on the paper-scale trees
//! this repo targets (see `BENCH_reorder.json`). The classical
//! constant-factor improvement (per-level node lists with incrementally
//! maintained level counts, updated by the swap itself) drops that to
//! `O(blocks² · level-width)` and is the natural next optimisation if
//! trees grow by another order of magnitude.

use crate::manager::{Bdd, Manager, Node, Var};

/// Tuning knobs for [`Manager::sift_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiftOptions {
    /// Number of adjacent levels glued into one moving block.
    ///
    /// `1` sifts single variables. Clients whose encodings pair adjacent
    /// levels (e.g. the fault-tree layer's interleaved primed variables)
    /// sift with `group = 2` so the pairing invariant survives
    /// reordering.
    pub group: u32,
    /// A sift direction is abandoned once the live size exceeds
    /// `max_growth` × the best size seen for the block (Rudell's growth
    /// cap). Must be ≥ 1.
    pub max_growth: f64,
    /// Maximum number of full sifting passes; a pass that fails to shrink
    /// the live size ends the sift early.
    pub passes: u32,
}

impl Default for SiftOptions {
    fn default() -> Self {
        SiftOptions {
            group: 1,
            max_growth: 1.2,
            passes: 2,
        }
    }
}

/// Statistics of one [`Manager::sift`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiftStats {
    /// Live nodes (terminals included) reachable from the roots before
    /// sifting.
    pub live_before: usize,
    /// Live nodes after sifting.
    pub live_after: usize,
    /// Adjacent-level swaps performed.
    pub swaps: usize,
    /// Blocks (variables, for `group = 1`) sifted to their best position.
    pub blocks_sifted: usize,
}

impl SiftStats {
    /// Component-wise accumulation, for layers that sift repeatedly.
    pub fn absorb(&mut self, other: &SiftStats) {
        if self.blocks_sifted == 0 && self.swaps == 0 {
            self.live_before = other.live_before;
        }
        self.live_after = other.live_after;
        self.swaps += other.swaps;
        self.blocks_sifted += other.blocks_sifted;
    }

    /// Fraction of live nodes eliminated, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.live_before == 0 {
            0.0
        } else {
            1.0 - self.live_after as f64 / self.live_before as f64
        }
    }
}

impl Manager {
    /// Swaps the variables at `level` and `level + 1` of the order, in
    /// place.
    ///
    /// This is the reordering primitive: every node keeps its index and
    /// its function, so outstanding [`Bdd`] handles and the operation
    /// caches remain valid. Nodes at the upper level that test the lower
    /// variable are rewritten through freshly allocated children; their
    /// old children may become unreachable (reclaim with
    /// [`Manager::collect_garbage`]).
    ///
    /// # Panics
    ///
    /// Panics if `level + 1` is not a level of this manager.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let f = m.and(a, b);
    /// m.swap_adjacent_levels(0);
    /// // The order changed, the function did not.
    /// assert_eq!(m.current_order(), vec![Var(1), Var(0)]);
    /// assert!(m.eval(f, |_| true));
    /// assert!(!m.eval(f, |v| v == Var(0)));
    /// ```
    pub fn swap_adjacent_levels(&mut self, level: u32) {
        assert!(
            level + 1 < self.num_vars(),
            "level {level} out of range for {} variables",
            self.num_vars()
        );
        self.epoch += 1;
        let x = self.level2var[level as usize]; // moves down
        let y = self.level2var[level as usize + 1]; // moves up

        // Nodes labelled `x` that test `y` below must be rewritten; all
        // other nodes are untouched by the exchange. The scan covers dead
        // nodes too — they are still interned in the unique table and
        // must respect the order.
        let mut rewrite: Vec<u32> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate().skip(2) {
            if node.var.0 == x
                && (self.nodes[node.low.0 as usize].var.0 == y
                    || self.nodes[node.high.0 as usize].var.0 == y)
            {
                rewrite.push(i as u32);
            }
        }
        self.level2var.swap(level as usize, level as usize + 1);
        self.var2level[x as usize] = level + 1;
        self.var2level[y as usize] = level;
        if rewrite.is_empty() {
            return;
        }
        // Drop the stale unique keys first: replacement children are
        // hash-consed and must never resolve to a node that is about to
        // be relabelled.
        for &i in &rewrite {
            let n = self.nodes[i as usize];
            self.unique.remove(&(n.var.0, n.low.0, n.high.0));
        }
        for &i in &rewrite {
            let n = self.nodes[i as usize];
            // Cofactor both children on y (identity when y is absent).
            let (f00, f01) = self.cofactors(n.low, Var(y));
            let (f10, f11) = self.cofactors(n.high, Var(y));
            let low = self.mk(Var(x), f00, f10);
            let high = self.mk(Var(x), f01, f11);
            debug_assert_ne!(low, high, "swap collapsed a live test");
            self.nodes[i as usize] = Node {
                var: Var(y),
                low,
                high,
            };
            let prev = self.unique.insert((y, low.0, high.0), i);
            debug_assert!(prev.is_none(), "swap produced a duplicate node");
        }
    }

    /// Rudell-style sifting with default options (single variables, 1.2×
    /// growth cap): each variable is trial-moved through every level and
    /// parked where the diagram reachable from `roots` is smallest.
    ///
    /// The roots both steer the size metric and anchor the interleaved
    /// garbage collections: pass every handle you intend to keep — they
    /// are rewritten in place when a collection compacts the arena, and
    /// any handle *not* passed is invalid afterwards. The represented
    /// functions never change.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// // x0 x2 ∨ x1 x3: the identity order interleaves the pairs and
    /// // needs 3 extra nodes; sifting finds a pair-adjacent order.
    /// let mut m = Manager::new(4);
    /// let (a, b, c, d) = (m.var(Var(0)), m.var(Var(1)), m.var(Var(2)), m.var(Var(3)));
    /// let ac = m.and(a, c);
    /// let bd = m.and(b, d);
    /// let mut roots = [m.or(ac, bd)];
    /// assert_eq!(m.node_count(roots[0]), 8);
    /// let stats = m.sift(&mut roots);
    /// assert!(stats.live_after < stats.live_before);
    /// assert_eq!(m.node_count(roots[0]), 6);
    /// ```
    pub fn sift(&mut self, roots: &mut [Bdd]) -> SiftStats {
        self.sift_with(roots, SiftOptions::default())
    }

    /// Sifting with explicit [`SiftOptions`] (block size, growth cap,
    /// pass count). See [`Manager::sift`].
    pub fn sift_with(&mut self, roots: &mut [Bdd], opts: SiftOptions) -> SiftStats {
        let group = opts.group.max(1) as usize;
        let max_growth = opts.max_growth.max(1.0);
        let n = self.num_vars() as usize;
        let mut stats = SiftStats {
            live_before: self.live_size(roots),
            ..SiftStats::default()
        };
        stats.live_after = stats.live_before;
        // Partition the levels into glued blocks of `group` adjacent
        // levels (trailing remainder forms a short block). Blocks keep
        // their member variables and internal order forever; only whole
        // blocks move.
        let blocks: Vec<Vec<Var>> = (0..n)
            .step_by(group)
            .map(|start| {
                (start..(start + group).min(n))
                    .map(|l| self.var_at_level(l as u32))
                    .collect()
            })
            .collect();
        if blocks.len() < 2 || stats.live_before <= 2 {
            return stats;
        }
        for _ in 0..opts.passes.max(1) {
            let before_pass = stats.live_after;
            // Current block layout in level order (blocks persist across
            // passes but their positions do not).
            let mut layout: Vec<usize> = (0..blocks.len()).collect();
            layout.sort_by_key(|&b| self.level_of(blocks[b][0]));
            // Process the largest blocks first (Rudell's heuristic).
            let per_block = self.live_counts_per_block(roots, &blocks);
            let mut order: Vec<usize> = (0..blocks.len()).collect();
            order.sort_by_key(|&b| std::cmp::Reverse(per_block[b]));
            for bid in order {
                if per_block[bid] == 0 {
                    continue;
                }
                stats.blocks_sifted += 1;
                self.sift_block(roots, &blocks, &mut layout, bid, max_growth, &mut stats);
            }
            stats.live_after = self.live_size(roots);
            if stats.live_after >= before_pass {
                break;
            }
        }
        self.debug_audit();
        stats
    }

    /// Live interior nodes per block, from one mark pass.
    fn live_counts_per_block(&self, roots: &[Bdd], blocks: &[Vec<Var>]) -> Vec<usize> {
        let mut block_of_var = vec![usize::MAX; self.num_vars() as usize];
        for (b, vars) in blocks.iter().enumerate() {
            for v in vars {
                block_of_var[v.0 as usize] = b;
            }
        }
        let mut counts = vec![0usize; blocks.len()];
        let mut seen = vec![false; self.nodes.len()];
        seen[0] = true;
        seen[1] = true;
        let mut stack: Vec<u32> = roots.iter().map(|r| r.id()).collect();
        while let Some(i) = stack.pop() {
            if seen[i as usize] {
                continue;
            }
            seen[i as usize] = true;
            let node = self.nodes[i as usize];
            counts[block_of_var[node.var.0 as usize]] += 1;
            stack.push(node.low.0);
            stack.push(node.high.0);
        }
        counts
    }

    /// Moves block `bid` down to the bottom, back up to the top, then to
    /// the best position seen (Rudell's down-up schedule with a growth
    /// cap), compacting the arena whenever swap debris piles up.
    fn sift_block(
        &mut self,
        roots: &mut [Bdd],
        blocks: &[Vec<Var>],
        layout: &mut [usize],
        bid: usize,
        max_growth: f64,
        stats: &mut SiftStats,
    ) {
        let len = layout.len();
        let mut pos = layout
            .iter()
            .position(|&b| b == bid)
            .unwrap_or_else(|| unreachable!("block {bid} is always in the layout"));
        let mut best_pos = pos;
        let mut best = self.live_size(roots);
        // Downward phase.
        while pos + 1 < len {
            stats.swaps += self.swap_adjacent_blocks(blocks, layout, pos);
            layout.swap(pos, pos + 1);
            pos += 1;
            let cur = self.gc_debris(roots);
            if cur < best {
                best = cur;
                best_pos = pos;
            } else if cur as f64 > max_growth * best as f64 {
                break;
            }
        }
        // Upward phase, through the starting position to the top.
        while pos > 0 {
            stats.swaps += self.swap_adjacent_blocks(blocks, layout, pos - 1);
            layout.swap(pos - 1, pos);
            pos -= 1;
            let cur = self.gc_debris(roots);
            if cur < best {
                best = cur;
                best_pos = pos;
            } else if cur as f64 > max_growth * best as f64 {
                break;
            }
        }
        // Park at the best position.
        while pos < best_pos {
            stats.swaps += self.swap_adjacent_blocks(blocks, layout, pos);
            layout.swap(pos, pos + 1);
            pos += 1;
        }
        self.gc_debris(roots);
    }

    /// Live size of `roots`; additionally compacts the arena (remapping
    /// `roots` in place) once swap debris dominates it. Orphaned nodes
    /// are not just wasted memory — they still occupy levels and would be
    /// rewritten again by every subsequent swap, so unbounded debris
    /// makes sifting super-linear.
    fn gc_debris(&mut self, roots: &mut [Bdd]) -> usize {
        let live = self.live_size(roots);
        if self.nodes.len() >= 2048 && self.nodes.len() > 4 * live {
            let gc = self.collect_garbage(roots);
            for r in roots.iter_mut() {
                *r = gc
                    .remap(*r)
                    .unwrap_or_else(|| unreachable!("sift root survives its own sweep"));
            }
        }
        live
    }

    /// Swaps the adjacent blocks at layout positions `pos` and `pos + 1`
    /// via adjacent-level swaps; returns the number of swaps performed.
    fn swap_adjacent_blocks(&mut self, blocks: &[Vec<Var>], layout: &[usize], pos: usize) -> usize {
        let start: usize = layout[..pos].iter().map(|&b| blocks[b].len()).sum();
        let a = blocks[layout[pos]].len();
        let b = blocks[layout[pos + 1]].len();
        // Bubble each variable of the lower block up over the upper
        // block, top-most first, preserving both internal orders.
        for j in 0..b {
            let from = start + a + j;
            for k in 0..a {
                self.swap_adjacent_levels((from - k - 1) as u32);
            }
        }
        a * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All 8 evaluations of `f` over 3 variables, keyed by bit `i` = value
    /// of `Var(i)`.
    fn truth3(m: &Manager, f: Bdd) -> Vec<bool> {
        (0..8u32)
            .map(|bits| m.eval(f, |v| (bits >> v.index()) & 1 == 1))
            .collect()
    }

    #[test]
    fn swap_preserves_functions_and_handles() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let before = truth3(&m, f);
        for level in [0, 1, 0, 1, 0, 1] {
            m.swap_adjacent_levels(level);
            assert_eq!(truth3(&m, f), before, "after swapping level {level}");
        }
        // (s0·s1)³ = identity in S3: the order is back where it started.
        assert_eq!(m.current_order(), vec![Var(0), Var(1), Var(2)]);
    }

    #[test]
    fn swap_updates_the_order_maps() {
        let mut m = Manager::new(3);
        m.swap_adjacent_levels(1);
        assert_eq!(m.current_order(), vec![Var(0), Var(2), Var(1)]);
        assert_eq!(m.level_of(Var(2)), 1);
        assert_eq!(m.level_of(Var(1)), 2);
        assert_eq!(m.var_at_level(0), Var(0));
    }

    #[test]
    fn swap_keeps_canonicity() {
        let mut m = Manager::new(4);
        let vars: Vec<Bdd> = (0..4).map(|i| m.var(Var(i))).collect();
        let f = {
            let x = m.and(vars[0], vars[2]);
            let y = m.and(vars[1], vars[3]);
            m.or(x, y)
        };
        m.swap_adjacent_levels(1);
        m.swap_adjacent_levels(2);
        // Rebuilding the same function must land on the same node.
        let g = {
            let x = m.and(vars[0], vars[2]);
            let y = m.and(vars[1], vars[3]);
            m.or(x, y)
        };
        assert_eq!(f, g);
    }

    #[test]
    fn operations_after_swaps_respect_the_new_order() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let c = m.var(Var(2));
        m.swap_adjacent_levels(0);
        m.swap_adjacent_levels(1);
        // Order is now x1, x2, x0: build something fresh across it.
        let f = m.and(a, c);
        let g = m.restrict(f, Var(2), true);
        assert_eq!(g, a);
        assert_eq!(m.sat_count(f, 3), Some(2));
    }

    #[test]
    fn sift_finds_the_pair_adjacent_order() {
        // The classic: ⋁ x_i x_{i+n} needs exponential nodes when the
        // pairs are split across the order, linear when adjacent.
        let n = 4u32;
        let mut m = Manager::new(2 * n);
        let mut f = m.bot();
        for i in 0..n {
            let x = m.var(Var(i));
            let y = m.var(Var(i + n));
            let xy = m.and(x, y);
            f = m.or(f, xy);
        }
        let before = m.node_count(f);
        let mut roots = [f];
        let stats = m.sift(&mut roots);
        let f = roots[0];
        let after = m.node_count(f);
        assert_eq!(stats.live_after, m.live_size(&[f]));
        assert!(
            after < before,
            "sift should shrink the split-pair diagram: {before} -> {after}"
        );
        // The optimal pair-adjacent diagram has 2n interior nodes.
        assert_eq!(after, 2 * n as usize + 2);
        // Semantics preserved.
        for bits in 0..(1u32 << (2 * n)) {
            let expect = (0..n).any(|i| (bits >> i) & 1 == 1 && (bits >> (i + n)) & 1 == 1);
            assert_eq!(m.eval(f, |v| (bits >> v.index()) & 1 == 1), expect);
        }
    }

    #[test]
    fn grouped_sift_keeps_blocks_glued() {
        let mut m = Manager::new(6);
        let a = m.var(Var(0));
        let d = m.var(Var(3));
        let e = m.var(Var(4));
        let ad = m.and(a, d);
        let f = m.or(ad, e);
        let _ = m.sift_with(
            &mut [f],
            SiftOptions {
                group: 2,
                ..SiftOptions::default()
            },
        );
        // Pairs (0,1), (2,3), (4,5) must stay adjacent with the even
        // variable on top.
        for pair in [0u32, 2, 4] {
            assert_eq!(
                m.level_of(Var(pair)) + 1,
                m.level_of(Var(pair + 1)),
                "pair {pair} split by grouped sift"
            );
        }
    }

    #[test]
    fn sift_with_empty_roots_is_a_noop() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let _ = m.and(a, b);
        let stats = m.sift(&mut []);
        assert_eq!(stats.swaps, 0);
        assert_eq!(stats.live_before, 2);
    }

    #[test]
    fn sift_then_gc_reclaims_swap_debris() {
        let n = 3u32;
        let mut m = Manager::new(2 * n);
        let mut f = m.bot();
        for i in 0..n {
            let x = m.var(Var(i));
            let y = m.var(Var(i + n));
            let xy = m.and(x, y);
            f = m.or(f, xy);
        }
        let mut roots = [f];
        let stats = m.sift(&mut roots);
        assert!(m.arena_size() >= stats.live_after);
        let gc = m.collect_garbage(&roots);
        let f = gc.remap(roots[0]).unwrap();
        assert_eq!(m.arena_size(), stats.live_after);
        assert_eq!(m.node_count(f), stats.live_after);
    }
}
