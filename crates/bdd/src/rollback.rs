//! Arena rollback: return the manager to a [`Watermark`] taken earlier.
//!
//! A request that builds scratch diagrams (a restriction per what-if, a
//! cause construction) takes a watermark first, extracts its answer as
//! plain data, and rolls back. Everything made since the mark goes: the
//! nodes and their unique-table links. The arena and the unique table are
//! then exactly as a manager that never ran the request would have them.
//!
//! The cost is linear in the nodes dropped and nothing else. The computed
//! table is not scanned: the rollback bumps its epoch, and an entry
//! written before it hits only if every node it names lies below every
//! mark rolled back to (see the `computed` module).

use crate::manager::Manager;

/// A point in a manager's history that [`Manager::rollback`] returns to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    nodes: usize,
}

impl Watermark {
    /// Arena size (terminals included) when the mark was taken: the
    /// index the next new node takes after a rollback to it.
    pub fn arena_size(&self) -> usize {
        self.nodes
    }
}

impl Manager {
    /// Marks the current arena, for a later [`Manager::rollback`].
    pub fn watermark(&self) -> Watermark {
        Watermark {
            nodes: self.nodes.len(),
        }
    }

    /// Drops every node made since `mark` and returns how many there
    /// were. Handles at or past the mark become invalid, and the next
    /// new node takes index `mark.arena_size()`.
    ///
    /// Each dropped node leaves the unique table: newest first, each is
    /// the head of its chain, so unlinking it is one store. Nodes are
    /// appended after their children, so nothing below the mark points
    /// past it. A computed-table entry that names a dropped node never
    /// hits again; entries over the nodes below the mark may.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(3);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let mark = m.watermark();
    /// let ab = m.and(a, b);
    /// let scratch = m.restrict_many(ab, &[(Var(0), true)]);
    /// assert_eq!(scratch, b); // answers extracted before the rollback
    /// assert_eq!(m.rollback(mark), 1); // the node of a ∧ b
    /// assert_eq!(m.arena_size(), mark.arena_size());
    /// assert!(m.audit().is_ok());
    /// ```
    pub fn rollback(&mut self, mark: Watermark) -> usize {
        let keep = mark.nodes;
        let dropped = self.nodes.len() - keep;
        if dropped == 0 {
            return 0;
        }
        for id in (keep..self.nodes.len()).rev() {
            let bucket = self.bucket(&self.nodes[id]);
            debug_assert_eq!(self.heads[bucket] as usize, id, "chains are newest first");
            self.heads[bucket] = self.next[id];
        }
        self.nodes.truncate(keep);
        self.next.truncate(keep);
        self.computed.rolled_back(keep as u32);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use crate::manager::{Manager, Var};

    #[test]
    fn rollback_to_the_current_arena_is_a_no_op() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let mark = m.watermark();
        assert_eq!(m.rollback(mark), 0);
        assert_eq!(m.var(Var(0)), a);
    }

    #[test]
    fn cached_results_over_dropped_nodes_are_recomputed() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let build = |m: &mut Manager| {
            let ab = m.and(a, b);
            let f = m.or(ab, c);
            let nf = m.not(f);
            m.ite(a, nf, c)
        };
        let table = |m: &Manager, g| -> Vec<bool> {
            (0..8u32)
                .map(|bits| m.eval(g, |v| (bits >> v.index()) & 1 == 1))
                .collect()
        };
        let mark = m.watermark();
        let g = build(&mut m);
        let before = table(&m, g);
        assert!(m.rollback(mark) > 0);
        assert!(m.audit_with(usize::MAX).is_ok());
        // No cache entry of the dropped work survives: rebuilding starts
        // at the mark's index and ends on the same function.
        assert_eq!(m.and(a, b).id() as usize, mark.arena_size());
        let g = build(&mut m);
        assert_eq!(table(&m, g), before);
        assert!(m.audit_with(usize::MAX).is_ok());
    }
}
