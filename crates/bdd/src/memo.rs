//! Node-indexed memos: what a walk remembers about the nodes it visited.
//!
//! A walk over one diagram visits a few thousand nodes of an arena that
//! may hold millions. [`NodeSet`] is the sparse set of Briggs and
//! Torczon ("An efficient representation for sparse sets", 1993): a
//! member is found by its node id with two array reads and no hashing,
//! and the whole set is emptied in O(1). Its id-indexed array is never
//! cleared, only grown to the largest id seen; a stale entry there is
//! told apart by checking it against the dense member list. So a walk
//! pays for the nodes it visits, never for the arena, and the id-indexed
//! array costs 4 bytes per node up to the largest id ever visited.
//!
//! The manager's own walks share one [`NodeSet`] (held in the manager,
//! see [`Scratch`]) with a value column per walk, so their id-indexed
//! array exists once per manager.
//!
//! A memo a caller keeps across requests, such as a prepared plan's
//! Shannon memo, must not cost 4 bytes per arena node for every plan of a
//! session. [`WatermarkMemo`] hashes the entries of the nodes that outlive
//! a request and keeps the request's own nodes, which are numbered
//! densely from its watermark, in a column indexed from it: it costs its
//! entries, and forgetting a request's nodes is a truncation.

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::hash::WordMap;
use crate::manager::Bdd;
use crate::rollback::Watermark;

/// A memo from node ids to values, as the memoised walks
/// ([`Manager::probability_with_memo`](crate::Manager::probability_with_memo)
/// and its interval twin) read and fill it.
///
/// [`WatermarkMemo`] is the one a prepared plan keeps across requests.
/// Any `HashMap<u32, V, _>` works too.
pub trait NodeMemo<V> {
    /// The value memoised for node `id`, if any.
    fn get(&self, id: u32) -> Option<V>;
    /// Memoises `value` for node `id`, replacing an earlier value.
    fn insert(&mut self, id: u32, value: V);
}

impl<V: Copy, S: BuildHasher> NodeMemo<V> for HashMap<u32, V, S> {
    fn get(&self, id: u32) -> Option<V> {
        HashMap::get(self, &id).copied()
    }

    fn insert(&mut self, id: u32, value: V) {
        HashMap::insert(self, id, value);
    }
}

/// A set of node ids: O(1) insertion, lookup and clearing (see the
/// [module docs](self)).
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeSet {
    /// Node id → position in `members`; stale for ids not in the set.
    slot: Vec<u32>,
    /// The members, in insertion order.
    members: Vec<u32>,
}

impl NodeSet {
    /// Empties the set without touching the id-indexed array.
    pub(crate) fn clear(&mut self) {
        self.members.clear();
    }

    /// The insertion position of `id`, if it is a member.
    #[inline]
    pub(crate) fn position(&self, id: u32) -> Option<usize> {
        let p = *self.slot.get(id as usize)? as usize;
        (self.members.get(p) == Some(&id)).then_some(p)
    }

    /// Adds `id`, which must not be a member, at position `len()`.
    #[inline]
    pub(crate) fn push(&mut self, id: u32) {
        let i = id as usize;
        if i >= self.slot.len() {
            // `resize` grows the capacity geometrically.
            self.slot.resize(i + 1, 0);
        }
        self.slot[i] = self.members.len() as u32;
        self.members.push(id);
    }

    /// Adds `id`; `false` if it was already a member.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        if self.position(id).is_some() {
            return false;
        }
        self.push(id);
        true
    }
}

/// The memo a caller keeps across requests that each end with a
/// [`Manager::rollback`](crate::Manager::rollback) to the watermark they
/// began at: e.g. a prepared plan's Shannon memo.
///
/// It holds two kinds of entries. Nodes below the request's watermark
/// outlive the request, so their entries are kept, hashed by id: the
/// memo costs its entries, never the arena. The request's own nodes (ids
/// from the watermark on) are numbered densely from it, so their entries
/// sit in a column indexed by `id − mark`, as long as the request's nodes
/// up to the last one walked, and [`WatermarkMemo::end_request`] drops
/// them all by truncation: the rollback frees those ids for the next
/// nodes. Each request calls [`WatermarkMemo::begin_request`] before its
/// first walk.
///
/// ```
/// use bfl_bdd::{Manager, Var, WatermarkMemo};
/// let mut m = Manager::new(2);
/// let a = m.var(Var(0));
/// let b = m.var(Var(1));
/// let mut memo = WatermarkMemo::new();
/// let mark = m.watermark();
/// memo.begin_request(mark);
/// let f = m.or(a, b);
/// let p = m.probability_with_memo(f, &|_| 0.5, &mut memo);
/// assert_eq!(p, 0.75);
/// assert_eq!(memo.len(), 2); // a ∨ b, and b below it
/// m.rollback(mark);
/// memo.end_request();
/// assert_eq!(memo.len(), 1); // a ∨ b is gone with its node
/// ```
#[derive(Debug, Clone)]
pub struct WatermarkMemo<V> {
    /// Entries of nodes below `mark`.
    kept: WordMap<u32, V>,
    /// `fresh[id − mark]`: entries of the current request's own nodes.
    fresh: Vec<Option<V>>,
    /// Arena size at the current request's watermark.
    mark: u32,
}

impl<V> Default for WatermarkMemo<V> {
    fn default() -> Self {
        WatermarkMemo {
            kept: WordMap::default(),
            fresh: Vec::new(),
            mark: 0,
        }
    }
}

impl<V: Copy> WatermarkMemo<V> {
    /// An empty memo; allocates nothing until the first insertion.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.kept.len() + self.fresh.iter().filter(|v| v.is_some()).count()
    }

    /// Whether the memo has no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Starts, or continues, the request that took `mark`: from here on,
    /// node ids at or past its arena size are the request's own. Entries
    /// of another mark's own nodes are dropped.
    pub fn begin_request(&mut self, mark: Watermark) {
        let mark = mark.arena_size() as u32;
        if mark != self.mark {
            self.fresh.clear();
            self.mark = mark;
        }
    }

    /// Ends the request after its rollback: drops the entries of its own
    /// nodes, whose ids the next nodes reuse.
    pub fn end_request(&mut self) {
        self.fresh.clear();
    }
}

impl<V: Copy> NodeMemo<V> for WatermarkMemo<V> {
    #[inline]
    fn get(&self, id: u32) -> Option<V> {
        match id.checked_sub(self.mark) {
            None => self.kept.get(&id).copied(),
            Some(i) => self.fresh.get(i as usize).copied().flatten(),
        }
    }

    #[inline]
    fn insert(&mut self, id: u32, value: V) {
        match id.checked_sub(self.mark) {
            None => {
                self.kept.insert(id, value);
            }
            Some(i) => {
                let i = i as usize;
                if i >= self.fresh.len() {
                    self.fresh.resize(i + 1, None);
                }
                self.fresh[i] = Some(value);
            }
        }
    }
}

/// The scratch of the manager's own walks: one [`NodeSet`] of visited
/// nodes with a value column per memoised walk, plus a reusable stack and
/// two per-variable columns.
///
/// Walks do not nest, so they share the set; each clears it and its own
/// column when it starts. Everything here is sized by the nodes and
/// variables walks touched, and reused, so a request pays for what it
/// visits.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Nodes visited by the current walk.
    pub(crate) seen: NodeSet,
    /// `restrict_many`: the restriction of the node at each position.
    pub(crate) restricted: Vec<Bdd>,
    /// `sat_count_over`: the node's model count below its own level, and
    /// its position in the universe's level order.
    pub(crate) counts: Vec<(u128, u32)>,
    /// Depth-first stack of the reachability walks.
    pub(crate) stack: Vec<Bdd>,
    /// `restrict_many`'s stack: the nodes whose restriction waits for a
    /// child's.
    pub(crate) frames: Vec<Frame>,
    /// Variable id → the value a restriction binds it to. All `None`
    /// between calls.
    pub(crate) binding: Vec<Option<bool>>,
    /// Variable id → whether `support` has met it. All `false` between
    /// calls.
    pub(crate) in_support: Vec<bool>,
}

/// A node on `restrict_many`'s stack, and what its restriction waits for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Frame {
    /// A bound node: its kept child's restriction is its own.
    Bound(Bdd),
    /// A free node, waiting for its low child's restriction.
    Low(Bdd),
    /// A free node with its low child's restriction, waiting for its high
    /// child's.
    High(Bdd, Bdd),
}

/// The manager's [`Scratch`], lent out for the length of one walk so
/// that `&self` walks can use it too. A `Clone` of the manager starts
/// with empty scratch.
#[derive(Default)]
pub(crate) struct ScratchCell(std::cell::Cell<Scratch>);

impl ScratchCell {
    /// Takes the scratch out, leaving an empty one behind.
    pub(crate) fn take(&self) -> Scratch {
        self.0.take()
    }

    /// Puts the scratch back after a walk.
    pub(crate) fn put(&self, scratch: Scratch) {
        self.0.set(scratch);
    }
}

impl Clone for ScratchCell {
    fn clone(&self) -> Self {
        ScratchCell::default()
    }
}

impl std::fmt::Debug for ScratchCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ScratchCell")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Manager, Var};

    #[test]
    fn stale_slots_are_not_members() {
        let mut s = NodeSet::default();
        assert!(s.insert(7));
        assert!(s.insert(3));
        assert!(!s.insert(7));
        assert_eq!(s.position(3), Some(1));
        s.clear();
        // The id-indexed array still names 7 and 3; the check against
        // the member list rejects both.
        assert_eq!(s.position(7), None);
        assert_eq!(s.position(3), None);
        assert!(s.insert(3));
        assert_eq!(s.position(3), Some(0));
        assert_eq!(s.position(7), None);
    }

    #[test]
    fn request_entries_go_with_the_request() {
        let mut m = Manager::new(1);
        let x = m.var(Var(0));
        let mark = m.watermark();
        let mut memo = WatermarkMemo::new();
        memo.begin_request(mark);
        let below = mark.arena_size() as u32 - 1;
        memo.insert(below, 0.5);
        memo.insert(below + 3, 3.0);
        memo.insert(below + 1, 1.0);
        assert_eq!(memo.len(), 3);
        assert_eq!(memo.get(below + 2), None);
        assert_eq!(memo.get(below + 3), Some(3.0));
        // A second walk of the same request still sees its entries.
        memo.begin_request(mark);
        assert_eq!(memo.get(below + 1), Some(1.0));
        memo.end_request();
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.get(below), Some(0.5));
        assert_eq!(memo.get(below + 1), None);
        // A request at another mark never reads the last one's nodes,
        // even when it skipped `end_request`.
        memo.insert(below + 1, 1.0);
        let _ = m.not(x);
        memo.begin_request(m.watermark());
        assert_eq!(memo.get(below + 1), None);
        assert_eq!(memo.get(below), Some(0.5));
    }
}
