//! The computed table: one lossy, direct-mapped memo of `apply`, `ite`
//! and `not`, shared by the three.
//!
//! A key hashes to one slot. A lookup compares the whole key, and a store
//! overwrites whatever the slot held, so a collision costs a recomputation
//! and never an answer: the result of an operation over surviving nodes
//! already sits in the arena, and recomputing it makes no node. The table
//! has at least one slot per node, doubling with the unique table up to
//! [`MAX_SLOTS`], so its size follows the arena; it is never set by a
//! user.
//!
//! A rollback does not scan the table. It bumps an epoch instead, and
//! lowers `stable`, the lowest mark any rollback has returned to. An
//! entry hits only if it was written in the current epoch (no rollback
//! has dropped a node since), or if every id it names, operands and
//! result, lies below `stable`. Every rollback since the write kept the
//! nodes below its own mark, and every such mark is at or above `stable`,
//! so those ids still name the nodes they named when the entry was
//! written. So when every request of a session rolls back to the arena
//! its set-up left, no rollback invalidates a set-up entry; only a later
//! store into its slot, or the table's doubling, drops one.

use crate::hash::hash3;
use crate::manager::{Bdd, Op};

/// Set in the third word of an `apply` or `not` key, which names the
/// operation; clear in an `ite` key, whose third word is a node. Node ids
/// stay below it (see [`Manager::set_node_limit`](crate::Manager::set_node_limit)).
pub(crate) const OP_TAG: u32 = 1 << 31;

/// Third word of a `not` key.
const NOT_TAG: u32 = OP_TAG | 3;

/// Slots of a new manager's table.
pub(crate) const INITIAL_SLOTS: usize = 1 << 10;

/// The table stops growing here: 2^22 slots of 20 bytes, 80 MiB.
pub(crate) const MAX_SLOTS: usize = 1 << 22;

/// A computed-table key: `apply`'s two operands and its operation, `ite`'s
/// three operands, or `not`'s operand twice and its tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Key(pub(crate) [u32; 3]);

impl Key {
    pub(crate) fn apply(op: Op, f: Bdd, g: Bdd) -> Key {
        Key([f.0, g.0, OP_TAG | op as u32])
    }

    pub(crate) fn ite(f: Bdd, g: Bdd, h: Bdd) -> Key {
        Key([f.0, g.0, h.0])
    }

    pub(crate) fn not(f: Bdd) -> Key {
        Key([f.0, f.0, NOT_TAG])
    }

    /// What the key asks for, or `None` for a tag no operation uses.
    pub(crate) fn decode(self) -> Option<Cached> {
        let [f, g, h] = self.0;
        match h {
            NOT_TAG => Some(Cached::Not(f)),
            h if h & OP_TAG == 0 => Some(Cached::Ite(f, g, h)),
            h => [Op::And, Op::Or, Op::Xor]
                .into_iter()
                .find(|&op| h == OP_TAG | op as u32)
                .map(|op| Cached::Apply(op, f, g)),
        }
    }
}

/// A decoded [`Key`], for the audit.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cached {
    Apply(Op, u32, u32),
    Ite(u32, u32, u32),
    Not(u32),
}

/// One entry. An empty slot holds `Key::default()`, which no lookup asks
/// for: no cached operation has ⊥ as its first operand.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    pub(crate) key: Key,
    pub(crate) result: u32,
    epoch: u32,
}

impl Slot {
    /// The largest node id the entry names.
    fn max_id(&self) -> u32 {
        let [f, g, h] = self.key.0;
        let h = if h & OP_TAG == 0 { h } else { 0 };
        f.max(g).max(h).max(self.result)
    }
}

/// The table (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct ComputedTable {
    slots: Vec<Slot>,
    /// Bumped by every rollback that drops a node.
    epoch: u32,
    /// The lowest mark a rollback has returned to; `u32::MAX` before the
    /// first.
    stable: u32,
}

impl ComputedTable {
    pub(crate) fn new(slots: usize) -> Self {
        ComputedTable {
            slots: vec![Slot::default(); slots],
            epoch: 0,
            stable: u32::MAX,
        }
    }

    #[inline]
    fn index(&self, key: Key) -> usize {
        let [a, b, c] = key.0;
        hash3(a, b, c) as usize & (self.slots.len() - 1)
    }

    /// Whether `slot`'s entry may hit (see the [module docs](self)).
    #[inline]
    fn valid(&self, slot: &Slot) -> bool {
        slot.epoch == self.epoch || slot.max_id() < self.stable
    }

    #[inline]
    pub(crate) fn get(&self, key: Key) -> Option<Bdd> {
        let slot = &self.slots[self.index(key)];
        (slot.key == key && self.valid(slot)).then_some(Bdd(slot.result))
    }

    #[inline]
    pub(crate) fn put(&mut self, key: Key, result: Bdd) {
        let i = self.index(key);
        self.slots[i] = Slot {
            key,
            result: result.0,
            epoch: self.epoch,
        };
    }

    /// Grows to `slots` (capped at [`MAX_SLOTS`]) if that is more than it
    /// has, dropping every entry.
    pub(crate) fn grow_to(&mut self, slots: usize) {
        let slots = slots.min(MAX_SLOTS);
        if slots > self.slots.len() {
            // Free the old slots first: the peak then holds one table,
            // not two.
            self.slots = Vec::new();
            self.slots = vec![Slot::default(); slots];
        }
    }

    /// Records a rollback that kept the nodes below `keep` and dropped
    /// some above it.
    pub(crate) fn rolled_back(&mut self, keep: u32) {
        self.stable = self.stable.min(keep);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // A wrapped epoch would make old entries look current.
            self.slots.fill(Slot::default());
        }
    }

    /// The entries that may hit, for the audit.
    pub(crate) fn valid_entries(&self) -> impl Iterator<Item = &Slot> {
        self.slots
            .iter()
            .filter(move |s| s.key != Key::default() && self.valid(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Manager, Var};

    const VARS: u32 = 5;

    /// The truth table of `f` over `VARS` variables, one bit per
    /// assignment.
    fn table(m: &Manager, f: Bdd) -> u32 {
        (0..1u32 << VARS).fold(0, |acc, bits| {
            acc | u32::from(m.eval(f, |v| (bits >> v.0) & 1 == 1)) << bits
        })
    }

    #[test]
    fn a_tiny_table_recomputes_every_collision_correctly() {
        // Four slots for thousands of calls: nearly every store evicts an
        // entry, and `and`, `or` and `xor` of one operand pair ask for
        // keys that differ only in their operation.
        let mut seed = 0x5EED_u64;
        let mut below = |n: usize| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) as usize % n
        };
        let mut calls = 0;
        for _ in 0..12 {
            let mut m = Manager::new(VARS);
            m.computed = ComputedTable::new(4);
            let mut pool: Vec<(Bdd, u32)> = (0..VARS)
                .map(|i| {
                    let x = m.var(Var(i));
                    (x, table(&m, x))
                })
                .collect();
            for _ in 0..60 {
                let (f, tf) = pool[below(pool.len())];
                let (g, tg) = pool[below(pool.len())];
                let (h, th) = pool[below(pool.len())];
                let results = [
                    (m.and(f, g), tf & tg),
                    (m.or(f, g), tf | tg),
                    (m.xor(f, g), tf ^ tg),
                    (m.not(f), !tf),
                    (m.ite(f, g, h), (tf & tg) | (!tf & th)),
                ];
                for (r, want) in results {
                    assert_eq!(table(&m, r), want);
                    pool.push((r, want));
                }
                calls += results.len();
            }
            assert_eq!(m.computed.slots.len(), 4, "the table grew");
            assert!(m.audit_with(usize::MAX).is_ok());
        }
        assert!(calls >= 3_000, "{calls} calls");
    }
}
