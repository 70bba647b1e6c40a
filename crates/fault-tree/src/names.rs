//! The name table of a fault tree: every element name stored once, in
//! one buffer, and found through an open-addressed index of ids.
//!
//! Names come off the wire, so the index hashes them with std's keyed
//! SipHash (one key per table), not the BDD manager's fixed word hash:
//! with a fixed hash a crafted model could make every name collide.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// An index slot that holds no id.
const EMPTY: u32 = u32::MAX;

/// The smallest index; its length is always a power of two.
const MIN_SLOTS: usize = 8;

/// Names with dense ids `0..len`, in the order they were first interned
/// (or the order [`NameTable::renumber`] gave them).
#[derive(Clone)]
pub(crate) struct NameTable {
    /// Every name, concatenated in id order.
    text: String,
    /// Name `id` is `text[bounds[id]..bounds[id + 1]]`; `bounds[0]` is 0.
    bounds: Vec<u32>,
    /// Open addressing with linear probing: ids, or [`EMPTY`]. At most
    /// half full.
    index: Vec<u32>,
    hasher: RandomState,
}

impl Default for NameTable {
    fn default() -> Self {
        NameTable::with_capacity(0)
    }
}

impl fmt::Debug for NameTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|id| self.name(id)))
            .finish()
    }
}

impl NameTable {
    /// An empty table that takes `names` names before its index grows.
    pub(crate) fn with_capacity(names: usize) -> Self {
        let mut bounds = Vec::with_capacity(names + 1);
        bounds.push(0);
        NameTable {
            text: String::new(),
            bounds,
            index: vec![EMPTY; (2 * names).next_power_of_two().max(MIN_SLOTS)],
            hasher: RandomState::new(),
        }
    }

    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The name with id `id`.
    pub(crate) fn name(&self, id: usize) -> &str {
        &self.text[self.bounds[id] as usize..self.bounds[id + 1] as usize]
    }

    /// The id of `name`, if it is in the table.
    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        match self.index[self.probe(name)] {
            EMPTY => None,
            id => Some(id as usize),
        }
    }

    /// The id of `name`, and whether this call added it: a new name takes
    /// the next id. `None` when adding it would take the table's text
    /// past 4 GiB, the reach of its `u32` offsets.
    pub(crate) fn intern(&mut self, name: &str) -> Option<(usize, bool)> {
        let at = self.probe(name);
        if self.index[at] != EMPTY {
            return Some((self.index[at] as usize, false));
        }
        let end = u32::try_from(self.text.len() + name.len()).ok()?;
        let id = u32::try_from(self.len()).ok().filter(|&id| id != EMPTY)?;
        self.text.push_str(name);
        self.bounds.push(end);
        self.index[at] = id;
        if 2 * self.len() > self.index.len() {
            self.grow();
        }
        Some((id as usize, true))
    }

    /// Gives the name with id `order[k]` the id `k`. `order` must be a
    /// permutation of `0..len`. The index keeps every slot, rewritten
    /// through the inverse permutation, so no name is hashed again; the
    /// text is copied once, in the new order.
    pub(crate) fn renumber(&mut self, order: &[usize]) {
        debug_assert_eq!(order.len(), self.len(), "not a permutation");
        let mut new_id = vec![EMPTY; order.len()];
        let mut text = String::with_capacity(self.text.len());
        let mut bounds = Vec::with_capacity(order.len() + 1);
        bounds.push(0);
        for (k, &old) in order.iter().enumerate() {
            debug_assert_eq!(new_id[old], EMPTY, "not a permutation");
            new_id[old] = k as u32;
            text.push_str(self.name(old));
            bounds.push(text.len() as u32);
        }
        for slot in self.index.iter_mut().filter(|slot| **slot != EMPTY) {
            *slot = new_id[*slot as usize];
        }
        self.text = text;
        self.bounds = bounds;
    }

    /// The slot that holds `name`, or the empty slot where it would go.
    fn probe(&self, name: &str) -> usize {
        let mask = self.index.len() - 1;
        let mut at = self.hasher.hash_one(name) as usize & mask;
        while self.index[at] != EMPTY && self.name(self.index[at] as usize) != name {
            at = (at + 1) & mask;
        }
        at
    }

    /// Doubles the index and re-inserts every id.
    fn grow(&mut self) {
        let index = vec![EMPTY; 2 * self.index.len()];
        let old = std::mem::replace(&mut self.index, index);
        for id in old.into_iter().filter(|&id| id != EMPTY) {
            let at = self.probe(self.name(id as usize));
            self.index[at] = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn table(names: &[&str]) -> NameTable {
        let mut t = NameTable::default();
        for name in names {
            t.intern(name).unwrap();
        }
        t
    }

    #[test]
    fn repeated_names_share_an_id_and_new_names_take_the_next() {
        let mut t = NameTable::default();
        assert_eq!(t.intern("top"), Some((0, true)));
        assert_eq!(t.intern("a"), Some((1, true)));
        assert_eq!(t.intern("top"), Some((0, false)));
        assert_eq!(t.intern("b"), Some((2, true)));
        assert_eq!(t.intern("a"), Some((1, false)));
        assert_eq!(t.len(), 3);
        assert_eq!([t.name(0), t.name(1), t.name(2)], ["top", "a", "b"]);
    }

    #[test]
    fn absent_names_are_not_found() {
        let t = table(&["pump", "Valve", "x"]);
        for absent in ["", "pum", "pumps", "PUMP", "valve", "X", "Valve "] {
            assert_eq!(t.get(absent), None, "{absent:?}");
        }
        assert_eq!(t.get("Valve"), Some(1));
        assert_eq!(NameTable::default().get(""), None);
    }

    #[test]
    fn the_empty_name_is_a_name() {
        let mut t = table(&["a"]);
        assert_eq!(t.intern(""), Some((1, true)));
        assert_eq!(t.get(""), Some(1));
        assert_eq!(t.name(1), "");
        assert_eq!(t.get("a"), Some(0));
    }

    #[test]
    fn growth_from_the_minimum_capacity_keeps_every_id() {
        let mut t = NameTable::default();
        assert_eq!(t.index.len(), MIN_SLOTS);
        let name = |i: usize| format!("e{i}");
        for i in 0..100_000 {
            assert_eq!(t.intern(&name(i)), Some((i, true)));
            assert!(2 * t.len() <= t.index.len());
        }
        for i in 0..100_000 {
            assert_eq!(t.get(&name(i)), Some(i));
            assert_eq!(t.name(i), name(i));
            assert_eq!(t.intern(&name(i)), Some((i, false)));
        }
        assert_eq!(t.len(), 100_000);
    }

    #[test]
    fn renumber_leaves_no_stale_id() {
        for (n, seed) in [(1, 1), (2, 2), (7, 3), (1000, 4), (5000, 5)] {
            let mut t = NameTable::with_capacity(n);
            let names: Vec<String> = (0..n).map(|i| format!("n{}", i * 7919 % 10007)).collect();
            for name in &names {
                t.intern(name).unwrap();
            }
            // A seeded Fisher–Yates permutation.
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = Prng::seed_from_u64(seed);
            for i in (1..n).rev() {
                order.swap(i, rng.next_u64() as usize % (i + 1));
            }
            t.renumber(&order);
            assert_eq!(t.len(), n);
            for k in 0..n {
                assert_eq!(t.name(k), names[order[k]], "{n}: {k}");
                assert_eq!(t.get(t.name(k)), Some(k), "{n}: {k}");
            }
            // Interning after a renumber continues from the new ids.
            assert_eq!(t.intern(&names[order[0]]), Some((0, false)));
            assert_eq!(t.intern("fresh"), Some((n, true)));
            assert_eq!(t.get("fresh"), Some(n));
        }
    }

    #[test]
    fn names_of_any_text() {
        let names = [
            "CP/R",
            "http://top",
            "a//b",
            "a b",
            "  padded ",
            "Tö",
            "日本",
            "\u{1F600}x",
            "\u{1F600}",
            "é",
            "e\u{301}",
        ];
        let mut t = table(&names);
        for (id, name) in names.iter().enumerate() {
            assert_eq!(t.get(name), Some(id), "{name:?}");
            assert_eq!(t.name(id), *name);
        }
        let order: Vec<usize> = (0..names.len()).rev().collect();
        t.renumber(&order);
        for (id, name) in names.iter().rev().enumerate() {
            assert_eq!(t.get(name), Some(id), "{name:?}");
            assert_eq!(t.name(id), *name);
        }
        assert_eq!(t.get("a"), None);
        assert_eq!(t.get("\u{1F600}y"), None);
    }
}
