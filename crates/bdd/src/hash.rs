//! The hash of every table keyed by arena indices.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of rustc-hash 2 (64-bit).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// One multiply-add per hashed word: the hasher of the per-call memos of
/// the manager's quantification, renaming and one-shot probability
/// walks, and of the entries a [`WatermarkMemo`](crate::WatermarkMemo)
/// keeps across requests. The manager's own tables (its unique table and
/// computed table) pick their bucket and slot with the same hash of a
/// key's three words, and its request-path walks memoise by node index
/// instead.
///
/// The keys are small tuples of arena indices the manager hands out
/// itself, never outside input, so SipHash's defence against crafted
/// collisions buys nothing while its per-lookup cost shows in every
/// `apply` step and every memoised walk. This is the multiply-add word
/// hash of rustc-hash 2. Keys are still compared in full on lookup: a
/// poor spread can only slow a probe, never change an answer. A model
/// shapes the indices only through its structure, and a hostile model
/// can already ask for an exponential diagram, which the node limit
/// bounds.
#[derive(Debug, Default, Clone)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = self.0.wrapping_add(i).wrapping_mul(K);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        // The product's best-mixed bits are its high ones, but hashbrown
        // takes the bucket index from the low bits: rotate them down.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// [`WordHasher`]'s hash of three words, as it hashes a `(u32, u32, u32)`.
#[inline]
pub(crate) fn hash3(a: u32, b: u32, c: u32) -> u64 {
    let mut h = WordHasher::default();
    h.write_u32(a);
    h.write_u32(b);
    h.write_u32(c);
    h.finish()
}
