//! The open-addressing index both LRU types share: one `u64` slot word
//! per entry in a power-of-two `Vec<u64>` under linear probing at
//! load ≤ ¾.
//!
//! A slot word is `tag << 32 | (node + 1)` (0 = empty), where `tag` is
//! the high half of a one-multiply hash of the key and the home slot is
//! the tag's top bits. A lookup therefore compares tags before it
//! touches a node, and backward-shift deletion and rehash read slot
//! words only — never a key. The hasher is private and unkeyed, so
//! simulation runs are reproducible, and nothing ever iterates the
//! table.
//!
//! The table starts at 16 slots and doubles on demand, so a cache costs
//! what it holds, not what it may hold. It doubles at ¾, not ½: a cache
//! and its ghost share one table, so every index query walks a table
//! that also indexes the ghost index, and doubling at ¾ often keeps it
//! half the size doubling at ½ would. Tags keep the longer clusters
//! cheap: a probe compares 32 bits and touches a node only on a match.

use std::hash::{Hash, Hasher};

/// Slots of a fresh table (12 entries before the first doubling).
const MIN_SLOTS: usize = 16;

/// One rotate-xor-multiply per 64-bit word written (a `u64` key or a
/// `Fingerprint`'s prefix is a single multiply). The golden-ratio
/// multiplier pushes every input bit into the high half, which is the
/// only half [`tag_of`] keeps.
struct TagHasher(u64);

impl Hasher for TagHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[inline]
pub(crate) fn tag_of<K: Hash>(key: &K) -> u32 {
    let mut hasher = TagHasher(0);
    key.hash(&mut hasher);
    (hasher.finish() >> 32) as u32
}

#[inline]
pub(crate) fn slot_word(tag: u32, idx: u32) -> u64 {
    (tag as u64) << 32 | (idx as u64 + 1)
}

/// Slot words, `tag << 32 | (node + 1)`; 0 is an empty slot.
#[derive(Debug)]
pub(crate) struct SlotTable {
    /// The length is a power of two, kept at least 4/3 of the entries.
    slots: Vec<u64>,
    /// `32 - log2(slots.len())`: a tag's home slot is `tag >> shift`.
    shift: u32,
}

impl SlotTable {
    #[inline]
    pub(crate) fn new() -> Self {
        Self {
            slots: vec![0; MIN_SLOTS],
            shift: 32 - MIN_SLOTS.trailing_zeros(),
        }
    }

    /// Walk `tag`'s chain from its home: `hit(slot, node)` runs for each
    /// word carrying `tag` until it returns `true`. The walk ends at the
    /// first empty slot, which load ≤ ¾ guarantees exists.
    #[inline]
    pub(crate) fn probe(
        &self,
        tag: u32,
        mut hit: impl FnMut(usize, u32) -> bool,
    ) -> Option<(usize, u32)> {
        let mask = self.slots.len() - 1;
        let mut slot = (tag >> self.shift) as usize;
        loop {
            let word = self.slots[slot];
            if word == 0 {
                return None;
            }
            if (word >> 32) as u32 == tag {
                let idx = word as u32 - 1;
                if hit(slot, idx) {
                    return Some((slot, idx));
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Slot holding `word`: the word's tag gives the home, and the
    /// whole word — not the key — identifies it along the chain.
    #[inline]
    pub(crate) fn slot_of(&self, word: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(word);
        while self.slots[slot] != word {
            assert!(self.slots[slot] != 0, "live node {word:#x} is not indexed");
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Make room for `entries` at load ≤ ¾.
    #[inline]
    pub(crate) fn reserve(&mut self, entries: usize) {
        if entries * 4 > self.slots.len() * 3 {
            self.grow();
        }
    }

    #[inline]
    fn home(&self, word: u64) -> usize {
        (word >> (32 + self.shift)) as usize
    }

    /// Store `word` in the first empty slot at or after its home.
    #[inline]
    pub(crate) fn place(&mut self, word: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(word);
        while self.slots[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = word;
    }

    /// Empty `slot` by backward shift: each later word of the chain
    /// moves into the hole unless that would put it before its home,
    /// so no tombstone is left and lookups still end at an empty slot.
    #[inline]
    pub(crate) fn vacate(&mut self, slot: usize) {
        let mask = self.slots.len() - 1;
        let mut hole = slot;
        let mut next = slot;
        loop {
            next = (next + 1) & mask;
            let word = self.slots[next];
            if word == 0 {
                break;
            }
            // Distances are cyclic, measured back from `next`.
            if (next.wrapping_sub(self.home(word)) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.slots[hole] = word;
                hole = next;
            }
        }
        self.slots[hole] = 0;
    }

    /// Point the word of node `from` (tagged `tag`) at node `to`: same
    /// tag, so only the word's low half changes and it keeps its slot.
    #[inline]
    pub(crate) fn renumber(&mut self, tag: u32, from: u32, to: u32) {
        let slot = self.slot_of(slot_word(tag, from));
        self.slots[slot] = slot_word(tag, to);
    }

    /// Double the table, re-placing every word by the tag it carries.
    fn grow(&mut self) {
        let doubled = vec![0; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for word in old.into_iter().filter(|&w| w != 0) {
            self.place(word);
        }
    }

    /// Empty every slot, keeping the table's size.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(0);
    }
}
