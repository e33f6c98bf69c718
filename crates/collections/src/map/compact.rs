//! Dense-storage hash map mirroring the paper's VLSI `CompactHashMap`.

use std::fmt;
use std::hash::Hash;
use std::mem;

use crate::hash::hash_one;
use crate::traits::{HeapSize, MapOps};

const EMPTY: u32 = 0;
const MIN_SLOTS: usize = 8;
const MAX_LOAD_FACTOR: f64 = 0.8;

/// A hash map with dense entry storage and a compact `u32` index table.
///
/// Reproduces the role of the VLSI `CompactHashMap` from the paper's Table 2
/// ("byte-serialized map for high memory efficiency"): entries are packed
/// contiguously in insertion order and the hash table itself stores only
/// 4-byte indices, so the footprint approaches the raw payload size while
/// lookups stay O(1). Deletion uses backward-shift compaction (no
/// tombstones) plus swap-removal in the dense array.
///
/// Limited to 2³²−2 entries by the `u32` index table.
///
/// # Examples
///
/// ```
/// use cs_collections::CompactHashMap;
///
/// let mut m = CompactHashMap::new();
/// m.insert(1, "one");
/// m.insert(2, "two");
/// assert_eq!(m.get(&1), Some(&"one"));
/// assert_eq!(m.remove(&2), Some("two"));
/// assert_eq!(m.len(), 1);
/// ```
pub struct CompactHashMap<K, V> {
    /// Dense entry storage; `len()` == number of entries.
    entries: Vec<(K, V)>,
    /// Open-addressed table of `entry_index + 1` (0 = empty).
    table: Box<[u32]>,
    allocated: u64,
}

impl<K: Eq + Hash, V> CompactHashMap<K, V> {
    /// Creates an empty map without allocating.
    pub fn new() -> Self {
        CompactHashMap {
            entries: Vec::new(),
            table: Box::new([]),
            allocated: 0,
        }
    }

    /// Creates an empty map sized for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut m = CompactHashMap::new();
        if capacity > 0 {
            m.reserve_entries(capacity);
            let slots = ((capacity as f64 / MAX_LOAD_FACTOR).ceil() as usize)
                .max(MIN_SLOTS)
                .next_power_of_two();
            m.rebuild_table(slots);
        }
        m
    }

    /// Number of entries in the map.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn reserve_entries(&mut self, additional: usize) {
        let old_cap = self.entries.capacity();
        self.entries.reserve(additional);
        let new_cap = self.entries.capacity();
        if new_cap != old_cap {
            self.allocated += ((new_cap - old_cap) * mem::size_of::<(K, V)>()) as u64;
        }
    }

    fn rebuild_table(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two());
        self.table = (0..slots).map(|_| EMPTY).collect();
        self.allocated += (slots * mem::size_of::<u32>()) as u64;
        let mask = slots - 1;
        for (i, (k, _)) in self.entries.iter().enumerate() {
            let mut slot = (hash_one(k) as usize) & mask;
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = i as u32 + 1;
        }
    }

    fn maybe_grow(&mut self) {
        if self.table.is_empty() {
            self.rebuild_table(MIN_SLOTS);
        } else if (self.entries.len() + 1) as f64 > self.table.len() as f64 * MAX_LOAD_FACTOR {
            self.rebuild_table(self.table.len() * 2);
        }
    }

    /// Finds the table slot whose entry key equals `key`.
    fn find_slot(&self, key: &K) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = (hash_one(key) as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY => return None,
                e => {
                    if &self.entries[(e - 1) as usize].0 == key {
                        return Some(slot);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Finds the table slot currently pointing at entry index `entry_idx`.
    #[cfg(test)]
    fn slot_of_entry(&self, entry_idx: usize) -> usize {
        let key = &self.entries[entry_idx].0;
        let mask = self.table.len() - 1;
        let mut slot = (hash_one(key) as usize) & mask;
        loop {
            if self.table[slot] == entry_idx as u32 + 1 {
                return slot;
            }
            debug_assert_ne!(self.table[slot], EMPTY, "index table lost an entry");
            slot = (slot + 1) & mask;
        }
    }

    /// Backward-shift deletion: empties `slot` and compacts the probe chain
    /// so later lookups still terminate correctly.
    fn delete_slot(&mut self, mut slot: usize) {
        let mask = self.table.len() - 1;
        let mut next = (slot + 1) & mask;
        while self.table[next] != EMPTY {
            let entry_idx = (self.table[next] - 1) as usize;
            let ideal = (hash_one(&self.entries[entry_idx].0) as usize) & mask;
            // The entry at `next` may move back into `slot` iff its ideal
            // position is cyclically at or before `slot`.
            if (next.wrapping_sub(ideal) & mask) >= (next.wrapping_sub(slot) & mask) {
                self.table[slot] = self.table[next];
                slot = next;
            }
            next = (next + 1) & mask;
        }
        self.table[slot] = EMPTY;
    }

    /// Inserts or replaces the value for `key`, returning the previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(slot) = self.find_slot(&key) {
            let idx = (self.table[slot] - 1) as usize;
            return Some(mem::replace(&mut self.entries[idx].1, value));
        }
        self.maybe_grow();
        let mask = self.table.len() - 1;
        let mut slot = (hash_one(&key) as usize) & mask;
        while self.table[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.reserve_entries(1);
        self.entries.push((key, value));
        self.table[slot] = self.entries.len() as u32;
        None
    }

    /// Returns a reference to the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        let slot = self.find_slot(key)?;
        Some(&self.entries[(self.table[slot] - 1) as usize].1)
    }

    /// Returns a mutable reference to the value for `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let slot = self.find_slot(key)?;
        let idx = (self.table[slot] - 1) as usize;
        Some(&mut self.entries[idx].1)
    }

    /// Returns `true` if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find_slot(key).is_some()
    }

    /// Removes the entry for `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.find_slot(key)?;
        let entry_idx = (self.table[slot] - 1) as usize;
        self.delete_slot(slot);
        let last = self.entries.len() - 1;
        let (_, v) = self.entries.swap_remove(entry_idx);
        if entry_idx != last {
            // The entry formerly at `last` now sits at `entry_idx`; repoint
            // the slot that referenced it.
            let moved_slot = {
                // slot_of_entry searches by the key now living at entry_idx,
                // but the table still references index `last`.
                let key = &self.entries[entry_idx].0;
                let mask = self.table.len() - 1;
                let mut s = (hash_one(key) as usize) & mask;
                loop {
                    if self.table[s] == last as u32 + 1 {
                        break s;
                    }
                    debug_assert_ne!(self.table[s], EMPTY, "index table lost moved entry");
                    s = (s + 1) & mask;
                }
            };
            self.table[moved_slot] = entry_idx as u32 + 1;
        }
        Some(v)
    }

    /// Returns an iterator over the entries in dense-storage order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Removes every entry, keeping allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        for s in self.table.iter_mut() {
            *s = EMPTY;
        }
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        let occupied = self.table.iter().filter(|&&s| s != EMPTY).count();
        assert_eq!(occupied, self.entries.len(), "table/entry count mismatch");
        for i in 0..self.entries.len() {
            assert_eq!(
                (self.table[self.slot_of_entry(i)] - 1) as usize,
                i,
                "entry {i} not reachable through its probe chain"
            );
        }
    }
}

impl<K: Eq + Hash, V> Default for CompactHashMap<K, V> {
    fn default() -> Self {
        CompactHashMap::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Clone for CompactHashMap<K, V> {
    fn clone(&self) -> Self {
        let mut out = CompactHashMap::with_capacity(self.len());
        for (k, v) in self.iter() {
            out.insert(k.clone(), v.clone());
        }
        out
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for CompactHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<K: Eq + Hash, V: PartialEq> PartialEq for CompactHashMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Eq + Hash, V: Eq> Eq for CompactHashMap<K, V> {}

impl<K: Eq + Hash, V> FromIterator<(K, V)> for CompactHashMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = CompactHashMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Eq + Hash, V> Extend<(K, V)> for CompactHashMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K, V> HeapSize for CompactHashMap<K, V> {
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * mem::size_of::<(K, V)>()
            + self.table.len() * mem::size_of::<u32>()
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

impl<K: Eq + Hash + Clone, V> MapOps<K, V> for CompactHashMap<K, V> {
    fn len(&self) -> usize {
        self.entries.len()
    }
    fn map_insert(&mut self, key: K, value: V) -> Option<V> {
        self.insert(key, value)
    }
    fn map_get(&self, key: &K) -> Option<&V> {
        self.get(key)
    }
    fn map_remove(&mut self, key: &K) -> Option<V> {
        self.remove(key)
    }
    fn contains_key(&self, key: &K) -> bool {
        CompactHashMap::contains_key(self, key)
    }
    fn for_each_entry(&self, f: &mut dyn FnMut(&K, &V)) {
        for (k, v) in self.iter() {
            f(k, v);
        }
    }
    fn clear(&mut self) {
        CompactHashMap::clear(self);
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(K, V)) {
        let entries = mem::take(&mut self.entries);
        self.table = Box::new([]);
        for (k, v) in entries {
            sink(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as StdMap;

    #[test]
    fn basic_round_trip() {
        let mut m = CompactHashMap::new();
        for i in 0..1000_i64 {
            assert_eq!(m.insert(i, i + 1), None);
        }
        m.check_invariants();
        for i in 0..1000_i64 {
            assert_eq!(m.get(&i), Some(&(i + 1)));
        }
        assert_eq!(m.get(&1000), None);
    }

    #[test]
    fn remove_with_backward_shift_keeps_chains_intact() {
        let mut m = CompactHashMap::new();
        for i in 0..200_i64 {
            m.insert(i, i);
        }
        // Remove every third key; all others must stay reachable.
        for i in (0..200_i64).step_by(3) {
            assert_eq!(m.remove(&i), Some(i));
            m.check_invariants();
        }
        for i in 0..200_i64 {
            if i % 3 == 0 {
                assert_eq!(m.get(&i), None);
            } else {
                assert_eq!(m.get(&i), Some(&i), "key {i} lost after backward shift");
            }
        }
    }

    #[test]
    fn swap_remove_repoints_moved_entry() {
        let mut m = CompactHashMap::new();
        for i in 0..10_i64 {
            m.insert(i, i);
        }
        // Removing a non-last entry moves the last dense entry into its slot.
        m.remove(&0);
        m.check_invariants();
        assert_eq!(m.get(&9), Some(&9), "moved entry must stay reachable");
    }

    #[test]
    fn matches_std_hashmap_on_mixed_ops() {
        let mut ours = CompactHashMap::new();
        let mut std = StdMap::new();
        let mut x = 0xc0ffee_u64;
        for _ in 0..8000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as i64 % 400;
            match x % 4 {
                0 | 3 => assert_eq!(ours.insert(key, x), std.insert(key, x)),
                1 => assert_eq!(ours.remove(&key), std.remove(&key)),
                _ => assert_eq!(ours.get(&key), std.get(&key)),
            }
            assert_eq!(ours.len(), std.len());
        }
        ours.check_invariants();
    }

    #[test]
    fn denser_than_chained() {
        use crate::map::ChainedHashMap;
        let mut compact = CompactHashMap::new();
        let mut chained = ChainedHashMap::new();
        for i in 0..1000_i64 {
            compact.insert(i, i);
            chained.insert(i, i);
        }
        assert!(
            compact.heap_bytes() < chained.heap_bytes(),
            "compact ({}) must undercut chained ({})",
            compact.heap_bytes(),
            chained.heap_bytes()
        );
    }

    #[test]
    fn iterates_dense_storage() {
        let mut m = CompactHashMap::new();
        for i in 0..25_i64 {
            m.insert(i, i);
        }
        assert_eq!(m.iter().len(), 25);
        let sum: i64 = m.iter().map(|(k, _)| *k).sum();
        assert_eq!(sum, (0..25).sum());
    }

    #[test]
    fn clear_and_reuse() {
        let mut m = CompactHashMap::new();
        for i in 0..100_i64 {
            m.insert(i, i);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&3), None);
        m.insert(3, 33);
        assert_eq!(m.get(&3), Some(&33));
        m.check_invariants();
    }

    #[test]
    fn replace_keeps_dense_position() {
        let mut m = CompactHashMap::new();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.insert(1, "c"), Some("a"));
        assert_eq!(m.len(), 2);
        m.check_invariants();
    }

    #[test]
    fn drain_into_empties() {
        let mut m: CompactHashMap<i64, i64> = (0..30).map(|i| (i, i)).collect();
        let mut got = Vec::new();
        MapOps::drain_into(&mut m, &mut |k, v| got.push((k, v)));
        assert_eq!(got.len(), 30);
        assert!(m.is_empty());
        m.insert(1, 1);
        assert_eq!(m.len(), 1);
    }
}
