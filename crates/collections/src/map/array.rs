//! Parallel-array map mirroring Google/NLP/fastutil `ArrayMap`.

use std::fmt;
use std::hash::Hash;
use std::mem;

use crate::traits::{HeapSize, MapOps};

/// A map stored as two parallel arrays, with linear-scan lookups.
///
/// Reproduces the `ArrayMap` of Google HTTP Client / Stanford NLP / fastutil:
/// no index structure at all, so the footprint is just the key and value
/// payload (plus array slack), but every lookup scans. The paper's best
/// memory variant for small maps and the array half of
/// [`AdaptiveMap`](crate::AdaptiveMap).
///
/// Growth starts at capacity 1 and multiplies by 2, staying frugal for the
/// tiny sizes this variant targets.
///
/// # Examples
///
/// ```
/// use cs_collections::ArrayMap;
///
/// let mut m = ArrayMap::new();
/// m.insert("k", 7);
/// assert_eq!(m.get(&"k"), Some(&7));
/// assert_eq!(m.remove(&"k"), Some(7));
/// ```
pub struct ArrayMap<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
    allocated: u64,
}

impl<K: Eq, V> ArrayMap<K, V> {
    /// Creates an empty map without allocating.
    pub fn new() -> Self {
        ArrayMap {
            keys: Vec::new(),
            values: Vec::new(),
            allocated: 0,
        }
    }

    /// Creates an empty map with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut m = ArrayMap::new();
        m.reserve_tracked(capacity);
        m
    }

    /// Number of entries in the map.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn reserve_tracked(&mut self, additional: usize) {
        let (kc, vc) = (self.keys.capacity(), self.values.capacity());
        self.keys.reserve_exact(additional.max(1));
        self.values.reserve_exact(additional.max(1));
        if self.keys.capacity() != kc {
            self.allocated += ((self.keys.capacity() - kc) * mem::size_of::<K>()) as u64;
        }
        if self.values.capacity() != vc {
            self.allocated += ((self.values.capacity() - vc) * mem::size_of::<V>()) as u64;
        }
    }

    fn grow_for_push(&mut self) {
        if self.keys.len() == self.keys.capacity() {
            let add = self.keys.capacity().max(1);
            self.reserve_tracked(add);
        }
    }

    fn position(&self, key: &K) -> Option<usize> {
        self.keys.iter().position(|k| k == key)
    }

    /// Inserts or replaces the value for `key`, returning the previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Some(i) => Some(mem::replace(&mut self.values[i], value)),
            None => {
                self.grow_for_push();
                self.keys.push(key);
                self.values.push(value);
                None
            }
        }
    }

    /// Returns a reference to the value for `key`, if present (linear scan).
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key).map(|i| &self.values[i])
    }

    /// Returns a mutable reference to the value for `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.position(key).map(|i| &mut self.values[i])
    }

    /// Returns `true` if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_some()
    }

    /// Removes the entry for `key` (swap-remove), returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.position(key)?;
        self.keys.swap_remove(i);
        Some(self.values.swap_remove(i))
    }

    /// Returns an iterator over the entries in insertion order (stable until
    /// the first removal).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&K, &V)> {
        self.keys.iter().zip(self.values.iter())
    }

    /// Removes every entry, keeping allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
    }
}

impl<K: Eq, V> Default for ArrayMap<K, V> {
    fn default() -> Self {
        ArrayMap::new()
    }
}

impl<K: Eq + Clone, V: Clone> Clone for ArrayMap<K, V> {
    fn clone(&self) -> Self {
        let mut out = ArrayMap::with_capacity(self.len());
        for (k, v) in self.iter() {
            out.keys.push(k.clone());
            out.values.push(v.clone());
        }
        out
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for ArrayMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.keys.iter().zip(self.values.iter()))
            .finish()
    }
}

impl<K: Eq, V: PartialEq> PartialEq for ArrayMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Eq, V: Eq> Eq for ArrayMap<K, V> {}

impl<K: Eq, V> FromIterator<(K, V)> for ArrayMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = ArrayMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Eq, V> Extend<(K, V)> for ArrayMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K, V> HeapSize for ArrayMap<K, V> {
    fn heap_bytes(&self) -> usize {
        self.keys.capacity() * mem::size_of::<K>() + self.values.capacity() * mem::size_of::<V>()
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

impl<K: Eq + Hash + Clone, V> MapOps<K, V> for ArrayMap<K, V> {
    fn len(&self) -> usize {
        self.keys.len()
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
        ArrayMap::contains_key(self, key)
    }
    fn for_each_entry(&self, f: &mut dyn FnMut(&K, &V)) {
        for (k, v) in self.iter() {
            f(k, v);
        }
    }
    fn clear(&mut self) {
        ArrayMap::clear(self);
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(K, V)) {
        let keys = mem::take(&mut self.keys);
        let values = mem::take(&mut self.values);
        for (k, v) in keys.into_iter().zip(values) {
            sink(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_round_trip() {
        let mut m = ArrayMap::new();
        for i in 0..50_i64 {
            assert_eq!(m.insert(i, i * 2), None);
        }
        for i in 0..50_i64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.get(&50), None);
        assert_eq!(m.insert(10, 0), Some(20));
    }

    #[test]
    fn remove_swaps_last_in() {
        let mut m = ArrayMap::new();
        for i in 0..5_i64 {
            m.insert(i, i);
        }
        assert_eq!(m.remove(&0), Some(0));
        assert_eq!(m.len(), 4);
        for i in 1..5_i64 {
            assert_eq!(m.get(&i), Some(&i), "key {i} must survive swap-remove");
        }
        assert_eq!(m.remove(&0), None);
    }

    #[test]
    fn smallest_footprint_of_map_variants() {
        use crate::map::{ChainedHashMap, OpenHashMap};
        let mut array = ArrayMap::new();
        let mut chained = ChainedHashMap::new();
        let mut open = OpenHashMap::new();
        for i in 0..10_i64 {
            array.insert(i, i);
            chained.insert(i, i);
            open.insert(i, i);
        }
        assert!(array.heap_bytes() < chained.heap_bytes());
        assert!(array.heap_bytes() < open.heap_bytes());
    }

    #[test]
    fn lazy_allocation() {
        let m: ArrayMap<i64, i64> = ArrayMap::new();
        assert_eq!(m.heap_bytes(), 0);
        assert_eq!(m.allocated_bytes(), 0);
    }

    #[test]
    fn growth_doubles_from_one() {
        let mut m = ArrayMap::new();
        m.insert(0_i64, 0_i64);
        assert_eq!(m.keys.capacity(), 1);
        m.insert(1, 1);
        assert_eq!(m.keys.capacity(), 2);
        m.insert(2, 2);
        assert_eq!(m.keys.capacity(), 4);
    }

    #[test]
    fn drain_into_empties() {
        let mut m: ArrayMap<i64, i64> = (0..5).map(|i| (i, i)).collect();
        let mut got = Vec::new();
        MapOps::drain_into(&mut m, &mut |k, v| got.push((k, v)));
        assert_eq!(got.len(), 5);
        assert!(m.is_empty());
    }

    #[test]
    fn equality_is_order_independent() {
        let a: ArrayMap<i64, i64> = (0..5).map(|i| (i, i)).collect();
        let b: ArrayMap<i64, i64> = (0..5).rev().map(|i| (i, i)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut m: ArrayMap<i64, i64> = (0..20).map(|i| (i, i)).collect();
        let cap = m.keys.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.keys.capacity(), cap);
    }
}
