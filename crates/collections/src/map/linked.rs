//! Insertion-ordered chained hash map mirroring JDK `LinkedHashMap`.

use std::fmt;
use std::hash::Hash;
use std::mem;

use crate::hash::hash_one;
use crate::traits::{HeapSize, MapOps};

const NIL: usize = usize::MAX;
const DEFAULT_BUCKETS: usize = 16;
const MAX_LOAD_FACTOR: f64 = 0.75;

#[derive(Debug, Clone)]
struct Entry<K, V> {
    hash: u64,
    key: K,
    value: V,
    /// Next entry in the same bucket chain.
    next: usize,
    /// Previous entry in insertion order.
    before: usize,
    /// Next entry in insertion order.
    after: usize,
}

#[derive(Debug, Clone)]
enum EntrySlot<K, V> {
    Occupied(Entry<K, V>),
    Free { next_free: usize },
}

/// A chained hash map that additionally threads every entry on an
/// insertion-order doubly-linked list — the reproduction of JDK
/// `LinkedHashMap`.
///
/// Lookups cost the same as [`ChainedHashMap`](crate::ChainedHashMap);
/// iteration follows insertion order; each entry pays two extra link words,
/// making this the heaviest hash variant — exactly its role in the paper's
/// performance models.
///
/// # Examples
///
/// ```
/// use cs_collections::LinkedHashMap;
///
/// let mut m = LinkedHashMap::new();
/// m.insert("b", 2);
/// m.insert("a", 1);
/// let keys: Vec<&str> = m.iter().map(|(k, _)| *k).collect();
/// assert_eq!(keys, ["b", "a"]); // insertion order, not hash order
/// ```
pub struct LinkedHashMap<K, V> {
    buckets: Box<[usize]>,
    entries: Vec<EntrySlot<K, V>>,
    free_head: usize,
    order_head: usize,
    order_tail: usize,
    len: usize,
    allocated: u64,
}

impl<K: Eq + Hash, V> LinkedHashMap<K, V> {
    /// Creates an empty map without allocating.
    pub fn new() -> Self {
        LinkedHashMap {
            buckets: Box::new([]),
            entries: Vec::new(),
            free_head: NIL,
            order_head: NIL,
            order_tail: NIL,
            len: 0,
            allocated: 0,
        }
    }

    /// Number of entries in the map.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn rebuild_buckets(&mut self, count: usize) {
        debug_assert!(count.is_power_of_two());
        self.buckets = (0..count).map(|_| NIL).collect();
        self.allocated += (count * mem::size_of::<usize>()) as u64;
        let mask = count - 1;
        for i in 0..self.entries.len() {
            if let EntrySlot::Occupied(e) = &mut self.entries[i] {
                let b = (e.hash as usize) & mask;
                e.next = self.buckets[b];
                self.buckets[b] = i;
            }
        }
    }

    fn maybe_grow(&mut self) {
        if self.buckets.is_empty() {
            self.rebuild_buckets(DEFAULT_BUCKETS);
        } else if (self.len + 1) as f64 > self.buckets.len() as f64 * MAX_LOAD_FACTOR {
            self.rebuild_buckets(self.buckets.len() * 2);
        }
    }

    fn find(&self, key: &K, hash: u64) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mut idx = self.buckets[(hash as usize) & (self.buckets.len() - 1)];
        while idx != NIL {
            match &self.entries[idx] {
                EntrySlot::Occupied(e) => {
                    if e.hash == hash && e.key == *key {
                        return Some(idx);
                    }
                    idx = e.next;
                }
                EntrySlot::Free { .. } => unreachable!("chain points at free slot"),
            }
        }
        None
    }

    fn entry(&self, idx: usize) -> &Entry<K, V> {
        match &self.entries[idx] {
            EntrySlot::Occupied(e) => e,
            EntrySlot::Free { .. } => unreachable!(),
        }
    }

    fn entry_mut(&mut self, idx: usize) -> &mut Entry<K, V> {
        match &mut self.entries[idx] {
            EntrySlot::Occupied(e) => e,
            EntrySlot::Free { .. } => unreachable!(),
        }
    }

    /// Inserts or replaces the value for `key`, returning the previous value.
    /// Replacement keeps the original insertion-order position, as in JDK
    /// `LinkedHashMap`.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = hash_one(&key);
        if let Some(idx) = self.find(&key, hash) {
            return Some(mem::replace(&mut self.entry_mut(idx).value, value));
        }
        self.maybe_grow();
        let b = (hash as usize) & (self.buckets.len() - 1);
        let entry = Entry {
            hash,
            key,
            value,
            next: self.buckets[b],
            before: self.order_tail,
            after: NIL,
        };
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            match self.entries[idx] {
                EntrySlot::Free { next_free } => self.free_head = next_free,
                EntrySlot::Occupied(_) => unreachable!(),
            }
            self.entries[idx] = EntrySlot::Occupied(entry);
            idx
        } else {
            let old_cap = self.entries.capacity();
            self.entries.push(EntrySlot::Occupied(entry));
            let new_cap = self.entries.capacity();
            if new_cap != old_cap {
                self.allocated += ((new_cap - old_cap) * mem::size_of::<EntrySlot<K, V>>()) as u64;
            }
            self.entries.len() - 1
        };
        self.buckets[b] = idx;
        if self.order_tail != NIL {
            self.entry_mut(self.order_tail).after = idx;
        } else {
            self.order_head = idx;
        }
        self.order_tail = idx;
        self.len += 1;
        None
    }

    /// Returns a reference to the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key, hash_one(key))
            .map(|idx| &self.entry(idx).value)
    }

    /// Returns `true` if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key, hash_one(key)).is_some()
    }

    /// Removes the entry for `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let hash = hash_one(key);
        if self.buckets.is_empty() {
            return None;
        }
        let b = (hash as usize) & (self.buckets.len() - 1);
        let mut idx = self.buckets[b];
        let mut prev = NIL;
        while idx != NIL {
            let (matches, next) = {
                let e = self.entry(idx);
                (e.hash == hash && e.key == *key, e.next)
            };
            if matches {
                // Unlink from the bucket chain.
                if prev == NIL {
                    self.buckets[b] = next;
                } else {
                    self.entry_mut(prev).next = next;
                }
                // Unlink from the insertion-order list.
                let (before, after) = {
                    let e = self.entry(idx);
                    (e.before, e.after)
                };
                if before == NIL {
                    self.order_head = after;
                } else {
                    self.entry_mut(before).after = after;
                }
                if after == NIL {
                    self.order_tail = before;
                } else {
                    self.entry_mut(after).before = before;
                }
                let slot = mem::replace(
                    &mut self.entries[idx],
                    EntrySlot::Free {
                        next_free: self.free_head,
                    },
                );
                self.free_head = idx;
                self.len -= 1;
                match slot {
                    EntrySlot::Occupied(e) => return Some(e.value),
                    EntrySlot::Free { .. } => unreachable!(),
                }
            }
            prev = idx;
            idx = next;
        }
        None
    }

    /// Returns an iterator over the entries in insertion order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            map: self,
            cursor: self.order_head,
            remaining: self.len,
        }
    }

    /// Removes every entry, keeping allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.free_head = NIL;
        self.order_head = NIL;
        self.order_tail = NIL;
        for b in self.buckets.iter_mut() {
            *b = NIL;
        }
        self.len = 0;
    }
}

impl<K: Eq + Hash, V> Default for LinkedHashMap<K, V> {
    fn default() -> Self {
        LinkedHashMap::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Clone for LinkedHashMap<K, V> {
    fn clone(&self) -> Self {
        let mut out = LinkedHashMap::new();
        for (k, v) in self.iter() {
            out.insert(k.clone(), v.clone());
        }
        out
    }
}

impl<K: fmt::Debug + Eq + Hash, V: fmt::Debug> fmt::Debug for LinkedHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Eq + Hash, V: PartialEq> PartialEq for LinkedHashMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Eq + Hash, V: Eq> Eq for LinkedHashMap<K, V> {}

impl<K: Eq + Hash, V> FromIterator<(K, V)> for LinkedHashMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = LinkedHashMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Eq + Hash, V> Extend<(K, V)> for LinkedHashMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// Borrowing iterator over a [`LinkedHashMap`], in insertion order.
pub struct Iter<'a, K, V> {
    map: &'a LinkedHashMap<K, V>,
    cursor: usize,
    remaining: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        if self.cursor == NIL {
            return None;
        }
        match &self.map.entries[self.cursor] {
            EntrySlot::Occupied(e) => {
                self.cursor = e.after;
                self.remaining -= 1;
                Some((&e.key, &e.value))
            }
            EntrySlot::Free { .. } => unreachable!("order list walked into free slot"),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

impl<K, V> fmt::Debug for Iter<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Iter")
            .field("remaining", &self.remaining)
            .finish()
    }
}

impl<'a, K: Eq + Hash, V> IntoIterator for &'a LinkedHashMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<K, V> HeapSize for LinkedHashMap<K, V> {
    fn heap_bytes(&self) -> usize {
        self.buckets.len() * mem::size_of::<usize>()
            + self.entries.capacity() * mem::size_of::<EntrySlot<K, V>>()
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

impl<K: Eq + Hash + Clone, V> MapOps<K, V> for LinkedHashMap<K, V> {
    fn len(&self) -> usize {
        self.len
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
        LinkedHashMap::contains_key(self, key)
    }
    fn for_each_entry(&self, f: &mut dyn FnMut(&K, &V)) {
        for (k, v) in self.iter() {
            f(k, v);
        }
    }
    fn clear(&mut self) {
        LinkedHashMap::clear(self);
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(K, V)) {
        // Yield in insertion order by repeatedly removing the head.
        while self.order_head != NIL {
            let key_idx = self.order_head;
            // Keys are not Clone-bound here, so unlink manually: read the key
            // by swapping the slot out after chain surgery via remove().
            let (k, v) = {
                let e = self.entry(key_idx);
                // hash lets us locate and unlink through the bucket path.
                let hash = e.hash;
                let b = (hash as usize) & (self.buckets.len() - 1);
                let mut idx = self.buckets[b];
                let mut prev = NIL;
                while idx != key_idx {
                    prev = idx;
                    idx = self.entry(idx).next;
                }
                let next = self.entry(idx).next;
                if prev == NIL {
                    self.buckets[b] = next;
                } else {
                    self.entry_mut(prev).next = next;
                }
                let after = self.entry(idx).after;
                self.order_head = after;
                if after == NIL {
                    self.order_tail = NIL;
                } else {
                    self.entry_mut(after).before = NIL;
                }
                let slot = mem::replace(
                    &mut self.entries[idx],
                    EntrySlot::Free {
                        next_free: self.free_head,
                    },
                );
                self.free_head = idx;
                self.len -= 1;
                match slot {
                    EntrySlot::Occupied(e) => (e.key, e.value),
                    EntrySlot::Free { .. } => unreachable!(),
                }
            };
            sink(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_insertion_order() {
        let mut m = LinkedHashMap::new();
        for i in [5_i64, 1, 9, 3, 7] {
            m.insert(i, i * 10);
        }
        let keys: Vec<i64> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![5, 1, 9, 3, 7]);
    }

    #[test]
    fn replacement_keeps_order_position() {
        let mut m = LinkedHashMap::new();
        m.insert("a", 1);
        m.insert("b", 2);
        m.insert("a", 3);
        let pairs: Vec<(&str, i32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, vec![("a", 3), ("b", 2)]);
    }

    #[test]
    fn remove_relinks_order() {
        let mut m = LinkedHashMap::new();
        for i in 0..5_i64 {
            m.insert(i, i);
        }
        m.remove(&0); // head
        m.remove(&4); // tail
        m.remove(&2); // middle
        let keys: Vec<i64> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3]);
        m.insert(9, 9);
        let keys: Vec<i64> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 9]);
    }

    #[test]
    fn order_survives_bucket_growth() {
        let mut m = LinkedHashMap::new();
        for i in 0..100_i64 {
            m.insert(i, i);
        }
        let keys: Vec<i64> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn heaviest_hash_variant() {
        use crate::map::ChainedHashMap;
        let mut linked = LinkedHashMap::new();
        let mut chained = ChainedHashMap::new();
        for i in 0..1000_i64 {
            linked.insert(i, i);
            chained.insert(i, i);
        }
        assert!(linked.heap_bytes() >= chained.heap_bytes());
    }

    #[test]
    fn drain_into_yields_insertion_order() {
        let mut m = LinkedHashMap::new();
        for i in [3_i64, 1, 4, 1, 5] {
            m.insert(i, i);
        }
        let mut got = Vec::new();
        MapOps::drain_into(&mut m, &mut |k, _| got.push(k));
        assert_eq!(got, vec![3, 1, 4, 5]);
        assert!(m.is_empty());
        m.insert(2, 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_everything_then_reinsert() {
        let mut m = LinkedHashMap::new();
        for i in 0..30_i64 {
            m.insert(i, i);
        }
        for i in 0..30_i64 {
            assert_eq!(m.remove(&i), Some(i));
        }
        assert!(m.is_empty());
        for i in 0..30_i64 {
            m.insert(i, -i);
        }
        let keys: Vec<i64> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn get_and_contains() {
        let mut m = LinkedHashMap::new();
        m.insert(1, "x");
        assert_eq!(m.get(&1), Some(&"x"));
        assert!(m.contains_key(&1));
        assert!(!m.contains_key(&2));
    }
}
