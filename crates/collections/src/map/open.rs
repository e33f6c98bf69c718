//! Open-addressing hash map with library tuning profiles.

use std::fmt;
use std::hash::Hash;
use std::mem;

use crate::hash::hash_one;
use crate::kind::LibraryProfile;
use crate::traits::{HeapSize, MapOps};

#[derive(Debug, Clone)]
enum Slot<K, V> {
    Empty,
    Tombstone,
    Occupied(K, V),
}

impl<K, V> Slot<K, V> {
    fn is_occupied(&self) -> bool {
        matches!(self, Slot::Occupied(..))
    }
}

/// An open-addressing (linear probing) hash map.
///
/// Reproduces the third-party Java open-hash maps from the paper's Table 2
/// (Koloboke, Eclipse Collections, fastutil). The [`LibraryProfile`] chooses
/// the load factor and initial capacity, reproducing each library's
/// time/memory trade-off: `Koloboke` keeps the table half empty (fast probes,
/// more memory), `FastUtil` packs it to 90% (slow probes near capacity,
/// least memory).
///
/// Keys resolve collisions by shifting to the next slot — the paper's
/// *openhash* transition type. Deletions leave tombstones that are reclaimed
/// on growth.
///
/// # Examples
///
/// ```
/// use cs_collections::{LibraryProfile, OpenHashMap};
///
/// let mut m = OpenHashMap::with_profile(LibraryProfile::FastUtil);
/// m.insert("k", 1);
/// assert_eq!(m.get(&"k"), Some(&1));
/// assert_eq!(m.remove(&"k"), Some(1));
/// assert!(m.is_empty());
/// ```
pub struct OpenHashMap<K, V> {
    table: Box<[Slot<K, V>]>,
    len: usize,
    tombstones: usize,
    profile: LibraryProfile,
    allocated: u64,
}

impl<K: Eq + Hash, V> OpenHashMap<K, V> {
    /// Creates an empty map with the [`LibraryProfile::Koloboke`] profile.
    pub fn new() -> Self {
        Self::with_profile(LibraryProfile::Koloboke)
    }

    /// Creates an empty map with the given tuning profile.
    pub fn with_profile(profile: LibraryProfile) -> Self {
        OpenHashMap {
            table: Box::new([]),
            len: 0,
            tombstones: 0,
            profile,
            allocated: 0,
        }
    }

    /// Creates an empty map sized for `capacity` entries under `profile`.
    pub fn with_capacity_and_profile(capacity: usize, profile: LibraryProfile) -> Self {
        let mut map = Self::with_profile(profile);
        if capacity > 0 {
            map.grow_to(map.slots_for(capacity));
        }
        map
    }

    /// The tuning profile this map was created with.
    #[inline]
    pub fn profile(&self) -> LibraryProfile {
        self.profile
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

    /// Current table capacity in slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.table.len()
    }

    /// Smallest power-of-two slot count that holds `entries` under the
    /// profile's load factor.
    fn slots_for(&self, entries: usize) -> usize {
        let lf = self.profile.max_load_factor();
        let min = ((entries as f64 / lf).ceil() as usize).max(self.profile.min_capacity());
        min.next_power_of_two()
    }

    fn grow_to(&mut self, new_slots: usize) {
        debug_assert!(new_slots.is_power_of_two());
        debug_assert!(new_slots >= self.len);
        let old = mem::replace(
            &mut self.table,
            (0..new_slots).map(|_| Slot::Empty).collect(),
        );
        self.allocated += (new_slots * mem::size_of::<Slot<K, V>>()) as u64;
        self.tombstones = 0;
        let mask = new_slots - 1;
        for slot in old.into_vec() {
            if let Slot::Occupied(k, v) = slot {
                let mut idx = (hash_one(&k) as usize) & mask;
                loop {
                    if !self.table[idx].is_occupied() {
                        self.table[idx] = Slot::Occupied(k, v);
                        break;
                    }
                    idx = (idx + 1) & mask;
                }
            }
        }
    }

    fn should_grow(&self) -> bool {
        if self.table.is_empty() {
            return true;
        }
        let used = self.len + self.tombstones + 1;
        (used as f64) > (self.table.len() as f64) * self.profile.max_load_factor()
    }

    /// Probes for `key`. Returns `Ok(slot)` if found, `Err(insert_slot)` with
    /// the best insertion position (first tombstone on the probe path, else
    /// the terminating empty slot) if absent.
    fn probe(&self, key: &K) -> Result<usize, usize> {
        debug_assert!(!self.table.is_empty());
        let mask = self.table.len() - 1;
        let mut idx = (hash_one(key) as usize) & mask;
        let mut first_tombstone = None;
        loop {
            match &self.table[idx] {
                Slot::Empty => return Err(first_tombstone.unwrap_or(idx)),
                Slot::Tombstone => {
                    if first_tombstone.is_none() {
                        first_tombstone = Some(idx);
                    }
                }
                Slot::Occupied(k, _) => {
                    if k == key {
                        return Ok(idx);
                    }
                }
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Inserts or replaces the value for `key`, returning the previous value.
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_collections::OpenHashMap;
    ///
    /// let mut m = OpenHashMap::new();
    /// assert_eq!(m.insert(1, "one"), None);
    /// assert_eq!(m.insert(1, "uno"), Some("one"));
    /// ```
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.should_grow() {
            let target = self.slots_for(self.len + 1).max(self.table.len() * 2);
            self.grow_to(target.max(self.profile.min_capacity().next_power_of_two()));
        }
        match self.probe(&key) {
            Ok(idx) => match &mut self.table[idx] {
                Slot::Occupied(_, v) => Some(mem::replace(v, value)),
                _ => unreachable!(),
            },
            Err(idx) => {
                if matches!(self.table[idx], Slot::Tombstone) {
                    self.tombstones -= 1;
                }
                self.table[idx] = Slot::Occupied(key, value);
                self.len += 1;
                None
            }
        }
    }

    /// Returns a reference to the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        if self.table.is_empty() {
            return None;
        }
        match self.probe(key) {
            Ok(idx) => match &self.table[idx] {
                Slot::Occupied(_, v) => Some(v),
                _ => unreachable!(),
            },
            Err(_) => None,
        }
    }

    /// Returns a mutable reference to the value for `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if self.table.is_empty() {
            return None;
        }
        match self.probe(key) {
            Ok(idx) => match &mut self.table[idx] {
                Slot::Occupied(_, v) => Some(v),
                _ => unreachable!(),
            },
            Err(_) => None,
        }
    }

    /// Returns `true` if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Removes the entry for `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if self.table.is_empty() {
            return None;
        }
        match self.probe(key) {
            Ok(idx) => {
                let slot = mem::replace(&mut self.table[idx], Slot::Tombstone);
                self.len -= 1;
                self.tombstones += 1;
                match slot {
                    Slot::Occupied(_, v) => Some(v),
                    _ => unreachable!(),
                }
            }
            Err(_) => None,
        }
    }

    /// Returns an iterator over the entries in table order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            slots: self.table.iter(),
            remaining: self.len,
        }
    }

    /// Removes every entry, keeping the table allocation.
    pub fn clear(&mut self) {
        for slot in self.table.iter_mut() {
            *slot = Slot::Empty;
        }
        self.len = 0;
        self.tombstones = 0;
    }
}

impl<K: Eq + Hash, V> Default for OpenHashMap<K, V> {
    fn default() -> Self {
        OpenHashMap::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Clone for OpenHashMap<K, V> {
    fn clone(&self) -> Self {
        let mut out = OpenHashMap::with_capacity_and_profile(self.len, self.profile);
        for (k, v) in self.iter() {
            out.insert(k.clone(), v.clone());
        }
        out
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for OpenHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.table.iter().filter_map(|s| match s {
            Slot::Occupied(k, v) => Some((k, v)),
            _ => None,
        });
        f.debug_map().entries(entries).finish()
    }
}

impl<K: Eq + Hash, V: PartialEq> PartialEq for OpenHashMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Eq + Hash, V: Eq> Eq for OpenHashMap<K, V> {}

impl<K: Eq + Hash, V> FromIterator<(K, V)> for OpenHashMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = OpenHashMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Eq + Hash, V> Extend<(K, V)> for OpenHashMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// Borrowing iterator over an [`OpenHashMap`].
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    slots: std::slice::Iter<'a, Slot<K, V>>,
    remaining: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        for slot in self.slots.by_ref() {
            if let Slot::Occupied(k, v) = slot {
                self.remaining -= 1;
                return Some((k, v));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

impl<'a, K: Eq + Hash, V> IntoIterator for &'a OpenHashMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<K, V> HeapSize for OpenHashMap<K, V> {
    fn heap_bytes(&self) -> usize {
        self.table.len() * mem::size_of::<Slot<K, V>>()
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

impl<K: Eq + Hash + Clone, V> MapOps<K, V> for OpenHashMap<K, V> {
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
        OpenHashMap::contains_key(self, key)
    }
    fn for_each_entry(&self, f: &mut dyn FnMut(&K, &V)) {
        for (k, v) in self.iter() {
            f(k, v);
        }
    }
    fn clear(&mut self) {
        OpenHashMap::clear(self);
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(K, V)) {
        let table = mem::take(&mut self.table);
        self.len = 0;
        self.tombstones = 0;
        for slot in table.into_vec() {
            if let Slot::Occupied(k, v) = slot {
                sink(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as StdMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = OpenHashMap::new();
        for i in 0..1000_i64 {
            assert_eq!(m.insert(i, i * 2), None);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000_i64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        for i in 0..1000_i64 {
            assert_eq!(m.remove(&i), Some(i * 2));
            assert_eq!(m.remove(&i), None);
        }
        assert!(m.is_empty());
    }

    #[test]
    fn replace_returns_old_value() {
        let mut m = OpenHashMap::new();
        m.insert("k", 1);
        assert_eq!(m.insert("k", 2), Some(1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tombstones_are_reused_on_insert() {
        let mut m = OpenHashMap::new();
        for i in 0..100_i64 {
            m.insert(i, i);
        }
        let cap = m.capacity();
        for i in 0..50_i64 {
            m.remove(&i);
        }
        for i in 0..50_i64 {
            m.insert(i, i);
        }
        assert_eq!(m.capacity(), cap, "reinserting removed keys must not grow");
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn lookup_after_collision_chain_with_tombstone() {
        // Force all keys into a tiny table so probe chains cross tombstones.
        let mut m = OpenHashMap::with_profile(LibraryProfile::FastUtil);
        for i in 0..8_i64 {
            m.insert(i, i);
        }
        m.remove(&3);
        for i in 0..8_i64 {
            if i != 3 {
                assert_eq!(m.get(&i), Some(&i), "key {i} lost after tombstone");
            }
        }
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn profiles_affect_footprint_ordering() {
        let mut koloboke = OpenHashMap::with_profile(LibraryProfile::Koloboke);
        let mut fastutil = OpenHashMap::with_profile(LibraryProfile::FastUtil);
        for i in 0..1000_i64 {
            koloboke.insert(i, i);
            fastutil.insert(i, i);
        }
        assert!(
            fastutil.heap_bytes() <= koloboke.heap_bytes(),
            "fastutil ({}) must be at most koloboke ({})",
            fastutil.heap_bytes(),
            koloboke.heap_bytes()
        );
    }

    #[test]
    fn load_factor_is_respected() {
        for profile in LibraryProfile::ALL {
            let mut m = OpenHashMap::with_profile(profile);
            for i in 0..10_000_i64 {
                m.insert(i, ());
            }
            let load = m.len() as f64 / m.capacity() as f64;
            assert!(
                load <= profile.max_load_factor() + 1e-9,
                "{profile}: load {load} exceeds {}",
                profile.max_load_factor()
            );
        }
    }

    #[test]
    fn matches_std_hashmap_on_mixed_ops() {
        let mut ours = OpenHashMap::new();
        let mut std = StdMap::new();
        // Deterministic pseudo-random op mix.
        let mut x = 0x12345678_u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as i64 % 500;
            match x % 3 {
                0 => {
                    assert_eq!(ours.insert(key, x), std.insert(key, x));
                }
                1 => {
                    assert_eq!(ours.remove(&key), std.remove(&key));
                }
                _ => {
                    assert_eq!(ours.get(&key), std.get(&key));
                }
            }
            assert_eq!(ours.len(), std.len());
        }
    }

    #[test]
    fn iter_visits_each_entry_once() {
        let mut m = OpenHashMap::new();
        for i in 0..100_i64 {
            m.insert(i, i);
        }
        let mut seen: Vec<i64> = m.iter().map(|(k, _)| *k).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert_eq!(m.iter().len(), 100);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m = OpenHashMap::new();
        for i in 0..100_i64 {
            m.insert(i, i);
        }
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
        assert_eq!(m.get(&1), None);
        m.insert(1, 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn drain_into_yields_all_and_empties() {
        let mut m = OpenHashMap::new();
        for i in 0..50_i64 {
            m.insert(i, i + 1);
        }
        let mut got = Vec::new();
        MapOps::drain_into(&mut m, &mut |k, v| got.push((k, v)));
        got.sort_unstable();
        assert_eq!(got.len(), 50);
        assert_eq!(got[0], (0, 1));
        assert!(m.is_empty());
        assert_eq!(m.capacity(), 0);
    }

    #[test]
    fn equality_ignores_table_layout() {
        let mut a = OpenHashMap::with_profile(LibraryProfile::Koloboke);
        let mut b = OpenHashMap::with_profile(LibraryProfile::FastUtil);
        for i in 0..20_i64 {
            a.insert(i, i);
        }
        for i in (0..20_i64).rev() {
            b.insert(i, i);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn allocated_bytes_grow_monotonically() {
        let mut m = OpenHashMap::new();
        let mut last = 0;
        for i in 0..10_000_i64 {
            m.insert(i, i);
            assert!(m.allocated_bytes() >= last);
            last = m.allocated_bytes();
        }
        assert!(m.allocated_bytes() >= m.heap_bytes() as u64);
    }
}
