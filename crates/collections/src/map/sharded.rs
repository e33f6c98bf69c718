//! Sharded concurrent map — the paper's "concurrent collections" future
//! work, built over the crate's own open-addressing tables.

use std::fmt;
use std::hash::Hash;
use std::sync::Mutex;

use crate::hash::hash_one;
use crate::kind::LibraryProfile;
use crate::map::OpenHashMap;
use crate::traits::HeapSize;

/// A thread-safe map: `N` independently locked shards of
/// [`OpenHashMap`], keyed by the upper hash bits (so shard choice is
/// independent of the table index bits within a shard).
///
/// This is the repository's take on the paper's future-work item "a wider
/// set of candidate collections, including concurrent … collections": a
/// `ConcurrentHashMap`-style member of the library (not a switch candidate —
/// the framework's handles are single-owner by design).
///
/// Owned lookups ([`ShardedHashMap::get`]) return clones (`V: Clone`)
/// because references cannot outlive the shard lock; the closure-based
/// [`ShardedHashMap::read`] borrows the value in place under the lock and
/// works for any `V` — it is what the runtime hot paths use to avoid a
/// clone per lookup.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cs_collections::ShardedHashMap;
///
/// let map = Arc::new(ShardedHashMap::new());
/// let handles: Vec<_> = (0..4)
///     .map(|t| {
///         let map = Arc::clone(&map);
///         std::thread::spawn(move || {
///             for i in 0..100 {
///                 map.insert(t * 100 + i, i);
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(map.len(), 400);
/// assert_eq!(map.get(&105), Some(5));
/// ```
pub struct ShardedHashMap<K, V> {
    shards: Box<[Mutex<OpenHashMap<K, V>>]>,
    mask: u64,
}

const DEFAULT_SHARDS: usize = 16;

impl<K: Eq + Hash, V> ShardedHashMap<K, V> {
    /// Creates a map with the default shard count (16).
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates a map with `shards` independently locked shards (rounded up
    /// to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "a sharded map needs at least one shard");
        let n = shards.next_power_of_two();
        ShardedHashMap {
            shards: (0..n)
                .map(|_| Mutex::new(OpenHashMap::with_profile(LibraryProfile::Koloboke)))
                .collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &K) -> &Mutex<OpenHashMap<K, V>> {
        // Upper bits choose the shard; the table uses the lower bits.
        let idx = ((hash_one(key) >> 48) & self.mask) as usize;
        &self.shards[idx]
    }

    fn lock_shard<'a>(
        &'a self,
        shard: &'a Mutex<OpenHashMap<K, V>>,
    ) -> std::sync::MutexGuard<'a, OpenHashMap<K, V>> {
        // A panicking user closure can poison a shard; the map data itself
        // is never left mid-operation, so poisoned shards stay usable.
        shard.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Inserts or replaces the value for `key`, returning the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let shard = self.shard_of(&key);
        self.lock_shard(shard).insert(key, value)
    }

    /// Applies `f` to the value for `key` under the shard lock, returning
    /// its result — the clone-free lookup. `f` must not call back into the
    /// same map (the shard lock is held while it runs).
    pub fn read<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.lock_shard(self.shard_of(key)).get(key).map(f)
    }

    /// Returns `true` if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.lock_shard(self.shard_of(key)).contains_key(key)
    }

    /// Removes the entry for `key`, returning its value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.lock_shard(self.shard_of(key)).remove(key)
    }

    /// Total entries over all shards (a point-in-time sum; other threads may
    /// be mutating concurrently).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock_shard(s).len()).sum()
    }

    /// Returns `true` if no shard holds entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every entry, shard by shard (each shard locked only while it
    /// is being visited).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in self.shards.iter() {
            let guard = self.lock_shard(shard);
            for (k, v) in guard.iter() {
                f(k, v);
            }
        }
    }

    /// Removes every entry.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            self.lock_shard(shard).clear();
        }
    }
}

impl<K: Eq + Hash, V: Clone> ShardedHashMap<K, V> {
    /// Returns a clone of the value for `key`, if present.
    ///
    /// Hot paths that only need to *look at* the value should prefer
    /// [`ShardedHashMap::read`], which borrows in place instead of cloning.
    pub fn get(&self, key: &K) -> Option<V> {
        self.lock_shard(self.shard_of(key)).get(key).cloned()
    }

    /// Applies `f` to the value for `key` (inserting `default()` first if
    /// absent) and returns a clone of the updated value.
    ///
    /// The whole update runs under the shard lock, so concurrent updates to
    /// the same key never lose increments.
    pub fn update(&self, key: K, default: impl FnOnce() -> V, f: impl FnOnce(&mut V)) -> V
    where
        K: Clone,
    {
        let shard = self.shard_of(&key);
        let mut guard = self.lock_shard(shard);
        if guard.get(&key).is_none() {
            let d = default();
            guard.insert(key.clone(), d);
        }
        let slot = guard.get_mut(&key).expect("present or just inserted");
        f(slot);
        slot.clone()
    }
}

impl<K: Eq + Hash, V> Default for ShardedHashMap<K, V> {
    fn default() -> Self {
        ShardedHashMap::new()
    }
}

impl<K: Eq + Hash + fmt::Debug, V: fmt::Debug> fmt::Debug for ShardedHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        self.for_each(|k, v| {
            map.entry(k, v);
        });
        map.finish()
    }
}

impl<K: Eq + Hash, V> HeapSize for ShardedHashMap<K, V> {
    fn heap_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).heap_bytes())
            .sum()
    }

    fn allocated_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .allocated_bytes()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_threaded_round_trip() {
        let m = ShardedHashMap::new();
        for k in 0..500_i64 {
            assert_eq!(m.insert(k, k * 2), None);
        }
        assert_eq!(m.len(), 500);
        for k in 0..500_i64 {
            assert_eq!(m.get(&k), Some(k * 2));
            assert!(m.contains_key(&k));
        }
        for k in 0..500_i64 {
            assert_eq!(m.remove(&k), Some(k * 2));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn read_borrows_without_cloning() {
        // A value type that is deliberately NOT Clone: only the closure
        // accessor can look at it, which is the point of the API.
        struct NotClone(u64);
        let m: ShardedHashMap<i64, NotClone> = ShardedHashMap::new();
        m.insert(7, NotClone(42));
        assert_eq!(m.read(&7, |v| v.0), Some(42));
        assert_eq!(m.read(&8, |v| v.0), None);
        assert_eq!(m.len(), 1);
        assert!(m.remove(&7).is_some());
    }

    #[test]
    fn read_sees_latest_value() {
        let m = ShardedHashMap::new();
        m.insert(1_i64, 10_i64);
        m.insert(1, 20);
        assert_eq!(m.read(&1, |v| *v), Some(20));
        // get still clones for Clone values.
        assert_eq!(m.get(&1), Some(20));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: ShardedHashMap<i64, i64> = ShardedHashMap::with_shards(5);
        assert_eq!(m.shard_count(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _: ShardedHashMap<i64, i64> = ShardedHashMap::with_shards(0);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let m = Arc::new(ShardedHashMap::new());
        let handles: Vec<_> = (0..8_i64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        m.insert(t * 1000 + i, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 4000);
        assert_eq!(m.get(&3250), Some(250));
    }

    #[test]
    fn concurrent_updates_do_not_lose_increments() {
        let m = Arc::new(ShardedHashMap::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for k in 0..50_i64 {
                        m.update(k, || 0_u64, |v| *v += 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for k in 0..50_i64 {
            assert_eq!(m.get(&k), Some(8), "key {k} lost updates");
        }
    }

    #[test]
    fn for_each_covers_all_shards() {
        let m = ShardedHashMap::with_shards(4);
        for k in 0..100_i64 {
            m.insert(k, ());
        }
        let mut seen = Vec::new();
        m.for_each(|k, _| seen.push(*k));
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn poisoned_shard_recovers() {
        let m = Arc::new(ShardedHashMap::<i64, i64>::with_shards(1));
        m.insert(1, 10);
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            m2.update(1, || 0, |_| panic!("user closure panics"));
        })
        .join();
        // The shard was poisoned mid-update, but the map stays usable.
        assert_eq!(m.get(&1), Some(10));
        m.insert(2, 20);
        assert_eq!(m.get(&2), Some(20));
    }

    #[test]
    fn clear_and_heap_accounting() {
        let m = ShardedHashMap::new();
        for k in 0..200_i64 {
            m.insert(k, k);
        }
        assert!(m.heap_bytes() > 0);
        assert!(m.allocated_bytes() >= m.heap_bytes() as u64);
        m.clear();
        assert!(m.is_empty());
    }
}
