//! The concurrent adaptive map handle.
//!
//! A [`ConcurrentMap`] is the runtime's `Send + Sync` counterpart of
//! [`SwitchMap`](cs_core::SwitchMap): shards of [`AnyMap`] variants behind
//! mutexes, the lock-striping design proven by
//! [`cs_collections::ShardedHashMap`]. Striping is the map's only locking
//! discipline.
//!
//! The analyzer switches the per-shard [`MapKind`] variant exactly as it
//! does for single-owner handles — verification, rollback, and quarantine
//! included — and shards migrate to the new kind lazily, on their next
//! access, under their own lock. The shard protocol, op recording
//! included, lives in the `shard` module, shared with
//! [`ConcurrentSet`](crate::ConcurrentSet).

use std::hash::Hash;
use std::sync::Arc;

use cs_collections::{hash_one, AnyMap, MapKind, MapOps};
use cs_core::ContextCore;
use cs_profile::OpKind;
use parking_lot::Mutex;

use crate::shard::{Shard, Shards};
use crate::site::SiteShared;
use crate::RuntimeConfig;

/// A thread-safe adaptive map bound to one runtime site.
///
/// Cloning is cheap (shared state); clones refer to the same map. All
/// methods take `&self` and may be called from any number of threads.
///
/// Each op is recorded in the shard it locks; ops that find their shard
/// lock held are flagged there, and the flushed profiles carry the count
/// into [`SiteStats::contended`](crate::SiteStats::contended).
///
/// # Examples
///
/// ```
/// use cs_collections::MapKind;
/// use cs_core::Switch;
/// use cs_runtime::Runtime;
///
/// let runtime = Runtime::new(Switch::builder().build());
/// let map = runtime.concurrent_map::<u64, u64>(MapKind::Chained);
/// let threads: Vec<_> = (0..4)
///     .map(|t| {
///         let map = map.clone();
///         std::thread::spawn(move || {
///             for i in 0..100 {
///                 map.insert(t * 100 + i, i);
///             }
///         })
///     })
///     .collect();
/// for t in threads {
///     t.join().unwrap();
/// }
/// assert_eq!(map.len(), 400);
/// assert_eq!(map.get(&105), Some(5));
/// ```
pub struct ConcurrentMap<K: Eq + Hash + Clone, V: Clone> {
    pub(crate) inner: Arc<Shards<AnyMap<K, V>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> Clone for ConcurrentMap<K, V> {
    fn clone(&self) -> Self {
        ConcurrentMap {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> std::fmt::Debug for ConcurrentMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentMap")
            .field("site", &self.inner.site.name())
            .field("shards", &self.inner.shards.len())
            .field("kind", &self.inner.core.current_kind())
            .finish()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> ConcurrentMap<K, V> {
    pub(crate) fn new(
        site: Arc<SiteShared>,
        core: Arc<ContextCore<MapKind>>,
        config: &RuntimeConfig,
    ) -> Self {
        let inner = Arc::new(Shards::new(site, core, config, |kind, clock, now| {
            Mutex::new(Shard::new(AnyMap::new(kind), clock, now))
        }));
        ConcurrentMap { inner }
    }

    /// Inserts or replaces the value for `key`, returning the previous
    /// value (critical op: *populate*).
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let h = hash_one(&key);
        self.inner
            .op(OpKind::Populate, h, |m| m.map_insert(key, value))
    }

    /// Returns a clone of the value for `key` (critical op: *contains*).
    pub fn get(&self, key: &K) -> Option<V> {
        self.inner
            .op(OpKind::Contains, hash_one(key), |m| m.map_get(key).cloned())
    }

    /// Applies `f` to the value for `key` under the shard lock — the
    /// clone-free lookup (critical op: *contains*).
    pub fn read<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.inner
            .op(OpKind::Contains, hash_one(key), |m| m.map_get(key).map(f))
    }

    /// Returns `true` if `key` has an entry (critical op: *contains*).
    pub fn contains_key(&self, key: &K) -> bool {
        self.inner
            .op(OpKind::Contains, hash_one(key), |m| m.contains_key(key))
    }

    /// Removes the entry for `key`, returning its value (critical op:
    /// *middle*).
    pub fn remove(&self, key: &K) -> Option<V> {
        self.inner
            .op(OpKind::Middle, hash_one(key), |m| m.map_remove(key))
    }

    /// Updates the value for `key` in place (inserting `default()` first if
    /// absent), returning a clone of the updated value (critical op:
    /// *populate*). The whole update runs under the shard lock.
    pub fn update(&self, key: K, default: impl FnOnce() -> V, f: impl FnOnce(&mut V)) -> V {
        let h = hash_one(&key);
        self.inner.op(OpKind::Populate, h, |m| {
            // AnyMap has no get_mut (single-owner handles never needed it);
            // read-modify-write under the shard lock is equivalent.
            let mut v = match m.map_get(&key) {
                Some(v) => v.clone(),
                None => default(),
            };
            f(&mut v);
            m.map_insert(key, v.clone());
            v
        })
    }

    /// Visits every entry (critical op: *iterate*). Shards are visited one
    /// at a time, each locked only while it is walked.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        self.inner
            .for_each(|shard| shard.for_each_entry(&mut |k, v| f(k, v)));
    }

    /// Total entries (a point-in-time sum; not recorded as a critical op).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry (not recorded as a critical op).
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// Number of lock-striped shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The variant the site currently instantiates (shards migrate to it
    /// lazily on their next access).
    pub fn current_kind(&self) -> MapKind {
        self.inner.core.current_kind()
    }

    /// Always `0`: the map has a single locking discipline, so it never
    /// migrates between strategies. Kept only because the benchmark reads it.
    pub fn strategy_migrations(&self) -> u64 {
        0
    }

    /// The site's id within its engine.
    pub fn id(&self) -> u64 {
        self.inner.site.id()
    }

    /// The site's allocation-site label.
    pub fn name(&self) -> &str {
        self.inner.site.name()
    }

    /// A snapshot of the site's counters (exact op totals, flushes,
    /// contention, switches, rollbacks).
    pub fn stats(&self) -> crate::SiteStats {
        self.inner.site.stats()
    }

    /// Publishes the ops buffered in every shard of this map, whichever
    /// threads ran them, making them visible to [`ConcurrentMap::stats`]
    /// and the analyzer.
    pub fn flush(&self) {
        self.inner.flush();
    }
}
