//! The concurrent adaptive set handle — [`ConcurrentMap`](crate::ConcurrentMap)'s
//! sibling over [`AnySet`]/[`SetKind`]. Both run on the `shard` module:
//! lock striping, lazy shard migration, and op recording in the shard each
//! op locks. Only the set ops are defined here.

use std::hash::Hash;
use std::sync::Arc;

use cs_collections::{hash_one, AnySet, SetKind, SetOps};
use cs_core::ContextCore;
use cs_profile::OpKind;
use parking_lot::Mutex;

use crate::shard::{Shard, Shards};
use crate::site::SiteShared;
use crate::RuntimeConfig;

/// A thread-safe adaptive set bound to one runtime site.
///
/// Cloning is cheap (shared state); clones refer to the same set. The
/// engine switches the site's variant under guarded adaptation exactly as
/// for single-owner handles; shards migrate lazily under their own lock.
pub struct ConcurrentSet<T: Eq + Hash + Clone> {
    pub(crate) inner: Arc<Shards<AnySet<T>>>,
}

impl<T: Eq + Hash + Clone> Clone for ConcurrentSet<T> {
    fn clone(&self) -> Self {
        ConcurrentSet {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Eq + Hash + Clone> std::fmt::Debug for ConcurrentSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentSet")
            .field("site", &self.inner.site.name())
            .field("shards", &self.inner.shards.len())
            .field("kind", &self.inner.core.current_kind())
            .finish()
    }
}

impl<T: Eq + Hash + Clone> ConcurrentSet<T> {
    pub(crate) fn new(
        site: Arc<SiteShared>,
        core: Arc<ContextCore<SetKind>>,
        config: &RuntimeConfig,
    ) -> Self {
        let inner = Arc::new(Shards::new(site, core, config, |kind, clock, now| {
            Mutex::new(Shard::new(AnySet::new(kind), clock, now))
        }));
        ConcurrentSet { inner }
    }

    /// Inserts `value`, returning `true` if it was not already present
    /// (critical op: *populate*).
    pub fn insert(&self, value: T) -> bool {
        let h = hash_one(&value);
        self.inner.op(OpKind::Populate, h, |s| s.insert(value))
    }

    /// Returns `true` if `value` is in the set (critical op: *contains*).
    pub fn contains(&self, value: &T) -> bool {
        self.inner
            .op(OpKind::Contains, hash_one(value), |s| s.contains(value))
    }

    /// Removes `value`, returning `true` if it was present (critical op:
    /// *middle*).
    pub fn remove(&self, value: &T) -> bool {
        self.inner
            .op(OpKind::Middle, hash_one(value), |s| s.set_remove(value))
    }

    /// Visits every value, shard by shard (critical op: *iterate*; each
    /// shard is locked only while it is visited).
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        self.inner
            .for_each(|shard| shard.for_each_value(&mut |v| f(v)));
    }

    /// Total values over all shards (not recorded as a critical op).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns `true` if no shard holds values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every value (not recorded as a critical op).
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// Number of lock-striped shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The variant the site currently instantiates.
    pub fn current_kind(&self) -> SetKind {
        self.inner.core.current_kind()
    }

    /// The site's id within its engine.
    pub fn id(&self) -> u64 {
        self.inner.site.id()
    }

    /// The site's allocation-site label.
    pub fn name(&self) -> &str {
        self.inner.site.name()
    }

    /// A snapshot of the site's counters.
    pub fn stats(&self) -> crate::SiteStats {
        self.inner.site.stats()
    }

    /// Publishes the ops buffered in every shard of this set, whichever
    /// threads ran them.
    pub fn flush(&self) {
        self.inner.flush();
    }
}
