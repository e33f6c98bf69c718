//! The runtime front door: engine + sharded site registry + handle factory.

use std::hash::Hash;
use std::sync::{Arc, Weak};
use std::time::Duration;

use cs_collections::{MapKind, SetKind, ShardedHashMap};
use cs_core::Switch;

use crate::map::ConcurrentMap;
use crate::set::ConcurrentSet;
use crate::shard::{Publish, Shards, Variant};
use crate::site::{CoreRef, SiteShared, SiteStats};

/// Tuning knobs for a [`Runtime`] — shard fan-out for the handles it
/// creates, and when their shards flush.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Lock-striped shards per concurrent handle (rounded up to a power of
    /// two). More shards, less contention, more per-handle memory.
    pub shards: usize,
    /// Count trigger: a shard's buffer flushes once it holds this many
    /// ops. One flush is one "finished monitored instance" to the engine,
    /// so this is the runtime's analogue of the monitoring window size.
    pub flush_ops: u64,
    /// Time trigger: a shard's buffer older than this flushes on the next
    /// op that probes the clock (every 64 ops of the shard). Bounds
    /// staleness on quiet shards.
    pub flush_interval: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            shards: 16,
            flush_ops: 1024,
            flush_interval: Duration::from_millis(10),
        }
    }
}

/// One registry row: the site's shared counters, and its handle's shards
/// for [`Runtime::flush`], held weakly so the registry never keeps a
/// dropped handle's shards alive.
struct Site {
    shared: Arc<SiteShared>,
    shards: Weak<dyn Publish>,
}

/// The concurrent selection runtime: wraps a [`Switch`] engine with a
/// sharded site registry and hands out `Send + Sync` monitored collections.
///
/// The engine's guarded adaptation (verification, rollback, quarantine,
/// degraded mode) applies to runtime sites unchanged: every shard buffer
/// flush feeds the site's engine context as one finished monitored
/// instance, and [`Runtime::analyze_now`] (or the engine's background
/// analyzer) drives switches.
///
/// ```
/// use cs_collections::MapKind;
/// use cs_core::Switch;
/// use cs_runtime::Runtime;
///
/// let runtime = Runtime::new(Switch::builder().build());
/// let map = runtime.named_concurrent_map::<u64, String>(MapKind::Chained, "session-cache");
/// map.insert(7, "alpha".to_string());
/// assert_eq!(map.get(&7).as_deref(), Some("alpha"));
///
/// runtime.flush(); // publish the ops buffered in every shard
/// let stats = runtime.site_stats(map.id()).unwrap();
/// assert_eq!(stats.total_ops, 2);
/// ```
#[derive(Clone)]
pub struct Runtime {
    engine: Switch,
    config: RuntimeConfig,
    registry: Arc<ShardedHashMap<u64, Site>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("sites", &self.registry.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Runtime {
    /// Wraps `engine` with the default [`RuntimeConfig`].
    pub fn new(engine: Switch) -> Self {
        Runtime::with_config(engine, RuntimeConfig::default())
    }

    /// Wraps `engine` with an explicit config.
    pub fn with_config(engine: Switch, config: RuntimeConfig) -> Self {
        Runtime {
            engine,
            config,
            registry: Arc::new(ShardedHashMap::new()),
        }
    }

    /// The wrapped engine (for event/transition logs, degraded-mode checks,
    /// or registering single-owner handles alongside concurrent ones).
    pub fn engine(&self) -> &Switch {
        &self.engine
    }

    /// The runtime's configuration.
    pub fn config(&self) -> RuntimeConfig {
        self.config
    }

    /// Registers a site with the shards that record into it.
    fn register<C: Variant + Send + 'static>(
        &self,
        shared: Arc<SiteShared>,
        shards: &Arc<Shards<C>>,
    ) {
        let shards = Arc::downgrade(shards) as Weak<dyn Publish>;
        self.registry.insert(shared.id(), Site { shared, shards });
    }

    /// Creates an anonymous concurrent map site starting at `default`.
    pub fn concurrent_map<K, V>(&self, default: MapKind) -> ConcurrentMap<K, V>
    where
        K: Eq + Hash + Clone + Send + 'static,
        V: Clone + Send + 'static,
    {
        self.named_concurrent_map(default, format!("cmap-{}", self.registry.len()))
    }

    /// Creates a named concurrent map site starting at `default`. The site
    /// registers with the engine (so the analyzer sees it) and with the
    /// runtime's registry (so [`Runtime::site_stats`] and
    /// [`Runtime::flush`] can find it).
    pub fn named_concurrent_map<K, V>(
        &self,
        default: MapKind,
        name: impl Into<String>,
    ) -> ConcurrentMap<K, V>
    where
        K: Eq + Hash + Clone + Send + 'static,
        V: Clone + Send + 'static,
    {
        let name = name.into();
        let ctx = self
            .engine
            .named_map_context::<K, V>(default, name.clone());
        let core = Arc::clone(ctx.core());
        let shared = Arc::new(SiteShared::new(
            ctx.id(),
            name,
            CoreRef::Map(Arc::clone(&core)),
        ));
        let map = ConcurrentMap::new(Arc::clone(&shared), core, &self.config);
        self.register(shared, &map.inner);
        map
    }

    /// Creates an anonymous concurrent set site starting at `default`.
    pub fn concurrent_set<T>(&self, default: SetKind) -> ConcurrentSet<T>
    where
        T: Eq + Hash + Clone + Send + 'static,
    {
        self.named_concurrent_set(default, format!("cset-{}", self.registry.len()))
    }

    /// Creates a named concurrent set site starting at `default`.
    pub fn named_concurrent_set<T>(
        &self,
        default: SetKind,
        name: impl Into<String>,
    ) -> ConcurrentSet<T>
    where
        T: Eq + Hash + Clone + Send + 'static,
    {
        let name = name.into();
        let ctx = self.engine.named_set_context::<T>(default, name.clone());
        let core = Arc::clone(ctx.core());
        let shared = Arc::new(SiteShared::new(
            ctx.id(),
            name,
            CoreRef::Set(Arc::clone(&core)),
        ));
        let set = ConcurrentSet::new(Arc::clone(&shared), core, &self.config);
        self.register(shared, &set.inner);
        set
    }

    /// Runs one guarded analysis round over every engine context, runtime
    /// sites included. [`Runtime::flush`] first if the round should see
    /// the latest ops.
    pub fn analyze_now(&self) {
        self.engine.analyze_now();
    }

    /// Publishes the ops buffered in every shard of every live site,
    /// whichever threads ran them: a synchronous checkpoint before an
    /// assertion, a scrape or a deliberate [`Runtime::analyze_now`].
    /// Shards also publish on their own epoch boundaries and when a
    /// handle's last clone drops.
    pub fn flush(&self) {
        // Collect first: no site is flushed while a registry lock is held.
        let mut live = Vec::with_capacity(self.registry.len());
        self.registry
            .for_each(|_, site| live.extend(site.shards.upgrade()));
        for shards in live {
            shards.flush();
        }
    }

    /// Atomically persists the engine's learned selection state (runtime
    /// sites included — every concurrent handle is an engine context) via
    /// [`Switch::save_state`]. Restore it on the next boot by building the
    /// engine with `Switch::builder().warm_start_from(path)`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the atomic write.
    pub fn save_state(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<cs_state::WriteReport> {
        self.engine.save_state(path)
    }

    /// Subscribes a [`cs_core::StatePersister`] keeping `path` current with
    /// crash-safe snapshots of the engine's learned state; see
    /// [`Switch::persist_state_to`].
    pub fn persist_state_to(
        &self,
        path: impl Into<std::path::PathBuf>,
        policy: cs_core::SnapshotPolicy,
    ) -> Arc<cs_core::StatePersister> {
        self.engine.persist_state_to(path, policy)
    }

    /// Snapshot of one site's counters, by site id. Reads the registry
    /// entry in place ([`ShardedHashMap::read`]) — no clone on this path.
    pub fn site_stats(&self, id: u64) -> Option<SiteStats> {
        self.registry.read(&id, |site| site.shared.stats())
    }

    /// Snapshots of every runtime site, sorted by site id.
    pub fn sites(&self) -> Vec<SiteStats> {
        let mut out = Vec::with_capacity(self.registry.len());
        self.registry
            .for_each(|_, site| out.push(site.shared.stats()));
        out.sort_by_key(|s| s.id);
        out
    }

    /// The runtime's *site manifest*: identity rows for every registered
    /// concurrent site, sorted by site id — the concurrent analogue of
    /// [`Switch::site_manifest`]. `cs-analyzer`'s drift check matches these
    /// rows against the allocation sites it extracts from source.
    ///
    /// Note the engine's own manifest already includes runtime sites (each
    /// concurrent handle registers an engine context); this accessor exists
    /// for hosts that run the runtime registry without engine access.
    pub fn site_manifest(&self) -> Vec<cs_core::SiteManifestEntry> {
        let mut out = Vec::with_capacity(self.registry.len());
        self.registry
            .for_each(|_, site| out.push(site.shared.manifest_entry()));
        out.sort_by_key(|e| e.id);
        out
    }
}
