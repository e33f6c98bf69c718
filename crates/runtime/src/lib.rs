//! # cs-runtime — the concurrent selection runtime
//!
//! `cs-core`'s handles are single-owner: one `SwitchMap` belongs to one
//! thread. This crate scales the same engine to multi-threaded services by
//! adding three layers:
//!
//! 1. **A sharded site registry** — [`Runtime`] keeps its sites in a
//!    lock-striped [`ShardedHashMap`](cs_collections::ShardedHashMap) keyed
//!    by site id, so registering sites and reading their stats never funnels
//!    through one lock.
//! 2. **Shard-local profile buffers** — every op on a concurrent handle is
//!    recorded in the shard it locks, next to the collection and behind the
//!    same mutex, and folded into the site's shared profile only on *epoch
//!    boundaries*: a count or time trigger, an explicit [`Runtime::flush`]
//!    or handle `flush`, or the drop of a handle's last clone. Recording
//!    touches no thread-local state and no cache line the op does not
//!    already own; see the `shard` module docs for the epoch protocol.
//! 3. **Concurrent monitored handles** — [`ConcurrentMap`] /
//!    [`ConcurrentSet`] are `Send + Sync` lock-striped collections whose
//!    shards each hold the engine-selected variant and migrate to a new
//!    variant lazily, under their own lock, when the analyzer switches the
//!    site. Guarded adaptation — post-switch verification, rollback,
//!    quarantine, degraded mode — applies unchanged, because each flushed
//!    buffer reaches the engine as one finished monitored instance, and a
//!    migrating shard keeps the ops it buffered on the old variant out of
//!    the window that verifies the switch.
//!
//! ```
//! use cs_collections::MapKind;
//! use cs_core::Switch;
//! use cs_runtime::Runtime;
//!
//! let runtime = Runtime::new(Switch::builder().build());
//! let map = runtime.concurrent_map::<u64, u64>(MapKind::Chained);
//!
//! let workers: Vec<_> = (0..4)
//!     .map(|t| {
//!         let map = map.clone();
//!         std::thread::spawn(move || {
//!             for i in 0..1_000u64 {
//!                 map.insert(t * 1_000 + i, i);
//!                 map.get(&i);
//!             }
//!         })
//!     })
//!     .collect();
//! for w in workers {
//!     w.join().unwrap();
//! }
//!
//! runtime.flush(); // publish what the shards still buffer
//! runtime.analyze_now(); // guarded adaptation over the flushed profiles
//! let stats = runtime.site_stats(map.id()).unwrap();
//! assert_eq!(stats.total_ops, 8_000);
//! ```

mod map;
mod runtime;
mod set;
mod shard;
mod site;
mod telemetry;

pub use map::ConcurrentMap;
pub use runtime::{Runtime, RuntimeConfig};
pub use set::ConcurrentSet;
pub use site::{SiteShared, SiteStats};
pub use telemetry::site_stats_to_json;

// Concurrency is this crate's contract: every public handle must stay
// shareable across threads. Compile-time proof, kept next to the exports.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Runtime>();
    assert_send_sync::<RuntimeConfig>();
    assert_send_sync::<ConcurrentMap<u64, String>>();
    assert_send_sync::<ConcurrentSet<String>>();
    assert_send_sync::<SiteShared>();
    assert_send_sync::<SiteStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cs_collections::{MapKind, SetKind};
    use cs_core::Switch;
    use cs_profile::OpKind;
    use std::sync::Arc;

    fn runtime() -> Runtime {
        Runtime::new(Switch::builder().build())
    }

    #[test]
    fn concurrent_map_basic_ops() {
        let rt = runtime();
        let map = rt.named_concurrent_map::<u64, String>(MapKind::Chained, "basic");
        assert!(map.is_empty());
        assert_eq!(map.insert(1, "one".into()), None);
        assert_eq!(map.insert(1, "uno".into()).as_deref(), Some("one"));
        assert_eq!(map.get(&1).as_deref(), Some("uno"));
        assert!(map.contains_key(&1));
        assert_eq!(map.read(&1, |v| v.len()), Some(3));
        assert_eq!(map.remove(&1).as_deref(), Some("uno"));
        assert!(!map.contains_key(&1));
        assert_eq!(map.get(&1), None);
    }

    #[test]
    fn concurrent_map_spreads_keys_over_shards() {
        let rt = runtime();
        let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
        for i in 0..1_000 {
            map.insert(i, i * 2);
        }
        assert_eq!(map.len(), 1_000);
        let mut seen = 0u64;
        map.for_each(|k, v| {
            assert_eq!(*v, *k * 2);
            seen += 1;
        });
        assert_eq!(seen, 1_000);
        map.clear();
        assert!(map.is_empty());
    }

    #[test]
    fn concurrent_map_update_read_modify_write() {
        let rt = runtime();
        let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
        assert_eq!(map.update(9, || 0, |v| *v += 5), 5);
        assert_eq!(map.update(9, || 0, |v| *v += 5), 10);
        assert_eq!(map.get(&9), Some(10));
    }

    #[test]
    fn concurrent_set_basic_ops() {
        let rt = runtime();
        let set = rt.named_concurrent_set::<u64>(SetKind::Chained, "basic-set");
        assert!(set.insert(3));
        assert!(!set.insert(3));
        assert!(set.contains(&3));
        assert!(set.remove(&3));
        assert!(!set.remove(&3));
        assert!(set.is_empty());
    }

    /// A runtime whose handles have one shard, so flush counts are exact.
    fn one_shard_runtime(flush_ops: u64) -> Runtime {
        Runtime::with_config(
            Switch::builder().build(),
            RuntimeConfig {
                shards: 1,
                flush_ops,
                ..RuntimeConfig::default()
            },
        )
    }

    #[test]
    fn flushed_ops_reach_site_stats_and_engine() {
        let rt = one_shard_runtime(RuntimeConfig::default().flush_ops);
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "stats");
        for i in 0..50 {
            map.insert(i, i);
        }
        for i in 0..100 {
            map.get(&(i % 50));
        }
        // Nothing shared yet (default flush_ops is 1024).
        assert_eq!(rt.site_stats(map.id()).unwrap().total_ops, 0);
        rt.flush();
        let stats = rt.site_stats(map.id()).unwrap();
        assert_eq!(stats.ops[OpKind::Populate.index()], 50);
        assert_eq!(stats.ops[OpKind::Contains.index()], 100);
        assert_eq!(stats.total_ops, 150);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.name, "stats");
        assert_eq!(rt.engine().health().profiles_ingested, 1);
    }

    #[test]
    fn count_trigger_flushes_without_explicit_call() {
        let rt = one_shard_runtime(64);
        let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
        for i in 0..640 {
            map.insert(i, i);
        }
        let stats = rt.site_stats(map.id()).unwrap();
        assert_eq!(stats.total_ops, 640);
        assert_eq!(stats.flushes, 10);
    }

    #[test]
    fn multithreaded_ops_are_all_accounted() {
        let rt = runtime();
        let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
        const THREADS: u64 = 4;
        const OPS: u64 = 2_500;
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let map = map.clone();
                std::thread::spawn(move || {
                    for i in 0..OPS {
                        map.insert(t * OPS + i, i);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(map.len(), (THREADS * OPS) as usize);
        // Triggers flush a shard at multiples of 64 ops, and 10,000 is
        // none: some shard still buffers a residue after the threads exit.
        assert!(map.stats().total_ops < THREADS * OPS);
        rt.flush();
        let stats = map.stats();
        assert_eq!(stats.total_ops, THREADS * OPS);
        assert_eq!(stats.ops[OpKind::Populate.index()], THREADS * OPS);
    }

    #[test]
    fn runtime_flush_publishes_every_live_site_and_drops_publish_the_rest() {
        let rt = runtime();
        let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
        let set = rt.concurrent_set::<u64>(SetKind::Chained);
        let dropped = rt.concurrent_set::<u64>(SetKind::Chained);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..300 {
                    map.insert(i, i);
                    set.insert(i);
                    dropped.insert(i);
                }
            });
        });
        let dropped_id = dropped.id();
        assert_eq!(rt.sites().iter().map(|s| s.total_ops).sum::<u64>(), 0);
        // The last clone's drop publishes its residue; the registry keeps
        // the site's stats but no longer reaches its shards.
        drop(dropped);
        assert_eq!(rt.site_stats(dropped_id).unwrap().total_ops, 300);
        rt.flush();
        assert_eq!(map.stats().total_ops, 300);
        assert_eq!(set.stats().total_ops, 300);
        assert_eq!(rt.site_stats(dropped_id).unwrap().total_ops, 300);
    }

    #[test]
    fn registry_lists_sites_sorted_by_id() {
        let rt = runtime();
        let a = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "alpha");
        let b = rt.named_concurrent_set::<u64>(SetKind::Chained, "beta");
        let sites = rt.sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].id, a.id());
        assert_eq!(sites[1].id, b.id());
        assert!(rt.site_stats(a.id()).is_some());
        assert!(rt.site_stats(u64::MAX).is_none());
    }

    #[test]
    fn site_manifest_reports_registered_sites() {
        let rt = runtime();
        let named = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "session-cache");
        let anon = rt.concurrent_set::<u64>(SetKind::Chained);
        let manifest = rt.site_manifest();
        assert_eq!(manifest.len(), 2);
        // Sorted by id, mirroring Switch::site_manifest.
        assert_eq!(manifest[0].id, named.id());
        assert_eq!(manifest[0].name, "session-cache");
        assert_eq!(manifest[0].abstraction, cs_collections::Abstraction::Map);
        assert_eq!(manifest[0].default_kind, "chained");
        assert_eq!(manifest[0].current_kind, "chained");
        assert_eq!(manifest[1].id, anon.id());
        // Anonymous sites carry the runtime's auto-minted name.
        assert_eq!(manifest[1].name, "cset-1");
        assert_eq!(manifest[1].abstraction, cs_collections::Abstraction::Set);
    }

    #[test]
    fn handles_are_cheap_shared_clones() {
        let rt = runtime();
        let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
        let clone = map.clone();
        map.insert(1, 10);
        assert_eq!(clone.get(&1), Some(10));
        assert_eq!(clone.id(), map.id());
        let rt2 = rt.clone();
        assert_eq!(rt2.sites().len(), 1);
        drop(rt);
        // The clone still works: registry and engine are shared Arcs.
        let set: ConcurrentSet<u64> = rt2.concurrent_set(SetKind::Chained);
        set.insert(5);
        assert_eq!(rt2.sites().len(), 2);
        let _ = Arc::new(set);
    }
}
