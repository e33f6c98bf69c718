//! Differential test through live switches: random op sequences drive a
//! [`ConcurrentMap`], a [`ConcurrentSet`] and `std::collections` oracles
//! while the engine switches the sites' variants under them.
//!
//! Inverted cost models claim the array variants are a hundred times
//! cheaper than the chained defaults, so every analysis round the script
//! places at a random point switches a site (shards migrate lazily on their
//! next op), verifies a pending switch against measured wall time (usually
//! rolling it back: array scans over a grown shard are far slower), or
//! switches again once the quarantine ends. Whatever the engine decides,
//! the handles must match the oracles after every step, and the sites'
//! exact totals must equal the ops issued.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cs_collections::{MapKind, SetKind};
use cs_core::{GuardrailConfig, Models, SelectionRule, Switch};
use cs_profile::{OpKind, WindowConfig};
use cs_runtime::{Runtime, RuntimeConfig};
use proptest::prelude::*;

/// Shards flush on count (or explicitly) only.
fn runtime(
    guardrails: GuardrailConfig,
    history_decay: f64,
    shards: usize,
    flush_ops: u64,
) -> Runtime {
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models(Models {
            map: common::inverted_model(MapKind::Array, MapKind::Chained),
            set: common::inverted_model(SetKind::Array, SetKind::Chained),
            ..Default::default()
        })
        .guardrails(guardrails)
        .window(WindowConfig {
            window_size: 8,
            finished_ratio: 0.5,
            min_samples: 1,
            history_decay,
            ..WindowConfig::default()
        })
        .build();
    let config = RuntimeConfig {
        shards,
        flush_ops,
        flush_interval: Duration::from_secs(3600),
    };
    Runtime::with_config(engine, config)
}

/// One script step: an op code and a key. Codes 0–3 and 4–6 are map and
/// set ops, 7 inserts 64 consecutive keys into both (so shards grow large
/// enough for array scans to measure slow), 8 publishes every shard and
/// runs one analysis round.
fn step() -> impl Strategy<Value = (u8, u64)> {
    prop_oneof![
        12 => (0u8..4, 0u64..512),
        8 => (4u8..7, 0u64..512),
        1 => (0u64..448).prop_map(|k| (7, k)),
        2 => Just((8, 0)),
    ]
}

#[test]
fn concurrent_handles_match_std_oracles_through_live_switches() {
    let (switches, rollbacks) = (AtomicU64::new(0), AtomicU64::new(0));
    proptest::run_cases("concurrent_handles_match_std_oracles", |rng| {
        // A rolled-back site may switch again within one script.
        let rt = runtime(GuardrailConfig::default().quarantine_base(2), 0.5, 4, 16);
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "oracle/map");
        let set = rt.named_concurrent_set::<u64>(SetKind::Chained, "oracle/set");
        let (mut map_oracle, mut set_oracle) = (BTreeMap::new(), BTreeSet::new());
        // Ops issued per kind, indexed like `OpKind::index`.
        let (mut map_ops, mut set_ops) = ([0u64; 4], [0u64; 4]);
        let [populate, contains, iterate, middle] = [
            OpKind::Populate,
            OpKind::Contains,
            OpKind::Iterate,
            OpKind::Middle,
        ]
        .map(OpKind::index);

        for (code, k) in collection::vec(step(), 1..160).gen(rng) {
            match code {
                0 => assert_eq!(map.insert(k, !k), map_oracle.insert(k, !k)),
                1 => assert_eq!(map.get(&k), map_oracle.get(&k).copied()),
                2 => assert_eq!(map.remove(&k), map_oracle.remove(&k)),
                3 => {
                    let want = map_oracle.get(&k).map_or(1, |v| v + 1);
                    map_oracle.insert(k, want);
                    assert_eq!(map.update(k, || 0, |v| *v += 1), want);
                }
                4 => assert_eq!(set.insert(k), set_oracle.insert(k)),
                5 => assert_eq!(set.contains(&k), set_oracle.contains(&k)),
                6 => assert_eq!(set.remove(&k), set_oracle.remove(&k)),
                7 => {
                    for k in k..k + 64 {
                        assert_eq!(map.insert(k, !k), map_oracle.insert(k, !k));
                        assert_eq!(set.insert(k), set_oracle.insert(k));
                    }
                    map_ops[populate] += 64;
                    set_ops[populate] += 64;
                }
                _ => {
                    rt.flush();
                    rt.analyze_now();
                }
            }
            match code {
                0 | 3 => map_ops[populate] += 1,
                1 => map_ops[contains] += 1,
                2 => map_ops[middle] += 1,
                4 => set_ops[populate] += 1,
                5 => set_ops[contains] += 1,
                6 => set_ops[middle] += 1,
                _ => {}
            }
            // Full contents after every step: one iterate op per shard.
            let mut entries = BTreeMap::new();
            map.for_each(|k, v| assert!(entries.insert(*k, *v).is_none(), "{k} twice"));
            assert_eq!(entries, map_oracle, "map on {:?}", map.current_kind());
            let mut values = BTreeSet::new();
            set.for_each(|v| assert!(values.insert(*v), "{v} twice"));
            assert_eq!(values, set_oracle, "set on {:?}", set.current_kind());
            map_ops[iterate] += map.shard_count() as u64;
            set_ops[iterate] += set.shard_count() as u64;
        }

        rt.flush();
        for (stats, issued) in [(map.stats(), map_ops), (set.stats(), set_ops)] {
            assert_eq!(stats.ops, issued, "{stats}: per-kind totals vs ops issued");
            switches.fetch_add(stats.switches, Ordering::Relaxed);
            rollbacks.fetch_add(stats.rollbacks, Ordering::Relaxed);
        }
    });
    // Over all cases, not per case: a rollback comes from wall time.
    assert!(switches.into_inner() > 0, "no script switched a site");
    assert!(rollbacks.into_inner() > 0, "no script rolled a switch back");
}

/// The migration cut: ops a shard buffered on the old variant reach the
/// site's exact totals — when the shard migrates, or when a flush finds it
/// lagging — but not the window that verifies the switch.
#[test]
fn ops_buffered_before_a_switch_stay_out_of_the_verifying_window() {
    for flush_first in [false, true] {
        // One shard and no trigger firing: every op shares one buffer.
        // Verification cannot roll back, so the verifying round scores
        // candidates, and history decay 0 makes that round's history
        // exactly the profiles ingested since the switch.
        let rt = runtime(
            GuardrailConfig::default().verify_tolerance(1e12),
            0.0,
            1,
            1 << 20,
        );
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "cut/map");
        (0..100).for_each(|k| assert_eq!(map.insert(k, k), None));
        rt.flush();
        // Buffered on the chained variant when the model switches the site.
        (0..7).for_each(|k| assert_eq!(map.get(&k), Some(k)));
        rt.analyze_now();
        assert_eq!(map.current_kind(), MapKind::Array);
        assert_eq!(map.stats().total_ops, 100);

        if flush_first {
            rt.flush();
            assert_eq!(map.stats().total_ops, 107, "a flush cuts the lagging shard");
        }
        // The first op migrates the shard, cutting it if nothing did yet.
        (0..5).for_each(|k| assert_eq!(map.get(&k), Some(k)));
        assert_eq!(map.stats().total_ops, 107, "the cut publishes exact totals");
        assert_eq!(map.stats().flushes, 1, "the cut is not a flush");
        rt.flush();
        rt.analyze_now();

        let stats = map.stats();
        assert_eq!(stats.ops[OpKind::Contains.index()], 12);
        assert_eq!((stats.flushes, stats.switches, stats.rollbacks), (2, 1, 0));
        assert_eq!(rt.engine().health().profiles_ingested, 2);
        // The verifying round priced only the 5 ops run on the array
        // variant, at the model's 1 per op.
        let explanation = rt
            .engine()
            .explain(map.id())
            .expect("verifying round scored");
        assert_eq!(
            (explanation.round, explanation.current.as_str()),
            (1, "array")
        );
        assert_eq!(explanation.current_primary_cost, 5.0);
    }
}
