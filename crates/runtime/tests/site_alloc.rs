//! Exact allocation attribution on the runtime op path — the runtime twin
//! of `cs-core`'s `handle_alloc.rs`. Only one op in `P` reads the clock,
//! but every op opens an alloc guard while the counting allocator this
//! binary installs is active, so each site's attributed churn must equal
//! the thread's allocation traffic over its ops exactly.

use std::time::Duration;

use cs_collections::{MapKind, SetKind};
use cs_core::Switch;
use cs_runtime::{Runtime, RuntimeConfig};

#[global_allocator]
static ALLOC: cs_heap::CountingAlloc = cs_heap::CountingAlloc;

#[test]
fn every_allocating_runtime_op_is_attributed_exactly() {
    // No count or time trigger fires: only the ops run inside each window.
    let config = RuntimeConfig {
        shards: 4,
        flush_ops: 1 << 20,
        flush_interval: Duration::from_secs(3600),
    };
    let rt = Runtime::with_config(Switch::builder().build(), config);
    let map = rt.named_concurrent_map::<u64, Vec<u64>>(MapKind::Chained, "alloc/map");
    let set = rt.named_concurrent_set::<u64>(SetKind::Chained, "alloc/set");

    let before = cs_heap::thread_account();
    for k in 0..300u64 {
        // The default vector and each clone of it allocate inside the op.
        map.update(k % 97, Vec::new, |v| v.push(k));
        std::hint::black_box(map.get(&(k % 89)));
        if k % 7 == 0 {
            map.remove(&(k % 11));
        }
    }
    map.for_each(|_, v| assert!(!v.is_empty()));
    let map_ops = cs_heap::thread_account().delta_since(&before);

    let before = cs_heap::thread_account();
    for v in 0..500u64 {
        set.insert(v);
        set.remove(&(v / 2));
        set.contains(&(v / 3));
    }
    let set_ops = cs_heap::thread_account().delta_since(&before);

    assert!(
        map_ops.alloc_count > 0 && set_ops.alloc_count > 0,
        "the ops allocate"
    );
    rt.flush();
    for (stats, ops) in [(map.stats(), map_ops), (set.stats(), set_ops)] {
        assert_eq!(
            (stats.alloc_count, stats.alloc_bytes),
            (ops.alloc_count, ops.alloc_bytes),
            "{}: every allocating op is attributed, not a sample of them",
            stats.name
        );
    }
}
