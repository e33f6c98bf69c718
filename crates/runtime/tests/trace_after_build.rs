//! Tracing turned on after a concurrent map was built reaches its ops.
//!
//! A shard caches whether counting or tracing is on and re-reads it on
//! every slow-path op, and at least every 64th op takes the slow path. So
//! once `Full` tracing starts, at most 64 ops of a built map go without an
//! `OpRecord` span, and every op after the first spanned one records one.
//!
//! One `#[test]` only: the trace mode is process global, and an
//! integration-test binary gets its own process.

use std::time::Duration;

use cs_collections::MapKind;
use cs_core::Switch;
use cs_runtime::{Runtime, RuntimeConfig};
use cs_trace::{Phase, TraceMode};

fn op_spans() -> u64 {
    cs_trace::snapshot().phase_counts()[Phase::OpRecord.index()]
}

#[test]
fn full_tracing_reaches_a_map_built_while_it_was_off() {
    cs_trace::reset();
    // One shard, and no count or time trigger fires.
    let config = RuntimeConfig {
        shards: 1,
        flush_ops: 1 << 20,
        flush_interval: Duration::from_secs(3600),
    };
    let rt = Runtime::with_config(Switch::builder().build(), config);
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "trace/after-build");
    // Untraced ops leave the shard part-way to its next check.
    for key in 0..100 {
        map.insert(key, key);
    }
    assert_eq!(op_spans(), 0, "tracing is off");

    cs_trace::set_mode(TraceMode::Full);
    let mut unspanned = 0;
    for key in 0..300 {
        let before = op_spans();
        std::hint::black_box(map.get(&key));
        match op_spans() - before {
            0 => {
                assert_eq!(
                    unspanned, key,
                    "op {key} has no span, an earlier op had one"
                );
                unspanned += 1;
            }
            1 => {}
            n => panic!("op {key} recorded {n} op spans"),
        }
    }
    cs_trace::set_mode(TraceMode::Off);
    assert!(unspanned <= 64, "{unspanned} ops went without a span");
}
