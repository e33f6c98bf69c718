//! The flight recorder adds no allocation to a traced analysis pass.
//!
//! This binary installs the counting allocator and checks, on the thread
//! that runs `analyze_now`, that with tracing sampled and a recorder
//! subscribed, a pass that scores candidates and keeps the site's variant
//! allocates 0 bytes once one warm-up pass has run. The recorder polls the
//! tracer's overhead account on every pass; it reads the rings'
//! aggregates, and copies no span.

use std::sync::Arc;

use cs_collections::ListKind;
use cs_core::{SelectionRule, Switch};
use cs_profile::WindowConfig;
use cs_telemetry::{FlightRecorder, JsonlSink, MetricsRegistry};
use cs_trace::TraceMode;

#[global_allocator]
static ALLOC: cs_heap::CountingAlloc = cs_heap::CountingAlloc;

#[test]
fn a_recorder_adds_no_allocation_to_a_traced_pass() {
    let path = std::env::temp_dir().join(format!(
        "cs-recorder-pass-alloc-{}.jsonl",
        std::process::id()
    ));
    let sink = Arc::new(JsonlSink::create(&path, 10_000).expect("temp incident file"));
    let recorder = Arc::new(FlightRecorder::new(sink, MetricsRegistry::new()));
    cs_trace::set_mode(TraceMode::Sampled);
    let engine = Switch::builder()
        .rule(SelectionRule::impossible())
        .window(WindowConfig {
            window_size: 10,
            min_samples: 5,
            ..WindowConfig::default()
        })
        .event_sink(recorder.clone())
        .build();
    recorder.attach(&engine);
    let ctx = engine.list_context::<u64>(ListKind::Array);
    // Ten finished monitored lists with pushes and lookups: a ready window.
    let fill_window = || {
        for _ in 0..10 {
            let mut list = ctx.create_list();
            assert!(list.is_monitored());
            for v in 0..64 {
                list.push(v);
                list.contains(&v);
            }
        }
    };
    fill_window();
    engine.analyze_now();
    fill_window();

    let before = cs_heap::thread_account();
    engine.analyze_now();
    let churn = cs_heap::thread_account().delta_since(&before);
    cs_trace::set_mode(TraceMode::Off);
    let _ = std::fs::remove_file(&path);

    // Both passes scored candidates and kept the variant.
    assert_eq!(ctx.core().stats().rounds, 2);
    assert_eq!(ctx.current_kind(), ListKind::Array);
    assert_eq!(recorder.incidents_recorded(), 0);
    assert_eq!(churn.alloc_count, 0, "the pass allocated: {churn:?}");
    assert_eq!(churn.alloc_bytes, 0);
}
