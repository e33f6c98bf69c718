//! The analysis pass allocates nothing unless it switches.
//!
//! This binary installs the counting allocator and checks, on the thread
//! that runs `analyze_now`, that a pass whose ready window scores
//! candidates and keeps the site's variant allocates 0 bytes once one
//! warm-up pass has run: the decision is priced on numbers, and its
//! explanation is rendered only when someone asks for it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cs_collections::ListKind;
use cs_core::{AnyContext, EngineEvent, EngineEventSink, ListContext, SelectionRule, Switch};
use cs_profile::WindowConfig;

#[global_allocator]
static ALLOC: cs_heap::CountingAlloc = cs_heap::CountingAlloc;

/// A subscriber that only counts what reaches it.
#[derive(Default)]
struct Counting {
    events: AtomicU64,
    passes: AtomicU64,
}

impl EngineEventSink for Counting {
    fn on_event(&self, _event: &EngineEvent) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    fn on_analysis_pass(&self, _duration: Duration) {
        self.passes.fetch_add(1, Ordering::Relaxed);
    }
}

/// Ten finished monitored lists, each with pushes and lookups: a ready
/// window with work to price.
fn fill_window(ctx: &ListContext<u64>) {
    for _ in 0..10 {
        let mut list = ctx.create_list();
        assert!(list.is_monitored());
        for v in 0..64 {
            list.push(v);
            list.contains(&v);
        }
    }
}

/// Bytes the second of two scored passes allocates on this thread. The
/// impossible rule scores every candidate and never switches.
fn second_pass_bytes(sink: Option<Arc<Counting>>) -> u64 {
    let engine = Switch::builder()
        .rule(SelectionRule::impossible())
        .window(WindowConfig {
            window_size: 10,
            min_samples: 5,
            ..WindowConfig::default()
        })
        .build();
    if let Some(sink) = sink {
        engine.subscribe(sink);
    }
    let ctx = engine.list_context::<u64>(ListKind::Array);
    fill_window(&ctx);
    engine.analyze_now();
    fill_window(&ctx);

    let before = cs_heap::thread_account();
    engine.analyze_now();
    let churn = cs_heap::thread_account().delta_since(&before);

    // Both passes scored candidates and kept the variant.
    assert_eq!(ctx.core().stats().rounds, 2);
    let explanation = ctx.core().explain().expect("the pass scored candidates");
    assert_eq!(explanation.round, 1);
    assert_eq!(explanation.winner, None);
    assert_eq!(explanation.candidates.len(), ListKind::ALL.len() - 1);
    assert_eq!(ctx.current_kind(), ListKind::Array);
    assert_eq!(churn.alloc_count, 0, "the pass allocated: {churn:?}");
    churn.alloc_bytes
}

#[test]
fn a_scored_pass_that_keeps_its_variant_allocates_nothing() {
    assert_eq!(second_pass_bytes(None), 0);
}

#[test]
fn a_subscriber_adds_no_allocation_to_the_pass() {
    let sink = Arc::new(Counting::default());
    assert_eq!(second_pass_bytes(Some(Arc::clone(&sink))), 0);
    assert_eq!(sink.passes.load(Ordering::Relaxed), 2);
    assert_eq!(
        sink.events.load(Ordering::Relaxed),
        0,
        "no switch, no event"
    );
}
