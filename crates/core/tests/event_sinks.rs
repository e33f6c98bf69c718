//! Push-based event subscription: ordering, drop accounting, and panic
//! isolation.
//!
//! The engine dispatches every [`EngineEvent`] to its subscribers at record
//! time, outside all engine locks. These tests pin down the contract:
//!
//! * every subscriber sees every event, in the order the engine recorded it;
//! * subscribers see events the bounded log has already evicted — dispatch
//!   happens before eviction, so drop accounting applies to the log only;
//! * a panicking subscriber is disconnected and counted, while the healthy
//!   subscribers around it keep receiving, and the engine itself is never
//!   poisoned.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cs_collections::ListKind;
use cs_core::{EngineEvent, EngineEventSink, ListContext, SelectionRule, Switch};
use cs_model::{CostDimension, PerformanceModel, Polynomial, VariantCostModel};
use cs_profile::OpKind;

/// Minimal collecting sink, implemented against the public trait only.
#[derive(Default)]
struct RecordingSink {
    events: Mutex<Vec<EngineEvent>>,
    passes: AtomicU64,
}

impl RecordingSink {
    fn kinds(&self) -> Vec<&'static str> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .map(|e| e.kind_name())
            .collect()
    }

    fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }
}

impl EngineEventSink for RecordingSink {
    fn on_event(&self, event: &EngineEvent) {
        self.events.lock().unwrap().push(event.clone());
    }

    fn on_analysis_pass(&self, _duration: Duration) {
        self.passes.fetch_add(1, Ordering::Relaxed);
    }

    fn name(&self) -> &str {
        "recording"
    }
}

/// A sink that panics on its `n`-th delivered event (0-based) and every one
/// after it.
struct PanickingSink {
    seen: AtomicU64,
    panic_from: u64,
}

impl EngineEventSink for PanickingSink {
    fn on_event(&self, _event: &EngineEvent) {
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        if n >= self.panic_from {
            panic!("injected sink failure on event {n}");
        }
    }

    fn name(&self) -> &str {
        "panicking"
    }
}

fn inverted_list_model() -> cs_core::Models {
    let mut model = PerformanceModel::new();
    for (kind, cost) in [
        (ListKind::Array, 100.0),
        (ListKind::Linked, 1.0),
        (ListKind::HashArray, 10_000.0),
        (ListKind::Adaptive, 10_000.0),
    ] {
        let mut variant = VariantCostModel::new();
        for op in OpKind::ALL {
            variant.set_op_cost(CostDimension::Time, op, Polynomial::constant(cost));
        }
        model.insert_variant(kind, variant);
    }
    cs_core::Models {
        list: model,
        ..Default::default()
    }
}

/// One lookup-heavy monitoring round, slow enough that verification can
/// measure the linked variant's regression (same shape as engine_faults.rs).
fn scan_round(ctx: &ListContext<i64>) {
    for _ in 0..60 {
        let mut list = ctx.create_list();
        for v in 0..1024 {
            list.push(v);
        }
        for v in 0..1024 {
            assert!(list.contains(&v));
        }
    }
}

/// Drives the inverted model through switch → rollback → quarantine, which
/// yields a deterministic mixed event stream (transition, selection,
/// rollback, quarantine) for the sink assertions.
fn drive_lifecycle(engine: &Switch, ctx: &ListContext<i64>) {
    for _ in 0..3 {
        scan_round(ctx);
        engine.analyze_now();
    }
}

#[test]
fn every_sink_sees_every_event_in_recorded_order() {
    let early = Arc::new(RecordingSink::default());
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models(inverted_list_model())
        .event_sink(early.clone())
        .build();
    let late = Arc::new(RecordingSink::default());

    let ctx = engine.named_list_context::<i64>(ListKind::Array, "sinks/order");
    scan_round(&ctx);
    engine.analyze_now();
    let seen_before_late = engine.events_recorded();
    engine.subscribe(late.clone());
    scan_round(&ctx);
    engine.analyze_now();
    scan_round(&ctx);
    engine.analyze_now();

    // The builder-registered sink mirrors the engine log exactly: same
    // events, same order.
    let log_kinds: Vec<&str> = engine.event_log().iter().map(|e| e.kind_name()).collect();
    assert_eq!(early.kinds(), log_kinds);
    assert_eq!(early.len() as u64, engine.events_recorded());
    assert!(
        log_kinds.contains(&"rollback") && log_kinds.contains(&"quarantine"),
        "lifecycle must produce the mixed stream these tests rely on: {log_kinds:?}"
    );

    // A late subscriber sees exactly the suffix recorded after it joined.
    assert_eq!(
        late.len() as u64,
        engine.events_recorded() - seen_before_late,
        "late subscriber receives events from subscription onward"
    );
    assert_eq!(
        late.kinds(),
        log_kinds[seen_before_late as usize..].to_vec()
    );

    // Analysis-pass notifications fan out too: one per non-degraded pass.
    assert_eq!(
        early.passes.load(Ordering::Relaxed),
        engine.analysis_passes()
    );
    assert_eq!(engine.subscriber_count(), 2);
    assert_eq!(engine.sink_disconnects(), 0);
}

#[test]
fn sinks_outlive_the_bounded_event_log() {
    let sink = Arc::new(RecordingSink::default());
    // Capacity 2 forces eviction: the 4-event lifecycle (transition,
    // selection, rollback, quarantine) overflows the log but not the sink.
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models(inverted_list_model())
        .event_log_capacity(2)
        .event_sink(sink.clone())
        .build();
    let ctx = engine.named_list_context::<i64>(ListKind::Array, "sinks/drops");
    drive_lifecycle(&engine, &ctx);

    assert!(engine.events_dropped() > 0, "capacity 2 must overflow");
    assert_eq!(engine.event_log().len(), 2, "log holds only the newest two");
    assert_eq!(
        engine.events_recorded(),
        engine.events_dropped() + engine.event_log().len() as u64,
        "recorded = retained + evicted"
    );
    // The sink saw the full stream, including evicted events: dispatch
    // happens at record time, not at log-read time.
    assert_eq!(sink.len() as u64, engine.events_recorded());
    let health = engine.health();
    assert_eq!(health.events_dropped, engine.events_dropped());
    assert_eq!(health.events_recorded, engine.events_recorded());
}

#[test]
fn panicking_sink_is_disconnected_and_counted_without_poisoning_the_engine() {
    let before = Arc::new(RecordingSink::default());
    let poisoner = Arc::new(PanickingSink {
        seen: AtomicU64::new(0),
        panic_from: 1, // deliver one event cleanly, then blow up
    });
    let after = Arc::new(RecordingSink::default());
    // Registration order brackets the panicking sink so the test proves a
    // mid-dispatch panic cannot starve sinks later in the list.
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models(inverted_list_model())
        .event_sink(before.clone())
        .event_sink(poisoner.clone())
        .event_sink(after.clone())
        .build();
    assert_eq!(engine.subscriber_count(), 3);

    let ctx = engine.named_list_context::<i64>(ListKind::Array, "sinks/panic");
    drive_lifecycle(&engine, &ctx);

    // The faulty sink got one clean delivery, panicked on the second, and
    // was disconnected; it never saw a third.
    assert_eq!(engine.subscriber_count(), 2, "panicking sink removed");
    assert_eq!(engine.sink_disconnects(), 1);
    assert_eq!(poisoner.seen.load(Ordering::Relaxed), 2);

    // Both healthy sinks — including the one registered *after* the
    // panicking sink — received the complete stream.
    let total = engine.events_recorded();
    assert!(
        total >= 4,
        "lifecycle records the mixed stream, got {total}"
    );
    assert_eq!(before.len() as u64, total);
    assert_eq!(after.len() as u64, total);
    let log_kinds: Vec<&str> = engine.event_log().iter().map(|e| e.kind_name()).collect();
    assert_eq!(before.kinds(), log_kinds);
    assert_eq!(after.kinds(), log_kinds);

    // The engine survives: locks are not poisoned, analysis still runs,
    // and the disconnect shows up in the health summary.
    scan_round(&ctx);
    engine.analyze_now();
    let health = engine.health();
    assert!(!health.degraded, "a sink failure is not an engine failure");
    assert_eq!(health.sink_disconnects, 1);
    assert_eq!(health.events_recorded, engine.events_recorded());
    assert!(!engine.event_log().is_empty());
}
