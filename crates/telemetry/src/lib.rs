//! # cs-telemetry
//!
//! Observability for the CollectionSwitch stack: a lock-cheap metrics
//! registry, event sinks that turn the engine's push stream into metrics
//! and a JSONL audit trail, and exposition in Prometheus text and JSON.
//!
//! The paper (§4.4) names detailed logging of switch decisions as the
//! mitigation for the framework's main operational risk — a switch that
//! makes things worse and nobody can explain why. This crate is that
//! mitigation, productionized:
//!
//! * [`MetricsRegistry`] — atomic counters, gauges, and fixed-bucket
//!   histograms behind `Arc` handles; the registry lock is touched only at
//!   registration and snapshot time, so instrumented hot paths stay a
//!   single atomic RMW.
//! * [`MetricsSink`] / [`JsonlSink`] — implementations of
//!   [`cs_core::EngineEventSink`] receiving every engine event at record
//!   time: one folds events into metrics, one streams the decision audit
//!   trail (including per-candidate cost estimates from
//!   [`cs_core::SelectionExplanation`]) as bounded JSONL. The engine's own
//!   bounded log ([`cs_core::Switch::event_log`]) is the in-memory copy.
//! * [`FlightRecorder`] — an event sink that freezes spans, the site's
//!   explanation, the overhead account and the heap account into an
//!   incident record when a trigger fires (rollback, quarantine, overhead
//!   budget, or a `phase_shift` handed over by `cs-obs`'s band detector).
//!   Its tuning is fixed; the trigger matrix is in its module docs.
//! * [`TelemetrySnapshot`] — a frozen registry copy that renders to
//!   Prometheus text ([`TelemetrySnapshot::to_prometheus_text`]) or JSON
//!   ([`TelemetrySnapshot::to_json`]); [`validate_prometheus_text`] checks
//!   the exposition grammar and is run in CI.
//! * [`export_engine`] — the pull side: mirrors [`cs_core::Switch::health`]
//!   into `cs_engine_*` series on scrape.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use cs_collections::ListKind;
//! use cs_core::Switch;
//! use cs_telemetry::{export_engine, MetricsRegistry, MetricsSink, validate_prometheus_text};
//!
//! let registry = MetricsRegistry::new();
//! let engine = Switch::builder()
//!     .event_sink(Arc::new(MetricsSink::new(registry.clone())))
//!     .build();
//!
//! let ctx = engine.list_context::<i64>(ListKind::Array);
//! for _ in 0..200 {
//!     let mut list = ctx.create_list();
//!     for v in 0..150 {
//!         list.push(v);
//!     }
//!     for v in 0..150 {
//!         list.contains(&v);
//!     }
//! }
//! engine.analyze_now();
//!
//! export_engine(&registry, &engine); // refresh gauges, scrape-style
//! let snapshot = registry.snapshot();
//! let text = snapshot.to_prometheus_text();
//! validate_prometheus_text(&text).expect("well-formed exposition");
//! assert!(text.contains("cs_site_transitions_total"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod export;
mod flight;
mod json;
mod metrics;
mod prometheus;
mod sinks;

pub use export::{
    export_engine, export_engine_health, export_heap, export_process, export_trace,
    export_warm_start,
};
pub use flight::FlightRecorder;
pub use json::{
    event_to_json, explanation_to_json, health_to_json, heap_account_to_json,
    manifest_entry_to_json, Json, JsonParseError,
};
pub use metrics::{
    Counter, FamilySnapshot, FloatGauge, Gauge, Histogram, HistogramSnapshot, MetricKind,
    MetricsRegistry, SeriesSnapshot, TelemetrySnapshot, ValueSnapshot,
};
pub use prometheus::validate_prometheus_text;
pub use sinks::{JsonlSink, MetricsSink, PASS_DURATION_BUCKETS};

// The sinks cross the engine's dispatch boundary from arbitrary threads;
// losing `Send + Sync` on any of them must fail the build here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<MetricsSink>();
    assert_send_sync::<JsonlSink>();
    assert_send_sync::<FlightRecorder>();
};
