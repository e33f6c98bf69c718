//! Ready-made [`EngineEventSink`] implementations: metrics aggregation
//! and a bounded JSONL audit stream.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cs_core::{EngineEvent, EngineEventSink};
use parking_lot::Mutex;

use crate::json::event_to_json;
use crate::metrics::{Histogram, MetricsRegistry};

/// Bucket bounds (seconds) for the analysis-pass duration histogram:
/// exponential decades from 1µs to 1s, two points per decade.
pub const PASS_DURATION_BUCKETS: [f64; 13] = [
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0,
];

/// An [`EngineEventSink`] that folds every event into a
/// [`MetricsRegistry`]:
///
/// * `cs_events_total{event=…}` — every event by kind;
/// * `cs_site_transitions_total` / `cs_site_rollbacks_total` /
///   `cs_site_quarantines_total{site=…}` — guardrail activity per
///   allocation site;
/// * `cs_selections_total{outcome=…}` — audit-trail outcomes;
/// * `cs_selection_margin` — histogram of winning margins (how decisive
///   selections are);
/// * `cs_analysis_pass_seconds` — histogram of analysis-pass durations.
///
/// The engine-global families are registered up front so an exposition
/// scraped before the first event still shows them at zero.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cs_core::Switch;
/// use cs_telemetry::{MetricsRegistry, MetricsSink};
///
/// let registry = MetricsRegistry::new();
/// let engine = Switch::builder()
///     .event_sink(Arc::new(MetricsSink::new(registry.clone())))
///     .build();
/// engine.analyze_now();
/// let text = registry.snapshot().to_prometheus_text();
/// assert!(text.contains("cs_events_total"));
/// ```
#[derive(Debug)]
pub struct MetricsSink {
    registry: MetricsRegistry,
    margin: Histogram,
    pass_duration: Histogram,
}

impl MetricsSink {
    /// Creates a sink feeding `registry`.
    pub fn new(registry: MetricsRegistry) -> Self {
        for kind in [
            "transition",
            "selection",
            "rollback",
            "quarantine",
            "model_fallback",
            "analyzer_panic",
            "degraded_entered",
        ] {
            registry.counter(
                "cs_events_total",
                "Engine events by kind.",
                &[("event", kind)],
            );
        }
        let margin = registry.histogram(
            "cs_selection_margin",
            "Winning margin of switch decisions (1 - predicted cost ratio).",
            &[],
            &[0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99],
        );
        let pass_duration = registry.histogram(
            "cs_analysis_pass_seconds",
            "Wall-clock duration of engine analysis passes.",
            &[],
            &PASS_DURATION_BUCKETS,
        );
        MetricsSink {
            registry,
            margin,
            pass_duration,
        }
    }

    /// The registry this sink updates.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn site_counter(&self, family: &'static str, help: &'static str, site: &str) {
        self.registry.counter(family, help, &[("site", site)]).inc();
    }
}

impl EngineEventSink for MetricsSink {
    fn on_event(&self, event: &EngineEvent) {
        self.registry
            .counter(
                "cs_events_total",
                "Engine events by kind.",
                &[("event", event.kind_name())],
            )
            .inc();
        match event {
            EngineEvent::Transition(t) => {
                self.site_counter(
                    "cs_site_transitions_total",
                    "Applied collection transitions per allocation site.",
                    &t.context_name,
                );
            }
            EngineEvent::Selection(e) => {
                self.registry
                    .counter(
                        "cs_selections_total",
                        "Selection decisions by outcome.",
                        &[("outcome", &e.outcome.to_string())],
                    )
                    .inc();
                if e.winner.is_some() && e.winning_margin.is_finite() {
                    self.margin.observe(e.winning_margin);
                }
            }
            EngineEvent::Rollback(r) => {
                self.site_counter(
                    "cs_site_rollbacks_total",
                    "Verification rollbacks per allocation site.",
                    &r.context_name,
                );
            }
            EngineEvent::Quarantine(q) => {
                self.site_counter(
                    "cs_site_quarantines_total",
                    "Candidate quarantines per allocation site.",
                    &q.context_name,
                );
            }
            EngineEvent::WarmStartSite(s) => {
                self.registry
                    .counter(
                        "cs_state_warm_sites_total",
                        "Warm-start site records by application outcome.",
                        &[("outcome", s.outcome.name())],
                    )
                    .inc();
            }
            EngineEvent::ModelFallback(_)
            | EngineEvent::AnalyzerPanic(_)
            | EngineEvent::DegradedEntered(_)
            | EngineEvent::WarmStart(_) => {}
        }
    }

    fn on_analysis_pass(&self, duration: Duration) {
        self.pass_duration.observe_duration(duration);
    }

    fn name(&self) -> &str {
        "metrics"
    }
}

#[derive(Debug)]
struct JsonlInner {
    writer: BufWriter<File>,
    written: u64,
}

/// A bounded JSONL file sink: each event becomes one line of JSON (the
/// [`event_to_json`] encoding — selection events carry the full decision
/// audit record). After `max_lines` lines the sink stops writing and
/// counts what it skipped, so a chatty engine can never fill a disk.
///
/// Write errors are likewise counted (see [`JsonlSink::io_errors`]) rather
/// than panicking: observability must not take the host down.
#[derive(Debug)]
pub struct JsonlSink {
    inner: Mutex<JsonlInner>,
    max_lines: u64,
    skipped: AtomicU64,
    io_errors: AtomicU64,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`, capping output at
    /// `max_lines` event lines.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the file.
    ///
    /// # Panics
    ///
    /// Panics if `max_lines` is zero.
    pub fn create(path: impl AsRef<Path>, max_lines: u64) -> io::Result<JsonlSink> {
        assert!(max_lines > 0, "JsonlSink cap must be nonzero");
        let file = File::create(path)?;
        Ok(JsonlSink {
            inner: Mutex::new(JsonlInner {
                writer: BufWriter::new(file),
                written: 0,
            }),
            max_lines,
            skipped: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        })
    }

    /// Lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.inner.lock().written
    }

    /// Events skipped because the line cap was reached.
    pub fn lines_skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Events lost to write errors.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Flushes buffered lines to the file.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying flush.
    pub fn flush(&self) -> io::Result<()> {
        self.inner.lock().writer.flush()
    }

    /// Writes one [`Json`](crate::Json) document as one line of the
    /// stream, under the line cap and the error accounting. Engine events
    /// and non-event records (flight recorder incidents) both take this
    /// path, which is how incidents interleave with the audit trail.
    ///
    /// Returns `true` if the line was written (not capped, no I/O error).
    pub fn write_json(&self, doc: &crate::Json) -> bool {
        let mut inner = self.inner.lock();
        if inner.written >= self.max_lines {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut line = doc.render();
        line.push('\n');
        match inner.writer.write_all(line.as_bytes()) {
            Ok(()) => {
                inner.written += 1;
                true
            }
            Err(_) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.inner.lock().writer.flush();
    }
}

impl EngineEventSink for JsonlSink {
    fn on_event(&self, event: &EngineEvent) {
        self.write_json(&event_to_json(event));
    }

    fn name(&self) -> &str {
        "jsonl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_core::{ModelFallbackEvent, TransitionEvent};

    fn transition(name: &str) -> EngineEvent {
        EngineEvent::Transition(TransitionEvent::new(
            7,
            name,
            cs_collections::Abstraction::List,
            "array",
            "hasharray",
            2,
        ))
    }

    #[test]
    fn metrics_sink_counts_by_kind_and_site() {
        let registry = MetricsRegistry::new();
        let sink = MetricsSink::new(registry.clone());
        sink.on_event(&transition("A"));
        sink.on_event(&transition("A"));
        sink.on_event(&transition("B"));
        sink.on_event(&EngineEvent::ModelFallback(ModelFallbackEvent {
            file: "lists.model".into(),
            reason: "x".into(),
        }));
        sink.on_analysis_pass(Duration::from_micros(30));
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("cs_events_total"), Some(4));
        assert_eq!(snap.counter_total("cs_site_transitions_total"), Some(3));
        let sites = snap.family("cs_site_transitions_total").unwrap();
        assert_eq!(sites.series.len(), 2);
        let text = snap.to_prometheus_text();
        assert!(text.contains("cs_site_transitions_total{site=\"A\"} 2"));
        assert!(text.contains("cs_analysis_pass_seconds_count 1"));
        crate::validate_prometheus_text(&text).expect("valid exposition");
    }

    #[test]
    fn jsonl_sink_caps_lines_and_counts_skips() {
        let path = std::env::temp_dir().join(format!("cs-jsonl-test-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path, 2).unwrap();
        for _ in 0..5 {
            sink.on_event(&transition("A"));
        }
        sink.flush().unwrap();
        assert_eq!(sink.lines_written(), 2);
        assert_eq!(sink.lines_skipped(), 3);
        assert_eq!(sink.io_errors(), 0);
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        for line in content.lines() {
            assert!(line.starts_with("{\"event\":\"transition\""));
            assert!(line.ends_with('}'));
        }
        std::fs::remove_file(&path).ok();
    }
}
