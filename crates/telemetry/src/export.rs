//! Pull-side exporters: mirror engine state into a [`MetricsRegistry`].
//!
//! The push side ([`MetricsSink`](crate::MetricsSink)) counts events as
//! they happen; this module covers what events alone cannot — point-in-time
//! state (degraded flag, context count) and totals maintained inside the
//! engine (transitions, log drops, profile drops, pass time). Call
//! [`export_engine`] right before snapshotting, the way a Prometheus
//! exporter refreshes on scrape.

use cs_core::{EngineHealth, Switch};
use cs_trace::{TraceSnapshot, SPAN_BUCKET_BOUNDS_NS};

use crate::metrics::MetricsRegistry;

/// Writes an [`EngineHealth`] into `registry` under the `cs_engine_*`
/// families. Idempotent: repeated calls overwrite the same series.
pub fn export_engine_health(registry: &MetricsRegistry, health: &EngineHealth) {
    registry
        .gauge(
            "cs_engine_degraded",
            "1 when adaptation is frozen after repeated analyzer failures.",
            &[],
        )
        .set(i64::from(health.degraded));
    registry
        .gauge("cs_engine_contexts", "Registered allocation contexts.", &[])
        .set(health.contexts as i64);
    let totals: [(&str, &str, u64); 8] = [
        (
            "cs_engine_analysis_passes_total",
            "Completed analysis passes (clean or panicked).",
            health.analysis_passes,
        ),
        (
            "cs_engine_transitions_used_total",
            "Transitions the analyzer has committed.",
            health.transitions_used,
        ),
        (
            "cs_engine_events_recorded_total",
            "Events ever recorded in the engine log.",
            health.events_recorded,
        ),
        (
            "cs_engine_events_dropped_total",
            "Events lost to the bounded log's eviction.",
            health.events_dropped,
        ),
        (
            "cs_engine_profiles_ingested_total",
            "Workload profiles accepted by per-site sinks.",
            health.profiles_ingested,
        ),
        (
            "cs_engine_profiles_dropped_total",
            "Workload profiles discarded by bounded per-site sinks.",
            health.profiles_dropped,
        ),
        (
            "cs_engine_analyzer_panics_total",
            "Lifetime analyzer panics.",
            health.analyzer_panics,
        ),
        (
            "cs_engine_sink_disconnects_total",
            "Event subscribers disconnected because they panicked.",
            health.sink_disconnects,
        ),
    ];
    for (name, help, value) in totals {
        registry.counter(name, help, &[]).set_total(value);
    }
}

/// Refreshes `registry` from a live engine: [`export_engine_health`] plus
/// cumulative analysis time.
pub fn export_engine(registry: &MetricsRegistry, engine: &Switch) {
    export_engine_health(registry, &engine.health());
    registry
        .counter(
            "cs_engine_analysis_nanos_total",
            "Cumulative wall-clock time spent in analysis passes, in nanoseconds.",
            &[],
        )
        .set_total(engine.analysis_time_total().as_nanos() as u64);
}

/// Writes the process-level gauges into `registry`: how long this process
/// has been alive (`cs_process_uptime_seconds`, kernel truth from `/proc`
/// on Linux) and its peak resident set size (`cs_process_peak_rss_bytes`,
/// via [`cs_heap::peak_rss_bytes`]). These make a bare `/metrics` scrape
/// useful even before any site has seen traffic — a scraper can alert on
/// restarts and memory ceilings with no engine wiring at all. Idempotent,
/// like every exporter here.
pub fn export_process(registry: &MetricsRegistry) {
    registry
        .float_gauge(
            "cs_process_uptime_seconds",
            "Seconds since this process started, per the kernel where available.",
            &[],
        )
        .set(cs_heap::process_uptime().as_secs_f64());
    registry
        .gauge(
            "cs_process_peak_rss_bytes",
            "Peak resident set size of the process per the kernel (VmHWM), in bytes.",
            &[],
        )
        .set(cs_heap::peak_rss_bytes() as i64);
}

/// Mirrors a [`TraceSnapshot`] into `registry` under the `cs_trace_*`
/// families: the self-overhead account (`cs_trace_overhead_ratio`,
/// framework/app nano totals), per-phase span counts, and per-phase
/// duration histograms built from the tracer's power-of-four buckets.
///
/// Like [`export_engine`], call right before snapshotting; repeated calls
/// overwrite the same series. The histograms are *mirrored* (the tracer
/// owns the buckets), so never `observe` into them directly.
pub fn export_trace(registry: &MetricsRegistry, snap: &TraceSnapshot) {
    let overhead = snap.overhead();
    registry
        .float_gauge(
            "cs_trace_overhead_ratio",
            "Tracer self-cost share of accounted time: tracer / (tracer + application).",
            &[],
        )
        .set(overhead.ratio());
    registry
        .float_gauge(
            "cs_trace_pipeline_ratio",
            "Adaptation-pipeline share of accounted time: framework / (framework + application).",
            &[],
        )
        .set(overhead.pipeline_ratio());
    registry
        .counter(
            "cs_trace_framework_nanos_total",
            "Scaled top-level framework span time, in nanoseconds.",
            &[],
        )
        .set_total(overhead.framework_nanos);
    registry
        .counter(
            "cs_trace_tracer_nanos_total",
            "Calibrated tracer self-cost (span records plus sampling checks), in nanoseconds.",
            &[],
        )
        .set_total(overhead.tracer_nanos);
    registry
        .counter(
            "cs_trace_app_nanos_total",
            "Application wall time credited at runtime flush boundaries, in nanoseconds.",
            &[],
        )
        .set_total(overhead.app_nanos);
    registry
        .counter(
            "cs_trace_app_ops_total",
            "Application collection ops credited at runtime flush boundaries.",
            &[],
        )
        .set_total(overhead.app_ops);
    registry
        .counter(
            "cs_trace_spans_overwritten_total",
            "Spans evicted from per-thread rings before this snapshot.",
            &[],
        )
        .set_total(snap.total_overwritten());
    registry
        .gauge(
            "cs_trace_threads",
            "Threads that have recorded at least one span.",
            &[],
        )
        .set(snap.threads.len() as i64);

    // Seconds, to match Prometheus duration conventions.
    let bounds: Vec<f64> = SPAN_BUCKET_BOUNDS_NS
        .iter()
        .map(|&ns| ns as f64 * 1e-9)
        .collect();
    let phase_counts = snap.phase_counts();
    let phase_nanos = snap.phase_nanos();
    let buckets = snap.bucket_totals();
    for phase in cs_trace::Phase::ALL {
        let p = phase.index();
        registry
            .counter(
                "cs_trace_spans_total",
                "Spans recorded, by pipeline phase.",
                &[("phase", phase.name())],
            )
            .set_total(phase_counts[p]);
        registry
            .histogram(
                "cs_trace_phase_duration_seconds",
                "Span durations by pipeline phase (unscaled; sampled phases undercount).",
                &[("phase", phase.name())],
                &bounds,
            )
            .set_distribution(&buckets[p], phase_nanos[p] as f64 * 1e-9);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_export_round_trips() {
        let health = EngineHealth {
            degraded: true,
            contexts: 3,
            analysis_passes: 11,
            transitions_used: 2,
            events_recorded: 40,
            events_dropped: 1,
            profiles_ingested: 500,
            profiles_dropped: 7,
            analyzer_panics: 4,
            sink_disconnects: 1,
        };
        let registry = MetricsRegistry::new();
        export_engine_health(&registry, &health);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge_value("cs_engine_degraded"), Some(1));
        assert_eq!(snap.gauge_value("cs_engine_contexts"), Some(3));
        assert_eq!(
            snap.counter_value("cs_engine_profiles_dropped_total"),
            Some(7)
        );
        // Idempotent: a second export with fresh numbers overwrites.
        export_engine_health(
            &registry,
            &EngineHealth {
                degraded: false,
                ..health
            },
        );
        assert_eq!(
            registry.snapshot().gauge_value("cs_engine_degraded"),
            Some(0)
        );
        crate::validate_prometheus_text(&registry.snapshot().to_prometheus_text())
            .expect("valid exposition");
    }

    #[test]
    fn process_export_is_useful_before_any_traffic() {
        use crate::metrics::ValueSnapshot;

        let registry = MetricsRegistry::new();
        // Both /proc uptime sources tick at 10 ms granularity, so a freshly
        // started test process can legitimately read zero — wait past a
        // tick before exporting.
        std::thread::sleep(std::time::Duration::from_millis(25));
        export_process(&registry);
        let snap = registry.snapshot();
        let uptime = snap
            .family("cs_process_uptime_seconds")
            .and_then(|f| f.series.first())
            .map(|s| match s.value {
                ValueSnapshot::FloatGauge(v) => v,
                _ => panic!("uptime must be a float gauge"),
            })
            .expect("uptime exported");
        assert!(uptime > 0.0, "uptime {uptime}");
        assert!(snap.gauge_value("cs_process_peak_rss_bytes").unwrap_or(0) > 0);
        // Idempotent re-export advances (or holds) the gauge and the
        // exposition stays well-formed.
        export_process(&registry);
        let again = registry.snapshot();
        crate::validate_prometheus_text(&again.to_prometheus_text()).expect("valid exposition");
    }

    #[test]
    fn trace_export_mirrors_snapshot() {
        use crate::metrics::ValueSnapshot;
        use cs_trace::{Phase, ThreadTrace, PHASE_COUNT, SPAN_BUCKET_COUNT};

        // Synthetic snapshot: avoids flipping the process-global trace mode
        // under the parallel test harness.
        let mut thread = ThreadTrace {
            thread: 0,
            retired: false,
            recorded: 3,
            overwritten: 0,
            spans: Vec::new(),
            phase_counts: [0; PHASE_COUNT],
            phase_nanos: [0; PHASE_COUNT],
            phase_scaled_nanos: [0; PHASE_COUNT],
            outer_scaled_nanos: 250,
            bucket_counts: [[0; SPAN_BUCKET_COUNT]; PHASE_COUNT],
            app_ops: 10,
            app_nanos: 750,
        };
        let d = Phase::Decision.index();
        thread.phase_counts[d] = 3;
        thread.phase_nanos[d] = 250;
        thread.phase_scaled_nanos[d] = 250;
        thread.bucket_counts[d][0] = 2;
        thread.bucket_counts[d][SPAN_BUCKET_COUNT - 1] = 1;
        let snap = cs_trace::TraceSnapshot {
            threads: vec![thread],
            taken_ns: 1,
        };

        let registry = MetricsRegistry::new();
        export_trace(&registry, &snap);
        let tsnap = registry.snapshot();
        assert_eq!(
            tsnap.counter_value("cs_trace_framework_nanos_total"),
            Some(250)
        );
        assert_eq!(tsnap.counter_value("cs_trace_app_nanos_total"), Some(750));
        assert_eq!(tsnap.counter_value("cs_trace_app_ops_total"), Some(10));
        let float_gauge = |name: &str| {
            tsnap
                .family(name)
                .and_then(|f| f.series.first())
                .map(|s| match s.value {
                    ValueSnapshot::FloatGauge(v) => v,
                    _ => panic!("{name} must be a float gauge"),
                })
                .unwrap_or_else(|| panic!("{name} series exported"))
        };
        // The pipeline ratio is exact: 250 framework vs 750 app nanos. The
        // self ratio depends on the host's calibrated tracer costs, so only
        // range-check it.
        let pipeline = float_gauge("cs_trace_pipeline_ratio");
        assert!((pipeline - 0.25).abs() < 1e-9, "pipeline ratio {pipeline}");
        let ratio = float_gauge("cs_trace_overhead_ratio");
        assert!(ratio > 0.0 && ratio < 1.0, "self ratio {ratio}");
        assert_eq!(
            tsnap.counter_value("cs_trace_tracer_nanos_total"),
            Some(snap.overhead().tracer_nanos)
        );
        let spans = tsnap.family("cs_trace_spans_total").expect("span counters");
        assert_eq!(spans.series.len(), PHASE_COUNT, "one series per phase");
        let hist = tsnap
            .family("cs_trace_phase_duration_seconds")
            .expect("duration histograms");
        let decision = hist
            .series
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "decision"))
            .expect("decision series");
        match &decision.value {
            ValueSnapshot::Histogram(h) => {
                assert_eq!(h.count, 3);
                assert_eq!(h.counts[0], 2);
                assert_eq!(*h.counts.last().unwrap(), 1);
                assert!((h.sum - 250e-9).abs() < 1e-15);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        // Idempotent re-export, and the exposition stays well-formed.
        export_trace(&registry, &snap);
        assert_eq!(
            registry.snapshot().counter_value("cs_trace_app_ops_total"),
            Some(10)
        );
        crate::validate_prometheus_text(&registry.snapshot().to_prometheus_text())
            .expect("valid exposition");
    }
}
