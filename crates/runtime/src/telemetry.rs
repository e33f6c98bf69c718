//! Runtime-layer telemetry: per-site metrics export and the JSON row
//! encoding shared with the bench binaries.
//!
//! The runtime's counters (exact op totals, flushes, shard contention) live
//! in per-site atomics; this module mirrors them into a
//! [`MetricsRegistry`] on demand — the scrape-time pull complementing the
//! engine's push-based event sinks — and encodes a [`SiteStats`] snapshot
//! as a [`Json`] object so dashboards, `runtime_sweep` output rows, and the
//! telemetry JSON snapshot all share one serializer.

use cs_profile::OpKind;
use cs_telemetry::{export_engine, export_process, Json, MetricsRegistry};

use crate::runtime::Runtime;
use crate::site::SiteStats;

/// Serializes one site snapshot as a JSON object (op totals keyed by op
/// name). This is the row format of `runtime_sweep --out` and of
/// [`Runtime::export_metrics`] consumers that prefer JSON over Prometheus.
pub fn site_stats_to_json(stats: &SiteStats) -> Json {
    let mut ops = Json::object();
    for op in OpKind::ALL {
        ops = ops.field(op.to_string(), stats.ops[op.index()]);
    }
    Json::object()
        .field("id", stats.id)
        .field("site", stats.name.as_str())
        .field("current_kind", stats.current_kind.as_str())
        .field("ops", ops)
        .field("total_ops", stats.total_ops)
        .field("sampled_nanos", stats.sampled_nanos)
        .field("max_size", stats.max_size)
        .field("flushes", stats.flushes)
        .field("contended", stats.contended)
        .field("contention_ratio", contention_ratio(stats))
        .field("alloc_count", stats.alloc_count)
        .field("alloc_bytes", stats.alloc_bytes)
        .field("alloc_bytes_per_op", stats.alloc_bytes_per_op())
        .field("rounds", stats.rounds)
        .field("switches", stats.switches)
        .field("rollbacks", stats.rollbacks)
}

/// Contended ops as a fraction of total flushed ops; `0.0` before the first
/// flush. A plain observable: no cost model prices it.
fn contention_ratio(stats: &SiteStats) -> f64 {
    if stats.total_ops == 0 {
        0.0
    } else {
        stats.contended as f64 / stats.total_ops as f64
    }
}

impl Runtime {
    /// Mirrors every runtime site's counters into `registry` under the
    /// `cs_runtime_*` families (labelled by site name), plus the wrapped
    /// engine's `cs_engine_*` state via [`export_engine`] and the
    /// process-level gauges via [`export_process`] (uptime, peak RSS — so
    /// a runtime scrape is useful before any site traffic). Idempotent:
    /// call on every scrape, values overwrite.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        self.export_site_metrics(registry);
        export_engine(registry, self.engine());
        export_process(registry);
    }

    /// The in-memory subset of [`Runtime::export_metrics`]: per-site
    /// counters only, read straight from the runtime's atomics — no
    /// `/proc` reads, no syscalls beyond memory. This is what the `cs-obs`
    /// sampler thread calls on every tick; the process-level gauges (which
    /// do touch procfs) are refreshed only on the scrape path.
    pub fn export_site_metrics(&self, registry: &MetricsRegistry) {
        let sites = self.sites();
        registry
            .gauge("cs_runtime_sites", "Registered runtime sites.", &[])
            .set(sites.len() as i64);
        for stats in &sites {
            let site = stats.name.as_str();
            for op in OpKind::ALL {
                registry
                    .counter(
                        "cs_runtime_site_ops_total",
                        "Exact flushed op totals per site and op kind.",
                        &[("site", site), ("op", &op.to_string())],
                    )
                    .set_total(stats.ops[op.index()]);
            }
            let totals: [(&str, &str, u64); 8] = [
                (
                    "cs_runtime_site_flushes_total",
                    "Shard buffer flushes per site.",
                    stats.flushes,
                ),
                (
                    "cs_runtime_site_contended_total",
                    "Contended shard-lock acquisitions per site.",
                    stats.contended,
                ),
                (
                    "cs_runtime_site_sampled_nanos_total",
                    "Sampled-and-scaled wall time attributed to critical ops, nanoseconds.",
                    stats.sampled_nanos,
                ),
                (
                    "cs_runtime_site_alloc_count_total",
                    "Allocation events attributed to critical ops per site (exact while a counting allocator is active).",
                    stats.alloc_count,
                ),
                (
                    "cs_runtime_site_alloc_bytes_total",
                    "Allocation bytes attributed to critical ops per site (exact while a counting allocator is active).",
                    stats.alloc_bytes,
                ),
                (
                    "cs_runtime_site_rounds_total",
                    "Engine analysis rounds completed per site.",
                    stats.rounds,
                ),
                (
                    "cs_runtime_site_switches_total",
                    "Variant switches applied per site.",
                    stats.switches,
                ),
                (
                    "cs_runtime_site_rollbacks_total",
                    "Switches undone by post-switch verification per site.",
                    stats.rollbacks,
                ),
            ];
            for (name, help, value) in totals {
                registry
                    .counter(name, help, &[("site", site)])
                    .set_total(value);
            }
            registry
                .gauge(
                    "cs_runtime_site_max_size",
                    "Largest post-op shard size observed per site.",
                    &[("site", site)],
                )
                .set(stats.max_size as i64);
            registry
                .float_gauge(
                    "cs_runtime_site_contention_ratio",
                    "Contended ops / total flushed ops per site (shard-lock \
                     try_lock misses).",
                    &[("site", site)],
                )
                .set(contention_ratio(stats));
            registry
                .float_gauge(
                    "cs_runtime_site_alloc_bytes_per_op",
                    "Attributed allocation bytes per critical op per site (the \
                     alloc-rate dimension's observable; zero unless a \
                     cs-heap CountingAlloc is installed).",
                    &[("site", site)],
                )
                .set(stats.alloc_bytes_per_op());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_collections::MapKind;
    use cs_core::Switch;
    use cs_telemetry::validate_prometheus_text;

    #[test]
    fn export_mirrors_site_counters_and_validates() {
        // One shard, so one flush publishes everything buffered.
        let rt = Runtime::with_config(
            Switch::builder().build(),
            crate::RuntimeConfig {
                shards: 1,
                ..crate::RuntimeConfig::default()
            },
        );
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "tele-map");
        for i in 0..50 {
            map.insert(i, i);
            map.get(&i);
        }
        rt.flush();

        let registry = MetricsRegistry::new();
        rt.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge_value("cs_runtime_sites"), Some(1));
        assert_eq!(
            snap.counter_total("cs_runtime_site_ops_total"),
            Some(100),
            "50 inserts + 50 gets"
        );
        assert_eq!(snap.counter_total("cs_runtime_site_flushes_total"), Some(1));
        let text = snap.to_prometheus_text();
        assert!(text.contains("cs_runtime_site_ops_total{site=\"tele-map\",op=\"populate\"} 50"));
        validate_prometheus_text(&text).expect("valid exposition");

        // Second export after more activity overwrites, not double-counts.
        for i in 0..10 {
            map.insert(100 + i, i);
        }
        rt.flush();
        rt.export_metrics(&registry);
        assert_eq!(
            registry
                .snapshot()
                .counter_total("cs_runtime_site_ops_total"),
            Some(110)
        );
    }

    #[test]
    fn site_stats_rows_serialize_every_counter() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "row");
        map.insert(1, 1);
        rt.flush();
        let stats = rt.site_stats(map.id()).unwrap();
        let row = site_stats_to_json(&stats).render();
        assert!(row.contains("\"site\":\"row\""));
        assert!(row.contains("\"populate\":1"));
        assert!(row.contains("\"flushes\":1"));
        assert!(row.contains("\"current_kind\":\"chained\""));
        assert!(row.contains("\"contended\":0"));
        assert!(row.contains("\"contention_ratio\":0"));
        assert!(row.contains("\"alloc_count\":0"));
        assert!(row.contains("\"alloc_bytes_per_op\":0"));
    }

    #[test]
    fn alloc_metrics_export_and_validate() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "alloc");
        for i in 0..10 {
            map.insert(i, i);
        }
        rt.flush();
        let registry = MetricsRegistry::new();
        rt.export_metrics(&registry);
        let snap = registry.snapshot();
        // No CountingAlloc is installed in unit tests, so the attributed
        // values are zero — but the families must exist and validate.
        assert_eq!(
            snap.counter_total("cs_runtime_site_alloc_bytes_total"),
            Some(0)
        );
        assert_eq!(
            snap.counter_total("cs_runtime_site_alloc_count_total"),
            Some(0)
        );
        assert!(snap.family("cs_runtime_site_alloc_bytes_per_op").is_some());
        validate_prometheus_text(&snap.to_prometheus_text()).expect("valid exposition");
    }

    #[test]
    fn contention_ratio_gauge_tracks_contended_over_total() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "ratio");
        for i in 0..10 {
            map.insert(i, i);
        }
        rt.flush();
        let registry = MetricsRegistry::new();
        rt.export_metrics(&registry);
        let snap = registry.snapshot();
        let family = snap
            .family("cs_runtime_site_contention_ratio")
            .expect("ratio gauge exported for every site");
        match family.series[0].value {
            cs_telemetry::ValueSnapshot::FloatGauge(v) => {
                assert_eq!(v, 0.0, "single-threaded load is uncontended")
            }
            ref other => panic!("not a float gauge: {other:?}"),
        }
    }
}
