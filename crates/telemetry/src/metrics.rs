//! A lock-cheap metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms, grouped into named families with Prometheus-style labels.
//!
//! The registry mutex is held only while *registering* a series (and while
//! snapshotting); the handles it returns are `Arc`'d atomics, so the hot
//! paths — `inc`, `set`, `observe` — are single atomic RMW operations with
//! no lock, safe to call from the analyzer thread, sink callbacks, and
//! worker threads concurrently. Registering the same `(name, labels)` pair
//! twice returns a handle to the *same* cell, so instrumentation code can
//! re-resolve handles without double counting.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::json::Json;

/// What a metric family measures; mirrors the Prometheus `# TYPE` keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically nondecreasing count.
    Counter,
    /// Point-in-time value that can go up or down.
    Gauge,
    /// Distribution over fixed buckets, with sum and count.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotone counter handle. Cloning shares the cell.
///
/// # Examples
///
/// ```
/// use cs_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let hits = registry.counter("cs_hits_total", "Total hits.", &[]);
/// hits.inc();
/// hits.add(2);
/// assert_eq!(hits.get(), 3);
/// // Re-registering resolves to the same cell.
/// assert_eq!(registry.counter("cs_hits_total", "Total hits.", &[]).get(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrites the total. Only for exporters mirroring a monotone total
    /// maintained elsewhere (e.g. an engine-internal atomic); never mix
    /// with [`Counter::add`] on the same series.
    pub fn set_total(&self, total: u64) {
        self.cell.store(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle (a signed point-in-time value). Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A float-valued gauge handle (f64 bits behind an atomic). Cloning shares
/// the cell. Registered under the Prometheus `gauge` kind, next to the
/// integer [`Gauge`]; use it for ratios and other fractional readings —
/// e.g. `cs_trace_overhead_ratio`.
#[derive(Debug, Clone)]
pub struct FloatGauge {
    cell: Arc<AtomicU64>,
}

impl FloatGauge {
    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.cell.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Ascending finite bucket upper bounds; an implicit `+Inf` bucket
    /// follows.
    bounds: Vec<f64>,
    /// One per bound, plus the `+Inf` bucket — *non*-cumulative here;
    /// exposition accumulates.
    counts: Vec<AtomicU64>,
    /// Sum of observations, stored as f64 bits (CAS loop on observe).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram handle. Cloning shares the cells.
///
/// # Examples
///
/// ```
/// use cs_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let h = registry.histogram(
///     "cs_pass_seconds",
///     "Analysis pass duration.",
///     &[],
///     &[0.001, 0.01, 0.1],
/// );
/// h.observe(0.005);
/// h.observe(5.0); // lands in the implicit +Inf bucket
/// assert_eq!(h.count(), 2);
/// assert!((h.sum() - 5.005).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let bucket = self
            .core
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.core.bounds.len());
        self.core.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.core.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn observe_duration(&self, duration: std::time::Duration) {
        self.observe(duration.as_secs_f64());
    }

    /// Overwrites the whole distribution. Only for exporters mirroring a
    /// histogram maintained elsewhere (e.g. the tracer's per-phase
    /// duration buckets), refreshed on scrape; never mix with
    /// [`Histogram::observe`] on the same series.
    ///
    /// # Panics
    ///
    /// Panics unless `counts` has one entry per finite bound plus the
    /// final `+Inf` bucket.
    pub fn set_distribution(&self, counts: &[u64], sum: f64) {
        assert_eq!(
            counts.len(),
            self.core.bounds.len() + 1,
            "set_distribution needs one count per bound plus +Inf"
        );
        let mut total = 0u64;
        for (cell, &v) in self.core.counts.iter().zip(counts) {
            cell.store(v, Ordering::Relaxed);
            total += v;
        }
        self.core.count.store(total, Ordering::Relaxed);
        self.core.sum_bits.store(sum.to_bits(), Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    FloatGauge(FloatGauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<(Vec<(String, String)>, Cell)>,
}

/// The registry: named metric families, each with labelled series.
///
/// Cloning shares the registry. See the [crate docs](crate) for the
/// locking model. Metric and label names are validated on registration
/// against the Prometheus grammar, so a typo fails fast at the
/// instrumentation site instead of producing an exposition some scraper
/// rejects at 3am.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: Arc<Mutex<Vec<Family>>>,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or resolves) a counter series.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name, or if `name` is already
    /// registered with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Cell::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Cell::Counter(c) => c,
            _ => unreachable!("registry returned mismatched cell"),
        }
    }

    /// Registers (or resolves) a gauge series.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name, or if `name` is already
    /// registered with a different kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Cell::Gauge(Gauge {
                cell: Arc::new(AtomicI64::new(0)),
            })
        }) {
            Cell::Gauge(g) => g,
            _ => unreachable!("registry returned mismatched cell"),
        }
    }

    /// Registers (or resolves) a float-valued gauge series.
    ///
    /// Rendered under the same Prometheus `gauge` kind as [`Gauge`]; a
    /// given family must stick to one of the two cell flavours.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name, or if `name` is already
    /// registered with a different kind or as an integer gauge.
    pub fn float_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> FloatGauge {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Cell::FloatGauge(FloatGauge {
                cell: Arc::new(AtomicU64::new(0.0_f64.to_bits())),
            })
        }) {
            Cell::FloatGauge(g) => g,
            _ => panic!("metric {name} already registered as an integer gauge"),
        }
    }

    /// Registers (or resolves) a histogram series with the given ascending
    /// finite bucket bounds (an `+Inf` bucket is implicit).
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name, a kind conflict, or bounds
    /// that are empty, non-finite, or not strictly ascending.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        assert!(
            !bounds.is_empty(),
            "histogram {name} needs at least one bucket"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram {name} bounds must be finite and strictly ascending"
        );
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Cell::Histogram(Histogram {
                core: Arc::new(HistogramCore {
                    bounds: bounds.to_vec(),
                    counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    sum_bits: AtomicU64::new(0.0_f64.to_bits()),
                    count: AtomicU64::new(0),
                }),
            })
        }) {
            Cell::Histogram(h) => h,
            _ => unreachable!("registry returned mismatched cell"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (label, _) in labels {
            assert!(
                valid_label_name(label),
                "invalid label name {label:?} on metric {name}"
            );
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        let mut families = self.families.lock();
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            assert!(
                family.kind == kind,
                "metric {name} already registered as {}",
                family.kind.as_str()
            );
            if let Some((_, cell)) = family.series.iter().find(|(l, _)| *l == labels) {
                return cell.clone();
            }
            let cell = make();
            family.series.push((labels, cell.clone()));
            return cell;
        }
        let cell = make();
        families.push(Family {
            name: name.to_owned(),
            help: help.to_owned(),
            kind,
            series: vec![(labels, cell.clone())],
        });
        cell
    }

    /// A point-in-time copy of every family and series, in registration
    /// order (deterministic across runs with the same code path order).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let families = self.families.lock();
        TelemetrySnapshot {
            families: families
                .iter()
                .map(|f| FamilySnapshot {
                    name: f.name.clone(),
                    help: f.help.clone(),
                    kind: f.kind,
                    series: f
                        .series
                        .iter()
                        .map(|(labels, cell)| SeriesSnapshot {
                            labels: labels.clone(),
                            value: match cell {
                                Cell::Counter(c) => ValueSnapshot::Counter(c.get()),
                                Cell::Gauge(g) => ValueSnapshot::Gauge(g.get()),
                                Cell::FloatGauge(g) => ValueSnapshot::FloatGauge(g.get()),
                                Cell::Histogram(h) => ValueSnapshot::Histogram(HistogramSnapshot {
                                    bounds: h.core.bounds.clone(),
                                    counts: h
                                        .core
                                        .counts
                                        .iter()
                                        .map(|c| c.load(Ordering::Relaxed))
                                        .collect(),
                                    sum: h.sum(),
                                    count: h.count(),
                                }),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// One series' value in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSnapshot {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Float gauge value.
    FloatGauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; one per bound plus `+Inf` last.
    pub counts: Vec<u64>,
    /// Sum of observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

/// One labelled series in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: ValueSnapshot,
}

/// One metric family in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Metric name (Prometheus grammar).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// The family's series.
    pub series: Vec<SeriesSnapshot>,
}

/// A frozen copy of a [`MetricsRegistry`], ready for exposition.
///
/// # Examples
///
/// ```
/// use cs_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// registry
///     .counter("cs_transitions_total", "Collection transitions.", &[])
///     .inc();
/// let snapshot = registry.snapshot();
/// let text = snapshot.to_prometheus_text();
/// assert!(text.contains("cs_transitions_total 1"));
/// cs_telemetry::validate_prometheus_text(&text).expect("valid exposition");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Families in registration order.
    pub families: Vec<FamilySnapshot>,
}

impl TelemetrySnapshot {
    /// Finds a family by name.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    /// The value of the unlabelled counter series `name`, or of the single
    /// series when exactly one exists. `None` if absent or not a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let family = self.family(name)?;
        let series = match family.series.as_slice() {
            [only] => only,
            many => many.iter().find(|s| s.labels.is_empty())?,
        };
        match series.value {
            ValueSnapshot::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Sums every counter series in family `name`. `None` if the family is
    /// absent or not a counter family.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        let family = self.family(name)?;
        let mut total = 0u64;
        for series in &family.series {
            match series.value {
                ValueSnapshot::Counter(v) => total += v,
                _ => return None,
            }
        }
        Some(total)
    }

    /// The value of the unlabelled (or single) gauge series `name`.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        let family = self.family(name)?;
        let series = match family.series.as_slice() {
            [only] => only,
            many => many.iter().find(|s| s.labels.is_empty())?,
        };
        match series.value {
            ValueSnapshot::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes the snapshot as a JSON document:
    /// `{"families": [{name, kind, help, series: [{labels, value…}]}]}`.
    pub fn to_json(&self) -> Json {
        Json::object().field(
            "families",
            Json::Array(
                self.families
                    .iter()
                    .map(|f| {
                        Json::object()
                            .field("name", f.name.as_str())
                            .field("kind", f.kind.as_str())
                            .field("help", f.help.as_str())
                            .field(
                                "series",
                                Json::Array(f.series.iter().map(series_to_json).collect()),
                            )
                    })
                    .collect(),
            ),
        )
    }
}

fn series_to_json(s: &SeriesSnapshot) -> Json {
    let labels = Json::Object(
        s.labels
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
            .collect(),
    );
    let doc = Json::object().field("labels", labels);
    match &s.value {
        ValueSnapshot::Counter(v) => doc.field("value", *v),
        ValueSnapshot::Gauge(v) => doc.field("value", *v),
        ValueSnapshot::FloatGauge(v) => doc.field("value", *v),
        ValueSnapshot::Histogram(h) => doc
            .field("bounds", h.bounds.clone())
            .field("counts", h.counts.clone())
            .field("sum", h.sum)
            .field("count", h.count),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_gauge_and_distribution_mirrors() {
        let registry = MetricsRegistry::new();
        let g = registry.float_gauge("cs_ratio", "r", &[]);
        g.set(0.125);
        assert_eq!(g.get(), 0.125);
        let h = registry.histogram("cs_mirror", "m", &[], &[1.0, 2.0]);
        h.set_distribution(&[3, 4, 5], 21.5);
        assert_eq!(h.count(), 12);
        assert_eq!(h.sum(), 21.5);
        // Overwrite, not accumulate.
        h.set_distribution(&[1, 0, 0], 0.5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0.5);
        let snap = registry.snapshot();
        assert_eq!(
            snap.family("cs_ratio").unwrap().series[0].value,
            ValueSnapshot::FloatGauge(0.125)
        );
        crate::validate_prometheus_text(&snap.to_prometheus_text()).expect("valid exposition");
    }

    #[test]
    #[should_panic(expected = "one count per bound plus +Inf")]
    fn distribution_mirror_rejects_wrong_arity() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("cs_mirror_bad", "m", &[], &[1.0]);
        h.set_distribution(&[1], 0.0);
    }

    #[test]
    fn counter_series_are_deduplicated_by_labels() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("cs_x_total", "x", &[("site", "1")]);
        let b = registry.counter("cs_x_total", "x", &[("site", "1")]);
        let other = registry.counter("cs_x_total", "x", &[("site", "2")]);
        a.inc();
        b.inc();
        other.add(5);
        assert_eq!(a.get(), 2, "same labels share a cell");
        assert_eq!(other.get(), 5);
        let snap = registry.snapshot();
        assert_eq!(snap.family("cs_x_total").unwrap().series.len(), 2);
        assert_eq!(snap.counter_total("cs_x_total"), Some(7));
    }

    #[test]
    fn gauge_moves_both_ways() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("cs_pending", "pending", &[]);
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        assert_eq!(registry.snapshot().gauge_value("cs_pending"), Some(7));
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("cs_h", "h", &[], &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(1.0); // on the boundary: `le` is inclusive
        h.observe(5.0);
        h.observe(100.0);
        let snap = registry.snapshot();
        let ValueSnapshot::Histogram(hist) = &snap.family("cs_h").unwrap().series[0].value else {
            panic!("expected histogram");
        };
        assert_eq!(hist.counts, vec![2, 1, 1]);
        assert_eq!(hist.count, 4);
        assert!((hist.sum - 106.5).abs() < 1e-9);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("cs_h", "h", &[], &[0.5]);
        let c = registry.counter("cs_c_total", "c", &[]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let h = h.clone();
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.inc();
                        h.observe(1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 8_000);
        assert_eq!(h.count(), 8_000);
        assert!((h.sum() - 8_000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_are_rejected() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("cs_x", "x", &[]);
        let _ = registry.gauge("cs_x", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_names_are_rejected() {
        let _ = MetricsRegistry::new().counter("0bad", "x", &[]);
    }

    #[test]
    fn snapshot_json_is_stable() {
        let registry = MetricsRegistry::new();
        registry.counter("cs_a_total", "A.", &[("k", "v")]).inc();
        let text = registry.snapshot().to_json().render();
        assert_eq!(
            text,
            r#"{"families":[{"name":"cs_a_total","kind":"counter","help":"A.","series":[{"labels":{"k":"v"},"value":1}]}]}"#
        );
    }
}
