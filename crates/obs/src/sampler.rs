//! The sampler: a low-duty-cycle thread (or a manual [`tick`] in tests)
//! that snapshots the in-memory observables into the window and feeds the
//! drift detector.
//!
//! Every tick does exactly four in-memory things: mirror the source's
//! counters into the registry, freeze a [`Frame`](crate::window::Frame)
//! into the window ring, score the per-site samples and the process's
//! `cs-heap` allocation ledger against the drift bands, and update the
//! sampler's own self-metrics (ticks, busy nanos, overhead ratio). The
//! process-level gauges that read procfs are
//! deliberately *not* refreshed here — they belong to the scrape path
//! (`GET /metrics`), where an operator is already paying for a syscall
//! round-trip. The analyzer's `no-blocking-io-in-sampler-path` lint pins
//! this invariant: no filesystem or socket tokens may appear in this
//! module. The single cold exception is a fired drift event, which is
//! handed to the flight recorder (and thence its JSONL sink) — incidents
//! are rare by construction and recording them is the point.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cs_telemetry::{Json, ValueSnapshot};

use crate::drift::DriftEvent;
use crate::window::Frame;
use crate::ObsCore;

/// Takes one sample: export → frame → drift → self-metrics. Returns the
/// drift events fired, already recorded as incidents and counted on
/// `cs_obs_phase_shifts_total`. Public so tests and examples can drive
/// the plane deterministically instead of racing a timer thread.
pub(crate) fn tick(core: &ObsCore) -> Vec<DriftEvent> {
    let busy = Instant::now();
    core.source.sample_into(&core.registry);
    let t_ns = core.started.elapsed().as_nanos() as u64;
    let counters = flatten_counters(core);
    let sites = core.source.site_samples();
    let process_alloc_bytes = cs_heap::process_account().alloc_bytes;

    let events = {
        let mut window = core.window.lock();
        window.push(Frame {
            t_ns,
            counters,
            sites: sites.clone(),
        });
        core.metrics.window_frames.set(window.len() as i64);
        drop(window);
        core.drift.lock().observe(&sites, process_alloc_bytes)
    };

    for event in &events {
        core.registry
            .counter(
                "cs_obs_phase_shifts_total",
                "Drift-detector firings: a site's op-mix or allocation \
                 rate, or the process's bytes allocated per frame, broke \
                 out of its EWMA band.",
                &[("site", &event.site), ("dimension", event.dimension)],
            )
            .inc();
        if let Some(flight) = &core.flight {
            flight.record_external("phase_shift", drift_detail(event, t_ns));
        }
    }

    core.metrics.sampler_ticks.inc();
    let busy_ns = busy.elapsed().as_nanos() as u64;
    core.metrics.sampler_busy_nanos.add(busy_ns);
    let wall_ns = core.started.elapsed().as_nanos() as u64;
    if wall_ns > 0 {
        let busy_total = core.metrics.sampler_busy_nanos.get();
        core.metrics
            .sampler_overhead_ratio
            .set(busy_total as f64 / wall_ns as f64);
    }
    events
}

/// Flattens the registry's counter series into sorted
/// `(series-identity, total)` pairs for the frame.
fn flatten_counters(core: &ObsCore) -> Vec<(String, u64)> {
    let snapshot = core.registry.snapshot();
    let mut out = Vec::new();
    for family in &snapshot.families {
        for series in &family.series {
            let ValueSnapshot::Counter(total) = series.value else {
                continue;
            };
            out.push((series_key(&family.name, &series.labels), total));
        }
    }
    out.sort();
    out
}

/// The Prometheus series identity: `name` or `name{k="v",…}`.
pub(crate) fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        key.push_str(v);
        key.push('"');
    }
    key.push('}');
    key
}

/// The incident `detail` payload for a fired drift.
fn drift_detail(event: &DriftEvent, t_ns: u64) -> Json {
    Json::object()
        .field("site_id", event.site_id)
        .field("site", event.site.as_str())
        .field("dimension", event.dimension)
        .field("observed", event.observed)
        .field("mean", event.mean)
        .field("band", event.band)
        .field("ops_in_frame", event.ops_in_frame)
        .field("t_ns", t_ns)
}

/// The periodic sampler thread: ticks every `interval` until stopped.
#[derive(Debug)]
pub(crate) struct SamplerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

pub(crate) fn spawn(core: Arc<ObsCore>, interval: Duration) -> SamplerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("cs-obs-sampler".to_owned())
        .spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                tick(&core);
                std::thread::park_timeout(interval);
            }
        })
        .expect("spawn cs-obs sampler thread");
    SamplerHandle {
        stop,
        thread: Some(thread),
    }
}

impl SamplerHandle {
    /// Signals the thread and joins it; idempotent.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_keys_match_prometheus_identity() {
        assert_eq!(series_key("cs_x_total", &[]), "cs_x_total");
        let labels = vec![
            ("site".to_owned(), "hot-map".to_owned()),
            ("op".to_owned(), "contains".to_owned()),
        ];
        assert_eq!(
            series_key("cs_runtime_site_ops_total", &labels),
            "cs_runtime_site_ops_total{site=\"hot-map\",op=\"contains\"}"
        );
    }
}
