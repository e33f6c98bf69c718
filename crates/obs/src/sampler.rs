//! The sampler: a low-duty-cycle thread (or a manual [`tick`] in tests)
//! that mirrors the in-memory observables into the registry and feeds the
//! drift detector.
//!
//! Every tick does exactly three in-memory things: mirror the source's
//! counters into the registry, score the runtime's site rows and the
//! process's `cs-heap` allocation ledger against the drift bands (recording
//! whatever fires), and update the sampler's own self-metrics (ticks, busy
//! nanos, overhead ratio). The process-level gauges that read procfs are
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

use cs_telemetry::Json;

use crate::drift::DriftEvent;
use crate::ObsCore;

/// Takes one sample: export → drift → self-metrics. Returns the drift
/// events fired, already recorded as incidents and counted on
/// `cs_obs_phase_shifts_total`. Public so tests and examples can drive
/// the plane deterministically instead of racing a timer thread.
pub(crate) fn tick(core: &ObsCore) -> Vec<DriftEvent> {
    let busy = Instant::now();
    core.source.sample_into(&core.registry);
    let t_ns = core.started.elapsed().as_nanos() as u64;
    let sites = core.source.sites();
    let process_alloc_bytes = cs_heap::process_account().alloc_bytes;
    let events = core.drift.lock().observe(&sites, process_alloc_bytes);

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
