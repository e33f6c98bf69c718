//! # cs-obs
//!
//! The live operational plane for a CollectionSwitch process: an embedded,
//! dependency-free scrape/debug HTTP server plus a sampler that feeds a
//! drift detector, wired to a running [`Switch`] or [`Runtime`].
//!
//! The paper's §4.4 answer to "a switch made things worse and nobody can
//! explain why" is detailed decision logging; the telemetry crate renders
//! those logs, but until this crate nothing could *serve* them from inside
//! the process while the incident is still happening. cs-obs closes that
//! gap with three pieces:
//!
//! * **An embedded HTTP server** ([`ObsBuilder`] / `serve_obs`) over
//!   `std::net` — no framework, bounded worker threads, panic-isolated
//!   connections — serving `GET /metrics` (Prometheus text, self-validated
//!   before every response), `/health` (engine health, `503` when
//!   degraded), `/sites` (the site manifest), `/explain/<site_id>` (the
//!   live [`SelectionExplanation`](cs_core::SelectionExplanation)), and
//!   `/incidents` (the flight recorder's ring as JSONL).
//! * **A sampler**: a thread (or manual [`ObsHandle::tick`]) that keeps
//!   the registry's engine and site counters current between scrapes and
//!   hands each tick's site rows and heap ledger to the detector. It keeps
//!   no history of its own; a metrics backend scraping `/metrics` does.
//! * **A drift detector** ([`DriftDetector`]): EWMA bands over each
//!   site's op-mix fractions and allocation rate, and over the bytes the
//!   process allocates per frame (the `process` pseudo-site, read from the
//!   `cs-heap` ledger); a subject breaking band fires a `phase_shift`
//!   incident into the flight recorder and a `cs_obs_phase_shifts_total`
//!   counter — the operational mirror of the paper's phase-change premise,
//!   and the stack's one statistical detector.
//!
//! The detector's tuning is fixed; the builder sets only deployment and
//! wiring (address, workers, backlog, sampler interval, registry, flight
//! recorder).
//!
//! ## Quickstart
//!
//! ```no_run
//! use cs_core::Switch;
//! use cs_runtime::Runtime;
//! use cs_obs::RuntimeObsExt;
//!
//! let rt = Runtime::new(Switch::builder().build());
//! let obs = rt.serve_obs("127.0.0.1:0").expect("bind");
//! println!("scrape me at http://{}/metrics", obs.local_addr().unwrap());
//! // … run the workload …
//! obs.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod drift;
mod http;
mod sampler;

pub use drift::{DriftDetector, DriftEvent, DRIFT_DIMENSIONS};

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cs_core::Switch;
use cs_runtime::{Runtime, SiteStats};
use cs_telemetry::{
    export_engine, export_process, Counter, FlightRecorder, FloatGauge, Histogram, MetricsRegistry,
};
use parking_lot::Mutex;

/// What the plane observes: a bare engine or a full runtime. The runtime
/// variant adds per-site counters (and therefore site drift); the engine
/// variant still serves every endpoint and bands the process.
#[derive(Debug, Clone)]
pub(crate) enum Source {
    Engine(Switch),
    Runtime(Runtime),
}

impl Source {
    pub(crate) fn engine(&self) -> &Switch {
        match self {
            Source::Engine(engine) => engine,
            Source::Runtime(rt) => rt.engine(),
        }
    }

    /// The full scrape-path export, procfs gauges included.
    pub(crate) fn export(&self, registry: &MetricsRegistry) {
        match self {
            Source::Engine(engine) => {
                export_engine(registry, engine);
                export_process(registry);
            }
            Source::Runtime(rt) => rt.export_metrics(registry),
        }
    }

    /// The in-memory sampler-path export: counters only, no syscalls.
    pub(crate) fn sample_into(&self, registry: &MetricsRegistry) {
        match self {
            Source::Engine(engine) => export_engine(registry, engine),
            Source::Runtime(rt) => {
                rt.export_site_metrics(registry);
                export_engine(registry, rt.engine());
            }
        }
    }

    /// The runtime's site rows, the detector's input; none for a bare
    /// engine.
    pub(crate) fn sites(&self) -> Vec<SiteStats> {
        match self {
            Source::Engine(_) => Vec::new(),
            Source::Runtime(rt) => rt.sites(),
        }
    }

    pub(crate) fn manifest(&self) -> Vec<cs_core::SiteManifestEntry> {
        match self {
            Source::Engine(engine) => engine.site_manifest(),
            Source::Runtime(rt) => rt.site_manifest(),
        }
    }
}

/// Pre-registered handles for the plane's own `cs_obs_*` families, so the
/// sampler and handlers touch a single atomic each instead of re-entering
/// the registry lock per event.
#[derive(Debug)]
pub(crate) struct SelfMetrics {
    pub(crate) sampler_ticks: Counter,
    pub(crate) sampler_busy_nanos: Counter,
    pub(crate) sampler_overhead_ratio: FloatGauge,
    pub(crate) handler_busy_nanos: Counter,
    pub(crate) scrape_duration: Histogram,
    pub(crate) scrape_errors: Counter,
    pub(crate) worker_panics: Counter,
    pub(crate) http_rejected: Counter,
}

/// Sub-millisecond through one-second buckets: a scrape is an in-memory
/// render, so anything beyond 1 s is pathological and lands in `+Inf`.
const SCRAPE_DURATION_BUCKETS: [f64; 8] = [0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.25, 1.0];

impl SelfMetrics {
    fn register(registry: &MetricsRegistry) -> SelfMetrics {
        SelfMetrics {
            sampler_ticks: registry.counter(
                "cs_obs_sampler_ticks_total",
                "Sampler ticks taken (thread or manual).",
                &[],
            ),
            sampler_busy_nanos: registry.counter(
                "cs_obs_sampler_busy_nanos_total",
                "Wall nanoseconds the sampler spent inside ticks.",
                &[],
            ),
            sampler_overhead_ratio: registry.float_gauge(
                "cs_obs_sampler_overhead_ratio",
                "Sampler busy time over the plane's lifetime wall time.",
                &[],
            ),
            handler_busy_nanos: registry.counter(
                "cs_obs_handler_busy_nanos_total",
                "Wall nanoseconds HTTP workers spent building responses.",
                &[],
            ),
            scrape_duration: registry.histogram(
                "cs_obs_scrape_duration_seconds",
                "Time to parse, build, and stage one HTTP response.",
                &[],
                &SCRAPE_DURATION_BUCKETS,
            ),
            scrape_errors: registry.counter(
                "cs_obs_scrape_errors_total",
                "Scrapes that failed exposition self-validation (served as 500).",
                &[],
            ),
            worker_panics: registry.counter(
                "cs_obs_worker_panics_total",
                "HTTP worker panics caught and survived.",
                &[],
            ),
            http_rejected: registry.counter(
                "cs_obs_http_rejected_total",
                "Connections shed with 503 because the hand-off backlog was full.",
                &[],
            ),
        }
    }

    /// The per-endpoint request counter (labelled, so created on demand —
    /// the registry dedups to the same cell per endpoint).
    pub(crate) fn scrape_for(&self, registry: &MetricsRegistry, endpoint: &str) -> Counter {
        registry.counter(
            "cs_obs_scrapes_total",
            "HTTP requests served, by endpoint.",
            &[("endpoint", endpoint)],
        )
    }
}

/// Everything the server, sampler, and handle share.
#[derive(Debug)]
pub(crate) struct ObsCore {
    pub(crate) registry: MetricsRegistry,
    pub(crate) source: Source,
    pub(crate) flight: Option<Arc<FlightRecorder>>,
    pub(crate) drift: Mutex<DriftDetector>,
    pub(crate) metrics: SelfMetrics,
    pub(crate) started: Instant,
}

/// Configures and launches an observation plane. Defaults: 2 HTTP
/// workers, a 16-connection backlog, a 250 ms sampler and a fresh
/// registry. The drift detector is fixed.
#[derive(Debug)]
pub struct ObsBuilder {
    addr: Option<String>,
    workers: usize,
    backlog: usize,
    sampler_interval: Option<Duration>,
    registry: Option<MetricsRegistry>,
    flight: Option<Arc<FlightRecorder>>,
}

impl Default for ObsBuilder {
    fn default() -> ObsBuilder {
        ObsBuilder {
            addr: None,
            workers: 2,
            backlog: 16,
            sampler_interval: Some(Duration::from_millis(250)),
            registry: None,
            flight: None,
        }
    }
}

impl ObsBuilder {
    /// Starts a default configuration.
    pub fn new() -> ObsBuilder {
        ObsBuilder::default()
    }

    /// Serve HTTP on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    /// Without an address no server starts — the sampler and the drift
    /// detector still run, which is the headless-test configuration.
    pub fn addr(mut self, addr: impl Into<String>) -> ObsBuilder {
        self.addr = Some(addr.into());
        self
    }

    /// HTTP worker threads (minimum 1).
    pub fn workers(mut self, workers: usize) -> ObsBuilder {
        self.workers = workers;
        self
    }

    /// Bounded accept→worker hand-off; connections beyond it get `503`.
    pub fn backlog(mut self, backlog: usize) -> ObsBuilder {
        self.backlog = backlog;
        self
    }

    /// Sampler tick interval.
    pub fn sample_every(mut self, interval: Duration) -> ObsBuilder {
        self.sampler_interval = Some(interval);
        self
    }

    /// No sampler thread: ticks happen only via [`ObsHandle::tick`].
    /// Deterministic by construction — what the drift tests and the
    /// `obs_server` example use.
    pub fn manual_sampler(mut self) -> ObsBuilder {
        self.sampler_interval = None;
        self
    }

    /// Export into (and serve) an existing registry instead of a fresh
    /// one — so the scrape page includes families other subsystems
    /// already maintain there.
    pub fn registry(mut self, registry: MetricsRegistry) -> ObsBuilder {
        self.registry = Some(registry);
        self
    }

    /// Wire a flight recorder: `/incidents` serves its ring, and fired
    /// drifts are recorded through it as `phase_shift` incidents.
    pub fn flight(mut self, flight: Arc<FlightRecorder>) -> ObsBuilder {
        self.flight = Some(flight);
        self
    }

    /// Launches the plane over a full runtime (per-site drift).
    pub fn spawn_runtime(self, rt: &Runtime) -> std::io::Result<ObsHandle> {
        self.spawn(Source::Runtime(rt.clone()))
    }

    /// Launches the plane over a bare engine (no per-site runtime
    /// counters, so no site drift — the process band and every endpoint
    /// still work).
    pub fn spawn_engine(self, engine: &Switch) -> std::io::Result<ObsHandle> {
        self.spawn(Source::Engine(engine.clone()))
    }

    fn spawn(self, source: Source) -> std::io::Result<ObsHandle> {
        let registry = self.registry.unwrap_or_default();
        let metrics = SelfMetrics::register(&registry);
        let core = Arc::new(ObsCore {
            registry,
            source,
            flight: self.flight,
            drift: Mutex::new(DriftDetector::new()),
            metrics,
            started: Instant::now(),
        });
        let server = match &self.addr {
            Some(addr) => Some(http::spawn(
                Arc::clone(&core),
                addr.as_str(),
                self.workers,
                self.backlog,
            )?),
            None => None,
        };
        let sampler_thread = self
            .sampler_interval
            .map(|interval| sampler::spawn(Arc::clone(&core), interval));
        Ok(ObsHandle {
            core,
            server,
            sampler: sampler_thread,
        })
    }
}

/// A running observation plane: the server (if an address was given) and
/// the sampler (unless manual). Dropping the handle shuts everything down
/// and joins every thread.
#[derive(Debug)]
pub struct ObsHandle {
    core: Arc<ObsCore>,
    server: Option<http::ServerHandle>,
    sampler: Option<sampler::SamplerHandle>,
}

impl ObsHandle {
    /// The server's bound address (`None` when running headless).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(|s| s.local_addr())
    }

    /// The registry the plane exports into and serves.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.core.registry
    }

    /// Takes one sampler tick right now (works with or without the
    /// sampler thread) and returns any drift events it fired — already
    /// recorded as incidents and counted on `cs_obs_phase_shifts_total`.
    pub fn tick(&self) -> Vec<DriftEvent> {
        sampler::tick(&self.core)
    }

    /// Total drift events fired since launch.
    pub fn phase_shifts(&self) -> u64 {
        self.core.drift.lock().fired_total()
    }

    /// Stops the server and sampler and joins their threads. Also runs on
    /// drop; call explicitly when you want the join to happen *now*.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(mut sampler) = self.sampler.take() {
            sampler.stop();
        }
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for ObsHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `serve_obs` for [`Runtime`]: the one-liner wiring for the common case.
pub trait RuntimeObsExt {
    /// Serves the operational plane for this runtime on `addr` with
    /// default settings ([`ObsBuilder::default`]); `"host:0"` binds an
    /// ephemeral port, readable back via [`ObsHandle::local_addr`].
    fn serve_obs(&self, addr: &str) -> std::io::Result<ObsHandle>;
}

impl RuntimeObsExt for Runtime {
    fn serve_obs(&self, addr: &str) -> std::io::Result<ObsHandle> {
        ObsBuilder::new().addr(addr).spawn_runtime(self)
    }
}

/// `serve_obs` for a bare [`Switch`] (no runtime tier).
pub trait SwitchObsExt {
    /// Serves the operational plane for this engine on `addr` with
    /// default settings.
    fn serve_obs(&self, addr: &str) -> std::io::Result<ObsHandle>;
}

impl SwitchObsExt for Switch {
    fn serve_obs(&self, addr: &str) -> std::io::Result<ObsHandle> {
        ObsBuilder::new().addr(addr).spawn_engine(self)
    }
}

// The core crosses the accept/worker/sampler thread boundary.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ObsCore>();
    assert_send_sync::<ObsHandle>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: obs\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        (status, head.to_owned(), body.to_owned())
    }

    #[test]
    fn engine_plane_serves_all_endpoints() {
        use cs_collections::ListKind;
        let engine = Switch::builder().build();
        let ctx = engine.list_context::<i64>(ListKind::Array);
        for _ in 0..50 {
            let mut list = ctx.create_list();
            for v in 0..120 {
                list.push(v);
            }
        }
        engine.analyze_now();

        let obs = engine.serve_obs("127.0.0.1:0").expect("bind");
        let addr = obs.local_addr().expect("server address");

        let (status, head, body) = get(addr, "/metrics");
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("# TYPE cs_engine_contexts gauge"), "{body}");
        assert!(body.contains("cs_process_uptime_seconds"), "{body}");
        cs_telemetry::validate_prometheus_text(&body).expect("served page validates");

        let (status, _, body) = get(addr, "/health");
        assert_eq!(status, 200);
        let health = cs_telemetry::Json::parse(&body).expect("health is JSON");
        assert_eq!(
            health.get("degraded").and_then(|j| j.as_bool()),
            Some(false)
        );
        assert!(
            health.get("uptime_seconds").and_then(|j| j.as_f64()) > Some(0.0),
            "{body}"
        );

        let (status, _, body) = get(addr, "/sites");
        assert_eq!(status, 200);
        let sites = cs_telemetry::Json::parse(&body).expect("sites are JSON");
        let entries = sites.as_array().expect("array");
        assert_eq!(entries.len(), 1);
        let site_id = entries[0].get("id").and_then(|j| j.as_u64()).expect("id");

        let (status, _, body) = get(addr, &format!("/explain/{site_id}"));
        assert_eq!(status, 200, "{body}");
        let explain = cs_telemetry::Json::parse(&body).expect("explanation is JSON");
        assert!(explain.get("current").is_some(), "{body}");
        assert!(explain.get("candidates").is_some(), "{body}");

        let (status, _, _) = get(addr, "/explain/999999");
        assert_eq!(status, 404);
        let (status, _, _) = get(addr, "/explain/not-a-number");
        assert_eq!(status, 400);

        let (status, head, body) = get(addr, "/incidents");
        assert_eq!(status, 200);
        assert!(head.contains("application/x-ndjson"));
        assert!(body.is_empty(), "no recorder wired: {body}");

        let (status, _, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _, body) = get(addr, "/");
        assert_eq!(status, 200);
        assert!(body.contains("/metrics"), "{body}");

        // Self-metrics counted the traffic.
        let snap = obs.registry().snapshot();
        assert!(
            snap.counter_total("cs_obs_scrapes_total").unwrap_or(0) >= 8,
            "all requests counted"
        );
        obs.shutdown();
    }

    #[test]
    fn post_and_garbage_get_clean_errors() {
        let engine = Switch::builder().build();
        let obs = engine.serve_obs("127.0.0.1:0").expect("bind");
        let addr = obs.local_addr().expect("addr");

        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 405 "), "{raw}");

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"%%%\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
        obs.shutdown();
    }

    #[test]
    fn headless_plane_ticks_manually() {
        use cs_collections::MapKind;
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "obs-map");
        let obs = ObsBuilder::new()
            .manual_sampler()
            .spawn_runtime(&rt)
            .expect("headless spawn");
        assert!(obs.local_addr().is_none());

        for i in 0..100u64 {
            map.insert(i, i);
        }
        rt.flush();
        obs.tick();
        for i in 0..50u64 {
            map.get(&i);
        }
        rt.flush();
        obs.tick();

        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter_total("cs_obs_sampler_ticks_total"), Some(2));
        // The ticks mirrored the site's 100 inserts and 50 lookups.
        assert_eq!(snap.counter_total("cs_runtime_site_ops_total"), Some(150));
        assert_eq!(obs.phase_shifts(), 0, "two ticks cannot fire a band");
        obs.shutdown();
    }

    #[test]
    fn sampler_thread_ticks_without_a_server() {
        let rt = Runtime::new(Switch::builder().build());
        let obs = ObsBuilder::new()
            .sample_every(Duration::from_millis(5))
            .spawn_runtime(&rt)
            .expect("spawn");
        let ticks = || {
            obs.registry()
                .snapshot()
                .counter_total("cs_obs_sampler_ticks_total")
                .unwrap_or(0)
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while ticks() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(ticks() >= 3, "sampler thread ticked");
        obs.shutdown();
    }
}
