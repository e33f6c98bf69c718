//! The embedded scrape/debug server: a dependency-free HTTP/1.1 endpoint
//! over `std::net`, serving the five operational routes.
//!
//! Topology: one accept thread plus a small fixed pool of worker threads
//! fed through a bounded channel. Every connection is handled behind
//! `catch_unwind`, so a panic in a handler (or in an exporter it calls)
//! burns one response, increments `cs_obs_worker_panics_total`, and leaves
//! the server serving. When the hand-off channel is full the accept thread
//! answers `503` inline rather than queueing unboundedly — scrape traffic
//! is lossy by design, never a memory hazard. Shutdown is graceful: a
//! latch flips, a self-connection unblocks `accept`, the channel closes,
//! and every thread is joined.
//!
//! This module is the designated home of all socket I/O in the crate; the
//! sampler-path modules (`sampler.rs`, `drift.rs`) are held I/O-free by the
//! analyzer's `no-blocking-io-in-sampler-path` lint.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cs_telemetry::{health_to_json, manifest_entry_to_json, validate_prometheus_text, Json};

use parking_lot::Mutex;

use crate::ObsCore;

/// Largest request head the parser will buffer before answering `431`.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket timeout: a stalled scraper may cost one worker
/// this long, never a wedge.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);
/// How long the accept thread waits on a shed client's request and, after
/// the 503, on its close.
const SHED_DRAIN: Duration = Duration::from_millis(100);

/// A running server: its bound address plus everything `shutdown` joins.
#[derive(Debug)]
pub(crate) struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, joins every thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock `accept` with a throwaway connection; if connect fails
        // the listener is already gone, which is just as final.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and spawns the accept thread and `workers` handlers.
pub(crate) fn spawn<A: ToSocketAddrs>(
    core: Arc<ObsCore>,
    addr: A,
    workers: usize,
    backlog: usize,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let workers = workers.max(1);

    let (tx, rx) = sync_channel::<TcpStream>(backlog.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut worker_threads = Vec::with_capacity(workers);
    for i in 0..workers {
        let core = Arc::clone(&core);
        let rx = Arc::clone(&rx);
        let thread = std::thread::Builder::new()
            .name(format!("cs-obs-http-{i}"))
            .spawn(move || worker_loop(&core, &rx))
            .expect("spawn cs-obs http worker");
        worker_threads.push(thread);
    }

    let accept_core = Arc::clone(&core);
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("cs-obs-http-accept".to_owned())
        .spawn(move || accept_loop(&accept_core, &listener, &tx, &accept_stop))
        .expect("spawn cs-obs http accept thread");

    Ok(ServerHandle {
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
        workers: worker_threads,
    })
}

fn accept_loop(
    core: &ObsCore,
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    stop: &AtomicBool,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Bounded hand-off: shed load at the door instead of
                // queueing. Closing a socket with unread data makes the
                // kernel RST it, and the client would see a reset instead
                // of the 503: read the (tiny) request, answer, half-close,
                // then drain until the client closes its side. The request
                // read and the whole drain are each capped at 100 ms (each
                // drain read waits only for what is left of it), so a shed
                // client holds the accept loop for at most 200 ms of reads
                // plus the write timeout.
                core.metrics.http_rejected.inc();
                let _ = stream.set_read_timeout(Some(SHED_DRAIN));
                let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
                let mut sink = [0u8; 1024];
                let _ = stream.read(&mut sink);
                let _ = stream.write_all(
                    render_response(
                        503,
                        "Service Unavailable",
                        "text/plain; charset=utf-8",
                        "scrape backlog full\n",
                    )
                    .as_bytes(),
                );
                let _ = stream.shutdown(Shutdown::Write);
                let deadline = Instant::now() + SHED_DRAIN;
                loop {
                    let left = deadline.saturating_duration_since(Instant::now());
                    // A zero read timeout is rejected, so stop before it.
                    if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                        break;
                    }
                    if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
                        break;
                    }
                }
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` (by returning) closes the channel; workers drain what
    // was already queued and exit.
}

fn worker_loop(core: &ObsCore, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Holding the lock across `recv` is deliberate: exactly one idle
        // worker camps on the channel, the rest queue on the mutex, and
        // the guard drops before the (slow) handler runs.
        let next = rx.lock().recv();
        let Ok(stream) = next else { break };
        let result = catch_unwind(AssertUnwindSafe(|| handle_connection(core, stream)));
        if result.is_err() {
            core.metrics.worker_panics.inc();
        }
    }
}

fn handle_connection(core: &ObsCore, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let started = Instant::now();

    let response = match read_request_head(&mut stream) {
        Ok(head) => match parse_request_line(&head) {
            Some(("GET", path)) => route(core, path),
            Some((_, _)) => plain(405, "Method Not Allowed", "only GET is served\n"),
            None => plain(400, "Bad Request", "unparseable request line\n"),
        },
        Err(RequestError::TooLarge) => plain(
            431,
            "Request Header Fields Too Large",
            "request head exceeds 8 KiB\n",
        ),
        Err(RequestError::Io) => return, // peer vanished; nothing to say
    };

    core.metrics
        .scrape_duration
        .observe(started.elapsed().as_secs_f64());
    core.metrics
        .handler_busy_nanos
        .add(started.elapsed().as_nanos() as u64);
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

enum RequestError {
    TooLarge,
    Io,
}

/// Reads until the end of the request head (`\r\n\r\n`) or the size cap.
fn read_request_head(stream: &mut TcpStream) -> Result<String, RequestError> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err(RequestError::TooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(RequestError::Io),
        }
    }
    String::from_utf8(buf).map_err(|_| RequestError::Io)
}

/// `GET /path HTTP/1.1` → `("GET", "/path")`. Strips any query string.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target);
    Some((method, path))
}

/// Dispatches one parsed GET to its endpoint handler.
fn route(core: &ObsCore, path: &str) -> String {
    let endpoint = match path {
        "/metrics" => "metrics",
        "/health" => "health",
        "/sites" => "sites",
        "/incidents" => "incidents",
        "/" => "index",
        p if p.starts_with("/explain/") => "explain",
        _ => "other",
    };
    core.metrics.scrape_for(&core.registry, endpoint).inc();
    match endpoint {
        "metrics" => serve_metrics(core),
        "health" => serve_health(core),
        "sites" => serve_sites(core),
        "incidents" => serve_incidents(core),
        "explain" => serve_explain(core, &path["/explain/".len()..]),
        "index" => plain(200, "OK", INDEX_BODY),
        _ => plain(404, "Not Found", "unknown path\n"),
    }
}

const INDEX_BODY: &str = "cs-obs operational plane\n\
    /metrics    Prometheus exposition (validated before serving)\n\
    /health     engine health as JSON (503 when degraded)\n\
    /sites      site manifest as JSON\n\
    /explain/N  selection explanation for site N as JSON\n\
    /incidents  flight-recorder ring as JSONL\n";

/// `GET /metrics`: full export (including the procfs-backed process
/// gauges), rendered and then **validated** — an exposition the workspace
/// validator rejects is served as a `500` carrying the errors, because a
/// silently malformed scrape page is worse than a loud one.
fn serve_metrics(core: &ObsCore) -> String {
    core.source.export(&core.registry);
    let text = core.registry.snapshot().to_prometheus_text();
    match validate_prometheus_text(&text) {
        Ok(()) => render_response(200, "OK", "text/plain; version=0.0.4; charset=utf-8", &text),
        Err(errors) => {
            core.metrics.scrape_errors.inc();
            let body = format!(
                "exposition failed self-validation:\n{}\n",
                errors.join("\n")
            );
            plain(500, "Internal Server Error", &body)
        }
    }
}

/// `GET /health`: [`cs_core::Switch::health`] plus uptime, as JSON. The
/// status code mirrors the degraded latch so load balancers and probes
/// need no JSON parsing: `503` exactly when adaptation is frozen.
fn serve_health(core: &ObsCore) -> String {
    let engine = core.source.engine();
    let health = engine.health();
    let degraded = health.degraded;
    let body = health_to_json(&health)
        .field("uptime_seconds", engine.uptime().as_secs_f64())
        .field(
            "analysis_time_seconds",
            engine.analysis_time_total().as_secs_f64(),
        )
        .render_pretty();
    if degraded {
        json_response(503, "Service Unavailable", &body)
    } else {
        json_response(200, "OK", &body)
    }
}

/// `GET /sites`: the site manifest as a JSON array.
fn serve_sites(core: &ObsCore) -> String {
    let entries: Vec<Json> = core
        .source
        .manifest()
        .iter()
        .map(manifest_entry_to_json)
        .collect();
    json_response(200, "OK", &Json::Array(entries).render_pretty())
}

/// `GET /explain/<site_id>`: the engine's selection explanation for one
/// site — the paper's §4.4 "explain the switch" requirement, live.
fn serve_explain(core: &ObsCore, raw_id: &str) -> String {
    let Ok(id) = raw_id.parse::<u64>() else {
        let body = Json::object()
            .field("error", "site id must be an integer")
            .field("got", raw_id)
            .render();
        return json_response(400, "Bad Request", &body);
    };
    match core.source.engine().explain(id) {
        Some(explanation) => json_response(
            200,
            "OK",
            &cs_telemetry::explanation_to_json(&explanation).render_pretty(),
        ),
        None => {
            let body = Json::object()
                .field(
                    "error",
                    "no such site (or no analysis round has scored it yet)",
                )
                .field("site_id", id)
                .render();
            json_response(404, "Not Found", &body)
        }
    }
}

/// `GET /incidents`: the flight recorder's in-memory ring, oldest first,
/// one JSON document per line. Empty (but `200`) when no recorder is
/// wired or nothing has fired.
fn serve_incidents(core: &ObsCore) -> String {
    let mut body = String::new();
    if let Some(flight) = &core.flight {
        for line in flight.recent_incidents() {
            body.push_str(&line);
            body.push('\n');
        }
    }
    render_response(200, "OK", "application/x-ndjson", &body)
}

fn plain(status: u16, reason: &str, body: &str) -> String {
    render_response(status, reason, "text/plain; charset=utf-8", body)
}

fn json_response(status: u16, reason: &str, body: &str) -> String {
    render_response(status, reason, "application/json", body)
}

fn render_response(status: u16, reason: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n\
         {body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parsing_strips_query_and_rejects_garbage() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line("GET /explain/3?verbose=1 HTTP/1.1\r\n\r\n"),
            Some(("GET", "/explain/3"))
        );
        assert_eq!(
            parse_request_line("POST /metrics HTTP/1.1\r\n\r\n"),
            Some(("POST", "/metrics"))
        );
        assert_eq!(parse_request_line(""), None);
        assert_eq!(parse_request_line("GET"), None);
    }

    #[test]
    fn responses_carry_exact_content_length_and_close() {
        let r = render_response(200, "OK", "text/plain", "hello\n");
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Length: 6\r\n"));
        assert!(r.contains("Connection: close\r\n"));
        assert!(r.ends_with("\r\n\r\nhello\n"));
    }
}
