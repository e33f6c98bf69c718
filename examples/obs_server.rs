//! The live operational plane, end to end: serve a running runtime over
//! HTTP, scrape every endpoint with raw TCP, then force an op-mix phase
//! shift and watch it land as a `phase_shift` incident.
//!
//! ```text
//! cargo run --release --example obs_server
//! ```
//!
//! The script a human would follow with `curl`, automated and asserted:
//!
//! 1. wire a runtime + flight recorder + metrics registry, start
//!    `serve_obs` on an ephemeral port with a *manual* sampler (the
//!    example ticks it deterministically — no timer races),
//! 2. run an insert-heavy phase, ticking the sampler each batch,
//! 3. scrape all five endpoints and validate each one: `/metrics` passes
//!    the exposition validator, `/health` parses and is not degraded,
//!    `/sites` lists the map site, `/explain/<id>` parses via
//!    [`Json::parse`] and carries candidates, `/incidents` has no
//!    `phase_shift` yet,
//! 4. flip the workload read-heavy, tick on — the drift detector must
//!    fire, `cs_obs_phase_shifts_total` must rise, and `/incidents` must
//!    now serve a `phase_shift` incident whose detail names the site and
//!    an op-mix dimension,
//! 5. shut down gracefully and verify the port actually closed.
//!
//! This example is CI's obs-check: it exits nonzero on any violated
//! expectation, so running it IS the validation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use collection_switch::obs::{DriftConfig, ObsBuilder, ObsHandle};
use collection_switch::runtime::ConcurrentMap;
use collection_switch::telemetry::{
    validate_prometheus_text, FlightRecorder, FlightRecorderConfig, Json,
};
use collection_switch::prelude::*;

fn fail(msg: &str) -> ! {
    eprintln!("obs_server: FAIL: {msg}");
    std::process::exit(1);
}

/// A raw-TCP `curl -i`: returns (status, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream =
        TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    write!(stream, "GET {path} HTTP/1.1\r\nHost: obs-example\r\n\r\n")
        .unwrap_or_else(|e| fail(&format!("send GET {path}: {e}")));
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .unwrap_or_else(|e| fail(&format!("read GET {path}: {e}")));
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| fail(&format!("no status line in response to {path}")));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn parse_json(path: &str, body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON ({e}): {body}")))
}

/// One workload batch at the given read fraction, flushed and sampled.
fn batch(
    map: &ConcurrentMap<u64, u64>,
    rt: &Runtime,
    obs: &ObsHandle,
    reads_per_100: u64,
    round: u64,
) {
    for i in 0..2_000u64 {
        let key = (round * 2_000 + i) % 512;
        if i % 100 < reads_per_100 {
            std::hint::black_box(map.get(&key));
        } else {
            map.insert(key, i);
        }
    }
    rt.flush();
    obs.tick();
}

fn main() {
    // -- 1. Wire the plane -------------------------------------------------
    let registry = MetricsRegistry::new();
    let stream_path = std::env::temp_dir().join("cs_obs_server.jsonl");
    let jsonl = Arc::new(
        JsonlSink::create(&stream_path, 10_000)
            .unwrap_or_else(|e| fail(&format!("create jsonl sink: {e}"))),
    );
    let recorder = Arc::new(FlightRecorder::new(
        Arc::clone(&jsonl),
        registry.clone(),
        FlightRecorderConfig::default(),
    ));
    let engine = Switch::builder()
        .event_sink(Arc::new(MetricsSink::new(registry.clone())))
        .event_sink(recorder.clone())
        .build();
    recorder.attach(&engine);
    let rt = Runtime::new(engine);
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "phase-map");

    let obs = ObsBuilder::new()
        .addr("127.0.0.1:0")
        .manual_sampler()
        .registry(registry.clone())
        .flight(Arc::clone(&recorder))
        .drift(DriftConfig {
            warmup_frames: 6,
            ..DriftConfig::default()
        })
        .spawn_runtime(&rt)
        .unwrap_or_else(|e| fail(&format!("bind obs server: {e}")));
    let addr = obs.local_addr().unwrap_or_else(|| fail("no local addr"));
    println!("obs_server: serving on http://{addr}/");

    // -- 2. Phase A: insert-heavy, steady ---------------------------------
    for round in 0..10 {
        batch(&map, &rt, &obs, 10, round);
    }
    if obs.phase_shifts() != 0 {
        fail("steady phase A must not fire the drift detector");
    }
    rt.analyze_now();

    // -- 3. Scrape and validate all five endpoints -------------------------
    let (status, body) = get(addr, "/metrics");
    if status != 200 {
        fail(&format!("/metrics answered {status}: {body}"));
    }
    validate_prometheus_text(&body)
        .unwrap_or_else(|e| fail(&format!("/metrics failed validation: {e:?}")));
    if !body.contains("cs_obs_sampler_ticks_total 10") {
        fail("sampler self-metrics missing from /metrics");
    }
    println!("obs_server: /metrics OK ({} bytes, validator-clean)", body.len());

    let (status, body) = get(addr, "/health");
    if status != 200 {
        fail(&format!("/health answered {status}: {body}"));
    }
    let health = parse_json("/health", &body);
    if health.get("degraded").and_then(Json::as_bool) != Some(false) {
        fail(&format!("/health reports degraded: {body}"));
    }
    if health.get("uptime_seconds").and_then(Json::as_f64) <= Some(0.0) {
        fail("/health uptime must be positive");
    }
    println!("obs_server: /health OK (healthy, uptime reported)");

    let (status, body) = get(addr, "/sites");
    if status != 200 {
        fail(&format!("/sites answered {status}"));
    }
    let sites = parse_json("/sites", &body);
    let entries = sites.as_array().unwrap_or_else(|| fail("/sites is not an array"));
    let site = entries
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("phase-map"))
        .unwrap_or_else(|| fail(&format!("phase-map missing from /sites: {body}")));
    let site_id = site
        .get("id")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| fail("/sites entry has no id"));
    println!("obs_server: /sites OK (phase-map is site {site_id})");

    let (status, body) = get(addr, &format!("/explain/{site_id}"));
    if status != 200 {
        fail(&format!("/explain/{site_id} answered {status}: {body}"));
    }
    let explain = parse_json("/explain", &body);
    let candidates = explain
        .get("candidates")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail(&format!("/explain carries no candidates: {body}")));
    if candidates.is_empty() {
        fail("/explain candidates list is empty");
    }
    println!(
        "obs_server: /explain/{site_id} OK ({} candidates, outcome {})",
        candidates.len(),
        explain.get("outcome").and_then(Json::as_str).unwrap_or("?")
    );

    let (status, body) = get(addr, "/incidents");
    if status != 200 {
        fail(&format!("/incidents answered {status}"));
    }
    if body.contains("phase_shift") {
        fail("no phase_shift incident may exist before the flip");
    }

    // -- 4. Phase B: flip read-heavy, expect a phase_shift ------------------
    for round in 10..16 {
        batch(&map, &rt, &obs, 95, round);
    }
    let fired = obs.phase_shifts();
    if fired == 0 {
        fail("read-heavy flip did not fire the drift detector");
    }
    println!("obs_server: drift detector fired {fired} phase-shift event(s)");

    let (_, body) = get(addr, "/metrics");
    if !body.contains("cs_obs_phase_shifts_total{site=\"phase-map\"") {
        fail("cs_obs_phase_shifts_total missing after the flip");
    }

    let (status, body) = get(addr, "/incidents");
    if status != 200 {
        fail(&format!("/incidents answered {status} after the flip"));
    }
    let incident = body
        .lines()
        .map(|line| parse_json("/incidents line", line))
        .find(|doc| doc.get("trigger").and_then(Json::as_str) == Some("phase_shift"))
        .unwrap_or_else(|| fail(&format!("no phase_shift incident served: {body}")));
    let detail = incident
        .get("detail")
        .unwrap_or_else(|| fail("phase_shift incident has no detail"));
    if detail.get("site").and_then(Json::as_str) != Some("phase-map") {
        fail(&format!("incident detail names the wrong site: {body}"));
    }
    let dimension = detail
        .get("dimension")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("incident detail has no dimension"));
    if !dimension.ends_with("_fraction") {
        fail(&format!("an op-mix flip must fire a mix dimension, got {dimension}"));
    }
    println!("obs_server: /incidents OK (phase_shift on {dimension})");

    // -- 5. Graceful shutdown ----------------------------------------------
    obs.shutdown();
    if TcpStream::connect(addr).is_ok() {
        fail("port still accepting after shutdown");
    }
    println!("obs_server: shutdown clean, port closed");
    println!("obs_server: PASS");
}
