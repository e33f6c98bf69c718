//! Allocation-spike detection, end to end: provoke a real allocation burst,
//! watch the obs plane's band detector fire a `phase_shift` incident on the
//! `process` pseudo-site, and validate the record it freezes.
//!
//! ```text
//! cargo run --release --example alloc_spike
//! ```
//!
//! Installs the opt-in [`CountingAlloc`] global allocator (without it the
//! process ledger reads zero and the band never fires), wires a
//! [`FlightRecorder`] to an engine, and spawns a headless obs plane over
//! that engine with a manual sampler. Each frame churns a small, steady
//! amount and ticks the sampler, so the `process` band
//! (`alloc_bytes_per_frame`) warms up: the first frame sets the ledger
//! baseline and the next 8 are scored without firing. Then one frame
//! allocates a multi-megabyte burst, which must fire. A calm frame follows
//! and must not fire (the band re-arms), and a burst 4× the first must
//! fire again, proving the detector is edge-triggered, not a one-shot. The
//! example then re-reads the shared JSONL stream and validates it with
//! [`Json::parse`]:
//!
//! * every line in the stream parses,
//! * exactly two records have `kind: "incident"`, each with
//!   `trigger: "phase_shift"`, `detail.site == "process"`,
//!   `detail.dimension == "alloc_bytes_per_frame"` and an observed value
//!   above the band's mean,
//! * each incident carries the frozen process heap account (`heap`) with a
//!   live allocation ledger — nonzero alloc counts/bytes and a `live_bytes`
//!   balance — plus the tracer's self-overhead account.
//!
//! This example is CI's alloc-spike check: it exits nonzero on any missing
//! or malformed piece, so running it IS the validation.

use std::hint::black_box;
use std::sync::Arc;

use collection_switch::prelude::*;
use collection_switch::telemetry::{FlightRecorder, Json};

/// Opt-in heap observability: the process band reads the counting ledger,
/// which only moves when this allocator is installed.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Calm frames before the burst: the ledger baseline plus the band's
/// 8-frame warm-up.
const CALM_FRAMES: usize = 9;
/// Steady-state churn per calm frame, far under the band's 1 MiB floor.
const CALM_BYTES: usize = 16 * 1024;
/// One-frame burst; ≫ the 1 MiB floor of a calm band.
const BURST_BYTES: usize = 8 * 1024 * 1024;

fn fail(why: &str) -> ! {
    eprintln!("alloc_spike: FAILED: {why}");
    std::process::exit(1);
}

fn expect<'a>(doc: &'a Json, field: &str) -> &'a Json {
    doc.get(field)
        .unwrap_or_else(|| fail(&format!("incident record is missing {field:?}")))
}

fn number(doc: &Json, field: &str) -> f64 {
    expect(doc, field)
        .as_f64()
        .unwrap_or_else(|| fail(&format!("{field:?} is not a number")))
}

/// Allocates (and immediately releases) about `bytes` in 1 KiB chunks, then
/// ticks the sampler, so a frame's delta is dominated by intentional churn.
fn frame(obs: &ObsHandle, bytes: usize) {
    for _ in 0..bytes / 1024 {
        black_box(vec![0u8; 1024]);
    }
    obs.tick();
}

fn main() {
    if !collection_switch::heap::counting_active() {
        fail("the counting allocator did not install — the ledger is dead");
    }

    // -- Wire the pipeline -------------------------------------------------
    let registry = MetricsRegistry::new();
    let stream_path = std::env::temp_dir().join("cs_alloc_spike.jsonl");
    let jsonl =
        Arc::new(JsonlSink::create(&stream_path, 10_000).unwrap_or_else(|e| fail(&e.to_string())));
    let recorder = Arc::new(FlightRecorder::new(Arc::clone(&jsonl), registry.clone()));
    let engine = Switch::builder()
        .event_sink(Arc::new(MetricsSink::new(registry.clone())))
        .event_sink(jsonl.clone())
        .event_sink(recorder.clone())
        .build();
    recorder.attach(&engine);
    let obs = ObsBuilder::new()
        .manual_sampler()
        .registry(registry.clone())
        .flight(Arc::clone(&recorder))
        .spawn_engine(&engine)
        .unwrap_or_else(|e| fail(&format!("spawn the obs plane: {e}")));

    // -- Warm the band, then burst ------------------------------------------
    for _ in 0..CALM_FRAMES {
        frame(&obs, CALM_BYTES);
    }
    if recorder.incidents_recorded() != 0 {
        fail("an incident fired during calm frames — the baseline is broken");
    }

    frame(&obs, BURST_BYTES); // delta ≈ 8 MiB against a 1 MiB half-width
    if recorder.incidents_recorded() != 1 {
        fail("the allocation burst did not fire exactly one incident");
    }

    // The calm frame after the burst falls back inside the widened band and
    // re-arms the latch without firing. The burst lifted the band's mean
    // and deviation (one EWMA step), so the second burst is 4× the first to
    // clear the widened band decisively.
    frame(&obs, CALM_BYTES);
    if recorder.incidents_recorded() != 1 {
        fail("the calm frame after the burst fired");
    }
    frame(&obs, 4 * BURST_BYTES);
    let incidents = recorder.incidents_recorded();
    if incidents != 2 || obs.phase_shifts() != 2 {
        fail(&format!(
            "expected exactly 2 process phase shifts (burst, calm, burst), got {incidents} \
             incidents and {} detector firings",
            obs.phase_shifts()
        ));
    }
    let counted = registry
        .snapshot()
        .counter_total("cs_obs_phase_shifts_total");
    if counted != Some(2) {
        fail(&format!(
            "cs_obs_phase_shifts_total reads {counted:?}, expected 2"
        ));
    }
    obs.shutdown();
    jsonl.flush().unwrap_or_else(|e| fail(&e.to_string()));

    // -- Re-read and validate the stream ------------------------------------
    let content = std::fs::read_to_string(&stream_path).unwrap_or_else(|e| fail(&e.to_string()));
    let mut spikes = Vec::new();
    for (n, line) in content.lines().enumerate() {
        let doc = Json::parse(line)
            .unwrap_or_else(|e| fail(&format!("line {} is not valid JSON: {e}", n + 1)));
        if doc.get("kind").and_then(Json::as_str) == Some("incident") {
            if doc.get("trigger").and_then(Json::as_str) != Some("phase_shift") {
                fail("a non-phase_shift incident appeared in this workload");
            }
            spikes.push(doc);
        }
    }
    println!(
        "stream: {} lines, {} phase_shift incident(s)",
        content.lines().count(),
        spikes.len()
    );
    if spikes.len() != 2 {
        fail(&format!(
            "counted {} phase_shift records in the stream, expected 2",
            spikes.len()
        ));
    }

    for incident in &spikes {
        // The band evidence: the process pseudo-site's allocation per frame
        // broke out upwards.
        let detail = expect(incident, "detail");
        if detail.get("site").and_then(Json::as_str) != Some("process") {
            fail("the incident's detail does not name the process pseudo-site");
        }
        if detail.get("dimension").and_then(Json::as_str) != Some("alloc_bytes_per_frame") {
            fail("the incident's detail does not name alloc_bytes_per_frame");
        }
        let (observed, mean) = (number(detail, "observed"), number(detail, "mean"));
        if observed <= mean {
            fail(&format!(
                "a burst must land above the band: observed {observed}, mean {mean}"
            ));
        }
        // The frozen process heap account is the incident's payload: the
        // post-mortem reads the ledger the detector judged.
        let heap = expect(incident, "heap");
        let alloc_bytes = expect(heap, "alloc_bytes")
            .as_u64()
            .unwrap_or_else(|| fail("heap.alloc_bytes is not an integer"));
        if alloc_bytes < BURST_BYTES as u64 {
            fail("frozen heap account predates the burst it should explain");
        }
        for field in [
            "alloc_count",
            "dealloc_count",
            "dealloc_bytes",
            "realloc_count",
            "realloc_bytes",
            "live_bytes",
        ] {
            let _ = expect(heap, field);
        }
        // No engine event triggered this — the detector watched the ledger.
        if expect(incident, "event") != &Json::Null {
            fail("the phase_shift embeds an engine event but none triggered it");
        }
        let overhead = expect(incident, "overhead");
        for field in ["framework_nanos", "tracer_nanos", "app_nanos", "app_ops"] {
            let _ = expect(overhead, field);
        }
    }

    println!(
        "incidents seq {} and {} validated: phase_shift on process/alloc_bytes_per_frame, \
         ledger frozen",
        expect(&spikes[0], "seq").render(),
        expect(&spikes[1], "seq").render(),
    );
    std::fs::remove_file(&stream_path).ok();
    println!("alloc_spike: OK");
}
