//! Anomaly flight recorder, end to end: force a real rollback and
//! validate the incident record it freezes.
//!
//! ```text
//! cargo run --release --example flight_recorder
//! ```
//!
//! Builds an engine whose list model is inverted (the "better" variant is
//! actually worse), so the first adaptation switch regresses and the
//! verification guardrail rolls it back — a *real* rollback travelling the
//! production path, not an injected event. A [`FlightRecorder`] subscribed
//! to the engine must then dump an incident record into the shared JSONL
//! stream, and this example re-reads the stream and validates it with
//! [`Json::parse`]:
//!
//! * every line in the stream parses (audit events and incidents interleave),
//! * at least one record has `kind: "incident"` with `trigger: "rollback"`,
//! * the incident carries the triggering rollback event, the site's
//!   selection explanation, the tracer's self-overhead account, and a
//!   non-empty span window (tracing runs in sampled mode throughout).
//!
//! This example is CI's flight-recorder check: it exits nonzero on any
//! missing or malformed piece, so running it IS the validation.

use std::sync::Arc;

use collection_switch::core::Models;
use collection_switch::model::{PerformanceModel, Polynomial, VariantCostModel};
use collection_switch::prelude::*;
use collection_switch::profile::OpKind;
use collection_switch::telemetry::{FlightRecorder, Json};
use collection_switch::trace;

fn flat_list_model(costs: &[(ListKind, f64)]) -> PerformanceModel<ListKind> {
    let mut model = PerformanceModel::new();
    for &(kind, cost) in costs {
        let mut variant = VariantCostModel::new();
        for op in OpKind::ALL {
            variant.set_op_cost(CostDimension::Time, op, Polynomial::constant(cost));
        }
        model.insert_variant(kind, variant);
    }
    model
}

fn fail(why: &str) -> ! {
    eprintln!("flight_recorder: FAILED: {why}");
    std::process::exit(1);
}

fn expect<'a>(doc: &'a Json, field: &str) -> &'a Json {
    doc.get(field)
        .unwrap_or_else(|| fail(&format!("incident record is missing {field:?}")))
}

fn main() {
    trace::set_mode(TraceMode::Sampled);

    // -- Wire the pipeline -------------------------------------------------
    let registry = MetricsRegistry::new();
    let stream_path = std::env::temp_dir().join("cs_flight_recorder.jsonl");
    let jsonl =
        Arc::new(JsonlSink::create(&stream_path, 10_000).unwrap_or_else(|e| fail(&e.to_string())));
    let recorder = Arc::new(FlightRecorder::new(Arc::clone(&jsonl), registry.clone()));

    // An inverted list model: the engine will switch to the "cheap" linked
    // list, measure a regression, and roll back — the trigger under test.
    let models = Models {
        list: flat_list_model(&[
            (ListKind::Array, 100.0),
            (ListKind::Linked, 1.0),
            (ListKind::HashArray, 10_000.0),
            (ListKind::Adaptive, 10_000.0),
        ]),
        ..Default::default()
    };
    let engine = Switch::builder()
        .models(models)
        .event_sink(Arc::new(MetricsSink::new(registry.clone())))
        .event_sink(jsonl.clone())
        .event_sink(recorder.clone())
        .build();
    recorder.attach(&engine);

    // -- Force the rollback ------------------------------------------------
    let site = engine.named_list_context::<i64>(ListKind::Array, "flight/list");
    for round in 0..6 {
        for _ in 0..60 {
            let mut list = site.create_list();
            for v in 0..1024 {
                list.push(v);
            }
            for v in 0..1024 {
                assert!(list.contains(&v));
            }
        }
        engine.analyze_now();
        if engine
            .event_log()
            .iter()
            .any(|e| e.kind_name() == "rollback")
        {
            println!("rollback provoked after {} round(s)", round + 1);
            break;
        }
    }
    trace::set_mode(TraceMode::Off);

    if !engine
        .event_log()
        .iter()
        .any(|e| e.kind_name() == "rollback")
    {
        fail("the inverted model never provoked a rollback");
    }
    if recorder.incidents_recorded() == 0 {
        fail("a rollback happened but the flight recorder wrote no incident");
    }
    jsonl.flush().unwrap_or_else(|e| fail(&e.to_string()));

    // -- Re-read and validate the stream ------------------------------------
    let content = std::fs::read_to_string(&stream_path).unwrap_or_else(|e| fail(&e.to_string()));
    let mut incidents = Vec::new();
    for (n, line) in content.lines().enumerate() {
        let doc = Json::parse(line)
            .unwrap_or_else(|e| fail(&format!("line {} is not valid JSON: {e}", n + 1)));
        if doc.get("kind").and_then(Json::as_str) == Some("incident") {
            incidents.push(doc);
        }
    }
    println!(
        "stream: {} lines, {} incident record(s)",
        content.lines().count(),
        incidents.len()
    );

    let incident = incidents
        .iter()
        .find(|d| d.get("trigger").and_then(Json::as_str) == Some("rollback"))
        .unwrap_or_else(|| fail("no incident with trigger \"rollback\" in the stream"));

    // The triggering event rides along, fully serialized.
    let event = expect(incident, "event");
    if event.get("event").and_then(Json::as_str) != Some("rollback") {
        fail("incident's embedded event is not the rollback");
    }
    // The engine back-reference resolved the site's decision audit.
    if expect(incident, "explanation") == &Json::Null {
        fail("incident carries no selection explanation despite an attached engine");
    }
    // The self-overhead account is present and internally consistent.
    let overhead = expect(incident, "overhead");
    for field in [
        "framework_nanos",
        "tracer_nanos",
        "app_nanos",
        "app_ops",
        "ratio",
        "pipeline_ratio",
    ] {
        let _ = expect(overhead, field);
    }
    // Sampled tracing ran throughout, so the span window must not be empty.
    let spans = expect(incident, "spans")
        .as_array()
        .unwrap_or_else(|| fail("incident spans is not an array"));
    if spans.is_empty() {
        fail("incident froze zero spans despite sampled tracing being on");
    }
    for span in spans {
        for field in ["thread", "site", "phase", "depth", "start_ns", "dur_ns"] {
            let _ = expect(span, field);
        }
    }
    // Telemetry snapshot attached (the default config includes it).
    if expect(incident, "telemetry") == &Json::Null {
        fail("incident carries no telemetry snapshot despite include_telemetry");
    }

    println!(
        "incident seq {} validated: trigger=rollback, {} spans frozen",
        expect(incident, "seq").render(),
        spans.len()
    );
    std::fs::remove_file(&stream_path).ok();
    println!("flight_recorder: OK");
}
