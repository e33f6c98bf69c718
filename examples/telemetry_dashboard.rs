//! Live telemetry for the whole selection stack, end to end.
//!
//! ```text
//! cargo run --release --example telemetry_dashboard
//! ```
//!
//! Builds an engine with the full observability pipeline attached — a
//! metrics sink, a bounded JSONL audit stream, and an in-memory sink —
//! drives both a single-owner allocation context and a concurrent runtime
//! site through adaptation (including a rollback provoked by an inverted
//! model), then renders a dashboard:
//!
//! * the engine health summary ([`Switch::health`]),
//! * the per-site decision audit ([`Switch::explain`]) with every
//!   candidate's estimated cost and the winning margin,
//! * the Prometheus text exposition (validated in-process — this example
//!   is CI's telemetry check and exits nonzero on any inconsistency),
//! * the JSON snapshot and the JSONL audit trail on disk.
//!
//! [`Switch::health`]: collection_switch::core::Switch::health
//! [`Switch::explain`]: collection_switch::core::Switch::explain

use std::sync::Arc;

use collection_switch::core::Models;
use collection_switch::model::{
    CostDimension, PerformanceModel, Polynomial, VariantCostModel,
};
use collection_switch::profile::OpKind;
use collection_switch::prelude::*;

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

fn scan_round(ctx: &ListContext<i64>) {
    for _ in 0..60 {
        let mut list = ctx.create_list();
        for v in 0..1024 {
            list.push(v);
        }
        for v in 0..1024 {
            assert!(list.contains(&v));
        }
    }
}

fn fail(why: &str) -> ! {
    eprintln!("telemetry_dashboard: FAILED: {why}");
    std::process::exit(1);
}

fn main() {
    // -- Wire the pipeline -------------------------------------------------
    let registry = MetricsRegistry::new();
    let audit_path = std::env::temp_dir().join("cs_telemetry_dashboard.audit.jsonl");
    let jsonl = Arc::new(
        JsonlSink::create(&audit_path, 10_000).unwrap_or_else(|e| fail(&e.to_string())),
    );
    let vec_sink = Arc::new(VecSink::default());

    // An inverted list model provokes a switch that verification will roll
    // back — so the dashboard below shows the full decision lifecycle, not
    // just the happy path.
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
        .event_sink(vec_sink.clone())
        .build();
    let runtime = Runtime::new(engine.clone());

    // -- Drive adaptation --------------------------------------------------
    // A single-owner list site under the inverted model: switch, regress,
    // roll back, quarantine.
    let list_site = engine.named_list_context::<i64>(ListKind::Array, "dashboard/list");
    for _ in 0..3 {
        scan_round(&list_site);
        engine.analyze_now();
    }

    // A concurrent map site under the (default) honest map model.
    let map = runtime.named_concurrent_map::<u64, u64>(MapKind::Chained, "dashboard/map");
    for i in 0..5_000u64 {
        map.insert(i % 512, i);
        map.get(&(i % 512));
    }
    runtime.flush();
    runtime.analyze_now();

    // -- Render the dashboard ----------------------------------------------
    println!("== engine health ==");
    let health = engine.health();
    println!("{health}\n");

    println!("== decision audit: dashboard/list ==");
    match engine.explain(list_site.id()) {
        Some(explanation) => {
            println!("{explanation}");
            for candidate in &explanation.candidates {
                let status = match candidate.excluded {
                    Some(reason) => format!("excluded ({reason})"),
                    None if candidate.satisfied => "satisfied".to_owned(),
                    None => "not satisfied".to_owned(),
                };
                println!(
                    "  {:<10} cost {:>12.1}  ratio {:>8.3}  {}",
                    candidate.variant, candidate.primary_cost, candidate.primary_ratio, status
                );
            }
            println!();
        }
        None => fail("no explanation recorded for the list site"),
    }

    runtime.export_metrics(&registry);
    let snapshot = registry.snapshot();

    println!("== prometheus exposition ==");
    let text = snapshot.to_prometheus_text();
    print!("{text}");
    if let Err(errors) = validate_prometheus_text(&text) {
        for error in &errors {
            eprintln!("  {error}");
        }
        fail("Prometheus exposition failed validation");
    }

    // -- Cross-check: sinks, metrics, and the engine log must agree --------
    let log = engine.event_log();
    if vec_sink.len() != log.len() {
        fail(&format!(
            "VecSink saw {} events, engine log holds {}",
            vec_sink.len(),
            log.len()
        ));
    }
    let events_total = snapshot
        .counter_total("cs_events_total")
        .unwrap_or_else(|| fail("cs_events_total missing"));
    if events_total != health.events_recorded {
        fail(&format!(
            "metrics counted {events_total} events, engine recorded {}",
            health.events_recorded
        ));
    }
    let transitions = log
        .iter()
        .filter(|e| e.kind_name() == "transition")
        .count() as u64;
    let rollbacks = log.iter().filter(|e| e.kind_name() == "rollback").count() as u64;
    if transitions == 0 || rollbacks == 0 {
        fail("expected the inverted model to produce a transition and a rollback");
    }
    if snapshot.counter_total("cs_site_transitions_total") != Some(transitions) {
        fail("cs_site_transitions_total diverged from the event log");
    }
    if snapshot.counter_total("cs_site_rollbacks_total") != Some(rollbacks) {
        fail("cs_site_rollbacks_total diverged from the event log");
    }
    jsonl.flush().unwrap_or_else(|e| fail(&e.to_string()));
    if jsonl.lines_written() != log.len() as u64 {
        fail(&format!(
            "JSONL sink wrote {} lines, engine log holds {}",
            jsonl.lines_written(),
            log.len()
        ));
    }

    println!("\n== json snapshot (first 400 chars) ==");
    let json = snapshot.to_json().render();
    println!("{}...", &json[..json.len().min(400)]);
    println!("\naudit trail: {} ({} lines)", audit_path.display(), jsonl.lines_written());
    println!("telemetry_dashboard: OK");
}
