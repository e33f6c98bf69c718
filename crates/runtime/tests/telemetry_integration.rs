//! Acceptance harness for the telemetry stack: under the concurrent stress
//! workload, the metrics snapshot must agree **exactly** with the engine's
//! own event log and with the suite's per-op accounting.
//!
//! The workload is the guarded-adaptation stress shape from
//! `stress_concurrent.rs` — N writer threads on one [`ConcurrentMap`] while
//! an inverted model provokes a switch that verification rolls back and
//! quarantines — but here the engine carries the full telemetry pipeline:
//! a [`MetricsSink`] counts events as they are recorded and
//! [`Runtime::export_metrics`] mirrors the site counters at the end. Every cross-check is an equality, not a bound:
//!
//! * `cs_events_total{event=…}` == per-kind counts in `Switch::event_log()`;
//! * `cs_site_{transitions,rollbacks,quarantines}_total` == `SiteStats`
//!   counters == event-log counts;
//! * `cs_runtime_site_ops_total{op=…}` == `SiteStats::ops` == the summed
//!   per-thread tallies (zero lost ops, now visible through metrics);
//! * the Prometheus rendering passes the CI validator.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cs_collections::MapKind;
use cs_core::{EngineEvent, GuardrailConfig, Models, SelectionRule, Switch};
use cs_profile::{OpKind, WindowConfig};
use cs_runtime::{ConcurrentMap, Runtime, RuntimeConfig};
use cs_telemetry::{validate_prometheus_text, MetricsRegistry, MetricsSink, TelemetrySnapshot};

const THREADS: usize = 4;
const KEYS_PER_THREAD: u64 = 1_024;
const ROUNDS_PER_THREAD: u64 = 40;
const SITE: &str = "stress/telemetry";

#[derive(Default)]
struct Tally {
    ops: [u64; 4],
}

impl Tally {
    fn bump(&mut self, op: OpKind) {
        self.ops[op.index()] += 1;
    }
}

/// Same worker shape as the stress harness: get-heavy steady state with a
/// remove+reinsert pair every 16th key, exact tally returned.
fn worker(map: ConcurrentMap<u64, u64>, base: u64) -> Tally {
    let mut tally = Tally::default();
    for round in 0..ROUNDS_PER_THREAD {
        for i in 0..KEYS_PER_THREAD {
            let key = base + i;
            if round == 0 {
                map.insert(key, key * 2);
                tally.bump(OpKind::Populate);
                continue;
            }
            if i % 16 == 15 {
                assert_eq!(map.remove(&key), Some(key * 2), "lost entry {key}");
                tally.bump(OpKind::Middle);
                map.insert(key, key * 2);
                tally.bump(OpKind::Populate);
            } else {
                assert_eq!(map.get(&key), Some(key * 2), "lost entry {key}");
                tally.bump(OpKind::Contains);
            }
        }
    }
    map.flush();
    tally
}

/// Counter value for the series of `name` carrying the given labels.
fn labelled(snapshot: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    let family = snapshot
        .family(name)
        .unwrap_or_else(|| panic!("family {name} missing from snapshot"));
    let series = family
        .series
        .iter()
        .find(|s| {
            s.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
        .unwrap_or_else(|| panic!("{name}{labels:?} missing from snapshot"));
    match series.value {
        cs_telemetry::ValueSnapshot::Counter(v) => v,
        ref other => panic!("{name}{labels:?} is not a counter: {other:?}"),
    }
}

fn kind_count(events: &[EngineEvent], kind: &str) -> u64 {
    events.iter().filter(|e| e.kind_name() == kind).count() as u64
}

#[test]
fn snapshot_counters_exactly_match_event_log_and_per_op_accounting() {
    let registry = MetricsRegistry::new();
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models(Models {
            map: common::inverted_model(MapKind::Array, MapKind::Chained),
            ..Default::default()
        })
        // Quarantine the refuted candidate as long as the guardrails allow:
        // the 64-round cap clips this base (see `stress_concurrent.rs`).
        .guardrails(GuardrailConfig::default().quarantine_base(1_000_000))
        .window(WindowConfig {
            window_size: 24,
            finished_ratio: 0.5,
            min_samples: 8,
            ..WindowConfig::default()
        })
        .event_sink(Arc::new(MetricsSink::new(registry.clone())))
        .build();
    let rt = Runtime::with_config(
        engine,
        RuntimeConfig {
            shards: 4,
            flush_ops: 512,
            ..RuntimeConfig::default()
        },
    );
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, SITE);

    let stop = Arc::new(AtomicBool::new(false));
    let analyzer = {
        let rt = rt.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                rt.analyze_now();
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || worker(map, t as u64 * KEYS_PER_THREAD))
        })
        .collect();
    let mut tallies: Vec<Tally> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Keep generating (tallied) verification traffic until the provoked
    // switch has been rolled back, as in the stress harness.
    let mut main_tally = Tally::default();
    for _ in 0..40 {
        let s = map.stats();
        if s.switches > 0 && s.rollbacks > 0 {
            break;
        }
        for i in 0..(THREADS as u64 * KEYS_PER_THREAD) {
            map.get(&i);
            main_tally.bump(OpKind::Contains);
        }
        rt.flush();
        rt.analyze_now();
    }
    stop.store(true, Ordering::Relaxed);
    analyzer.join().unwrap();
    rt.flush();
    tallies.push(main_tally);

    let stats = map.stats();
    assert!(stats.switches >= 1, "inverted model must provoke a switch: {stats}");
    assert!(stats.rollbacks >= 1, "verification must roll it back: {stats}");

    // Freeze everything *after* the workload is quiescent.
    rt.export_metrics(&registry);
    let snapshot = registry.snapshot();
    let engine = rt.engine();
    let log = engine.event_log();
    assert_eq!(
        engine.events_dropped(),
        0,
        "the default log capacity must retain this run; exactness below relies on it"
    );

    // --- Event counters == event log, per kind, exactly. -----------------
    for kind in [
        "transition",
        "selection",
        "rollback",
        "quarantine",
        "model_fallback",
        "analyzer_panic",
        "degraded_entered",
    ] {
        assert_eq!(
            labelled(&snapshot, "cs_events_total", &[("event", kind)]),
            kind_count(&log, kind),
            "cs_events_total{{event={kind}}} diverged from the event log"
        );
    }
    assert_eq!(
        snapshot.counter_total("cs_events_total"),
        Some(engine.events_recorded()),
        "summed event counters == lifetime recorded total"
    );

    // --- Per-site adaptation counters == SiteStats == event log. ---------
    let site = &[("site", SITE)];
    assert_eq!(labelled(&snapshot, "cs_site_transitions_total", site), stats.switches);
    assert_eq!(stats.switches, kind_count(&log, "transition"));
    assert_eq!(labelled(&snapshot, "cs_site_rollbacks_total", site), stats.rollbacks);
    assert_eq!(stats.rollbacks, kind_count(&log, "rollback"));
    assert_eq!(
        labelled(&snapshot, "cs_site_quarantines_total", site),
        kind_count(&log, "quarantine")
    );

    // --- Per-op accounting: metrics == SiteStats == thread tallies. ------
    for op in OpKind::ALL {
        let expected: u64 = tallies.iter().map(|t| t.ops[op.index()]).sum();
        assert_eq!(
            stats.ops[op.index()],
            expected,
            "op kind {op:?}: site total must equal the summed tallies"
        );
        assert_eq!(
            labelled(
                &snapshot,
                "cs_runtime_site_ops_total",
                &[("site", SITE), ("op", &op.to_string())]
            ),
            expected,
            "cs_runtime_site_ops_total{{op={op}}} diverged from the tallies"
        );
    }
    assert_eq!(
        snapshot.counter_total("cs_runtime_site_ops_total"),
        Some(stats.total_ops)
    );

    // --- Contended accounting: the telemetry sidecar families must agree
    // exactly with the SiteStats row the bench emits (contended counts now
    // ride the flushed profiles, not a side-channel atomic). -------------
    assert_eq!(
        labelled(&snapshot, "cs_runtime_site_contended_total", site),
        stats.contended,
        "snapshot contended counter diverged from the site row"
    );
    let ratio_family = snapshot
        .family("cs_runtime_site_contention_ratio")
        .expect("contention ratio gauge exported");
    match ratio_family.series[0].value {
        cs_telemetry::ValueSnapshot::FloatGauge(v) => {
            let expected = stats.contended as f64 / stats.total_ops as f64;
            assert!(
                (v - expected).abs() < 1e-12,
                "contention ratio gauge {v} != contended/total {expected}"
            );
        }
        ref other => panic!("cs_runtime_site_contention_ratio is not a float gauge: {other:?}"),
    }

    // --- Selection audit: every switch decision was counted and margined. -
    let selections = kind_count(&log, "selection");
    assert!(selections >= 1, "audited passes must be recorded");
    assert_eq!(snapshot.counter_total("cs_selections_total"), Some(selections));
    let margins = snapshot
        .family("cs_selection_margin")
        .expect("margin histogram registered");
    match &margins.series[0].value {
        cs_telemetry::ValueSnapshot::Histogram(h) => {
            assert!(h.count >= 1, "switch decisions must observe a margin");
            assert!(h.sum > 0.0);
        }
        other => panic!("cs_selection_margin is not a histogram: {other:?}"),
    }
    let explanation = engine.explain(stats.id).expect("audit trail for the site");
    assert_eq!(explanation.context_name, SITE);
    assert!(!explanation.candidates.is_empty());

    // --- Engine-global mirror and health agree with the log. -------------
    assert_eq!(
        snapshot.counter_value("cs_engine_events_recorded_total"),
        Some(engine.events_recorded())
    );
    assert_eq!(
        snapshot.counter_value("cs_engine_transitions_used_total"),
        Some(engine.health().transitions_used)
    );
    assert_eq!(snapshot.counter_value("cs_engine_analyzer_panics_total"), Some(0));
    assert_eq!(snapshot.gauge_value("cs_engine_degraded"), Some(0));
    assert_eq!(snapshot.gauge_value("cs_runtime_sites"), Some(1));

    // --- The exposition is valid Prometheus text. -------------------------
    let text = snapshot.to_prometheus_text();
    if let Err(errors) = validate_prometheus_text(&text) {
        panic!("snapshot failed Prometheus validation: {errors:#?}");
    }
}
