//! The anomaly flight recorder: freeze the recent past when something
//! goes wrong.
//!
//! Metrics tell you *that* a rollback happened; the audit trail tells you
//! *what* was decided. What neither preserves is the fine-grained "what
//! was the pipeline doing just before" — the span-level context that makes
//! an anomaly diagnosable after the fact. [`FlightRecorder`] closes that
//! gap: it subscribes to the engine's event stream and, when a trigger
//! fires, dumps the last 128 trace spans, the site's current
//! [`SelectionExplanation`](cs_core::SelectionExplanation), the
//! self-overhead account, and a full metrics snapshot as one JSONL
//! *incident record* into a [`JsonlSink`] — interleaved with the ordinary
//! event audit trail, under the same line cap.
//!
//! The recorder records; it runs no statistics of its own. Every trigger
//! is an engine event, a threshold crossing, or a firing of `cs-obs`'s
//! band detector, the one statistical detector in the stack.
//!
//! ## Trigger matrix
//!
//! This table is the one copy of the matrix; DESIGN.md and EXPERIMENTS.md
//! point here.
//!
//! | Trigger             | Detected in        | Condition                                   |
//! |---------------------|--------------------|---------------------------------------------|
//! | `rollback`          | `on_event`         | a [`RollbackEvent`](cs_core::RollbackEvent) |
//! | `quarantine`        | `on_event`         | a [`QuarantineEvent`](cs_core::QuarantineEvent) |
//! | `alloc_switch`      | `on_event`         | a switched [`SelectionExplanation`](cs_core::SelectionExplanation) with `alloc_driven` set — the allocation dimension decided the switch |
//! | `state_quarantine`  | `on_event`         | a [`WarmStartEvent`](cs_core::WarmStartEvent) with corrupt records quarantined |
//! | `warm_start_reject` | `on_event`         | a [`WarmStartSiteEvent`](cs_core::WarmStartSiteEvent) whose record was rejected |
//! | `overhead_budget`   | `on_analysis_pass` | the tracer's overhead ratio crosses above 0.05, once application time has been credited |
//! | `sink_disconnect`   | `on_analysis_pass` | the engine's sink-disconnect total grew     |
//! | `phase_shift`       | external ([`FlightRecorder::record_external`]) | `cs-obs`'s EWMA band detector saw a site's op-mix or alloc-rate trend break band |
//! | `phase_shift`, `detail.site == "process"` | external | the same detector's `process` pseudo-site: the bytes the process allocated since the previous sampler frame broke band (a burst or a sharp drop); needs a running obs plane and the counting allocator |
//!
//! The polled triggers are edge-detected (they fire on the crossing, not
//! on every pass spent above the threshold), and at most 32 incidents are
//! ever written, so a flapping site cannot fill the sink's line budget
//! with incident dumps. The slot is reserved before the record is built,
//! so triggers racing in from the analyzer thread and the obs sampler
//! cannot overshoot the cap. Every incident additionally freezes the
//! process-wide `cs-heap` account under a `"heap"` field — zeros in
//! binaries that never installed the counting allocator.
//!
//! `on_event` itself stays allocation- and lock-free on the non-triggering
//! path — it is on the engine's synchronous dispatch path — and hands off
//! to the (deliberately heavyweight) incident serializer only when a
//! trigger actually fires. The `no-alloc-in-span-path` analyzer lint keeps
//! it that way.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cs_core::{EngineEvent, EngineEventSink, WeakSwitch};
use parking_lot::Mutex;

use crate::json::{event_to_json, explanation_to_json, heap_account_to_json, Json};
use crate::metrics::MetricsRegistry;
use crate::sinks::JsonlSink;

/// How many of the most recent spans each incident freezes.
const SPAN_WINDOW: usize = 128;
/// Overhead-ratio budget; crossing above it fires `overhead_budget`. The
/// SLO for sampled tracing is 5%.
const OVERHEAD_BUDGET: f64 = 0.05;
/// Incidents ever written, so the recorder cannot exhaust the sink's line
/// budget.
const MAX_INCIDENTS: u64 = 32;
/// Incident records kept in memory for live queries (`/incidents`).
const RING_CAPACITY: usize = 64;

/// An [`EngineEventSink`] that writes incident records on anomalies. See
/// the module-level documentation for the trigger matrix and record
/// schema.
///
/// Construction order matters: the recorder is registered as a sink on
/// the engine *and* queries the engine back (for explanations and
/// health), so it holds a [`WeakSwitch`] installed after the engine is
/// built:
///
/// ```
/// use std::sync::Arc;
/// use cs_core::Switch;
/// use cs_telemetry::{FlightRecorder, JsonlSink, MetricsRegistry};
///
/// let path = std::env::temp_dir().join(format!("cs-fr-doc-{}.jsonl", std::process::id()));
/// let sink = Arc::new(JsonlSink::create(&path, 10_000).unwrap());
/// let recorder = Arc::new(FlightRecorder::new(Arc::clone(&sink), MetricsRegistry::new()));
/// let engine = Switch::builder().event_sink(recorder.clone()).build();
/// recorder.attach(&engine);
/// assert_eq!(recorder.incidents_recorded(), 0);
/// # drop(engine); std::fs::remove_file(&path).ok();
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    sink: Arc<JsonlSink>,
    registry: MetricsRegistry,
    engine: Mutex<WeakSwitch>,
    incidents: AtomicU64,
    seq: AtomicU64,
    // Edge-detection state for the polled triggers.
    last_disconnects: AtomicU64,
    over_budget: AtomicU64, // 0 = below budget, 1 = above (latched)
    // The most recent rendered incident lines, oldest first — the live
    // complement to the JSONL sink, bounded at RING_CAPACITY (allocated up
    // front; eviction is pop_front).
    ring: Mutex<VecDeque<String>>,
}

impl FlightRecorder {
    /// Creates a recorder writing incidents to `sink`. Pass the registry
    /// the engine's metrics feed into: every incident carries its
    /// snapshot.
    pub fn new(sink: Arc<JsonlSink>, registry: MetricsRegistry) -> FlightRecorder {
        FlightRecorder {
            sink,
            registry,
            engine: Mutex::new(WeakSwitch::dangling()),
            incidents: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            last_disconnects: AtomicU64::new(0),
            over_budget: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(RING_CAPACITY)),
        }
    }

    /// Installs the engine back-reference (non-owning). Until attached,
    /// incidents record with a `null` explanation and no health polling.
    pub fn attach(&self, engine: &cs_core::Switch) {
        *self.engine.lock() = engine.downgrade();
    }

    /// Incidents written so far. An incident still being written holds
    /// its slot, so the count is exact once no trigger is in flight.
    pub fn incidents_recorded(&self) -> u64 {
        self.incidents.load(Ordering::Relaxed)
    }

    /// The sink incidents are written into.
    pub fn sink(&self) -> &JsonlSink {
        &self.sink
    }

    /// The most recent incident records as rendered JSON lines, oldest
    /// first — at most 64 of them. This is what `cs-obs` serves as
    /// `/incidents`: the live in-memory complement to the JSONL sink on
    /// disk.
    pub fn recent_incidents(&self) -> Vec<String> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Records an incident fired by an *external* detector — a trigger the
    /// recorder cannot see from engine events alone. The `cs-obs` drift
    /// detector uses this for `phase_shift` incidents, attaching its
    /// evidence (site, dimension, observed value, EWMA band) as `detail`.
    /// Subject to the same incident cap as every internal trigger.
    pub fn record_external(&self, trigger: &str, detail: Json) {
        self.record_incident_with_detail(trigger, None, Some(detail));
    }

    /// Serializes and writes one incident. Heavyweight by design; only
    /// called once a trigger has fired.
    fn record_incident(&self, trigger: &str, event: Option<&EngineEvent>) {
        self.record_incident_with_detail(trigger, event, None);
    }

    fn record_incident_with_detail(
        &self,
        trigger: &str,
        event: Option<&EngineEvent>,
        detail: Option<Json>,
    ) {
        // Reserve the slot before any work: a separate check and count let
        // concurrent triggers all pass the check and overshoot the cap.
        let reserved = self
            .incidents
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < MAX_INCIDENTS).then_some(n + 1)
            });
        if reserved.is_err() {
            return;
        }
        let snap = cs_trace::snapshot();
        let overhead = snap.overhead();
        let explanation = event
            .and_then(|e| match e {
                EngineEvent::Rollback(r) => Some(r.context_id),
                EngineEvent::Quarantine(q) => Some(q.context_id),
                EngineEvent::Selection(s) => Some(s.context_id),
                _ => None,
            })
            .and_then(|site| self.engine.lock().upgrade()?.explain(site));
        let spans: Vec<Json> = snap
            .last_spans(SPAN_WINDOW)
            .iter()
            .map(|s| {
                Json::object()
                    .field("thread", s.thread)
                    .field("site", s.site)
                    .field("phase", s.phase.name())
                    .field("depth", u64::from(s.depth))
                    .field("start_ns", s.start_ns)
                    .field("dur_ns", s.dur_ns)
            })
            .collect();
        let doc = Json::object()
            .field("kind", "incident")
            .field("seq", self.seq.fetch_add(1, Ordering::Relaxed))
            .field("trigger", trigger)
            .field("t_ns", snap.taken_ns)
            .field("event", event.map(event_to_json))
            .field("detail", detail)
            .field("explanation", explanation.as_ref().map(explanation_to_json))
            .field(
                "overhead",
                Json::object()
                    .field("framework_nanos", overhead.framework_nanos)
                    .field("tracer_nanos", overhead.tracer_nanos)
                    .field("app_nanos", overhead.app_nanos)
                    .field("app_ops", overhead.app_ops)
                    .field("ratio", overhead.ratio())
                    .field("pipeline_ratio", overhead.pipeline_ratio()),
            )
            .field("spans", Json::Array(spans))
            .field("heap", heap_account_to_json(&cs_heap::process_account()))
            .field("telemetry", self.registry.snapshot().to_json());
        // The live ring keeps the incident even if the sink's disk write
        // fails — an operator scraping /incidents should not go blind
        // because the JSONL file did.
        {
            let mut ring = self.ring.lock();
            if ring.len() == RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(doc.render());
        }
        if !self.sink.write_json(&doc) {
            // No line landed: give the slot back, so the count keeps
            // matching the incident lines in the sink.
            self.incidents.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl EngineEventSink for FlightRecorder {
    fn on_event(&self, event: &EngineEvent) {
        let trigger = match event {
            EngineEvent::Rollback(_) => "rollback",
            EngineEvent::Quarantine(_) => "quarantine",
            // A switch the allocation dimension decided: the incident
            // preserves the alloc cost columns and the measured
            // bytes-per-op that justified trading time for churn.
            EngineEvent::Selection(s)
                if s.outcome == cs_core::SelectionOutcome::Switched && s.alloc_driven =>
            {
                "alloc_switch"
            }
            // Corruption survived a restart: the snapshot loaded, but some
            // records were quarantined. The incident preserves the salvage
            // account alongside whatever the pipeline was doing.
            EngineEvent::WarmStart(w) if w.records_quarantined > 0 => "state_quarantine",
            // A snapshot site record failed per-site validation (stale
            // fingerprint / unknown variant) — that site cold-started.
            EngineEvent::WarmStartSite(s)
                if s.outcome != cs_core::WarmStartSiteOutcome::Applied =>
            {
                "warm_start_reject"
            }
            _ => return,
        };
        self.record_incident(trigger, Some(event));
    }

    fn on_analysis_pass(&self, _duration: Duration) {
        let overhead = cs_trace::overhead();
        let was_over = self.over_budget.load(Ordering::Relaxed) == 1;
        // Only judge the ratio once application time has been credited:
        // before the first flush the denominator is empty and any recorded
        // span would push the ratio to 1.0, which is startup noise, not an
        // anomaly.
        let is_over = overhead.app_nanos > 0 && overhead.ratio() > OVERHEAD_BUDGET;
        self.over_budget
            .store(u64::from(is_over), Ordering::Relaxed);
        if is_over && !was_over {
            self.record_incident("overhead_budget", None);
        }
        if let Some(engine) = self.engine.lock().upgrade() {
            let disconnects = engine.sink_disconnects();
            let before = self.last_disconnects.swap(disconnects, Ordering::Relaxed);
            if disconnects > before {
                self.record_incident("sink_disconnect", None);
            }
        }
    }

    fn name(&self) -> &str {
        "flight-recorder"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cs-flight-{tag}-{}.jsonl", std::process::id()))
    }

    fn recorder(path: &std::path::Path) -> Arc<FlightRecorder> {
        let sink = Arc::new(JsonlSink::create(path, 1_000).unwrap());
        Arc::new(FlightRecorder::new(sink, MetricsRegistry::new()))
    }

    /// The `trigger` of every incident line in the sink's file, in order.
    fn triggers(rec: &FlightRecorder, path: &std::path::Path) -> Vec<String> {
        rec.sink().flush().unwrap();
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|l| {
                Json::parse(l)
                    .expect("incident parses")
                    .get("trigger")
                    .and_then(Json::as_str)
                    .expect("trigger field")
                    .to_owned()
            })
            .collect()
    }

    fn quarantine() -> EngineEvent {
        EngineEvent::Quarantine(cs_core::QuarantineEvent {
            context_id: 1,
            context_name: "q".into(),
            abstraction: cs_collections::Abstraction::List,
            candidate: "array".into(),
            until_round: 9,
            strikes: 1,
            round: 2,
        })
    }

    #[test]
    fn rollback_event_produces_parseable_incident() {
        let path = tmp("rollback");
        let rec = recorder(&path);
        rec.on_event(&EngineEvent::Rollback(cs_core::RollbackEvent {
            context_id: 9,
            context_name: "orders".into(),
            abstraction: cs_collections::Abstraction::Map,
            from: "hash".into(),
            to: "chained".into(),
            predicted_ratio: 0.7,
            realized_ratio: 1.9,
            round: 4,
        }));
        rec.sink().flush().unwrap();
        assert_eq!(rec.incidents_recorded(), 1);
        let content = std::fs::read_to_string(&path).unwrap();
        let line = content.lines().next().expect("one incident line");
        let doc = Json::parse(line).expect("incident is valid JSON");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("incident"));
        assert_eq!(doc.get("trigger").and_then(Json::as_str), Some("rollback"));
        assert_eq!(
            doc.get("event")
                .and_then(|e| e.get("event"))
                .and_then(Json::as_str),
            Some("rollback")
        );
        assert!(doc.get("overhead").is_some());
        assert!(doc.get("spans").and_then(Json::as_array).is_some());
        // The telemetry snapshot is always attached.
        assert!(doc.get("telemetry").is_some_and(|t| *t != Json::Null));
        // No engine attached: explanation degrades to null, nothing panics.
        assert_eq!(doc.get("explanation"), Some(&Json::Null));
        // Every incident freezes the heap account; this binary never
        // installed the counting allocator, so the ledgers read zero.
        let heap = doc.get("heap").expect("heap account attached");
        assert_eq!(heap.get("alloc_bytes").and_then(Json::as_u64), Some(0));
        assert_eq!(heap.get("live_bytes").and_then(Json::as_u64), Some(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incident_cap_holds_and_non_triggers_are_ignored() {
        let path = tmp("cap");
        let rec = recorder(&path);
        rec.on_event(&EngineEvent::ModelFallback(cs_core::ModelFallbackEvent {
            file: "x".into(),
            reason: "y".into(),
        }));
        assert_eq!(rec.incidents_recorded(), 0, "fallback is not a trigger");
        for _ in 0..MAX_INCIDENTS + 3 {
            rec.on_event(&quarantine());
        }
        assert_eq!(
            rec.incidents_recorded(),
            MAX_INCIDENTS,
            "capped at MAX_INCIDENTS"
        );
        assert_eq!(triggers(&rec, &path).len() as u64, MAX_INCIDENTS);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incident_cap_holds_under_concurrent_triggers() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 8;
        let path = tmp("race");
        let rec = recorder(&path);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let rec = Arc::clone(&rec);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..PER_THREAD {
                        rec.record_external("phase_shift", Json::object());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rec.incidents_recorded(), MAX_INCIDENTS);
        assert_eq!(triggers(&rec, &path).len() as u64, MAX_INCIDENTS);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_start_triggers_fire_only_on_anomalies() {
        let path = tmp("warm");
        let rec = recorder(&path);
        // A clean warm start is not an incident.
        rec.on_event(&EngineEvent::WarmStart(cs_core::WarmStartEvent {
            source: "state.css".into(),
            sites_in_snapshot: 3,
            models_in_snapshot: 3,
            records_loaded: 7,
            records_quarantined: 0,
            duplicates_dropped: 0,
            note: String::new(),
        }));
        // Nor is a record applied successfully.
        rec.on_event(&EngineEvent::WarmStartSite(cs_core::WarmStartSiteEvent {
            context_id: 1,
            context_name: "orders".into(),
            abstraction: cs_collections::Abstraction::List,
            snapshot_kind: "hasharray".into(),
            outcome: cs_core::WarmStartSiteOutcome::Applied,
            detail: "resumed".into(),
        }));
        assert_eq!(rec.incidents_recorded(), 0);
        // Salvaged-with-quarantine and per-site rejection both are.
        rec.on_event(&EngineEvent::WarmStart(cs_core::WarmStartEvent {
            source: "state.css".into(),
            sites_in_snapshot: 3,
            models_in_snapshot: 3,
            records_loaded: 6,
            records_quarantined: 1,
            duplicates_dropped: 0,
            note: "1 corrupt record(s) quarantined".into(),
        }));
        rec.on_event(&EngineEvent::WarmStartSite(cs_core::WarmStartSiteEvent {
            context_id: 2,
            context_name: "sessions".into(),
            abstraction: cs_collections::Abstraction::Set,
            snapshot_kind: "array".into(),
            outcome: cs_core::WarmStartSiteOutcome::StaleFingerprint,
            detail: "default drifted".into(),
        }));
        assert_eq!(rec.incidents_recorded(), 2);
        assert_eq!(
            triggers(&rec, &path),
            ["state_quarantine", "warm_start_reject"]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn alloc_driven_switch_records_an_alloc_switch_incident() {
        let path = tmp("allocswitch");
        let rec = recorder(&path);
        let explanation = cs_core::SelectionExplanation {
            context_id: 5,
            context_name: "event-log#buffer".into(),
            abstraction: cs_collections::Abstraction::List,
            rule: "R_alloc_rate".into(),
            round: 7,
            current: "linked".into(),
            current_primary_cost: 40_000.0,
            current_alloc_cost: 40_000.0,
            alloc_bytes_per_op: 41.5,
            alloc_driven: true,
            candidates: vec![],
            winner: Some("array".into()),
            winning_margin: 0.7,
            outcome: cs_core::SelectionOutcome::Switched,
        };
        // A time-driven switch is routine adaptation.
        rec.on_event(&EngineEvent::Selection(cs_core::SelectionExplanation {
            alloc_driven: false,
            ..explanation.clone()
        }));
        assert_eq!(rec.incidents_recorded(), 0);
        rec.on_event(&EngineEvent::Selection(explanation));
        rec.sink().flush().unwrap();
        assert_eq!(rec.incidents_recorded(), 1);
        let content = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(content.lines().next().unwrap()).expect("valid incident");
        assert_eq!(
            doc.get("trigger").and_then(Json::as_str),
            Some("alloc_switch")
        );
        let event = doc.get("event").expect("event attached");
        assert_eq!(event.get("alloc_driven"), Some(&Json::Bool(true)));
        assert_eq!(
            event.get("alloc_bytes_per_op").and_then(Json::as_f64),
            Some(41.5)
        );
        assert_eq!(
            event.get("current_alloc_cost").and_then(Json::as_f64),
            Some(40_000.0)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn external_phase_shift_incident_carries_detail_and_lands_in_the_ring() {
        let path = tmp("phase");
        let rec = recorder(&path);
        rec.record_external(
            "phase_shift",
            Json::object()
                .field("site", "session-cache")
                .field("dimension", "read_fraction")
                .field("value", 0.2)
                .field("mean", 0.9),
        );
        rec.sink().flush().unwrap();
        assert_eq!(rec.incidents_recorded(), 1);
        let ring = rec.recent_incidents();
        assert_eq!(ring.len(), 1);
        let doc = Json::parse(&ring[0]).expect("ring line is valid JSON");
        assert_eq!(
            doc.get("trigger").and_then(Json::as_str),
            Some("phase_shift")
        );
        let detail = doc.get("detail").expect("detail attached");
        assert_eq!(
            detail.get("site").and_then(Json::as_str),
            Some("session-cache")
        );
        assert_eq!(detail.get("value").and_then(Json::as_f64), Some(0.2));
        // The same record also reached the sink on disk.
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().next(), Some(ring[0].as_str()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incident_ring_is_bounded_and_evicts_oldest_first() {
        // A sink whose one-line cap is already spent: no incident line
        // lands, so no incident slot stays taken and the ring (which keeps
        // incidents the sink drops) can be driven past its capacity.
        let path = tmp("ring");
        let sink = Arc::new(JsonlSink::create(&path, 1).unwrap());
        assert!(sink.write_json(&Json::object()));
        let rec = FlightRecorder::new(sink, MetricsRegistry::new());
        let extra = 3;
        for i in 0..(RING_CAPACITY + extra) as u64 {
            rec.record_external("phase_shift", Json::object().field("n", i));
        }
        assert_eq!(rec.incidents_recorded(), 0, "the capped sink took no line");
        assert_eq!(rec.sink().lines_skipped(), (RING_CAPACITY + extra) as u64);
        let ring = rec.recent_incidents();
        assert_eq!(
            ring.len(),
            RING_CAPACITY,
            "ring holds only the newest entries"
        );
        let ns: Vec<u64> = ring
            .iter()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("detail")
                    .and_then(|d| d.get("n"))
                    .and_then(Json::as_u64)
                    .unwrap()
            })
            .collect();
        let newest: Vec<u64> = (extra as u64..(RING_CAPACITY + extra) as u64).collect();
        assert_eq!(ns, newest, "oldest evicted first");
        std::fs::remove_file(&path).ok();
    }

    /// A sink that panics on every analysis pass, so the engine disconnects it.
    struct PanicsOnPass;

    impl EngineEventSink for PanicsOnPass {
        fn on_event(&self, _event: &EngineEvent) {}

        fn on_analysis_pass(&self, _duration: Duration) {
            panic!("deliberate sink failure");
        }

        fn name(&self) -> &str {
            "panics-on-pass"
        }
    }

    #[test]
    fn sink_disconnect_fires_once_on_the_pass_after_a_sink_panics() {
        let path = tmp("disconnect");
        let rec = recorder(&path);
        let engine = cs_core::Switch::builder()
            .event_sink(Arc::new(PanicsOnPass))
            .event_sink(rec.clone())
            .build();
        rec.attach(&engine);
        // Pass 1: the sink panics ahead of the recorder, and the engine
        // counts the disconnect only once every sink has been called.
        engine.analyze_now();
        assert_eq!(engine.sink_disconnects(), 1);
        assert!(triggers(&rec, &path).is_empty());
        // Pass 2: the recorder sees the total grow.
        engine.analyze_now();
        assert_eq!(triggers(&rec, &path), ["sink_disconnect"]);
        // Pass 3: edge-detected, so no second incident.
        engine.analyze_now();
        assert_eq!(triggers(&rec, &path), ["sink_disconnect"]);
        assert_eq!(rec.incidents_recorded(), 1);
        std::fs::remove_file(&path).ok();
    }
}
