//! The anomaly flight recorder: freeze the recent past when something
//! goes wrong.
//!
//! Metrics tell you *that* a rollback happened; the audit trail tells you
//! *what* was decided. What neither preserves is the fine-grained "what
//! was the pipeline doing just before" — the span-level context that makes
//! an anomaly diagnosable after the fact. [`FlightRecorder`] closes that
//! gap: it subscribes to the engine's event stream and, when a trigger
//! fires, dumps the last `N` trace spans, the site's current
//! [`SelectionExplanation`](cs_core::SelectionExplanation), the
//! self-overhead account, and (optionally) a full metrics snapshot as one
//! JSONL *incident record* into a [`JsonlSink`] — interleaved with the
//! ordinary event audit trail, under the same line cap.
//!
//! ## Trigger matrix
//!
//! | Trigger             | Detected in        | Condition                                   |
//! |---------------------|--------------------|---------------------------------------------|
//! | `rollback`          | `on_event`         | a [`RollbackEvent`](cs_core::RollbackEvent) |
//! | `quarantine`        | `on_event`         | a [`QuarantineEvent`](cs_core::QuarantineEvent) |
//! | `alloc_switch`      | `on_event`         | a switched [`SelectionExplanation`](cs_core::SelectionExplanation) with `alloc_driven` set — the allocation dimension decided the switch |
//! | `state_quarantine`  | `on_event`         | a [`WarmStartEvent`](cs_core::WarmStartEvent) with corrupt records quarantined |
//! | `warm_start_reject` | `on_event`         | a [`WarmStartSiteEvent`](cs_core::WarmStartSiteEvent) whose record was rejected |
//! | `overhead_budget`   | `on_analysis_pass` | overhead ratio crosses above the budget     |
//! | `sink_disconnect`   | `on_analysis_pass` | the engine's sink-disconnect total grew     |
//! | `alloc_spike`       | `on_analysis_pass` | process allocation bytes this pass exceed [`FlightRecorderConfig::alloc_spike_ratio`] × the trailing per-pass average (and the absolute floor) |
//! | `phase_shift`       | external ([`FlightRecorder::record_external`]) | `cs-obs`'s EWMA drift detector saw a site's op-mix or alloc-rate trend break band |
//!
//! The polled triggers are edge-detected (they fire on the crossing, not
//! on every pass spent above the threshold), and total incidents are
//! capped by [`FlightRecorderConfig::max_incidents`] so a flapping site
//! cannot fill the sink's line budget with incident dumps. Every incident
//! additionally freezes the process-wide `cs-heap` account under a
//! `"heap"` field — zeros in binaries that never installed the counting
//! allocator.
//!
//! `on_event` itself stays allocation- and lock-free on the non-triggering
//! path — it is on the engine's synchronous dispatch path — and hands off
//! to the (deliberately heavyweight) incident serializer only when a
//! trigger actually fires. The `no-alloc-in-span-path` analyzer lint keeps
//! it that way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cs_core::{EngineEvent, EngineEventSink, WeakSwitch};
use parking_lot::Mutex;

use crate::json::{event_to_json, explanation_to_json, heap_account_to_json, Json};
use crate::metrics::MetricsRegistry;
use crate::sinks::JsonlSink;

/// Tuning for a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct FlightRecorderConfig {
    /// How many of the most recent spans to freeze into each incident.
    pub span_window: usize,
    /// Overhead-ratio budget; crossing above it fires an
    /// `overhead_budget` incident. The ISSUE-level SLO for sampled
    /// tracing is 5%.
    pub overhead_budget: f64,
    /// Hard cap on incidents ever recorded (the flight recorder must not
    /// exhaust the sink's line budget).
    pub max_incidents: u64,
    /// Attach a full metrics snapshot to each incident. Costly per
    /// incident; invaluable in post-mortems.
    pub include_telemetry: bool,
    /// An `alloc_spike` fires when the bytes allocated since the previous
    /// analysis pass exceed this multiple of the trailing per-pass average
    /// (EWMA, 7/8 decay). Detection needs a warm baseline: the first two
    /// passes only measure.
    pub alloc_spike_ratio: f64,
    /// Absolute floor for `alloc_spike`: a pass must allocate at least
    /// this many bytes to fire, so an idle process's tiny wobbles (ratio
    /// against a near-zero baseline) stay quiet.
    pub alloc_spike_min_bytes: u64,
    /// How many of the most recent incident records to keep in memory for
    /// live queries ([`FlightRecorder::recent_incidents`], served by
    /// `cs-obs` as `/incidents`). Bounded by construction: the ring
    /// allocates its full capacity up front and evicts oldest-first.
    pub ring_capacity: usize,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig {
            span_window: 128,
            overhead_budget: 0.05,
            max_incidents: 32,
            include_telemetry: true,
            alloc_spike_ratio: 8.0,
            alloc_spike_min_bytes: 1 << 20,
            ring_capacity: 64,
        }
    }
}

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
/// use cs_telemetry::{FlightRecorder, FlightRecorderConfig, JsonlSink, MetricsRegistry};
///
/// let path = std::env::temp_dir().join(format!("cs-fr-doc-{}.jsonl", std::process::id()));
/// let sink = Arc::new(JsonlSink::create(&path, 10_000).unwrap());
/// let recorder = Arc::new(FlightRecorder::new(
///     Arc::clone(&sink),
///     MetricsRegistry::new(),
///     FlightRecorderConfig::default(),
/// ));
/// let engine = Switch::builder().event_sink(recorder.clone()).build();
/// recorder.attach(&engine);
/// assert_eq!(recorder.incidents_recorded(), 0);
/// # drop(engine); std::fs::remove_file(&path).ok();
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    sink: Arc<JsonlSink>,
    registry: Option<MetricsRegistry>,
    config: FlightRecorderConfig,
    engine: Mutex<WeakSwitch>,
    incidents: AtomicU64,
    seq: AtomicU64,
    // Edge-detection state for the polled triggers.
    last_disconnects: AtomicU64,
    over_budget: AtomicU64, // 0 = below budget, 1 = above (latched)
    // Allocation-spike state: last process alloc_bytes reading, the EWMA
    // of per-pass deltas, how many passes have been observed, and the
    // spike latch.
    last_alloc_bytes: AtomicU64,
    alloc_trailing: AtomicU64,
    alloc_passes: AtomicU64,
    alloc_spiking: AtomicU64, // 0 = normal, 1 = spiking (latched)
    // The most recent rendered incident lines, oldest first — the live
    // complement to the JSONL sink, bounded at ring_capacity (allocated up
    // front; eviction is pop_front).
    ring: Mutex<std::collections::VecDeque<String>>,
}

impl FlightRecorder {
    /// Creates a recorder writing incidents to `sink`. Pass the registry
    /// the engine's metrics feed into so incidents can carry a metrics
    /// snapshot ([`FlightRecorderConfig::include_telemetry`]).
    pub fn new(
        sink: Arc<JsonlSink>,
        registry: MetricsRegistry,
        config: FlightRecorderConfig,
    ) -> FlightRecorder {
        let ring = Mutex::new(std::collections::VecDeque::with_capacity(
            config.ring_capacity,
        ));
        FlightRecorder {
            sink,
            registry: Some(registry),
            config,
            engine: Mutex::new(WeakSwitch::dangling()),
            incidents: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            last_disconnects: AtomicU64::new(0),
            over_budget: AtomicU64::new(0),
            last_alloc_bytes: AtomicU64::new(0),
            alloc_trailing: AtomicU64::new(0),
            alloc_passes: AtomicU64::new(0),
            alloc_spiking: AtomicU64::new(0),
            ring,
        }
    }

    /// Installs the engine back-reference (non-owning). Until attached,
    /// incidents record with a `null` explanation and no health polling.
    pub fn attach(&self, engine: &cs_core::Switch) {
        *self.engine.lock() = engine.downgrade();
    }

    /// Incidents written so far.
    pub fn incidents_recorded(&self) -> u64 {
        self.incidents.load(Ordering::Relaxed)
    }

    /// The sink incidents are written into.
    pub fn sink(&self) -> &JsonlSink {
        &self.sink
    }

    /// The most recent incident records as rendered JSON lines, oldest
    /// first — at most [`FlightRecorderConfig::ring_capacity`] of them.
    /// This is what `cs-obs` serves as `/incidents`: the live in-memory
    /// complement to the JSONL sink on disk.
    pub fn recent_incidents(&self) -> Vec<String> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Records an incident fired by an *external* detector — a trigger the
    /// recorder cannot see from engine events alone. The `cs-obs` drift
    /// detector uses this for `phase_shift` incidents, attaching its
    /// evidence (site, dimension, observed value, EWMA band) as `detail`.
    /// Subject to the same [`FlightRecorderConfig::max_incidents`] cap as
    /// every internal trigger.
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
        if self.incidents.load(Ordering::Relaxed) >= self.config.max_incidents {
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
            .last_spans(self.config.span_window)
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
            .field(
                "telemetry",
                match (&self.registry, self.config.include_telemetry) {
                    (Some(r), true) => r.snapshot().to_json(),
                    _ => Json::Null,
                },
            );
        // The live ring keeps the incident even if the sink's disk write
        // fails — an operator scraping /incidents should not go blind
        // because the JSONL file did.
        if self.config.ring_capacity > 0 {
            let mut ring = self.ring.lock();
            if ring.len() == self.config.ring_capacity {
                ring.pop_front();
            }
            ring.push_back(doc.render());
        }
        if self.sink.write_json(&doc) {
            self.incidents.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl EngineEventSink for FlightRecorder {
    fn on_event(&self, event: &EngineEvent) {
        let trigger = match event {
            EngineEvent::Rollback(_) => "rollback",
            EngineEvent::Quarantine(_) => "quarantine",
            // A switch the allocation dimension decided: the incident
            // preserves the alloc/energy cost columns and the measured
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
        let overhead = cs_trace::snapshot().overhead();
        let was_over = self.over_budget.load(Ordering::Relaxed) == 1;
        // Only judge the ratio once application time has been credited:
        // before the first flush the denominator is empty and any recorded
        // span would push the ratio to 1.0, which is startup noise, not an
        // anomaly.
        let is_over =
            overhead.app_nanos > 0 && overhead.ratio() > self.config.overhead_budget;
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
        // Allocation-spike detection against the process-wide counting
        // ledger. Pass 0 establishes the byte baseline, pass 1 seeds the
        // trailing average with the first measured delta; judgment starts
        // at pass 2. The trailing EWMA folds the spike in *after* judging
        // it, so one burst cannot lift its own baseline — and the latch
        // releases only once a pass comes back under the ratio.
        let alloc_now = cs_heap::process_account().alloc_bytes;
        let prev = self.last_alloc_bytes.swap(alloc_now, Ordering::Relaxed);
        let passes = self.alloc_passes.fetch_add(1, Ordering::Relaxed);
        let delta = alloc_now.saturating_sub(prev);
        match passes {
            0 => {}
            1 => self.alloc_trailing.store(delta, Ordering::Relaxed),
            _ => {
                let trailing = self.alloc_trailing.load(Ordering::Relaxed);
                let spiking = delta >= self.config.alloc_spike_min_bytes
                    && delta as f64 > self.config.alloc_spike_ratio * (trailing as f64).max(1.0);
                let was = self.alloc_spiking.swap(u64::from(spiking), Ordering::Relaxed) == 1;
                if spiking && !was {
                    self.record_incident("alloc_spike", None);
                }
                let next = ((trailing as u128 * 7 + delta as u128) / 8) as u64;
                self.alloc_trailing.store(next, Ordering::Relaxed);
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

    fn recorder(path: &std::path::Path, config: FlightRecorderConfig) -> Arc<FlightRecorder> {
        let sink = Arc::new(JsonlSink::create(path, 1_000).unwrap());
        Arc::new(FlightRecorder::new(sink, MetricsRegistry::new(), config))
    }

    #[test]
    fn rollback_event_produces_parseable_incident() {
        let path = tmp("rollback");
        let rec = recorder(
            &path,
            FlightRecorderConfig {
                include_telemetry: true,
                ..FlightRecorderConfig::default()
            },
        );
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
        let rec = recorder(
            &path,
            FlightRecorderConfig {
                max_incidents: 2,
                include_telemetry: false,
                ..FlightRecorderConfig::default()
            },
        );
        rec.on_event(&EngineEvent::ModelFallback(cs_core::ModelFallbackEvent {
            file: "x".into(),
            reason: "y".into(),
        }));
        assert_eq!(rec.incidents_recorded(), 0, "fallback is not a trigger");
        for _ in 0..5 {
            rec.on_event(&EngineEvent::Quarantine(cs_core::QuarantineEvent {
                context_id: 1,
                context_name: "q".into(),
                abstraction: cs_collections::Abstraction::List,
                candidate: "array".into(),
                until_round: 9,
                strikes: 1,
                round: 2,
            }));
        }
        assert_eq!(rec.incidents_recorded(), 2, "capped at max_incidents");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_start_triggers_fire_only_on_anomalies() {
        let path = tmp("warm");
        let rec = recorder(
            &path,
            FlightRecorderConfig {
                include_telemetry: false,
                ..FlightRecorderConfig::default()
            },
        );
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
        rec.sink().flush().unwrap();
        assert_eq!(rec.incidents_recorded(), 2);
        let content = std::fs::read_to_string(&path).unwrap();
        let triggers: Vec<String> = content
            .lines()
            .map(|l| {
                Json::parse(l)
                    .expect("incident parses")
                    .get("trigger")
                    .and_then(Json::as_str)
                    .expect("trigger field")
                    .to_owned()
            })
            .collect();
        assert_eq!(triggers, ["state_quarantine", "warm_start_reject"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn alloc_driven_switch_records_an_alloc_switch_incident() {
        let path = tmp("allocswitch");
        let rec = recorder(
            &path,
            FlightRecorderConfig {
                include_telemetry: false,
                ..FlightRecorderConfig::default()
            },
        );
        let explanation = cs_core::SelectionExplanation {
            context_id: 5,
            context_name: "event-log#buffer".into(),
            abstraction: cs_collections::Abstraction::List,
            rule: "R_alloc_rate".into(),
            round: 7,
            current: "linked".into(),
            current_primary_cost: 40_000.0,
            current_alloc_cost: 40_000.0,
            current_energy_cost: 52_000.0,
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
        assert_eq!(doc.get("trigger").and_then(Json::as_str), Some("alloc_switch"));
        let event = doc.get("event").expect("event attached");
        assert_eq!(event.get("alloc_driven"), Some(&Json::Bool(true)));
        assert_eq!(event.get("alloc_bytes_per_op").and_then(Json::as_f64), Some(41.5));
        assert_eq!(event.get("current_alloc_cost").and_then(Json::as_f64), Some(40_000.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn alloc_spike_stays_quiet_without_a_counting_allocator() {
        // This binary has no counting allocator: every per-pass delta reads
        // zero, so no amount of polling may fire an alloc_spike (the real
        // firing path is exercised by the alloc_spike example binary).
        let path = tmp("allocspike");
        let rec = recorder(
            &path,
            FlightRecorderConfig {
                include_telemetry: false,
                alloc_spike_min_bytes: 0,
                ..FlightRecorderConfig::default()
            },
        );
        for _ in 0..6 {
            rec.on_analysis_pass(Duration::from_micros(1));
        }
        assert_eq!(rec.incidents_recorded(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn external_phase_shift_incident_carries_detail_and_lands_in_the_ring() {
        let path = tmp("phase");
        let rec = recorder(
            &path,
            FlightRecorderConfig {
                include_telemetry: false,
                ..FlightRecorderConfig::default()
            },
        );
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
        assert_eq!(doc.get("trigger").and_then(Json::as_str), Some("phase_shift"));
        let detail = doc.get("detail").expect("detail attached");
        assert_eq!(detail.get("site").and_then(Json::as_str), Some("session-cache"));
        assert_eq!(detail.get("value").and_then(Json::as_f64), Some(0.2));
        // The same record also reached the sink on disk.
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().next(), Some(ring[0].as_str()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incident_ring_is_bounded_and_evicts_oldest_first() {
        let path = tmp("ring");
        let rec = recorder(
            &path,
            FlightRecorderConfig {
                include_telemetry: false,
                max_incidents: 100,
                ring_capacity: 3,
                ..FlightRecorderConfig::default()
            },
        );
        for i in 0..5u64 {
            rec.record_external("phase_shift", Json::object().field("n", i));
        }
        let ring = rec.recent_incidents();
        assert_eq!(ring.len(), 3, "ring holds only the newest 3");
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
        assert_eq!(ns, [2, 3, 4], "oldest evicted first");
        // The external path honours the incident cap too.
        let capped = recorder(
            &tmp("ringcap"),
            FlightRecorderConfig {
                include_telemetry: false,
                max_incidents: 1,
                ..FlightRecorderConfig::default()
            },
        );
        capped.record_external("phase_shift", Json::object());
        capped.record_external("phase_shift", Json::object());
        assert_eq!(capped.incidents_recorded(), 1);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(tmp("ringcap")).ok();
    }

    #[test]
    fn disconnect_poll_is_edge_detected() {
        let path = tmp("edge");
        let rec = recorder(&path, FlightRecorderConfig::default());
        let engine = cs_core::Switch::builder().build();
        rec.attach(&engine);
        // No disconnects yet: polling fires nothing.
        rec.on_analysis_pass(Duration::from_micros(1));
        rec.on_analysis_pass(Duration::from_micros(1));
        assert_eq!(rec.incidents_recorded(), 0);
        std::fs::remove_file(&path).ok();
    }
}
