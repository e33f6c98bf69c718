//! The CollectionSwitch engine (paper Fig. 1).

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Instant, SystemTime};

use cs_collections::{Abstraction, ListKind, MapKind, SetKind};
use cs_model::{default_models, PerformanceModel};
use cs_profile::WindowConfig;
use parking_lot::Mutex;

use crate::context::{AnyContext, ContextCore, ListContext, MapContext, SetContext};
use crate::event::{
    AnalyzerPanicEvent, DegradedEvent, EngineEvent, EventLog, ModelFallbackEvent,
    SelectionExplanation, TransitionEvent, WarmStartEvent, WarmStartSiteEvent,
    WarmStartSiteOutcome,
};
use crate::guard::GuardrailConfig;
use crate::kind_ext::ModelFamily;
use crate::rules::SelectionRule;
use crate::state::{WarmStartReport, WarmState};
use crate::subscriber::{EngineEventSink, SinkRegistry};

/// The performance models the engine selects against.
///
/// Defaults to the crate's analytic models
/// ([`cs_model::default_models`]); replace them with
/// hardware-calibrated models from [`cs_model::builder`] for
/// machine-specific selection, as the paper prescribes.
#[derive(Debug, Clone)]
pub struct Models {
    /// List variant model.
    pub list: PerformanceModel<ListKind>,
    /// Set variant model.
    pub set: PerformanceModel<SetKind>,
    /// Map variant model.
    pub map: PerformanceModel<MapKind>,
}

impl Default for Models {
    fn default() -> Self {
        Models {
            list: default_models::list_model().clone(),
            set: default_models::set_model().clone(),
            map: default_models::map_model().clone(),
        }
    }
}

impl Models {
    /// Writes the three models to `dir` in the `cs-model` text format
    /// (`lists.model`, `sets.model`, `maps.model`), creating the directory
    /// if needed. Each file is written atomically via
    /// [`cs_model::persist::save_to_path`], so a crash mid-save never
    /// leaves a half-written model for the next boot to trip over.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing a file.
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        fn save<K: ModelFamily>(models: &Models, dir: &Path) -> std::io::Result<()> {
            cs_model::persist::save_to_path(K::model(models), dir.join(model_file::<K>()))
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        save::<ListKind>(self, dir)?;
        save::<SetKind>(self, dir)?;
        save::<MapKind>(self, dir)
    }

    /// Loads the three models from `dir` (the inverse of
    /// [`Models::save_to_dir`]); typically the output directory of a
    /// `model_builder` calibration run.
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::Error`] if a file is missing/unreadable or
    /// fails to parse (parse failures are reported as
    /// [`std::io::ErrorKind::InvalidData`]).
    pub fn load_from_dir(dir: impl AsRef<Path>) -> std::io::Result<Models> {
        fn load<K: ModelFamily>(dir: &Path) -> std::io::Result<PerformanceModel<K>> {
            let path = dir.join(model_file::<K>());
            let text = std::fs::read_to_string(&path)?;
            cs_model::persist::from_text(&text).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })
        }
        let dir = dir.as_ref();
        Ok(Models {
            list: load(dir)?,
            set: load(dir)?,
            map: load(dir)?,
        })
    }

    /// Loads models from `dir`, replacing any file that is missing,
    /// unreadable, or fails validation with the corresponding built-in
    /// analytic model instead of failing the whole load.
    ///
    /// Every substitution is reported as a [`ModelFallbackEvent`]; callers
    /// (notably [`SwitchBuilder::models_from_dir`]) record them in the
    /// engine's event log. This is the robust path for production hosts: a
    /// corrupt calibration directory degrades selection quality, it must
    /// not abort startup.
    pub fn load_from_dir_lenient(dir: impl AsRef<Path>) -> (Models, Vec<ModelFallbackEvent>) {
        fn load<K: ModelFamily>(dir: &Path, models: &mut Models) -> Option<ModelFallbackEvent> {
            let file = model_file::<K>();
            let installed = std::fs::read_to_string(dir.join(&file))
                .map_err(|e| e.to_string())
                .and_then(|text| install_model::<K>(models, &text));
            installed
                .err()
                .map(|reason| ModelFallbackEvent { file, reason })
        }
        let dir = dir.as_ref();
        let mut models = Models::default();
        let fallbacks = [
            load::<ListKind>(dir, &mut models),
            load::<SetKind>(dir, &mut models),
            load::<MapKind>(dir, &mut models),
        ];
        (models, fallbacks.into_iter().flatten().collect())
    }
}

/// The name of `K`'s model file in a model directory.
fn model_file<K: ModelFamily>() -> String {
    format!("{}.model", K::FAMILY)
}

/// Installs the model encoded in `text` as `K`'s model if it passes
/// `cs-model` validation; otherwise keeps the existing model and returns
/// the reason. Snapshot bytes are CRC-checked, but the *semantic*
/// validation (monotone coefficients, known variants) belongs to the model
/// parser — persisted state never bypasses it.
fn install_model<K: ModelFamily>(models: &mut Models, text: &str) -> Result<(), String> {
    *K::model_mut(models) = cs_model::persist::from_text(text).map_err(|e| e.to_string())?;
    Ok(())
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// The selection rule applied at every analysis (paper Table 4).
    pub rule: SelectionRule,
    /// Monitoring window parameters (paper §5 defaults).
    pub window: WindowConfig,
    /// Adaptation guardrails (verification, quarantine, cooldown).
    pub guardrails: GuardrailConfig,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            rule: SelectionRule::r_time(),
            window: WindowConfig::default(),
            guardrails: GuardrailConfig::default(),
        }
    }
}

/// Test-only hook invoked (with the pass number) at the start of every
/// analysis pass. Drives the deterministic fault-injection harness.
#[derive(Clone)]
struct FailpointHook(Arc<dyn Fn(u64) + Send + Sync>);

impl fmt::Debug for FailpointHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FailpointHook(..)")
    }
}

#[derive(Debug)]
struct Shared {
    config: SwitchConfig,
    models: Models,
    /// Every registered context, in registration order.
    registry: Mutex<Vec<Arc<dyn AnyContext>>>,
    log: Mutex<EventLog>,
    /// Transitions committed by analysis passes, over every site.
    transitions: AtomicU64,
    next_context_id: AtomicU64,
    stop: AtomicBool,
    /// Raised when the analyzer exceeded its failure allowance: adaptation
    /// and monitoring freeze engine-wide (shared with every context core).
    degraded: Arc<AtomicBool>,
    /// Consecutive failed analysis passes (reset by a clean pass).
    analyzer_failures: AtomicU32,
    /// Total analyzer panics over the engine's lifetime (never reset; the
    /// consecutive counter above drives degraded mode, this one drives
    /// telemetry).
    analyzer_panics_total: AtomicU64,
    /// Monotonic analysis-pass counter (feeds the failpoint).
    passes: AtomicU64,
    /// Cumulative wall-clock nanoseconds spent inside analysis passes.
    pass_nanos_total: AtomicU64,
    /// Registered event subscribers (telemetry sinks).
    sinks: SinkRegistry,
    failpoint: Option<FailpointHook>,
    /// Warm-start import state, when the engine was built from a snapshot:
    /// the salvage account plus the still-unclaimed site records.
    warm: Option<WarmState>,
    /// Monotone sequence stamped into snapshots by [`Switch::save_state`]
    /// (seeded past the imported snapshot's sequence on warm start).
    snapshot_seq: AtomicU64,
    /// When this engine was built — the anchor for [`Switch::uptime`],
    /// shared by every clone and weak upgrade.
    created_at: Instant,
}

impl Shared {
    /// Records `events` in the bounded log, then delivers them to every
    /// subscriber. The log lock is released before any sink runs, so a slow
    /// or re-entrant sink cannot stall event recording on other threads.
    fn record_and_dispatch(&self, events: Vec<EngineEvent>) {
        if events.is_empty() {
            return;
        }
        {
            let mut log = self.log.lock();
            for event in &events {
                log.push(event.clone());
            }
        }
        self.sinks.dispatch(&events);
    }
}

/// The CollectionSwitch engine: creates allocation contexts, runs the
/// periodic analysis, and records every transition.
///
/// Cloning is cheap (shared state). Dropping the last clone stops the
/// background analyzer, if one was started.
///
/// # Examples
///
/// ```
/// use cs_collections::SetKind;
/// use cs_core::{SelectionRule, Switch};
///
/// let engine = Switch::builder()
///     .rule(SelectionRule::r_alloc())
///     .build();
/// let ctx = engine.set_context::<i64>(SetKind::Chained);
/// for _ in 0..150 {
///     let mut set = ctx.create_set();
///     for v in 0..8 {
///         set.insert(v);
///     }
///     for v in 0..8 {
///         set.contains(&v);
///     }
/// }
/// engine.analyze_now();
/// // Tiny sets under R_alloc: the array variant wins.
/// assert_eq!(ctx.current_kind(), SetKind::Array);
/// ```
pub struct Switch {
    shared: Arc<Shared>,
    analyzer: Option<Arc<AnalyzerHandle>>,
}

impl Clone for Switch {
    fn clone(&self) -> Self {
        Switch {
            shared: Arc::clone(&self.shared),
            analyzer: self.analyzer.clone(),
        }
    }
}

impl fmt::Debug for Switch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Switch")
            .field("rule", &self.shared.config.rule.name())
            .field("contexts", &self.context_count())
            .field("background", &self.analyzer.is_some())
            .finish()
    }
}

/// A non-owning handle to a [`Switch`], obtained from
/// [`Switch::downgrade`].
///
/// Holding one never keeps the engine (or its background analyzer) alive —
/// exactly what a subscriber registered *on* the engine needs to query it
/// back (e.g. the flight recorder fetching a
/// [`SelectionExplanation`] for an incident) without creating a
/// reference cycle through the sink registry.
#[derive(Debug, Clone)]
pub struct WeakSwitch {
    shared: Weak<Shared>,
}

impl WeakSwitch {
    /// A handle that never upgrades, for defaults and tests.
    pub fn dangling() -> WeakSwitch {
        WeakSwitch {
            shared: Weak::new(),
        }
    }

    /// Attempts to upgrade to a usable engine handle; `None` once every
    /// owning [`Switch`] clone has been dropped.
    ///
    /// The upgraded handle shares all engine state but does not own the
    /// background analyzer thread: dropping it never stops analysis.
    pub fn upgrade(&self) -> Option<Switch> {
        self.shared.upgrade().map(|shared| Switch {
            shared,
            analyzer: None,
        })
    }
}

#[derive(Debug)]
struct AnalyzerHandle {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for AnalyzerHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

/// Builder for [`Switch`].
///
/// # Examples
///
/// ```
/// use cs_core::{SelectionRule, Switch};
/// use cs_profile::WindowConfig;
///
/// let engine = Switch::builder()
///     .rule(SelectionRule::r_alloc())
///     .window(WindowConfig {
///         window_size: 50,
///         ..WindowConfig::default()
///     })
///     .build();
/// assert_eq!(engine.rule().name(), "R_alloc");
/// ```
#[derive(Default)]
pub struct SwitchBuilder {
    config: SwitchConfig,
    models: Option<Models>,
    background: bool,
    event_log_capacity: Option<usize>,
    pending_fallbacks: Vec<ModelFallbackEvent>,
    pending_sinks: Vec<Arc<dyn EngineEventSink>>,
    failpoint: Option<FailpointHook>,
    pending_warm: Option<(cs_state::LoadReport, String)>,
    pending_warm_miss: Option<(String, String)>,
}

impl fmt::Debug for SwitchBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwitchBuilder")
            .field("config", &self.config)
            .field("background", &self.background)
            .field("pending_sinks", &self.pending_sinks.len())
            .finish()
    }
}

impl SwitchBuilder {
    /// Sets the selection rule (default: `R_time`).
    pub fn rule(mut self, rule: SelectionRule) -> Self {
        self.config.rule = rule;
        self
    }

    /// Sets the monitoring-window parameters (default: paper §5 values).
    pub fn window(mut self, window: WindowConfig) -> Self {
        self.config.window = window;
        self
    }

    /// Sets the adaptation guardrails (default: [`GuardrailConfig::default`];
    /// [`GuardrailConfig::disabled`] restores the unguarded behaviour).
    pub fn guardrails(mut self, guardrails: GuardrailConfig) -> Self {
        self.config.guardrails = guardrails;
        self
    }

    /// Replaces the default models (e.g. with calibrated ones).
    pub fn models(mut self, models: Models) -> Self {
        self.models = Some(models);
        self
    }

    /// Loads models from a calibration directory via
    /// [`Models::load_from_dir_lenient`]: files that are missing or invalid
    /// fall back to the built-in analytic models, and each substitution is
    /// recorded in the engine's event log rather than failing the build.
    pub fn models_from_dir(mut self, dir: impl AsRef<std::path::Path>) -> Self {
        let (models, fallbacks) = Models::load_from_dir_lenient(dir);
        self.models = Some(models);
        self.pending_fallbacks = fallbacks;
        self
    }

    /// Imports learned selection state from a crash-safe snapshot written
    /// by [`Switch::save_state`].
    ///
    /// First, temp files that a writer killed mid-save left beside `path`
    /// (`<file>.tmp-<pid>-<n>`) are removed, best effort: this is the
    /// startup call, made before the process saves anything, so every such
    /// file is a previous process's garbage.
    ///
    /// Robust end to end: a missing or unreadable file means a plain cold
    /// start (recorded as an [`EngineEvent::WarmStart`] with a note, never
    /// an error), and a damaged file is salvaged leniently — every intact
    /// record is used, every corrupt one is quarantined and counted.
    /// Salvaged site records are *not* applied here; each waits for a live
    /// site of the same name to register and is validated against it then
    /// (see [`Switch::warm_start_report`]).
    ///
    /// Model blobs from the snapshot are installed only when no models were
    /// set explicitly ([`SwitchBuilder::models`] /
    /// [`SwitchBuilder::models_from_dir`] win); a blob that fails
    /// `cs-model` validation is dropped with an
    /// [`EngineEvent::ModelFallback`].
    pub fn warm_start_from(self, path: impl AsRef<std::path::Path>) -> Self {
        let path = path.as_ref();
        let _ = cs_state::sweep_stale_temps(path);
        let source = path.display().to_string();
        match cs_state::load_lenient(path) {
            Ok(report) => self.warm_start_snapshot(report, source),
            Err(e) => {
                let mut this = self;
                this.pending_warm_miss = Some((source, e.to_string()));
                this.pending_warm = None;
                this
            }
        }
    }

    /// Like [`SwitchBuilder::warm_start_from`], from an already-loaded
    /// [`cs_state::LoadReport`] — for hosts that load the snapshot
    /// themselves (e.g. to inspect salvage statistics first). `source` is
    /// the label recorded in events and metrics.
    pub fn warm_start_snapshot(
        mut self,
        report: cs_state::LoadReport,
        source: impl Into<String>,
    ) -> Self {
        self.pending_warm = Some((report, source.into()));
        self.pending_warm_miss = None;
        self
    }

    /// Caps the engine event log at `capacity` entries (oldest dropped
    /// first). Default: [`Switch::DEFAULT_EVENT_LOG_CAPACITY`].
    pub fn event_log_capacity(mut self, capacity: usize) -> Self {
        self.event_log_capacity = Some(capacity);
        self
    }

    /// Registers an [`EngineEventSink`] before the engine starts, so not
    /// even build-time events (model fallbacks) are missed. Equivalent to
    /// [`Switch::subscribe`] for sinks added later.
    pub fn event_sink(mut self, sink: Arc<dyn EngineEventSink>) -> Self {
        self.pending_sinks.push(sink);
        self
    }

    /// Test hook: runs `hook(pass_number)` at the start of every analysis
    /// pass, *inside* the panic isolation boundary. Lets the fault harness
    /// inject deterministic analyzer panics.
    #[doc(hidden)]
    pub fn failpoint(mut self, hook: impl Fn(u64) + Send + Sync + 'static) -> Self {
        self.failpoint = Some(FailpointHook(Arc::new(hook)));
        self
    }

    /// Starts the background analyzer thread at the configured monitoring
    /// rate. Without this, call [`Switch::analyze_now`] explicitly.
    pub fn background(mut self) -> Self {
        self.background = true;
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Switch {
        let log = EventLog::new(
            self.event_log_capacity
                .unwrap_or(Switch::DEFAULT_EVENT_LOG_CAPACITY),
        );
        let sinks = SinkRegistry::default();
        for sink in self.pending_sinks {
            sinks.subscribe(sink);
        }
        let models_explicit = self.models.is_some();
        let mut models = self.models.unwrap_or_default();
        let mut startup_events: Vec<EngineEvent> = self
            .pending_fallbacks
            .into_iter()
            .map(EngineEvent::ModelFallback)
            .collect();
        if let Some((source, reason)) = self.pending_warm_miss {
            startup_events.push(EngineEvent::WarmStart(WarmStartEvent {
                source,
                sites_in_snapshot: 0,
                models_in_snapshot: 0,
                records_loaded: 0,
                records_quarantined: 0,
                duplicates_dropped: 0,
                note: format!("snapshot unavailable, cold start: {reason}"),
            }));
        }
        let mut warm: Option<WarmState> = None;
        let mut next_snapshot_seq = 0u64;
        if let Some((report, source)) = self.pending_warm {
            let cs_state::LoadReport {
                snapshot, stats, ..
            } = report;
            next_snapshot_seq = snapshot.meta.as_ref().map(|m| m.seq).unwrap_or(0);
            let models_in_snapshot = snapshot.models.len();
            if !models_explicit {
                for blob in &snapshot.models {
                    let installed = match blob.family.as_str() {
                        ListKind::FAMILY => install_model::<ListKind>(&mut models, &blob.text),
                        SetKind::FAMILY => install_model::<SetKind>(&mut models, &blob.text),
                        MapKind::FAMILY => install_model::<MapKind>(&mut models, &blob.text),
                        other => Err(format!("unknown model family '{other}'")),
                    };
                    if let Err(reason) = installed {
                        startup_events.push(EngineEvent::ModelFallback(ModelFallbackEvent {
                            file: format!("{source}#{}", blob.family),
                            reason,
                        }));
                    }
                }
            }
            // Records whose abstraction no live site can ever declare are
            // rejected up front; everything else waits in the claim map for
            // a same-named site to register.
            let sites_in_snapshot = snapshot.sites.len();
            let mut unknown_abstractions = 0u64;
            let mut site_map = HashMap::with_capacity(sites_in_snapshot);
            for site in snapshot.sites {
                let abstraction = match site.abstraction.as_str() {
                    "list" => Abstraction::List,
                    "set" => Abstraction::Set,
                    "map" => Abstraction::Map,
                    _ => {
                        unknown_abstractions += 1;
                        continue;
                    }
                };
                site_map.insert((abstraction, site.name.clone()), site);
            }
            let records_quarantined = stats.records_quarantined();
            let note = if stats.is_clean() {
                String::new()
            } else {
                format!("{records_quarantined} corrupt record(s) quarantined")
            };
            startup_events.push(EngineEvent::WarmStart(WarmStartEvent {
                source: source.clone(),
                sites_in_snapshot,
                models_in_snapshot,
                records_loaded: stats.records_loaded,
                records_quarantined,
                duplicates_dropped: stats.duplicates_dropped,
                note,
            }));
            warm = Some(WarmState {
                source,
                sites: Mutex::new(site_map),
                sites_in_snapshot,
                models_in_snapshot,
                applied: AtomicU64::new(0),
                rejected_stale: AtomicU64::new(0),
                rejected_unknown: AtomicU64::new(unknown_abstractions),
                records_loaded: stats.records_loaded,
                records_quarantined,
                duplicates_dropped: stats.duplicates_dropped,
            });
        }
        let shared = Arc::new(Shared {
            config: self.config,
            models,
            registry: Mutex::new(Vec::new()),
            log: Mutex::new(log),
            transitions: AtomicU64::new(0),
            next_context_id: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            degraded: Arc::new(AtomicBool::new(false)),
            analyzer_failures: AtomicU32::new(0),
            analyzer_panics_total: AtomicU64::new(0),
            passes: AtomicU64::new(0),
            pass_nanos_total: AtomicU64::new(0),
            sinks,
            failpoint: self.failpoint,
            warm,
            snapshot_seq: AtomicU64::new(next_snapshot_seq),
            created_at: Instant::now(),
        });
        shared.record_and_dispatch(startup_events);
        let analyzer = if self.background {
            let rate = shared.config.window.monitoring_rate;
            let thread_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("collectionswitch-analyzer".into())
                .spawn(move || {
                    // A failed pass backs the thread off exponentially
                    // (capped at 32× the monitoring rate) so a persistently
                    // panicking model cannot spin a core; a clean pass
                    // restores the configured rate.
                    let mut delay = rate;
                    while !thread_shared.stop.load(Ordering::Acquire) {
                        std::thread::sleep(delay);
                        if thread_shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        if thread_shared.degraded.load(Ordering::Acquire) {
                            break;
                        }
                        if analyze_shared(&thread_shared) {
                            delay = rate;
                        } else {
                            delay = delay.saturating_mul(2).min(rate.saturating_mul(32));
                        }
                    }
                })
                .expect("failed to spawn analyzer thread");
            Some(Arc::new(AnalyzerHandle {
                shared: Arc::clone(&shared),
                thread: Mutex::new(Some(handle)),
            }))
        } else {
            None
        };
        Switch { shared, analyzer }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Consecutive analyzer panics tolerated before the engine enters degraded
/// mode.
const MAX_ANALYZER_FAILURES: u32 = 3;

/// Runs one analysis pass over every registered context, isolating panics.
///
/// Returns `true` when the pass completed cleanly. A panicking pass (a
/// buggy model, a poisoned profile) is caught here: the panic is recorded
/// as an [`AnalyzerPanicEvent`], and after [`MAX_ANALYZER_FAILURES`]
/// *consecutive* failures the engine enters degraded mode — every context freezes on its last-known
/// variant and monitoring stops, rather than crashing the host or silently
/// spinning. `parking_lot` mutexes do not poison, so a pass that unwound
/// mid-iteration leaves the registry and log usable.
fn analyze_shared(shared: &Shared) -> bool {
    if shared.degraded.load(Ordering::Acquire) {
        return false;
    }
    let pass = shared.passes.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(hook) = &shared.failpoint {
            (hook.0)(pass);
        }
        let mut events = Vec::new();
        let registry = shared.registry.lock();
        for core in registry.iter() {
            let transition = core.analyze_pass(
                &shared.models,
                &shared.config.rule,
                &shared.config.guardrails,
                &mut events,
            );
            if let Some(transition) = transition {
                shared.transitions.fetch_add(1, Ordering::Relaxed);
                events.push(EngineEvent::Transition(transition));
            }
        }
        drop(registry);
        shared.record_and_dispatch(events);
    }));
    let elapsed = started.elapsed();
    shared
        .pass_nanos_total
        .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    let clean = match outcome {
        Ok(()) => {
            shared.analyzer_failures.store(0, Ordering::Relaxed);
            true
        }
        Err(payload) => {
            shared.analyzer_panics_total.fetch_add(1, Ordering::Relaxed);
            let consecutive = shared.analyzer_failures.fetch_add(1, Ordering::Relaxed) + 1;
            let mut events = vec![EngineEvent::AnalyzerPanic(AnalyzerPanicEvent {
                consecutive,
                message: panic_message(payload.as_ref()),
            })];
            if consecutive >= MAX_ANALYZER_FAILURES {
                shared.degraded.store(true, Ordering::Release);
                events.push(EngineEvent::DegradedEntered(DegradedEvent {
                    consecutive_failures: consecutive,
                }));
            }
            shared.record_and_dispatch(events);
            false
        }
    };
    shared.sinks.dispatch_pass(elapsed);
    clean
}

impl Switch {
    /// Default capacity of the engine event log — sized so the paper-scale
    /// experiment binaries (hundreds of transitions) never drop an event.
    pub const DEFAULT_EVENT_LOG_CAPACITY: usize = EventLog::DEFAULT_CAPACITY;

    /// Starts building an engine.
    pub fn builder() -> SwitchBuilder {
        SwitchBuilder::default()
    }

    /// The engine's selection rule.
    pub fn rule(&self) -> &SelectionRule {
        &self.shared.config.rule
    }

    /// The engine's window configuration.
    pub fn window_config(&self) -> WindowConfig {
        self.shared.config.window
    }

    /// The engine's guardrail configuration.
    pub fn guardrails(&self) -> &GuardrailConfig {
        &self.shared.config.guardrails
    }

    /// Applies a pending warm-start record to a freshly registered site, if
    /// the imported snapshot carried one for its `(abstraction, name)`.
    ///
    /// Validation is per-site: the record's declared default variant must
    /// match the live site's (the *fingerprint* — a changed default means
    /// the site's identity drifted since the snapshot), and its selected
    /// variant must exist in this build. A record that fails either check
    /// degrades *this* site to a cold start; other sites are unaffected.
    /// Every outcome is recorded as an [`EngineEvent::WarmStartSite`].
    fn apply_warm_start<K: ModelFamily>(&self, core: &ContextCore<K>) {
        let Some(warm) = &self.shared.warm else {
            return;
        };
        let record = warm
            .sites
            .lock()
            .remove(&(K::ABSTRACTION, core.name().to_owned()));
        let Some(record) = record else {
            return;
        };
        let live_default = core.default_kind().to_string();
        let (outcome, detail) = if record.default_kind != live_default {
            warm.rejected_stale.fetch_add(1, Ordering::Relaxed);
            (
                WarmStartSiteOutcome::StaleFingerprint,
                format!(
                    "snapshot declared default '{}', live site declares '{}'; cold start",
                    record.default_kind, live_default
                ),
            )
        } else {
            match K::all()
                .iter()
                .copied()
                .find(|k| k.to_string() == record.current_kind)
            {
                Some(kind) => {
                    core.warm_set_current(kind);
                    warm.applied.fetch_add(1, Ordering::Relaxed);
                    (
                        WarmStartSiteOutcome::Applied,
                        format!(
                            "resumed at '{}' ({} rounds, {} switches learned)",
                            record.current_kind, record.rounds, record.switches
                        ),
                    )
                }
                None => {
                    warm.rejected_unknown.fetch_add(1, Ordering::Relaxed);
                    (
                        WarmStartSiteOutcome::UnknownKind,
                        format!(
                            "variant '{}' unknown to this build; cold start",
                            record.current_kind
                        ),
                    )
                }
            }
        };
        self.shared
            .record_and_dispatch(vec![EngineEvent::WarmStartSite(WarmStartSiteEvent {
                context_id: core.id(),
                context_name: core.name().to_owned(),
                abstraction: K::ABSTRACTION,
                snapshot_kind: record.current_kind,
                outcome,
                detail,
            })]);
    }

    /// Builds a context for a site of family `K`, registers it, and applies
    /// its warm-start record. The id is minted here, once; an anonymous
    /// site is named after it (`list-site-{id}`), so its name matches its
    /// `/explain/<id>` route and its [`Switch::site_manifest`] row.
    fn register<K: ModelFamily>(&self, default: K, name: Option<String>) -> Arc<ContextCore<K>> {
        let id = self.shared.next_context_id.fetch_add(1, Ordering::Relaxed);
        let name = match name {
            Some(name) => name,
            None => format!("{}-site-{id}", K::ABSTRACTION),
        };
        let core = Arc::new(ContextCore::with_freeze(
            id,
            name,
            default,
            self.shared.config.window,
            Arc::clone(&self.shared.degraded),
        ));
        self.shared.registry.lock().push(core.clone());
        self.apply_warm_start(&core);
        core
    }

    /// Creates an adaptive allocation context for a list site with the given
    /// developer-declared default variant.
    pub fn list_context<T: Eq + Hash + Clone>(&self, default: ListKind) -> ListContext<T> {
        ListContext::from_core(self.register(default, None))
    }

    /// Like [`Switch::list_context`], with an explicit allocation-site name
    /// (e.g. `"IndexCursor:70"`).
    pub fn named_list_context<T: Eq + Hash + Clone>(
        &self,
        default: ListKind,
        name: impl Into<String>,
    ) -> ListContext<T> {
        ListContext::from_core(self.register(default, Some(name.into())))
    }

    /// Creates an adaptive allocation context for a set site.
    pub fn set_context<T: Eq + Hash + Clone>(&self, default: SetKind) -> SetContext<T> {
        SetContext::from_core(self.register(default, None))
    }

    /// Like [`Switch::set_context`], with an explicit allocation-site name.
    pub fn named_set_context<T: Eq + Hash + Clone>(
        &self,
        default: SetKind,
        name: impl Into<String>,
    ) -> SetContext<T> {
        SetContext::from_core(self.register(default, Some(name.into())))
    }

    /// Creates an adaptive allocation context for a map site.
    pub fn map_context<K: Eq + Hash + Clone, V: Clone>(
        &self,
        default: MapKind,
    ) -> MapContext<K, V> {
        MapContext::from_core(self.register(default, None))
    }

    /// Like [`Switch::map_context`], with an explicit allocation-site name.
    pub fn named_map_context<K: Eq + Hash + Clone, V: Clone>(
        &self,
        default: MapKind,
        name: impl Into<String>,
    ) -> MapContext<K, V> {
        MapContext::from_core(self.register(default, Some(name.into())))
    }

    /// Runs one synchronous analysis pass over every registered context —
    /// the deterministic alternative to the background analyzer, used by
    /// tests and benchmarks. Panics in the pass are contained exactly as
    /// they are for the background analyzer; a degraded engine no-ops.
    pub fn analyze_now(&self) {
        analyze_shared(&self.shared);
    }

    /// Number of registered allocation contexts.
    pub fn context_count(&self) -> usize {
        self.shared.registry.lock().len()
    }

    /// A copy of the transition log (feeds the paper's Table 6): the
    /// [`EngineEvent::Transition`] entries of the event log, in order.
    pub fn transition_log(&self) -> Vec<TransitionEvent> {
        self.shared
            .log
            .lock()
            .events()
            .filter_map(|e| e.as_transition().cloned())
            .collect()
    }

    /// A copy of the full event log: transitions plus every guardrail
    /// decision (rollbacks, quarantines, model fallbacks, analyzer panics,
    /// degraded-mode entry), oldest first.
    pub fn event_log(&self) -> Vec<EngineEvent> {
        self.shared.log.lock().events().cloned().collect()
    }

    /// Events discarded because the bounded event log overflowed.
    pub fn events_dropped(&self) -> u64 {
        self.shared.log.lock().dropped()
    }

    /// Total events ever recorded (including entries since evicted from the
    /// bounded log).
    pub fn events_recorded(&self) -> u64 {
        self.shared.log.lock().recorded()
    }

    /// Registers an event subscriber. Every subsequent [`EngineEvent`] is
    /// delivered to `sink` at record time, in record order; see
    /// [`EngineEventSink`] for the full contract. A sink that panics is
    /// disconnected and counted in [`EngineHealth::sink_disconnects`] —
    /// it can never poison the engine.
    pub fn subscribe(&self, sink: Arc<dyn EngineEventSink>) {
        self.shared.sinks.subscribe(sink);
    }

    /// Number of currently connected event subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.shared.sinks.len()
    }

    /// Subscribers forcibly disconnected because they panicked during
    /// delivery.
    pub fn sink_disconnects(&self) -> u64 {
        self.shared.sinks.disconnects()
    }

    /// The audit trail of the most recent *scored* analysis pass for the
    /// allocation site with context id `site_id` (as reported by the
    /// context handle's `id()`), or `None` if the site is unknown or no
    /// pass has reached selection yet.
    ///
    /// The explanation lists every candidate's estimated cost, the
    /// exclusion reason for candidates that were never scored, the winner
    /// (if any) and its margin — the paper's "why did it switch?"
    /// diagnosis surface, machine-readable.
    pub fn explain(&self, site_id: u64) -> Option<SelectionExplanation> {
        let registry = self.shared.registry.lock();
        registry.iter().find(|core| core.id() == site_id)?.explain()
    }

    /// Completed analysis passes (clean or panicked) since construction.
    pub fn analysis_passes(&self) -> u64 {
        self.shared.passes.load(Ordering::Relaxed)
    }

    /// Cumulative wall-clock time spent inside analysis passes.
    pub fn analysis_time_total(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.shared.pass_nanos_total.load(Ordering::Relaxed))
    }

    /// How long this engine has existed. Shared by every clone and weak
    /// upgrade (the anchor is in the shared state, not the handle), so the
    /// `/health` endpoint reports one consistent engine age no matter which
    /// handle serves the request.
    pub fn uptime(&self) -> std::time::Duration {
        self.shared.created_at.elapsed()
    }

    /// One-stop liveness summary for dashboards and fault triage: is the
    /// engine still adapting, and what has it lost along the way?
    pub fn health(&self) -> EngineHealth {
        let (mut profiles_ingested, mut profiles_dropped) = (0, 0);
        for core in self.shared.registry.lock().iter() {
            profiles_ingested += core.profiles_pushed();
            profiles_dropped += core.profiles_dropped();
        }
        let (events_recorded, events_dropped) = {
            let log = self.shared.log.lock();
            (log.recorded(), log.dropped())
        };
        EngineHealth {
            degraded: self.is_degraded(),
            contexts: self.context_count(),
            analysis_passes: self.analysis_passes(),
            transitions_used: self.transitions_used(),
            events_recorded,
            events_dropped,
            profiles_ingested,
            profiles_dropped,
            analyzer_panics: self.shared.analyzer_panics_total.load(Ordering::Relaxed),
            sink_disconnects: self.sink_disconnects(),
        }
    }

    /// Downgrades to a non-owning [`WeakSwitch`] that can be stashed in an
    /// event sink without keeping the engine alive.
    pub fn downgrade(&self) -> WeakSwitch {
        WeakSwitch {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Whether the engine froze adaptation after repeated analyzer
    /// failures. A degraded engine keeps serving every site's last-known
    /// variant but samples and switches nothing.
    pub fn is_degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Acquire)
    }

    /// Transitions the analyzer has committed so far, over every site
    /// (rollbacks are not transitions and do not count).
    pub fn transitions_used(&self) -> u64 {
        self.shared.transitions.load(Ordering::Relaxed)
    }

    /// Whether a background analyzer is running.
    pub fn is_background(&self) -> bool {
        self.analyzer.is_some()
    }

    /// Aggregated activity over every registered context: one
    /// `(site name, current variant, stats)` row per site, for dashboards
    /// and the detailed logging the paper lists as its fault-diagnosis
    /// mitigation (§4.4).
    pub fn context_summaries(&self) -> Vec<ContextSummary> {
        let registry = self.shared.registry.lock();
        registry
            .iter()
            .map(|core| ContextSummary {
                name: core.name().to_owned(),
                abstraction: core.abstraction(),
                default_kind: core.default_kind_name(),
                current_kind: core.current_kind_name(),
                stats: core.stats(),
            })
            .collect()
    }

    /// Exports the engine's learned selection state as a [`cs_state::Snapshot`]:
    /// one [`cs_state::SiteRecord`] per registered context, the three
    /// performance models as text blobs, and a meta record (sequence,
    /// wall-clock time, rule, site count).
    ///
    /// This is the read-only half of [`Switch::save_state`]; it never
    /// touches the filesystem.
    pub fn export_state(&self) -> cs_state::Snapshot {
        self.export_state_seq(self.shared.snapshot_seq.load(Ordering::Relaxed))
    }

    fn export_state_seq(&self, seq: u64) -> cs_state::Snapshot {
        let mut snapshot = cs_state::Snapshot::default();
        for core in self.shared.registry.lock().iter() {
            let stats = core.stats();
            snapshot.sites.push(cs_state::SiteRecord {
                name: core.name().to_owned(),
                abstraction: core.abstraction().to_string(),
                default_kind: core.default_kind_name(),
                current_kind: core.current_kind_name(),
                rounds: stats.rounds,
                switches: stats.switches,
                history_instances: stats.history_instances,
            });
        }
        fn blob<K: ModelFamily>(models: &Models) -> cs_state::ModelBlobRecord {
            cs_state::ModelBlobRecord {
                family: K::FAMILY.to_owned(),
                text: cs_model::persist::to_text(K::model(models)),
            }
        }
        let models = &self.shared.models;
        snapshot.models = vec![
            blob::<ListKind>(models),
            blob::<SetKind>(models),
            blob::<MapKind>(models),
        ];
        snapshot.meta = Some(cs_state::MetaRecord {
            seq,
            created_unix_nanos: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0),
            rule: self.shared.config.rule.name().to_owned(),
            site_count: snapshot.sites.len() as u32,
        });
        snapshot
    }

    /// Atomically persists the engine's learned state to `path` via
    /// `cs-state`'s crash-safe writer (temp file + fsync + rename — a
    /// reader never observes a torn snapshot, and a crash mid-write leaves
    /// the previous snapshot intact). Each call stamps the next snapshot
    /// sequence number.
    ///
    /// The snapshot warm-starts a future engine through
    /// [`SwitchBuilder::warm_start_from`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the atomic write; the previous snapshot
    /// at `path` (if any) is untouched on failure.
    pub fn save_state(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<cs_state::WriteReport> {
        let seq = self.shared.snapshot_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let snapshot = self.export_state_seq(seq);
        cs_state::write_atomic(path, &snapshot)
    }

    /// The warm-start account, when this engine imported a snapshot at
    /// build time: sites applied, rejected (stale fingerprint / unknown
    /// variant), still unclaimed, and the loader's salvage counters.
    /// `None` for cold-started engines.
    pub fn warm_start_report(&self) -> Option<WarmStartReport> {
        self.shared.warm.as_ref().map(|w| w.report())
    }

    /// The engine's *site manifest*: one row per registered allocation
    /// context, sorted by site id. This is the dynamic side of the static
    /// drift check — `cs-analyzer` compares it against the allocation sites
    /// it finds in source, reporting static sites never exercised at
    /// runtime and dynamic sites with no static counterpart.
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_collections::{Abstraction, SetKind};
    /// use cs_core::Switch;
    ///
    /// let engine = Switch::builder().build();
    /// let _ctx = engine.named_set_context::<u64>(SetKind::Chained, "dedup-cache");
    /// let manifest = engine.site_manifest();
    /// assert_eq!(manifest.len(), 1);
    /// assert_eq!(manifest[0].name, "dedup-cache");
    /// assert_eq!(manifest[0].abstraction, Abstraction::Set);
    /// assert_eq!(manifest[0].default_kind, "chained");
    /// ```
    pub fn site_manifest(&self) -> Vec<SiteManifestEntry> {
        let registry = self.shared.registry.lock();
        let mut out: Vec<SiteManifestEntry> = registry
            .iter()
            .map(|core| SiteManifestEntry {
                id: core.id(),
                name: core.name().to_owned(),
                abstraction: core.abstraction(),
                default_kind: core.default_kind_name(),
                current_kind: core.current_kind_name(),
                alloc_bytes_per_op: core.history_alloc_per_op(),
            })
            .collect();
        out.sort_by_key(|e| e.id);
        out
    }
}

/// One row of [`Switch::site_manifest`]: the identity of a registered
/// allocation site, without the activity counters of [`ContextSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct SiteManifestEntry {
    /// Engine-assigned site id (monotone per engine).
    pub id: u64,
    /// Site label (developer-declared or auto-generated `*-site-N`).
    pub name: String,
    /// The site's abstraction.
    pub abstraction: cs_collections::Abstraction,
    /// Developer-declared default variant.
    pub default_kind: String,
    /// Variant currently instantiated.
    pub current_kind: String,
    /// Mean attributed allocation bytes per op in the site's workload
    /// history; `0.0` when nothing flushed (or no allocator instrumentation
    /// is installed). The measured side of the analyzer's alloc-class
    /// drift check.
    pub alloc_bytes_per_op: f64,
}

/// Liveness summary returned by [`Switch::health`].
///
/// Everything here is monotone except `degraded` and `contexts`, so hosts
/// can diff two snapshots to get rates. The dropped/panic counters answer
/// the operational question the event log alone cannot: *how much did
/// observability itself lose?*
///
/// # Examples
///
/// ```
/// use cs_core::Switch;
///
/// let engine = Switch::builder().build();
/// let health = engine.health();
/// assert!(!health.degraded);
/// assert_eq!(health.analyzer_panics, 0);
/// println!("{health}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineHealth {
    /// Whether adaptation is frozen after repeated analyzer failures.
    pub degraded: bool,
    /// Registered allocation contexts.
    pub contexts: usize,
    /// Completed analysis passes (clean or panicked).
    pub analysis_passes: u64,
    /// Transitions the analyzer has committed.
    pub transitions_used: u64,
    /// Events ever recorded in the engine log.
    pub events_recorded: u64,
    /// Events lost to the bounded log's eviction.
    pub events_dropped: u64,
    /// Workload profiles accepted by per-site sinks.
    pub profiles_ingested: u64,
    /// Workload profiles discarded by bounded per-site sinks.
    pub profiles_dropped: u64,
    /// Lifetime analyzer panics (not reset by clean passes).
    pub analyzer_panics: u64,
    /// Event subscribers disconnected because they panicked.
    pub sink_disconnects: u64,
}

impl fmt::Display for EngineHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} contexts, {} passes, {} transitions | events {}/{} dropped, \
             profiles {}/{} dropped | {} analyzer panics, {} sink disconnects",
            if self.degraded { "DEGRADED" } else { "healthy" },
            self.contexts,
            self.analysis_passes,
            self.transitions_used,
            self.events_dropped,
            self.events_recorded,
            self.profiles_dropped,
            self.profiles_ingested,
            self.analyzer_panics,
            self.sink_disconnects,
        )
    }
}

/// One row of [`Switch::context_summaries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextSummary {
    /// Site label.
    pub name: String,
    /// The site's abstraction.
    pub abstraction: cs_collections::Abstraction,
    /// Developer-declared default variant.
    pub default_kind: String,
    /// Variant currently instantiated.
    pub current_kind: String,
    /// Activity counters.
    pub stats: crate::context::ContextStats,
}

impl fmt::Display for ContextSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} -> {} (rounds {}, switches {}, rollbacks {}, history {})",
            self.name,
            self.abstraction,
            self.default_kind,
            self.current_kind,
            self.stats.rounds,
            self.stats.switches,
            self.stats.rollbacks,
            self.stats.history_instances
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fast_window() -> WindowConfig {
        WindowConfig {
            window_size: 20,
            finished_ratio: 0.6,
            monitoring_rate: Duration::from_millis(5),
            min_samples: 5,
            history_decay: 0.5,
        }
    }

    fn run_lookup_heavy_site(ctx: &ListContext<i64>, instances: usize) {
        for _ in 0..instances {
            let mut list = ctx.create_list();
            for v in 0..200 {
                list.push(v);
            }
            for v in 0..200 {
                list.contains(&v);
            }
        }
    }

    #[test]
    fn analyze_now_switches_lookup_heavy_list_site() {
        let engine = Switch::builder()
            .rule(SelectionRule::r_time())
            .window(fast_window())
            .build();
        let ctx = engine.list_context::<i64>(ListKind::Array);
        run_lookup_heavy_site(&ctx, 30);
        engine.analyze_now();
        assert_eq!(ctx.current_kind(), ListKind::HashArray);
        let log = engine.transition_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].edge(), "array -> hasharray");
    }

    #[test]
    fn impossible_rule_never_transitions() {
        let engine = Switch::builder()
            .rule(SelectionRule::impossible())
            .window(fast_window())
            .build();
        let ctx = engine.list_context::<i64>(ListKind::Array);
        run_lookup_heavy_site(&ctx, 30);
        engine.analyze_now();
        assert_eq!(ctx.current_kind(), ListKind::Array);
        assert!(engine.transition_log().is_empty());
    }

    #[test]
    fn background_analyzer_converges_without_manual_calls() {
        let engine = Switch::builder()
            .rule(SelectionRule::r_time())
            .window(fast_window())
            .background()
            .build();
        assert!(engine.is_background());
        let ctx = engine.list_context::<i64>(ListKind::Array);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ctx.current_kind() == ListKind::Array && std::time::Instant::now() < deadline {
            run_lookup_heavy_site(&ctx, 25);
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(ctx.current_kind(), ListKind::HashArray);
    }

    #[test]
    fn models_round_trip_through_a_directory() {
        let dir = std::env::temp_dir().join(format!(
            "cs-models-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let models = Models::default();
        models.save_to_dir(&dir).unwrap();
        let restored = Models::load_from_dir(&dir).unwrap();
        assert_eq!(restored.list.len(), models.list.len());
        assert_eq!(restored.set.len(), models.set.len());
        assert_eq!(restored.map.len(), models.map.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loading_from_missing_dir_errors() {
        let err = Models::load_from_dir("/nonexistent/cs-models").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn multiple_context_types_register() {
        // Registered map, list, set: id order is not abstraction order.
        let engine = Switch::builder().window(fast_window()).build();
        let map = engine.named_map_context::<i64, i64>(MapKind::Chained, "m");
        let list = engine.list_context::<i64>(ListKind::Array);
        let set = engine.named_set_context::<i64>(SetKind::Chained, "s");
        let mut finished = 0;
        for v in 0..30 {
            let (mut m, mut l, mut s) = (map.create_map(), list.create_list(), set.create_set());
            m.insert(v, v);
            l.push(v);
            s.insert(v);
            let monitored = [m.is_monitored(), l.is_monitored(), s.is_monitored()];
            finished += monitored.iter().filter(|&&b| b).count() as u64;
        }
        engine.analyze_now();
        assert_eq!(engine.context_count(), 3);
        assert_eq!(list.name(), format!("list-site-{}", list.id()));
        let ids = [map.id(), list.id(), set.id()];
        let kinds = [Abstraction::Map, Abstraction::List, Abstraction::Set];
        let manifest = engine.site_manifest();
        assert!(manifest.iter().map(|e| e.id).eq(ids), "sorted by id");
        assert!(manifest.iter().map(|e| e.abstraction).eq(kinds));
        let summaries = engine.context_summaries();
        assert!(summaries.iter().map(|s| s.abstraction).eq(kinds));
        let defaults = summaries.iter().map(|s| s.default_kind.as_str());
        assert!(defaults.eq(["chained", "array", "chained"]));
        assert!(ids.iter().all(|&id| engine.explain(id).is_some()));
        assert_eq!(engine.health().profiles_ingested, finished);
        let state = engine.export_state();
        let records = state.sites.iter().map(|r| r.abstraction.as_str());
        assert!(records.eq(["map", "list", "set"]));
        let blobs = state.models.iter().map(|b| b.family.as_str());
        assert!(blobs.eq(["lists", "sets", "maps"]));
    }

    #[test]
    fn named_contexts_appear_in_log() {
        let engine = Switch::builder().window(fast_window()).build();
        let ctx = engine.named_list_context::<i64>(ListKind::Array, "IndexCursor:70");
        run_lookup_heavy_site(&ctx, 30);
        engine.analyze_now();
        let log = engine.transition_log();
        assert_eq!(log[0].context_name, "IndexCursor:70");
    }

    #[test]
    fn context_summaries_report_every_site() {
        let engine = Switch::builder().window(fast_window()).build();
        let lists = engine.named_list_context::<i64>(ListKind::Array, "A");
        let _sets = engine.named_set_context::<i64>(SetKind::Chained, "B");
        run_lookup_heavy_site(&lists, 30);
        engine.analyze_now();
        let summaries = engine.context_summaries();
        assert_eq!(summaries.len(), 2);
        let a = summaries.iter().find(|s| s.name == "A").unwrap();
        assert_eq!(a.default_kind, "array");
        assert_eq!(a.current_kind, "hasharray");
        assert_eq!(a.stats.switches, 1);
        assert!(a.to_string().contains("array -> hasharray"));
    }

    #[test]
    fn contexts_are_cloneable_and_share_state() {
        let engine = Switch::builder().window(fast_window()).build();
        let ctx = engine.list_context::<i64>(ListKind::Array);
        let ctx2 = ctx.clone();
        run_lookup_heavy_site(&ctx, 30);
        engine.analyze_now();
        assert_eq!(ctx2.current_kind(), ListKind::HashArray);
    }

    #[test]
    fn concurrent_sites_analyze_independently() {
        let engine = Switch::builder().window(fast_window()).build();
        let lookup = engine.list_context::<i64>(ListKind::Array);
        let iterate = engine.list_context::<i64>(ListKind::Linked);
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let lookup = lookup.clone();
                let iterate = iterate.clone();
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let mut l = lookup.create_list();
                        let mut it = iterate.create_list();
                        for v in 0..(100 + i) {
                            l.push(v);
                            it.push(v);
                        }
                        for v in 0..100 {
                            l.contains(&v);
                        }
                        it.for_each(|_| {});
                        it.for_each(|_| {});
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        engine.analyze_now();
        assert_eq!(lookup.current_kind(), ListKind::HashArray);
        assert_eq!(iterate.current_kind(), ListKind::Array, "LL -> AL (bloat)");
    }
}
