//! Adaptive allocation contexts (paper §3.1, §4.3).
//!
//! A context stands in for one instrumented allocation site. It carries the
//! site's *current* variant kind (updated by the analyzer), the monitoring
//! window for sampling created instances, the sink finished instances report
//! into, and the accumulated workload history the selection algorithm runs
//! over.

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cs_collections::{Abstraction, AnyList, AnyMap, AnySet, ListKind, MapKind, SetKind};
use cs_model::{CostDimension, PerformanceModel};
use cs_profile::{
    ClockSampler, ProfileHistogram, ProfileSink, WindowConfig, WindowState, WorkloadProfile,
};
use parking_lot::Mutex;

use crate::engine::Models;
use crate::event::{
    EngineEvent, QuarantineEvent, RollbackEvent, SelectionExplanation, SelectionOutcome,
    TransitionEvent,
};
use crate::guard::{GuardState, GuardrailConfig, PendingVerification};
use crate::handles::{Monitor, SwitchList, SwitchMap, SwitchSet};
use crate::kind_ext::{Kind, ModelFamily};
use crate::rules::SelectionRule;
use crate::select::PassRecord;

/// Counters describing a context's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Analysis rounds completed.
    pub rounds: u64,
    /// Variant switches performed.
    pub switches: u64,
    /// Switches undone because post-switch verification failed.
    pub rollbacks: u64,
    /// Instances aggregated into the workload history.
    pub history_instances: u64,
    /// Monitored instances started in the current round.
    pub monitored_in_round: usize,
}

/// Clocked ops a monitoring window aims to carry: enough for post-switch
/// verification to compare two windows' cost per op, few enough that the
/// clock is a small share of monitored op time.
const CLOCKED_OPS_PER_WINDOW: u64 = 256;

/// Clock period monitors start from before the first analysed window,
/// when the site's op volume is still unknown, and the most the window
/// that verifies a switch starts from.
const FIRST_WINDOW_CLOCK_PERIOD: u64 = 8;

/// The bit of [`ContextCore`]'s clock budget marking the window that
/// verifies a switch.
const VERIFYING: u64 = 1 << 63;

/// The kind-generic part of an allocation context: everything the analyzer
/// needs, independent of the element type of the collections the site
/// creates.
#[derive(Debug)]
pub struct ContextCore<K: Kind> {
    id: u64,
    name: String,
    current: AtomicUsize,
    default_kind: K,
    window: WindowState,
    /// Clock period budget `P`, sized by the last analysed window so that
    /// each window clocks about [`CLOCKED_OPS_PER_WINDOW`] ops; 0 before
    /// the first analysed window, and [`VERIFYING`] set in the window that
    /// verifies a switch. [`ContextCore::clock_schedule`] reads it.
    clock_budget: AtomicU64,
    sink: ProfileSink,
    config: WindowConfig,
    history: Mutex<ProfileHistogram>,
    rounds: AtomicU64,
    switches: AtomicU64,
    rollbacks: AtomicU64,
    guard: Mutex<GuardState>,
    /// The numbers behind the most recent selection pass that actually
    /// scored candidates; [`AnyContext::explain`] renders them.
    last_pass: Mutex<Option<LastPass>>,
    /// Shared freeze flag: when the owning engine enters degraded mode it
    /// raises this, and the context stops sampling and analyzing — the
    /// last-known-good variant keeps being instantiated.
    frozen: Arc<AtomicBool>,
}

impl<K: Kind> ContextCore<K> {
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn new(id: u64, name: String, default_kind: K, config: WindowConfig) -> Self {
        Self::with_freeze(
            id,
            name,
            default_kind,
            config,
            Arc::new(AtomicBool::new(false)),
        )
    }

    pub(crate) fn with_freeze(
        id: u64,
        name: String,
        default_kind: K,
        config: WindowConfig,
        frozen: Arc<AtomicBool>,
    ) -> Self {
        ContextCore {
            id,
            name,
            current: AtomicUsize::new(default_kind.index()),
            default_kind,
            window: WindowState::new(),
            clock_budget: AtomicU64::new(0),
            sink: ProfileSink::bounded(config.window_size.max(1) * 4),
            config,
            history: Mutex::new(ProfileHistogram::new()),
            rounds: AtomicU64::new(0),
            switches: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            guard: Mutex::new(GuardState::default()),
            last_pass: Mutex::new(None),
            frozen,
        }
    }

    /// The variant the site currently instantiates.
    pub fn current_kind(&self) -> K {
        K::from_index(self.current_index())
    }

    /// The index of [`ContextCore::current_kind`] in `K::all()`: one
    /// atomic load, for callers that compare it on every op.
    #[inline]
    pub fn current_index(&self) -> usize {
        self.current.load(Ordering::Acquire)
    }

    /// The variant the developer originally declared.
    pub fn default_kind(&self) -> K {
        self.default_kind
    }

    /// Installs `kind` as the current variant without recording a
    /// transition or touching the monitoring state — the warm-start
    /// import path, called once at context creation before any instance
    /// exists. Adaptation proceeds normally from the installed variant.
    pub(crate) fn warm_set_current(&self, kind: K) {
        self.current.store(kind.index(), Ordering::Release);
    }

    /// Activity counters.
    pub fn stats(&self) -> ContextStats {
        ContextStats {
            rounds: self.rounds.load(Ordering::Relaxed),
            switches: self.switches.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            history_instances: self.history.lock().instances(),
            monitored_in_round: self.window.started(),
        }
    }

    /// Whether the shared freeze flag is raised (engine degraded).
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// The fixed clock period `P` for the site's concurrent op streams:
    /// clock one op in `P` and scale its nanos by `P`. It is `max(1, W /
    /// 256)` for the `W` ops of the last analysed window, 8 before the
    /// first window, and at most 8 in the window that verifies a switch.
    /// `cs-runtime` shards read it when they are built, after each flush
    /// and at each migration. Monitored handles start from it, and back off
    /// from it in the first window and in the verifying one.
    pub fn clock_period(&self) -> u64 {
        self.clock_schedule().0
    }

    /// The `(start, ceiling)` of the monitors' clock: from 8 with no
    /// ceiling before the first analysed window, from `min(8, P)` up to
    /// `P` in the window that verifies a switch, and a fixed `P` in every
    /// other window.
    fn clock_schedule(&self) -> (u64, u64) {
        let budget = self.clock_budget.load(Ordering::Relaxed);
        let period = budget & !VERIFYING;
        if period == 0 {
            (FIRST_WINDOW_CLOCK_PERIOD, u64::MAX)
        } else if budget & VERIFYING != 0 {
            (period.min(FIRST_WINDOW_CLOCK_PERIOD), period)
        } else {
            (period, period)
        }
    }

    /// Claims a monitoring slot for a new instance, returning the monitor
    /// payload if this instance should be sampled. The monitor's clock
    /// follows the window's schedule ([`ContextCore::clock_schedule`]): a
    /// window whose op volume is unknown (the first) or that must be
    /// clocked densely (the verifying one) starts at a short period and
    /// backs off, so a long-lived instance does not clock thousands of its
    /// ops. Its phase is seeded by the slot index. Frozen contexts sample
    /// nothing.
    pub(crate) fn claim_monitor(&self) -> Option<Monitor> {
        if self.is_frozen() {
            return None;
        }
        let slot = self.window.try_claim_slot(self.config.window_size)?;
        let (start, ceiling) = self.clock_schedule();
        Some(Monitor::new(
            self.sink.clone(),
            ClockSampler::backoff(start, ceiling, slot as u64),
        ))
    }

    /// Runs one analysis pass (paper §3.1): if the monitoring round is ready
    /// (finished ratio reached), evaluate the accumulated workload under
    /// `rule` and switch the current variant if a better candidate exists.
    ///
    /// Equivalent to [`ContextCore::analyze_guarded`] with the default
    /// guardrails and guardrail events discarded.
    ///
    /// Returns the transition event if a switch happened.
    pub fn analyze(
        &self,
        model: &PerformanceModel<K>,
        rule: &SelectionRule,
    ) -> Option<TransitionEvent> {
        let mut events = Vec::new();
        self.analyze_guarded(model, rule, &GuardrailConfig::default(), &mut events)
    }

    /// Runs one guarded analysis pass.
    ///
    /// On top of the plain [`ContextCore::analyze`] flow this:
    ///
    /// 1. **Verifies** the previous switch (if one is pending): the
    ///    just-completed window's measured cost-per-operation is compared
    ///    with the pre-switch window's. If the realized ratio exceeds
    ///    `max(1.0, predicted) + tolerance`, the switch is rolled back and
    ///    the candidate quarantined with exponential backoff. Verification
    ///    applies only to time-primary rules, and only when both windows
    ///    carried measured wall time.
    /// 2. Enforces the per-site **cooldown** before switching.
    /// 3. Excludes **quarantined** candidates from selection.
    ///
    /// Guardrail decisions (rollbacks, quarantines) are appended to
    /// `events`; the returned value remains the plain transition, if any.
    /// Frozen contexts (engine degraded) do nothing.
    pub fn analyze_guarded(
        &self,
        model: &PerformanceModel<K>,
        rule: &SelectionRule,
        guard_cfg: &GuardrailConfig,
        events: &mut Vec<EngineEvent>,
    ) -> Option<TransitionEvent> {
        if self.is_frozen() {
            return None;
        }
        let started = self.window.started();
        let finished = self.sink.len();
        if !self.config.round_ready(started, finished) {
            return None;
        }
        let mut window_ops: u64 = 0;
        let mut window_nanos: u64 = 0;
        let mut history = self.history.lock();
        history.decay(self.config.history_decay);
        self.sink.drain_each(|profile| {
            window_ops += profile.total_ops();
            window_nanos = window_nanos.saturating_add(profile.elapsed_nanos());
            history.add(&profile);
        });
        self.clock_budget.store(
            (window_ops / CLOCKED_OPS_PER_WINDOW).max(1),
            Ordering::Relaxed,
        );

        let round = self.rounds.load(Ordering::Relaxed);
        let mut guard = self.guard.lock();

        // Post-switch verification: single-shot against the first completed
        // window after the switch. A pending record that cannot be verified
        // (no timing data, non-time rule, variant changed underneath) is
        // dropped rather than carried forward — stale baselines only get
        // less comparable with time.
        let mut rolled_back = false;
        if let Some(pending) = guard.pending.take() {
            let _verify_span = cs_trace::span(cs_trace::Phase::Verify, self.id);
            let verifiable = guard_cfg.verification_enabled()
                && rule.primary().dimension == CostDimension::Time
                && self.current.load(Ordering::Acquire) == pending.new_index
                && pending.baseline_cpo > 0.0
                && window_ops > 0
                && window_nanos > 0;
            if verifiable {
                let realized_cpo = window_nanos as f64 / window_ops as f64;
                let realized_ratio = realized_cpo / pending.baseline_cpo;
                let threshold = pending.predicted_ratio.max(1.0) + guard_cfg.verify_tolerance;
                if realized_ratio > threshold {
                    let bad = K::from_index(pending.new_index);
                    let restored = K::from_index(pending.prev_index);
                    self.current.store(pending.prev_index, Ordering::Release);
                    self.rollbacks.fetch_add(1, Ordering::Relaxed);
                    let entry = guard.add_strike(pending.new_index, round, guard_cfg);
                    // A rollback is itself a variant change: anchor the
                    // cooldown here, but do not count it as a switch.
                    guard.last_transition_round = Some(round);
                    rolled_back = true;
                    events.push(EngineEvent::Rollback(RollbackEvent {
                        context_id: self.id,
                        context_name: self.name.clone(),
                        abstraction: K::ABSTRACTION,
                        from: bad.to_string(),
                        to: restored.to_string(),
                        predicted_ratio: pending.predicted_ratio,
                        realized_ratio,
                        round,
                    }));
                    events.push(EngineEvent::Quarantine(QuarantineEvent {
                        context_id: self.id,
                        context_name: self.name.clone(),
                        abstraction: K::ABSTRACTION,
                        candidate: bad.to_string(),
                        until_round: entry.until_round,
                        strikes: entry.strikes,
                        round,
                    }));
                }
            }
        }

        let current = self.current_kind();
        let record = if !rolled_back && guard.cooldown_ok(round, guard_cfg) {
            let _decision_span = cs_trace::span(cs_trace::Phase::Decision, self.id);
            PassRecord::score(model, rule, current, &history, |k| {
                !guard.is_quarantined(k.index(), round)
            })
        } else {
            None
        };
        drop(history);

        self.rounds.fetch_add(1, Ordering::Relaxed);
        // Start the next monitoring round regardless of the outcome
        // ("a fraction of the instances is monitored to allow a continuous
        // adaptation process").
        self.window.reset();

        // A pass that bailed before scoring (an empty workload) keeps the
        // last substantive record in place.
        let record = record?;
        let Some(sel) = record.selection::<K>() else {
            *self.last_pass.lock() = Some(LastPass {
                round,
                outcome: SelectionOutcome::NoCandidate,
                record,
            });
            return None;
        };
        // The switch commits from here on: one SwitchExec span per
        // transition event, so span and event counts agree exactly.
        let _switch_span = cs_trace::span(cs_trace::Phase::SwitchExec, self.id);
        let last = LastPass {
            round,
            outcome: SelectionOutcome::Switched,
            record,
        };
        events.push(EngineEvent::Selection(self.render(&last)));
        *self.last_pass.lock() = Some(last);
        let baseline_cpo = if window_ops > 0 {
            window_nanos as f64 / window_ops as f64
        } else {
            0.0
        };
        guard.pending = Some(PendingVerification {
            prev_index: current.index(),
            new_index: sel.kind.index(),
            predicted_ratio: sel.primary_ratio,
            baseline_cpo,
        });
        guard.last_transition_round = Some(round);
        // The next window's cost per op decides the rollback: clock it
        // densely, not on the budget's ~256 ops.
        self.clock_budget.fetch_or(VERIFYING, Ordering::Relaxed);
        self.current.store(sel.kind.index(), Ordering::Release);
        self.switches.fetch_add(1, Ordering::Relaxed);
        // Profiles pushed while this pass ran (a concurrent handle's shard
        // flushing between the drain above and the store) were recorded on
        // the variant just replaced: they join the history, not the window
        // that verifies the switch. The guard goes before the history lock:
        // history is always locked first.
        drop(guard);
        let mut history = self.history.lock();
        self.sink.drain_each(|profile| history.add(&profile));
        drop(history);
        Some(TransitionEvent::new(
            self.id,
            self.name.clone(),
            K::ABSTRACTION,
            current.to_string(),
            sel.kind.to_string(),
            round,
        ))
    }

    /// Clears accumulated history, guardrail state and the clock budget,
    /// and restores the default variant.
    pub fn reset(&self) {
        self.history.lock().clear();
        self.sink.drain();
        self.window.reset();
        self.clock_budget.store(0, Ordering::Relaxed);
        self.guard.lock().clear();
        *self.last_pass.lock() = None;
        self.current
            .store(self.default_kind.index(), Ordering::Release);
    }

    /// Renders a kept pass as the explanation the engine reports.
    fn render(&self, last: &LastPass) -> SelectionExplanation {
        let explained = last.record.render::<K>();
        SelectionExplanation {
            context_id: self.id,
            context_name: self.name.clone(),
            abstraction: K::ABSTRACTION,
            rule: last.record.rule().to_owned(),
            round: last.round,
            current: last.record.current::<K>().to_string(),
            current_primary_cost: explained.current_primary_cost,
            current_alloc_cost: explained.current_alloc_cost,
            current_energy_cost: explained.current_energy_cost,
            alloc_bytes_per_op: explained.alloc_bytes_per_op,
            alloc_driven: explained.alloc_driven,
            candidates: explained.candidates,
            winner: explained.selection.map(|s| s.kind.to_string()),
            winning_margin: explained.selection.map_or(0.0, |s| 1.0 - s.primary_ratio),
            outcome: last.outcome,
        }
    }
}

/// The latest scored pass of a context: its record, its round and what it
/// did with the winner.
#[derive(Debug, Clone, Copy)]
struct LastPass {
    round: u64,
    outcome: SelectionOutcome,
    record: PassRecord,
}

/// An allocation context of any kind family, with the family erased:
/// everything the engine's registry and `cs-runtime`'s sites need from a
/// [`ContextCore`] without naming its kind. Implemented for
/// `ContextCore<ListKind>`, `ContextCore<SetKind>` and
/// `ContextCore<MapKind>`, the families the engine holds a model for.
pub trait AnyContext: Send + Sync + fmt::Debug {
    /// The context's unique id within its engine.
    fn id(&self) -> u64;

    /// The context's name (allocation-site label).
    fn name(&self) -> &str;

    /// The abstraction of the site's kind family.
    fn abstraction(&self) -> Abstraction;

    /// The name of the variant the site currently instantiates.
    fn current_kind_name(&self) -> String;

    /// The name of the variant the developer originally declared.
    fn default_kind_name(&self) -> String;

    /// Activity counters ([`ContextCore::stats`]).
    fn stats(&self) -> ContextStats;

    /// The decision audit trail of the most recent analysis pass that
    /// scored candidates at this site (rounds skipped for cooldown, an
    /// empty workload, or a just-performed rollback leave the previous
    /// explanation in place). `None` until the first scored pass.
    fn explain(&self) -> Option<SelectionExplanation>;

    /// Profiles delivered into this context's sink so far (monitored
    /// instances that finished, plus ingested epoch flushes), including
    /// profiles the bounded sink has since evicted.
    fn profiles_pushed(&self) -> u64;

    /// Profiles evicted unseen because the context's bounded sink
    /// overflowed between analysis passes.
    fn profiles_dropped(&self) -> u64;

    /// Attributed allocation churn `(events, bytes)` currently held in the
    /// site's decayed workload history — the observable behind the
    /// alloc-rate dimension, exported into snapshot profile summaries.
    fn history_alloc(&self) -> (u64, u64);

    /// Mean attributed allocation bytes per aggregated operation in the
    /// site's workload history; `0.0` before any monitored instance landed.
    /// Exported on [`SiteManifestEntry`](crate::SiteManifestEntry) rows so
    /// the static analyzer's drift check can compare its predicted
    /// allocation class against the measured one.
    fn history_alloc_per_op(&self) -> f64;

    /// Ingests an externally accumulated [`WorkloadProfile`] as one
    /// finished monitored "instance" of this site.
    ///
    /// This is the feedback channel for *long-lived concurrent* collections
    /// (the `cs-runtime` crate): instead of one profile per short-lived
    /// handle, each shard of a concurrent handle flushes its window buffer
    /// here on epoch boundaries. Each flush claims a monitoring slot (best
    /// effort — a full window still accepts the profile, it just does not
    /// grow the round's `started` count) and lands in the sink, so
    /// [`ContextCore::analyze_guarded`] sees epochs exactly as it sees
    /// finished instances: same round-readiness rule, same verification
    /// arithmetic, same rollback and quarantine semantics.
    ///
    /// Returns `false` (dropping the profile) when the context is frozen.
    fn ingest_profile(&self, profile: WorkloadProfile) -> bool;

    /// Runs [`ContextCore::analyze_guarded`] against the family's model in
    /// `models`.
    fn analyze_pass(
        &self,
        models: &Models,
        rule: &SelectionRule,
        guard_cfg: &GuardrailConfig,
        events: &mut Vec<EngineEvent>,
    ) -> Option<TransitionEvent>;
}

impl<K: ModelFamily> AnyContext for ContextCore<K> {
    fn id(&self) -> u64 {
        self.id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn abstraction(&self) -> Abstraction {
        K::ABSTRACTION
    }

    fn current_kind_name(&self) -> String {
        self.current_kind().to_string()
    }

    fn default_kind_name(&self) -> String {
        self.default_kind.to_string()
    }

    fn stats(&self) -> ContextStats {
        ContextCore::stats(self)
    }

    fn explain(&self) -> Option<SelectionExplanation> {
        let last = *self.last_pass.lock();
        last.map(|last| self.render(&last))
    }

    fn profiles_pushed(&self) -> u64 {
        self.sink.pushed()
    }

    fn profiles_dropped(&self) -> u64 {
        self.sink.dropped()
    }

    fn history_alloc(&self) -> (u64, u64) {
        let history = self.history.lock();
        (history.alloc_count(), history.alloc_bytes())
    }

    fn history_alloc_per_op(&self) -> f64 {
        self.history.lock().alloc_bytes_per_op()
    }

    fn ingest_profile(&self, profile: WorkloadProfile) -> bool {
        if self.is_frozen() {
            return false;
        }
        // One ingest span per accepted profile: the span count agrees
        // exactly with the site's flush count on the concurrent path.
        let _span = cs_trace::span(cs_trace::Phase::Ingest, self.id);
        self.window.try_claim_slot(self.config.window_size);
        self.sink.push(profile);
        true
    }

    fn analyze_pass(
        &self,
        models: &Models,
        rule: &SelectionRule,
        guard_cfg: &GuardrailConfig,
        events: &mut Vec<EngineEvent>,
    ) -> Option<TransitionEvent> {
        self.analyze_guarded(K::model(models), rule, guard_cfg, events)
    }
}

macro_rules! typed_context {
    (
        $(#[$doc:meta])*
        $name:ident<$($gen:ident: $bound:ident $(+ $more:ident)*),+>, $kind:ty
    ) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name<$($gen: $bound $(+ $more)*),+> {
            core: Arc<ContextCore<$kind>>,
            _marker: PhantomData<fn() -> ($($gen,)+)>,
        }

        impl<$($gen: $bound $(+ $more)*),+> Clone for $name<$($gen),+> {
            fn clone(&self) -> Self {
                Self {
                    core: Arc::clone(&self.core),
                    _marker: PhantomData,
                }
            }
        }

        impl<$($gen: $bound $(+ $more)*),+> $name<$($gen),+> {
            pub(crate) fn from_core(core: Arc<ContextCore<$kind>>) -> Self {
                Self {
                    core,
                    _marker: PhantomData,
                }
            }

            /// The variant future instantiations will use.
            pub fn current_kind(&self) -> $kind {
                self.core.current_kind()
            }

            /// The context's unique id within its engine.
            pub fn id(&self) -> u64 {
                self.core.id
            }

            /// The context's name (allocation-site label).
            pub fn name(&self) -> &str {
                &self.core.name
            }

            /// Activity counters.
            pub fn stats(&self) -> ContextStats {
                self.core.stats()
            }

            /// The kind-generic core (for advanced integration).
            pub fn core(&self) -> &Arc<ContextCore<$kind>> {
                &self.core
            }
        }
    };
}

typed_context!(
    /// An adaptive allocation context for list sites.
    ///
    /// Created by [`Switch::list_context`](crate::Switch::list_context);
    /// cheap to clone (shared core).
    ListContext<T: Eq + Hash + Clone>, ListKind
);

impl<T: Eq + Hash + Clone> ListContext<T> {
    /// Instantiates a list of the site's current variant (paper Fig. 4:
    /// `ctx.createList()` in place of `new ArrayList<>()`).
    pub fn create_list(&self) -> SwitchList<T> {
        SwitchList::new(
            AnyList::new(self.core.current_kind()),
            self.core.claim_monitor(),
        )
    }
}

typed_context!(
    /// An adaptive allocation context for set sites.
    ///
    /// Created by [`Switch::set_context`](crate::Switch::set_context).
    SetContext<T: Eq + Hash + Clone>, SetKind
);

impl<T: Eq + Hash + Clone> SetContext<T> {
    /// Instantiates a set of the site's current variant.
    pub fn create_set(&self) -> SwitchSet<T> {
        SwitchSet::new(
            AnySet::new(self.core.current_kind()),
            self.core.claim_monitor(),
        )
    }
}

typed_context!(
    /// An adaptive allocation context for map sites.
    ///
    /// Created by [`Switch::map_context`](crate::Switch::map_context); cheap
    /// to clone (shared core).
    MapContext<K: Eq + Hash + Clone, V: Clone>, MapKind
);

impl<K: Eq + Hash + Clone, V: Clone> MapContext<K, V> {
    /// Instantiates a map of the site's current variant.
    pub fn create_map(&self) -> SwitchMap<K, V> {
        SwitchMap::new(
            AnyMap::new(self.core.current_kind()),
            self.core.claim_monitor(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_model::default_models;
    use std::time::Duration;

    fn test_config() -> WindowConfig {
        WindowConfig {
            window_size: 10,
            finished_ratio: 0.6,
            monitoring_rate: Duration::from_millis(50),
            min_samples: 5,
            history_decay: 0.5,
        }
    }

    fn list_core() -> ContextCore<ListKind> {
        ContextCore::new(1, "site".into(), ListKind::Array, test_config())
    }

    #[test]
    fn analysis_waits_for_finished_ratio() {
        let core = list_core();
        let ctx: ListContext<i64> = ListContext::from_core(Arc::new(core));
        // Create monitored instances but keep them alive.
        let held: Vec<_> = (0..10)
            .map(|_| {
                let mut l = ctx.create_list();
                for v in 0..200 {
                    l.push(v);
                }
                for v in 0..200 {
                    l.contains(&v);
                }
                l
            })
            .collect();
        assert!(ctx
            .core()
            .analyze(default_models::list_model(), &SelectionRule::r_time())
            .is_none());
        drop(held);
        let event = ctx
            .core()
            .analyze(default_models::list_model(), &SelectionRule::r_time())
            .expect("ready round with lookup-heavy workload must switch");
        assert_eq!(event.to, "hasharray");
        assert_eq!(ctx.current_kind(), ListKind::HashArray);
    }

    #[test]
    fn only_window_size_instances_are_monitored() {
        let core = Arc::new(list_core());
        let ctx: ListContext<i64> = ListContext::from_core(core);
        let monitored = (0..50)
            .map(|_| ctx.create_list())
            .filter(|l| l.is_monitored())
            .count();
        assert_eq!(monitored, 10);
    }

    #[test]
    fn new_round_starts_after_analysis() {
        let core = Arc::new(list_core());
        let ctx: ListContext<i64> = ListContext::from_core(core);
        for _ in 0..10 {
            let mut l = ctx.create_list();
            for v in 0..100 {
                l.push(v);
                l.contains(&v);
            }
        }
        ctx.core()
            .analyze(default_models::list_model(), &SelectionRule::r_time());
        // Window reset: new instances are monitored again.
        let l = ctx.create_list();
        assert!(l.is_monitored());
        assert_eq!(ctx.stats().rounds, 1);
    }

    #[test]
    fn no_switch_without_workload() {
        let core = Arc::new(list_core());
        let ctx: ListContext<i64> = ListContext::from_core(core);
        for _ in 0..10 {
            let _ = ctx.create_list(); // created and dropped untouched
        }
        let event = ctx
            .core()
            .analyze(default_models::list_model(), &SelectionRule::r_time());
        assert!(event.is_none());
        assert_eq!(ctx.current_kind(), ListKind::Array);
    }

    #[test]
    fn reset_restores_default() {
        let core = Arc::new(list_core());
        let ctx: ListContext<i64> = ListContext::from_core(core);
        for _ in 0..10 {
            let mut l = ctx.create_list();
            for v in 0..100 {
                l.push(v);
                l.contains(&v);
            }
        }
        ctx.core()
            .analyze(default_models::list_model(), &SelectionRule::r_time());
        assert_ne!(ctx.current_kind(), ListKind::Array);
        ctx.core().reset();
        assert_eq!(ctx.current_kind(), ListKind::Array);
        assert_eq!(ctx.stats().history_instances, 0);
    }

    // --- guarded analysis ------------------------------------------------
    //
    // These tests bypass the handles and feed synthetic profiles (with
    // hand-picked wall times) straight into the context's sink, making the
    // verification arithmetic fully deterministic.

    use crate::guard::GuardrailConfig;
    use cs_model::{CostDimension as Dim, Polynomial, VariantCostModel};
    use cs_profile::{OpCounters, OpKind, WorkloadProfile};

    /// A model that (wrongly) claims Linked is 10× cheaper than Array for
    /// every critical op — the "deliberately inverted model".
    fn inverted_list_model() -> PerformanceModel<ListKind> {
        let mut pm: PerformanceModel<ListKind> = PerformanceModel::new();
        let flat = |c: f64| {
            let mut vm = VariantCostModel::new();
            for op in OpKind::ALL {
                vm.set_op_cost(Dim::Time, op, Polynomial::constant(c));
            }
            vm
        };
        pm.insert_variant(ListKind::Array, flat(100.0));
        pm.insert_variant(ListKind::Linked, flat(10.0));
        pm
    }

    /// Claims `n` monitoring slots and pushes `n` profiles of `ops`
    /// contains-ops each, spreading `total_nanos` across them.
    fn feed_window<K: Kind>(core: &ContextCore<K>, n: usize, ops: u64, nanos_per_profile: u64) {
        for _ in 0..n {
            assert!(core
                .window
                .try_claim_slot(core.config.window_size)
                .is_some());
            let mut c = OpCounters::new();
            c.add(OpKind::Contains, ops);
            core.sink
                .push(WorkloadProfile::with_nanos(c, 50, nanos_per_profile));
        }
    }

    #[test]
    fn ingested_profiles_drive_analysis_rounds() {
        let core = list_core();
        for _ in 0..10 {
            let mut c = OpCounters::new();
            c.add(OpKind::Contains, 100);
            assert!(core.ingest_profile(WorkloadProfile::with_nanos(c, 50, 1_000)));
        }
        let event = core
            .analyze(default_models::list_model(), &SelectionRule::r_time())
            .expect("10 ingested lookup-heavy epochs make a ready round");
        assert_eq!(event.to, "hasharray");
        assert_eq!(core.stats().history_instances, 10);
    }

    #[test]
    fn ingest_beyond_window_still_lands_in_history() {
        let core = list_core(); // window_size 10
        for _ in 0..25 {
            let mut c = OpCounters::new();
            c.add(OpKind::Contains, 10);
            assert!(core.ingest_profile(WorkloadProfile::new(c, 5)));
        }
        core.analyze(default_models::list_model(), &SelectionRule::r_time());
        // All 25 profiles were aggregated even though only 10 window slots
        // exist: the window bounds round cadence, not data retention.
        assert_eq!(core.stats().history_instances, 25);
    }

    #[test]
    fn frozen_context_rejects_ingested_profiles() {
        let frozen = Arc::new(AtomicBool::new(false));
        let core = ContextCore::with_freeze(
            1,
            "site".into(),
            ListKind::Array,
            test_config(),
            Arc::clone(&frozen),
        );
        frozen.store(true, Ordering::Release);
        assert!(!core.ingest_profile(WorkloadProfile::default()));
        assert_eq!(core.sink.len(), 0);
    }

    #[test]
    fn bad_switch_is_rolled_back_and_quarantined() {
        let core = list_core();
        let model = inverted_list_model();
        let rule = SelectionRule::r_time();
        let cfg = GuardrailConfig::default();
        let mut events = Vec::new();

        // Round 0: cheap window (10 ns/op) — the inverted model switches
        // the site to Linked and records the baseline.
        feed_window(&core, 10, 100, 1_000);
        let t = core
            .analyze_guarded(&model, &rule, &cfg, &mut events)
            .expect("inverted model must trigger a switch");
        assert_eq!(t.to, "linked");
        assert_eq!(core.current_kind(), ListKind::Linked);
        // The switch leaves its audit trail, but no guardrail event yet.
        assert!(events
            .iter()
            .all(|e| matches!(e, EngineEvent::Selection(_))));
        let sel = events[0].as_selection().expect("selection audit recorded");
        assert_eq!(sel.winner.as_deref(), Some("linked"));
        assert_eq!(sel.outcome, crate::event::SelectionOutcome::Switched);
        assert!(sel.winning_margin > 0.0);

        // Round 1: the realized window is 10× slower (100 ns/op) —
        // verification must undo the switch and quarantine Linked.
        feed_window(&core, 10, 100, 10_000);
        let t = core.analyze_guarded(&model, &rule, &cfg, &mut events);
        assert!(t.is_none(), "rollback is not a transition");
        assert_eq!(core.current_kind(), ListKind::Array);
        assert_eq!(core.stats().rollbacks, 1);
        assert_eq!(core.stats().switches, 1);
        let rb = events
            .iter()
            .find_map(|e| match e {
                EngineEvent::Rollback(r) => Some(r),
                _ => None,
            })
            .expect("rollback event recorded");
        assert_eq!(rb.from, "linked");
        assert_eq!(rb.to, "array");
        assert!(rb.realized_ratio > 5.0);
        let q = events
            .iter()
            .find_map(|e| match e {
                EngineEvent::Quarantine(q) => Some(q),
                _ => None,
            })
            .expect("quarantine event recorded");
        assert_eq!(q.candidate, "linked");
        assert_eq!(q.strikes, 1);

        // Round 2: the model still prefers Linked, but it is quarantined —
        // the site must stay on Array.
        feed_window(&core, 10, 100, 1_000);
        let t = core.analyze_guarded(&model, &rule, &cfg, &mut events);
        assert!(t.is_none(), "quarantined candidate must not be reselected");
        assert_eq!(core.current_kind(), ListKind::Array);
    }

    #[test]
    fn good_switch_passes_verification() {
        let core = list_core();
        let model = inverted_list_model();
        let rule = SelectionRule::r_time();
        let cfg = GuardrailConfig::default();
        let mut events = Vec::new();

        feed_window(&core, 10, 100, 1_000);
        core.analyze_guarded(&model, &rule, &cfg, &mut events)
            .expect("switch");
        // Realized window is *faster* (5 ns/op): the switch sticks.
        feed_window(&core, 10, 100, 500);
        core.analyze_guarded(&model, &rule, &cfg, &mut events);
        assert_eq!(core.current_kind(), ListKind::Linked);
        assert_eq!(core.stats().rollbacks, 0);
        assert!(
            events
                .iter()
                .all(|e| matches!(e, EngineEvent::Selection(_))),
            "a verified good switch leaves only its audit trail"
        );
    }

    #[test]
    fn verification_disabled_never_rolls_back() {
        let core = list_core();
        let model = inverted_list_model();
        let rule = SelectionRule::r_time();
        let cfg = GuardrailConfig::disabled();
        let mut events = Vec::new();

        feed_window(&core, 10, 100, 1_000);
        core.analyze_guarded(&model, &rule, &cfg, &mut events)
            .expect("switch");
        feed_window(&core, 10, 100, 100_000);
        core.analyze_guarded(&model, &rule, &cfg, &mut events);
        assert_eq!(core.current_kind(), ListKind::Linked);
        assert_eq!(core.stats().rollbacks, 0);
    }

    #[test]
    fn cooldown_blocks_rapid_reswitching() {
        let core = list_core();
        let model = inverted_list_model();
        let rule = SelectionRule::r_time();
        // Verification off isolates the cooldown behaviour; 3-round cooldown.
        let cfg = GuardrailConfig::disabled().cooldown_rounds(3);
        let mut events = Vec::new();

        feed_window(&core, 10, 100, 1_000);
        assert!(core
            .analyze_guarded(&model, &rule, &cfg, &mut events)
            .is_some());
        // Manually flip back so the model wants to switch again.
        core.current
            .store(ListKind::Array.index(), Ordering::Release);
        // Rounds 1 and 2 are inside the cooldown.
        for _ in 0..2 {
            feed_window(&core, 10, 100, 1_000);
            assert!(core
                .analyze_guarded(&model, &rule, &cfg, &mut events)
                .is_none());
        }
        // Round 3: cooldown over.
        feed_window(&core, 10, 100, 1_000);
        assert!(core
            .analyze_guarded(&model, &rule, &cfg, &mut events)
            .is_some());
    }

    #[test]
    fn explain_keeps_latest_scored_pass() {
        let core = list_core();
        assert!(core.explain().is_none(), "no pass scored yet");
        let model = inverted_list_model();
        let rule = SelectionRule::r_time();
        let cfg = GuardrailConfig::disabled();
        let mut events = Vec::new();

        feed_window(&core, 10, 100, 1_000);
        core.analyze_guarded(&model, &rule, &cfg, &mut events)
            .expect("switch");
        let exp = core.explain().expect("switched pass explained");
        assert_eq!(exp.winner.as_deref(), Some("linked"));
        assert_eq!(exp.outcome, crate::event::SelectionOutcome::Switched);
        assert_eq!(exp.current, "array");
        assert!(exp.winning_margin > 0.8, "flat 100 -> 10 model: margin 0.9");
        assert!(exp
            .candidates
            .iter()
            .any(|c| c.variant == "linked" && c.satisfied));

        // A pass with no satisfying candidate still refreshes the trail.
        feed_window(&core, 10, 100, 1_000);
        assert!(core
            .analyze_guarded(&model, &rule, &cfg, &mut events)
            .is_none());
        let exp = core.explain().expect("kept-variant pass explained");
        assert_eq!(exp.winner, None);
        assert_eq!(exp.outcome, crate::event::SelectionOutcome::NoCandidate);
        assert_eq!(exp.current, "linked");

        core.reset();
        assert!(core.explain().is_none(), "reset clears the audit trail");
    }

    /// Slot 0's clock in the current window, and the fixed period runtime
    /// shards read.
    fn schedule(core: &ContextCore<ListKind>) -> (ClockSampler, u64) {
        let m = core.claim_monitor().expect("window has a free slot");
        core.window.reset();
        (m.clock(), core.clock_period())
    }

    /// Before the first analysed window: from 8, no ceiling.
    fn first_window() -> (ClockSampler, u64) {
        (ClockSampler::backoff(8, u64::MAX, 0), 8)
    }

    #[test]
    fn each_analysed_window_sets_the_next_monitors_clock_period() {
        let core = list_core();
        assert_eq!(schedule(&core), first_window());
        let rule = SelectionRule::impossible();
        // 10 profiles × 5,000 ops: W = 50,000, so P = 50,000 / 256 = 195,
        // a fixed period.
        feed_window(&core, 10, 5_000, 1_000);
        core.analyze(default_models::list_model(), &rule);
        assert_eq!(schedule(&core), (ClockSampler::new(195, 0), 195));
        // A window smaller than the budget clocks every op.
        feed_window(&core, 10, 10, 1_000);
        core.analyze(default_models::list_model(), &rule);
        assert_eq!(schedule(&core), (ClockSampler::new(1, 0), 1));
        // A round that is not ready leaves the period alone.
        core.analyze(default_models::list_model(), &rule);
        assert_eq!(schedule(&core), (ClockSampler::new(1, 0), 1));
        core.reset();
        assert_eq!(schedule(&core), first_window());
    }

    #[test]
    fn a_committed_switch_clocks_the_verifying_window_densely() {
        let core = list_core();
        let model = inverted_list_model();
        let rule = SelectionRule::r_time();
        let cfg = GuardrailConfig::default();
        let mut events = Vec::new();
        // W = 50,000 gives P = 195, but the window after the switch is the
        // one verification reads: its monitors start at 8 and back off up
        // to 195, and runtime shards clock one op in 8.
        feed_window(&core, 10, 5_000, 50_000);
        assert!(core
            .analyze_guarded(&model, &rule, &cfg, &mut events)
            .is_some());
        assert_eq!(schedule(&core), (ClockSampler::backoff(8, 195, 0), 8));
        // The verifying window (as cheap per op, so no rollback) hands the
        // period back to the budget.
        feed_window(&core, 10, 5_000, 50_000);
        core.analyze_guarded(&model, &rule, &cfg, &mut events);
        assert_eq!(core.stats().rollbacks, 0);
        assert_eq!(schedule(&core), (ClockSampler::new(195, 0), 195));
        // A window already clocking more densely keeps its fixed period.
        core.reset();
        feed_window(&core, 10, 100, 1_000);
        assert!(core
            .analyze_guarded(&model, &rule, &cfg, &mut events)
            .is_some());
        assert_eq!(schedule(&core), (ClockSampler::new(3, 0), 3));
    }

    /// A kind family whose `Display` pushes one profile into an armed sink:
    /// a selection pass formats candidate kinds between its drain and its
    /// store of the new kind, so this stands in for a concurrent shard
    /// flushing in the middle of the pass.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum RacyKind {
        Slow,
        Fast,
        Adaptive,
    }

    thread_local! {
        static MID_PASS_PUSH: std::cell::RefCell<Option<ProfileSink>> =
            const { std::cell::RefCell::new(None) };
    }

    impl std::fmt::Display for RacyKind {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            if let Some(sink) = MID_PASS_PUSH.with(|armed| armed.borrow_mut().take()) {
                let mut c = OpCounters::new();
                c.add(OpKind::Contains, 7);
                sink.push(WorkloadProfile::new(c, 5));
            }
            write!(f, "{self:?}")
        }
    }

    impl Kind for RacyKind {
        const ABSTRACTION: cs_collections::Abstraction = cs_collections::Abstraction::List;
        fn all() -> &'static [Self] {
            &[RacyKind::Slow, RacyKind::Fast, RacyKind::Adaptive]
        }
        fn adaptive_kind() -> Self {
            RacyKind::Adaptive
        }
        fn adaptive_threshold() -> usize {
            1_000
        }
    }

    #[test]
    fn profiles_pushed_during_a_switching_pass_join_the_history_not_the_verify_window() {
        let core = ContextCore::new(1, "racy".into(), RacyKind::Slow, test_config());
        let mut model = PerformanceModel::new();
        for (kind, cost) in [(RacyKind::Slow, 100.0), (RacyKind::Fast, 10.0)] {
            let mut vm = VariantCostModel::new();
            for op in OpKind::ALL {
                vm.set_op_cost(Dim::Time, op, Polynomial::constant(cost));
            }
            model.insert_variant(kind, vm);
        }
        feed_window(&core, 10, 100, 1_000);
        MID_PASS_PUSH.with(|armed| *armed.borrow_mut() = Some(core.sink.clone()));
        assert!(core.analyze(&model, &SelectionRule::r_time()).is_some());
        assert_eq!(core.current_kind(), RacyKind::Fast);
        assert!(
            MID_PASS_PUSH.with(|armed| armed.borrow().is_none()),
            "pushed mid-pass"
        );
        // The mid-pass profile ran on the replaced variant: the window that
        // verifies the switch starts empty, and the history holds it.
        assert_eq!(core.sink.len(), 0);
        assert_eq!(core.stats().history_instances, 11);
    }

    #[test]
    fn frozen_context_neither_samples_nor_analyzes() {
        let frozen = Arc::new(AtomicBool::new(false));
        let core = ContextCore::with_freeze(
            1,
            "site".into(),
            ListKind::Array,
            test_config(),
            Arc::clone(&frozen),
        );
        feed_window(&core, 10, 100, 1_000);
        frozen.store(true, Ordering::Release);
        assert!(core.is_frozen());
        assert!(core.claim_monitor().is_none());
        let mut events = Vec::new();
        let t = core.analyze_guarded(
            &inverted_list_model(),
            &SelectionRule::r_time(),
            &GuardrailConfig::default(),
            &mut events,
        );
        assert!(t.is_none());
        assert_eq!(core.current_kind(), ListKind::Array, "variant frozen");
    }

    #[test]
    fn reset_clears_guard_state() {
        let core = list_core();
        let model = inverted_list_model();
        let rule = SelectionRule::r_time();
        let cfg = GuardrailConfig::default();
        let mut events = Vec::new();

        feed_window(&core, 10, 100, 1_000);
        core.analyze_guarded(&model, &rule, &cfg, &mut events)
            .expect("switch");
        feed_window(&core, 10, 100, 10_000);
        core.analyze_guarded(&model, &rule, &cfg, &mut events);
        assert!(!core.guard.lock().quarantine.is_empty());
        core.reset();
        let g = core.guard.lock();
        assert!(g.quarantine.is_empty());
        assert!(g.pending.is_none());
        assert!(g.last_transition_round.is_none());
    }

    #[test]
    fn history_aggregates_unboundedly_many_instances() {
        let cfg = WindowConfig {
            window_size: 2000,
            finished_ratio: 0.0,
            monitoring_rate: Duration::from_millis(50),
            min_samples: 1,
            history_decay: 0.5,
        };
        let core = Arc::new(ContextCore::new(1, "big".into(), ListKind::Array, cfg));
        let ctx: ListContext<i64> = ListContext::from_core(core);
        for _ in 0..1500 {
            let mut l = ctx.create_list();
            l.push(1);
        }
        ctx.core()
            .analyze(default_models::list_model(), &SelectionRule::r_time());
        assert_eq!(ctx.stats().history_instances, 1500);
    }
}
