//! Engine events: the framework's trace of variant switches and guardrail
//! decisions.
//!
//! The paper's logging mitigation (§4.4) records transitions so developers
//! can diagnose the framework's choices. The guarded engine extends the same
//! trace with every *defensive* decision it takes — rollbacks, quarantines,
//! model fallbacks, analyzer panics, degraded-mode entry — so that an
//! adaptation gone wrong is always explainable after the fact.

use std::collections::VecDeque;
use std::fmt;

use cs_collections::Abstraction;

/// A record of one allocation-context transition — the raw data behind the
/// paper's Table 6 ("most commonly performed transitions") and the detailed
/// log system the paper describes as its fault-diagnosis mitigation (§4.4).
///
/// # Examples
///
/// ```
/// use cs_collections::Abstraction;
/// use cs_core::TransitionEvent;
///
/// let e = TransitionEvent::new(7, "IndexCursor:70", Abstraction::List, "array", "adaptive", 2);
/// assert_eq!(e.to_string(), "IndexCursor:70: list array -> adaptive (round 2)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransitionEvent {
    /// Id of the allocation context that switched.
    pub context_id: u64,
    /// Human-readable context name (typically the allocation-site label).
    pub context_name: String,
    /// The abstraction of the switched site.
    pub abstraction: Abstraction,
    /// Variant used before the switch.
    pub from: String,
    /// Variant instantiated from now on.
    pub to: String,
    /// Monitoring round in which the switch happened (0-based).
    pub round: u64,
}

impl TransitionEvent {
    /// Creates an event record.
    pub fn new(
        context_id: u64,
        context_name: impl Into<String>,
        abstraction: Abstraction,
        from: impl Into<String>,
        to: impl Into<String>,
        round: u64,
    ) -> Self {
        TransitionEvent {
            context_id,
            context_name: context_name.into(),
            abstraction,
            from: from.into(),
            to: to.into(),
            round,
        }
    }

    /// `"from -> to"`, the form Table 6 aggregates on.
    pub fn edge(&self) -> String {
        format!("{} -> {}", self.from, self.to)
    }
}

impl fmt::Display for TransitionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} {} -> {} (round {})",
            self.context_name, self.abstraction, self.from, self.to, self.round
        )
    }
}

/// The estimated cost of one candidate variant in a selection pass — one
/// row of the decision audit trail ([`SelectionExplanation`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEstimate {
    /// Candidate variant name.
    pub variant: String,
    /// Estimated total cost `TC(V)` on the rule's primary dimension, over
    /// the aggregated workload history.
    pub primary_cost: f64,
    /// `TC(candidate) / TC(current)` on the primary dimension (< 1 is an
    /// improvement).
    pub primary_ratio: f64,
    /// Estimated allocation-rate cost `TC_alloc_rate(V)` of the candidate
    /// over the workload history (modeled bytes churned, no instance term);
    /// 0 when the model carries no alloc-rate curves.
    pub alloc_cost: f64,
    /// Whether the candidate satisfied every criterion of the rule.
    pub satisfied: bool,
    /// Why the candidate was never scored, when it was excluded up front
    /// (`"quarantined"`, `"adaptive-gate"`, `"uncalibrated"`).
    pub excluded: Option<&'static str>,
}

/// Outcome of one audited selection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionOutcome {
    /// A candidate won and the site switched to it.
    Switched,
    /// No candidate satisfied the rule; the site kept its variant.
    NoCandidate,
}

impl fmt::Display for SelectionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SelectionOutcome::Switched => "switched",
            SelectionOutcome::NoCandidate => "no-candidate",
        })
    }
}

/// The decision audit trail of one selection pass at one site: the
/// per-candidate estimated costs the analyzer compared, the winner (if
/// any), and the predicted improvement margin.
///
/// Retrieved with [`Switch::explain`](crate::Switch::explain) (latest pass
/// per site) and recorded as [`EngineEvent::Selection`] whenever a pass
/// produced a winner — the "profile-guided decisions must be inspectable"
/// requirement: every switch can be traced back to the exact cost estimates
/// that justified it.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionExplanation {
    /// Id of the allocation context analyzed.
    pub context_id: u64,
    /// Human-readable context name.
    pub context_name: String,
    /// The abstraction of the site.
    pub abstraction: Abstraction,
    /// Name of the selection rule applied.
    pub rule: String,
    /// Monitoring round of the pass (0-based).
    pub round: u64,
    /// The variant the site held going into the pass.
    pub current: String,
    /// Estimated total cost of the current variant on the rule's primary
    /// dimension.
    pub current_primary_cost: f64,
    /// Estimated allocation-rate cost of the current variant over the
    /// history (0 when its model carries no alloc-rate curves).
    pub current_alloc_cost: f64,
    /// The *measured* allocation intensity of the history the pass
    /// evaluated — attributed bytes per operation from the `cs-heap`
    /// per-site guards, as distinct from the modeled `alloc_cost` columns.
    pub alloc_bytes_per_op: f64,
    /// Whether the allocation dimension decided this pass: true when the
    /// winner was picked under an allocation-primary rule (`R_alloc`,
    /// `R_alloc_rate`). False whenever there is no winner. The flight recorder's
    /// `alloc_switch` reporting and the alloc-sweep bench key on this bit.
    pub alloc_driven: bool,
    /// Every candidate considered (current variant not included).
    pub candidates: Vec<CandidateEstimate>,
    /// The winning candidate, when one satisfied the rule.
    pub winner: Option<String>,
    /// Predicted improvement of the winner over the current variant on the
    /// primary dimension: `1 - primary_ratio` (0 when there is no winner).
    pub winning_margin: f64,
    /// What the pass did with the winner.
    pub outcome: SelectionOutcome,
}

impl fmt::Display for SelectionExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.winner {
            Some(winner) => write!(
                f,
                "{}: {} {} selection {} -> {} (margin {:.1}%, {} candidates, round {}, {})",
                self.context_name,
                self.abstraction,
                self.rule,
                self.current,
                winner,
                self.winning_margin * 100.0,
                self.candidates.len(),
                self.round,
                self.outcome,
            ),
            None => write!(
                f,
                "{}: {} {} keeps {} ({} candidates, round {})",
                self.context_name,
                self.abstraction,
                self.rule,
                self.current,
                self.candidates.len(),
                self.round,
            ),
        }
    }
}

/// A switch that post-switch verification judged harmful and undid.
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackEvent {
    /// Id of the allocation context rolled back.
    pub context_id: u64,
    /// Human-readable context name.
    pub context_name: String,
    /// The abstraction of the site.
    pub abstraction: Abstraction,
    /// The variant being abandoned (the one the failed switch installed).
    pub from: String,
    /// The variant being restored (pre-switch).
    pub to: String,
    /// Cost ratio the model predicted for the switch (new/old, < 1 is an
    /// improvement).
    pub predicted_ratio: f64,
    /// Cost-per-operation ratio actually observed in the verification
    /// window (new/old).
    pub realized_ratio: f64,
    /// Monitoring round in which the rollback happened.
    pub round: u64,
}

impl fmt::Display for RollbackEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} rollback {} -> {} (predicted {:.2}, realized {:.2}, round {})",
            self.context_name,
            self.abstraction,
            self.from,
            self.to,
            self.predicted_ratio,
            self.realized_ratio,
            self.round
        )
    }
}

/// A (site, candidate) pair barred from reselection after a failed switch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuarantineEvent {
    /// Id of the allocation context.
    pub context_id: u64,
    /// Human-readable context name.
    pub context_name: String,
    /// The abstraction of the site.
    pub abstraction: Abstraction,
    /// The candidate variant under quarantine.
    pub candidate: String,
    /// First round at which the candidate becomes selectable again.
    pub until_round: u64,
    /// How many times this candidate has now failed verification here.
    pub strikes: u32,
    /// Monitoring round in which the quarantine was (re)imposed.
    pub round: u64,
}

impl fmt::Display for QuarantineEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} quarantine {} until round {} (strike {}, round {})",
            self.context_name,
            self.abstraction,
            self.candidate,
            self.until_round,
            self.strikes,
            self.round
        )
    }
}

/// A persisted model file that failed validation and was replaced by the
/// built-in analytic model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelFallbackEvent {
    /// The model file that was rejected (e.g. `"lists.model"`).
    pub file: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for ModelFallbackEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model fallback for {}: {}", self.file, self.reason)
    }
}

/// One caught panic inside an analysis pass.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnalyzerPanicEvent {
    /// Consecutive failures so far (resets on a clean pass).
    pub consecutive: u32,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl fmt::Display for AnalyzerPanicEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analyzer panic #{}: {}", self.consecutive, self.message)
    }
}

/// The engine froze adaptation after repeated analyzer failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DegradedEvent {
    /// Consecutive analyzer failures that triggered degraded mode.
    pub consecutive_failures: u32,
}

impl fmt::Display for DegradedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine degraded after {} consecutive analyzer failures",
            self.consecutive_failures
        )
    }
}

/// Summary of one warm-start import at engine build time: what the
/// snapshot store salvaged and what it quarantined.
///
/// Per-site application outcomes are recorded separately as
/// [`WarmStartSiteEvent`]s when the matching live sites register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WarmStartEvent {
    /// Where the snapshot came from (file path, or a label for in-memory
    /// imports).
    pub source: String,
    /// Site records salvaged from the snapshot.
    pub sites_in_snapshot: usize,
    /// Model blobs salvaged from the snapshot.
    pub models_in_snapshot: usize,
    /// Records that loaded cleanly.
    pub records_loaded: u64,
    /// Records quarantined as corrupt (counted, never fatal).
    pub records_quarantined: u64,
    /// Well-formed records dropped by last-wins deduplication.
    pub duplicates_dropped: u64,
    /// Non-empty when the import degraded (snapshot missing or
    /// unreadable, i.e. a full cold start).
    pub note: String,
}

impl fmt::Display for WarmStartEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "warm start from {}: {} sites, {} models ({} records loaded, {} quarantined, {} duplicates)",
            self.source,
            self.sites_in_snapshot,
            self.models_in_snapshot,
            self.records_loaded,
            self.records_quarantined,
            self.duplicates_dropped,
        )?;
        if !self.note.is_empty() {
            write!(f, " [{}]", self.note)?;
        }
        Ok(())
    }
}

/// What happened when a snapshot site record met its live counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarmStartSiteOutcome {
    /// Fingerprint matched; the learned variant was installed.
    Applied,
    /// The live site declares a different default variant than the
    /// snapshot recorded — the site's identity drifted, so it cold-starts.
    StaleFingerprint,
    /// The snapshot's selected variant is unknown to this build — the
    /// site cold-starts on its declared default.
    UnknownKind,
}

impl WarmStartSiteOutcome {
    /// Stable snake_case tag, for metric labels.
    pub fn name(self) -> &'static str {
        match self {
            WarmStartSiteOutcome::Applied => "applied",
            WarmStartSiteOutcome::StaleFingerprint => "stale_fingerprint",
            WarmStartSiteOutcome::UnknownKind => "unknown_kind",
        }
    }
}

impl fmt::Display for WarmStartSiteOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One snapshot site record applied to (or rejected by) a live site at
/// context-creation time.
///
/// Rejections are per-site by design: a stale or unknown record degrades
/// *that* site to a cold start and leaves every other site's warm state
/// intact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WarmStartSiteEvent {
    /// Id of the live allocation context.
    pub context_id: u64,
    /// Name of the live allocation context.
    pub context_name: String,
    /// The site's abstraction.
    pub abstraction: Abstraction,
    /// The variant the snapshot had selected for the site.
    pub snapshot_kind: String,
    /// What the import did with the record.
    pub outcome: WarmStartSiteOutcome,
    /// Human-readable detail (fingerprint mismatch, unknown variant, or
    /// the learned state resumed).
    pub detail: String,
}

impl fmt::Display for WarmStartSiteEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} warm start {} ({}): {}",
            self.context_name, self.abstraction, self.outcome, self.snapshot_kind, self.detail
        )
    }
}

/// Any event the engine records: ordinary transitions plus guardrail
/// decisions.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// An allocation context switched variants.
    Transition(TransitionEvent),
    /// A selection pass produced a winner: the audit trail of the decision
    /// (per-candidate estimated costs and the winning margin).
    Selection(SelectionExplanation),
    /// A switch failed post-switch verification and was undone.
    Rollback(RollbackEvent),
    /// A candidate was barred from reselection at a site.
    Quarantine(QuarantineEvent),
    /// A persisted model was rejected; analytic fallback installed.
    ModelFallback(ModelFallbackEvent),
    /// An analysis pass panicked and was contained.
    AnalyzerPanic(AnalyzerPanicEvent),
    /// The engine entered degraded mode (adaptation frozen).
    DegradedEntered(DegradedEvent),
    /// A selection-state snapshot was imported at engine build time.
    WarmStart(WarmStartEvent),
    /// A snapshot site record was applied to (or rejected by) a live
    /// site.
    WarmStartSite(WarmStartSiteEvent),
}

impl EngineEvent {
    /// The plain transition record, when this is a transition.
    pub fn as_transition(&self) -> Option<&TransitionEvent> {
        match self {
            EngineEvent::Transition(t) => Some(t),
            _ => None,
        }
    }

    /// The selection audit record, when this is a selection.
    pub fn as_selection(&self) -> Option<&SelectionExplanation> {
        match self {
            EngineEvent::Selection(s) => Some(s),
            _ => None,
        }
    }

    /// Stable snake_case tag naming the event type — the label metric
    /// families and the JSONL stream key on.
    pub fn kind_name(&self) -> &'static str {
        match self {
            EngineEvent::Transition(_) => "transition",
            EngineEvent::Selection(_) => "selection",
            EngineEvent::Rollback(_) => "rollback",
            EngineEvent::Quarantine(_) => "quarantine",
            EngineEvent::ModelFallback(_) => "model_fallback",
            EngineEvent::AnalyzerPanic(_) => "analyzer_panic",
            EngineEvent::DegradedEntered(_) => "degraded_entered",
            EngineEvent::WarmStart(_) => "warm_start",
            EngineEvent::WarmStartSite(_) => "warm_start_site",
        }
    }
}

impl fmt::Display for EngineEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineEvent::Transition(e) => e.fmt(f),
            EngineEvent::Selection(e) => e.fmt(f),
            EngineEvent::Rollback(e) => e.fmt(f),
            EngineEvent::Quarantine(e) => e.fmt(f),
            EngineEvent::ModelFallback(e) => e.fmt(f),
            EngineEvent::AnalyzerPanic(e) => e.fmt(f),
            EngineEvent::DegradedEntered(e) => e.fmt(f),
            EngineEvent::WarmStart(e) => e.fmt(f),
            EngineEvent::WarmStartSite(e) => e.fmt(f),
        }
    }
}

/// Bounded ring buffer of [`EngineEvent`]s.
///
/// The unguarded engine kept an unbounded `Vec<TransitionEvent>`; a
/// long-running host with an oscillating workload could grow it without
/// limit. The ring drops the *oldest* events past `capacity` and counts the
/// drops, trading perfect history for bounded memory — the same policy as
/// the bounded [`ProfileSink`](cs_profile::ProfileSink).
#[derive(Debug, Clone)]
pub(crate) struct EventLog {
    events: VecDeque<EngineEvent>,
    capacity: usize,
    dropped: u64,
    recorded: u64,
}

impl EventLog {
    /// Default capacity: large enough that the paper-scale experiment
    /// binaries (tables 5/6, hundreds of transitions) never drop an event.
    pub(crate) const DEFAULT_CAPACITY: usize = 16_384;

    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event log capacity must be nonzero");
        EventLog {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
            recorded: 0,
        }
    }

    pub(crate) fn push(&mut self, event: EngineEvent) {
        while self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
        self.recorded += 1;
    }

    pub(crate) fn events(&self) -> impl Iterator<Item = &EngineEvent> {
        self.events.iter()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events ever recorded, including ones the ring has since evicted.
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(EventLog::DEFAULT_CAPACITY)
    }
}

// The log sits behind the engine's mutex and is drained from arbitrary
// threads; a non-Send payload sneaking into an event variant must fail the
// build here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EventLog>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_formats_for_aggregation() {
        let e = TransitionEvent::new(1, "s", Abstraction::Set, "chained", "open-koloboke", 0);
        assert_eq!(e.edge(), "chained -> open-koloboke");
    }

    #[test]
    fn engine_event_displays_every_variant() {
        let t = EngineEvent::Transition(TransitionEvent::new(
            1,
            "s",
            Abstraction::List,
            "array",
            "linked",
            3,
        ));
        assert!(t.to_string().contains("array -> linked"));
        let r = EngineEvent::Rollback(RollbackEvent {
            context_id: 1,
            context_name: "s".into(),
            abstraction: Abstraction::List,
            from: "linked".into(),
            to: "array".into(),
            predicted_ratio: 0.5,
            realized_ratio: 2.0,
            round: 4,
        });
        assert!(r.to_string().contains("rollback linked -> array"));
        let q = EngineEvent::Quarantine(QuarantineEvent {
            context_id: 1,
            context_name: "s".into(),
            abstraction: Abstraction::List,
            candidate: "linked".into(),
            until_round: 8,
            strikes: 1,
            round: 4,
        });
        assert!(q.to_string().contains("quarantine linked until round 8"));
        let m = EngineEvent::ModelFallback(ModelFallbackEvent {
            file: "lists.model".into(),
            reason: "NaN coefficient".into(),
        });
        assert!(m.to_string().contains("lists.model"));
        let p = EngineEvent::AnalyzerPanic(AnalyzerPanicEvent {
            consecutive: 2,
            message: "boom".into(),
        });
        assert!(p.to_string().contains("panic #2"));
        let d = EngineEvent::DegradedEntered(DegradedEvent {
            consecutive_failures: 3,
        });
        assert!(d.to_string().contains("degraded after 3"));
        let s = EngineEvent::Selection(SelectionExplanation {
            context_id: 1,
            context_name: "s".into(),
            abstraction: Abstraction::List,
            rule: "R_time".into(),
            round: 2,
            current: "array".into(),
            current_primary_cost: 100.0,
            current_alloc_cost: 0.0,
            alloc_bytes_per_op: 0.0,
            alloc_driven: false,
            candidates: vec![CandidateEstimate {
                variant: "hasharray".into(),
                primary_cost: 40.0,
                primary_ratio: 0.4,
                alloc_cost: 0.0,
                satisfied: true,
                excluded: None,
            }],
            winner: Some("hasharray".into()),
            winning_margin: 0.6,
            outcome: SelectionOutcome::Switched,
        });
        assert!(s.to_string().contains("selection array -> hasharray"));
        assert!(s.to_string().contains("60.0%"));
        assert_eq!(s.kind_name(), "selection");
    }

    #[test]
    fn explanation_without_winner_displays_keeps() {
        let e = SelectionExplanation {
            context_id: 9,
            context_name: "site".into(),
            abstraction: Abstraction::Map,
            rule: "R_alloc".into(),
            round: 0,
            current: "chained".into(),
            current_primary_cost: 10.0,
            current_alloc_cost: 0.0,
            alloc_bytes_per_op: 0.0,
            alloc_driven: false,
            candidates: Vec::new(),
            winner: None,
            winning_margin: 0.0,
            outcome: SelectionOutcome::NoCandidate,
        };
        assert!(e.to_string().contains("keeps chained"));
    }

    #[test]
    fn as_transition_filters() {
        let t = EngineEvent::Transition(TransitionEvent::new(
            1,
            "s",
            Abstraction::Map,
            "array",
            "chained",
            0,
        ));
        assert!(t.as_transition().is_some());
        let d = EngineEvent::DegradedEntered(DegradedEvent {
            consecutive_failures: 1,
        });
        assert!(d.as_transition().is_none());
    }

    #[test]
    fn event_log_ring_drops_oldest() {
        let mut log = EventLog::new(3);
        for round in 0..5 {
            log.push(EngineEvent::Transition(TransitionEvent::new(
                1,
                "s",
                Abstraction::List,
                "a",
                "b",
                round,
            )));
        }
        assert_eq!(log.events().count(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.recorded(), 5);
        let rounds: Vec<u64> = log
            .events()
            .filter_map(|e| e.as_transition())
            .map(|t| t.round)
            .collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }
}
