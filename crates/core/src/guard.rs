//! Adaptation guardrails: switch verification, quarantine and cooldown.
//!
//! CollectionSwitch trusts its cost models: when a model says a candidate is
//! cheaper, the engine switches. A miscalibrated (or corrupted) model can
//! therefore make the program *slower*, indefinitely, with no recourse —
//! the paper's §4.4 logging mitigation explains decisions after the fact
//! but does not undo them. The guardrail layer closes that loop:
//!
//! * **Post-switch verification** — after a switch, the next completed
//!   monitoring window's measured cost-per-operation is compared with the
//!   pre-switch window. If the switch realized markedly *worse* cost than
//!   the model predicted, it is rolled back.
//! * **Quarantine** — a candidate that failed verification at a site is
//!   barred from reselection there for an exponentially growing number of
//!   rounds, so a bad model cannot flap a site forever.
//! * **Cooldown** — a site must sit out a configurable number of analysis
//!   rounds between transitions, damping oscillation under phase-flipping
//!   workloads.

use std::collections::HashMap;

/// Upper bound on a quarantine's length in rounds, however many strikes
/// accrue.
const QUARANTINE_CAP: u64 = 64;

/// Tuning knobs for the adaptation guardrails.
///
/// The defaults are chosen so that a well-calibrated model behaves exactly
/// as the unguarded engine did: verification only fires on switches that
/// measure *worse* than both break-even and the model's own prediction by a
/// 25% margin, and the cooldown of one round matches the natural analysis
/// cadence.
///
/// # Examples
///
/// ```
/// use cs_core::GuardrailConfig;
///
/// let strict = GuardrailConfig::default()
///     .verify_tolerance(0.1)
///     .cooldown_rounds(4);
/// assert_eq!(strict.cooldown_rounds, 4);
///
/// let off = GuardrailConfig::disabled();
/// assert!(off.verify_tolerance.is_infinite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GuardrailConfig {
    /// Slack added to the rollback threshold: a switch is rolled back when
    /// the realized cost ratio exceeds `max(1.0, predicted) + tolerance`.
    /// `f64::INFINITY` disables verification entirely.
    pub verify_tolerance: f64,
    /// Minimum analysis rounds a site must wait between transitions
    /// (including after a rollback). `1` is the natural cadence — at most
    /// one switch per analysis round, exactly the unguarded behaviour.
    pub cooldown_rounds: u64,
    /// Rounds of quarantine imposed on a candidate's first verification
    /// failure at a site; each further strike doubles it, up to 64 rounds.
    pub quarantine_base: u64,
}

impl Default for GuardrailConfig {
    fn default() -> Self {
        GuardrailConfig {
            verify_tolerance: 0.25,
            cooldown_rounds: 1,
            quarantine_base: 4,
        }
    }
}

impl GuardrailConfig {
    /// A configuration with verification off and the natural one-round
    /// cooldown: the engine switches whenever the model finds a better
    /// candidate, like the pre-guardrail implementation. Without
    /// verification nothing is quarantined.
    pub fn disabled() -> Self {
        GuardrailConfig {
            verify_tolerance: f64::INFINITY,
            ..GuardrailConfig::default()
        }
    }

    /// Sets the verification tolerance (`INFINITY` disables verification).
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is NaN or negative.
    pub fn verify_tolerance(mut self, tolerance: f64) -> Self {
        assert!(
            tolerance >= 0.0,
            "verify tolerance must be non-negative, got {tolerance}"
        );
        self.verify_tolerance = tolerance;
        self
    }

    /// Sets the per-site cooldown in analysis rounds (minimum 1).
    pub fn cooldown_rounds(mut self, rounds: u64) -> Self {
        self.cooldown_rounds = rounds.max(1);
        self
    }

    /// Sets the first-strike quarantine length in rounds (minimum 1).
    pub fn quarantine_base(mut self, rounds: u64) -> Self {
        self.quarantine_base = rounds.max(1);
        self
    }

    /// Whether post-switch verification is active.
    pub fn verification_enabled(&self) -> bool {
        self.verify_tolerance.is_finite()
    }

    /// Quarantine length for the given strike count: `base · 2^(strikes-1)`,
    /// capped.
    pub(crate) fn quarantine_len(&self, strikes: u32) -> u64 {
        let doublings = strikes.saturating_sub(1).min(32);
        self.quarantine_base
            .saturating_mul(1u64 << doublings)
            .min(QUARANTINE_CAP)
    }
}

/// A switch awaiting verification at its site's next completed window.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PendingVerification {
    /// Variant index in use before the switch (restored on rollback).
    pub(crate) prev_index: usize,
    /// Variant index the switch installed.
    pub(crate) new_index: usize,
    /// Cost ratio the model predicted (new/old; < 1 is an improvement).
    pub(crate) predicted_ratio: f64,
    /// Measured cost-per-op (ns) of the window that triggered the switch.
    pub(crate) baseline_cpo: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QuarantineEntry {
    pub(crate) until_round: u64,
    pub(crate) strikes: u32,
}

/// Per-context guardrail state (behind the context's own lock).
#[derive(Debug, Default)]
pub(crate) struct GuardState {
    /// The most recent unverified switch, if any.
    pub(crate) pending: Option<PendingVerification>,
    /// Variant index → quarantine entry. Entries persist after expiry so
    /// repeat offenders escalate.
    pub(crate) quarantine: HashMap<usize, QuarantineEntry>,
    /// Round of the last transition or rollback (cooldown anchor).
    pub(crate) last_transition_round: Option<u64>,
}

impl GuardState {
    /// Whether `variant_index` is barred from selection at `round`.
    pub(crate) fn is_quarantined(&self, variant_index: usize, round: u64) -> bool {
        self.quarantine
            .get(&variant_index)
            .is_some_and(|q| round < q.until_round)
    }

    /// Records a verification failure for `variant_index`, escalating the
    /// strike count, and returns the updated entry.
    pub(crate) fn add_strike(
        &mut self,
        variant_index: usize,
        round: u64,
        config: &GuardrailConfig,
    ) -> QuarantineEntry {
        let entry = self
            .quarantine
            .entry(variant_index)
            .or_insert(QuarantineEntry {
                until_round: round,
                strikes: 0,
            });
        entry.strikes = entry.strikes.saturating_add(1);
        entry.until_round = round.saturating_add(config.quarantine_len(entry.strikes));
        *entry
    }

    /// Whether the cooldown permits a transition at `round`.
    pub(crate) fn cooldown_ok(&self, round: u64, config: &GuardrailConfig) -> bool {
        self.last_transition_round
            .is_none_or(|last| round >= last.saturating_add(config.cooldown_rounds))
    }

    /// Clears all guardrail state (used by context reset).
    pub(crate) fn clear(&mut self) {
        self.pending = None;
        self.quarantine.clear();
        self.last_transition_round = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_unguarded_cadence() {
        let c = GuardrailConfig::default();
        assert_eq!(c.cooldown_rounds, 1);
        assert!(c.verification_enabled());
    }

    #[test]
    fn disabled_config_turns_verification_off() {
        let c = GuardrailConfig::disabled();
        assert!(!c.verification_enabled());
    }

    #[test]
    fn quarantine_length_doubles_and_caps() {
        let c = GuardrailConfig::default(); // base 4, cap 64
        assert_eq!(c.quarantine_len(1), 4);
        assert_eq!(c.quarantine_len(2), 8);
        assert_eq!(c.quarantine_len(3), 16);
        assert_eq!(c.quarantine_len(5), 64);
        assert_eq!(c.quarantine_len(60), 64, "deep strikes stay capped");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tolerance_rejected() {
        let _ = GuardrailConfig::default().verify_tolerance(-0.5);
    }

    #[test]
    fn strikes_escalate_quarantine() {
        let c = GuardrailConfig::default();
        let mut g = GuardState::default();
        let e1 = g.add_strike(2, 10, &c);
        assert_eq!((e1.strikes, e1.until_round), (1, 14));
        assert!(g.is_quarantined(2, 13));
        assert!(!g.is_quarantined(2, 14));
        // Second failure later escalates even though the first expired.
        let e2 = g.add_strike(2, 20, &c);
        assert_eq!((e2.strikes, e2.until_round), (2, 28));
    }

    #[test]
    fn cooldown_counts_rounds_between_transitions() {
        let c = GuardrailConfig::default().cooldown_rounds(4);
        let mut g = GuardState::default();
        assert!(g.cooldown_ok(0, &c));
        g.last_transition_round = Some(3);
        assert!(!g.cooldown_ok(5, &c));
        assert!(g.cooldown_ok(7, &c));
    }

    #[test]
    fn clear_resets_everything() {
        let c = GuardrailConfig::default();
        let mut g = GuardState::default();
        g.add_strike(1, 0, &c);
        g.last_transition_round = Some(5);
        g.pending = Some(PendingVerification {
            prev_index: 0,
            new_index: 1,
            predicted_ratio: 0.5,
            baseline_cpo: 10.0,
        });
        g.clear();
        assert!(g.pending.is_none());
        assert!(g.quarantine.is_empty());
        assert!(g.last_transition_round.is_none());
    }
}
