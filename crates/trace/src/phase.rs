//! The adaptation-pipeline phase taxonomy.

use std::fmt;

/// One phase of the adaptation pipeline, as spans classify it.
///
/// The five pipeline stages of the paper's feedback loop map onto seven
/// span phases — the op-record stage and the switch stage each split into
/// two distinguishable costs:
///
/// | Pipeline stage | Phases |
/// |---|---|
/// | op record / buffer flush | [`OpRecord`](Phase::OpRecord), [`Flush`](Phase::Flush) |
/// | profile ingest + model evaluation | [`Ingest`](Phase::Ingest), [`ModelEval`](Phase::ModelEval) |
/// | selection-rule decision | [`Decision`](Phase::Decision) |
/// | switch execution + migration | [`SwitchExec`](Phase::SwitchExec) |
/// | post-switch verification / rollback | [`Verify`](Phase::Verify) |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// Monitoring bookkeeping around one application op: the record plus
    /// the epoch-boundary checks (a `cs-runtime` shard under its lock, the
    /// single-owner `timed!` path in cs-core).
    OpRecord = 0,
    /// Folding a runtime shard's buffer into the site's shared profile, or
    /// a monitored handle handing its finished profile to the sink.
    Flush = 1,
    /// The engine core accepting one profile into the monitoring window.
    Ingest = 2,
    /// Cost-model evaluation: estimating `TC_D(V)` for every candidate
    /// variant over the aggregated workload history.
    ModelEval = 3,
    /// The selection-rule decision for one site in one analysis round
    /// (contains [`ModelEval`](Phase::ModelEval) as a nested span).
    Decision = 4,
    /// Committing a switch: installing the new variant index and recording
    /// the transition (shard migration then follows lazily).
    SwitchExec = 5,
    /// Evaluating a pending post-switch verification — including the
    /// rollback, when the realized cost betrays the prediction.
    Verify = 6,
}

/// Number of [`Phase`] variants; arrays indexed by [`Phase::index`] have
/// this length.
pub const PHASE_COUNT: usize = 7;

impl Phase {
    /// Every phase, in index order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::OpRecord,
        Phase::Flush,
        Phase::Ingest,
        Phase::ModelEval,
        Phase::Decision,
        Phase::SwitchExec,
        Phase::Verify,
    ];

    /// Dense index of the phase, `0..PHASE_COUNT`.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Phase::index`].
    pub fn from_index(index: usize) -> Option<Phase> {
        Phase::ALL.get(index).copied()
    }

    /// Stable snake_case name — the `phase` label value in metric series
    /// and incident records.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::OpRecord => "op_record",
            Phase::Flush => "flush",
            Phase::Ingest => "ingest",
            Phase::ModelEval => "model_eval",
            Phase::Decision => "decision",
            Phase::SwitchExec => "switch_exec",
            Phase::Verify => "verify",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
            assert_eq!(Phase::from_index(i), Some(*phase));
        }
        assert_eq!(Phase::from_index(PHASE_COUNT), None);
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for phase in Phase::ALL {
            assert!(seen.insert(phase.name()), "duplicate name {}", phase);
            assert!(phase
                .name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
