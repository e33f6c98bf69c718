//! The variant selection algorithm (paper §3.1.1–§3.1.2).

use cs_model::{CostDimension, PerformanceModel};
use cs_profile::ProfileHistogram;

use crate::event::CandidateEstimate;
use crate::kind_ext::Kind;
use crate::rules::SelectionRule;

/// Outcome of one selection pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selection<K> {
    /// The chosen variant.
    pub kind: K,
    /// Its cost ratio on the rule's first criterion (`C1`) against the
    /// current variant — the "improvement" the paper breaks ties with.
    pub primary_ratio: f64,
}

/// The paper's adaptive-eligibility gate (§3.2): adaptive variants are
/// considered as candidates only when the monitored instances had *widely
/// ranging sizes* — concretely, when some instances stayed at or below the
/// adaptive transition threshold while others crossed it, so a single fixed
/// representation fits neither group.
///
/// # Examples
///
/// ```
/// use cs_core::adaptive_eligible;
/// use cs_profile::{OpCounters, ProfileHistogram, WorkloadProfile};
///
/// let small = WorkloadProfile::new(OpCounters::new(), 8);
/// let large = WorkloadProfile::new(OpCounters::new(), 900);
/// let mixed = ProfileHistogram::from_profiles(&[small.clone(), large.clone()]);
/// assert!(adaptive_eligible(&mixed, 40));
/// let uniform = ProfileHistogram::from_profiles(&[large.clone(), large]);
/// assert!(!adaptive_eligible(&uniform, 40));
/// ```
pub fn adaptive_eligible(history: &ProfileHistogram, threshold: usize) -> bool {
    !history.is_empty() && history.min_size() <= threshold && history.max_size() > threshold
}

/// Selects the variant an allocation context should use for future
/// instantiations, per the paper's algorithm:
///
/// 1. Compute `TC_D(V)` for every candidate and every dimension a rule
///    criterion names, over the aggregated workload history.
/// 2. A candidate satisfies the rule if `TC_D(V_new) / TC_D(V_cur) ≤ T_D`
///    for every criterion.
/// 3. Among satisfying candidates different from the current variant, pick
///    the one with the largest improvement on the first criterion.
///
/// Adaptive variants pass through the [`adaptive_eligible`] gate first.
/// Returns `None` when the workload is empty, the current variant has zero
/// cost (nothing to improve), or no candidate satisfies the rule.
///
/// # Examples
///
/// ```
/// use cs_collections::ListKind;
/// use cs_core::{select_variant, SelectionRule};
/// use cs_model::default_models;
/// use cs_profile::{OpCounters, OpKind, ProfileHistogram, WorkloadProfile};
///
/// let mut ops = OpCounters::new();
/// ops.add(OpKind::Populate, 500);
/// ops.add(OpKind::Contains, 2_000);
/// let w = WorkloadProfile::new(ops, 500);
/// let history = ProfileHistogram::from_profiles(&[w]);
///
/// let sel = select_variant(
///     default_models::list_model(),
///     &SelectionRule::r_time(),
///     ListKind::Array,
///     &history,
/// )
/// .expect("lookup-heavy workload must switch");
/// assert_eq!(sel.kind, ListKind::HashArray);
/// ```
pub fn select_variant<K: Kind>(
    model: &PerformanceModel<K>,
    rule: &SelectionRule,
    current: K,
    history: &ProfileHistogram,
) -> Option<Selection<K>> {
    select_variant_filtered(model, rule, current, history, |_| true)
}

/// Like [`select_variant`], but additionally restricted to candidates that
/// the `eligible` predicate admits.
///
/// The guardrail layer uses this to keep quarantined candidates — variants
/// that recently failed post-switch verification at this site — out of the
/// running without touching the selection algorithm itself.
pub fn select_variant_filtered<K: Kind>(
    model: &PerformanceModel<K>,
    rule: &SelectionRule,
    current: K,
    history: &ProfileHistogram,
    eligible: impl FnMut(K) -> bool,
) -> Option<Selection<K>> {
    select_variant_explained(model, rule, current, history, eligible).selection
}

/// The fully explained outcome of one selection pass: the winner (if any)
/// plus the audit rows behind the decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainedSelection<K> {
    /// The winning candidate, exactly as [`select_variant_filtered`] would
    /// have returned it.
    pub selection: Option<Selection<K>>,
    /// One audit row per candidate considered (the current variant is not a
    /// candidate). Empty when the pass bailed before scoring — empty
    /// workload or a degenerate (zero-cost) current variant.
    pub candidates: Vec<CandidateEstimate>,
    /// Estimated total cost of the current variant on the rule's primary
    /// dimension (0 when the pass bailed before scoring).
    pub current_primary_cost: f64,
    /// Estimated allocation-rate cost `TC_alloc_rate` of the current
    /// variant over the history (0 when the model carries no alloc-rate
    /// curves, or when the pass bailed).
    pub current_alloc_cost: f64,
    /// The current variant's calibrated energy proxy over the history:
    /// `time_weight · TC_time + alloc_weight · TC_alloc_rate` with the
    /// per-process [`cs_model::calibrated_weights`].
    pub current_energy_cost: f64,
    /// The measured allocation intensity of the history the pass evaluated:
    /// attributed bytes per operation from the `cs-heap` per-site guards.
    pub alloc_bytes_per_op: f64,
    /// True when the allocation dimension decided this pass: the rule's
    /// primary criterion *is* an allocation dimension (`alloc`,
    /// `alloc_rate`), or the rule is energy-primary and the winner would
    /// *not* have beaten the current variant on the time term alone (the
    /// energy proxy is affine in time and alloc, so stripping the alloc
    /// component from both sides reduces to a time comparison). False
    /// whenever there is no winner.
    pub alloc_driven: bool,
}

/// Like [`select_variant_filtered`], but also returns the decision audit
/// trail: every candidate's estimated cost on the rule's primary dimension,
/// its cost ratio against the current variant, whether it satisfied the
/// rule, and why it was excluded when it never got scored.
///
/// This is the single implementation of the paper's selection algorithm —
/// [`select_variant`] and [`select_variant_filtered`] are thin wrappers —
/// so the audit trail can never drift from the actual decision.
pub fn select_variant_explained<K: Kind>(
    model: &PerformanceModel<K>,
    rule: &SelectionRule,
    current: K,
    history: &ProfileHistogram,
    mut eligible: impl FnMut(K) -> bool,
) -> ExplainedSelection<K> {
    let bail = ExplainedSelection {
        selection: None,
        candidates: Vec::new(),
        current_primary_cost: 0.0,
        current_alloc_cost: 0.0,
        current_energy_cost: 0.0,
        alloc_bytes_per_op: 0.0,
        alloc_driven: false,
    };
    if history.total_ops() == 0 {
        return bail;
    }

    // Everything below evaluates the cost model over the workload history;
    // the span nests inside the caller's Decision span. No context id is
    // in scope here — the enclosing Decision span carries the site.
    let _model_span = cs_trace::span(cs_trace::Phase::ModelEval, 0);

    let primary = rule.primary();
    let adaptive = K::adaptive_kind();
    let adaptive_ok = adaptive_eligible(history, K::adaptive_threshold());

    // Current costs per dimension used by the rule.
    let current_cost = |dim| model.histogram_cost(current, dim, history);

    // Degenerate current (e.g. uncalibrated variant): nothing to compare.
    if rule
        .criteria()
        .iter()
        .any(|c| current_cost(c.dimension) <= 0.0)
    {
        return bail;
    }

    let current_primary_cost = current_cost(primary.dimension);
    // Allocation and energy columns are part of every audit row regardless
    // of the rule, so a reader can see what an alloc- or energy-primary
    // rule *would* have decided.
    let weights = cs_model::calibrated_weights();
    let current_alloc_cost = current_cost(CostDimension::AllocRate);
    let current_time_cost = current_cost(CostDimension::Time);
    let current_energy_cost = weights.energy(current_time_cost, current_alloc_cost);
    let alloc_bytes_per_op = history.alloc_bytes_per_op();
    let mut candidates = Vec::new();
    let mut best: Option<Selection<K>> = None;
    let mut best_time_cost = 0.0;
    for &candidate in K::all() {
        if candidate == current {
            continue;
        }
        let excluded = if candidate == adaptive && !adaptive_ok {
            Some("adaptive-gate")
        } else if !eligible(candidate) {
            Some("quarantined")
        } else if model.variant(candidate).is_none() {
            Some("uncalibrated")
        } else {
            None
        };
        if let Some(reason) = excluded {
            candidates.push(CandidateEstimate {
                variant: candidate.to_string(),
                primary_cost: f64::NAN,
                primary_ratio: f64::NAN,
                alloc_cost: f64::NAN,
                energy_cost: f64::NAN,
                satisfied: false,
                excluded: Some(reason),
            });
            continue;
        }
        let satisfied = rule.satisfied(|dim| {
            let cur = model.histogram_cost(current, dim, history);
            if cur <= 0.0 {
                return f64::INFINITY;
            }
            model.histogram_cost(candidate, dim, history) / cur
        });
        let primary_cost = model.histogram_cost(candidate, primary.dimension, history);
        let primary_ratio = primary_cost / current_primary_cost;
        let alloc_cost = model.histogram_cost(candidate, CostDimension::AllocRate, history);
        let time_cost = model.histogram_cost(candidate, CostDimension::Time, history);
        let energy_cost = weights.energy(time_cost, alloc_cost);
        candidates.push(CandidateEstimate {
            variant: candidate.to_string(),
            primary_cost,
            primary_ratio,
            alloc_cost,
            energy_cost,
            satisfied,
            excluded: None,
        });
        if !satisfied {
            continue;
        }
        let better = match &best {
            None => true,
            Some(b) => primary_ratio < b.primary_ratio,
        };
        if better {
            best = Some(Selection {
                kind: candidate,
                primary_ratio,
            });
            best_time_cost = time_cost;
        }
    }
    // A switch is alloc-driven when the allocation term carried it: either
    // the rule optimizes an allocation dimension outright, or it optimizes
    // the energy proxy and the winner is no faster on the time term alone
    // (energy is affine in time and alloc, so removing the alloc component
    // from both sides leaves a pure time comparison).
    let alloc_driven = best.is_some()
        && match primary.dimension {
            CostDimension::Alloc | CostDimension::AllocRate => true,
            CostDimension::Energy => best_time_cost >= current_time_cost,
            _ => false,
        };
    ExplainedSelection {
        selection: best,
        candidates,
        current_primary_cost,
        current_alloc_cost,
        current_energy_cost,
        alloc_bytes_per_op,
        alloc_driven,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_collections::{LibraryProfile, ListKind, MapKind, SetKind};
    use cs_model::default_models;
    use cs_profile::{OpCounters, OpKind, WorkloadProfile};

    fn profile(
        populate: u64,
        contains: u64,
        iterate: u64,
        middle: u64,
        size: usize,
    ) -> WorkloadProfile {
        let mut c = OpCounters::new();
        c.add(OpKind::Populate, populate);
        c.add(OpKind::Contains, contains);
        c.add(OpKind::Iterate, iterate);
        c.add(OpKind::Middle, middle);
        WorkloadProfile::new(c, size)
    }

    fn hist(profiles: &[WorkloadProfile]) -> ProfileHistogram {
        ProfileHistogram::from_profiles(profiles)
    }

    #[test]
    fn empty_workload_selects_nothing() {
        let sel = select_variant(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Array,
            &hist(&[profile(0, 0, 0, 0, 10)]),
        );
        assert!(sel.is_none());
    }

    #[test]
    fn lookup_heavy_list_switches_to_hash_array() {
        let w = profile(500, 1_000, 0, 0, 500);
        let sel = select_variant(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Array,
            &hist(&[w]),
        )
        .unwrap();
        assert_eq!(sel.kind, ListKind::HashArray);
        assert!(sel.primary_ratio < 0.8);
    }

    #[test]
    fn iterate_heavy_list_stays_array() {
        let w = profile(100, 0, 1_000, 0, 100);
        let sel = select_variant(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Array,
            &hist(&[w]),
        );
        assert!(sel.is_none(), "array already optimal for iteration");
    }

    #[test]
    fn linked_list_iteration_switches_to_array() {
        // The bloat situation (Table 6): LL → AL under R_time.
        let w = profile(100, 0, 500, 20, 200);
        let sel = select_variant(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Linked,
            &hist(&[w]),
        )
        .unwrap();
        assert_eq!(sel.kind, ListKind::Array);
    }

    #[test]
    fn set_time_rule_selects_koloboke() {
        // The avrora situation (Table 6): HS → OpenHashSet under R_time.
        let w = profile(300, 600, 5, 0, 300);
        let sel = select_variant(
            default_models::set_model(),
            &SelectionRule::r_time(),
            SetKind::Chained,
            &hist(&[w]),
        )
        .unwrap();
        assert_eq!(sel.kind, SetKind::Open(LibraryProfile::Koloboke));
    }

    #[test]
    fn set_alloc_rule_small_sizes_selects_fastutil() {
        // Fig. 5d, small sizes: the densest open hash wins the allocation
        // dimension while staying inside the 1.2× time cap.
        let w = profile(100, 100, 0, 0, 100);
        let sel = select_variant(
            default_models::set_model(),
            &SelectionRule::r_alloc(),
            SetKind::Chained,
            &hist(&[w]),
        )
        .unwrap();
        assert_eq!(sel.kind, SetKind::Open(LibraryProfile::FastUtil));
    }

    #[test]
    fn set_alloc_rule_medium_sizes_selects_eclipse() {
        // Fig. 5d, medium sizes: fastutil's time penalty crosses 1.2×.
        let w = profile(700, 100, 0, 0, 700);
        let sel = select_variant(
            default_models::set_model(),
            &SelectionRule::r_alloc(),
            SetKind::Chained,
            &hist(&[w]),
        )
        .unwrap();
        assert_eq!(sel.kind, SetKind::Open(LibraryProfile::Eclipse));
    }

    #[test]
    fn set_alloc_rule_large_sizes_selects_koloboke() {
        // Fig. 5d, large sizes: only the sparsest table stays in the cap.
        let w = profile(1000, 100, 0, 0, 1000);
        let sel = select_variant(
            default_models::set_model(),
            &SelectionRule::r_alloc(),
            SetKind::Chained,
            &hist(&[w]),
        )
        .unwrap();
        assert_eq!(sel.kind, SetKind::Open(LibraryProfile::Koloboke));
    }

    #[test]
    fn adaptive_gate_blocks_uniform_sizes() {
        // All instances large: adaptive excluded even if it would score well.
        let uniform: Vec<WorkloadProfile> =
            (0..10).map(|_| profile(100, 200, 0, 0, 500)).collect();
        let sel = select_variant(
            default_models::set_model(),
            &SelectionRule::r_time(),
            SetKind::Chained,
            &hist(&uniform),
        )
        .unwrap();
        assert_ne!(sel.kind, SetKind::Adaptive);
    }

    #[test]
    fn adaptive_selected_for_widely_ranging_sizes_under_alloc() {
        // The lusearch situation (Table 6): HM → AdaptiveMap under R_alloc.
        // Most instances hold < 20 elements; a lookup-hot larger map rules
        // the plain array variant out on the 1.2× time cap.
        let mut profiles: Vec<WorkloadProfile> =
            (0..60).map(|_| profile(12, 30, 0, 0, 12)).collect();
        profiles.push(profile(200, 2_000, 0, 0, 200));
        let sel = select_variant(
            default_models::map_model(),
            &SelectionRule::r_alloc(),
            MapKind::Chained,
            &hist(&profiles),
        )
        .unwrap();
        assert_eq!(sel.kind, MapKind::Adaptive);
    }

    #[test]
    fn impossible_rule_never_switches() {
        let w = profile(500, 1_000, 0, 0, 500);
        let sel = select_variant(
            default_models::list_model(),
            &SelectionRule::impossible(),
            ListKind::Array,
            &hist(&[w]),
        );
        assert!(sel.is_none());
    }

    #[test]
    fn tie_break_picks_largest_primary_improvement() {
        // Craft a model where two candidates satisfy R_time; the one with
        // the lower C1 ratio must win (paper §3.1.2).
        use cs_model::{CostDimension, PerformanceModel, Polynomial, VariantCostModel};
        let mut pm: PerformanceModel<ListKind> = PerformanceModel::new();
        let flat = |c: f64| {
            let mut vm = VariantCostModel::new();
            vm.set_op_cost(CostDimension::Time, OpKind::Contains, Polynomial::constant(c));
            vm
        };
        pm.insert_variant(ListKind::Array, flat(100.0)); // current
        pm.insert_variant(ListKind::Linked, flat(60.0)); // eligible (0.6)
        pm.insert_variant(ListKind::HashArray, flat(40.0)); // eligible (0.4)
        let sel = select_variant(
            &pm,
            &SelectionRule::r_time(),
            ListKind::Array,
            &hist(&[profile(0, 10, 0, 0, 5)]),
        )
        .unwrap();
        assert_eq!(sel.kind, ListKind::HashArray);
        assert!((sel.primary_ratio - 0.4).abs() < 1e-9);
    }

    #[test]
    fn uncalibrated_candidates_are_skipped() {
        use cs_model::{CostDimension, PerformanceModel, Polynomial, VariantCostModel};
        let mut pm: PerformanceModel<ListKind> = PerformanceModel::new();
        let mut vm = VariantCostModel::new();
        vm.set_op_cost(CostDimension::Time, OpKind::Contains, Polynomial::constant(5.0));
        pm.insert_variant(ListKind::Array, vm);
        // Only the current variant is calibrated: nothing to switch to.
        let sel = select_variant(
            &pm,
            &SelectionRule::r_time(),
            ListKind::Array,
            &hist(&[profile(0, 10, 0, 0, 5)]),
        );
        assert!(sel.is_none());
    }

    #[test]
    fn filter_excludes_quarantined_candidates() {
        let w = profile(500, 1_000, 0, 0, 500);
        // Unfiltered: the lookup-heavy list goes to HashArray.
        let unfiltered = select_variant(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Array,
            &hist(std::slice::from_ref(&w)),
        )
        .unwrap();
        assert_eq!(unfiltered.kind, ListKind::HashArray);
        // With HashArray barred, the selection falls to the next best
        // rule-satisfying candidate or to none at all — never HashArray.
        let filtered = select_variant_filtered(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Array,
            &hist(&[w]),
            |k| k != ListKind::HashArray,
        );
        assert!(filtered.is_none_or(|s| s.kind != ListKind::HashArray));
    }

    #[test]
    fn filter_admitting_everything_matches_unfiltered() {
        let w = profile(300, 600, 5, 0, 300);
        let a = select_variant(
            default_models::set_model(),
            &SelectionRule::r_time(),
            SetKind::Chained,
            &hist(std::slice::from_ref(&w)),
        );
        let b = select_variant_filtered(
            default_models::set_model(),
            &SelectionRule::r_time(),
            SetKind::Chained,
            &hist(&[w]),
            |_| true,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn explained_selection_matches_filtered_and_records_candidates() {
        let w = profile(500, 1_000, 0, 0, 500);
        let history = hist(&[w]);
        let explained = select_variant_explained(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Array,
            &history,
            |_| true,
        );
        let plain = select_variant(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Array,
            &history,
        );
        assert_eq!(explained.selection, plain);
        assert!(explained.current_primary_cost > 0.0);
        // Every non-current variant appears exactly once in the audit rows.
        assert_eq!(explained.candidates.len(), ListKind::all().len() - 1);
        let winner = explained.selection.unwrap();
        let row = explained
            .candidates
            .iter()
            .find(|c| c.variant == winner.kind.to_string())
            .expect("winner has an audit row");
        assert!(row.satisfied);
        assert!((row.primary_ratio - winner.primary_ratio).abs() < 1e-12);
        assert!(
            (row.primary_cost - winner.primary_ratio * explained.current_primary_cost).abs()
                < 1e-6 * row.primary_cost.abs().max(1.0)
        );
    }

    #[test]
    fn explained_selection_marks_exclusions() {
        // Uniform large sizes close the adaptive gate; quarantine HashArray.
        let uniform: Vec<WorkloadProfile> =
            (0..10).map(|_| profile(100, 500, 0, 0, 500)).collect();
        let explained = select_variant_explained(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Array,
            &hist(&uniform),
            |k| k != ListKind::HashArray,
        );
        let by_name = |name: &str| {
            explained
                .candidates
                .iter()
                .find(|c| c.variant == name)
                .unwrap()
        };
        assert_eq!(by_name("adaptive").excluded, Some("adaptive-gate"));
        assert_eq!(by_name("hasharray").excluded, Some("quarantined"));
        assert!(by_name("linked").excluded.is_none());
    }

    #[test]
    fn explained_selection_bails_on_empty_workload() {
        let explained = select_variant_explained(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Array,
            &hist(&[profile(0, 0, 0, 0, 10)]),
            |_| true,
        );
        assert!(explained.selection.is_none());
        assert!(explained.candidates.is_empty());
        assert_eq!(explained.current_primary_cost, 0.0);
    }

    #[test]
    fn alloc_rate_rule_switch_away_from_linked_is_alloc_driven() {
        // A populate-heavy linked list churns ~40 modeled bytes/op against
        // the array family's ~12: R_alloc_rate switches and the explanation
        // must attribute the decision to the allocation dimension.
        let w = profile(2_000, 0, 100, 0, 512);
        let explained = select_variant_explained(
            default_models::list_model(),
            &SelectionRule::r_alloc_rate(),
            ListKind::Linked,
            &hist(&[w]),
            |_| true,
        );
        let sel = explained.selection.expect("alloc-rate rule must switch");
        assert_ne!(sel.kind, ListKind::Linked);
        assert!(explained.alloc_driven, "primary dimension is alloc_rate");
        assert!(explained.current_alloc_cost > 0.0);
        assert!(explained.current_energy_cost > 0.0);
        let row = explained
            .candidates
            .iter()
            .find(|c| c.variant == sel.kind.to_string())
            .unwrap();
        assert!(row.alloc_cost > 0.0);
        assert!(
            row.alloc_cost < explained.current_alloc_cost / 2.0,
            "the winner must at least halve the modeled churn: {} vs {}",
            row.alloc_cost,
            explained.current_alloc_cost,
        );
        assert!(row.energy_cost > 0.0);
    }

    #[test]
    fn time_rule_switch_is_not_alloc_driven() {
        let w = profile(500, 1_000, 0, 0, 500);
        let explained = select_variant_explained(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Array,
            &hist(&[w]),
            |_| true,
        );
        assert!(explained.selection.is_some());
        assert!(
            !explained.alloc_driven,
            "a time-primary win is never alloc-driven"
        );
        // The alloc and energy columns are still filled in for the audit.
        assert!(explained.current_alloc_cost > 0.0);
        for row in explained.candidates.iter().filter(|c| c.excluded.is_none()) {
            assert!(row.alloc_cost.is_finite());
            assert!(row.energy_cost.is_finite());
        }
    }

    #[test]
    fn alloc_rule_switch_is_alloc_driven() {
        let profiles: Vec<WorkloadProfile> =
            (0..20).map(|_| profile(8, 10, 0, 0, 8)).collect();
        let explained = select_variant_explained(
            default_models::set_model(),
            &SelectionRule::r_alloc(),
            SetKind::Chained,
            &hist(&profiles),
            |_| true,
        );
        assert!(explained.selection.is_some());
        assert!(explained.alloc_driven, "R_alloc's primary is alloc");
    }

    #[test]
    fn measured_alloc_bytes_per_op_flows_into_the_explanation() {
        let mut ops = OpCounters::new();
        ops.add(OpKind::Populate, 1_000);
        let w = WorkloadProfile::new(ops, 128).with_alloc(500, 48_000);
        let explained = select_variant_explained(
            default_models::list_model(),
            &SelectionRule::r_time(),
            ListKind::Linked,
            &hist(&[w]),
            |_| true,
        );
        assert!((explained.alloc_bytes_per_op - 48.0).abs() < 1e-9);
    }

    #[test]
    fn small_uniform_sets_switch_to_array_under_alloc() {
        // The h2 situation (Table 6): HS → ArraySet; tiny uniform sets make
        // the array variant eligible inside the time cap.
        let profiles: Vec<WorkloadProfile> =
            (0..20).map(|_| profile(8, 10, 0, 0, 8)).collect();
        let sel = select_variant(
            default_models::set_model(),
            &SelectionRule::r_alloc(),
            SetKind::Chained,
            &hist(&profiles),
        )
        .unwrap();
        assert_eq!(sel.kind, SetKind::Array);
    }
}
