//! The variant selection algorithm (paper §3.1.1–§3.1.2).
//!
//! One scoring core runs the algorithm. It prices the current variant once
//! per criterion of the rule and each eligible candidate only on the
//! dimensions the criteria name, and hands every candidate's row to its
//! caller as numbers. [`select_variant`] and [`select_variant_filtered`]
//! keep only the winner. An analysis pass also prices the audit's
//! allocation-rate column and keeps the rows in a [`PassRecord`], a
//! fixed-size record on the stack: the strings and the candidate vector of
//! an explanation are rendered from it only when someone reads them.

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
/// running without touching the selection algorithm itself. Only the
/// dimensions the rule's criteria name are priced, and nothing is
/// allocated.
pub fn select_variant_filtered<K: Kind>(
    model: &PerformanceModel<K>,
    rule: &SelectionRule,
    current: K,
    history: &ProfileHistogram,
    eligible: impl FnMut(K) -> bool,
) -> Option<Selection<K>> {
    score(model, rule, current, history, false, eligible, |_| {})?.selection
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
    /// The measured allocation intensity of the history the pass evaluated:
    /// attributed bytes per operation from the `cs-heap` per-site guards.
    pub alloc_bytes_per_op: f64,
    /// True when the allocation dimension decided this pass: there is a
    /// winner and the rule's primary criterion is an allocation dimension
    /// (`alloc`, `alloc_rate`).
    pub alloc_driven: bool,
}

/// Like [`select_variant_filtered`], but also returns the decision audit
/// trail: every candidate's estimated cost on the rule's primary dimension,
/// its cost ratio against the current variant, whether it satisfied the
/// rule, and why it was excluded when it never got scored.
///
/// It runs the same scoring core as [`select_variant_filtered`], with the
/// audit's allocation-rate column priced too, so the audit trail can never
/// drift from the actual decision.
///
/// # Panics
///
/// Panics if the kind family has more than 8 variants (the three shipped
/// families have at most 8).
pub fn select_variant_explained<K: Kind>(
    model: &PerformanceModel<K>,
    rule: &SelectionRule,
    current: K,
    history: &ProfileHistogram,
    eligible: impl FnMut(K) -> bool,
) -> ExplainedSelection<K> {
    match PassRecord::score(model, rule, current, history, eligible) {
        Some(record) => record.render(),
        None => ExplainedSelection {
            selection: None,
            candidates: Vec::new(),
            current_primary_cost: 0.0,
            current_alloc_cost: 0.0,
            alloc_bytes_per_op: 0.0,
            alloc_driven: false,
        },
    }
}

/// The most variants an audited kind family may hold: a [`PassRecord`]
/// has a row for each but the current one. `SetKind` and `MapKind` hold 8.
const MAX_KINDS: usize = 8;

/// One candidate of a scored pass, as numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    /// The candidate's index in `K::all()`.
    kind: usize,
    /// Why the candidate was never scored; its costs are NaN then.
    excluded: Option<&'static str>,
    primary_cost: f64,
    primary_ratio: f64,
    satisfied: bool,
    /// The audit's allocation-rate column, NaN unless asked for.
    alloc_cost: f64,
}

impl Row {
    fn excluded(kind: usize, reason: &'static str) -> Row {
        Row {
            kind,
            excluded: Some(reason),
            primary_cost: f64::NAN,
            primary_ratio: f64::NAN,
            satisfied: false,
            alloc_cost: f64::NAN,
        }
    }
}

/// What a scored pass found besides its rows.
struct Scored<K> {
    selection: Option<Selection<K>>,
    current_primary_cost: f64,
    /// The current variant's audit column, NaN unless asked for.
    current_alloc_cost: f64,
}

/// `TC_D(V)` of one variant over the history, priced at most once per
/// dimension.
struct Costs<'a, K> {
    model: &'a PerformanceModel<K>,
    history: &'a ProfileHistogram,
    kind: K,
    priced: [Option<f64>; CostDimension::ALL.len()],
}

impl<'a, K: Kind> Costs<'a, K> {
    fn new(model: &'a PerformanceModel<K>, history: &'a ProfileHistogram, kind: K) -> Self {
        Costs {
            model,
            history,
            kind,
            priced: [None; CostDimension::ALL.len()],
        }
    }

    fn of(&mut self, dimension: CostDimension) -> f64 {
        let (model, kind, history) = (self.model, self.kind, self.history);
        *self.priced[dimension.index()]
            .get_or_insert_with(|| model.histogram_cost(kind, dimension, history))
    }
}

/// The scoring core every entry point runs: the paper's algorithm over
/// `history`, pricing the current variant and each eligible candidate only
/// on the rule's criteria (a candidate stops at the first criterion it
/// fails, after its primary cost), plus the allocation-rate column when
/// `audit` is set. Each candidate's row goes to `on_row`, in
/// `K::all()` order. `None` when the pass bails before scoring: an empty
/// workload, or a current variant that costs nothing on some criterion.
fn score<K: Kind>(
    model: &PerformanceModel<K>,
    rule: &SelectionRule,
    current: K,
    history: &ProfileHistogram,
    audit: bool,
    mut eligible: impl FnMut(K) -> bool,
    mut on_row: impl FnMut(Row),
) -> Option<Scored<K>> {
    if history.total_ops() == 0 {
        return None;
    }

    // Everything below evaluates the cost model over the workload history;
    // the span nests inside the caller's Decision span. No context id is
    // in scope here — the enclosing Decision span carries the site.
    let _model_span = cs_trace::span(cs_trace::Phase::ModelEval, 0);

    let primary = rule.primary().dimension;
    let mut cur = Costs::new(model, history, current);
    // Degenerate current (e.g. uncalibrated variant): nothing to compare.
    if rule.criteria().iter().any(|c| cur.of(c.dimension) <= 0.0) {
        return None;
    }
    let current_primary_cost = cur.of(primary);
    let adaptive = K::adaptive_kind();
    let adaptive_ok = adaptive_eligible(history, K::adaptive_threshold());
    let mut best: Option<Selection<K>> = None;
    for (index, &candidate) in K::all().iter().enumerate() {
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
            on_row(Row::excluded(index, reason));
            continue;
        }
        let mut costs = Costs::new(model, history, candidate);
        let satisfied = rule.satisfied(|dim| costs.of(dim) / cur.of(dim));
        let primary_cost = costs.of(primary);
        let primary_ratio = primary_cost / current_primary_cost;
        let alloc_cost = if audit {
            costs.of(CostDimension::AllocRate)
        } else {
            f64::NAN
        };
        on_row(Row {
            kind: index,
            excluded: None,
            primary_cost,
            primary_ratio,
            satisfied,
            alloc_cost,
        });
        if satisfied && best.is_none_or(|b| primary_ratio < b.primary_ratio) {
            best = Some(Selection {
                kind: candidate,
                primary_ratio,
            });
        }
    }
    let current_alloc_cost = if audit {
        cur.of(CostDimension::AllocRate)
    } else {
        f64::NAN
    };
    Some(Scored {
        selection: best,
        current_primary_cost,
        current_alloc_cost,
    })
}

/// The numbers behind one scored selection pass: the rule, the current
/// variant, its costs, the winner and one row per candidate, from which
/// [`PassRecord::render`] builds the [`ExplainedSelection`] the pass would
/// have returned. It holds no heap data, so an analysis pass fills one on
/// the stack and a context keeps its latest by copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PassRecord {
    rule: &'static str,
    primary: CostDimension,
    current: usize,
    current_primary_cost: f64,
    current_alloc_cost: f64,
    alloc_bytes_per_op: f64,
    /// The winner's index in `K::all()` and its primary ratio.
    winner: Option<(usize, f64)>,
    rows: [Row; MAX_KINDS],
    len: usize,
}

impl PassRecord {
    /// Scores one pass with the audit's columns priced; `None` when it
    /// bailed before scoring (see [`select_variant_explained`]).
    pub(crate) fn score<K: Kind>(
        model: &PerformanceModel<K>,
        rule: &SelectionRule,
        current: K,
        history: &ProfileHistogram,
        eligible: impl FnMut(K) -> bool,
    ) -> Option<PassRecord> {
        assert!(
            K::all().len() <= MAX_KINDS,
            "an audited kind family holds at most {MAX_KINDS} variants"
        );
        // Filler: only the first `len` rows are ever read.
        let mut rows = [Row::excluded(0, ""); MAX_KINDS];
        let mut len = 0;
        let scored = score(model, rule, current, history, true, eligible, |row| {
            rows[len] = row;
            len += 1;
        })?;
        Some(PassRecord {
            rule: rule.name(),
            primary: rule.primary().dimension,
            current: current.index(),
            current_primary_cost: scored.current_primary_cost,
            current_alloc_cost: scored.current_alloc_cost,
            alloc_bytes_per_op: history.alloc_bytes_per_op(),
            winner: scored.selection.map(|s| (s.kind.index(), s.primary_ratio)),
            rows,
            len,
        })
    }

    /// The name of the rule the pass applied.
    pub(crate) fn rule(&self) -> &'static str {
        self.rule
    }

    /// The variant the site held going into the pass.
    pub(crate) fn current<K: Kind>(&self) -> K {
        K::from_index(self.current)
    }

    /// The pass's winner, as [`select_variant_filtered`] returns it.
    pub(crate) fn selection<K: Kind>(&self) -> Option<Selection<K>> {
        self.winner.map(|(kind, primary_ratio)| Selection {
            kind: K::from_index(kind),
            primary_ratio,
        })
    }

    /// Renders the audit: variant names, and whether the allocation term
    /// decided the pass.
    pub(crate) fn render<K: Kind>(&self) -> ExplainedSelection<K> {
        let candidates = self.rows[..self.len]
            .iter()
            .map(|row| CandidateEstimate {
                variant: K::from_index(row.kind).to_string(),
                primary_cost: row.primary_cost,
                primary_ratio: row.primary_ratio,
                alloc_cost: row.alloc_cost,
                satisfied: row.satisfied,
                excluded: row.excluded,
            })
            .collect();
        ExplainedSelection {
            selection: self.selection(),
            candidates,
            current_primary_cost: self.current_primary_cost,
            current_alloc_cost: self.current_alloc_cost,
            alloc_bytes_per_op: self.alloc_bytes_per_op,
            alloc_driven: self.winner.is_some()
                && matches!(
                    self.primary,
                    CostDimension::Alloc | CostDimension::AllocRate
                ),
        }
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
        let uniform: Vec<WorkloadProfile> = (0..10).map(|_| profile(100, 200, 0, 0, 500)).collect();
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
            vm.set_op_cost(
                CostDimension::Time,
                OpKind::Contains,
                Polynomial::constant(c),
            );
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
        vm.set_op_cost(
            CostDimension::Time,
            OpKind::Contains,
            Polynomial::constant(5.0),
        );
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
        let uniform: Vec<WorkloadProfile> = (0..10).map(|_| profile(100, 500, 0, 0, 500)).collect();
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
        // The alloc column is still filled in for the audit.
        assert!(explained.current_alloc_cost > 0.0);
        for row in explained.candidates.iter().filter(|c| c.excluded.is_none()) {
            assert!(row.alloc_cost.is_finite());
        }
    }

    #[test]
    fn alloc_rule_switch_is_alloc_driven() {
        let profiles: Vec<WorkloadProfile> = (0..20).map(|_| profile(8, 10, 0, 0, 8)).collect();
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
        let profiles: Vec<WorkloadProfile> = (0..20).map(|_| profile(8, 10, 0, 0, 8)).collect();
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
