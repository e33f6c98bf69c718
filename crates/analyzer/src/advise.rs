//! The Perflint-style variant advisor.
//!
//! For every modeled allocation site the advisor synthesizes a workload
//! profile from static usage evidence ([`crate::usage`]) and evaluates the
//! calibrated [`cs_model`] cost models over every concrete variant of the
//! site's abstraction — the same `tc_W(V) = instance(s) + Σ N_op·cost_op(s)`
//! the dynamic engine minimizes, evaluated on synthetic counts instead of
//! observed ones. When a different variant undercuts the declared one by at
//! least [`AdviseOptions::min_speedup`], the site gets a recommendation:
//!
//! ```text
//! site crates/app/src/filter.rs:42 — contains-dominated array list,
//! hasharray estimated 3.1x cheaper (time)
//! ```
//!
//! Adaptive variants are excluded from recommendations: a *static* advisor
//! recommending "switch at runtime" would be abdicating, not advising.

use cs_collections::{Abstraction, ListKind, MapKind, SetKind};
use cs_model::{default_models, CostDimension, PerformanceModel};
use std::fmt;

use crate::dataflow::{CapacityBound, SiteFacts};
use crate::extract::{DeclaredVariant, FileAnalysis, StaticSite};
use crate::usage::{summarize, UsageSummary};

/// Tuning knobs for the advisor.
#[derive(Debug, Clone, Copy)]
pub struct AdviseOptions {
    /// Cost dimension to minimize.
    pub dimension: CostDimension,
    /// Minimum `declared_cost / best_cost` ratio before a recommendation is
    /// emitted; below it the declared variant is considered good enough.
    pub min_speedup: f64,
}

impl Default for AdviseOptions {
    fn default() -> Self {
        AdviseOptions {
            dimension: CostDimension::Time,
            min_speedup: 1.2,
        }
    }
}

/// Declared-vs-recommended pricing on one cost dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimensionCost {
    /// The dimension.
    pub dimension: CostDimension,
    /// `tc_W` of the declared variant on this dimension.
    pub declared: f64,
    /// `tc_W` of the recommended variant on this dimension.
    pub recommended: f64,
    /// `declared / recommended`; `0.0` when the recommended cost is not
    /// positive (the dimension is uncalibrated for one side).
    pub ratio: f64,
}

/// A model-backed recommendation to change a site's declared variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The recommended variant's kind name (e.g. `hasharray`).
    pub kind: String,
    /// `tc_W` of the declared variant on the synthetic profile.
    pub declared_cost: f64,
    /// `tc_W` of the recommended variant on the same profile.
    pub recommended_cost: f64,
    /// `declared_cost / recommended_cost`.
    pub speedup: f64,
    /// The dimension the costs were evaluated on.
    pub dimension: CostDimension,
    /// The same comparison re-priced on every dimension of
    /// [`CostDimension::ALL`], in that order — the per-dimension columns of
    /// the advice report.
    pub dimension_costs: Vec<DimensionCost>,
    /// The engine's `alloc_driven` semantics ported to static advice: the
    /// switch is driven by allocation pressure, not wall time, because the
    /// minimized dimension is `Alloc` or `AllocRate`.
    pub alloc_driven: bool,
}

/// The advisor's verdict for one site.
#[derive(Debug, Clone)]
pub struct SiteAdvice {
    /// The site.
    pub site: StaticSite,
    /// The synthetic usage evidence behind the verdict.
    pub summary: UsageSummary,
    /// The site's dataflow facts.
    pub facts: SiteFacts,
    /// A recommendation, when the models found a clearly cheaper variant.
    /// `None` means: keep the declared variant, or no usable evidence, or
    /// the declared variant is unmodeled.
    pub recommendation: Option<Recommendation>,
    /// Why no recommendation was made, when applicable.
    pub skip_reason: Option<&'static str>,
    /// Concurrent-tier advice when the value escapes to another thread or
    /// `'static` context — emitted even for sites whose kind-replacement
    /// recommendation is suppressed (adaptive, library-profile declared).
    pub escape_advice: Option<String>,
    /// `with_capacity` advice when a static bound is known and the author
    /// did not already declare a capacity.
    pub capacity_advice: Option<String>,
    /// Persistent/COW-tier advice for clone-heavy sites.
    pub persistence_advice: Option<String>,
    /// The statically predicted allocation class input: the declared
    /// variant's `AllocRate` cost per synthetic operation. Compared by
    /// [`crate::drift`] against the runtime-measured
    /// `alloc_bytes_per_op` of the matching manifest site.
    pub predicted_alloc_bytes_per_op: Option<f64>,
    /// The site's advice is shaped by escape facts (concurrent tier).
    pub escape_driven: bool,
}

impl SiteAdvice {
    /// One-line human diagnostic in the Perflint style; dataflow-derived
    /// advice segments (escape, capacity, persistence) are appended after
    /// the cost verdict.
    pub fn render(&self) -> String {
        let dominant = self
            .summary
            .dominant_op()
            .map(|op| format!("{op}-dominated"))
            .unwrap_or_else(|| "unprofiled".to_owned());
        let declared = self
            .site
            .declared
            .kind_name()
            .unwrap_or_else(|| "unmodeled".to_owned());
        let abstraction = self.site.declared.abstraction();
        let mut line = match &self.recommendation {
            Some(r) => {
                let rationale = if r.alloc_driven {
                    " [alloc-driven]"
                } else {
                    ""
                };
                format!(
                    "site {} — {} {} {}, {} estimated {:.1}x cheaper ({}){}",
                    self.site.location(),
                    dominant,
                    declared,
                    abstraction,
                    r.kind,
                    r.speedup,
                    r.dimension,
                    rationale,
                )
            }
            None => format!(
                "site {} — {} {} {}: {}",
                self.site.location(),
                dominant,
                declared,
                abstraction,
                self.skip_reason.unwrap_or("declared variant is best"),
            ),
        };
        if let Some(e) = &self.escape_advice {
            line.push_str("; ");
            line.push_str(e);
        }
        if let Some(c) = &self.capacity_advice {
            line.push_str("; ");
            line.push_str(c);
        }
        if let Some(p) = &self.persistence_advice {
            line.push_str("; ");
            line.push_str(p);
        }
        line
    }
}

/// The declared variant's `AllocRate` cost per synthetic operation — the
/// static prediction [`crate::drift`] checks against runtime measurement.
fn predicted_alloc<K>(
    model: &PerformanceModel<K>,
    declared: K,
    summary: &UsageSummary,
) -> Option<f64>
where
    K: Copy + Eq + fmt::Display,
{
    let profile = summary.to_profile()?;
    let total_ops: u64 = summary.op_weights.iter().sum();
    if total_ops == 0 {
        return None;
    }
    let cost = model.summed_cost(declared, CostDimension::AllocRate, &[profile]);
    (cost > 0.0).then(|| cost / total_ops as f64)
}

/// Evaluates every concrete (non-adaptive) variant of `model` against the
/// synthetic profile, returning a recommendation when one beats `declared`
/// by at least `min_speedup`. The third element is the declared variant's
/// predicted `alloc_bytes_per_op`, present whenever a profile exists —
/// even when no recommendation is emitted.
fn recommend<K>(
    model: &PerformanceModel<K>,
    declared: K,
    adaptive: K,
    summary: &UsageSummary,
    opts: AdviseOptions,
) -> (Option<Recommendation>, Option<&'static str>, Option<f64>)
where
    K: Copy + Eq + fmt::Display,
{
    let Some(profile) = summary.to_profile() else {
        return (None, Some("no usage evidence"), None);
    };
    let predicted = predicted_alloc(model, declared, summary);
    let profiles = [profile];
    let declared_cost = model.summed_cost(declared, opts.dimension, &profiles);
    let best = model.kinds().filter(|&k| k != adaptive).min_by(|&a, &b| {
        model
            .summed_cost(a, opts.dimension, &profiles)
            .total_cmp(&model.summed_cost(b, opts.dimension, &profiles))
    });
    let Some(best) = best else {
        return (None, Some("model has no variants"), predicted);
    };
    if best == declared {
        return (None, None, predicted);
    }
    let best_cost = model.summed_cost(best, opts.dimension, &profiles);
    if best_cost <= 0.0 || declared_cost <= 0.0 {
        return (None, Some("degenerate model costs"), predicted);
    }
    let speedup = declared_cost / best_cost;
    if speedup < opts.min_speedup {
        return (None, None, predicted);
    }

    // Re-price the declared-vs-best comparison on every dimension: the
    // per-dimension columns of the report.
    let dimension_costs: Vec<DimensionCost> = CostDimension::ALL
        .iter()
        .map(|&dimension| {
            let d = model.summed_cost(declared, dimension, &profiles);
            let r = model.summed_cost(best, dimension, &profiles);
            DimensionCost {
                dimension,
                declared: d,
                recommended: r,
                ratio: if r > 0.0 { d / r } else { 0.0 },
            }
        })
        .collect();
    let alloc_driven = matches!(
        opts.dimension,
        CostDimension::Alloc | CostDimension::AllocRate
    );
    (
        Some(Recommendation {
            kind: best.to_string(),
            declared_cost,
            recommended_cost: best_cost,
            speedup,
            dimension: opts.dimension,
            dimension_costs,
            alloc_driven,
        }),
        None,
        predicted,
    )
}

/// The escape/capacity/persistence advice strings derived from one site's
/// dataflow facts. Independent of the cost models on purpose: these fire
/// even for sites whose kind-replacement recommendation is suppressed.
fn facts_advice(
    site: &StaticSite,
    facts: &SiteFacts,
) -> (Option<String>, Option<String>, Option<String>) {
    let escape = if facts.escape.escapes_concurrently() {
        let mut sinks = Vec::new();
        if facts.escape.spawn {
            sinks.push("spawn");
        }
        if facts.escape.arc {
            sinks.push("Arc");
        }
        if facts.escape.mutex {
            sinks.push("Mutex");
        }
        if facts.escape.static_sink {
            sinks.push("static");
        }
        let tier = match site.declared.abstraction() {
            Abstraction::Map => "the concurrent tier (concurrent_map)",
            Abstraction::Set => "the concurrent tier (concurrent_set)",
            Abstraction::List => "a concurrent-tier structure (sharded runtime)",
        };
        let mut msg = format!(
            "escapes concurrently ({}) — prefer {}",
            sinks.join("+"),
            tier
        );
        if facts.escape.shared_without_sync() {
            msg.push_str("; shared across threads without Arc/Mutex (race-shaped)");
        }
        Some(msg)
    } else {
        None
    };
    // Only advise a capacity the author has not already declared.
    let capacity = match (&site.capacity_hint, &facts.capacity.bound) {
        (None, Some(CapacityBound::Exact(n))) => Some(format!(
            "grows to exactly {n} — construct with_capacity({n})"
        )),
        (None, Some(CapacityBound::LenOf(src))) => Some(format!(
            "grows to {src}.len() — construct with_capacity({src}.len())"
        )),
        _ => None,
    };
    let persistence = facts.persistent_candidate().then(|| {
        let c = facts.clones;
        let where_ = if c.in_loop { " (in a loop)" } else { "" };
        format!(
            "clone-heavy: {} clone call{}{}, {} live versions — persistent/COW tier candidate",
            c.count,
            if c.count == 1 { "" } else { "s" },
            where_,
            c.max_live_versions.max(1),
        )
    });
    (escape, capacity, persistence)
}

/// Runs the advisor over one extracted file.
///
/// Fact-derived advice (escape → concurrent tier, capacity →
/// `with_capacity`, clone pressure → persistent tier) comes from the
/// dataflow facts [`extract`](crate::extract()) left in
/// [`FileAnalysis::flows`], and is attached even to sites whose
/// kind-replacement recommendation is suppressed: declared adaptive kinds
/// (the runtime engine owns their selection) and declared library profiles
/// (`SetKind::Open(…)` — a deliberate tuning choice the static advisor
/// respects).
pub fn advise_file(analysis: &FileAnalysis, opts: AdviseOptions) -> Vec<SiteAdvice> {
    analysis
        .sites
        .iter()
        .zip(&analysis.flows)
        .map(|(site, flow)| {
            let summary = summarize(site, &analysis.facts, flow);
            let (recommendation, skip_reason, predicted) = match site.declared {
                DeclaredVariant::List(ListKind::Adaptive)
                | DeclaredVariant::Set(SetKind::Adaptive)
                | DeclaredVariant::Map(MapKind::Adaptive) => (
                    None,
                    Some("adaptive declared; the runtime engine owns selection"),
                    None,
                ),
                DeclaredVariant::Set(k @ SetKind::Open(_)) => (
                    None,
                    Some("library profile declared; kind replacement suppressed"),
                    predicted_alloc(default_models::set_model(), k, &summary),
                ),
                DeclaredVariant::Map(k @ MapKind::Open(_)) => (
                    None,
                    Some("library profile declared; kind replacement suppressed"),
                    predicted_alloc(default_models::map_model(), k, &summary),
                ),
                DeclaredVariant::List(k) => recommend(
                    default_models::list_model(),
                    k,
                    ListKind::Adaptive,
                    &summary,
                    opts,
                ),
                DeclaredVariant::Set(k) => recommend(
                    default_models::set_model(),
                    k,
                    SetKind::Adaptive,
                    &summary,
                    opts,
                ),
                DeclaredVariant::Map(k) => recommend(
                    default_models::map_model(),
                    k,
                    MapKind::Adaptive,
                    &summary,
                    opts,
                ),
                DeclaredVariant::Unmodeled(_) => (None, Some("no cost model for this type"), None),
            };
            let (escape_advice, capacity_advice, persistence_advice) = facts_advice(site, flow);
            let escape_driven = escape_advice.is_some();
            SiteAdvice {
                site: site.clone(),
                summary,
                facts: flow.clone(),
                recommendation,
                skip_reason,
                escape_advice,
                capacity_advice,
                persistence_advice,
                predicted_alloc_bytes_per_op: predicted,
                escape_driven,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractOptions};
    use cs_profile::OpKind;

    fn advise_src(src: &str, opts: AdviseOptions) -> Vec<SiteAdvice> {
        advise_file(&extract("t.rs", src, ExtractOptions::default()), opts)
    }

    #[test]
    fn contains_dominated_vec_gets_a_hash_backed_recommendation() {
        let src = r#"
fn filter(xs: &[u64]) -> usize {
    let mut seen = Vec::with_capacity(512);
    for x in xs {
        if seen.contains(x) { continue; }
        seen.push(*x);
    }
    seen.len()
}
"#;
        let advice = advise_src(src, AdviseOptions::default());
        assert_eq!(advice.len(), 1);
        let rec = advice[0]
            .recommendation
            .as_ref()
            .expect("contains-dominated Vec must draw a recommendation");
        assert_eq!(rec.kind, ListKind::HashArray.to_string());
        assert!(rec.speedup > 1.2, "speedup {}", rec.speedup);
        assert_eq!(advice[0].summary.dominant_op(), Some(OpKind::Contains));
        let line = advice[0].render();
        assert!(line.contains("t.rs:3"), "{line}");
        assert!(line.contains("hasharray"), "{line}");
    }

    #[test]
    fn exact_cost_ties_go_to_the_first_variant_in_the_model() {
        // Array and HashArray price the profile identically; the tie breaks
        // by the model's insertion order, the same way in every build.
        use cs_model::{Polynomial, VariantCostModel};
        let flat = |cost: f64| {
            let mut vm = VariantCostModel::new();
            vm.set_op_cost(
                CostDimension::Time,
                OpKind::Contains,
                Polynomial::constant(cost),
            );
            vm
        };
        let summary = UsageSummary {
            matched_facts: 1,
            classified_facts: 1,
            op_weights: [0, 100, 0, 0],
            assumed_max_size: 16,
        };
        for (first, second) in [
            (ListKind::Array, ListKind::HashArray),
            (ListKind::HashArray, ListKind::Array),
        ] {
            for _ in 0..16 {
                let mut model = PerformanceModel::new();
                model.insert_variant(ListKind::Linked, flat(10.0));
                model.insert_variant(first, flat(2.0));
                model.insert_variant(second, flat(2.0));
                let (rec, _, _) = recommend(
                    &model,
                    ListKind::Linked,
                    ListKind::Adaptive,
                    &summary,
                    AdviseOptions::default(),
                );
                assert_eq!(rec.expect("5x cheaper").kind, first.to_string());
            }
        }
    }

    #[test]
    fn push_then_iterate_vec_is_left_alone() {
        let src = r#"
fn collect(xs: &[u64]) -> u64 {
    let mut v = Vec::with_capacity(64);
    for x in xs { v.push(*x); }
    let mut sum = 0;
    for x in &v { sum += *x; }
    sum
}
"#;
        let advice = advise_src(src, AdviseOptions::default());
        assert_eq!(advice.len(), 1);
        assert!(
            advice[0].recommendation.is_none(),
            "sequential Vec is already optimal: {:?}",
            advice[0].recommendation
        );
    }

    #[test]
    fn no_evidence_sites_are_skipped_not_recommended() {
        let advice = advise_src("fn f() { let v = Vec::new(); }", AdviseOptions::default());
        assert!(advice[0].recommendation.is_none());
        assert_eq!(advice[0].skip_reason, Some("no usage evidence"));
    }

    #[test]
    fn unmodeled_types_are_listed_but_not_advised() {
        let advice = advise_src(
            "fn f() { let m = BTreeMap::new(); m.insert(1, 2); }",
            AdviseOptions::default(),
        );
        assert_eq!(advice.len(), 1);
        assert_eq!(advice[0].skip_reason, Some("no cost model for this type"));
    }

    #[test]
    fn alloc_rate_dimension_yields_alloc_driven_with_columns() {
        let src = r#"
fn dedup(xs: &[u64]) {
    let mut seen = HashSet::new();
    for x in xs {
        seen.insert(*x);
    }
    for v in &seen { drop(v); }
}
"#;
        let opts = AdviseOptions {
            dimension: CostDimension::AllocRate,
            ..AdviseOptions::default()
        };
        let advice = advise_src(src, opts);
        let rec = advice[0]
            .recommendation
            .as_ref()
            .expect("populate-heavy chained set loses on alloc rate");
        assert!(
            rec.alloc_driven,
            "AllocRate-dimension advice is alloc-driven"
        );
        assert_eq!(rec.dimension_costs.len(), CostDimension::ALL.len());
        for (i, dc) in rec.dimension_costs.iter().enumerate() {
            assert_eq!(dc.dimension, CostDimension::ALL[i]);
        }
        let ar = &rec.dimension_costs[CostDimension::AllocRate.index()];
        assert!(ar.ratio >= opts.min_speedup, "alloc-rate won by the margin");
        assert!(advice[0].render().contains("[alloc-driven]"));
    }

    #[test]
    fn time_dimension_recommendations_are_not_alloc_driven() {
        let src = r#"
fn filter(xs: &[u64]) {
    let mut seen = Vec::new();
    for x in xs {
        if seen.contains(x) { continue; }
        seen.push(*x);
    }
}
"#;
        let advice = advise_src(src, AdviseOptions::default());
        let rec = advice[0].recommendation.as_ref().expect("hasharray wins");
        assert!(!rec.alloc_driven);
        assert!(!advice[0].render().contains("[alloc-driven]"));
    }

    #[test]
    fn open_profile_sites_keep_facts_but_not_kind_advice() {
        let src = r#"
fn f(xs: &[u64]) {
    let mut s = AnySet::new(SetKind::Open(LibraryProfile::Koloboke));
    for _ in 0..128 {
        s.insert(1u64);
    }
    s.contains(&1u64);
}
"#;
        let advice = advise_src(src, AdviseOptions::default());
        assert_eq!(advice.len(), 1);
        assert!(advice[0].recommendation.is_none());
        assert_eq!(
            advice[0].skip_reason,
            Some("library profile declared; kind replacement suppressed")
        );
        // The blind spot is fixed: facts still flow.
        assert!(
            advice[0]
                .capacity_advice
                .as_deref()
                .is_some_and(|c| c.contains("128")),
            "{:?}",
            advice[0].capacity_advice
        );
        assert!(
            advice[0].predicted_alloc_bytes_per_op.is_some(),
            "drift still gets a static alloc prediction"
        );
    }

    #[test]
    fn adaptive_sites_keep_facts_but_not_kind_advice() {
        let src = r#"
fn f() {
    let mut s = AdaptiveSet::new();
    std::thread::spawn(move || {
        s.insert(1u64);
    });
}
"#;
        let advice = advise_src(src, AdviseOptions::default());
        assert!(advice[0].recommendation.is_none());
        assert_eq!(
            advice[0].skip_reason,
            Some("adaptive declared; the runtime engine owns selection")
        );
        assert!(advice[0].escape_driven);
        assert!(
            advice[0]
                .escape_advice
                .as_deref()
                .is_some_and(|e| e.contains("spawn")),
            "{:?}",
            advice[0].escape_advice
        );
    }

    #[test]
    fn escape_and_persistence_advice_render_into_the_line() {
        let src = r#"
fn f(n: usize) {
    let mut snapshots = HashMap::new();
    snapshots.insert(0u64, 0u64);
    for _ in 0..n {
        let version = snapshots.clone();
        drop(version);
    }
    let shared = Arc::new(Mutex::new(snapshots));
    std::thread::spawn(move || drop(shared));
}
"#;
        let advice = advise_src(src, AdviseOptions::default());
        let a = &advice[0];
        assert!(a.escape_driven);
        let line = a.render();
        assert!(line.contains("escapes concurrently"), "{line}");
        assert!(line.contains("persistent/COW"), "{line}");
        assert!(
            !line.contains("race-shaped"),
            "Arc+Mutex is synchronized: {line}"
        );
    }

    #[test]
    fn adaptive_is_never_recommended() {
        let src = r#"
fn f(xs: &[u64]) {
    let mut s = HashSet::new();
    for x in xs {
        s.insert(*x);
        s.contains(x);
    }
    for v in &s { drop(v); }
}
"#;
        for a in advise_src(src, AdviseOptions::default()) {
            if let Some(r) = &a.recommendation {
                assert_ne!(r.kind, "adaptive");
            }
        }
    }
}
