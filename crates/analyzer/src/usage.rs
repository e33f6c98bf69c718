//! Usage-fact → synthetic workload synthesis.
//!
//! The dynamic half of CollectionSwitch observes real operation counts; the
//! static half has only source evidence. This module reconstructs a
//! *synthetic* [`WorkloadProfile`] per allocation site from the
//! [`MethodFact`]s on the site's aliases (its binding and every binding the
//! dataflow pass saw the value reach): each
//! method call maps to one of the paper's four critical operations
//! (abstraction-sensitive — `insert` populates a map but is a middle
//! insertion on a list), and loop nesting amplifies its weight, since a call
//! inside a loop executes many times per instance.
//!
//! The absolute counts are fictions; only their *ratios* matter, exactly as
//! in the paper's total-cost comparison `tc_W(V1) / tc_W(V2)` — both sides
//! scale by the same synthetic weights.

use cs_collections::Abstraction;
use cs_profile::{OpCounters, OpKind, WorkloadProfile};

use crate::dataflow::SiteFacts;
use crate::extract::{MethodFact, StaticSite};

/// Amplification per loop-nest level: a call at depth *d* counts as
/// `LOOP_WEIGHT^d` executions. 64 approximates a "many iterations"
/// assumption without overflowing at realistic depths.
pub const LOOP_WEIGHT: u64 = 64;

/// Maximum loop depth honoured before the amplification saturates.
const MAX_AMPLIFIED_DEPTH: u32 = 4;

/// Default assumed maximum size when no capacity hint and no populate
/// evidence bounds it.
pub const DEFAULT_MAX_SIZE: usize = 256;

/// Maps a method name observed on a binding to a critical operation for the
/// given abstraction. `None` means the call is neutral (e.g. `len`,
/// `is_empty`, `clear`) and contributes nothing.
pub fn classify_method(abstraction: Abstraction, method: &str) -> Option<OpKind> {
    use Abstraction as A;
    use OpKind as O;
    let op = match (abstraction, method) {
        // -- population: appends on lists, inserts on keyed structures.
        (A::List, "push" | "push_back" | "append" | "extend" | "extend_from_slice") => O::Populate,
        (A::Set | A::Map, "insert" | "extend" | "append" | "add" | "put") => O::Populate,

        // -- membership / point lookup.
        (_, "contains") => O::Contains,
        (A::Map, "contains_key" | "get" | "get_mut" | "get_key_value" | "entry") => O::Contains,
        (A::Set, "get" | "take") => O::Contains,
        (A::List, "binary_search") => O::Contains,

        // -- traversal.
        (_, "iter" | "iter_mut" | "for_in" | "drain" | "retain" | "for_each") => O::Iterate,
        (A::Map, "keys" | "values" | "values_mut") => O::Iterate,
        (A::List, "sort" | "sort_unstable" | "sort_by" | "sort_unstable_by" | "dedup") => {
            O::Iterate
        }

        // -- positional / structural edits.
        (A::List, "insert" | "remove" | "swap_remove" | "push_front" | "pop_front") => O::Middle,
        (A::Set | A::Map, "remove" | "remove_entry") => O::Middle,
        (A::List, "get" | "pop" | "last" | "first") => None?,

        _ => None?,
    };
    Some(op)
}

/// The synthetic usage evidence reconstructed for one site.
#[derive(Debug, Clone, Default)]
pub struct UsageSummary {
    /// Facts attributed to the site's binding (same enclosing item).
    pub matched_facts: usize,
    /// Facts that mapped to a critical operation.
    pub classified_facts: usize,
    /// Amplified operation counts per critical operation, in
    /// [`OpKind::ALL`] order.
    pub op_weights: [u64; 4],
    /// The assumed maximum size (capacity hint > populate evidence > default).
    pub assumed_max_size: usize,
}

impl UsageSummary {
    /// The dominant critical operation by amplified weight, if any
    /// evidence exists.
    pub fn dominant_op(&self) -> Option<OpKind> {
        let (idx, &w) = self
            .op_weights
            .iter()
            .enumerate()
            .max_by_key(|&(_, &w)| w)?;
        if w == 0 {
            return None;
        }
        Some(OpKind::ALL[idx])
    }

    /// Renders the weights as a compact `populate=4096 contains=4096 …`
    /// evidence string for diagnostics.
    pub fn evidence(&self) -> String {
        let mut parts = Vec::new();
        for (i, op) in OpKind::ALL.iter().enumerate() {
            if self.op_weights[i] > 0 {
                parts.push(format!(
                    "{}={}",
                    op.to_string().to_lowercase(),
                    self.op_weights[i]
                ));
            }
        }
        if parts.is_empty() {
            "no-evidence".to_owned()
        } else {
            parts.join(" ")
        }
    }

    /// Converts the summary into the synthetic workload profile the cost
    /// models evaluate. Returns `None` when there is no classified evidence
    /// — advising from nothing would only reproduce the model's global
    /// minimum, not anything about this site.
    pub fn to_profile(&self) -> Option<WorkloadProfile> {
        if self.classified_facts == 0 {
            return None;
        }
        let mut counters = OpCounters::new();
        for (i, op) in OpKind::ALL.iter().enumerate() {
            if self.op_weights[i] > 0 {
                counters.add(*op, self.op_weights[i]);
            }
        }
        Some(WorkloadProfile::new(counters, self.assumed_max_size))
    }
}

/// Weight of one fact: `LOOP_WEIGHT^min(depth, MAX_AMPLIFIED_DEPTH)`.
fn amplified(depth: u32) -> u64 {
    LOOP_WEIGHT.saturating_pow(depth.min(MAX_AMPLIFIED_DEPTH))
}

/// Builds the usage summary for `site` from the facts of its file and the
/// site's dataflow facts.
///
/// Facts attribute to the site when the receiver is one of the site's
/// **aliases** (its declared binding, plus every binding a move, borrow,
/// clone or `create_*` handle return passed the value to — a
/// `let list = ctx.create_list();` handle feeds its context site's evidence)
/// *and* the call sits in the same enclosing item: the dataflow pass does
/// not follow values across functions, and pretending otherwise would
/// misattribute unrelated bindings that happen to share a name.
///
/// For the assumed size, an explicit `with_capacity` hint wins (the author
/// asserted it), then a dataflow-derived exact bound, then populate-count
/// guesswork.
pub fn summarize(site: &StaticSite, facts: &[MethodFact], flow: &SiteFacts) -> UsageSummary {
    let mut summary = UsageSummary::default();
    if flow.aliases.is_empty() {
        summary.assumed_max_size = site.capacity_hint.unwrap_or(0) as usize;
        return summary;
    }
    let abstraction = site.declared.abstraction();
    for fact in facts {
        if !flow.aliases.contains(&fact.receiver) || fact.item != site.item {
            continue;
        }
        summary.matched_facts += 1;
        if let Some(op) = classify_method(abstraction, &fact.method) {
            summary.classified_facts += 1;
            summary.op_weights[op.index()] =
                summary.op_weights[op.index()].saturating_add(amplified(fact.loop_depth));
        }
    }
    // Size: an explicit capacity is the strongest signal, then a dataflow
    // bound (known-length collect, literal loop trips); otherwise assume
    // the structure grows to its amplified populate count, capped at the
    // default so a depth-4 loop does not imply 16M elements.
    let populate = summary.op_weights[OpKind::Populate.index()];
    let flow_bound = flow.capacity.exact().filter(|&n| n > 0);
    summary.assumed_max_size = match (site.capacity_hint, flow_bound) {
        (Some(c), _) if c > 0 => c as usize,
        (_, Some(n)) => (n as usize).min(DEFAULT_MAX_SIZE * 16),
        _ if populate > 0 => (populate as usize).min(DEFAULT_MAX_SIZE * 16),
        _ => DEFAULT_MAX_SIZE,
    };
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractOptions};

    /// The summary of the first site in `src`.
    fn summarize_first(src: &str) -> UsageSummary {
        let a = extract("t.rs", src, ExtractOptions::default());
        summarize(&a.sites[0], &a.facts, &a.flows[0])
    }

    #[test]
    fn contains_in_loop_dominates() {
        let src = r#"
fn filter(xs: &[u64]) {
    let mut seen = Vec::with_capacity(512);
    for x in xs {
        if seen.contains(x) { continue; }
        seen.push(*x);
    }
}
"#;
        let s = summarize_first(src);
        assert_eq!(s.dominant_op(), Some(OpKind::Contains));
        assert_eq!(s.assumed_max_size, 512);
        let p = s.to_profile().expect("evidence exists");
        assert_eq!(p.count(OpKind::Contains), LOOP_WEIGHT);
        assert_eq!(p.count(OpKind::Populate), LOOP_WEIGHT);
    }

    #[test]
    fn insert_is_populate_on_maps_but_middle_on_lists() {
        assert_eq!(
            classify_method(Abstraction::Map, "insert"),
            Some(OpKind::Populate)
        );
        assert_eq!(
            classify_method(Abstraction::List, "insert"),
            Some(OpKind::Middle)
        );
    }

    #[test]
    fn neutral_methods_contribute_nothing() {
        assert_eq!(classify_method(Abstraction::List, "len"), None);
        assert_eq!(classify_method(Abstraction::Map, "is_empty"), None);
        assert_eq!(classify_method(Abstraction::List, "pop"), None);
    }

    #[test]
    fn facts_from_other_items_do_not_attribute() {
        let src = r#"
fn a() {
    let mut v = Vec::new();
    v.push(1);
}
fn b(v: &mut Vec<u64>) {
    v.contains(&1);
}
"#;
        let s = summarize_first(src);
        assert_eq!(s.matched_facts, 1, "only the push in `a` attributes");
        assert_eq!(s.dominant_op(), Some(OpKind::Populate));
    }

    #[test]
    fn no_evidence_yields_no_profile() {
        let src = "fn f() { let v = Vec::new(); }";
        let s = summarize_first(src);
        assert!(s.to_profile().is_none());
        assert_eq!(s.evidence(), "no-evidence");
    }

    #[test]
    fn nested_loops_amplify_multiplicatively() {
        let src = r#"
fn f(grid: &[Vec<u64>]) {
    let mut hits = Vec::new();
    for row in grid {
        for cell in row {
            if hits.contains(cell) { hits.push(*cell); }
        }
    }
}
"#;
        let s = summarize_first(src);
        assert_eq!(
            s.op_weights[OpKind::Contains.index()],
            LOOP_WEIGHT * LOOP_WEIGHT
        );
    }

    #[test]
    fn aliases_route_facts_and_flow_bounds_refine_size() {
        let src = r#"
fn f(xs: &[u64]) {
    let journal = Vec::new();
    let mut log = journal;
    for _ in 0..96 {
        log.push(1u64);
    }
    log.contains(&1u64);
}
"#;
        let s = summarize_first(src);
        assert_eq!(s.matched_facts, 2, "the moved `log` carries the evidence");
        assert_eq!(s.dominant_op(), Some(OpKind::Populate));
        assert_eq!(
            s.assumed_max_size, 96,
            "the literal loop trip beats the amplified populate guess"
        );
    }

    #[test]
    fn populate_evidence_bounds_assumed_size() {
        let src = r#"
fn f(xs: &[u64]) {
    let mut v = Vec::new();
    for x in xs { v.push(*x); }
    v.sort();
}
"#;
        let s = summarize_first(src);
        assert_eq!(s.assumed_max_size, LOOP_WEIGHT as usize);
    }
}
