//! Machine-readable reports: every analyzer output rendered through the
//! workspace's single JSON module ([`cs_telemetry::Json`]) so the advisor
//! schema sits next to the telemetry snapshot schema (see EXPERIMENTS.md)
//! and CI can diff documents instead of scraping text.

use cs_telemetry::{manifest_entry_to_json, Json};

use crate::advise::SiteAdvice;
use crate::dataflow::{CapacityBound, SiteFacts};
use crate::drift::DriftReport;
use crate::extract::StaticSite;
use crate::lint::Diagnostic;

/// Schema version stamped on every document this module emits.
///
/// v2: dataflow facts (`facts`), per-dimension recommendation columns
/// (`dimensions`), `alloc_driven`/`escape_driven` rationale, advice
/// strings, `predicted_alloc_bytes_per_op`, runtime manifests carry
/// `alloc_bytes_per_op`, drift reports carry `alloc_drift`.
///
/// v3: the synthetic dimension priced as a weighted sum of time and
/// allocation is retired. Each recommendation loses its two `*_proxy`
/// keys and that dimension's element of `dimensions`.
pub const SCHEMA_VERSION: u64 = 3;

/// One site as JSON (shared by the manifest and advice documents).
pub fn site_to_json(site: &StaticSite) -> Json {
    Json::object()
        .field("fingerprint", site.fingerprint())
        .field("path", site.path.as_str())
        .field("line", site.line)
        .field("col", site.col)
        .field("item", site.item.as_str())
        .field("ordinal", site.ordinal)
        .field("constructor", site.constructor.as_str())
        .field("abstraction", site.declared.abstraction().to_string())
        .field("declared_kind", site.declared.kind_name())
        .field("category", site.category.to_string())
        .field("binding", site.binding.clone())
        .field("capacity_hint", site.capacity_hint)
        .field("declared_name", site.declared_name.clone())
        .field("in_test", site.in_test)
}

/// The static site manifest: `{schema, root, sites: [...]}`.
pub fn manifest_to_json(root: &str, sites: &[StaticSite]) -> Json {
    Json::object()
        .field("schema", SCHEMA_VERSION)
        .field("kind", "site-manifest")
        .field("root", root)
        .field(
            "sites",
            Json::Array(sites.iter().map(site_to_json).collect()),
        )
}

/// Dataflow facts for one site as JSON (shared by the advice document and
/// the dataflow goldens).
pub fn facts_to_json(facts: &SiteFacts) -> Json {
    let capacity_bound = match &facts.capacity.bound {
        Some(CapacityBound::Exact(n)) => Json::object().field("exact", *n),
        Some(CapacityBound::LenOf(src)) => Json::object().field("len_of", src.as_str()),
        None => Json::Null,
    };
    Json::object()
        .field(
            "escape",
            Json::object()
                .field("spawn", facts.escape.spawn)
                .field("arc", facts.escape.arc)
                .field("mutex", facts.escape.mutex)
                .field("static_sink", facts.escape.static_sink)
                .field("returned", facts.escape.returned)
                .field("used_after_spawn", facts.escape.used_after_spawn)
                .field("concurrent", facts.escape.escapes_concurrently())
                .field("shared_without_sync", facts.escape.shared_without_sync()),
        )
        .field(
            "capacity",
            Json::object()
                .field("bound", capacity_bound)
                .field("bounded_pushes", facts.capacity.bounded_pushes),
        )
        .field(
            "clones",
            Json::object()
                .field("count", u64::from(facts.clones.count))
                .field("in_loop", facts.clones.in_loop)
                .field(
                    "max_live_versions",
                    u64::from(facts.clones.max_live_versions),
                )
                .field("persistent_candidate", facts.persistent_candidate()),
        )
        .field("aliases", facts.aliases.clone())
}

/// One advisor verdict as JSON.
pub fn advice_to_json(advice: &SiteAdvice) -> Json {
    let mut doc = site_to_json(&advice.site)
        .field("evidence", advice.summary.evidence())
        .field(
            "dominant_op",
            advice.summary.dominant_op().map(|o| o.to_string()),
        )
        .field("assumed_max_size", advice.summary.assumed_max_size)
        .field("diagnostic", advice.render());
    match &advice.recommendation {
        Some(r) => {
            doc = doc.field(
                "recommendation",
                Json::object()
                    .field("kind", r.kind.as_str())
                    .field("dimension", r.dimension.to_string())
                    .field("declared_cost", r.declared_cost)
                    .field("recommended_cost", r.recommended_cost)
                    .field("speedup", r.speedup)
                    .field("alloc_driven", r.alloc_driven)
                    .field(
                        "dimensions",
                        Json::Array(
                            r.dimension_costs
                                .iter()
                                .map(|dc| {
                                    Json::object()
                                        .field("dimension", dc.dimension.to_string())
                                        .field("declared", dc.declared)
                                        .field("recommended", dc.recommended)
                                        .field("ratio", dc.ratio)
                                })
                                .collect(),
                        ),
                    ),
            );
        }
        None => {
            doc = doc
                .field("recommendation", Json::Null)
                .field("skip_reason", advice.skip_reason);
        }
    }
    doc.field("facts", facts_to_json(&advice.facts))
        .field("escape_driven", advice.escape_driven)
        .field("escape_advice", advice.escape_advice.clone())
        .field("capacity_advice", advice.capacity_advice.clone())
        .field("persistence_advice", advice.persistence_advice.clone())
        .field(
            "predicted_alloc_bytes_per_op",
            advice.predicted_alloc_bytes_per_op,
        )
}

/// The advisor report: `{schema, root, advised, sites: [...]}`.
pub fn advice_report_to_json(root: &str, advice: &[SiteAdvice]) -> Json {
    let advised = advice.iter().filter(|a| a.recommendation.is_some()).count();
    Json::object()
        .field("schema", SCHEMA_VERSION)
        .field("kind", "advice-report")
        .field("root", root)
        .field("total_sites", advice.len())
        .field("advised", advised)
        .field(
            "sites",
            Json::Array(advice.iter().map(advice_to_json).collect()),
        )
}

/// One lint finding as JSON.
pub fn diagnostic_to_json(d: &Diagnostic) -> Json {
    Json::object()
        .field("rule", d.rule.as_str())
        .field("path", d.path.as_str())
        .field("line", d.line)
        .field("item", d.item.as_str())
        .field("message", d.message.as_str())
        .field("key", d.key())
}

/// A lint baseline document: `{schema, keys: [...]}`, the committed file CI
/// diffs against. Keys are sorted so regeneration is deterministic.
pub fn baseline_to_json(diagnostics: &[Diagnostic]) -> Json {
    let mut keys: Vec<String> = diagnostics.iter().map(Diagnostic::key).collect();
    keys.sort();
    keys.dedup();
    Json::object()
        .field("schema", SCHEMA_VERSION)
        .field("kind", "lint-baseline")
        .field("keys", keys)
}

/// Reads the `keys` list back out of a parsed baseline document.
pub fn baseline_keys(doc: &Json) -> Vec<String> {
    doc.get("keys")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|k| k.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default()
}

/// A *runtime* manifest document (`{schema, kind, sites: [...]}`) from
/// [`cs_core::Switch::site_manifest`] /
/// `cs_runtime::Runtime::site_manifest` rows — the file format
/// `cs-analyzer drift --manifest` reads back.
pub fn runtime_manifest_to_json(entries: &[cs_core::SiteManifestEntry]) -> Json {
    Json::object()
        .field("schema", SCHEMA_VERSION)
        .field("kind", "runtime-manifest")
        .field(
            "sites",
            Json::Array(entries.iter().map(manifest_entry_to_json).collect()),
        )
}

/// A drift report as JSON.
pub fn drift_to_json(report: &DriftReport) -> Json {
    Json::object()
        .field("schema", SCHEMA_VERSION)
        .field("kind", "drift-report")
        .field("pass", report.passes())
        .field(
            "matched",
            Json::Array(
                report
                    .matched
                    .iter()
                    .map(|(name, fp)| {
                        Json::object()
                            .field("runtime_name", name.as_str())
                            .field("fingerprint", fp.as_str())
                    })
                    .collect(),
            ),
        )
        .field("anonymous", report.anonymous.clone())
        .field("unanchored", report.unanchored.clone())
        .field("unexercised", report.unexercised.clone())
        .field(
            "alloc_drift",
            Json::Array(
                report
                    .alloc_drift
                    .iter()
                    .map(|d| {
                        Json::object()
                            .field("runtime_name", d.runtime_name.as_str())
                            .field("fingerprint", d.fingerprint.as_str())
                            .field("predicted_bytes_per_op", d.predicted_bytes_per_op)
                            .field("measured_bytes_per_op", d.measured_bytes_per_op)
                            .field("predicted_class", d.predicted_class.to_string())
                            .field("measured_class", d.measured_class.to_string())
                            .field("agree", d.agree)
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advise::{advise_file, AdviseOptions};
    use crate::extract::{extract, ExtractOptions};

    const SRC: &str = r#"
fn filter(xs: &[u64]) -> usize {
    let mut seen = Vec::with_capacity(512);
    for x in xs {
        if seen.contains(x) { continue; }
        seen.push(*x);
    }
    seen.len()
}
"#;

    #[test]
    fn advice_report_is_valid_json_with_recommendation() {
        let analysis = extract("src/f.rs", SRC, ExtractOptions::default());
        let advice = advise_file(&analysis, AdviseOptions::default());
        let doc = advice_report_to_json("src", &advice);
        let parsed = Json::parse(&doc.render_pretty()).expect("parseable");
        assert_eq!(parsed.get("advised").and_then(Json::as_u64), Some(1));
        let sites = parsed.get("sites").and_then(Json::as_array).unwrap();
        assert_eq!(
            sites[0].get("fingerprint").and_then(Json::as_str),
            Some("src/f.rs::filter#0")
        );
        assert!(sites[0]
            .get("recommendation")
            .unwrap()
            .get("kind")
            .is_some());
    }

    #[test]
    fn baseline_round_trips_keys() {
        let d = crate::lint::lint_file(
            "crates/core/src/select.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        );
        let doc = baseline_to_json(&d);
        let parsed = Json::parse(&doc.render_pretty()).unwrap();
        let keys = baseline_keys(&parsed);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0], d[0].key());
    }

    #[test]
    fn manifest_document_shape() {
        let analysis = extract("src/f.rs", SRC, ExtractOptions::default());
        let doc = manifest_to_json("src", &analysis.sites);
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some("site-manifest")
        );
    }
}
