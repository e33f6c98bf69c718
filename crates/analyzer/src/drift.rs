//! Static ↔ runtime drift checking.
//!
//! The engine's [`site_manifest`](cs_core::Switch::site_manifest) says which
//! allocation sites *registered at runtime*; the extractor says which sites
//! *exist in source*. Drift between the two is how a CollectionSwitch
//! deployment rots silently: a context created from source the analyzer
//! cannot see (generated code, stale binaries), or instrumented sites that
//! never run (dead feature flags) and keep paying their declared footprint.
//!
//! Matching is by name, strongest evidence first: a runtime site whose name
//! equals a static site's declared `named_*` literal, its fingerprint
//! (`path::item#ordinal`), or its location (`path:line`) is **anchored**.
//! Auto-generated names (`list-site-3`, `map-site-0`, …) carry no source
//! identity and are reported as **anonymous** — a warning, not a failure,
//! because the engine mints them legitimately for anonymous contexts. A
//! *named* runtime site matching nothing static is **unanchored** and fails
//! the check: something registered under a name the source does not declare.
//!
//! The reverse direction — static context sites that never registered — is
//! the **unexercised** list, informational by default (a scan of a library
//! tree legitimately finds sites the example run never touches).

use cs_core::SiteManifestEntry;

use crate::advise::SiteAdvice;
use crate::extract::{SiteCategory, StaticSite};

/// Coarse allocation-rate classes: the granularity at which a synthetic
/// model prediction and a hardware measurement can honestly be compared.
/// Bytes-per-op magnitudes differ between model units and real allocators;
/// *classes* (order-of-magnitude bands) transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocClass {
    /// ≤ 0 bytes/op — steady state allocates nothing.
    Negligible,
    /// (0, 8) bytes/op — sub-word churn.
    Low,
    /// [8, 48) bytes/op — roughly one small allocation per few ops.
    Moderate,
    /// ≥ 48 bytes/op — allocation-dominated.
    High,
}

impl std::fmt::Display for AllocClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AllocClass::Negligible => "negligible",
            AllocClass::Low => "low",
            AllocClass::Moderate => "moderate",
            AllocClass::High => "high",
        })
    }
}

/// Buckets a bytes-per-op figure into its [`AllocClass`].
pub fn classify_alloc(bytes_per_op: f64) -> AllocClass {
    if bytes_per_op <= 0.0 {
        AllocClass::Negligible
    } else if bytes_per_op < 8.0 {
        AllocClass::Low
    } else if bytes_per_op < 48.0 {
        AllocClass::Moderate
    } else {
        AllocClass::High
    }
}

/// One anchored site's static-vs-measured allocation comparison.
#[derive(Debug, Clone)]
pub struct AllocDrift {
    /// The runtime site name.
    pub runtime_name: String,
    /// The anchored static fingerprint.
    pub fingerprint: String,
    /// The advisor's predicted `alloc_bytes_per_op` for the declared kind.
    pub predicted_bytes_per_op: f64,
    /// The manifest's measured `alloc_bytes_per_op`.
    pub measured_bytes_per_op: f64,
    /// Class of the prediction.
    pub predicted_class: AllocClass,
    /// Class of the measurement.
    pub measured_class: AllocClass,
    /// The classes agree.
    pub agree: bool,
}

/// The outcome of one drift comparison.
#[derive(Debug, Clone, Default)]
pub struct DriftReport {
    /// `(runtime name, static fingerprint)` pairs that anchored.
    pub matched: Vec<(String, String)>,
    /// Runtime sites with engine-minted anonymous names (warning).
    pub anonymous: Vec<String>,
    /// Named runtime sites with no static counterpart (failure).
    pub unanchored: Vec<String>,
    /// Static context/runtime sites that never registered (informational).
    pub unexercised: Vec<String>,
    /// Static-vs-measured allocation-class comparisons for anchored sites
    /// where both sides exist (advice carried a prediction, the manifest
    /// measured nonzero traffic). Disagreement is a warning, not a
    /// failure: synthetic profiles are fictions and the class check is a
    /// smoke alarm, not a gate.
    pub alloc_drift: Vec<AllocDrift>,
}

impl DriftReport {
    /// The check's pass criterion: every *named* runtime site is anchored
    /// to a static site (static manifest ⊇ named runtime sites).
    pub fn passes(&self) -> bool {
        self.unanchored.is_empty()
    }

    /// Multi-line human rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "drift: {} anchored, {} anonymous, {} unanchored, {} unexercised — {}\n",
            self.matched.len(),
            self.anonymous.len(),
            self.unanchored.len(),
            self.unexercised.len(),
            if self.passes() { "PASS" } else { "FAIL" }
        ));
        for (name, fp) in &self.matched {
            out.push_str(&format!("  anchored   {name} -> {fp}\n"));
        }
        for name in &self.anonymous {
            out.push_str(&format!(
                "  anonymous  {name} (engine-minted name; no source identity)\n"
            ));
        }
        for name in &self.unanchored {
            out.push_str(&format!(
                "  UNANCHORED {name} (no static site declares this name)\n"
            ));
        }
        for fp in &self.unexercised {
            out.push_str(&format!(
                "  unexercised {fp} (static site never registered)\n"
            ));
        }
        for d in &self.alloc_drift {
            let verdict = if d.agree {
                "alloc-ok   "
            } else {
                "ALLOC-DRIFT"
            };
            out.push_str(&format!(
                "  {verdict} {name} predicted {p:.1} B/op ({pc}) vs measured {m:.1} B/op ({mc})\n",
                name = d.runtime_name,
                p = d.predicted_bytes_per_op,
                pc = d.predicted_class,
                m = d.measured_bytes_per_op,
                mc = d.measured_class,
            ));
        }
        out
    }
}

/// Is `name` one of the engine/runtime auto-generated site names?
/// (`list-site-N` / `set-site-N` / `map-site-N` from the engine, which
/// names the concurrent runtime's anonymous sites too; `clist-N` /
/// `cset-N` / `cmap-N` in manifests dumped by older runtime builds.)
pub fn is_auto_generated_name(name: &str) -> bool {
    let numeric_suffix = |prefix: &str| {
        name.strip_prefix(prefix)
            .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
    };
    numeric_suffix("list-site-")
        || numeric_suffix("set-site-")
        || numeric_suffix("map-site-")
        || numeric_suffix("clist-")
        || numeric_suffix("cset-")
        || numeric_suffix("cmap-")
}

/// Compares the static site list against a runtime manifest.
pub fn check_drift(static_sites: &[StaticSite], runtime: &[SiteManifestEntry]) -> DriftReport {
    let mut report = DriftReport::default();
    let mut anchored_fingerprints: Vec<String> = Vec::new();

    for entry in runtime {
        let hit = static_sites.iter().find(|s| {
            s.declared_name.as_deref() == Some(entry.name.as_str())
                || s.fingerprint() == entry.name
                || s.location() == entry.name
        });
        match hit {
            Some(site) => {
                anchored_fingerprints.push(site.fingerprint());
                report
                    .matched
                    .push((entry.name.clone(), site.fingerprint()));
            }
            None if is_auto_generated_name(&entry.name) => {
                report.anonymous.push(entry.name.clone());
            }
            None => report.unanchored.push(entry.name.clone()),
        }
    }

    // Reverse direction: static sites that *would* register (context or
    // runtime category) but did not show up in the manifest.
    for site in static_sites {
        if matches!(site.category, SiteCategory::Context | SiteCategory::Runtime)
            && !anchored_fingerprints.contains(&site.fingerprint())
        {
            report.unexercised.push(site.fingerprint());
        }
    }
    report
}

/// Compares *advised* static sites against a runtime manifest: the same
/// anchoring as [`check_drift`], plus — for every anchored pair where the
/// advisor predicted an allocation rate and the manifest measured nonzero
/// traffic — a static-vs-measured [`AllocClass`] comparison. The pass
/// criterion is unchanged (unanchored named sites fail); class drift is a
/// warning surfaced in the report and render.
pub fn check_drift_with_advice(
    advice: &[SiteAdvice],
    runtime: &[SiteManifestEntry],
) -> DriftReport {
    let static_sites: Vec<StaticSite> = advice.iter().map(|a| a.site.clone()).collect();
    let mut report = check_drift(&static_sites, runtime);
    for (runtime_name, fingerprint) in report.matched.clone() {
        let Some(advised) = advice.iter().find(|a| a.site.fingerprint() == fingerprint) else {
            continue;
        };
        let Some(predicted) = advised.predicted_alloc_bytes_per_op else {
            continue;
        };
        let Some(entry) = runtime.iter().find(|e| e.name == runtime_name) else {
            continue;
        };
        if entry.alloc_bytes_per_op <= 0.0 {
            // Nothing measured: no allocator instrumentation, or the site
            // genuinely never allocated. Either way there is no evidence to
            // compare against.
            continue;
        }
        let predicted_class = classify_alloc(predicted);
        let measured_class = classify_alloc(entry.alloc_bytes_per_op);
        report.alloc_drift.push(AllocDrift {
            runtime_name,
            fingerprint,
            predicted_bytes_per_op: predicted,
            measured_bytes_per_op: entry.alloc_bytes_per_op,
            predicted_class,
            measured_class,
            agree: predicted_class == measured_class,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractOptions};
    use cs_collections::Abstraction;

    fn entry(name: &str, abstraction: Abstraction) -> SiteManifestEntry {
        SiteManifestEntry {
            id: 1,
            name: name.to_owned(),
            abstraction,
            default_kind: "array".to_owned(),
            current_kind: "array".to_owned(),
            alloc_bytes_per_op: 0.0,
        }
    }

    fn entry_with_alloc(
        name: &str,
        abstraction: Abstraction,
        alloc_bytes_per_op: f64,
    ) -> SiteManifestEntry {
        SiteManifestEntry {
            alloc_bytes_per_op,
            ..entry(name, abstraction)
        }
    }

    fn static_sites() -> Vec<StaticSite> {
        let src = r#"
fn wire(engine: &Switch) {
    let a = engine.named_list_context::<i64>(ListKind::Array, "index-cursor");
    let b = engine.set_context::<u64>(SetKind::Chained);
}
"#;
        extract("src/wire.rs", src, ExtractOptions::default()).sites
    }

    #[test]
    fn declared_names_anchor() {
        let report = check_drift(&static_sites(), &[entry("index-cursor", Abstraction::List)]);
        assert!(report.passes());
        assert_eq!(report.matched.len(), 1);
        assert_eq!(report.matched[0].0, "index-cursor");
        // The anonymous static context never registered: unexercised.
        assert_eq!(report.unexercised, vec!["src/wire.rs::wire#1"]);
    }

    #[test]
    fn fingerprints_and_locations_anchor_too() {
        let sites = static_sites();
        let by_fp = check_drift(&sites, &[entry("src/wire.rs::wire#1", Abstraction::Set)]);
        assert!(by_fp.passes());
        assert_eq!(by_fp.matched.len(), 1);

        let by_loc = check_drift(&sites, &[entry("src/wire.rs:4", Abstraction::Set)]);
        assert!(by_loc.passes());
        assert_eq!(by_loc.matched.len(), 1);
    }

    #[test]
    fn auto_generated_names_warn_but_pass() {
        let report = check_drift(
            &static_sites(),
            &[
                entry("set-site-7", Abstraction::Set),
                entry("cmap-0", Abstraction::Map),
            ],
        );
        assert!(report.passes());
        assert_eq!(report.anonymous.len(), 2);
    }

    #[test]
    fn unanchored_named_sites_fail() {
        let report = check_drift(&static_sites(), &[entry("ghost-cache", Abstraction::Map)]);
        assert!(!report.passes());
        assert_eq!(report.unanchored, vec!["ghost-cache"]);
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn alloc_classes_bucket_on_stable_boundaries() {
        assert_eq!(classify_alloc(0.0), AllocClass::Negligible);
        assert_eq!(classify_alloc(-1.0), AllocClass::Negligible);
        assert_eq!(classify_alloc(0.5), AllocClass::Low);
        assert_eq!(classify_alloc(8.0), AllocClass::Moderate);
        assert_eq!(classify_alloc(47.9), AllocClass::Moderate);
        assert_eq!(classify_alloc(48.0), AllocClass::High);
    }

    fn advised_sites() -> Vec<SiteAdvice> {
        use crate::advise::{advise_file, AdviseOptions};
        use crate::extract::{extract, ExtractOptions};
        let src = r#"
fn ingest(engine: &Switch, xs: &[u64]) {
    let log = engine.named_list_context::<u64>(ListKind::Array, "hot-log");
    for x in xs {
        log.push(*x);
    }
}
"#;
        let analysis = extract("src/ingest.rs", src, ExtractOptions::default());
        advise_file(&analysis, AdviseOptions::default())
    }

    #[test]
    fn alloc_classes_cross_check_when_both_sides_measured() {
        let advice = advised_sites();
        let predicted = advice[0]
            .predicted_alloc_bytes_per_op
            .expect("push-heavy array list predicts an alloc rate");
        // Measured in the same class as predicted: agreement.
        let same = check_drift_with_advice(
            &advice,
            &[entry_with_alloc("hot-log", Abstraction::List, predicted)],
        );
        assert!(same.passes());
        assert_eq!(same.alloc_drift.len(), 1);
        assert!(same.alloc_drift[0].agree);
        assert!(same.render().contains("alloc-ok"));

        // Measured far outside the predicted class: drift, but still a
        // warning — the anchoring pass criterion is unchanged.
        let off = check_drift_with_advice(
            &advice,
            &[entry_with_alloc("hot-log", Abstraction::List, 4096.0)],
        );
        assert!(off.passes());
        assert_eq!(off.alloc_drift.len(), 1);
        assert!(!off.alloc_drift[0].agree);
        assert_eq!(off.alloc_drift[0].measured_class, AllocClass::High);
        assert!(off.render().contains("ALLOC-DRIFT"));
    }

    #[test]
    fn unmeasured_sites_skip_the_alloc_comparison() {
        let advice = advised_sites();
        let report = check_drift_with_advice(&advice, &[entry("hot-log", Abstraction::List)]);
        assert!(report.passes());
        assert_eq!(report.matched.len(), 1);
        assert!(report.alloc_drift.is_empty());
    }

    #[test]
    fn auto_name_detection_is_strict() {
        assert!(is_auto_generated_name("list-site-12"));
        assert!(is_auto_generated_name("cmap-0"));
        assert!(!is_auto_generated_name("list-site-"));
        assert!(!is_auto_generated_name("list-site-x"));
        assert!(!is_auto_generated_name("session-cache"));
    }
}
