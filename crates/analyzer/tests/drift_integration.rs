//! End-to-end drift check against live engines: the static extractor scans
//! this test file, a `Switch` plus a `cs_runtime::Runtime` register the
//! same sites, and `check_drift` must anchor every named runtime site back
//! to source. This is the in-process version of
//! `cargo run -p cs-analyzer -- drift <tree> --manifest <dump>`.

use cs_analyzer::{check_drift, extract, runtime_manifest_to_json, ExtractOptions};
use cs_collections::{ListKind, MapKind, SetKind};
use cs_core::Switch;
use cs_runtime::Runtime;
use cs_telemetry::Json;

const LABEL: &str = "crates/analyzer/tests/drift_integration.rs";

fn own_source() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/drift_integration.rs");
    std::fs::read_to_string(path).expect("own source readable")
}

/// Registers every context this file's static scan must account for.
fn wire(engine: &Switch, rt: &Runtime) {
    let cursor = engine.named_list_context::<i64>(ListKind::Array, "drift-int:list");
    let lookup = engine.named_map_context::<u64, u64>(MapKind::Chained, "drift-int:map");
    let scratch = engine.set_context::<u64>(SetKind::Chained);
    let cache = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "drift-int:cache");
    let seen = rt.concurrent_set::<u64>(SetKind::Chained);

    let mut list = cursor.create_list();
    list.push(1);
    let mut map = lookup.create_map();
    map.insert(1, 1);
    let mut set = scratch.create_set();
    set.insert(1);
    cache.insert(1, 1);
    seen.insert(1);
}

#[test]
fn engine_manifest_anchors_to_static_sites() {
    let analysis = extract(LABEL, &own_source(), ExtractOptions::default());

    let engine = Switch::builder().build();
    let rt = Runtime::new(engine.clone());
    wire(&engine, &rt);

    // The engine manifest sees everything: runtime concurrent sites
    // register engine contexts underneath.
    let manifest = engine.site_manifest();
    assert_eq!(manifest.len(), 5);

    let report = check_drift(&analysis.sites, &manifest);
    assert!(report.passes(), "{}", report.render());
    let anchored: Vec<&str> = report.matched.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        anchored,
        vec!["drift-int:list", "drift-int:map", "drift-int:cache"],
        "{}",
        report.render()
    );
    // The two anonymous contexts carry engine/runtime-minted names.
    assert_eq!(report.anonymous.len(), 2, "{}", report.render());
    // Reverse direction: those same two static sites never matched, so the
    // report calls them out as unexercised rather than silently dropping
    // them.
    assert_eq!(report.unexercised.len(), 2, "{}", report.render());
}

#[test]
fn runtime_manifest_round_trips_through_json() {
    let engine = Switch::builder().build();
    let rt = Runtime::new(engine.clone());
    wire(&engine, &rt);

    // Dump the runtime-side manifest the way a host binary would for the
    // CLI's `drift --manifest` flag, then re-read it.
    let doc = runtime_manifest_to_json(&rt.site_manifest()).render_pretty();
    let parsed = Json::parse(&doc).expect("manifest dump parses");
    assert_eq!(
        parsed.get("kind").and_then(Json::as_str),
        Some("runtime-manifest")
    );
    let sites = parsed
        .get("sites")
        .and_then(Json::as_array)
        .expect("sites array");
    assert_eq!(
        sites.len(),
        2,
        "runtime registry holds only concurrent sites"
    );
    let names: Vec<&str> = sites
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"drift-int:cache"), "{names:?}");

    // The parsed rows still anchor against the static scan.
    let analysis = extract(LABEL, &own_source(), ExtractOptions::default());
    let report = check_drift(&analysis.sites, &rt.site_manifest());
    assert!(report.passes(), "{}", report.render());
    assert_eq!(report.matched.len(), 1, "{}", report.render());
    assert_eq!(report.matched[0].0, "drift-int:cache");
}
