//! Golden-file tests over the dataflow corpus: each fixture under
//! `tests/corpus/` runs through [`extract`] and the per-site dataflow facts
//! serialize to a committed `.facts.json` document. Regenerate with
//! `UPDATE_GOLDEN=1` after an intentional dataflow change.
//!
//! The direct assertions below pin the facts each fixture exists to
//! demonstrate — escape-through-closure, clone-in-loop, and known-length
//! capacity bounds — so a golden regeneration cannot silently launder a
//! regression through `UPDATE_GOLDEN=1`.

use std::fs;
use std::path::PathBuf;

use cs_analyzer::{extract, facts_to_json, CapacityBound, ExtractOptions, SiteFacts, StaticSite};
use cs_telemetry::Json;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn analyze_fixture(name: &str) -> Vec<(StaticSite, SiteFacts)> {
    let src = fs::read_to_string(corpus_dir().join(name)).expect("fixture readable");
    let label = format!("corpus/{name}");
    let analysis = extract(&label, &src, ExtractOptions::default());
    assert_eq!(
        analysis.sites.len(),
        analysis.flows.len(),
        "facts parallel the sites"
    );
    analysis.sites.into_iter().zip(analysis.flows).collect()
}

fn assert_matches_golden(name: &str, per_site: &[(StaticSite, SiteFacts)]) {
    let rows: Vec<Json> = per_site
        .iter()
        .map(|(site, facts)| {
            facts_to_json(facts)
                .field("fingerprint", site.fingerprint())
                .field("binding", site.binding.clone())
        })
        .collect();
    let doc = Json::object()
        .field("kind", "dataflow-facts")
        .field("fixture", name)
        .field("sites", Json::Array(rows))
        .render_pretty();
    let golden = corpus_dir().join(format!("{}.facts.json", name.trim_end_matches(".rs")));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&golden, &doc).expect("golden writable");
        return;
    }
    let expected = fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            golden.display()
        )
    });
    assert_eq!(
        doc, expected,
        "dataflow drift on {name}; rerun with UPDATE_GOLDEN=1 if intended"
    );
}

fn facts_for<'a>(per_site: &'a [(StaticSite, SiteFacts)], binding: &str) -> &'a SiteFacts {
    &per_site
        .iter()
        .find(|(site, _)| site.binding.as_deref() == Some(binding))
        .unwrap_or_else(|| panic!("no site bound to `{binding}`"))
        .1
}

#[test]
fn escape_through_closure_separates_the_three_sharing_shapes() {
    let per_site = analyze_fixture("escape_closure.rs");
    assert_matches_golden("escape_closure.rs", &per_site);

    // Sanctioned: wrapped in Arc<Mutex<..>> before the spawn.
    let queue = facts_for(&per_site, "queue");
    assert!(queue.escape.spawn && queue.escape.arc && queue.escape.mutex);
    assert!(queue.escape.escapes_concurrently());
    assert!(!queue.escape.shared_without_sync());

    // Race-shaped: bare capture, used by the parent afterwards.
    let staging = facts_for(&per_site, "staging");
    assert!(staging.escape.spawn && !staging.escape.arc && !staging.escape.mutex);
    assert!(staging.escape.used_after_spawn);
    assert!(staging.escape.shared_without_sync());

    // Thread-local: born inside the closure body, no escape at all.
    let scratch = facts_for(&per_site, "scratch");
    assert!(!scratch.escape.escapes_concurrently(), "{scratch:#?}");
    assert!(!scratch.escape.shared_without_sync());
}

#[test]
fn clone_pressure_marks_persistent_candidates() {
    let per_site = analyze_fixture("clone_in_loop.rs");
    assert_matches_golden("clone_in_loop.rs", &per_site);

    let journal = facts_for(&per_site, "journal");
    assert!(journal.clones.in_loop);
    assert!(journal.persistent_candidate());

    let index = facts_for(&per_site, "index");
    assert!(!index.clones.in_loop);
    assert!(index.clones.max_live_versions >= 3, "{index:#?}");
    assert!(index.persistent_candidate());

    let seed = facts_for(&per_site, "seed");
    assert_eq!(seed.clones.count, 1);
    assert!(!seed.persistent_candidate(), "{seed:#?}");
}

#[test]
fn known_length_chains_bound_capacity() {
    let per_site = analyze_fixture("known_len_collect.rs");
    assert_matches_golden("known_len_collect.rs", &per_site);

    let squares = facts_for(&per_site, "squares");
    assert_eq!(squares.capacity.exact(), Some(32), "{squares:#?}");
    assert!(squares.escape.returned, "the collected vec is returned");

    let mirror = facts_for(&per_site, "mirror");
    assert_eq!(
        mirror.capacity.bound,
        Some(CapacityBound::LenOf("xs".to_owned()))
    );

    let grid = facts_for(&per_site, "grid");
    assert_eq!(grid.capacity.exact(), Some(128), "8 × 16 literal trips");
    assert_eq!(grid.capacity.bounded_pushes, 128);
}
