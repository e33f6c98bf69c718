//! Acceptance test: the escape analysis over `crates/runtime` — real
//! concurrent code, not synthetic fixtures — must flag the known
//! concurrent sites and stay silent everywhere honesty requires it.
//!
//! Two properties are pinned:
//!
//! 1. The sharded map/set internals (`Arc<Mutex<AnyMap>>` shards) and the
//!    spawn-heavy integration tests carry concurrent escape facts.
//! 2. Zero race-shaped findings on library sources: nothing under
//!    `crates/*/src` is `shared_without_sync`, so the dataflow-fed lint
//!    has no false positives to report there.

use std::fs;
use std::path::{Path, PathBuf};

use cs_analyzer::{extract, ExtractOptions, SiteCategory, SiteFacts, StaticSite};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("analyzer crate sits two levels under the repo root")
        .to_path_buf()
}

/// Extracts and dataflow-analyzes every Rust file under `rel`, with
/// repo-relative labels exactly as the CLI mints them.
fn analyze_tree(rel: &str) -> Vec<(StaticSite, SiteFacts)> {
    let repo = repo_root();
    let root = repo.join(rel);
    let mut out = Vec::new();
    for file in cs_analyzer::collect_rust_files(&root).expect("tree readable") {
        let src = fs::read_to_string(&file).expect("source readable");
        let label = file
            .strip_prefix(&repo)
            .expect("under repo root")
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let analysis = extract(&label, &src, ExtractOptions::default());
        out.extend(analysis.sites.into_iter().zip(analysis.flows));
    }
    out
}

#[test]
fn runtime_concurrent_sites_carry_escape_facts() {
    let per_site = analyze_tree("crates/runtime");

    // The sharded internals: collection shards born inside Mutex::new(..)
    // inside an Arc'd inner struct. Both the map and the set tier must
    // show the synchronized concurrent escape.
    let sharded: Vec<_> = per_site
        .iter()
        .filter(|(site, facts)| {
            site.path.starts_with("crates/runtime/src/")
                && facts.escape.arc
                && facts.escape.mutex
                && facts.escape.escapes_concurrently()
        })
        .collect();
    assert!(
        sharded.len() >= 2,
        "expected the map and set shard sites to escape via Arc+Mutex: {:?}",
        sharded
            .iter()
            .map(|(s, _)| s.fingerprint())
            .collect::<Vec<_>>()
    );
    assert!(
        sharded
            .iter()
            .any(|(s, _)| s.path == "crates/runtime/src/map.rs"),
        "map shards missing"
    );
    assert!(
        sharded
            .iter()
            .any(|(s, _)| s.path == "crates/runtime/src/set.rs"),
        "set shards missing"
    );

    // The integration tests hand runtime handles to spawned workers; the
    // spawn fact must land on those sites (internally synchronized
    // handles, hence category Runtime — which is exactly why the
    // shared-without-sync lint exempts that category).
    let spawned: Vec<_> = per_site
        .iter()
        .filter(|(site, facts)| {
            site.path.starts_with("crates/runtime/tests/") && facts.escape.spawn
        })
        .collect();
    assert!(
        spawned.len() >= 2,
        "expected spawn escapes in the runtime integration tests: {:?}",
        spawned
            .iter()
            .map(|(s, _)| s.fingerprint())
            .collect::<Vec<_>>()
    );
    assert!(
        spawned
            .iter()
            .all(|(s, _)| s.category == SiteCategory::Runtime),
        "spawned sites in the runtime tests should be runtime handles"
    );
}

#[test]
fn library_sources_have_zero_race_shaped_findings() {
    // Every src tree in the workspace: nothing may look race-shaped —
    // library collections either stay thread-local or ship behind
    // Arc/Mutex, and a finding here would be a false positive by
    // construction (these crates all pass tier-1 concurrency tests).
    for rel in [
        "crates/runtime/src",
        "crates/core/src",
        "crates/collections/src",
        "crates/analyzer/src",
        "crates/workloads/src",
    ] {
        for (site, facts) in analyze_tree(rel) {
            assert!(
                !facts.escape.shared_without_sync(),
                "false positive: {} reads as shared-without-sync",
                site.fingerprint()
            );
        }
    }
}
