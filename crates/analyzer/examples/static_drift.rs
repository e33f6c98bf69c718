//! Self-validating drift check: extract the allocation sites of *this
//! file*, wire the same sites into a live engine, and compare the static
//! manifest against [`cs_core::Switch::site_manifest`] — including the
//! static-vs-measured allocation-class cross-check.
//!
//! Run with `cargo run -p cs-analyzer --example static_drift`. Exits
//! non-zero if the drift check fails, so it doubles as an acceptance test:
//! the static manifest must cover every named runtime site, and the
//! advisor's predicted allocation class must be compared against at least
//! one runtime-measured `alloc_bytes_per_op` (the end-to-end path the
//! `alloc_drift` report section exists for).

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use cs_analyzer::{
    advise_file, check_drift_with_advice, drift_to_json, extract, AdviseOptions, ExtractOptions,
};
use std::time::Duration;

use cs_collections::{ListKind, MapKind, SetKind};
use cs_core::Switch;
use cs_heap::CountingAlloc;
use cs_profile::WindowConfig;

/// Opt-in heap observability: without the counting allocator the engine's
/// per-op attribution ledger reads zero, every manifest row reports
/// `alloc_bytes_per_op: 0.0`, and the alloc-class comparison has nothing
/// to measure against.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Creates the runtime contexts this file's static scan must account for:
/// two named sites (anchored by their `named_*` literals) and one
/// anonymous site (engine-minted name; reported, never a failure).
fn wire_contexts(engine: &Switch) {
    let cursor = engine.named_list_context::<i64>(ListKind::Array, "drift-demo:list");
    let table = engine.named_map_context::<u64, u64>(MapKind::Chained, "drift-demo:map");
    let scratch = engine.set_context::<u64>(SetKind::Chained);

    // Exercise each site with enough finished instances to complete a
    // monitoring window, so the attributed allocation bytes the handles
    // record land in each site's workload history when the analysis pass
    // drains the sink — the measured side of the alloc-class check.
    for _ in 0..8 {
        let mut list = cursor.create_list();
        let mut map = table.create_map();
        let mut set = scratch.create_set();
        for i in 0..64_i64 {
            list.push(i);
            map.insert(i as u64, i as u64);
            set.insert(i as u64);
        }
    }
}

fn main() -> ExitCode {
    // Static side: scan this very file, labelled with its workspace path so
    // fingerprints look exactly like `cs-analyzer scan crates/analyzer`
    // output. The dataflow pass aliases the `create_*` handles back to
    // their context sites, which is what gives the advisor the usage
    // evidence behind `predicted_alloc_bytes_per_op`.
    let label = "crates/analyzer/examples/static_drift.rs";
    let source_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/static_drift.rs");
    let src = fs::read_to_string(&source_path).expect("own source readable");
    let analysis = extract(label, &src, ExtractOptions::default());
    let advice = advise_file(&analysis, AdviseOptions::default());

    // Dynamic side: a live engine with the contexts declared above. The
    // monitored handles flush on drop inside `wire_contexts`; the analysis
    // pass then folds those profiles into each site's history, where the
    // manifest's `alloc_bytes_per_op` is read from.
    let engine = Switch::builder()
        .window(WindowConfig {
            window_size: 4,
            finished_ratio: 1.0,
            monitoring_rate: Duration::from_millis(0),
            min_samples: 1,
            history_decay: 0.5,
        })
        .build();
    wire_contexts(&engine);
    engine.analyze_now();

    let report = check_drift_with_advice(&advice, &engine.site_manifest());
    print!("{}", report.render());
    println!("{}", drift_to_json(&report).render_pretty());

    let anchored_both = report.matched.len() == 2 && report.anonymous.len() == 1;
    if !report.passes() || !anchored_both {
        eprintln!("static manifest does not cover the runtime sites");
        return ExitCode::FAILURE;
    }
    // The end-to-end alloc cross-check: at least one anchored site must
    // have both a static prediction and a nonzero runtime measurement.
    if report.alloc_drift.is_empty() {
        eprintln!("no site carried both a predicted and a measured alloc rate");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
