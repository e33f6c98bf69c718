//! # cs-analyzer
//!
//! The *static* half of CollectionSwitch: a dependency-free analysis pass
//! over Rust source that mirrors, offline, what the engine does online.
//! Where the dynamic engine observes real operation counts at instrumented
//! allocation sites and switches variants under guardrails, this crate
//! recovers the same decision inputs from source text alone — the approach
//! of the paper's static competitors (Darwinian Data Structure Selection,
//! Repr Types), built on the same calibrated cost models so the two halves
//! are comparable:
//!
//! * [`lexer`] — a hand-rolled Rust lexer (raw strings, turbofish,
//!   lifetimes vs char literals, nested block comments). No `syn`: the
//!   workspace's no-external-deps constraint is load-bearing.
//! * [`mod@extract`] — allocation-site extraction with stable fingerprints
//!   (`path::item#ordinal`) plus per-binding usage facts, and the
//!   [`dataflow`] pass's escape, capacity and clone facts per site.
//! * [`usage`] / [`advise`] — synthetic workload reconstruction and the
//!   Perflint-style variant advisor over [`cs_model`]'s cost models.
//! * [`drift`] — cross-checks the static site list against
//!   [`cs_core::Switch::site_manifest`], catching sites that exist in only
//!   one of the two worlds.
//! * [`lint`] — workspace self-lint rules (no panics on engine hot paths,
//!   no sink dispatch under a lock, no unbounded rings, no allocation on
//!   the tracer's and the heap counter's fast paths, no raw persistence
//!   writes, no blocking I/O on the obs sampler, no bare cross-thread
//!   sharing) diffed against a committed baseline in CI.
//!
//! Every command lexes each file once. Extraction, the dataflow pass and
//! the self-lint walk that token vector with one shared scope walker, so
//! they agree on enclosing items, loop nesting and what is test code: an
//! item under `#[cfg(test)]` or `#[cfg(any(test, …))]` (an `impl` block
//! too) is skipped whole; `#[cfg(not(test))]` code is production code.
//!
//! ## Quickstart
//!
//! ```
//! use cs_analyzer::{advise_file, extract, AdviseOptions, ExtractOptions};
//!
//! let src = r#"
//! fn dedup(xs: &[u64]) -> usize {
//!     let mut seen = Vec::with_capacity(512);
//!     for x in xs {
//!         if seen.contains(x) { continue; }
//!         seen.push(*x);
//!     }
//!     seen.len()
//! }
//! "#;
//! let analysis = extract("src/dedup.rs", src, ExtractOptions::default());
//! let advice = advise_file(&analysis, AdviseOptions::default());
//! let rec = advice[0].recommendation.as_ref().expect("hash-backed list wins");
//! assert_eq!(rec.kind, "hasharray");
//! println!("{}", advice[0].render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod advise;
pub mod dataflow;
pub mod drift;
pub mod extract;
pub mod lexer;
pub mod lint;
pub mod report;
pub mod usage;
mod walk;

pub use advise::{advise_file, AdviseOptions, DimensionCost, Recommendation, SiteAdvice};
pub use dataflow::{CapacityBound, CapacityFacts, CloneFacts, EscapeFacts, SiteFacts};
pub use drift::{
    check_drift, check_drift_with_advice, classify_alloc, is_auto_generated_name, AllocClass,
    AllocDrift, DriftReport,
};
pub use extract::{
    extract, DeclaredVariant, ExtractOptions, FileAnalysis, MethodFact, SiteCategory, StaticSite,
};
pub use lexer::{lex, Token, TokenKind};
pub use lint::{
    diff_against_baseline, lint_file, Diagnostic, RULE_NO_ALLOC_SPAN_PATH,
    RULE_NO_DISPATCH_UNDER_LOCK, RULE_NO_RAW_PERSIST_WRITE, RULE_NO_UNBOUNDED_RING, RULE_NO_UNWRAP,
    RULE_SHARED_WITHOUT_SYNC,
};
pub use report::{
    advice_report_to_json, advice_to_json, baseline_keys, baseline_to_json, diagnostic_to_json,
    drift_to_json, facts_to_json, manifest_to_json, runtime_manifest_to_json, site_to_json,
    SCHEMA_VERSION,
};
pub use usage::{classify_method, summarize, UsageSummary, DEFAULT_MAX_SIZE, LOOP_WEIGHT};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into during a tree scan.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// Recursively collects the `.rs` files under `root`, sorted by path so
/// every report is deterministic. `root` may also be a single file.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    if root.is_file() {
        files.push(root.to_path_buf());
        return Ok(files);
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    walk(&path, files)?;
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
        Ok(())
    }
    walk(root, &mut files)?;
    files.sort();
    Ok(files)
}

/// The forward-slash label stamped on every site of `path`: the fingerprint
/// prefix. The path is kept as given (run the scan from the workspace root
/// with a relative target, e.g. `crates/workloads`, for workspace-relative
/// fingerprints) — only the separators are normalized.
pub fn site_label(path: &Path) -> String {
    path.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scans every Rust file under `root`: extraction only, no advice.
/// Returns `(label, analysis)` pairs in deterministic path order.
pub fn scan_tree(root: &Path, opts: ExtractOptions) -> io::Result<Vec<(String, FileAnalysis)>> {
    let mut out = Vec::new();
    for file in collect_rust_files(root)? {
        let src = fs::read_to_string(&file)?;
        let label = site_label(&file);
        out.push((label.clone(), extract(&label, &src, opts)));
    }
    Ok(out)
}

/// Scans, dataflow-analyzes, and advises every Rust file under `root`.
pub fn advise_tree(
    root: &Path,
    extract_opts: ExtractOptions,
    advise_opts: AdviseOptions,
) -> io::Result<Vec<SiteAdvice>> {
    let mut out = Vec::new();
    for file in collect_rust_files(root)? {
        let src = fs::read_to_string(&file)?;
        let label = site_label(&file);
        let analysis = extract(&label, &src, extract_opts);
        out.extend(advise_file(&analysis, advise_opts));
    }
    Ok(out)
}

/// Lints every Rust file under `root` with the workspace self-lint rules.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for file in collect_rust_files(root)? {
        let src = fs::read_to_string(&file)?;
        out.extend(lint_file(&site_label(&file), &src));
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_label_normalizes_separators() {
        let file = Path::new("crates/workloads").join("src").join("runner.rs");
        assert_eq!(site_label(&file), "crates/workloads/src/runner.rs");
    }
}
