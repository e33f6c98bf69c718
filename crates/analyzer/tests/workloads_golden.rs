//! Golden-file test of the advisor over `crates/workloads` — the same
//! corpus `cargo run -p cs-analyzer -- advise crates/workloads` covers,
//! with workspace-relative fingerprints. Regenerate with `UPDATE_GOLDEN=1`
//! after an intentional extractor/model change.

use std::fs;
use std::path::{Path, PathBuf};

use cs_analyzer::{
    advice_report_to_json, advise_file, collect_rust_files, extract, AdviseOptions, ExtractOptions,
    SiteAdvice,
};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("analyzer crate sits two levels under the repo root")
        .to_path_buf()
}

/// Advises the workloads crate with fingerprints relative to the repo root,
/// exactly as the CLI produces them when run from the workspace.
fn advise_workloads() -> Vec<(String, String, Vec<SiteAdvice>)> {
    let repo = repo_root();
    let root = repo.join("crates/workloads");
    let mut out = Vec::new();
    for file in collect_rust_files(&root).expect("workloads tree readable") {
        let src = fs::read_to_string(&file).expect("source readable");
        let label = file
            .strip_prefix(&repo)
            .expect("under repo root")
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let analysis = extract(&label, &src, ExtractOptions::default());
        let advice = advise_file(&analysis, AdviseOptions::default());
        out.push((label, src, advice));
    }
    out
}

#[test]
fn advisor_report_matches_golden() {
    let per_file = advise_workloads();
    let advice: Vec<SiteAdvice> = per_file
        .iter()
        .flat_map(|(_, _, a)| a.iter().cloned())
        .collect();
    let doc = advice_report_to_json("crates/workloads", &advice).render_pretty();

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/workloads_advice.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
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
        "advisor drift on crates/workloads; rerun with UPDATE_GOLDEN=1 if intended"
    );
}

#[test]
fn advisor_emits_model_backed_recommendations_with_correct_anchors() {
    let per_file = advise_workloads();
    let mut recommended = Vec::new();
    for (_, src, advice) in &per_file {
        let lines: Vec<&str> = src.lines().collect();
        for a in advice {
            // Zero false-positive sites: every fingerprint must anchor to a
            // source line that spells the constructor.
            let line = lines
                .get(a.site.line as usize - 1)
                .unwrap_or_else(|| panic!("{} points past EOF", a.site.fingerprint()));
            let head = a.site.constructor.split("::").next().unwrap();
            assert!(
                line.contains(head),
                "{} claims `{}` but line {} is: {line}",
                a.site.fingerprint(),
                a.site.constructor,
                a.site.line
            );
            if let Some(rec) = &a.recommendation {
                recommended.push((a.site.fingerprint(), rec.kind.clone(), rec.speedup));
            }
        }
    }

    // The acceptance bar: at least one model-backed recommendation over the
    // corpus, and each is a strict improvement under the cost models.
    assert!(
        !recommended.is_empty(),
        "advisor found no recommendations over crates/workloads"
    );
    assert!(recommended.iter().all(|(_, _, speedup)| *speedup > 1.0));
    assert!(
        recommended.iter().any(|(fp, kind, _)| fp
            == "crates/workloads/examples/advisor_demo.rs::blocked_senders#0"
            && kind == "hasharray"),
        "the membership-filter demo must draw the hasharray recommendation: {recommended:?}"
    );

    // Zero false positives on the library sources themselves: every
    // recommendation points into the demo examples, not into workload
    // plumbing whose Vecs are sequential by construction.
    for (fp, _, _) in &recommended {
        assert!(
            fp.starts_with("crates/workloads/examples/"),
            "unexpected recommendation outside the demo corpus: {fp}"
        );
    }
}
