//! Golden-file tests over the lexer-hardening corpus: each fixture under
//! `tests/corpus/` extracts to a committed `.sites.json` manifest. Run with
//! `UPDATE_GOLDEN=1` to regenerate after an intentional extractor change.

use std::fs;
use std::path::PathBuf;

use cs_analyzer::{extract, lex, manifest_to_json, ExtractOptions, StaticSite, TokenKind};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn extract_fixture(name: &str) -> (String, Vec<StaticSite>) {
    let src = fs::read_to_string(corpus_dir().join(name)).expect("fixture readable");
    let label = format!("corpus/{name}");
    let analysis = extract(&label, &src, ExtractOptions::default());
    (src, analysis.sites)
}

fn assert_matches_golden(name: &str, sites: &[StaticSite]) {
    let doc = manifest_to_json("corpus", sites).render_pretty();
    let golden = corpus_dir().join(format!("{}.sites.json", name.trim_end_matches(".rs")));
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
        "extraction drift on {name}; rerun with UPDATE_GOLDEN=1 if intended"
    );
}

/// Every reported site must point at a source line that actually spells the
/// constructor — the zero-false-positive property of the fingerprints.
fn assert_sites_anchor_to_source(src: &str, sites: &[StaticSite]) {
    let lines: Vec<&str> = src.lines().collect();
    for site in sites {
        let line = lines
            .get(site.line as usize - 1)
            .unwrap_or_else(|| panic!("{} points past EOF", site.fingerprint()));
        let head = site
            .constructor
            .split("::")
            .next()
            .expect("constructor nonempty");
        assert!(
            line.contains(head),
            "{} claims `{}` but line {} is: {line}",
            site.fingerprint(),
            site.constructor,
            site.line
        );
    }
}

#[test]
fn tricky_tokens_extracts_only_real_sites() {
    let (src, sites) = extract_fixture("tricky_tokens.rs");
    assert_sites_anchor_to_source(&src, &sites);
    assert_matches_golden("tricky_tokens.rs", &sites);

    // 5 real sites; every decoy inside strings/comments is ignored.
    assert_eq!(sites.len(), 5, "{sites:#?}");
    assert_eq!(
        sites[0].fingerprint(),
        "corpus/tricky_tokens.rs::raw_strings#0"
    );
    assert_eq!(
        sites
            .iter()
            .filter(|s| s.item == "generics_and_turbofish")
            .count(),
        2
    );
    let chars_site = sites
        .iter()
        .find(|s| s.item == "lifetimes_and_chars")
        .unwrap();
    assert_eq!(chars_site.capacity_hint, Some(3));
    assert_eq!(chars_site.binding.as_deref(), Some("chars"));
    assert!(sites.iter().all(|s| !s.in_test));
}

#[test]
fn cfg_test_items_are_excluded() {
    let (src, sites) = extract_fixture("cfg_test_items.rs");
    assert_sites_anchor_to_source(&src, &sites);
    assert_matches_golden("cfg_test_items.rs", &sites);

    assert_eq!(sites.len(), 2, "{sites:#?}");
    assert!(sites
        .iter()
        .all(|s| s.item == "production" || s.item == "also_production"));
    let cap = sites.iter().find(|s| s.item == "also_production").unwrap();
    assert_eq!(cap.constructor, "HashMap::with_capacity");
    assert_eq!(cap.capacity_hint, Some(4));
}

#[test]
fn context_sites_capture_kinds_and_names() {
    let (src, sites) = extract_fixture("context_sites.rs");
    assert_sites_anchor_to_source(&src, &sites);
    assert_matches_golden("context_sites.rs", &sites);

    assert_eq!(sites.len(), 8, "{sites:#?}");
    let named: Vec<_> = sites
        .iter()
        .filter_map(|s| s.declared_name.as_deref())
        .collect();
    assert_eq!(
        named,
        vec!["IndexCursor:70", "symbol-table", "session-cache"]
    );
    let open = sites
        .iter()
        .find(|s| s.declared_name.as_deref() == Some("symbol-table"))
        .unwrap();
    assert_eq!(open.declared.kind_name().as_deref(), Some("open-eclipse"));
    let linked = sites
        .iter()
        .find(|s| s.constructor == "AnyList::new")
        .unwrap();
    assert_eq!(linked.declared.kind_name().as_deref(), Some("linked"));
}

#[test]
fn lexer_corpus_has_no_stray_tokens() {
    // The lexer must produce only well-formed tokens over every fixture —
    // no panics, and every string/char literal is a single token (so no
    // quote character leaks out as a punct).
    for entry in fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = fs::read_to_string(&path).expect("readable");
        for tok in lex(&src) {
            if tok.kind == TokenKind::Punct {
                assert!(
                    !tok.text.contains('"') && !tok.text.contains('\''),
                    "quote leaked as punct in {}: {tok:?}",
                    path.display()
                );
            }
        }
    }
}
