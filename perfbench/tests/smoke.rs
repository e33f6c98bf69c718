//! Runs every workload in-process at a tiny size, untraced and traced, and
//! holds the output to `BENCHMARK.json` and to the span-nesting rules.

use std::collections::HashMap;
use std::path::Path;

use cs_perfbench::trace::{self_times, to_jsonl};
use cs_perfbench::{run, Params, Report, Workload};
use cs_telemetry::Json;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Report {
    run(&Params {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        tiny: true,
    })
}

fn assert_reports(report: &Report, section: &str, workload: Workload) {
    assert!(report.correct, "{workload:?}: outputs wrong");
    assert_eq!(report.failed, 0, "{workload:?}");
    assert!(report.attempted > 0, "{workload:?}");
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    assert_eq!(got, declared(section), "{workload:?}: {section} metrics");
    for m in &report.metrics {
        assert!(m.summary.median.is_finite(), "{workload:?}: {}", m.name);
    }
}

#[test]
fn benchmark_json_lists_the_workloads() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("parses");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_reports_its_end_to_end_metrics() {
    for w in Workload::ALL {
        let report = tiny(w, false);
        assert_reports(&report, "end_to_end", w);
        for m in &report.metrics {
            assert!(m.summary.median > 0.0, "{w:?}: {} must never be 0", m.name);
        }
        assert!(report.spans.is_empty());
    }
}

#[test]
fn traced_runs_nest_their_spans() {
    for w in Workload::ALL {
        let report = tiny(w, true);
        assert_reports(&report, "per_layer", w);

        let jsonl = to_jsonl(&report.spans);
        let mut by_id = HashMap::new();
        for line in jsonl.lines() {
            let span = Json::parse(line).expect("span line parses");
            let field = |k| span.get(k).and_then(Json::as_u64).expect("numeric field");
            let id = field("id");
            let bounds = (field("parent"), field("start_ns"), field("end_ns"));
            assert!(span.get("layer").and_then(Json::as_str).is_some());
            assert!(span.get("name").and_then(Json::as_str).is_some());
            assert!(span.get("rep").and_then(Json::as_u64).is_some());
            assert!(
                by_id.insert(id, bounds).is_none(),
                "{w:?}: duplicate id {id}"
            );
        }
        let mut layers: Vec<&str> = report.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let expect: &[&str] = match w {
            Workload::ConcurrentMap => &["bench", "collections", "engine", "model", "runtime"],
            _ => &["bench", "collections", "core", "engine", "model"],
        };
        assert_eq!(layers, expect, "{w:?}");

        let self_ns = self_times(&report.spans);
        let mut child_self: HashMap<u64, u64> = HashMap::new();
        for s in &report.spans {
            if s.parent == 0 {
                continue;
            }
            let (_, start, end) = by_id[&s.parent];
            assert!(
                start <= s.start_ns && s.end_ns <= end,
                "{w:?}: {} escapes its parent",
                s.name
            );
            *child_self.entry(s.parent).or_default() += self_ns[&s.id];
        }
        for s in &report.spans {
            let kids = child_self.get(&s.id).copied().unwrap_or(0);
            assert!(
                self_ns[&s.id] <= s.dur(),
                "{w:?}: {} self time exceeds its span",
                s.name
            );
            // Sibling spans on one thread never overlap, so their self
            // times fit in the parent; worker threads overlap each other.
            if s.name != "segment" {
                assert!(kids <= s.dur(), "{w:?}: children of {} overrun it", s.name);
            }
        }
    }
}
