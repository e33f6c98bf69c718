//! The `cs-analyzer` CLI.
//!
//! ```text
//! cs-analyzer scan   <path> [--json] [--include-tests]   site manifest
//! cs-analyzer advise <path> [--json] [--min-speedup X]
//!                    [--dimension D] [--calibrated]      variant advisor
//! cs-analyzer lint   <path> [--json]                     self-lint findings
//! cs-analyzer check  <path> --baseline FILE [--update]   lint vs baseline (CI)
//! cs-analyzer drift  <path> --manifest FILE [--json]     static vs runtime
//! ```
//!
//! `--dimension` selects the cost dimension recommendations optimize
//! (`time` | `alloc` | `footprint` | `energy` | `alloc_rate`; default
//! `time`). `--calibrated` prices the energy proxy with this machine's
//! measured time/alloc weights instead of the portable synthetic ones —
//! never use it when the output is diffed against committed goldens.
//!
//! Exit codes: 0 clean, 1 findings (new lint diagnostics, failed drift),
//! 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use cs_analyzer::{
    advise_tree, baseline_keys, check_drift_with_advice, diff_against_baseline, lint_tree,
    scan_tree, AdviseOptions, ExtractOptions,
};
use cs_core::SiteManifestEntry;
use cs_model::{calibrated_weights, CostDimension};
use cs_telemetry::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cs-analyzer <scan|advise|lint|check|drift> <path> \
         [--json] [--include-tests] [--min-speedup X] \
         [--dimension time|alloc|footprint|energy|alloc_rate] [--calibrated] \
         [--baseline FILE [--update]] [--manifest FILE]"
    );
    ExitCode::from(2)
}

struct Args {
    command: String,
    target: PathBuf,
    json: bool,
    include_tests: bool,
    min_speedup: Option<f64>,
    dimension: Option<CostDimension>,
    calibrated: bool,
    baseline: Option<PathBuf>,
    manifest: Option<PathBuf>,
    update: bool,
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut it = argv.iter();
    let command = it.next()?.clone();
    let mut args = Args {
        command,
        target: PathBuf::new(),
        json: false,
        include_tests: false,
        min_speedup: None,
        dimension: None,
        calibrated: false,
        baseline: None,
        manifest: None,
        update: false,
    };
    let mut target = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--include-tests" => args.include_tests = true,
            "--update" => args.update = true,
            "--calibrated" => args.calibrated = true,
            "--min-speedup" => args.min_speedup = it.next()?.parse().ok(),
            "--dimension" => {
                args.dimension = it.next()?.parse().ok().or_else(|| {
                    eprintln!("cs-analyzer: unknown cost dimension");
                    None
                })
            }
            "--baseline" => args.baseline = Some(PathBuf::from(it.next()?)),
            "--manifest" => args.manifest = Some(PathBuf::from(it.next()?)),
            other if !other.starts_with('-') && target.is_none() => {
                target = Some(PathBuf::from(other));
            }
            _ => return None,
        }
    }
    args.target = target?;
    Some(args)
}

fn extract_opts(args: &Args) -> ExtractOptions {
    ExtractOptions {
        skip_cfg_test: !args.include_tests,
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    match args.command.as_str() {
        "scan" => cmd_scan(args),
        "advise" => cmd_advise(args),
        "lint" => cmd_lint(args),
        "check" => cmd_check(args),
        "drift" => cmd_drift(args),
        _ => Ok(usage()),
    }
}

fn cmd_scan(args: &Args) -> Result<ExitCode, String> {
    let scanned = scan_tree(&args.target, extract_opts(args)).map_err(|e| e.to_string())?;
    let sites: Vec<_> = scanned
        .into_iter()
        .flat_map(|(_, analysis)| analysis.sites)
        .collect();
    if args.json {
        let root = args.target.display().to_string();
        print!(
            "{}",
            cs_analyzer::manifest_to_json(&root, &sites).render_pretty()
        );
    } else {
        for site in &sites {
            println!(
                "{}  {}  [{} {}]  {}",
                site.fingerprint(),
                site.location(),
                site.category,
                site.declared.abstraction(),
                site.constructor,
            );
        }
        println!("{} sites", sites.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn advise_opts(args: &Args) -> AdviseOptions {
    let mut opts = AdviseOptions::default();
    if let Some(s) = args.min_speedup {
        opts.min_speedup = s;
    }
    if let Some(d) = args.dimension {
        opts.dimension = d;
    }
    if args.calibrated {
        opts.weights = calibrated_weights();
    }
    opts
}

fn cmd_advise(args: &Args) -> Result<ExitCode, String> {
    let opts = advise_opts(args);
    let advice = advise_tree(&args.target, extract_opts(args), opts).map_err(|e| e.to_string())?;
    if args.json {
        let root = args.target.display().to_string();
        print!(
            "{}",
            cs_analyzer::advice_report_to_json(&root, &advice).render_pretty()
        );
    } else {
        for a in &advice {
            println!("{}", a.render());
        }
        let advised = advice.iter().filter(|a| a.recommendation.is_some()).count();
        println!("{} sites, {} recommendations", advice.len(), advised);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_lint(args: &Args) -> Result<ExitCode, String> {
    let diagnostics = lint_tree(&args.target).map_err(|e| e.to_string())?;
    if args.json {
        let doc = Json::Array(
            diagnostics
                .iter()
                .map(cs_analyzer::diagnostic_to_json)
                .collect(),
        );
        print!("{}", doc.render_pretty());
    } else {
        for d in &diagnostics {
            println!("{}", d.render());
        }
        println!("{} findings", diagnostics.len());
    }
    Ok(if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    let baseline_path = args
        .baseline
        .as_ref()
        .ok_or("check requires --baseline FILE")?;
    let diagnostics = lint_tree(&args.target).map_err(|e| e.to_string())?;
    if args.update {
        let doc = cs_analyzer::baseline_to_json(&diagnostics);
        std::fs::write(baseline_path, doc.render_pretty()).map_err(|e| e.to_string())?;
        println!(
            "baseline updated: {} keys -> {}",
            diagnostics.len(),
            baseline_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?;
    let baseline = baseline_keys(&doc);
    let (fresh, fixed) = diff_against_baseline(&diagnostics, &baseline);
    for d in &fresh {
        println!("NEW {}", d.render());
    }
    for key in &fixed {
        println!("fixed (prune from baseline): {key}");
    }
    println!(
        "{} findings, {} baselined, {} new, {} fixed",
        diagnostics.len(),
        baseline.len(),
        fresh.len(),
        fixed.len()
    );
    Ok(if fresh.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Parses a runtime manifest document: either the engine-side JSON
/// (`{"sites":[{"id":..,"name":..,"abstraction":..,"default_kind":..,
/// "current_kind":..},..]}`) or a bare array of such rows.
fn parse_runtime_manifest(doc: &Json) -> Result<Vec<SiteManifestEntry>, String> {
    let rows = doc
        .get("sites")
        .and_then(Json::as_array)
        .or_else(|| doc.as_array())
        .ok_or("manifest document has no `sites` array")?;
    rows.iter()
        .map(|row| {
            let field = |k: &str| {
                row.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("manifest row missing string field `{k}`"))
            };
            let abstraction = match field("abstraction")?.as_str() {
                "list" => cs_collections::Abstraction::List,
                "set" => cs_collections::Abstraction::Set,
                "map" => cs_collections::Abstraction::Map,
                other => return Err(format!("unknown abstraction `{other}`")),
            };
            Ok(SiteManifestEntry {
                id: row.get("id").and_then(Json::as_u64).unwrap_or(0),
                name: field("name")?,
                abstraction,
                default_kind: field("default_kind")?,
                current_kind: field("current_kind")?,
                // Absent in pre-v2 manifests: treat as unmeasured.
                alloc_bytes_per_op: row
                    .get("alloc_bytes_per_op")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            })
        })
        .collect()
}

fn cmd_drift(args: &Args) -> Result<ExitCode, String> {
    let manifest_path = args
        .manifest
        .as_ref()
        .ok_or("drift requires --manifest FILE")?;
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let runtime = parse_runtime_manifest(&doc)?;

    // Advise (rather than just scan) so anchored sites carry a predicted
    // alloc class and the report can cross-check it against measurement.
    let advice = advise_tree(&args.target, extract_opts(args), advise_opts(args))
        .map_err(|e| e.to_string())?;
    let report = check_drift_with_advice(&advice, &runtime);
    if args.json {
        print!("{}", cs_analyzer::drift_to_json(&report).render_pretty());
    } else {
        print!("{}", report.render());
    }
    Ok(if report.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cs-analyzer: {message}");
            ExitCode::from(2)
        }
    }
}
