//! # cs-bench
//!
//! Benchmark harnesses that regenerate every table and figure of the
//! CollectionSwitch paper's evaluation (§5), plus the gated sweeps that
//! guard its overhead claims and record its cost ladder. Each `[[bin]]`
//! target prints the rows/series of one paper artifact or writes one
//! `BENCH_*.json`.
//!
//! | Target | Artifact |
//! |---|---|
//! | `fig3_threshold` | Fig. 3 benefit curve + Table 1 thresholds |
//! | `model_builder` | Table 3 factorial calibration run |
//! | `fig5_single_phase` | Fig. 5a–e single-phase comparisons |
//! | `fig6_multi_phase` | Fig. 6 multi-phase scenario |
//! | `table5_dacapo` | Table 5 (plus the §5.3 overhead configuration) |
//! | `table6_transitions` | Table 6 most-common transitions |
//! | `fig7_overhead` | Fig. 7 analysis cost by window size, plus the per-instance histogram fold |
//! | `runtime_sweep` | `BENCH_runtime.json`: concurrent-map thread sweep |
//! | `overhead_sweep` | `BENCH_overhead.json`: tracer self-overhead gate (§5.3/§5.4) |
//! | `fleet_sweep` | `BENCH_fleet.json`: cold vs warm-start convergence gate |
//! | `alloc_sweep` | `BENCH_alloc.json`: allocation attribution and alloc-driven switch gate |
//! | `obs_sweep` | `BENCH_obs.json`: operational-plane overhead gate |
//! | `ladder_sweep` | `BENCH_ladder.json`: per-variant critical ops, enum vs boxed dispatch, monitored vs raw handles |
//!
//! The table and figure binaries take an optional scale argument
//! ([`scale_arg`]). The six `*_sweep` binaries run through [`run_sweep`],
//! which owns their command line (`--quick`, `--out PATH`), the stamp at
//! the head of every artifact, and the gate; `runtime_sweep` and
//! `overhead_sweep` share one concurrent-map run, [`run_concurrent_map`].
//! Micro timings (`ladder_sweep`, `fig3_threshold --sweep`,
//! `fig7_overhead`) go through the workspace's one timing loop,
//! [`cs_model::timing::time_per_iter`], which also calibrates every cell of
//! `model_builder`; the ladder's per-variant rows time the builder's own
//! cells.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cs_collections::MapKind;
use cs_core::Switch;
use cs_heap::HeapAccount;
use cs_runtime::{Runtime, RuntimeConfig, SiteStats};
use cs_telemetry::{
    heap_account_to_json, validate_prometheus_text, Json, MetricsRegistry, MetricsSink,
    TelemetrySnapshot,
};
use cs_workloads::{run_concurrent_load, ConcurrentLoad, LoadReport};

/// The scale argument of the table and figure binaries: the first argument
/// that is not a `--flag`, else `default`. Exits with status 2 when that
/// argument is not an integer.
pub fn scale_arg(default: usize) -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_scale(&args, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// [`scale_arg`] over an explicit argument list (program name excluded).
fn parse_scale<S: AsRef<str>>(args: &[S], default: usize) -> Result<usize, String> {
    match args
        .iter()
        .map(AsRef::as_ref)
        .find(|a| !a.starts_with("--"))
    {
        None => Ok(default),
        Some(a) => a
            .parse()
            .map_err(|_| format!("unparsable scale {a:?}: expected an integer")),
    }
}

/// Formats a byte count as mebibytes with two decimals.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Signed percentage improvement of `new` over `base` (positive = better,
/// i.e. smaller).
pub fn improvement_pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (1.0 - new / base) * 100.0
    }
}

/// Parses a gated sweep's arguments (program name excluded) into
/// `(quick, out)`. `--quick`, `--out PATH` and `--out=PATH` are the only
/// forms; anything else is an error naming the argument.
fn parse_sweep_args<I>(args: I) -> Result<(bool, Option<String>), String>
where
    I: IntoIterator<Item = String>,
{
    let (mut quick, mut out) = (false, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--out" {
            out = Some(args.next().ok_or("--out needs a path argument")?);
        } else if let Some(path) = arg.strip_prefix("--out=") {
            out = Some(path.to_owned());
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok((quick, out))
}

/// One gated sweep in progress: its mode, the checks evaluated so far, and
/// the artifacts it will write.
#[derive(Debug)]
pub struct Sweep {
    bench: &'static str,
    quick: bool,
    out: String,
    start: HeapAccount,
    failures: Vec<String>,
    sidecars: Vec<(String, Json)>,
}

impl Sweep {
    /// Whether `--quick` selected the tiny CI budget.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Evaluates one named check. When `ok` is false, `failure()` says
    /// which check broke and by how much, and joins the artifact's
    /// `failures` array. Returns `ok`, for artifacts that record a verdict.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(failure());
        }
        ok
    }

    /// Adds a second artifact next to the results file — `X.json` becomes
    /// `X.<name>.json` — stamped and gated like the results file.
    pub fn sidecar(&mut self, name: &str, body: Json) {
        let stem = self.out.strip_suffix(".json").unwrap_or(&self.out);
        self.sidecars.push((format!("{stem}.{name}.json"), body));
    }

    /// `body`'s fields between the common stamp and the `failures` array.
    fn stamped(&self, git: &str, body: Json) -> Json {
        let Json::Object(fields) = body else {
            panic!(
                "{}: a sweep's artifact body must be a JSON object",
                self.bench
            );
        };
        let account = cs_heap::process_account();
        let doc = Json::object()
            .field("bench", self.bench)
            .field("git", git)
            .field(
                "hw_threads",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .field("quick", self.quick)
            .field(
                "process",
                Json::object()
                    .field("peak_rss_bytes", cs_heap::peak_rss_bytes())
                    .field("counting_active", cs_heap::counting_active())
                    .field("account", heap_account_to_json(&account))
                    .field(
                        "account_delta",
                        heap_account_to_json(&account.delta_since(&self.start)),
                    ),
            );
        fields
            .into_iter()
            .fold(doc, |doc, (key, value)| doc.field(key, value))
            .field("failures", self.failures.clone())
    }
}

/// Runs one gated sweep and returns the process exit status.
///
/// `args` (program name excluded) may hold `--quick` and `--out PATH` (or
/// `--out=PATH`); anything else is a usage error, which exits 2 before
/// `body` runs. `body` drives the workload, evaluates its checks through
/// [`Sweep::check`] and returns the results object. Every artifact is then
/// written — the results file at `--out` (default
/// `BENCH_<bench minus _sweep>.json`) and any [sidecars](Sweep::sidecar) —
/// headed by the stamp (`bench`, `git`, `hw_threads`, `quick`, `process`)
/// and ending in `failures`, so a failed gate still leaves its evidence.
/// The status is 1 if any check failed or an artifact could not be
/// written, else 0.
pub fn run_sweep<I, F>(bench: &'static str, args: I, body: F) -> ExitCode
where
    I: IntoIterator<Item = String>,
    F: FnOnce(&mut Sweep) -> Json,
{
    let (quick, out) = match parse_sweep_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{bench}: {e}\nusage: {bench} [--quick] [--out PATH]");
            return ExitCode::from(2);
        }
    };
    let mut sweep = Sweep {
        bench,
        quick,
        out: out.unwrap_or_else(|| format!("BENCH_{}.json", bench.trim_end_matches("_sweep"))),
        start: cs_heap::process_account(),
        failures: Vec::new(),
        sidecars: Vec::new(),
    };
    let results = body(&mut sweep);

    let git = git_describe();
    let mut artifacts = vec![(sweep.out.clone(), results)];
    artifacts.append(&mut sweep.sidecars);
    let mut written = true;
    for (path, body) in artifacts {
        match std::fs::write(&path, sweep.stamped(&git, body).render_pretty()) {
            Ok(()) => println!("# wrote {path}"),
            Err(e) => {
                eprintln!("{bench}: cannot write {path}: {e}");
                written = false;
            }
        }
    }
    for failure in &sweep.failures {
        eprintln!("GATE FAILED: {failure}");
    }
    if written && sweep.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Source revision for the stamp; `"unknown"` outside a git checkout (a
/// source tarball, a bare CI cache) rather than a failure — the stamp is
/// provenance, not a gate.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Key skew of the concurrent-map runs' Zipf draw.
pub const MAP_ZIPF_EXPONENT: f64 = 0.99;
/// Share of the concurrent-map runs' ops that are reads.
pub const MAP_READ_FRACTION: f64 = 0.9;

/// What one [`run_concurrent_map`] measured.
#[derive(Debug)]
pub struct MapRun<T> {
    /// The load generator's throughput, latency samples and op tallies.
    pub report: LoadReport,
    /// The site's own counters after the run.
    pub stats: SiteStats,
    /// The registry after the caller's export.
    pub telemetry: TelemetrySnapshot,
    /// What the caller's export returned.
    pub exported: T,
}

/// One closed-loop concurrent-map run, the shared body of `runtime_sweep`
/// and `overhead_sweep`.
///
/// A fresh [`Runtime`] (64 shards, `flush_ops` 1024, a [`MetricsSink`] on
/// the engine) serves one `Chained` map named `site`, with the analyzer
/// running every 5 ms for the whole measurement — selection rounds and
/// shard migrations are part of the measured steady state, as in a
/// service. `threads` workers each run `ops_per_thread` ops over `keys`
/// Zipf([`MAP_ZIPF_EXPONENT`]) keys, [`MAP_READ_FRACTION`] reads, one op in
/// 128 wall-clocked, seed 42. Then `export` mirrors whatever the caller
/// reports into the registry, and two checks, named by `label`, join the
/// gate: zero lost ops (site totals equal the generator's tallies) and a
/// valid Prometheus exposition.
pub fn run_concurrent_map<T>(
    sweep: &mut Sweep,
    site: &str,
    label: &str,
    threads: usize,
    ops_per_thread: u64,
    keys: usize,
    export: impl FnOnce(&Runtime, &MetricsRegistry) -> T,
) -> MapRun<T> {
    let registry = MetricsRegistry::new();
    let rt = Runtime::with_config(
        Switch::builder()
            .event_sink(Arc::new(MetricsSink::new(registry.clone())))
            .build(),
        RuntimeConfig {
            shards: 64,
            flush_ops: 1024,
            ..RuntimeConfig::default()
        },
    );
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, site);

    let stop = Arc::new(AtomicBool::new(false));
    let analyzer = {
        let rt = rt.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                rt.analyze_now();
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let report = run_concurrent_load(
        &map,
        ConcurrentLoad {
            threads,
            keys,
            zipf_exponent: MAP_ZIPF_EXPONENT,
            read_fraction: MAP_READ_FRACTION,
            ops_per_thread,
            phase_flip_every: None,
            latency_sample_mask: 127,
            seed: 42,
        },
    );
    stop.store(true, Ordering::Relaxed);
    analyzer.join().expect("analyzer thread panicked");

    let stats = map.stats();
    sweep.check(stats.ops == report.per_op_totals, || {
        format!(
            "site totals {:?} diverged from generator tallies {:?} at {label}",
            stats.ops, report.per_op_totals
        )
    });
    let exported = export(&rt, &registry);
    let telemetry = registry.snapshot();
    let exposition = validate_prometheus_text(&telemetry.to_prometheus_text());
    sweep.check(exposition.is_ok(), || {
        format!("invalid Prometheus exposition at {label}: {exposition:?}")
    });
    MapRun {
        report,
        stats,
        telemetry,
        exported,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    /// A per-test artifact path: tests run in parallel threads of one
    /// process, so the test name keeps them apart.
    fn temp_artifact(test: &str) -> String {
        std::env::temp_dir()
            .join(format!("cs_bench_{test}_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn read_artifact(path: &str) -> Json {
        let text = std::fs::read_to_string(path).expect("artifact written");
        Json::parse(&text).expect("artifact is valid JSON")
    }

    fn keys(doc: &Json) -> Vec<&str> {
        match doc {
            Json::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn improvement_sign_convention() {
        assert!(improvement_pct(10.0, 8.0) > 0.0);
        assert!(improvement_pct(10.0, 12.0) < 0.0);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn mib_converts() {
        assert!((mib(1024 * 1024) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scale_is_the_first_non_flag_argument() {
        assert_eq!(parse_scale(&["--overhead", "1"], 3), Ok(1));
        assert_eq!(parse_scale(&["1", "--overhead"], 3), Ok(1));
        assert_eq!(parse_scale::<&str>(&[], 3), Ok(3));
        assert_eq!(parse_scale(&["--overhead"], 3), Ok(3));
        let err = parse_scale(&["x"], 3).unwrap_err();
        assert!(err.contains("\"x\""), "{err}");
    }

    #[test]
    fn sweep_arguments_accept_quick_and_out_only() {
        let parse = |list: &[&str]| parse_sweep_args(args(list));
        assert_eq!(parse(&[]), Ok((false, None)));
        assert_eq!(parse(&["--quick"]), Ok((true, None)));
        let out = Some("a.json".to_owned());
        assert_eq!(
            parse(&["--out", "a.json", "--quick"]),
            Ok((true, out.clone()))
        );
        assert_eq!(parse(&["--out=a.json"]), Ok((false, out)));
        let err = parse(&["--threads", "4"]).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(parse(&["--quick", "--out"]).is_err());
    }

    #[test]
    fn a_usage_error_exits_2_without_running_the_body() {
        let code = run_sweep("usage_sweep", args(&["--fast"]), |_| {
            panic!("the body must not run on a usage error")
        });
        assert_eq!(code, ExitCode::from(2));
    }

    #[test]
    fn a_failing_check_still_writes_every_stamped_artifact_and_fails() {
        let out = temp_artifact("failing");
        let sidecar = out.replace(".json", ".telemetry.json");
        let code = run_sweep(
            "failing_sweep",
            args(&["--quick", "--out", &out]),
            |sweep| {
                assert!(sweep.check(true, || unreachable!("a passing check builds no text")));
                assert!(!sweep.check(false, || "ops total went backwards: 7 -> 5".into()));
                sweep.sidecar("telemetry", Json::object().field("snapshots", 0u64));
                Json::object().field("rows", 0u64)
            },
        );
        assert_eq!(code, ExitCode::FAILURE);

        for (path, body) in [(&out, "rows"), (&sidecar, "snapshots")] {
            let doc = read_artifact(path);
            let _ = std::fs::remove_file(path);
            let stamp = ["bench", "git", "hw_threads", "quick", "process"];
            assert_eq!(keys(&doc), [&stamp[..], &[body, "failures"]].concat());
            assert_eq!(
                doc.get("bench").and_then(Json::as_str),
                Some("failing_sweep")
            );
            assert!(doc
                .get("git")
                .and_then(Json::as_str)
                .is_some_and(|g| !g.is_empty()));
            assert!(doc.get("hw_threads").and_then(Json::as_u64) >= Some(1));
            assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(true));
            let process = doc.get("process").expect("process");
            let fields = [
                "peak_rss_bytes",
                "counting_active",
                "account",
                "account_delta",
            ];
            assert_eq!(keys(process), fields);
            assert_eq!(process.get("account").map(keys).map(|k| k.len()), Some(7));
            assert_eq!(
                process.get("account_delta").map(keys).map(|k| k.len()),
                Some(7)
            );
            let failures = doc.get("failures").and_then(Json::as_array);
            assert_eq!(
                failures,
                Some(&[Json::from("ops total went backwards: 7 -> 5")][..])
            );
        }
    }

    #[test]
    fn a_run_whose_checks_pass_succeeds_with_no_failures() {
        let out = temp_artifact("passing");
        let code = run_sweep("passing_sweep", args(&[&format!("--out={out}")]), |sweep| {
            sweep.check(true, || unreachable!());
            Json::object().field("rows", 0u64)
        });
        assert_eq!(code, ExitCode::SUCCESS);
        let doc = read_artifact(&out);
        let _ = std::fs::remove_file(&out);
        assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("failures").and_then(Json::as_array), Some(&[][..]));
    }
}
