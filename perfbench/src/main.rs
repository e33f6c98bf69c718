//! Command line of the benchmark; see the library docs and `README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one `name value unit` line per metric, a `# stats` line with a
//! JSON document holding the run's stamp (hardware threads, peak RSS) and
//! the median, IQR and sample count of each metric, and, last, the result
//! object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. A traced
//! run also writes the spans of its first round to
//! `.bench_out/trace-<workload>-<seed>.jsonl`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use cs_perfbench::{run, trace, Params, Workload};

fn usage(err: &str) -> ExitCode {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Params, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        tiny: false,
    })
}

/// A finite number as JSON (non-finite values cannot be represented).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse(&args) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    let hw_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench {} seed {} seconds {} trace {} | hw_threads {hw_threads}",
        params.workload.name(),
        params.seed,
        params.seconds,
        u8::from(params.trace),
    );

    let report = run(&params);

    if params.trace {
        // Every traced round feeds the metrics; the file keeps the first
        // round only, which holds every span kind at a few MB.
        let first: Vec<_> = report
            .spans
            .iter()
            .filter(|s| s.rep == 0)
            .cloned()
            .collect();
        let dir = PathBuf::from(".bench_out");
        let path = dir.join(format!(
            "trace-{}-{}.jsonl",
            params.workload.name(),
            params.seed
        ));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&first)))
        {
            Ok(()) => println!(
                "# {} of {} spans (round 0) written to {}",
                first.len(),
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    let mut stats = String::new();
    let mut result = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let s = m.summary;
        println!("{} {} {}", m.name, num(s.median), m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            stats,
            "{sep}\"{}\": {{\"median\": {}, \"iqr\": {}, \"n\": {}}}",
            m.name,
            num(s.median),
            num(s.iqr),
            s.n
        );
        let _ = write!(
            result,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(s.median),
            m.unit
        );
    }
    println!(
        "# stats {{\"stamp\": {{\"hw_threads\": {hw_threads}, \"peak_rss_bytes\": {}}}, \"metrics\": {{{stats}}}}}",
        cs_heap::peak_rss_bytes()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{result}}}}}",
        report.correct, report.attempted, report.failed
    );
    ExitCode::SUCCESS
}
