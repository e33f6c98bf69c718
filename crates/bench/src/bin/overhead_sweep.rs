//! Tracing self-overhead sweep: off vs. sampled vs. full.
//!
//! ```text
//! cargo run --release -p cs-bench --bin overhead_sweep -- [--quick] [--out PATH]
//! ```
//!
//! Runs the harness's shared concurrent-map run ([`run_concurrent_map`],
//! the `runtime_sweep` workload shape) three times, once per [`TraceMode`],
//! at 4 threads × 200k ops over 16,384 keys (`--quick`: 2 threads × 30k
//! ops over 1,024 keys), and writes `BENCH_overhead.json` (schema in
//! EXPERIMENTS.md): per-mode throughput plus the tracer's own self-overhead
//! account — calibrated tracer nanos, scaled framework (pipeline) nanos,
//! wall-credited application nanos, and the `tracer / (tracer + app)` ratio
//! that backs the `cs_trace_overhead_ratio` gauge (the pipeline share is
//! reported separately as `pipeline_ratio`).
//!
//! This is the measured version of the paper's "negligible overhead" claim
//! (§5.4), applied to the tracer itself, and it is a *gate*, not just a
//! report: the process exits nonzero if the sampled-mode overhead ratio is
//! at or above [`BUDGET`], which is how CI's `overhead-check` job fails.
//! Every row is also gated on zero lost ops and a valid exposition.
//!
//! `--out PATH` selects the results file, default `BENCH_overhead.json`.

use std::process::ExitCode;

use cs_bench::{run_concurrent_map, run_sweep, Sweep, MAP_READ_FRACTION, MAP_ZIPF_EXPONENT};
use cs_telemetry::{export_trace, Json};
use cs_trace::TraceMode;
use cs_workloads::LoadReport;

/// The sampled-mode overhead ratio must stay below this.
const BUDGET: f64 = 0.05;
/// Worker threads, ops per thread and Zipf key-space size.
const FULL: (usize, u64, usize) = (4, 200_000, 16_384);
/// The tiny CI budget.
const QUICK: (usize, u64, usize) = (2, 30_000, 1_024);

fn mode_name(mode: TraceMode) -> &'static str {
    match mode {
        TraceMode::Off => "off",
        TraceMode::Sampled => "sampled",
        TraceMode::Full => "full",
    }
}

struct ModeRow {
    mode: TraceMode,
    report: LoadReport,
    overhead: cs_trace::OverheadReport,
    spans_recorded: u64,
    spans_overwritten: u64,
    threads_registered: usize,
}

fn measure_mode(
    sweep: &mut Sweep,
    mode: TraceMode,
    (threads, ops, keys): (usize, u64, usize),
) -> ModeRow {
    // Fresh accounting per mode: rings and aggregates start at zero, and
    // the mode is installed before any worker thread spins up.
    cs_trace::reset();
    cs_trace::set_mode(mode);
    // The tracer's telemetry mirror must render a valid exposition in
    // every mode, including the all-zero off mode.
    let run = run_concurrent_map(
        sweep,
        "overhead",
        &format!("{} mode", mode_name(mode)),
        threads,
        ops,
        keys,
        |_, registry| {
            let snap = cs_trace::snapshot();
            export_trace(registry, &snap);
            snap
        },
    );
    cs_trace::set_mode(TraceMode::Off);

    let snap = run.exported;
    ModeRow {
        mode,
        report: run.report,
        overhead: snap.overhead(),
        spans_recorded: snap.total_recorded(),
        spans_overwritten: snap.total_overwritten(),
        threads_registered: snap.threads.len(),
    }
}

fn json_row(row: &ModeRow, baseline_throughput: f64) -> Json {
    let o = &row.overhead;
    let slowdown = if row.report.throughput_ops_per_sec > 0.0 && baseline_throughput > 0.0 {
        baseline_throughput / row.report.throughput_ops_per_sec
    } else {
        0.0
    };
    let phases = cs_trace::Phase::ALL.iter().fold(Json::object(), |doc, p| {
        doc.field(p.name(), o.phase_counts[p.index()])
    });
    Json::object()
        .field("mode", mode_name(row.mode))
        .field("total_ops", row.report.total_ops)
        .field("elapsed_secs", row.report.elapsed.as_secs_f64())
        .field("throughput_ops_per_sec", row.report.throughput_ops_per_sec)
        .field("throughput_slowdown_vs_off", slowdown)
        .field(
            "overhead",
            Json::object()
                .field("framework_nanos", o.framework_nanos)
                .field("tracer_nanos", o.tracer_nanos)
                .field("app_nanos", o.app_nanos)
                .field("app_ops", o.app_ops)
                .field("ratio", o.ratio())
                .field("pipeline_ratio", o.pipeline_ratio())
                .field("framework_nanos_per_op", o.framework_nanos_per_op()),
        )
        .field("spans_recorded", row.spans_recorded)
        .field("spans_overwritten", row.spans_overwritten)
        .field("threads_registered", row.threads_registered)
        .field("phase_span_counts", phases)
}

fn main() -> ExitCode {
    run_sweep("overhead_sweep", std::env::args().skip(1), sweep)
}

fn sweep(sweep: &mut Sweep) -> Json {
    let size = if sweep.quick() { QUICK } else { FULL };
    let (threads, ops_per_thread, keys) = size;

    println!(
        "# tracing overhead sweep: Zipf(0.99) 90% reads, {threads} threads, {ops_per_thread} ops/thread, {keys} keys"
    );
    println!("mode\tMops/s\tratio\tfw_ns/op\tspans");

    let modes = [TraceMode::Off, TraceMode::Sampled, TraceMode::Full];
    let rows: Vec<ModeRow> = modes
        .iter()
        .map(|&mode| {
            let row = measure_mode(sweep, mode, size);
            println!(
                "{}\t{:.3}\t{:.5}\t{:.1}\t{}",
                mode_name(row.mode),
                row.report.throughput_ops_per_sec / 1e6,
                row.overhead.ratio(),
                row.overhead.framework_nanos_per_op(),
                row.spans_recorded,
            );
            row
        })
        .collect();

    let baseline = rows
        .first()
        .map(|r| r.report.throughput_ops_per_sec)
        .unwrap_or(0.0);
    let sampled_ratio = rows
        .iter()
        .find(|r| r.mode == TraceMode::Sampled)
        .map(|r| r.overhead.ratio())
        .unwrap_or(0.0);
    let pass = sweep.check(sampled_ratio < BUDGET, || {
        format!(
            "overhead gate: sampled tracing claims {:.2}% of accounted time (budget {:.2}%)",
            sampled_ratio * 100.0,
            BUDGET * 100.0
        )
    });
    println!(
        "# sampled overhead ratio {sampled_ratio:.5} vs budget {BUDGET} -> {}",
        if pass { "PASS" } else { "FAIL" }
    );

    Json::object()
        .field(
            "workload",
            Json::object()
                .field("threads", threads)
                .field("zipf_exponent", MAP_ZIPF_EXPONENT)
                .field("read_fraction", MAP_READ_FRACTION)
                .field("ops_per_thread", ops_per_thread)
                .field("keys", keys),
        )
        .field("op_sample_mask", cs_trace::OP_SAMPLE_MASK)
        .field(
            "gate",
            Json::object()
                .field("budget", BUDGET)
                .field("sampled_overhead_ratio", sampled_ratio)
                .field("pass", pass),
        )
        .field(
            "rows",
            Json::Array(rows.iter().map(|r| json_row(r, baseline)).collect()),
        )
}
