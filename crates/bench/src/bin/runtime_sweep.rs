//! Thread-sweep benchmark of the concurrent selection runtime.
//!
//! ```text
//! cargo run --release -p cs-bench --bin runtime_sweep -- [--quick] [--out PATH]
//! ```
//!
//! Sweeps a closed-loop Zipf read-heavy workload (`cs_workloads::concurrent`)
//! over 1, 2, 4 and 8 threads (`--quick`: 1 and 2) on one
//! [`ConcurrentMap`](cs_runtime::ConcurrentMap) site, with the engine's
//! analyzer running concurrently, through the harness's shared
//! [`run_concurrent_map`]. Writes `BENCH_runtime.json` (schema in
//! EXPERIMENTS.md): per-thread-count throughput, p50/p99 op latency, and the
//! runtime's flush/contention/transition counters. Every row is gated on
//! the zero-lost-ops invariant (generator tallies == site totals).
//!
//! Each run is fully instrumented with `cs-telemetry`: a `MetricsSink`
//! subscribes to the engine, [`Runtime::export_metrics`]
//! mirrors the runtime counters on completion, and the per-run snapshots
//! are written alongside the results as `<out stem>.telemetry.json`,
//! headed by the harness stamp (this binary installs
//! [`cs_heap::CountingAlloc`], so its `process` block carries real heap
//! totals) and the workload parameters, so the artifact is interpretable
//! on its own and comparable on memory across PRs. The Prometheus
//! rendering of every snapshot is gated by the exposition validator — the
//! benchmark doubles as an end-to-end telemetry test.
//!
//! Because it counts the heap, [`cs_profile::ops_instrumented`] is true
//! throughout, so every op of the swept map takes the shards' slow path
//! (an alloc guard and an op span each): the sweep times the runtime as
//! a heap-counting program runs it, never the fast path an uncounted,
//! untraced program takes. `ladder_sweep`'s `runtime/*` rows, on one
//! thread and on two, time that fast path.
//!
//! `--out PATH` selects the results file, default `BENCH_runtime.json`.

use std::process::ExitCode;

use cs_bench::{run_concurrent_map, run_sweep, Sweep, MAP_READ_FRACTION, MAP_ZIPF_EXPONENT};
use cs_runtime::{site_stats_to_json, Runtime};
use cs_telemetry::Json;

/// Opt-in heap observability: lets the telemetry sidecar stamp real
/// process allocation totals (zeros would be stamped without this).
#[global_allocator]
static ALLOC: cs_heap::CountingAlloc = cs_heap::CountingAlloc;

/// Thread counts, ops per thread and Zipf key-space size.
const FULL: (&[usize], u64, usize) = (&[1, 2, 4, 8], 400_000, 16_384);
/// The tiny CI budget.
const QUICK: (&[usize], u64, usize) = (&[1, 2], 2_000, 1_024);

fn main() -> ExitCode {
    run_sweep("runtime_sweep", std::env::args().skip(1), sweep)
}

fn sweep(sweep: &mut Sweep) -> Json {
    let (threads, ops_per_thread, keys) = if sweep.quick() { QUICK } else { FULL };

    println!(
        "# runtime thread sweep: Zipf(0.99) 90% reads, {ops_per_thread} ops/thread, {keys} keys"
    );
    println!("threads\tMops/s\tp50_ns\tp99_ns\tflushes\tcontended\trounds\tswitches");

    let mut rows = Vec::new();
    let mut snapshots = Vec::new();
    let mut base = 0.0;
    let mut peak = 0.0f64;
    for &t in threads {
        // A fresh runtime per thread count: each row measures the same site
        // lifecycle (empty map, cold shards) at a different concurrency.
        let run = run_concurrent_map(
            sweep,
            "sweep",
            &format!("{t} threads"),
            t,
            ops_per_thread,
            keys,
            Runtime::export_metrics,
        );
        let r = &run.report;
        println!(
            "{t}\t{:.3}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.throughput_ops_per_sec / 1e6,
            r.p50_ns(),
            r.p99_ns(),
            run.stats.flushes,
            run.stats.contended,
            run.stats.rounds,
            run.stats.switches,
        );
        if rows.is_empty() {
            base = r.throughput_ops_per_sec;
        }
        peak = peak.max(r.throughput_ops_per_sec);
        rows.push(
            Json::object()
                .field("threads", t)
                .field("total_ops", r.total_ops)
                .field("elapsed_secs", r.elapsed.as_secs_f64())
                .field("throughput_ops_per_sec", r.throughput_ops_per_sec)
                .field("p50_ns", r.p50_ns())
                .field("p99_ns", r.p99_ns())
                .field("max_ns", r.max_ns())
                .field("latency_samples", r.latencies_ns.len())
                .field("site", site_stats_to_json(&run.stats)),
        );
        snapshots.push(
            Json::object()
                .field("threads", t)
                .field("telemetry", run.telemetry.to_json()),
        );
    }
    let scaling = if base > 0.0 { peak / base } else { 0.0 };
    println!();
    println!("# peak/1-thread throughput scaling: {scaling:.2}x");

    let workload = Json::object()
        .field("zipf_exponent", MAP_ZIPF_EXPONENT)
        .field("read_fraction", MAP_READ_FRACTION)
        .field("ops_per_thread", ops_per_thread)
        .field("keys", keys);
    // The snapshot sidecar repeats the workload, with its thread list, so
    // a snapshot file found on its own (a CI artifact, say) is
    // interpretable without the results file it was generated next to.
    sweep.sidecar(
        "telemetry",
        Json::object()
            .field(
                "workload",
                Json::object()
                    .field("threads", threads.to_vec())
                    .field("zipf_exponent", MAP_ZIPF_EXPONENT)
                    .field("read_fraction", MAP_READ_FRACTION)
                    .field("ops_per_thread", ops_per_thread)
                    .field("keys", keys),
            )
            .field("snapshots", Json::Array(snapshots)),
    );
    Json::object()
        .field("workload", workload)
        .field("scaling_peak_over_single", scaling)
        .field("rows", Json::Array(rows))
}
