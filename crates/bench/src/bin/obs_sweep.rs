//! Operational-plane sweep: what does live observability cost?
//!
//! ```text
//! cargo run --release -p cs-bench --bin obs_sweep -- [--quick] [--out PATH]
//! ```
//!
//! Serves a real runtime over `serve_obs` (timer sampler + HTTP workers)
//! while a 4-thread concurrent workload hammers the maps it observes, and
//! a scrape client polls `/metrics` the whole time. Writes
//! `BENCH_obs.json` (schema in EXPERIMENTS.md) and gates three claims:
//!
//! 1. **Overhead budget** — the plane's self-accounted busy time
//!    (`cs_obs_sampler_busy_nanos_total` + `cs_obs_handler_busy_nanos_total`)
//!    divided by the workload's aggregate thread-time must stay at or
//!    under [`OVERHEAD_BUDGET`]. This
//!    is the paper's own bar: adaptation machinery — and now its
//!    observability — must be cheap enough to leave on in production.
//! 2. **Scrape integrity** — every mid-load `/metrics` page passes the
//!    workspace exposition validator, and after the final flush the
//!    scraped `cs_runtime_site_ops_total` sum equals the workload's exact
//!    per-op accounting. A metrics page that drops ops under load is
//!    worse than no page.
//! 3. **Liveness** — the scrape client completed a minimum number of
//!    scrapes and the handler answered every one (no 5xx), so the p50/p99
//!    latencies in the artifact describe a server that was actually
//!    serving, not one request measured thrice.
//!
//! The harness stamp heads the artifact; with the counting allocator
//! installed, its `process` block carries the real heap account, so BENCH
//! files are comparable on memory across PRs.
//!
//! `--out PATH` selects the results file, default `BENCH_obs.json`.
//! `--quick` selects the tiny CI budget; the gates are identical in both
//! modes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cs_bench::{run_sweep, Sweep};
use cs_collections::MapKind;
use cs_core::Switch;
use cs_obs::ObsBuilder;
use cs_runtime::Runtime;
use cs_telemetry::{validate_prometheus_text, Json};
use cs_workloads::{run_concurrent_load, ConcurrentLoad};

#[global_allocator]
static ALLOC: cs_heap::CountingAlloc = cs_heap::CountingAlloc;

/// Plane busy-time over aggregate workload thread-time, the shipping gate.
const OVERHEAD_BUDGET: f64 = 0.05;
/// Worker threads of the observed workload.
const WORKLOAD_THREADS: usize = 4;
/// The sampler period while under load.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(25);
/// Pause between scrapes — the client models a monitoring agent on a
/// polling cadence, not a saturation attack; a tight loop would measure
/// the server's capacity ceiling instead of its production overhead.
const SCRAPE_PAUSE: Duration = Duration::from_millis(25);
/// Quick mode shortens the workload, so it scrapes more often to clear
/// the liveness floor in the shorter window.
const QUICK_SCRAPE_PAUSE: Duration = Duration::from_millis(5);
/// The liveness gate: fewer completed scrapes than this means the server
/// was not really exercised and the latency percentiles are noise.
const MIN_SCRAPES: u64 = 20;

/// A raw-TCP `GET`: returns (status, body).
fn get(addr: std::net::SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: obs-sweep\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// Sum of every `cs_runtime_site_ops_total` sample on an exposition page.
fn scraped_ops_total(body: &str) -> u64 {
    body.lines()
        .filter(|l| l.starts_with("cs_runtime_site_ops_total{"))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct ScrapeStats {
    scrapes: u64,
    bad_status: u64,
    invalid_pages: u64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    last_page_bytes: usize,
}

fn main() -> ExitCode {
    run_sweep("obs_sweep", std::env::args().skip(1), sweep)
}

fn sweep(sweep: &mut Sweep) -> Json {
    let ops_per_thread: u64 = if sweep.quick() { 400_000 } else { 1_500_000 };
    let scrape_pause = if sweep.quick() {
        QUICK_SCRAPE_PAUSE
    } else {
        SCRAPE_PAUSE
    };

    println!(
        "# obs sweep: {WORKLOAD_THREADS}-thread load x{ops_per_thread} ops/thread, \
         live scrape client, budget {OVERHEAD_BUDGET} (quick={})",
        sweep.quick()
    );

    // -- Wire the observed runtime and its plane ---------------------------
    let rt = Runtime::new(Switch::builder().build());
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "obs-sweep-map");
    let obs = ObsBuilder::new()
        .addr("127.0.0.1:0")
        .sample_every(SAMPLE_INTERVAL)
        .spawn_runtime(&rt)
        .expect("bind obs server on an ephemeral port");
    let addr = obs.local_addr().expect("server address");

    // -- Drive the workload on helper threads while this thread scrapes ----
    let load = ConcurrentLoad {
        threads: WORKLOAD_THREADS,
        ops_per_thread,
        ..ConcurrentLoad::default()
    };
    let wall_start = Instant::now();
    let loader = std::thread::spawn({
        let map = map.clone();
        move || run_concurrent_load(&map, load)
    });

    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut bad_status = 0u64;
    let mut invalid_pages = 0u64;
    let mut last_total = 0u64;
    let mut last_page_bytes = 0usize;
    while !loader.is_finished() {
        let t = Instant::now();
        match get(addr, "/metrics") {
            Ok((status, body)) => {
                latencies_ns.push(t.elapsed().as_nanos() as u64);
                if status != 200 {
                    bad_status += 1;
                } else {
                    if validate_prometheus_text(&body).is_err() {
                        invalid_pages += 1;
                    }
                    let total = scraped_ops_total(&body);
                    sweep.check(total >= last_total, || {
                        format!("ops total went backwards: {last_total} -> {total}")
                    });
                    last_total = total;
                    last_page_bytes = body.len();
                }
            }
            Err(e) => {
                sweep.check(false, || format!("scrape transport error mid-load: {e}"));
                break;
            }
        }
        std::thread::sleep(scrape_pause);
    }
    let report = loader.join().expect("workload threads");
    let wall = wall_start.elapsed();

    // Snapshot the plane's busy counters at workload join: the overhead
    // ratio prices observability *under load*; the validation scrape
    // below is out of band.
    let snap = obs.registry().snapshot();
    let sampler_busy_ns = snap
        .counter_total("cs_obs_sampler_busy_nanos_total")
        .unwrap_or(0);
    let handler_busy_ns = snap
        .counter_total("cs_obs_handler_busy_nanos_total")
        .unwrap_or(0);
    let sampler_ticks = snap
        .counter_total("cs_obs_sampler_ticks_total")
        .unwrap_or(0);

    // -- Final accounting: flush, one more scrape, exact totals ------------
    rt.flush();
    rt.analyze_now();
    let (status, body) = get(addr, "/metrics").expect("final scrape");
    sweep.check(status == 200, || format!("final scrape answered {status}"));
    let final_page = validate_prometheus_text(&body);
    sweep.check(final_page.is_ok(), || {
        format!("final page failed validation: {final_page:?}")
    });
    let final_total = scraped_ops_total(&body);
    sweep.check(final_total == report.total_ops, || {
        format!(
            "scraped ops {} != workload's exact accounting {}",
            final_total, report.total_ops
        )
    });

    latencies_ns.sort_unstable();
    let scrape = ScrapeStats {
        scrapes: latencies_ns.len() as u64,
        bad_status,
        invalid_pages,
        p50_ns: percentile(&latencies_ns, 0.50),
        p99_ns: percentile(&latencies_ns, 0.99),
        max_ns: latencies_ns.last().copied().unwrap_or(0),
        last_page_bytes,
    };
    sweep.check(scrape.scrapes >= MIN_SCRAPES, || {
        format!(
            "only {} scrapes completed (liveness floor {MIN_SCRAPES})",
            scrape.scrapes
        )
    });
    sweep.check(scrape.bad_status == 0, || {
        format!("{} scrapes answered non-200", scrape.bad_status)
    });
    sweep.check(scrape.invalid_pages == 0, || {
        format!(
            "{} mid-load pages failed exposition validation",
            scrape.invalid_pages
        )
    });

    // -- The overhead gate: plane busy-time over workload thread-time ------
    let workload_thread_ns = report.elapsed.as_nanos() as u64 * WORKLOAD_THREADS as u64;
    let overhead_ratio =
        (sampler_busy_ns + handler_busy_ns) as f64 / workload_thread_ns.max(1) as f64;
    sweep.check(overhead_ratio <= OVERHEAD_BUDGET, || {
        format!(
            "plane overhead {overhead_ratio:.4} exceeds budget {OVERHEAD_BUDGET} \
             (sampler {sampler_busy_ns} ns + handlers {handler_busy_ns} ns \
             over {workload_thread_ns} thread-ns)"
        )
    });

    println!(
        "load: {} ops in {:.2?} ({:.0} ops/s), {} sampler ticks",
        report.total_ops, report.elapsed, report.throughput_ops_per_sec, sampler_ticks
    );
    println!(
        "scrapes: {} total, p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms, page {} B",
        scrape.scrapes,
        scrape.p50_ns as f64 / 1e6,
        scrape.p99_ns as f64 / 1e6,
        scrape.max_ns as f64 / 1e6,
        scrape.last_page_bytes,
    );
    println!(
        "overhead: sampler {:.3} ms + handlers {:.3} ms over {:.2?} x {} threads -> ratio {:.5} (budget {})",
        sampler_busy_ns as f64 / 1e6,
        handler_busy_ns as f64 / 1e6,
        report.elapsed,
        WORKLOAD_THREADS,
        overhead_ratio,
        OVERHEAD_BUDGET,
    );

    obs.shutdown();
    Json::object()
        .field(
            "workload",
            Json::object()
                .field("threads", WORKLOAD_THREADS)
                .field("ops_per_thread", ops_per_thread)
                .field("total_ops", report.total_ops)
                .field("elapsed_ns", report.elapsed.as_nanos() as u64)
                .field("wall_ns", wall.as_nanos() as u64)
                .field("throughput_ops_per_sec", report.throughput_ops_per_sec),
        )
        .field(
            "scrape",
            Json::object()
                .field("scrapes", scrape.scrapes)
                .field("bad_status", scrape.bad_status)
                .field("invalid_pages", scrape.invalid_pages)
                .field("p50_ns", scrape.p50_ns)
                .field("p99_ns", scrape.p99_ns)
                .field("max_ns", scrape.max_ns)
                .field("page_bytes", scrape.last_page_bytes)
                .field("final_total_exact", final_total == report.total_ops),
        )
        .field(
            "overhead",
            Json::object()
                .field("sampler_interval_ms", SAMPLE_INTERVAL.as_millis() as u64)
                .field("sampler_ticks", sampler_ticks)
                .field("sampler_busy_ns", sampler_busy_ns)
                .field("handler_busy_ns", handler_busy_ns)
                .field("workload_thread_ns", workload_thread_ns)
                .field("ratio", overhead_ratio)
                .field("budget", OVERHEAD_BUDGET),
        )
}
