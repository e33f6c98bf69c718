//! Scrape-under-load: the operational plane serving raw-TCP scrapes while
//! a 4-thread workload hammers the runtime it observes.
//!
//! Three invariants, checked end to end:
//! 1. every `/metrics` response passes the workspace's exposition
//!    validator (metadata and histogram grammar included),
//! 2. the `cs_runtime_site_ops_total` sum is monotone across consecutive
//!    scrapes (counters never step backwards mid-load), and
//! 3. zero ops are lost: after the workload joins and flushes, the scraped
//!    totals equal the workload's own exact per-op accounting.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use cs_collections::MapKind;
use cs_core::Switch;
use cs_obs::RuntimeObsExt;
use cs_runtime::Runtime;
use cs_telemetry::validate_prometheus_text;
use cs_workloads::{run_concurrent_load, ConcurrentLoad};

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to obs server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: load-test\r\n\r\n").expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// Sum of every `cs_runtime_site_ops_total` sample in an exposition page.
fn scraped_ops_total(body: &str) -> u64 {
    body.lines()
        .filter(|l| l.starts_with("cs_runtime_site_ops_total{"))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

#[test]
fn scrapes_stay_valid_and_monotone_under_concurrent_load() {
    let rt = Runtime::new(Switch::builder().build());
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "load-map");
    let obs = rt.serve_obs("127.0.0.1:0").expect("bind obs server");
    let addr = obs.local_addr().expect("server address");

    let load = ConcurrentLoad {
        threads: 4,
        ops_per_thread: 50_000,
        ..ConcurrentLoad::default()
    };

    // Drive the workload on a helper thread while this thread scrapes.
    let loader = std::thread::spawn({
        let map = map.clone();
        move || run_concurrent_load(&map, load)
    });

    let mut last_total = 0u64;
    let mut scrapes = 0u32;
    while !loader.is_finished() {
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200, "scrape failed mid-load:\n{body}");
        validate_prometheus_text(&body)
            .unwrap_or_else(|e| panic!("mid-load exposition invalid: {e:?}"));
        let total = scraped_ops_total(&body);
        assert!(
            total >= last_total,
            "ops total went backwards: {last_total} -> {total}"
        );
        last_total = total;
        scrapes += 1;
        // The /health endpoint must answer under the same load.
        let (status, _) = get(addr, "/health");
        assert_eq!(status, 200, "healthy engine answered 503 under load");
    }
    let report = loader.join().expect("workload thread");

    // Final accounting: flush everything, scrape once more, compare exact.
    rt.flush();
    rt.analyze_now();
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    validate_prometheus_text(&body).expect("final exposition validates");
    let final_total = scraped_ops_total(&body);
    assert!(final_total >= last_total, "final scrape is the newest");
    assert_eq!(
        final_total, report.total_ops,
        "scraped op total must equal the workload's exact accounting \
         (zero lost ops); {scrapes} mid-load scrapes"
    );
    let expected: u64 = report.per_op_totals.iter().sum();
    assert_eq!(report.total_ops, expected, "report self-consistent");

    // The plane's self-metrics saw this scrape traffic.
    assert!(
        body.contains("cs_obs_scrapes_total{endpoint=\"metrics\"}"),
        "self-metrics on the page:\n{body}"
    );
    obs.shutdown();
}

#[test]
fn backlog_overflow_sheds_with_503_not_memory() {
    // One worker, backlog of one: a slow-to-connect burst must produce
    // some 503s (shed at the accept thread) but every accepted request
    // still answers correctly.
    let rt = Runtime::new(Switch::builder().build());
    let obs = cs_obs::ObsBuilder::new()
        .addr("127.0.0.1:0")
        .workers(1)
        .backlog(1)
        .manual_sampler()
        .spawn_runtime(&rt)
        .expect("bind");
    let addr = obs.local_addr().expect("addr");

    let mut oks = 0u32;
    let mut sheds = 0u32;
    let handles: Vec<_> = (0..16)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, _) = get(addr, "/health");
                status
            })
        })
        .collect();
    for h in handles {
        match h.join().expect("client thread") {
            200 => oks += 1,
            503 => sheds += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!(oks + sheds, 16);
    assert!(oks > 0, "at least some requests served");
    obs.shutdown();
}
