//! Advisor demo corpus: allocation sites with statically visible usage
//! patterns, exercised by `cs-analyzer`'s golden tests and by
//! `cargo run -p cs-analyzer -- advise crates/workloads`.
//!
//! Each function is an honest, runnable specimen of a pattern the paper's
//! cost models price differently across variants:
//!
//! * [`blocked_senders`] — the classic Perflint finding: a `Vec` used as a
//!   membership set, `contains` in the hot loop. The models price the
//!   hash-indexed `hasharray` list far below the plain array here.
//! * [`ordered_log`] — append-then-scan, the pattern `Vec` is *for*; the
//!   advisor must leave it alone (zero false positives).
//! * [`routing_table`] — a `HashMap` that is populated once and iterated
//!   repeatedly; iteration-friendly variants undercut chained hashing.
//! * [`session_dedup`] — insert-dominated `HashSet` churn, the specimen the
//!   alloc-rate dimension exists for: advising on `alloc_rate` must
//!   surface an alloc-driven recommendation here.
//! * [`shared_rate_limiter`] — a collection behind `Arc<Mutex<…>>` touched
//!   from a spawned thread; the escape analysis must steer it toward the
//!   concurrent tier.
//! * [`snapshot_log`] — a journal cloned every tick; the clone-pressure
//!   facts must flag it as a persistent/COW-tier candidate.
//!
//! `main` runs each specimen, then turns the advisor on this very file and
//! asserts the dataflow-powered findings above actually fire — so
//! `cargo run -p cs-workloads --example advisor_demo` doubles as an
//! acceptance test.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use cs_analyzer::{advise_file, extract, AdviseOptions, ExtractOptions};
use cs_model::CostDimension;

/// A membership filter built on `Vec` — `contains` inside the request loop
/// makes every lookup a linear scan. The advisor should recommend the
/// hash-indexed list variant.
fn blocked_senders(requests: &[u64]) -> usize {
    let mut blocked = Vec::with_capacity(512);
    let mut rejected = 0;
    for req in requests {
        if blocked.contains(req) {
            rejected += 1;
            continue;
        }
        if req % 7 == 0 {
            blocked.push(*req);
        }
    }
    rejected + blocked.len()
}

/// Append-only log drained by a single ordered scan: the array list is
/// already the right call, and the advisor must not invent a finding here.
fn ordered_log(events: &[u64]) -> u64 {
    let mut log = Vec::with_capacity(256);
    for e in events {
        log.push(*e);
    }
    let mut checksum = 0u64;
    for e in &log {
        checksum = checksum.wrapping_mul(31).wrapping_add(*e);
    }
    checksum
}

/// A routing table populated once, then iterated per tick: iteration
/// dominates, which the models price in favour of iteration-friendly
/// variants over chained hashing.
fn routing_table(ticks: usize) -> u64 {
    let mut routes = HashMap::new();
    for r in 0..64u64 {
        routes.insert(r, r * 10);
    }
    let mut forwarded = 0u64;
    for _ in 0..ticks {
        for _ in 0..ticks {
            for (_, next_hop) in routes.iter() {
                forwarded = forwarded.wrapping_add(*next_hop);
            }
        }
    }
    forwarded
}

/// Insert-dominated dedup churn on a `HashSet`: every request hashes and
/// most insert, so allocation rate — not lookup time — is the cost that
/// separates the set variants. Advising this file on the `alloc_rate`
/// dimension must yield an alloc-driven recommendation here.
fn session_dedup(requests: &[u64]) -> usize {
    let mut sessions = HashSet::new();
    for req in requests {
        sessions.insert(req % 4096);
    }
    sessions.len()
}

/// A rate-limiter window shared with a worker thread through the sanctioned
/// `Arc<Mutex<…>>` shape. The escape analysis must see the concurrent
/// escape and advise the concurrent tier — and must *not* report the
/// race-shaped lint, because the synchronization is present.
fn shared_rate_limiter(window: usize) -> usize {
    let limiter = Arc::new(Mutex::new(Vec::with_capacity(64)));
    let worker = Arc::clone(&limiter);
    let handle = std::thread::spawn(move || {
        let mut slots = worker.lock().expect("limiter lock");
        for tick in 0..64u64 {
            slots.push(tick);
        }
    });
    handle.join().expect("worker join");
    let held = limiter.lock().expect("limiter lock").len();
    held + window
}

/// An append-only journal snapshotted every tick: `clone()` in the hot
/// loop keeps whole back-versions alive, which is exactly the access
/// pattern persistent/COW structures amortize. The clone-pressure facts
/// must mark this site a persistent-tier candidate.
fn snapshot_log(ticks: usize) -> usize {
    let mut journal = Vec::with_capacity(128);
    let mut retained = 0;
    for t in 0..ticks {
        journal.push(t as u64);
        let snapshot = journal.clone();
        retained += snapshot.len();
    }
    retained
}

fn main() {
    let requests: Vec<u64> = (0..4096).map(|i| i % 997).collect();
    println!("blocked_senders: {}", blocked_senders(&requests));
    println!("ordered_log: {}", ordered_log(&requests));
    println!("routing_table: {}", routing_table(16));
    println!("session_dedup: {}", session_dedup(&requests));
    println!("shared_rate_limiter: {}", shared_rate_limiter(16));
    println!("snapshot_log: {}", snapshot_log(64));

    // Self-scan: run the dataflow-powered advisor over this very file and
    // assert the specimens above produce the findings they exist to
    // produce. Advising on the alloc-rate dimension prices every
    // recommendation by allocation churn, so any surviving recommendation
    // is alloc-driven by construction of the engine's rationale rule.
    let label = "crates/workloads/examples/advisor_demo.rs";
    let source_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/advisor_demo.rs");
    let src = std::fs::read_to_string(&source_path).expect("own source readable");
    let analysis = extract(label, &src, ExtractOptions::default());
    let advice = advise_file(
        &analysis,
        AdviseOptions {
            dimension: CostDimension::AllocRate,
            ..AdviseOptions::default()
        },
    );
    for a in &advice {
        println!("{}", a.render());
    }
    let alloc_driven = advice
        .iter()
        .filter(|a| a.recommendation.as_ref().is_some_and(|r| r.alloc_driven))
        .count();
    let escapes = advice.iter().filter(|a| a.escape_advice.is_some()).count();
    let persistent = advice
        .iter()
        .filter(|a| a.persistence_advice.is_some())
        .count();
    assert!(alloc_driven >= 1, "no alloc-driven recommendation surfaced");
    assert!(escapes >= 1, "escape analysis missed the shared limiter");
    assert!(persistent >= 1, "clone pressure missed the snapshot log");
    println!(
        "self-scan: {} sites, {alloc_driven} alloc-driven, {escapes} escaping, {persistent} persistent-candidates",
        advice.len()
    );
}
