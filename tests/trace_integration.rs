//! Cross-crate tracing integration: under a 4-thread concurrent stress
//! workload, the tracer's spans must be well-nested, per-thread
//! monotonic, and in *exact* numeric agreement with the engine's own
//! accounting — Ingest spans with site flush counters, SwitchExec spans
//! with the transition log, Verify spans bounding rollbacks.
//!
//! Everything lives in one `#[test]` because the trace mode is process
//! global; integration-test binaries get their own process, so this
//! cannot race the unit suites.

use std::time::Duration;

use collection_switch::prelude::*;
use collection_switch::trace;
use trace::{Phase, SpanRecord, TraceMode};

/// Ops per worker per batch. A multiple of `FLUSH_OPS` so every buffer
/// flushes inside the worker's lifetime and the thread-exit destructor
/// has no residue — which makes the tracer's credited `app_ops` agree
/// *exactly* with the sites' op totals.
const FLUSH_OPS: u64 = 256;
const BATCH_OPS: u64 = FLUSH_OPS * 25;
const WORKERS: u64 = 4;

/// Exit-ordered records are well-nested iff every depth-`d` span (d > 0)
/// is contained in the next depth-`d-1` record: children exit (and are
/// recorded) before their parent.
fn assert_well_nested(spans: &[SpanRecord], thread: u64) {
    for (i, child) in spans.iter().enumerate() {
        if child.depth == 0 {
            continue;
        }
        let parent = spans[i + 1..]
            .iter()
            .find(|s| s.depth == child.depth - 1)
            .unwrap_or_else(|| {
                panic!(
                    "thread {thread}: depth-{} {:?} span at {} has no enclosing parent",
                    child.depth, child.phase, child.start_ns
                )
            });
        assert!(
            parent.start_ns <= child.start_ns && parent.end_ns() >= child.end_ns(),
            "thread {thread}: {:?} [{}, {}] not inside its {:?} parent [{}, {}]",
            child.phase,
            child.start_ns,
            child.end_ns(),
            parent.phase,
            parent.start_ns,
            parent.end_ns(),
        );
    }
}

#[test]
fn spans_agree_with_engine_accounting_under_concurrent_stress() {
    trace::reset();
    trace::set_mode(TraceMode::Full);

    let rt = Runtime::with_config(
        Switch::builder()
            .rule(SelectionRule::r_time())
            .window(collection_switch::profile::WindowConfig {
                window_size: 30,
                finished_ratio: 0.6,
                monitoring_rate: Duration::from_millis(5),
                min_samples: 5,
                history_decay: 0.5,
            })
            .build(),
        RuntimeConfig {
            shards: 8,
            flush_ops: FLUSH_OPS,
            // Count-triggered flushes only: a timer flush mid-batch would
            // leave a non-multiple residue in the buffers and break the
            // exact app-op agreement below.
            flush_interval: Duration::from_secs(3600),
            ..RuntimeConfig::default()
        },
    );
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "trace-stress");

    // Batches of lookup-heavy Zipf-ish traffic until the engine commits a
    // switch (chained map under 95% lookups loses to an indexed layout),
    // bounded so a modeling surprise fails fast instead of hanging.
    let mut batches = 0;
    while rt.engine().transition_log().is_empty() && batches < 40 {
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let map = map.clone();
                std::thread::spawn(move || {
                    for i in 0..BATCH_OPS {
                        let key = (i * (t + 1)) % 512;
                        if i % 20 == 0 {
                            map.insert(key, i);
                        } else {
                            map.get(&key);
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        rt.analyze_now();
        batches += 1;
    }

    let snap = trace::snapshot();
    trace::set_mode(TraceMode::Off);

    let transitions = rt.engine().transition_log();
    assert!(
        !transitions.is_empty(),
        "lookup-heavy stress never provoked a switch in {batches} batches"
    );

    let stats = map.stats();
    let counts = snap.phase_counts();

    // -- Exact agreement with the engine's books --------------------------
    // One OpRecord span per op in full mode; one Ingest per accepted
    // flush; the Flush phase fires twice per flush (thread-local handoff
    // + profile-sink push); one SwitchExec per logged transition.
    let total_ops = WORKERS * BATCH_OPS * batches;
    assert_eq!(stats.total_ops, total_ops, "runtime lost ops");
    assert_eq!(counts[Phase::OpRecord.index()], total_ops);
    assert_eq!(counts[Phase::Ingest.index()], stats.flushes);
    assert_eq!(counts[Phase::Flush.index()], stats.flushes * 2);
    assert_eq!(counts[Phase::SwitchExec.index()], transitions.len() as u64);
    assert!(
        stats.rollbacks <= counts[Phase::Verify.index()],
        "every rollback happens inside a Verify span"
    );
    assert!(
        counts[Phase::ModelEval.index()] <= counts[Phase::Decision.index()],
        "model evaluation only runs inside a decision pass"
    );
    assert!(counts[Phase::Decision.index()] > 0, "no analysis ever ran");

    // -- Self-overhead account -------------------------------------------
    // Wall-interval crediting at flush boundaries sees every op exactly
    // once (buffers drain completely inside each worker's lifetime).
    let overhead = snap.overhead();
    assert_eq!(overhead.app_ops, total_ops);
    assert!(overhead.app_nanos > 0);
    assert!(overhead.tracer_nanos > 0);
    let ratio = overhead.ratio();
    assert!(
        ratio > 0.0 && ratio < 1.0,
        "self-overhead ratio {ratio} out of range"
    );

    // -- Per-thread span structure ----------------------------------------
    assert!(
        snap.threads.len() >= WORKERS as usize,
        "expected at least the worker rings, got {}",
        snap.threads.len()
    );
    let mut saw_nested = false;
    for t in &snap.threads {
        // Ring order is exit order, and exits on one thread are clocked
        // by one monotonic counter: end timestamps never go backwards.
        for pair in t.spans.windows(2) {
            assert!(
                pair[0].end_ns() <= pair[1].end_ns(),
                "thread {}: span exit times regressed ({} > {})",
                t.thread,
                pair[0].end_ns(),
                pair[1].end_ns(),
            );
        }
        assert_well_nested(&t.spans, t.thread);
        saw_nested |= t.spans.iter().any(|s| s.depth > 0);
        for s in &t.spans {
            assert_eq!(s.thread, t.thread, "span carries its ring's thread id");
        }
    }
    assert!(
        saw_nested,
        "the ingest path must have produced nested spans (Flush > Ingest > Flush)"
    );
}
