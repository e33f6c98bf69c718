//! A lusearch-style text indexer: thousands of tiny per-document term maps
//! plus a few large shared indexes, optimized for memory with `R_alloc`.
//!
//! ```text
//! cargo run --release --example text_index
//! ```
//!
//! Demonstrates the paper's headline memory result: under the allocation
//! rule, small maps converge to array/adaptive variants and the peak tracked
//! heap drops versus the JDK-default `HashMap` everywhere.

use collection_switch::collections::HeapSize;
use collection_switch::prelude::*;

/// Tokenizes a pseudo-document into term ids.
fn terms_of(doc: u64, len: usize) -> impl Iterator<Item = i64> {
    (0..len).map(move |i| {
        // Zipf-ish skew: a few hot terms, many rare ones.
        let x = (doc.wrapping_mul(6364136223846793005) ^ (i as u64 * 2654435761)) % 1000;
        (x * x / 1000) as i64
    })
}

/// Indexes documents through an allocation context, returning the peak
/// tracked bytes of the live per-document maps. `tick` runs every 500
/// documents (the deterministic stand-in for the 50 ms analyzer thread).
fn index_documents(ctx: &MapContext<i64, u32>, docs: usize, mut tick: impl FnMut()) -> usize {
    let mut live = std::collections::VecDeque::new();
    let mut live_bytes = 0usize;
    let mut peak = 0usize;
    for doc in 0..docs as u64 {
        if doc % 500 == 0 {
            tick();
        }
        // Per-document term-frequency map: typically < 20 distinct terms.
        let mut tf = ctx.create_map();
        let len = 8 + (doc % 24) as usize;
        for term in terms_of(doc, len) {
            let n = tf.get(&term).copied().unwrap_or(0);
            tf.insert(term, n + 1);
        }
        let bytes = tf.heap_bytes();
        live_bytes += bytes;
        live.push_back((tf, bytes));
        if live.len() > 512 {
            let (_old, old_bytes) = live.pop_front().expect("nonempty");
            live_bytes -= old_bytes;
        }
        peak = peak.max(live_bytes);
    }
    peak
}

fn main() {
    const WARMUP_DOCS: usize = 2_000; // unmeasured, as in the paper's protocol
    const DOCS: usize = 20_000;

    // Baseline: JDK-default HashMap at every site, no adaptation.
    let frozen = Switch::builder().rule(SelectionRule::impossible()).build();
    let baseline_ctx = frozen.named_map_context::<i64, u32>(MapKind::Chained, "tf-baseline");
    index_documents(&baseline_ctx, WARMUP_DOCS, || frozen.analyze_now());
    let baseline_peak = index_documents(&baseline_ctx, DOCS, || frozen.analyze_now());

    // Adaptive: R_alloc (alloc < 0.8, time penalty < 1.2 — paper Table 4).
    let engine = Switch::builder().rule(SelectionRule::r_alloc()).build();
    let ctx = engine.named_map_context::<i64, u32>(MapKind::Chained, "DocIndexer:42");
    index_documents(&ctx, WARMUP_DOCS, || engine.analyze_now());
    let adaptive_peak = index_documents(&ctx, DOCS, || engine.analyze_now());

    println!("documents indexed:        {DOCS}");
    println!(
        "baseline peak (HashMap):  {:.1} KiB",
        baseline_peak as f64 / 1024.0
    );
    println!(
        "adaptive peak:            {:.1} KiB",
        adaptive_peak as f64 / 1024.0
    );
    println!(
        "saved:                    {:.1}%",
        (1.0 - adaptive_peak as f64 / baseline_peak as f64) * 100.0
    );
    println!("site now instantiates:    {}", ctx.current_kind());
    for event in engine.transition_log() {
        println!("  {event}");
    }

    assert!(
        adaptive_peak < baseline_peak,
        "R_alloc must reduce the tiny-map working set"
    );
}
