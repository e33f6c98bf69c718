//! Regenerates paper Fig. 7 (overhead of analyzing the collection metrics by
//! window size, 100 … 100k).
//!
//! ```text
//! cargo run --release -p cs-bench --bin fig7_overhead
//! ```
//!
//! Measures one full analysis pass — the total-cost evaluation of every
//! candidate variant over the aggregated metrics of `window` monitored
//! instances — exactly the quantity the paper reports as < 285 ns. The
//! histogram aggregation keeps the pass O(#size-buckets), so the curve is
//! expected to be flat-ish in the window size, as in the paper. One more
//! row prices the other half of the monitoring cost: folding one finished
//! instance's profile into the histogram.

use std::time::Instant;

use cs_collections::ListKind;
use cs_core::{select_variant, SelectionRule, Switch};
use cs_model::default_models;
use cs_profile::{OpCounters, OpKind, ProfileHistogram, WindowConfig, WorkloadProfile};

fn main() {
    println!("# Fig. 7: analysis cost by window size");
    println!("window\tns_per_analysis");
    let model = default_models::list_model();
    let rule = SelectionRule::r_time();
    for window in [100usize, 300, 1_000, 3_000, 10_000, 30_000, 100_000] {
        let mut hist = ProfileHistogram::new();
        for i in 0..window {
            let mut c = OpCounters::new();
            c.add(OpKind::Populate, 50);
            c.add(OpKind::Contains, 120);
            c.add(OpKind::Iterate, 2);
            c.add(OpKind::Middle, 1);
            hist.add(&WorkloadProfile::new(c, 10 + (i % 700)));
        }
        // Steady-state protocol: warm up, then average many passes.
        for _ in 0..1_000 {
            std::hint::black_box(select_variant(model, &rule, ListKind::Array, &hist));
        }
        let reps = 100_000;
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(select_variant(model, &rule, ListKind::Array, &hist));
        }
        let ns = start.elapsed().as_nanos() as f64 / reps as f64;
        println!("{window}\t{ns:.1}");
    }
    println!();
    println!("# paper reference: < 285 ns across the same range");

    println!();
    println!("# per-instance cost of folding one finished profile into the histogram");
    let mut counters = OpCounters::new();
    counters.add(OpKind::Contains, 10);
    let profile = WorkloadProfile::new(counters, 333);
    let mut hist = ProfileHistogram::new();
    for _ in 0..1_000 {
        hist.add(std::hint::black_box(&profile));
    }
    let reps = 1_000_000;
    let start = Instant::now();
    for _ in 0..reps {
        hist.add(std::hint::black_box(&profile));
    }
    let ns = start.elapsed().as_nanos() as f64 / reps as f64;
    std::hint::black_box(&hist);
    println!("histogram_fold_ns\t{ns:.1}");

    println!();
    println!("# window-size ablation (DESIGN.md §4.3): decision stability");
    println!("# (paper §5: window 100 is \"a good compromise between fast");
    println!("#  analysis and stable transitions\"; tiny windows see");
    println!("#  unrepresentative samples of a mixed workload and flip-flop)");
    println!("window\ttransitions_over_4000_instances");
    for window in [2usize, 5, 20, 100, 500] {
        println!("{window}\t{}", transition_churn(window));
    }
}

/// Number of transitions a site performs on a mixed workload: instances
/// alternate between lookup-heavy (favors the hash-indexed list) and
/// append-only (favors the plain array), with the aggregate favoring the
/// hash index. A representative sample settles once; tiny windows chase the
/// per-round mix.
fn transition_churn(window_size: usize) -> usize {
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .window(WindowConfig {
            window_size,
            min_samples: 1,
            ..WindowConfig::default()
        })
        .build();
    let ctx = engine.list_context::<i64>(ListKind::Array);
    // Deterministic "random" phase mix.
    let mut x = 0x9E3779B97F4A7C15_u64;
    for i in 1..=4000usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut list = ctx.create_list();
        for v in 0..60 {
            list.push(v);
        }
        if x % 5 < 3 {
            // Lookup-heavy instance (60% of the stream).
            for v in 0..240 {
                list.contains(&v);
            }
        }
        drop(list);
        if i % 8 == 0 {
            engine.analyze_now();
        }
    }
    engine.transition_log().len()
}
